//! Sensor monitoring — the paper's manufacturing-plant motivation.
//!
//! ```sh
//! cargo run --release --example sensor_monitoring
//! ```
//!
//! "In manufacturing plants and engineering facilities, sensor networks
//! are being deployed to ensure efficiency, product quality and safety:
//! unexpected vibration patterns in production machines … are used to
//! predict failures" (paper §1). This example simulates a fleet of
//! vibration sensors with *heteroscedastic* noise (each sensor has its
//! own, known error σ — e.g. from its calibration sheet) and uses
//! similarity search to find which machines match a known failure
//! signature.

use uncertts::core::engine::{QueryEngine, QueryRef};
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::uma::Uema;
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{ErrorFamily, PointError, UncertainSeries};

/// A machine's vibration envelope over one shift: a baseline hum plus an
/// optional developing bearing fault (growing oscillation).
fn vibration_profile(seed: Seed, fault_severity: f64, len: usize) -> TimeSeries {
    let mut rng = seed.rng();
    use rand::Rng;
    let base_freq: f64 = rng.gen_range(3.0..4.0);
    let fault_onset: f64 = rng.gen_range(0.3..0.6);
    TimeSeries::from_values((0..len).map(|t| {
        let u = t as f64 / (len - 1) as f64;
        let hum = 0.4 * (std::f64::consts::TAU * base_freq * u).sin();
        let fault = if u > fault_onset {
            let dt = u - fault_onset;
            fault_severity * dt * (std::f64::consts::TAU * 18.0 * u).sin()
        } else {
            0.0
        };
        hum + fault
    }))
    .znormalized()
}

/// Observes a profile through a sensor with per-point noise: sensors
/// degrade over the shift, so σ grows with time — exactly the
/// heteroscedastic case where UMA/UEMA's confidence weighting matters.
fn observe(profile: &TimeSeries, sensor_quality: f64, seed: Seed) -> UncertainSeries {
    let mut rng = seed.rng();
    let n = profile.len();
    let errors: Vec<PointError> = (0..n)
        .map(|t| {
            let degradation = 1.0 + 2.0 * t as f64 / n as f64;
            PointError::new(ErrorFamily::Normal, sensor_quality * degradation)
        })
        .collect();
    let values: Vec<f64> = profile
        .iter()
        .zip(&errors)
        .map(|(v, e)| v + e.sample(&mut rng))
        .collect();
    UncertainSeries::new(values, errors)
}

fn main() {
    let seed = Seed::new(7);
    let len = 256;
    let fleet_size = 30;

    // The fleet: machines 0..5 are developing the fault; the rest are
    // healthy. A known failure signature serves as the query.
    let mut profiles = Vec::new();
    for m in 0..fleet_size {
        let severity = if m < 5 { 1.2 } else { 0.0 };
        profiles.push(vibration_profile(
            seed.derive("machine").derive_u64(m as u64),
            severity,
            len,
        ));
    }
    let signature = vibration_profile(seed.derive("signature"), 1.2, len);

    // Observe everything through noisy sensors (σ between 0.2 and 0.5,
    // degrading over the shift).
    let observations: Vec<UncertainSeries> = profiles
        .iter()
        .enumerate()
        .map(|(m, p)| {
            let quality = 0.2 + 0.3 * (m % 3) as f64 / 2.0;
            observe(p, quality, seed.derive("sensor").derive_u64(m as u64))
        })
        .collect();
    let query = observe(&signature, 0.25, seed.derive("query-sensor"));

    // The fleet as a matching task (the clean profiles are the truth the
    // sensors observe), prepared once for UEMA: every machine's filtered
    // view is computed here, not per query.
    let task = MatchingTask::new(profiles, observations, None, 5);
    let uema = Uema::default();
    let engine = QueryEngine::prepare(&task, &Technique::Uema(uema));

    // Rank the fleet by UEMA similarity to the failure signature. The
    // signature is not a fleet member, so it is passed as an external
    // query view: its own UEMA-filtered series, nothing excluded.
    let filtered = uema.filter(&query);
    let signature_view = QueryRef::Filtered(&filtered);
    println!("top-8 machines most similar to the failure signature (UEMA):");
    let ranked = engine
        .top_k_ref(&signature_view, 8, None)
        .expect("UEMA ranks by distance");
    for (rank, (machine, dist)) in ranked.iter().enumerate() {
        let truth = if *machine < 5 { "FAULT" } else { "ok" };
        println!(
            "  #{:<2} machine {:>2}  distance {:>7.3}  ground truth: {truth}",
            rank + 1,
            machine,
            dist
        );
    }

    // Range alert: flag everything within the distance of the 5th-ranked
    // machine (a simple operational threshold).
    let threshold = ranked[4].1;
    let flagged = engine.answer_set_ref(&signature_view, threshold, None);
    let hits = flagged.iter().filter(|&&m| m < 5).count();
    println!(
        "\nrange alert at ε = {threshold:.3}: {} machines flagged, {hits}/5 true faults caught",
        flagged.len()
    );

    // Show why the uncertainty-aware filter helps: compare with raw
    // Euclidean on the noisy observations.
    let eucl = QueryEngine::prepare(&task, &Technique::Euclidean);
    let ranked_eucl = eucl
        .top_k_ref(&QueryRef::Uncertain(&query), 8, None)
        .expect("Euclidean ranks by distance");
    let uema_hits = ranked.iter().filter(|(m, _)| *m < 5).count();
    let eucl_hits = ranked_eucl.iter().filter(|(m, _)| *m < 5).count();
    println!(
        "\nfaulty machines in the top-8: UEMA {uema_hits}/5 vs raw Euclidean {eucl_hits}/5 \
         (UEMA down-weights the degraded late-shift samples)"
    );
}
