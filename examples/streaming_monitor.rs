//! Streaming similarity monitoring with PROUD.
//!
//! ```sh
//! cargo run --release --example streaming_monitor
//! ```
//!
//! PROUD's native habitat is the *data stream* (its source paper is about
//! "similarity queries over uncertain data streams"). This example runs
//! the streaming formulation end-to-end: a reference profile and a live
//! uncertain sensor stream are compared continuously over a sliding
//! window — O(1) work per arriving point — and a probabilistic range
//! predicate raises an alarm the moment the stream stops tracking the
//! reference, with the probability quantifying the confidence.

use uncertts::core::proud_stream::ProudStream;
use uncertts::stats::rng::Seed;
use uncertts::tseries::euclidean;
use uncertts::uncertain::{ErrorFamily, PointError};

fn main() {
    let seed = Seed::new(5);
    let mut rng = seed.rng();
    let sigma = 0.25;
    let pe = PointError::new(ErrorFamily::Normal, sigma);
    let window = 32;
    let n = 240;
    let drift_at = 150;

    // Reference: the expected machine cycle. Live: tracks it until a
    // fault shifts the cycle's amplitude at t = 150.
    let reference: Vec<f64> = (0..n).map(|t| (t as f64 / 8.0).sin()).collect();
    let live_truth: Vec<f64> = (0..n)
        .map(|t| {
            let base = (t as f64 / 8.0).sin();
            if t >= drift_at {
                1.6 * base + 0.4
            } else {
                base
            }
        })
        .collect();

    // The monitor consumes noisy observations of both streams.
    let mut monitor = ProudStream::with_window(window);
    // Alarm when Pr(window distance ≤ ε) drops below τ.
    let eps = (2.0 * window as f64 * sigma * sigma).sqrt() * 1.8;
    let tau = 0.05;

    println!("streaming PROUD monitor: window {window}, ε = {eps:.2}, τ = {tau}");
    println!("fault injected at t = {drift_at}\n");
    let mut alarm_at = None;
    for t in 0..n {
        let obs_ref = reference[t] + pe.sample(&mut rng);
        let obs_live = live_truth[t] + pe.sample(&mut rng);
        monitor.push(obs_live, obs_ref, sigma, sigma);
        if t % 24 == 0 || (alarm_at.is_none() && !monitor.matches(eps, tau) && t > window) {
            let p = monitor.probability_within(eps);
            let state = if monitor.matches(eps, tau) {
                "ok"
            } else {
                "ALARM"
            };
            println!("t = {t:>3}  Pr(d ≤ ε) = {p:>9.3e}  [{state}]");
            if state == "ALARM" && alarm_at.is_none() {
                alarm_at = Some(t);
            }
        }
    }
    match alarm_at {
        Some(t) => println!(
            "\nalarm raised at t = {t} — {} points after the fault \
             (the sliding window needs to fill with post-fault data)",
            t - drift_at
        ),
        None => println!("\nno alarm raised — increase the window or lower ε"),
    }

    // Forensics: where does the faulty cycle shape occur in the recorded
    // stream? Slide the post-fault pattern over the recorded observations
    // every 4 samples and keep the windows within ε (Euclidean).
    let recorded: Vec<f64> = live_truth.iter().map(|v| v + pe.sample(&mut rng)).collect();
    let pattern: Vec<f64> = (0..window)
        .map(|t| 1.6 * ((t + drift_at) as f64 / 8.0).sin() + 0.4 + pe.sample(&mut rng))
        .collect();
    let eps_scan = (2.0 * window as f64 * sigma * sigma).sqrt() * 2.0;
    let hits: Vec<usize> = (0..=n - window)
        .step_by(4)
        .filter(|&offset| euclidean(&pattern, &recorded[offset..offset + window]) <= eps_scan)
        .collect();
    println!(
        "subsequence scan: {} windows match the fault signature; earliest at offset {:?} \
         (fault was at {drift_at})",
        hits.len(),
        hits.first()
    );
}
