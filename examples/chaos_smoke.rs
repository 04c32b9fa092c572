//! Chaos smoke check — CI's fault-tolerance guard.
//!
//! ```sh
//! cargo run --release --example chaos_smoke
//! ```
//!
//! Replays the serving layer's failure modes in seconds: an injected
//! shard panic must surface as a typed [`ServeError::Shard`] (strict)
//! or a partial response with an accurate coverage bitmap (degraded),
//! a deadline-bound straggler must yield the typed timeout within ~2×
//! its budget, a saturated admission gate must reject with the typed
//! [`ServeError::Overloaded`] — and once every fault is spent, the same
//! engine must answer bit-identically to the unsharded reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::serving::{
    AdmissionConfig, FaultKind, FaultPlan, QueryOptions, ServeError, ShardAssignment, ShardFault,
    ShardedEngine,
};
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{perturb, ErrorFamily, ErrorSpec};

fn main() {
    // The injected panics below unwind by design; keep CI logs clean by
    // silencing exactly those (anything unexpected still reports).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|m| m.contains("injected fault"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let seed = Seed::new(0xC4A5);
    let n = 23; // prime: no shard count divides it
    let len = 100;
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 5.0 + i as f64 * 0.4).sin() + 0.3 * (t / 13.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
    let uncertain: Vec<_> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
        .collect();
    let task = MatchingTask::new(clean, uncertain, None, 3);
    let technique = Technique::Euclidean;
    let shards = 4;

    let t0 = Instant::now();
    let flat = QueryEngine::prepare(&task, &technique);
    let mut engine = ShardedEngine::prepare(&task, &technique, shards, ShardAssignment::RoundRobin)
        .with_admission(AdmissionConfig::reject_when_full(1));
    let q = 5;
    let eps = task.calibrated_threshold(q, &technique) * 2.0;

    // 1. Injected panic, strict: a typed, attributed shard error — the
    //    process survives and the engine stays usable.
    engine.inject_faults(FaultPlan::new().one_shot(1, FaultKind::Panic));
    match engine.answer_set_opts(q, eps, &QueryOptions::default()) {
        Err(ServeError::Shard {
            shard: 1,
            cause: ShardFault::Panic(_),
        }) => {}
        other => panic!("strict panic: expected shard 1 error, got {other:?}"),
    }
    println!("chaos: strict shard panic -> typed shard error, process alive");

    // 2. Injected panic, degraded: partial answer, accurate coverage.
    engine.inject_faults(FaultPlan::new().one_shot(2, FaultKind::Panic));
    let partial = engine
        .answer_set_opts(q, eps, &QueryOptions::default().degraded())
        .expect("degraded mode merges the healthy shards");
    assert!(
        !partial.is_complete(),
        "coverage must record the lost shard"
    );
    assert_eq!(partial.coverage.missing(), vec![2]);
    let lost: Vec<usize> = engine.plan().members(2).to_vec();
    let want: Vec<usize> = flat
        .answer_set(q, eps)
        .into_iter()
        .filter(|i| !lost.contains(i))
        .collect();
    assert_eq!(
        *partial.value, want,
        "partial merge = full minus lost shard"
    );
    println!(
        "chaos: degraded shard panic -> partial answer, coverage {}/{}",
        partial.coverage.covered_count(),
        partial.coverage.shard_count()
    );

    // 3. Straggler against a deadline: typed timeout within ~2x budget.
    let budget = Duration::from_millis(100);
    engine.inject_faults(FaultPlan::new().one_shot(0, FaultKind::Delay(Duration::from_secs(5))));
    let started = Instant::now();
    match engine.answer_set_opts(q, eps, &QueryOptions::default().with_deadline(budget)) {
        Err(ServeError::Timeout) => {}
        other => panic!("deadline: expected timeout, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < budget * 2,
        "timeout took {elapsed:?}, budget {budget:?}"
    );
    println!("chaos: 5s straggler under {budget:?} deadline -> Timeout in {elapsed:?}");

    // 4. Saturated admission gate: typed rejection, then recovery.
    engine
        .inject_faults(FaultPlan::new().one_shot(0, FaultKind::Delay(Duration::from_millis(250))));
    let engine = Arc::new(engine);
    let holder = {
        let engine = Arc::clone(&engine);
        let eps = task.calibrated_threshold(10, &technique);
        std::thread::spawn(move || engine.answer_set_opts(10, eps, &QueryOptions::default()))
    };
    std::thread::sleep(Duration::from_millis(60));
    match engine.answer_set_opts(q, eps * 0.9, &QueryOptions::default()) {
        Err(ServeError::Overloaded) => {}
        other => panic!("overload: expected rejection, got {other:?}"),
    }
    holder
        .join()
        .expect("holder must not crash")
        .expect("holder query succeeds");
    let gate = engine.gate_stats().expect("gate configured");
    assert_eq!(gate.rejected, 1, "exactly the saturated attempt rejected");
    assert_eq!(gate.in_flight, 0, "permits all returned");
    println!(
        "chaos: full gate -> Overloaded (admitted {}, rejected {})",
        gate.admitted, gate.rejected
    );

    // 5. Every fault spent: the same engine answers bit-identically to
    //    the unsharded reference, full coverage, zero retries.
    assert_eq!(engine.armed_faults(), 0, "all injected faults consumed");
    for probe in [0, n / 2, n - 1] {
        let e = task.calibrated_threshold(probe, &technique);
        let resp = engine
            .answer_set_opts(probe, e, &QueryOptions::default())
            .expect("fault-free query");
        assert!(resp.is_complete());
        assert_eq!(resp.retries, 0);
        assert_eq!(*resp.value, flat.answer_set(probe, e));
    }
    println!(
        "chaos smoke ok: faults spent, engine bit-identical to unsharded in {:?}",
        t0.elapsed()
    );
}
