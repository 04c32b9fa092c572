//! Fault-injection suite for the serving layer: injected shard panics,
//! deadline expiry, admission-gate overflow and degenerate inputs must
//! all surface as *typed* errors — never a process abort — and degraded
//! mode must merge exactly the shards its coverage bitmap claims.
//!
//! The injected panics are real `panic!`s crossing the per-attempt
//! catch; to keep the test log readable the suite installs a hook that
//! silences the expected "injected fault" messages (anything else still
//! prints).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use uts_core::dust::Dust;
use uts_core::engine::QueryEngine;
use uts_core::index::IndexConfig;
use uts_core::matching::{MatchingTask, Technique};
use uts_core::munich::Munich;
use uts_core::parallel::try_parallel_map;
use uts_core::proud::{Proud, ProudConfig};
use uts_core::serving::{
    AdmissionConfig, FaultKind, FaultPlan, QueryOptions, ServeError, ShardAssignment, ShardFault,
    ShardedEngine,
};
use uts_core::uma::{Uema, Uma};
use uts_core::{Collection, InputError};
use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsError, MultiObsSeries, UncertainSeries,
};

/// Silences panic-hook output for the injected faults (which unwind by
/// design); every other panic keeps the default report.
fn quiet_injected_panics() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|m| m.contains("injected fault"))
            .unwrap_or(false);
        if !injected {
            default(info);
        }
    }));
}

fn build_task(seed: u64, n: usize, len: usize, k: usize) -> MatchingTask {
    let root = Seed::new(seed);
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 3.0 + i as f64 * 0.5).sin() + 0.3 * (t / 7.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, root.derive("pdf").derive_u64(i as u64)))
        .collect();
    let multi: Vec<MultiObsSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb_multi(c, &spec, 3, root.derive("multi").derive_u64(i as u64)))
        .collect();
    MatchingTask::new(clean, uncertain, Some(multi), k)
}

fn all_techniques() -> Vec<Technique> {
    vec![
        Technique::Euclidean,
        Technique::Dust(Dust::default()),
        Technique::Uma(Uma::default()),
        Technique::Uema(Uema::default()),
        Technique::Proud {
            proud: Proud::new(ProudConfig::with_sigma(0.4)),
            tau: 0.4,
        },
        Technique::Munich {
            munich: Munich::default(),
            tau: 0.4,
        },
    ]
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// A crashing shard fails the query with a typed, attributed
/// [`ServeError::Shard`] in strict mode — the process (and the engine) survive,
/// and once the one-shot fault is spent the same engine answers the same
/// query bit-identically to an unsharded reference.
#[test]
fn injected_panic_is_typed_shard_error_then_recovers() {
    quiet_injected_panics();
    let task = build_task(0xFA01, 12, 20, 3);
    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(2, FaultKind::Panic));
    let eps = task.calibrated_threshold(0, &technique);

    let err = sharded
        .answer_set_opts(0, eps, &QueryOptions::default())
        .expect_err("strict mode must fail on a crashed shard");
    match err {
        ServeError::Shard {
            shard,
            cause: ShardFault::Panic(msg),
        } => {
            assert_eq!(shard, 2, "the error names the crashed shard");
            assert!(
                msg.contains("injected fault"),
                "payload message kept: {msg}"
            );
        }
        other => panic!("expected a shard panic error, got {other:?}"),
    }
    assert_eq!(sharded.armed_faults(), 0, "one-shot rule is spent");

    // Same engine, same query: the fault is gone and the answer is the
    // unsharded one, bit for bit.
    let ok = sharded
        .answer_set_opts(0, eps, &QueryOptions::default())
        .expect("fault spent");
    assert!(ok.is_complete());
    assert_eq!(*ok.value, flat.answer_set(0, eps));
}

/// Shard panics leave the worker pool that runs the fan-out healthy:
/// after every shard of a 4-shard engine crashes, round after round and
/// for every technique, the next fault-free query on the same engine
/// covers all four shards and answers bit-identically to the unsharded
/// engine. Each round asks a new query member, so the recovery is a
/// real fan-out, never a cache hit.
#[test]
fn pool_stays_healthy_after_injected_shard_panics() {
    quiet_injected_panics();
    let task = build_task(0xFA0E, 12, 20, 3);
    let crash_every_shard =
        || (0..4).fold(FaultPlan::new(), |p, s| p.one_shot(s, FaultKind::Panic));
    for technique in all_techniques() {
        let name = format!("{:?}", technique.kind());
        let flat = QueryEngine::prepare(&task, &technique);
        let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
        for q in 0..3 {
            let eps = task.calibrated_threshold(q, &technique);
            sharded.inject_faults(crash_every_shard());
            let err = sharded.answer_set_opts(q, eps, &QueryOptions::default());
            assert!(
                matches!(err, Err(ServeError::Shard { .. })),
                "{name}: {err:?}"
            );
            assert_eq!(sharded.armed_faults(), 0, "{name}: every shard crashed");
            let ok = sharded
                .answer_set_opts(q, eps, &QueryOptions::default())
                .expect("faults spent");
            assert_eq!(ok.coverage.covered_count(), 4, "{name}");
            assert_eq!(*ok.value, flat.answer_set(q, eps), "{name}, q {q}");

            sharded.inject_faults(crash_every_shard());
            if matches!(
                technique,
                Technique::Proud { .. } | Technique::Munich { .. }
            ) {
                let err = sharded.probabilities_opts(q, eps, &QueryOptions::default());
                assert!(matches!(err, Err(ServeError::Shard { .. })), "{name}");
                let ok = sharded
                    .probabilities_opts(q, eps, &QueryOptions::default())
                    .expect("faults spent")
                    .expect("probabilistic technique");
                assert_eq!(ok.coverage.covered_count(), 4, "{name}");
                let want = flat.probabilities(q, eps).expect("probabilistic technique");
                assert_eq!(ok.value.len(), want.len(), "{name}");
                for (a, b) in ok.value.iter().zip(&want) {
                    assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "{name}");
                }
            } else {
                let err = sharded.top_k_opts(q, 4, &QueryOptions::default());
                assert!(matches!(err, Err(ServeError::Shard { .. })), "{name}");
                let ok = sharded
                    .top_k_opts(q, 4, &QueryOptions::default())
                    .expect("faults spent");
                assert_eq!(ok.coverage.covered_count(), 4, "{name}");
                let want = flat.top_k(q, 4).expect("distance-ranked technique");
                assert_eq!(ok.value.len(), want.len(), "{name}");
                for (a, b) in ok.value.iter().zip(&want) {
                    assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "{name}");
                }
            }
        }
    }
}

/// Degraded mode survives the crash: the merge covers every healthy
/// shard, the coverage bitmap pinpoints the lost one, and the partial
/// answer is exactly the full answer minus the lost shard's members.
#[test]
fn degraded_mode_merges_healthy_shards_with_accurate_coverage() {
    quiet_injected_panics();
    let task = build_task(0xFA02, 12, 20, 3);
    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    let lost = 1usize;
    sharded.inject_faults(FaultPlan::new().one_shot(lost, FaultKind::Panic));
    let eps = task.calibrated_threshold(0, &technique) * 2.0;

    let partial = sharded
        .answer_set_opts(0, eps, &QueryOptions::default().degraded())
        .expect("degraded mode answers from the healthy shards");
    assert!(!partial.is_complete());
    assert!(!partial.coverage.covered(lost));
    assert_eq!(partial.coverage.covered_count(), 3);
    assert_eq!(partial.coverage.missing(), vec![lost]);

    // Expected: the full answer restricted to members of covered shards.
    let lost_members: Vec<usize> = sharded.plan().members(lost).to_vec();
    let want: Vec<usize> = flat
        .answer_set(0, eps)
        .into_iter()
        .filter(|i| !lost_members.contains(i))
        .collect();
    assert_eq!(
        *partial.value, want,
        "partial merge = full minus lost shard"
    );

    // The partial must NOT have been cached: re-asking with the fault
    // spent produces the complete answer.
    let full = sharded
        .answer_set_opts(0, eps, &QueryOptions::default().degraded())
        .expect("no fault left");
    assert!(full.is_complete());
    assert_eq!(*full.value, flat.answer_set(0, eps));
}

/// A retry budget turns a transient crash into a success: the one-shot
/// fault fires on attempt 0, the retry finds it spent, and the answer is
/// complete and bit-identical — with the spent retry reported.
#[test]
fn retry_recovers_a_transient_panic() {
    quiet_injected_panics();
    let task = build_task(0xFA03, 12, 20, 3);
    let technique = Technique::Dust(Dust::default());
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 3, ShardAssignment::Contiguous);
    sharded.inject_faults(FaultPlan::new().one_shot(0, FaultKind::Panic));
    let eps = task.calibrated_threshold(2, &technique);

    let resp = sharded
        .answer_set_opts(2, eps, &QueryOptions::default().with_retries(2))
        .expect("the retry must recover the one-shot crash");
    assert!(resp.is_complete());
    assert_eq!(resp.retries, 1, "exactly one retry was needed");
    assert_eq!(*resp.value, flat.answer_set(2, eps));
}

/// Top-k and probabilities cross the same fault boundary: a crashed
/// shard is a typed error for both, and the recovered answers match the
/// unsharded engine bit for bit.
#[test]
fn top_k_and_probabilities_share_the_fault_boundary() {
    quiet_injected_panics();
    let task = build_task(0xFA04, 12, 20, 3);

    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(3, FaultKind::Panic));
    match sharded.top_k_opts(1, 4, &QueryOptions::default()) {
        Err(ServeError::Shard { shard: 3, .. }) => {}
        other => panic!("expected shard 3 panic, got {other:?}"),
    }
    let top = sharded
        .top_k_opts(1, 4, &QueryOptions::default())
        .expect("fault spent");
    for (a, b) in top.value.iter().zip(&flat.top_k(1, 4).unwrap()) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }

    let technique = Technique::Proud {
        proud: Proud::new(ProudConfig::with_sigma(0.4)),
        tau: 0.4,
    };
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(0, FaultKind::Panic));
    let eps = task.calibrated_threshold(0, &technique);
    match sharded.probabilities_opts(0, eps, &QueryOptions::default()) {
        Err(ServeError::Shard { shard: 0, .. }) => {}
        other => panic!("expected shard 0 panic, got {other:?}"),
    }
    let probs = sharded
        .probabilities_opts(0, eps, &QueryOptions::default())
        .expect("fault spent")
        .expect("probabilistic technique");
    for (a, b) in probs.value.iter().zip(&flat.probabilities(0, eps).unwrap()) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }
}

/// Top-k and probabilities go through the same cache as range: a
/// degraded partial is never cached, so the next ask (fault spent)
/// computes the complete answer, and only that one is replayed.
#[test]
fn degraded_partials_are_not_cached_for_top_k_or_probabilities() {
    quiet_injected_panics();
    let task = build_task(0xFA0C, 12, 20, 3);
    let degraded = QueryOptions::default().degraded();

    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(1, FaultKind::Panic));
    let partial = sharded
        .top_k_opts(0, 4, &degraded)
        .expect("healthy shards answer");
    assert_eq!(partial.coverage.missing(), vec![1]);
    assert_eq!(sharded.cache_stats().entries, 0, "partial top-k not cached");
    let full = sharded.top_k_opts(0, 4, &degraded).expect("fault spent");
    assert!(full.is_complete());
    for (a, b) in full.value.iter().zip(&flat.top_k(0, 4).unwrap()) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }
    let hit = sharded.top_k_opts(0, 4, &degraded).expect("cached");
    assert!(Arc::ptr_eq(&full.value, &hit.value));

    let technique = Technique::Proud {
        proud: Proud::new(ProudConfig::with_sigma(0.4)),
        tau: 0.4,
    };
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(2, FaultKind::Panic));
    let eps = task.calibrated_threshold(0, &technique);
    let partial = sharded
        .probabilities_opts(0, eps, &degraded)
        .expect("healthy shards answer")
        .expect("probabilistic technique");
    assert_eq!(partial.coverage.missing(), vec![2]);
    assert_eq!(
        sharded.cache_stats().entries,
        0,
        "partial probabilities not cached"
    );
    let full = sharded
        .probabilities_opts(0, eps, &degraded)
        .expect("fault spent")
        .expect("probabilistic technique");
    assert!(full.is_complete());
    for (a, b) in full.value.iter().zip(&flat.probabilities(0, eps).unwrap()) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }
    let hit = sharded
        .probabilities_opts(0, eps, &degraded)
        .expect("cached")
        .expect("probabilistic technique");
    assert!(Arc::ptr_eq(&full.value, &hit.value));
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// A straggling shard against a deadline: strict mode reports the typed
/// [`ServeError::Timeout`] within ~2× the budget — the cooperative
/// checkpoints abandon the scan instead of waiting the straggler out.
#[test]
fn deadline_expiry_is_typed_timeout_within_twice_the_budget() {
    let task = build_task(0xFA05, 12, 20, 3);
    let technique = Technique::Euclidean;
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    sharded.inject_faults(FaultPlan::new().one_shot(0, FaultKind::Delay(Duration::from_secs(5))));
    let budget = Duration::from_millis(100);
    let eps = task.calibrated_threshold(0, &technique);

    let start = Instant::now();
    let err = sharded
        .answer_set_opts(0, eps, &QueryOptions::default().with_deadline(budget))
        .expect_err("the straggler must trip the deadline");
    let elapsed = start.elapsed();
    assert_eq!(err, ServeError::Timeout);
    assert!(
        elapsed < budget * 2,
        "timeout must fire within ~2x budget, took {elapsed:?}"
    );
}

/// The same straggler in degraded mode: the query returns at the
/// deadline with the finished shards merged and the straggler marked
/// uncovered. (A shard queued *behind* the straggler on a small worker
/// pool may also miss the deadline — the contract is that the coverage
/// bitmap is accurate, not that exactly one shard is lost.)
#[test]
fn degraded_mode_returns_partial_at_the_deadline() {
    let task = build_task(0xFA06, 12, 20, 3);
    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let mut sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    let slow = 2usize;
    sharded
        .inject_faults(FaultPlan::new().one_shot(slow, FaultKind::Delay(Duration::from_secs(5))));
    let budget = Duration::from_millis(100);
    let eps = task.calibrated_threshold(0, &technique) * 2.0;

    let start = Instant::now();
    let partial = sharded
        .answer_set_opts(
            0,
            eps,
            &QueryOptions::default().with_deadline(budget).degraded(),
        )
        .expect("healthy shards finished well inside the budget");
    let elapsed = start.elapsed();
    assert!(elapsed < budget * 2, "took {elapsed:?}");
    let missing = partial.coverage.missing();
    assert!(missing.contains(&slow), "the straggler cannot be covered");
    assert!(
        partial.coverage.covered_count() >= 1,
        "at least one healthy shard finished inside the budget"
    );
    let lost_members: Vec<usize> = missing
        .iter()
        .flat_map(|&s| sharded.plan().members(s).to_vec())
        .collect();
    let want: Vec<usize> = flat
        .answer_set(0, eps)
        .into_iter()
        .filter(|i| !lost_members.contains(i))
        .collect();
    assert_eq!(*partial.value, want, "partial merge = full minus uncovered");
}

/// An already-expired deadline yields the typed timeout in both modes
/// (degraded has no finished shard to degrade to) — and never a panic.
#[test]
fn zero_budget_times_out_in_both_modes() {
    let task = build_task(0xFA07, 12, 20, 3);
    let technique = Technique::Euclidean;
    let sharded = ShardedEngine::prepare(&task, &technique, 2, ShardAssignment::Contiguous);
    let eps = task.calibrated_threshold(0, &technique);
    for opts in [
        QueryOptions::default().with_deadline(Duration::ZERO),
        QueryOptions::default()
            .with_deadline(Duration::ZERO)
            .degraded(),
    ] {
        assert_eq!(
            sharded.answer_set_opts(0, eps, &opts).unwrap_err(),
            ServeError::Timeout
        );
    }
    // The engine is unharmed: a deadline-free query still answers.
    assert!(sharded
        .answer_set_opts(0, eps, &QueryOptions::default())
        .is_ok());
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Gate overflow is the typed [`ServeError::Overloaded`]; a freed permit
/// admits again, and cache hits bypass the gate entirely.
#[test]
fn gate_overflow_is_typed_overloaded_and_cache_bypasses_it() {
    let task = build_task(0xFA08, 12, 20, 3);
    let technique = Technique::Euclidean;
    let mut sharded = ShardedEngine::prepare(&task, &technique, 2, ShardAssignment::RoundRobin)
        .with_admission(AdmissionConfig::reject_when_full(1));
    let eps = task.calibrated_threshold(0, &technique);

    // Warm one cache key while the gate is idle.
    let warm = sharded
        .answer_set_opts(0, eps, &QueryOptions::default())
        .expect("idle gate admits");

    // Saturate the single permit with a query that straggles.
    sharded
        .inject_faults(FaultPlan::new().one_shot(0, FaultKind::Delay(Duration::from_millis(300))));
    let sharded = Arc::new(sharded);
    let slow = {
        let sharded = sharded.clone();
        let eps2 = task.calibrated_threshold(5, &technique);
        std::thread::spawn(move || sharded.answer_set_opts(5, eps2, &QueryOptions::default()))
    };
    std::thread::sleep(Duration::from_millis(60));

    // A fresh key cannot get the permit...
    let eps3 = task.calibrated_threshold(7, &technique);
    assert_eq!(
        sharded
            .answer_set_opts(7, eps3, &QueryOptions::default())
            .unwrap_err(),
        ServeError::Overloaded
    );
    // ...but the warmed key answers from the cache, gate or no gate.
    let hit = sharded
        .answer_set_opts(0, eps, &QueryOptions::default())
        .expect("cache hits are served before the gate");
    assert!(Arc::ptr_eq(&warm.value, &hit.value));

    slow.join().expect("no panic").expect("slow query finishes");
    // Permit released: the previously rejected query now runs.
    assert!(sharded
        .answer_set_opts(7, eps3, &QueryOptions::default())
        .is_ok());
    let stats = sharded.gate_stats().expect("gate configured");
    assert_eq!(stats.rejected, 1);
    assert!(stats.admitted >= 3);
    assert_eq!(stats.in_flight, 0);
}

// ---------------------------------------------------------------------------
// Degenerate inputs
// ---------------------------------------------------------------------------

/// The NaN-input fault (shard-side validation rejecting corrupted
/// input) is a typed [`ShardFault::DegenerateInput`] for every
/// technique, through its natural entry point.
#[test]
fn nan_input_fault_is_typed_for_every_technique() {
    let task = build_task(0xFA09, 12, 20, 3);
    for technique in all_techniques() {
        let mut sharded = ShardedEngine::prepare(&task, &technique, 3, ShardAssignment::RoundRobin);
        sharded.inject_faults(FaultPlan::new().one_shot(1, FaultKind::NanInput));
        let eps = task.calibrated_threshold(0, &technique);
        let err = sharded
            .answer_set_opts(0, eps, &QueryOptions::default())
            .expect_err("corrupted shard input must be rejected");
        assert_eq!(
            err,
            ServeError::Shard {
                shard: 1,
                cause: ShardFault::DegenerateInput
            },
            "{}",
            technique.kind()
        );
        // Spent: the engine recovers.
        assert!(
            sharded
                .answer_set_opts(0, eps, &QueryOptions::default())
                .is_ok(),
            "{}",
            technique.kind()
        );
    }
}

/// NaN / infinite / empty series cannot enter a task at all — the
/// constructors report them as typed rejections (`None` / typed enum),
/// which is what makes the serving layer's DegenerateInput fault a
/// *simulation* of upstream corruption rather than a reachable state.
#[test]
fn degenerate_series_inputs_are_typed_at_construction() {
    assert!(TimeSeries::try_from_values([1.0, f64::NAN, 2.0]).is_none());
    assert!(TimeSeries::try_from_values([f64::INFINITY]).is_none());
    assert!(TimeSeries::try_from_values(std::iter::empty()).is_none());
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![]),
        Err(MultiObsError::NoTimestamps)
    );
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![vec![1.0, f64::NAN]]),
        Err(MultiObsError::NonFiniteObservation { index: 0 })
    );
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![vec![1.0], vec![]]),
        Err(MultiObsError::EmptyTimestamp { index: 1 })
    );
}

/// Ill-posed questions stay typed per technique: MUNICH without
/// multi-observation data is an [`InputError`] from the sharded
/// prepare, and distance rankings on the probabilistic techniques are
/// [`ServeError::NotDistanceRanked`] through the serving layer.
#[test]
fn ill_posed_questions_are_typed_for_every_technique() {
    let base = build_task(0xFA0A, 12, 20, 3);
    let no_multi = MatchingTask::new(base.clean().to_vec(), base.uncertain().to_vec(), None, 3);
    for technique in all_techniques() {
        let is_munich = matches!(technique, Technique::Munich { .. });
        let prepared = ShardedEngine::try_prepare_with(
            &no_multi,
            &technique,
            2,
            ShardAssignment::RoundRobin,
            IndexConfig::default(),
        );
        if is_munich {
            assert_eq!(
                prepared.err(),
                Some(InputError::MissingMultiObs),
                "{}",
                technique.kind()
            );
            continue;
        }
        let sharded = prepared.expect("non-MUNICH techniques need no multi-obs");
        let probabilistic = matches!(technique, Technique::Proud { .. });
        match sharded.top_k_opts(0, 3, &QueryOptions::default()) {
            Err(ServeError::NotDistanceRanked(kind)) => {
                assert!(probabilistic, "{kind} wrongly refused a distance ranking");
                assert_eq!(kind, technique.kind());
            }
            Ok(resp) => {
                assert!(!probabilistic, "{} must not rank", technique.kind());
                assert!(resp.is_complete());
            }
            Err(other) => panic!("{}: unexpected {other:?}", technique.kind()),
        }
    }
}

/// A ragged collection (member lengths 20, 14, 20, …) is a typed
/// [`InputError`] on the way into either engine, for every technique,
/// instead of a kernel panic that serving would relabel as a shard fault.
#[test]
fn ragged_collections_are_typed_before_any_engine_is_built() {
    let base = build_task(0xFA0C, 12, 20, 3);
    let mut uncertain = base.uncertain().to_vec();
    let short = &uncertain[1];
    uncertain[1] =
        UncertainSeries::new(short.values()[..14].to_vec(), short.errors()[..14].to_vec());
    let want = InputError::LengthMismatch {
        expected: 20,
        got: 14,
    };
    for technique in all_techniques() {
        let flat = Collection::try_new(uncertain.clone(), None)
            .and_then(|c| QueryEngine::try_prepare_with(c, &technique, IndexConfig::default()));
        assert_eq!(flat.err(), Some(want), "{}", technique.kind());
        let sharded = Collection::try_new(uncertain.clone(), None).and_then(|c| {
            ShardedEngine::try_prepare_with(
                &c,
                &technique,
                2,
                ShardAssignment::RoundRobin,
                IndexConfig::default(),
            )
        });
        assert_eq!(sharded.err(), Some(want), "{}", technique.kind());
    }
}

/// Shape-mismatched replacements are typed [`InputError`]s and leave
/// the engine fully intact (same answers, same cache generation).
#[test]
fn try_update_series_rejects_mismatched_shapes_without_damage() {
    let task = build_task(0xFA0B, 12, 20, 3);
    let technique = Technique::Euclidean;
    let mut sharded = ShardedEngine::prepare(&task, &technique, 3, ShardAssignment::Contiguous);
    let eps = task.calibrated_threshold(0, &technique);
    let range = |sharded: &ShardedEngine| {
        sharded
            .answer_set_opts(0, eps, &QueryOptions::default())
            .expect("fault-free query")
            .value
    };
    let before = range(&sharded);
    let e = uts_uncertain::PointError::new(ErrorFamily::Normal, 0.1);

    let short = TimeSeries::from_values((0..5).map(|t| t as f64));
    let short_u = UncertainSeries::new(short.values().to_vec(), vec![e; 5]);
    assert_eq!(
        sharded.try_update_series(1, short.clone(), short_u.clone(), None),
        Err(InputError::LengthMismatch {
            expected: 20,
            got: 5
        })
    );

    let good = TimeSeries::from_values((0..20).map(|t| t as f64));
    let good_u = UncertainSeries::new(good.values().to_vec(), vec![e; 20]);
    assert_eq!(
        sharded.try_update_series(99, good.clone(), good_u.clone(), None),
        Err(InputError::IndexOutOfRange { index: 99, len: 12 })
    );
    // The task carries multi-observation data: omitting it is typed.
    assert_eq!(
        sharded.try_update_series(1, good.clone(), good_u.clone(), None),
        Err(InputError::MultiPresenceMismatch {
            task_has_multi: true
        })
    );
    let bad_u = UncertainSeries::new(vec![0.0; 10], vec![e; 10]);
    assert_eq!(
        sharded.try_update_series(1, good.clone(), bad_u, None),
        Err(InputError::CleanUncertainMismatch {
            clean: 20,
            uncertain: 10
        })
    );

    // A multi-observation series of the wrong length is rejected after
    // every other check passed — the in-place write must not have
    // replaced the clean and observed sides before reaching it.
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let short_multi = perturb_multi(&short, &spec, 3, Seed::new(0xFA0C));
    let far = TimeSeries::from_values((0..20).map(|t| 50.0 + t as f64));
    let far_u = perturb(&far, &spec, Seed::new(0xFA0D));
    let multi_mismatch = Err(InputError::MultiLengthMismatch {
        expected: 20,
        got: 5,
    });
    assert_eq!(
        sharded.try_update_series(1, far.clone(), far_u.clone(), Some(short_multi.clone())),
        multi_mismatch
    );

    // Nothing was damaged: no cache invalidation, identical answers, and
    // uncached answers still those of the original collection.
    assert_eq!(sharded.cache_stats().generation, 0);
    assert!(Arc::ptr_eq(&before, &range(&sharded)));
    let flat = QueryEngine::prepare(&task, &technique);
    for q in [0, 1, 11] {
        let eps = 2.0 * task.calibrated_threshold(q, &technique);
        let served = sharded.answer_set_opts(q, eps, &QueryOptions::default());
        assert_eq!(*served.unwrap().value, flat.answer_set(q, eps), "q={q}");
    }

    // The same mismatch on a MUNICH engine, whose answers read the
    // multi-observation side.
    let munich = Technique::Munich {
        munich: Munich::default(),
        tau: 0.4,
    };
    let mut sharded = ShardedEngine::prepare(&task, &munich, 3, ShardAssignment::Contiguous);
    let flat = QueryEngine::prepare(&task, &munich);
    assert_eq!(
        sharded.try_update_series(1, far, far_u, Some(short_multi)),
        multi_mismatch
    );
    assert_eq!(sharded.cache_stats().generation, 0);
    let opts = QueryOptions::default();
    for q in [0, 1, 11] {
        let eps = task.calibrated_threshold(q, &munich);
        let served = sharded.answer_set_opts(q, eps, &opts).unwrap();
        assert_eq!(*served.value, flat.answer_set(q, eps), "MUNICH q={q}");
        let served = sharded.probabilities_opts(q, eps, &opts).unwrap().unwrap();
        let want = flat.probabilities(q, eps).unwrap();
        assert!(
            served.value.len() == want.len()
                && served
                    .value
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "MUNICH probabilities q={q}"
        );
    }
}

// ---------------------------------------------------------------------------
// Panic-safety property test for the worker pool
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary panic patterns over arbitrary input sizes: every item
    /// independently lands in `Ok` (with the right value, in order) or a
    /// `WorkerPanic` naming its index — panicking items never take a
    /// sibling's result down with them, on either the parallel or the
    /// sequential path.
    #[test]
    fn try_parallel_map_isolates_arbitrary_panic_patterns(
        n in 0usize..120,
        mask in any::<u64>(),
        stride in 1u64..17,
    ) {
        quiet_injected_panics();
        let items: Vec<usize> = (0..n).collect();
        let panics = |i: usize| mask & (1 << ((i as u64 * stride) % 64)) != 0;
        let out = try_parallel_map(&items, |&i| {
            if panics(i) {
                panic!("injected fault at {i}");
            }
            i * 7 + 1
        });
        prop_assert_eq!(out.len(), n);
        for (i, r) in out.iter().enumerate() {
            if panics(i) {
                let e = r.as_ref().expect_err("panicking item must be isolated");
                prop_assert_eq!(e.index, i);
                prop_assert_eq!(&e.message, &format!("injected fault at {i}"));
            } else {
                prop_assert_eq!(*r.as_ref().expect("healthy item"), i * 7 + 1);
            }
        }
    }
}
