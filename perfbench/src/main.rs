//! End-to-end and per-layer benchmark of the uncertain time-series
//! serving stack.
//!
//! ```sh
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread drives a `ShardedEngine` in a closed loop over a
//! seeded op sequence (see `workloads.rs` and `BENCHMARK.json` for the
//! three workloads and why each exists). Every answer is recorded during
//! the timed rounds and checked after them; a wrong answer, a
//! `ServeError` or a panic is a failed op.
//!
//! `--trace 0` runs the op sequence in several rounds, takes each op's
//! fastest round as its latency, prints the end-to-end metrics and checks
//! every answer against an unsharded, index-disabled `QueryEngine` on the
//! same collection state. `--trace 1` prints the per-layer metrics: after
//! one untraced round, a second pass replays every op through each
//! layer's public functions with spans around each call, checks that the
//! replay reproduces every answer, and writes the spans to
//! `perfbench/out/` when the run ends.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod heap;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use workloads::{Class, Workload};

/// A traced run compares one distinct read key in this many with the
/// reference engine.
const TRACED_CHECK_SAMPLE: usize = 4;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A metric row of the result object.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Latencies of the ops of one class, in nanoseconds.
fn class_ns(w: &Workload, pass: &serve::Pass, keep: impl Fn(Class) -> bool) -> Vec<u64> {
    w.ops
        .iter()
        .zip(&pass.latency_ns)
        .filter(|(op, _)| keep(op.class()))
        .map(|(_, &ns)| ns)
        .collect()
}

fn end_to_end(
    w: &Workload,
    setup_s: &[f64],
    pass: &serve::Pass,
    check: &verify::Check,
) -> Vec<Metric> {
    let reads = class_ns(w, pass, |c| c != Class::Update);
    let tail = stats::tail(&reads, 10).expect("every workload runs more than ten reads");
    println!(
        "{}: latency_tail_us is p{} over {} reads ({} beyond it)",
        w.name,
        tail.percentile,
        reads.len(),
        tail.beyond
    );
    let scored = class_ns(w, pass, |c| matches!(c, Class::TopK | Class::Prob));
    vec![
        Metric::new("throughput_qps", w.ops.len() as f64 / pass.wall_s, "ops/s"),
        Metric::new("latency_p50_us", stats::median_us(&reads), "us"),
        Metric::new("latency_tail_us", tail.value_us, "us"),
        Metric::new(
            "range_p50_us",
            stats::median_us(&class_ns(w, pass, |c| c == Class::Range)),
            "us",
        ),
        Metric::new("scored_p50_us", stats::median_us(&scored), "us"),
        Metric::new(
            "update_p50_us",
            stats::median_us(&class_ns(w, pass, |c| c == Class::Update)),
            "us",
        ),
        Metric::new("setup_s", stats::median(setup_s), "s"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        Metric::new("answer_f1", check.f1, "ratio"),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    let t0 = std::time::Instant::now();
    let phase = |what: &str| {
        eprintln!(
            "perfbench: {what} done at {:.2} s",
            t0.elapsed().as_secs_f64()
        )
    };
    let w = workloads::build(&args.workload, args.seed, args.seconds).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        )
    })?;
    phase("inputs");
    // Set-up is timed in two blocks, before the timed rounds and after the
    // answer check, so its median spans the run rather than one moment.
    let (mut setup_s, engine) = serve::timed_setups(&w, w.setup_reps.div_ceil(2));
    phase("set-up");
    // A traced run reports no end-to-end metric, and one untraced round
    // gives its overhead ratio.
    let rounds = if args.trace { 1 } else { w.rounds };
    let (pass, prepares) = serve::timed_rounds(&w, engine, rounds);
    setup_s.extend(prepares);
    phase("timed rounds");
    // An untraced run compares every answer with the reference engine. A
    // traced run spends its time on the replay, which must reproduce
    // every answer, and compares one distinct key in
    // `TRACED_CHECK_SAMPLE` with the reference.
    let (metrics, failed) = if args.trace {
        let check = verify::check(&w, &pass.answers, TRACED_CHECK_SAMPLE);
        let (metrics, replay_failed) = trace::per_layer(&w, &pass);
        let failed = check
            .failed
            .iter()
            .zip(&replay_failed)
            .filter(|(a, b)| **a || **b);
        (metrics, failed.count())
    } else {
        let check = verify::check(&w, &pass.answers, 1);
        let failed = check.failed.iter().filter(|&&f| f).count();
        setup_s.extend(serve::timed_setups(&w, w.setup_reps / 2).0);
        (end_to_end(&w, &setup_s, &pass, &check), failed)
    };
    phase("checks");
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(failed == 0, w.ops.len(), failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
