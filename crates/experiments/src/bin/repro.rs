//! `repro` — regenerate the figures of Dallachiesa et al. (VLDB 2012).
//!
//! ```text
//! repro <experiment> [--scale quick|paper-shape|full] [--seed N] [--out DIR]
//!
//! experiments:
//!   chisq   fig4   fig5   fig6   fig7   fig8   fig9   fig10
//!   fig11   fig12  fig13  fig14  fig15  fig16  fig17
//!   all     — run everything (in paper order)
//! ```
//!
//! Each experiment prints its result table(s) to stdout and writes a CSV
//! per table into the output directory (default `./results`).

use std::process::ExitCode;

use uts_experiments::config::{ExpConfig, Scale};
use uts_experiments::figures;
use uts_experiments::table::Table;
use uts_stats::rng::Seed;
use uts_uncertain::ErrorFamily;

const USAGE: &str = "\
usage: repro <experiment> [--scale quick|paper-shape|full] [--seed N] [--out DIR]

experiments:
  chisq        Section 4.1.1 chi-square uniformity test
  fig4         F1: MUNICH/PROUD/DUST/Euclidean, truncated GunPoint
  fig5         F1: PROUD/DUST/Euclidean over all datasets, sigma sweep
  fig6         precision/recall: PROUD
  fig7         precision/recall: DUST
  fig8         F1 per dataset: mixed normal error
  fig9         F1 per dataset: mixed error families
  fig10        F1 per dataset: sigma misreported as 0.7
  fig11        time per query vs sigma
  fig12        time per query vs series length
  fig13        F1 vs window size (UMA/UEMA)
  fig14        F1 vs decay factor (UEMA)
  fig15        F1 per dataset: Euclid/DUST/UMA/UEMA, mixed uniform
  fig16        F1 per dataset: Euclid/DUST/UMA/UEMA, mixed normal
  fig17        F1 per dataset: Euclid/DUST/UMA/UEMA, mixed exponential
  all          everything above, in order

extensions (not in the paper's evaluation):
  ext-dtw      aligned vs DTW measures on a warped workload
  ext-moments  PROUD normal-theory vs exact-moment variance
  ext-synopsis PROUD Haar-synopsis pruning (rate / agreement / time)
  ext-bridge   sample-estimated pdf model vs known sigma
  ext-classify leave-one-out 1-NN accuracy per distance measure
  stats        per-dataset geometry diagnostics (paper section 6)
  ext          all six extensions
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut experiment: Option<String> = None;
    let mut config = ExpConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                config.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
                config.seed = Seed::new(n);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                config.out_dir = v.into();
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let experiment = experiment.ok_or("no experiment given")?;

    let names: Vec<&str> = match experiment.as_str() {
        "all" => vec![
            "chisq", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17",
        ],
        "ext" => vec![
            "ext-dtw",
            "ext-moments",
            "ext-synopsis",
            "ext-bridge",
            "ext-classify",
            "stats",
        ],
        other => vec![other],
    };

    println!(
        "# uncertts repro — scale: {}, seed: {}, out: {}",
        config.scale.name(),
        config.seed.value(),
        config.out_dir.display()
    );
    for name in names {
        let start = std::time::Instant::now();
        let tables = dispatch(name, &config)?;
        let elapsed = start.elapsed().as_secs_f64();
        for (i, table) in tables.iter().enumerate() {
            println!("\n{table}");
            let file = if tables.len() == 1 {
                name.to_string()
            } else {
                format!("{name}_{}", (b'a' + i as u8) as char)
            };
            let path = table
                .save_csv(&config.out_dir, &file)
                .map_err(|e| format!("writing {file}.csv: {e}"))?;
            println!("[saved {}]", path.display());
        }
        println!("[{name} completed in {elapsed:.1}s]");
    }
    Ok(())
}

fn dispatch(name: &str, config: &ExpConfig) -> Result<Vec<Table>, String> {
    use figures::fig06_07::Which as PR;
    use figures::fig08_10::Which as Mixed;
    Ok(match name {
        "chisq" => figures::chisq::run(config),
        "fig4" => figures::fig04::run(config),
        "fig5" => figures::fig05::run(config),
        "fig6" => figures::fig06_07::run(config, PR::Proud),
        "fig7" => figures::fig06_07::run(config, PR::Dust),
        "fig8" => figures::fig08_10::run(config, Mixed::MixedNormal),
        "fig9" => figures::fig08_10::run(config, Mixed::MixedFamilies),
        "fig10" => figures::fig08_10::run(config, Mixed::MisreportedSigma),
        "fig11" => figures::fig11::run(config),
        "fig12" => figures::fig12::run(config),
        "fig13" => figures::fig13_14::run_fig13(config),
        "fig14" => figures::fig13_14::run_fig14(config),
        "fig15" => figures::fig15_17::run(config, ErrorFamily::Uniform),
        "fig16" => figures::fig15_17::run(config, ErrorFamily::Normal),
        "fig17" => figures::fig15_17::run(config, ErrorFamily::Exponential),
        "ext-dtw" => figures::extensions::run_dtw(config),
        "ext-moments" => figures::extensions::run_moments(config),
        "ext-synopsis" => figures::extensions::run_synopsis(config),
        "ext-bridge" => figures::extensions::run_bridge(config),
        "ext-classify" => figures::extensions::run_classify(config),
        "stats" => figures::dataset_stats::run(config),
        other => return Err(format!("unknown experiment '{other}'")),
    })
}
