//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-seeds|hotspot-256p|clustered-512p> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times rounds of the workload's simulations for
//! `--seconds`, with a batch of set-up reps before each round, and prints
//! the end-to-end metrics. With `--trace 1` it prints the per-layer metrics of
//! a traced run instead. Either way every simulated output is checked; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and the exit status is non-zero when any check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod checks;
mod measure;
mod stats;
mod trace;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use clockgate_htm::pool::WorkerPool;

use checks::Tally;
use stats::{quartiles, relative_iqr};
use traced::Metric;
use workload::Workload;

/// The paper's published headline (Sanyal et al., IPDPS 2009): +4 %
/// speed-up, 19 % energy savings and 13 % average-power savings, expressed
/// as the ratios `ComparisonReport` reports.
const PAPER_SPEEDUP: f64 = 1.04;
const PAPER_ENERGY_REDUCTION: f64 = 1.0 / (1.0 - 0.19);
const PAPER_POWER_REDUCTION: f64 = 1.0 / (1.0 - 0.13);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (known: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    // One process, one pool of `nproc` workers for cells, islands and lanes.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    WorkerPool::configure_global(cores);
    let workers = WorkerPool::global().workers();

    let matrices = args.workload.matrices(args.seed);
    let mut tally = Tally::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let provenance = provenance(cores, workers, &args);
    for (key, value) in &provenance {
        let _ = writeln!(out, "  {key}: {value}");
    }
    let _ = writeln!(
        out,
        "every run starts with cold caches at cycle 0; [host] values are wall-clock \
         time on the host, [model] values are simulated, [engine] values count \
         engine work; the model is not validated against hardware"
    );

    let metrics = if args.trace {
        match traced::run(&matrices, Duration::from_secs(args.seconds), &mut tally) {
            Ok(traced) => {
                let _ = writeln!(out, "spans (name, calls, total s, self s):");
                for (name, calls, total, own) in traced.tracer.summary() {
                    let _ = writeln!(out, "  {name:<40} {calls:>6} {total:>12.6} {own:>12.6}");
                }
                let path = format!(
                    "perfbench-out/spans-{}-seed{}.jsonl",
                    args.workload.name(),
                    args.seed
                );
                if let Err(e) = std::fs::create_dir_all("perfbench-out")
                    .and_then(|()| std::fs::write(&path, traced.tracer.to_jsonl()))
                {
                    eprintln!("perfbench: could not write {path}: {e}");
                }
                let _ = writeln!(out, "spans written to {path}");
                let [auto, traced_wall, ff] = traced.pass_walls;
                let _ = writeln!(
                    out,
                    "passes (median s over {} repeats): auto matrix {auto:.3}, \
                     traced {traced_wall:.3}, fast-forward matrix {ff:.3}",
                    traced.repeats
                );
                traced.metrics
            }
            Err(e) => {
                tally.record("set-up", Err(e.to_string()));
                Vec::new()
            }
        }
    } else {
        end_to_end(&args, &matrices, &mut tally, &mut out)
    };

    // A float sum over no items is -0.0; report a layer that did no work as 0.
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|(name, value, unit, basis)| (name, value + 0.0, unit, basis))
        .collect();
    for (name, value, unit, basis) in &metrics {
        let _ = writeln!(out, "  {name:<32} {value:>18.6} {unit:<9} [{basis}]");
    }
    if metrics.iter().any(|m| !m.1.is_finite()) {
        tally.fail("metrics", "a metric is not finite");
    }
    for failure in tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let _ = writeln!(
        out,
        "checks: {} runs attempted, {} failed",
        tally.attempted, tally.failed
    );
    let _ = writeln!(
        out,
        "{{\"perfbench_record\": {{\"workload\": \"{}\", {provenance_json}, \"metrics\": {}}}}}",
        args.workload.name(),
        metrics_json(&metrics),
        provenance_json = provenance_json(&provenance),
    );
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    print!("{out}");
    ExitCode::from(u8::try_from(tally.exit_code()).unwrap_or(1))
}

/// The untraced run: set-up reps, timed rounds, and the end-to-end metrics.
fn end_to_end(
    args: &Args,
    matrices: &[workload::Matrix],
    tally: &mut Tally,
    out: &mut String,
) -> Vec<Metric> {
    let measured = match measure::measure(matrices, Duration::from_secs(args.seconds), tally) {
        Ok(measured) => measured,
        Err(e) => {
            tally.record("set-up", Err(e.to_string()));
            return Vec::new();
        }
    };
    let describe = |values: &[f64]| {
        let [q1, q2, q3] = quartiles(values);
        let spread = relative_iqr(values) * 100.0;
        format!(
            "n={} median={q2:.6} q1={q1:.6} q3={q3:.6} spread={spread:.2}%",
            values.len()
        )
    };
    let _ = writeln!(out, "set-up reps (s): {}", describe(&measured.setup_reps));
    let _ = writeln!(out, "rounds (s): {}", describe(&measured.round_walls));
    let walls: Vec<String> = measured
        .round_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    let _ = writeln!(out, "  each round (s): {}", walls.join(" "));
    if args.workload == Workload::PaperSeeds {
        let [speedup, energy, power] = measured.paper_quantities();
        let _ = writeln!(out, "model vs the paper's published headline:");
        for (name, model, paper) in [
            ("speedup", speedup, PAPER_SPEEDUP),
            ("energy_reduction", energy, PAPER_ENERGY_REDUCTION),
            ("power_reduction", power, PAPER_POWER_REDUCTION),
        ] {
            let _ = writeln!(
                out,
                "  {name:<18} model {model:.4}  paper {paper:.4}  gap {:+.2}%",
                (model / paper - 1.0) * 100.0
            );
        }
    }
    measured.metrics(peak_rss_mb())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Provenance fields of every record, as `(key, value)` pairs.
fn provenance(cores: usize, workers: usize, args: &Args) -> Vec<(&'static str, String)> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("host_cores", cores.to_string()),
        ("pool_workers", workers.to_string()),
        ("rustc", rustc),
        ("git_rev", git_rev()),
        ("profile", profile.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("caches", "cold at cycle 0".to_string()),
    ]
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn provenance_json(fields: &[(&'static str, String)]) -> String {
    let inner: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("\"provenance\": {{{}}}", inner.join(", "))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let inner: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use checks::ModelTotals;

    /// The metric names `BENCHMARK.json` declares in `section`, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.0.to_string()).collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let measured = measure::Measured {
            setup_reps: vec![4.0, 1.0, 3.0, 2.0],
            round_walls: vec![1.0],
            totals: ModelTotals::default(),
            comparisons: Vec::new(),
        };
        let metrics = measured.metrics(1.0);
        assert_eq!(names(&metrics), declared("end_to_end"));
        // setup_s is the median of the reps.
        assert_eq!(metrics[0], ("setup_s", 2.5, "s", traced::HOST));
        let traced = traced::empty_layer_metrics();
        assert_eq!(names(&traced), declared("per_layer"));
    }

    #[test]
    fn layers_that_did_no_work_report_zero() {
        // Shares with a zero base, such as `tcc.commit_share` with no
        // attempts or `windowed.lane_overlap` with no windows, read 0.
        let metrics = traced::empty_layer_metrics();
        for name in ["tcc.commit_share", "windowed.lane_overlap"] {
            assert!(metrics.iter().any(|m| m.0 == name), "{name}");
        }
        for (name, value, _, _) in &metrics {
            assert_eq!(*value, 0.0, "{name}");
        }
    }
}
