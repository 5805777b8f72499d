//! The traced run: per-layer metrics from spans around each public call.
//!
//! After a traced set-up it repeats three passes over the workload's
//! matrices until the run length has passed:
//!
//! 1. an untraced pass through `experiments::run_matrix_timed_ckpt` with
//!    `EngineChoice::Auto` (the `reproduce --engine auto` path), which
//!    gives the matrix timings and the untraced wall time;
//! 2. the traced pass, which drives every run layer by layer —
//!    `sim::choose_engine`, then either `islands::partition_islands` and
//!    `islands::run_shard_parallel`, or `TccSystem::new`,
//!    `TccSystem::advance_until_engine` and `TccSystem::windowed_stats` —
//!    and prices each run with `htm_power::energy::analyze` and each cell
//!    with `htm_power::energy::compare`;
//! 3. a fast-forward reference pass through the same experiments call with
//!    `EngineKind::FastForward`.
//!
//! All three must agree byte for byte on every comparison and ledger, and
//! every traced run passes the same output checks as an untraced one.

use std::time::{Duration, Instant};

use clockgate_htm::experiments::{
    run_matrix_timed_ckpt, EnergyBreakdownReport, EvaluationMatrix, MatrixTiming,
};
use clockgate_htm::gating::policy::PolicySpec;
use clockgate_htm::islands::{partition_islands, run_shard_parallel};
use clockgate_htm::pool::WorkerPool;
use clockgate_htm::report::to_json;
use clockgate_htm::sim::{choose_engine, EngineChoice, EngineKind, SimReport, WindowedStats};
use htm_power::energy::{self, ComparisonReport};
use htm_power::ledger::{self, UncoreActivity};
use htm_power::model::{PowerModel, PowerModelConfig};
use htm_tcc::system::{SimError, TccSystem};

use crate::checks::{check_comparison, check_run, ModelTotals, Tally};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{cell_modes, per_cell, set_up, Cell, Matrix, PreparedMatrix};

/// A metric: name, value, unit, and what the value is measured in
/// ([`HOST`], [`MODEL`] or [`ENGINE`]).
pub type Metric = (&'static str, f64, &'static str, &'static str);

/// Host wall-clock time, or a ratio of host times: varies run to run.
pub const HOST: &str = "host";
/// Simulated time or a simulated count: repeats exactly for a seed.
pub const MODEL: &str = "model";
/// A deterministic count of work the stepping engines did.
pub const ENGINE: &str = "engine";

/// One traced run: its report, the engine it resolved to and the windowed
/// counters (zero unless the windowed engine ran).
struct TracedRun {
    report: Result<SimReport, SimError>,
    engine: EngineKind,
    windowed: WindowedStats,
    islands: usize,
    /// Seconds in `TccSystem::advance_until_engine` (0 for island runs).
    advance_s: f64,
}

/// Drive one run layer by layer, with a span around each public call.
fn traced_run(cell: &Cell, mode: PolicySpec, run: u64, t: &mut Tracer) -> TracedRun {
    let power = PowerModelConfig::alpha_21264_65nm();
    let root = t.enter("sim::run", run);
    let span = t.enter("sim::choose_engine", run);
    let engine = choose_engine(&cell.machine, &cell.trace);
    t.exit(span, &[]);
    let mut windowed = WindowedStats::default();
    let mut islands = 0;
    let mut advance_s = 0.0;
    let parts = if engine == EngineKind::ShardParallel {
        let span = t.enter("islands::partition_islands", run);
        islands = partition_islands(&cell.machine, &cell.trace).len();
        t.exit(span, &[("islands", islands as u64)]);
        let span = t.enter("islands::run_shard_parallel", run);
        let result = run_shard_parallel(&cell.machine, &cell.trace, mode, cell.cycle_limit);
        let cycles = match &result {
            Ok(Some(r)) => r.outcome.total_cycles,
            _ => 0,
        };
        t.exit(span, &[("sim_cycles", cycles)]);
        result.and_then(|r| {
            let r = r.ok_or_else(|| {
                SimError::BadWorkload("the island engine declined a multi-island run".into())
            })?;
            Ok((r.outcome, r.gating, r.charges))
        })
    } else {
        let span = t.enter("tcc::TccSystem::new", run);
        let built = TccSystem::new(
            cell.machine.clone(),
            cell.trace.clone(),
            mode.build(&cell.machine),
        );
        t.exit(span, &[]);
        built.and_then(|mut system| {
            let span = t.enter("tcc::TccSystem::advance_until_engine", run);
            system.advance_until_engine(cell.cycle_limit, engine);
            t.exit(span, &[("sim_cycles", system.now())]);
            advance_s = t.secs(span);
            let span = t.enter("tcc::TccSystem::windowed_stats", run);
            windowed = system.windowed_stats();
            t.exit(
                span,
                &[
                    ("windows", windowed.windows),
                    ("multi_group_windows", windowed.multi_group_windows),
                ],
            );
            if !system.is_complete() {
                return Err(SimError::CycleLimitExceeded {
                    limit: cell.cycle_limit,
                });
            }
            let (outcome, hook) = system.into_parts();
            Ok((outcome, hook.gating_stats(), hook.uncore_charges()))
        })
    };
    let report = parts.map(|(outcome, gating, charges)| {
        let span = t.enter("power::energy::analyze", run);
        let energy = energy::analyze(&outcome, &power.factors());
        t.exit(span, &[]);
        let uncore = UncoreActivity::from_outcome(
            &outcome,
            charges.gating_hardware,
            charges.renewal_txinfo_roundtrips,
        );
        let ledger = ledger::analyze(&outcome, &power, uncore);
        SimReport {
            mode_label: mode.label(),
            outcome,
            energy,
            ledger,
            gating,
        }
    });
    let (commits, aborts) = report.as_ref().map_or((0, 0), |r| {
        (r.outcome.total_commits, r.outcome.total_aborts)
    });
    t.exit(root, &[("commits", commits), ("aborts", aborts)]);
    TracedRun {
        report,
        engine,
        windowed,
        islands,
        advance_s,
    }
}

/// Both traced runs of a cell and, when both succeeded, their comparison.
struct TracedCell {
    runs: Vec<TracedRun>,
    comparison: Option<ComparisonReport>,
    tracer: Tracer,
}

fn traced_cell(cell: &Cell, first_run: u64, epoch: Instant) -> TracedCell {
    let mut t = Tracer::on(epoch);
    let runs: Vec<TracedRun> = cell_modes()
        .into_iter()
        .zip(first_run..)
        .map(|(mode, run)| traced_run(cell, mode, run, &mut t))
        .collect();
    let comparison = match (&runs[0].report, &runs[1].report) {
        (Ok(u), Ok(g)) => {
            let span = t.enter("power::energy::compare", first_run);
            let cmp = energy::compare(&u.outcome, &g.outcome, &PowerModel::alpha_21264_65nm());
            t.exit(span, &[]);
            Some(cmp)
        }
        _ => None,
    };
    TracedCell {
        runs,
        comparison,
        tracer: t,
    }
}

/// What `run_matrix_timed_ckpt` returns for one matrix.
type MatrixOutput = (EvaluationMatrix, MatrixTiming, EnergyBreakdownReport);

/// Every matrix through `run_matrix_timed_ckpt` on `engine`, with a span
/// around each call. Returns the pass's wall seconds and the outputs.
fn matrix_pass(
    matrices: &[Matrix],
    engine: EngineChoice,
    t: &mut Tracer,
) -> (f64, Vec<Result<MatrixOutput, SimError>>) {
    let started = Instant::now();
    let outputs = matrices
        .iter()
        .map(|m| {
            let span = t.enter("experiments::run_matrix_timed_ckpt", 0);
            let out = run_matrix_timed_ckpt(&m.cfg, engine, m.topology, None);
            t.exit(span, &[]);
            out
        })
        .collect();
    (started.elapsed().as_secs_f64(), outputs)
}

/// Everything the traced run produced.
pub struct Traced {
    /// The per-layer metrics: medians over the repeats.
    pub metrics: Vec<Metric>,
    /// Every span: set-up, matrix passes and traced passes.
    pub tracer: Tracer,
    /// Median wall seconds of the auto matrix, traced and fast-forward
    /// passes.
    pub pass_walls: [f64; 3],
    /// How many times the three passes ran.
    pub repeats: usize,
}

/// Run the traced set-up, then repeat the three passes until `seconds`
/// have passed (at least once), checking every output. Each metric is the
/// median over the repeats.
pub fn run(matrices: &[Matrix], seconds: Duration, tally: &mut Tally) -> Result<Traced, SimError> {
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::on(epoch);
    let prepared = set_up(matrices, &mut setup_tracer)?;
    let mut tracer = Tracer::on(epoch);
    let mut repeats: Vec<Vec<Metric>> = Vec::new();
    let mut walls: Vec<[f64; 3]> = Vec::new();
    let mut next_run = 1;
    loop {
        let (metrics, pass_walls) = repeat(
            matrices,
            &prepared,
            &setup_tracer,
            &mut tracer,
            &mut next_run,
            tally,
        );
        repeats.push(metrics);
        walls.push(pass_walls);
        if epoch.elapsed() >= seconds {
            break;
        }
    }
    let [auto, traced, ff] =
        [0, 1, 2].map(|k| median(&walls.iter().map(|w| w[k]).collect::<Vec<_>>()));
    let mut metrics: Vec<Metric> = repeats[0]
        .iter()
        .enumerate()
        .map(|(j, &(name, _, unit, basis))| {
            let values: Vec<f64> = repeats.iter().map(|r| r[j].1).collect();
            (name, median(&values), unit, basis)
        })
        .collect();
    metrics.extend(pass_metrics([auto, traced, ff]));
    setup_tracer.absorb(tracer);
    Ok(Traced {
        metrics,
        tracer: setup_tracer,
        pass_walls: [auto, traced, ff],
        repeats: walls.len(),
    })
}

/// One repeat: the auto matrix pass, the traced pass and the fast-forward
/// matrix pass, then the checks. Returns this repeat's layer and model
/// metrics and the three passes' wall seconds; spans go to `tracer`.
fn repeat(
    matrices: &[Matrix],
    prepared: &[PreparedMatrix],
    setup_tracer: &Tracer,
    tracer: &mut Tracer,
    next_run: &mut u64,
    tally: &mut Tally,
) -> (Vec<Metric>, [f64; 3]) {
    let pool = WorkerPool::global();
    let epoch = tracer.epoch();

    // 1. Untraced, through the experiments layer.
    let (auto_wall, auto) = matrix_pass(matrices, EngineChoice::Auto, tracer);

    // 2. Traced, layer by layer; cells spread over the pool like the matrix.
    let started = Instant::now();
    let mut cells: Vec<TracedCell> = Vec::new();
    for m in prepared {
        let first = *next_run;
        *next_run += 2 * m.cells.len() as u64;
        cells.extend(per_cell(&m.cells, |i, cell| {
            traced_cell(cell, first + 2 * i as u64, epoch)
        }));
    }
    let traced_wall = started.elapsed().as_secs_f64();

    // 3. Fast-forward reference, through the experiments layer.
    let (ff_wall, ff) = matrix_pass(matrices, EngineKind::FastForward.into(), tracer);

    // Checks: every traced run, and agreement of all three passes.
    let auto_cells = flatten(&auto, prepared, tally, "auto matrix");
    let ff_cells = flatten(&ff, prepared, tally, "fast-forward matrix");
    let mut totals = ModelTotals::default();
    let cell_inputs = prepared.iter().flat_map(|m| &m.cells);
    for (i, (cell, traced)) in cell_inputs.zip(&cells).enumerate() {
        let label = cell.label();
        for (run, gated) in traced.runs.iter().zip([false, true]) {
            let verdict = check_run(run.report.as_ref(), cell.trace.total_transactions(), gated);
            if let (Ok(()), Ok(report)) = (&verdict, &run.report) {
                totals.add(report);
            }
            tally.record(&format!("{label} traced"), verdict);
        }
        let Some(cmp) = &traced.comparison else {
            continue;
        };
        if let Err(why) = check_comparison(cmp) {
            tally.fail(&label, &why);
        }
        let ledgers: Vec<String> = traced
            .runs
            .iter()
            .filter_map(|r| r.report.as_ref().ok().map(|r| to_json(&r.ledger)))
            .collect();
        for (name, pass) in [("auto", &auto_cells), ("fast-forward", &ff_cells)] {
            // A failed matrix is already counted; compare only cells it has.
            if let Some((matrix_cmp, matrix_ledgers)) = &pass[i] {
                if to_json(cmp) != to_json(*matrix_cmp) || &ledgers != matrix_ledgers {
                    tally.fail(
                        &label,
                        &format!("traced pass differs from the {name} matrix"),
                    );
                }
            }
        }
    }

    let timings: Vec<&MatrixTiming> = auto
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| &o.1)
        .collect();
    let runs: Vec<&TracedRun> = cells.iter().flat_map(|c| &c.runs).collect();
    let mut metrics = layer_metrics(setup_tracer, &cells, &runs, &timings, pool.workers());
    metrics.extend(model_metrics(&totals));
    for cell in cells {
        tracer.absorb(cell.tracer);
    }
    (metrics, [auto_wall, traced_wall, ff_wall])
}

/// A matrix pass's cells in the prepared cell order: each cell's
/// comparison and the JSON of its two ledgers, or `None` for every cell of
/// a matrix that failed (counted once as a failed run).
fn flatten<'a>(
    pass: &'a [Result<MatrixOutput, SimError>],
    prepared: &[PreparedMatrix],
    tally: &mut Tally,
    name: &str,
) -> Vec<Option<(&'a ComparisonReport, Vec<String>)>> {
    let mut out = Vec::new();
    for (result, m) in pass.iter().zip(prepared) {
        match result {
            Ok((matrix, _, breakdown)) => {
                out.extend(matrix.cells.iter().zip(&breakdown.cells).map(|(cell, b)| {
                    Some((
                        &cell.comparison,
                        vec![to_json(&b.ungated), to_json(&b.gated)],
                    ))
                }));
            }
            Err(e) => {
                tally.record(name, Err(format!("matrix failed: {e}")));
                out.extend(m.cells.iter().map(|_| None));
            }
        }
    }
    out
}

/// Layer metrics from the spans, the traced runs and the matrix timings.
fn layer_metrics(
    setup: &Tracer,
    cells: &[TracedCell],
    runs: &[&TracedRun],
    timings: &[&MatrixTiming],
    workers: usize,
) -> Vec<Metric> {
    let pass_secs = |name: &str| -> f64 { cells.iter().map(|c| c.tracer.total_secs(name)).sum() };
    let engine_runs = |e: EngineKind| runs.iter().filter(|r| r.engine == e).count() as f64;
    let stepped: Vec<&&TracedRun> = runs
        .iter()
        .filter(|r| r.engine != EngineKind::ShardParallel)
        .collect();
    let ff_s: f64 = stepped.iter().map(|r| r.advance_s).sum();
    let (mut cycles, mut commits) = (0, 0);
    for r in stepped.iter().filter_map(|r| r.report.as_ref().ok()) {
        cycles += r.outcome.total_cycles;
        commits += r.outcome.total_commits;
    }
    let windowed_runs: Vec<&&TracedRun> = runs
        .iter()
        .filter(|r| r.engine == EngineKind::Windowed)
        .collect();
    let windowed_s: f64 = windowed_runs.iter().map(|r| r.advance_s).sum();
    let mut w = WindowedStats::default();
    for r in &windowed_runs {
        let s = r.windowed;
        w.windows += s.windows;
        w.multi_group_windows += s.multi_group_windows;
        w.group_advances += s.group_advances;
        w.staged_messages += s.staged_messages;
        w.parallel_windows += s.parallel_windows;
        w.max_concurrent_lanes = w.max_concurrent_lanes.max(s.max_concurrent_lanes);
        w.group_count_hist[0] += s.group_count_hist[0];
        w.lane_busy_nanos += s.lane_busy_nanos;
        w.window_wall_nanos += s.window_wall_nanos;
    }
    let lane_busy_s = w.lane_busy_nanos as f64 / 1e9;
    let window_wall_s = w.window_wall_nanos as f64 / 1e9;
    let cell_secs: Vec<f64> = timings
        .iter()
        .flat_map(|t| t.cells.iter().map(|c| c.wall_ms / 1e3))
        .collect();
    let matrix_secs: f64 = timings.iter().map(|t| t.total_wall_ms / 1e3).sum();
    vec![
        (
            "workloads.gen_s",
            setup.total_secs("htm_workloads::by_name"),
            "s",
            HOST,
        ),
        (
            "sim.choose_engine_s",
            pass_secs("sim::choose_engine"),
            "s",
            HOST,
        ),
        (
            "sim.runs_fast",
            engine_runs(EngineKind::FastForward),
            "count",
            ENGINE,
        ),
        (
            "sim.runs_windowed",
            engine_runs(EngineKind::Windowed),
            "count",
            ENGINE,
        ),
        (
            "sim.runs_shard",
            engine_runs(EngineKind::ShardParallel),
            "count",
            ENGINE,
        ),
        (
            "islands.count",
            runs.iter().map(|r| r.islands).max().unwrap_or(0) as f64,
            "count",
            ENGINE,
        ),
        (
            "islands.partition_s",
            pass_secs("islands::partition_islands"),
            "s",
            HOST,
        ),
        (
            "islands.run_s",
            pass_secs("islands::run_shard_parallel"),
            "s",
            HOST,
        ),
        ("tcc.build_s", pass_secs("tcc::TccSystem::new"), "s", HOST),
        ("tcc.ff_s", ff_s, "s", HOST),
        (
            "tcc.host_ns_per_sim_cycle",
            ratio(ff_s * 1e9, cycles as f64),
            "ns",
            HOST,
        ),
        (
            "tcc.host_us_per_commit",
            ratio(ff_s * 1e6, commits as f64),
            "us",
            HOST,
        ),
        ("windowed.windows", w.windows as f64, "count", ENGINE),
        (
            "windowed.multi_group_windows",
            w.multi_group_windows as f64,
            "count",
            ENGINE,
        ),
        (
            "windowed.group_advances",
            w.group_advances as f64,
            "count",
            ENGINE,
        ),
        (
            "windowed.staged_messages",
            w.staged_messages as f64,
            "count",
            ENGINE,
        ),
        (
            "windowed.parallel_windows",
            w.parallel_windows as f64,
            "count",
            ENGINE,
        ),
        (
            "windowed.max_concurrent_lanes",
            w.max_concurrent_lanes as f64,
            "count",
            ENGINE,
        ),
        (
            "windowed.single_group_share",
            ratio(w.group_count_hist[0] as f64, w.windows as f64),
            "ratio",
            ENGINE,
        ),
        (
            "windowed.us_per_window",
            ratio(windowed_s * 1e6, w.windows as f64),
            "us",
            HOST,
        ),
        ("windowed.lane_busy_s", lane_busy_s, "s", HOST),
        ("windowed.window_wall_s", window_wall_s, "s", HOST),
        (
            "windowed.lane_overlap",
            ratio(lane_busy_s, window_wall_s),
            "ratio",
            HOST,
        ),
        (
            "windowed.parallel_share",
            ratio(window_wall_s, windowed_s),
            "ratio",
            HOST,
        ),
        ("experiments.cell_p50_s", median(&cell_secs), "s", HOST),
        (
            "experiments.cell_max_s",
            cell_secs.iter().copied().fold(0.0, f64::max),
            "s",
            HOST,
        ),
        (
            "pool.busy_share",
            ratio(cell_secs.iter().sum(), workers as f64 * matrix_secs),
            "ratio",
            HOST,
        ),
        (
            "power.analyze_s",
            pass_secs("power::energy::analyze"),
            "s",
            HOST,
        ),
    ]
}

/// Metrics of whole passes, from the median auto matrix, traced and
/// fast-forward matrix wall seconds.
fn pass_metrics([auto, traced, ff]: [f64; 3]) -> [Metric; 2] {
    [
        ("sim.auto_over_fast", ratio(auto, ff), "ratio", HOST),
        ("trace.overhead_s", traced - auto, "s", HOST),
    ]
}

/// Every per-layer metric, in output order, as a run in which no layer did
/// any work would report them.
#[cfg(test)]
pub fn empty_layer_metrics() -> Vec<Metric> {
    let mut metrics = layer_metrics(&Tracer::off(), &[], &[], &[], 1);
    metrics.extend(model_metrics(&ModelTotals::default()));
    metrics.extend(pass_metrics([0.0; 3]));
    metrics
}

/// Deterministic model metrics of the traced pass (simulated time).
fn model_metrics(t: &ModelTotals) -> Vec<Metric> {
    vec![
        ("tcc.commits", t.commits as f64, "count", MODEL),
        ("tcc.aborts", t.aborts as f64, "count", MODEL),
        (
            "tcc.commit_share",
            ratio(t.commits as f64, (t.commits + t.aborts) as f64),
            "ratio",
            MODEL,
        ),
        (
            "tcc.wasted_cycle_share",
            ratio(
                t.wasted_cycles as f64,
                (t.wasted_cycles + t.useful_cycles) as f64,
            ),
            "ratio",
            MODEL,
        ),
        ("gating.gatings", t.gatings as f64, "count", MODEL),
        ("gating.renewals", t.renewals as f64, "count", MODEL),
        (
            "gating.gated_cycle_share",
            ratio(t.gated_cycles as f64, t.gated_run_proc_cycles as f64),
            "ratio",
            MODEL,
        ),
        (
            "mem.dir_sram_lookups",
            t.dir_sram_lookups as f64,
            "count",
            MODEL,
        ),
        (
            "mem.txinfo_roundtrips",
            t.txinfo_roundtrips as f64,
            "count",
            MODEL,
        ),
        (
            "mem.commit_busy_cycles",
            t.commit_busy_cycles as f64,
            "cycles",
            MODEL,
        ),
        (
            "fabric.busy_share",
            ratio(t.fabric_busy_cycles as f64, t.fabric_channel_cycles as f64),
            "ratio",
            MODEL,
        ),
        (
            "fabric.wait_cycles",
            t.fabric_wait_cycles as f64,
            "cycles",
            MODEL,
        ),
        ("fabric.flits", t.fabric_flits as f64, "count", MODEL),
    ]
}
