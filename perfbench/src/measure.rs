//! The untraced run: timed rounds of a workload through
//! `SimulationBuilder::run_with_stats` under `--engine auto`, with every
//! run's output checked. After the first round, an untimed pass replays
//! each run the `auto` heuristic sent to a parallel engine on fixed
//! fast-forward and requires the byte-identical report.

use std::time::{Duration, Instant};

use clockgate_htm::report::to_json;
use clockgate_htm::sim::SimulationBuilder;
use clockgate_htm::sim::{compare_runs, EngineChoice, EngineKind, RunStats, SimReport};
use htm_power::energy::ComparisonReport;
use htm_tcc::system::SimError;

use crate::checks::{check_comparison, check_run, ModelTotals, Tally};
use crate::stats::{geomean, median, ratio};
use crate::traced::{Metric, HOST, MODEL};
use crate::workload::{cell_modes, per_cell, timed_set_up, Cell, Matrix, PreparedMatrix};

/// Both runs of a cell, ungated first.
pub type CellRuns = [Result<(SimReport, RunStats), SimError>; 2];

/// Run both runs of `cell` on `engine`.
pub fn run_cell(cell: &Cell, engine: EngineChoice) -> CellRuns {
    cell_modes().map(|mode| {
        SimulationBuilder::new()
            .config(cell.machine.clone())
            .workload(cell.trace.clone())
            .gating(mode)
            .cycle_limit(cell.cycle_limit)
            .engine(engine)
            .run_with_stats()
    })
}

/// One round under `--engine auto`: every matrix in turn, its cells spread
/// over the worker pool exactly as `experiments::run_matrix_timed_ckpt`
/// spreads them. Returns the round's wall time and the runs, matrix by
/// matrix in cell order.
#[must_use]
pub fn run_round(prepared: &[PreparedMatrix]) -> (f64, Vec<Vec<CellRuns>>) {
    let started = Instant::now();
    let results = prepared
        .iter()
        .map(|m| per_cell(&m.cells, |_, cell| run_cell(cell, EngineChoice::Auto)))
        .collect();
    (started.elapsed().as_secs_f64(), results)
}

/// What the untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// Seconds of every set-up rep.
    pub setup_reps: Vec<f64>,
    /// Wall seconds of every round.
    pub round_walls: Vec<f64>,
    /// Model counts of one round.
    pub totals: ModelTotals,
    /// Comparison of every cell of one round, in cell order.
    pub comparisons: Vec<ComparisonReport>,
}

impl Measured {
    /// Geometric means over cells of speed-up, energy reduction and
    /// average-power reduction.
    #[must_use]
    pub fn paper_quantities(&self) -> [f64; 3] {
        let of = |f: fn(&ComparisonReport) -> f64| {
            geomean(&self.comparisons.iter().map(f).collect::<Vec<_>>())
        };
        [
            of(|c| c.speedup),
            of(|c| c.energy_reduction),
            of(|c| c.average_power_reduction),
        ]
    }

    /// The end-to-end metrics, given the peak RSS. `setup_s` is the median
    /// of the set-up reps, which are spread over the whole run.
    #[must_use]
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let setup_s = median(&self.setup_reps);
        let wall_s = median(&self.round_walls);
        let [speedup, energy, power] = self.paper_quantities();
        let mcycles = self.totals.cycles as f64 / 1e6;
        vec![
            ("setup_s", setup_s, "s", HOST),
            ("wall_s", wall_s, "s", HOST),
            (
                "sim_mcycles_per_s",
                ratio(mcycles, wall_s),
                "Mcycles/s",
                HOST,
            ),
            ("peak_rss_mb", peak_rss_mb, "MB", HOST),
            ("speedup", speedup, "ratio", MODEL),
            ("energy_reduction", energy, "ratio", MODEL),
            ("power_reduction", power, "ratio", MODEL),
        ]
    }
}

/// Check every run of a round and return the cells' comparisons and model
/// counts (cells with a failed run are left out of both).
pub fn check_round(
    prepared: &[PreparedMatrix],
    round: &[Vec<CellRuns>],
    tally: &mut Tally,
) -> (Vec<ComparisonReport>, ModelTotals) {
    let mut comparisons = Vec::new();
    let mut totals = ModelTotals::default();
    for (m, runs) in prepared.iter().zip(round) {
        for (cell, [ungated, gated]) in m.cells.iter().zip(runs) {
            let label = cell.label();
            let txs = cell.trace.total_transactions();
            let u = ungated.as_ref().map(|(r, _)| r);
            let g = gated.as_ref().map(|(r, _)| r);
            let u_ok = check_run(u, txs, false);
            let g_ok = check_run(g, txs, true);
            let both = u_ok.is_ok() && g_ok.is_ok();
            tally.record(&format!("{label} ungated"), u_ok);
            tally.record(&format!("{label} gated"), g_ok);
            if let (true, Ok(u), Ok(g)) = (both, u, g) {
                let cmp = compare_runs(u, g);
                match check_comparison(&cmp) {
                    Ok(()) => {
                        totals.add(u);
                        totals.add(g);
                        comparisons.push(cmp);
                    }
                    Err(why) => tally.fail(&label, &why),
                }
            }
        }
    }
    (comparisons, totals)
}

/// Time rounds until `seconds` have passed (at least one round), checking
/// every run; later rounds must reproduce the first round's comparisons
/// exactly. Before every round a batch of set-up reps is timed and the
/// round runs on the batch's cells, so the set-up reps are spread over the
/// whole run and only one copy of the cells is alive at a time. The
/// fast-forward identity pass runs right after the first round, and no
/// round's reports outlive its checks, so the peak memory does not depend
/// on how many rounds fit in `seconds`.
pub fn measure(
    matrices: &[Matrix],
    seconds: Duration,
    tally: &mut Tally,
) -> Result<Measured, SimError> {
    /// Host seconds of set-up reps timed before each round.
    const SETUP_BATCH_SECS: f64 = 0.5;
    let started = Instant::now();
    let mut setup_reps = Vec::new();
    let mut round_walls = Vec::new();
    let mut first: Option<(Vec<ComparisonReport>, ModelTotals)> = None;
    loop {
        let (reps, prepared) = timed_set_up(matrices, SETUP_BATCH_SECS)?;
        setup_reps.extend(reps);
        let (wall, round) = run_round(&prepared);
        round_walls.push(wall);
        let (comparisons, totals) = check_round(&prepared, &round, tally);
        match &first {
            None => {
                fast_forward_identity(&prepared, &round, tally);
                first = Some((comparisons, totals));
            }
            Some((expected, _)) => {
                if &comparisons != expected {
                    tally.fail(
                        &format!("round {}", round_walls.len()),
                        "comparisons differ from the first round",
                    );
                }
            }
        }
        drop(round);
        drop(prepared);
        if started.elapsed() >= seconds {
            break;
        }
    }
    let (comparisons, totals) = first.expect("at least one round ran");
    Ok(Measured {
        setup_reps,
        round_walls,
        totals,
        comparisons,
    })
}

/// Replay on fixed fast-forward every run that `auto` resolved to another
/// engine, and require a byte-identical report (through `report::to_json`).
pub fn fast_forward_identity(
    prepared: &[PreparedMatrix],
    round: &[Vec<CellRuns>],
    tally: &mut Tally,
) {
    let fixed = EngineChoice::Fixed(EngineKind::FastForward);
    for (m, runs) in prepared.iter().zip(round) {
        for (cell, auto_runs) in m.cells.iter().zip(runs) {
            let parallel = auto_runs
                .iter()
                .any(|r| matches!(r, Ok((_, s)) if s.engine != EngineKind::FastForward));
            if !parallel {
                continue;
            }
            let reference = run_cell(cell, fixed);
            for ((auto, ff), mode) in auto_runs.iter().zip(&reference).zip(cell_modes()) {
                let label = format!("{} {} auto vs fast-forward", cell.label(), mode.label());
                let verdict = match (auto, ff) {
                    (Ok((a, _)), Ok((f, _))) if to_json(a) == to_json(f) => Ok(()),
                    (Ok(_), Ok(_)) => Err("reports differ".to_string()),
                    (_, Err(e)) => Err(format!("fast-forward run failed: {e}")),
                    (Err(_), _) => Err("auto run failed".to_string()),
                };
                tally.record(&label, verdict);
            }
        }
    }
}
