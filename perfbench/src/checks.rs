//! Output checks on every simulated run, the attempted/failed tally, and
//! the model counts summed over checked runs.

use clockgate_htm::sim::SimReport;
use htm_power::energy::ComparisonReport;
use htm_tcc::system::SimError;

/// Largest accounting discrepancy a correct run may show: the tolerance the
/// simulator's own tests use for both energy cross-checks.
pub const MAX_DISCREPANCY: f64 = 1e-9;

/// Runs attempted and failed, with the reason of every failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one run and, if `verdict` is an error, its failure.
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(format!("{label}: {why}"));
        }
    }

    /// Record a failure of an already-counted run (a cross-run check).
    pub fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        self.failures.push(format!("{label}: {why}"));
    }

    /// Whether every run passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The process exit status: 0 only when every check passed.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Check one run's result against its input. `transactions` is the trace's
/// transaction count and `gated` says whether clock gating was on.
pub fn check_run(
    result: Result<&SimReport, &SimError>,
    transactions: usize,
    gated: bool,
) -> Result<(), String> {
    let report = result.map_err(|e| format!("run failed: {e}"))?;
    let outcome = &report.outcome;
    outcome.check_consistency()?;
    if outcome.total_commits != transactions as u64 {
        return Err(format!(
            "{} commits for {transactions} transactions",
            outcome.total_commits
        ));
    }
    if !gated && outcome.total_gated_cycles() != 0 {
        return Err(format!(
            "ungated run reports {} gated cycles",
            outcome.total_gated_cycles()
        ));
    }
    let energy = report.energy.accounting_discrepancy();
    let ledger = report.ledger.core_discrepancy();
    if !(energy < MAX_DISCREPANCY && ledger < MAX_DISCREPANCY) {
        return Err(format!(
            "energy discrepancies {energy:e} (accounting) and {ledger:e} (ledger core) \
             exceed {MAX_DISCREPANCY:e}"
        ));
    }
    let model = [
        report.energy.total_energy,
        report.energy.average_power,
        report.ledger.total_energy,
        report.ledger.edp,
        report.ledger.energy_per_commit,
        report.ledger.average_power,
    ];
    if !model.iter().all(|v| v.is_finite()) {
        return Err(format!("non-finite energy metric in {model:?}"));
    }
    Ok(())
}

/// Check a cell's gated-vs-ungated comparison: every paper quantity must
/// be finite and positive.
pub fn check_comparison(cmp: &ComparisonReport) -> Result<(), String> {
    let q = [
        cmp.speedup,
        cmp.energy_reduction,
        cmp.average_power_reduction,
    ];
    if q.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(())
    } else {
        Err(format!(
            "comparison quantities not finite and positive: {q:?}"
        ))
    }
}

/// Deterministic model counts summed over runs (simulated time throughout).
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelTotals {
    /// Simulated cycles, summed over runs.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction executions.
    pub aborts: u64,
    /// Processor-cycles of aborted attempts.
    pub wasted_cycles: u64,
    /// Processor-cycles of committed attempts.
    pub useful_cycles: u64,
    /// Clock-gating periods started.
    pub gatings: u64,
    /// Gating periods renewed.
    pub renewals: u64,
    /// Processor-cycles spent gated.
    pub gated_cycles: u64,
    /// Processor-cycles of the gated runs.
    pub gated_run_proc_cycles: u64,
    /// Directory SRAM lookups.
    pub dir_sram_lookups: u64,
    /// Abort-time `TxInfoReq` round-trips.
    pub txinfo_roundtrips: u64,
    /// Directory cycles spent flushing commits.
    pub commit_busy_cycles: u64,
    /// Busy cycles summed over interconnect channels (bus or bank channels).
    pub fabric_busy_cycles: u64,
    /// Channel-cycles available: run cycles times channels.
    pub fabric_channel_cycles: u64,
    /// Cycles requesters waited for the interconnect.
    pub fabric_wait_cycles: u64,
    /// Payload flits moved.
    pub fabric_flits: u64,
}

impl ModelTotals {
    /// Add one run.
    pub fn add(&mut self, report: &SimReport) {
        let o = &report.outcome;
        self.cycles += o.total_cycles;
        self.commits += o.total_commits;
        self.aborts += o.total_aborts;
        self.wasted_cycles += o.proc_stats.iter().map(|s| s.wasted_cycles).sum::<u64>();
        self.useful_cycles += o.proc_stats.iter().map(|s| s.useful_cycles).sum::<u64>();
        if let Some(g) = &report.gating {
            self.gatings += g.gatings;
            self.renewals += g.renewals;
            self.gated_cycles += o.total_gated_cycles();
            self.gated_run_proc_cycles += o.total_cycles * o.num_procs as u64;
        }
        self.dir_sram_lookups += o.total_dir_lookups();
        self.txinfo_roundtrips += o.total_txinfo_roundtrips();
        self.commit_busy_cycles += o
            .dir_stats
            .iter()
            .map(|d| d.commit_busy_cycles)
            .sum::<u64>();
        // The bus is one channel; a sharded fabric reports one per bank.
        let (busy, channels) = if o.shard_bus.is_empty() {
            (o.bus.busy_cycles, 1)
        } else {
            (
                o.shard_bus.iter().map(|b| b.busy_cycles).sum(),
                o.shard_bus.len() as u64,
            )
        };
        self.fabric_busy_cycles += busy;
        self.fabric_channel_cycles += o.total_cycles * channels;
        self.fabric_wait_cycles += o.bus.wait_cycles;
        self.fabric_flits += o.bus.total_flits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockgate_htm::sim::{GatingMode, SimulationBuilder};
    use htm_workloads::WorkloadScale;

    fn small_run(mode: GatingMode) -> (Result<SimReport, SimError>, usize) {
        let builder = SimulationBuilder::new()
            .processors(4)
            .workload_by_name("intruder", WorkloadScale::Test, 42)
            .expect("intruder is a registered workload");
        let trace = htm_workloads::by_name("intruder", 4, WorkloadScale::Test, 42)
            .expect("intruder is a registered workload");
        (builder.gating(mode).run(), trace.total_transactions())
    }

    #[test]
    fn correct_runs_pass_and_exit_zero() {
        let mut tally = Tally::default();
        for (mode, gated) in [
            (GatingMode::Ungated, false),
            (GatingMode::ClockGate { w0: 8 }, true),
        ] {
            let (report, txs) = small_run(mode);
            tally.record("run", check_run(report.as_ref(), txs, gated));
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert!(tally.correct());
        assert_eq!(tally.exit_code(), 0);
    }

    #[test]
    fn a_failed_check_counts_against_the_run_and_fails_the_exit_status() {
        let (report, txs) = small_run(GatingMode::Ungated);
        let mut tally = Tally::default();
        // A dropped commit must be caught.
        let mut lost = report.clone();
        lost.as_mut().unwrap().outcome.total_commits -= 1;
        tally.record("lost commit", check_run(lost.as_ref(), txs, false));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert_ne!(tally.exit_code(), 0);
        // So must an accounting gap, gated cycles in an ungated run, a
        // non-finite energy, and an error.
        let mut gap = report.clone();
        gap.as_mut().unwrap().outcome.total_cycles += 1;
        tally.record("gap", check_run(gap.as_ref(), txs, false));
        let (gated, _) = small_run(GatingMode::ClockGate { w0: 8 });
        tally.record("gated", check_run(gated.as_ref(), txs, false));
        let mut nan = report.clone();
        nan.as_mut().unwrap().ledger.edp = f64::NAN;
        tally.record("nan", check_run(nan.as_ref(), txs, false));
        let err = Err(SimError::CycleLimitExceeded { limit: 10 });
        tally.record("error", check_run(err.as_ref(), txs, false));
        assert_eq!((tally.attempted, tally.failed), (5, 5));
        assert_eq!(tally.failures.len(), 5);
    }

    #[test]
    fn comparison_quantities_must_be_positive() {
        let (u, _) = small_run(GatingMode::Ungated);
        let (g, _) = small_run(GatingMode::ClockGate { w0: 8 });
        let mut cmp = clockgate_htm::sim::compare_runs(&u.unwrap(), &g.unwrap());
        assert!(check_comparison(&cmp).is_ok());
        cmp.energy_reduction = f64::INFINITY;
        assert!(check_comparison(&cmp).is_err());
    }
}
