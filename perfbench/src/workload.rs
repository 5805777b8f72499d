//! The benchmark's workloads and their set-up: which experiment matrices a
//! workload runs, and the machine configuration and trace each run needs
//! before its first simulated cycle.

use std::time::Instant;

use clockgate_htm::experiments::ExperimentConfig;
use clockgate_htm::pool::WorkerPool;
use clockgate_htm::sim::{GatingMode, DEFAULT_CYCLE_LIMIT};
use htm_sim::config::SimConfig;
use htm_sim::topology::TopologyConfig;
use htm_tcc::system::SimError;
use htm_tcc::txn::WorkloadTrace;
use htm_workloads::{by_name, WorkloadScale};

use crate::trace::Tracer;

/// The `W0` of every gated run (the paper's operating point).
pub const W0: u64 = 8;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation matrix on the bus, over 30 seeds.
    PaperSeeds,
    /// One contended 256p conflict component on the sharded fabric.
    Hotspot256,
    /// 512p of conflict-isolated islands on the sharded fabric.
    Clustered512,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSeeds,
        Workload::Hotspot256,
        Workload::Clustered512,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSeeds => "paper-seeds",
            Workload::Hotspot256 => "hotspot-256p",
            Workload::Clustered512 => "clustered-512p",
        }
    }

    /// Look a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment matrices the workload runs for `seed`: one matrix per
    /// consecutive seed from `seed`, with the interconnect it runs on. The
    /// paper cells are small, so 30 seeds give a round long enough to time
    /// and average out the spread one seed's input adds.
    #[must_use]
    pub fn matrices(self, seed: u64) -> Vec<Matrix> {
        let (workloads, procs, scale, topology, seeds) = match self {
            Workload::PaperSeeds => (
                &["genome", "yada", "intruder"][..],
                vec![4, 8, 16],
                WorkloadScale::Full,
                TopologyConfig::Bus,
                30,
            ),
            Workload::Hotspot256 => (
                &["hotspot"][..],
                vec![256],
                WorkloadScale::Test,
                TopologyConfig::sharded_default(),
                1,
            ),
            Workload::Clustered512 => (
                &["clustered"][..],
                vec![512],
                WorkloadScale::Small,
                TopologyConfig::sharded_default(),
                1,
            ),
        };
        (0..seeds)
            .map(|k| Matrix {
                cfg: ExperimentConfig {
                    processor_counts: procs.clone(),
                    workloads: workloads.iter().map(|w| (*w).to_string()).collect(),
                    scale,
                    seed: seed.wrapping_add(k),
                    w0: W0,
                    cycle_limit: DEFAULT_CYCLE_LIMIT,
                },
                topology,
            })
            .collect()
    }
}

/// One experiment matrix: what `experiments::run_matrix_timed_ckpt` takes.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Workloads, processor counts, scale, seed, `W0` and cycle bound.
    pub cfg: ExperimentConfig,
    /// Interconnect every run of the matrix uses.
    pub topology: TopologyConfig,
}

/// The two runs of every cell: the ungated baseline, then clock gating.
#[must_use]
pub fn cell_modes() -> [GatingMode; 2] {
    [GatingMode::Ungated, GatingMode::ClockGate { w0: W0 }]
}

/// One (workload, processor count) cell, ready to simulate.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Generator name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Machine description (Table II defaults on the matrix topology).
    pub machine: SimConfig,
    /// The generated trace both runs of the cell replay.
    pub trace: WorkloadTrace,
    /// Cycle bound of each run.
    pub cycle_limit: u64,
}

impl Cell {
    /// `workload-<procs>p-s<seed>`, for failure messages.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}-{}p-s{}",
            self.workload, self.machine.num_procs, self.seed
        )
    }
}

/// Run `f` on every cell with its index, the cells spread over the global
/// worker pool as `experiments::run_matrix_timed_ckpt` spreads them.
/// Returns the results in cell order.
pub fn per_cell<T: Send>(cells: &[Cell], f: impl Fn(usize, &Cell) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    let f = &f;
    WorkerPool::global().scope(|scope| {
        for (i, (slot, cell)) in slots.iter_mut().zip(cells).enumerate() {
            scope.spawn(move || *slot = Some(f(i, cell)));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell job ran to completion"))
        .collect()
}

/// A matrix with its cells set up, in the matrix's cell order
/// (workload-major, then processor count).
#[derive(Debug, Clone)]
pub struct PreparedMatrix {
    /// The cells.
    pub cells: Vec<Cell>,
}

/// Set every matrix up once: configure each cell's machine and generate
/// its trace. Building the machines (`TccSystem::new`) is not set-up here:
/// every timed run builds its own inside `SimulationBuilder::run_with_stats`,
/// so that cost is part of `wall_s`. Spans go to `tracer`.
pub fn set_up(matrices: &[Matrix], tracer: &mut Tracer) -> Result<Vec<PreparedMatrix>, SimError> {
    matrices
        .iter()
        .map(|m| {
            let mut cells = Vec::new();
            for workload in &m.cfg.workloads {
                for &procs in &m.cfg.processor_counts {
                    let machine = SimConfig::table2_with_topology(procs, m.topology);
                    let span = tracer.enter("htm_workloads::by_name", 0);
                    let trace = by_name(workload, procs, m.cfg.scale, m.cfg.seed)
                        .ok_or_else(|| SimError::BadWorkload(format!("unknown '{workload}'")));
                    tracer.exit(span, &[]);
                    cells.push(Cell {
                        workload: workload.clone(),
                        seed: m.cfg.seed,
                        machine,
                        trace: trace?,
                        cycle_limit: m.cfg.cycle_limit,
                    });
                }
            }
            Ok(PreparedMatrix { cells })
        })
        .collect()
}

/// One batch of set-up reps: repeat the set-up for at least `min_secs` and
/// `MIN_SETUP_REPS` reps. Returns the seconds of every rep and the cells of
/// the last.
pub fn timed_set_up(
    matrices: &[Matrix],
    min_secs: f64,
) -> Result<(Vec<f64>, Vec<PreparedMatrix>), SimError> {
    const MIN_SETUP_REPS: usize = 3;
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_started = Instant::now();
        let prepared = set_up(matrices, &mut Tracer::off())?;
        reps.push(rep_started.elapsed().as_secs_f64());
        if reps.len() >= MIN_SETUP_REPS && started.elapsed().as_secs_f64() >= min_secs {
            return Ok((reps, prepared));
        }
    }
}
