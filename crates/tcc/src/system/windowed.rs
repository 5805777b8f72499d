//! Time-windowed conservative PDES stepping ([`EngineKind::Windowed`]).
//!
//! The island-parallel engine can only fan out runs whose conflict graph
//! splits into disconnected components — a single contended workload is one
//! island and stays serial. This engine parallelizes *inside* one island by
//! exploiting the physical structure of a sharded interconnect instead of
//! the logical structure of the workload:
//!
//! 1. **Lookahead.** Every cross-processor interaction travels through the
//!    fabric, and [`Topology::min_notify_latency`] is a provable floor on
//!    its delivery latency: a message entered at cycle `t` arrives no
//!    earlier than `t + W`. A window `[T, T_end)` with `T_end <= T + W`
//!    therefore has the property that every message *created* inside it is
//!    *delivered* at or beyond the barrier — within the window, processors
//!    only interact through directory/bank state.
//! 2. **Grouping.** At each window boundary a planner partitions the
//!    machine by home bank: a union-find over processors and bank channels
//!    links everything that can touch the same bank state before `T_end`
//!    (pending deliveries, phase completions, a conservative walk of the
//!    operations a processor can reach inside the window, and the gating
//!    hook's declared couplings — see [`GatingHook::windowed_couplings`]).
//!    Disjoint groups cannot observe each other inside the window.
//! 3. **Group advance.** Each group is advanced from `T` to `T_end` with
//!    the ordinary fast-forward machinery, scoped to the group: the event
//!    heap, spin mask and population counters are seeded from the group's
//!    members, hook ticks run scoped to the group's directories
//!    ([`GatingHook::on_tick_scoped`]), and every outbound message is
//!    staged instead of delivered. With more than one pool worker the
//!    groups run **concurrently**: each is split off into a disjoint
//!    *lane* — an owned `TccSystem` assembled by `mem::swap`-ing the
//!    group's processors, directories and memory banks into a cached
//!    full-size shell ([`LaneShell`]), cloning the interconnect (its
//!    foreign banks stay frozen; only the lane's own banks are copied
//!    back) and sharing the gating hook behind a mutex ([`LaneHook`]) —
//!    and the lanes are fanned onto the persistent worker pool. A pool of
//!    one worker takes the sequential in-place path instead; both paths
//!    are byte-identical.
//! 4. **Barrier.** Lanes are disassembled (components swapped back, bank
//!    channels copied back, counter deltas — vendor-link stats, issued
//!    TIDs, done counts — folded in), staged messages are sorted into the
//!    exact order a serial run would have pushed them (so every inbox's
//!    FIFO sequence numbers match), the per-group interval logs plus a
//!    constant baseline for the parked processors are summed cycle-wise
//!    into the global tracker, and the clock jumps to `T_end`.
//!
//! A window that plans to a single group is a plain serial advance, and
//! after each one the engine stops planning for a stretch of plain
//! fast-forward stepping that doubles while plans stay single-group (the
//! planner backoff, see `advance_window`).
//!
//! Exactness is the same argument as the fast-forward engine's
//! jump-splitting plus one new ingredient: within a window, state is
//! partitioned — each group's serial advance touches only its own
//! processors, its own banks' channels and directories, and hook state
//! covered by the declared couplings; everything else is additive
//! (statistics) or commutative (min-merged deadlines), so advancing the
//! groups one after another from the same start cycle reproduces the
//! interleaved serial execution bit for bit. The lane fan-out adds a
//! determinism argument on top, so that *thread schedule* cannot matter
//! either:
//!
//! - A lane's execution depends only on lane-owned state. The one shared
//!   mutable resource — the hook — is serialized by a mutex, and the
//!   couplings contract guarantees cross-lane callbacks touch disjoint
//!   hook state (so their interleaving commutes); shared *reads* that do
//!   vary with timing (the hook's `next_deadline`, frozen foreign-bank
//!   deadlines) feed only the jump-split horizon, and jump splitting is
//!   exact: a spurious wake cycle executes nothing and its interval
//!   records coalesce away in the RLE log.
//! - All cross-lane effects are staged: messages carry serial-order sort
//!   keys `(cycle, phase, emitter)` and are delivered at the barrier in
//!   exactly the serial push order, and every merged counter is a sum or
//!   a max, independent of lane completion order.
//!
//! The differential suite runs the same cells under pool sizes {1, 2, 8}
//! and across all four engines to enforce this bit-for-bit.
//!
//! See `docs/SCALING.md` for the full derivation and `DESIGN.md` for the
//! lane-borrow contract and how this composes with checkpointing (windows
//! clamp at due cycles, so checkpoint/replay cadence is unchanged).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use htm_mem::{MainMemory, SpecCache};
use htm_sim::bus::BusTraffic;
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::config::SimConfig;
use htm_sim::interval::{zip_sum_segments, IntervalSeg, IntervalTracker};
use htm_sim::pool::WorkerPool;
use htm_sim::topology::{Node, Route, Topology};
use htm_sim::{Cycle, DirId, ProcId, ProcSet};

use crate::dirctrl::DirCtrl;
use crate::hooks::{AbortAction, GateCommand, GatingHook, ScopedCmdKey, SystemView};
use crate::processor::{Phase, ProcEvent, Processor, RetryAfter};
use crate::stats::PowerState;
use crate::txn::{Op, ThreadTrace, TxId};

use super::{StepPlan, TccSystem};

/// Staged-message ordering class: hook-emitted messages sort before
/// processor-emitted ones within a cycle, because the serial engine applies
/// hook commands before stepping processors.
pub(super) const STAGE_PHASE_HOOK: u8 = 0;
/// Staged-message ordering class for processor-emitted messages (see
/// [`STAGE_PHASE_HOOK`]); their key leads with the emitting processor id,
/// matching the ascending-id order of the serial per-cycle loop.
pub(super) const STAGE_PHASE_PROC: u8 = 1;

/// Longest planner-backoff stretch, in cycles. However long a run keeps
/// planning single groups, the windowed engine still plans at least once
/// per `PLANNER_BACKOFF_CAP` cycles, so windows that start to split again
/// are noticed within one stretch.
pub(super) const PLANNER_BACKOFF_CAP: Cycle = 1 << 14;

/// Counters accumulated by the windowed engine, for scaling diagnostics
/// (`timing.json` artifacts and the `pdes_scaling` bench). Deliberately not
/// checkpointed: a resumed run counts only its own remainder, and keeping
/// them out of the payload keeps checkpoint bytes engine-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowedStats {
    /// Lookahead windows executed, i.e. windows the planner ran for.
    /// Quiescent fast-forward jumps between windows and planner-backoff
    /// stretches (plain fast-forward stepping after single-group plans, see
    /// `advance_window`) are not counted.
    pub windows: u64,
    /// Windows whose planner produced two or more independent groups — the
    /// windows the island engine could not have split.
    pub multi_group_windows: u64,
    /// Largest number of independent groups observed in one window.
    pub max_groups_in_window: usize,
    /// Total group advances (sum of group counts over all windows).
    pub group_advances: u64,
    /// Largest number of bank shards with at least one active processor
    /// observed in one window.
    pub max_banks_active: usize,
    /// Cross-group messages staged at window barriers.
    pub staged_messages: u64,
    /// Histogram of group counts per executed window, with buckets for
    /// 1, 2, 3, 4, 5–8, 9–16 and 17+ groups (see
    /// [`Self::GROUP_HIST_BUCKETS`]). Deterministic.
    pub group_count_hist: [u64; 7],
    /// Windows whose groups were fanned onto the worker pool as concurrent
    /// lanes (multi-group windows advanced with a pool of one worker take
    /// the sequential path and are not counted here).
    pub parallel_windows: u64,
    /// Deterministic high-water mark of lanes eligible to run at once:
    /// `min(groups in window, pool workers)`, maximized over parallel
    /// windows. (A measured occupancy high-water would depend on thread
    /// timing; this bound is what CI can gate on.)
    pub max_concurrent_lanes: usize,
    /// Wall-clock nanoseconds spent inside lane advances, summed across all
    /// lanes of all parallel windows — concurrency makes this exceed the
    /// lanes' share of [`Self::window_wall_nanos`], and the ratio is the
    /// realized overlap. Nondeterministic: surfaced in `--timing` artifacts
    /// only, never in reports or checkpoints.
    pub lane_busy_nanos: u64,
    /// Wall-clock nanoseconds spent in parallel windows end to end (lane
    /// assembly, concurrent advance, barrier merge); the busy/wall gap is
    /// the serialization cost of the barrier. Nondeterministic, like
    /// [`Self::lane_busy_nanos`].
    pub window_wall_nanos: u64,
}

impl WindowedStats {
    /// Human-readable labels of the [`Self::group_count_hist`] buckets.
    pub const GROUP_HIST_BUCKETS: [&'static str; 7] = ["1", "2", "3", "4", "5-8", "9-16", "17+"];

    /// Count one executed window with `n` groups into the histogram.
    fn record_window_groups(&mut self, n: usize) {
        let bucket = match n {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            4 => 3,
            5..=8 => 4,
            9..=16 => 5,
            _ => 6,
        };
        self.group_count_hist[bucket] += 1;
    }
}

/// Scope of one group advance: the directories whose state the group owns
/// for the duration of the window. While installed on the system it
/// restricts view refreshes and hook ticks to these directories and diverts
/// all outbound inbox pushes into the staging buffer.
pub(super) struct WindowFocus {
    /// The group's directories, ascending.
    pub(super) dir_list: Vec<DirId>,
    /// Same set as a dense mask (indexed by directory id), handed to
    /// [`GatingHook::on_tick_scoped`].
    pub(super) dirs_mask: Vec<bool>,
}

/// A message produced inside a window, held back until the barrier. The
/// `(cycle, phase, key)` triple reconstructs the serial push order across
/// groups; `seq` assignment happens at the barrier push, so per-inbox FIFO
/// numbering matches a serial run exactly.
pub(super) struct StagedMsg {
    /// Cycle at which the serial engine would have pushed this message.
    pub(super) cycle: Cycle,
    /// [`STAGE_PHASE_HOOK`] or [`STAGE_PHASE_PROC`].
    pub(super) phase: u8,
    /// Emission order within `(cycle, phase)`: the emitting processor id
    /// for processor messages, the hook's [`crate::hooks::ScopedCmdKey`]
    /// for hook commands.
    pub(super) key: (u64, u64, u64),
    /// Receiving processor.
    pub(super) target: ProcId,
    /// Delivery cycle (computed on the owning bank channel at emission
    /// time; provably `>= T_end`).
    pub(super) deliver_at: Cycle,
    /// The message itself.
    pub(super) ev: ProcEvent,
}

/// One bank-disjoint group of a window plan.
struct WindowGroup {
    /// Active processors, ascending.
    procs: Vec<ProcId>,
    /// Same set as a bitset (seeds `view_dirty`).
    proc_set: ProcSet,
    /// Power-state population counts over the group's processors.
    counts: (usize, usize, usize, usize),
    /// Directories owned by the group (every directory whose bank channel
    /// is in the group's component), ascending.
    dir_list: Vec<DirId>,
    /// `dir_list` as a dense mask.
    dirs_mask: Vec<bool>,
    /// The distinct bank channels owned by the group, ascending. The lane
    /// barrier copies exactly these channels back into the master
    /// interconnect.
    bank_list: Vec<usize>,
    /// Number of distinct bank channels backing `dir_list`.
    banks: usize,
}

/// Output of the window planner: the groups plus the constant power-state
/// baseline of every parked (provably inert) processor.
struct WindowPlan {
    groups: Vec<WindowGroup>,
    parked: (usize, usize, usize, usize),
    active_banks: usize,
}

/// Union-find over `processors ++ bank channels`, with
/// smallest-root-wins unions so component ids are deterministic.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..u32::try_from(n).expect("node count fits u32")).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = u32::try_from(lo).expect("root fits u32");
        }
    }
}

/// Cached skeleton of one lane: full-size component vectors filled with
/// cheap placeholders (empty-thread processors that are born `Done`,
/// zero-processor directories, fresh memory ports). Building a lane swaps
/// the group's *real* components into the matching slots — O(group size)
/// pointer swaps — and moves the vectors into an owned [`TccSystem`];
/// disassembly reverses both moves, so the allocations are reused every
/// window. Placeholder slots are never touched during the window: the
/// planner proves foreign processors cannot act and anchors every
/// directory/bank the group can reach, and fresh placeholders report no
/// deadlines, so they are invisible to the lane's plan/step machinery.
pub(super) struct LaneShell {
    procs: Vec<Processor>,
    dirs: Vec<DirCtrl>,
    memory_banks: Vec<MainMemory>,
    view: SystemView,
    acct_until: Vec<Cycle>,
    /// Per-lane interval sink (the lane-local analogue of the dummy tracker
    /// the sequential path swaps in): absorbs the double-counted records and
    /// is discarded, while the authoritative per-cycle data lives in the
    /// lane's RLE log. Fixed-size, so reuse across windows cannot grow it.
    intervals: IntervalTracker,
    deadlines: BinaryHeap<Reverse<(Cycle, ProcId)>>,
    dir_scratch: Vec<DirId>,
    wstage: Vec<StagedMsg>,
    wscratch: Vec<(ScopedCmdKey, GateCommand)>,
    log_buf: Vec<IntervalSeg>,
}

impl LaneShell {
    fn new(cfg: &SimConfig) -> Self {
        Self {
            procs: (0..cfg.num_procs)
                .map(|i| Processor::new(i, ThreadTrace::default(), SpecCache::new(1, 1)))
                .collect(),
            dirs: (0..cfg.num_dirs)
                .map(|d| DirCtrl::new(d, 0, cfg.directory_latency))
                .collect(),
            memory_banks: (0..cfg.num_dirs)
                .map(|_| MainMemory::from_config(cfg))
                .collect(),
            view: SystemView::default(),
            acct_until: Vec::new(),
            intervals: IntervalTracker::new(cfg.num_procs),
            deadlines: BinaryHeap::new(),
            dir_scratch: Vec::new(),
            wstage: Vec::new(),
            wscratch: Vec::new(),
            log_buf: Vec::new(),
        }
    }
}

/// Hook adapter installed in every lane: forwards every [`GatingHook`]
/// callback to the master's hook behind a mutex, so all lanes observe one
/// shared controller exactly as the sequential engine does. Serialization
/// is for memory safety; *determinism* comes from the couplings contract
/// (callbacks from different lanes touch disjoint hook state, so their
/// interleaving commutes) and from jump-split exactness (timing-dependent
/// `next_deadline` reads only split jumps, see the module docs).
pub(super) struct LaneHook<'a, H> {
    shared: &'a Mutex<&'a mut H>,
}

impl<H: GatingHook> LaneHook<'_, H> {
    fn with<R>(&self, f: impl FnOnce(&mut H) -> R) -> R {
        // A poisoned mutex means a sibling lane panicked mid-callback; the
        // scope will re-raise that panic at the barrier. Ignoring the poison
        // here avoids cascading a second, less informative panic.
        let mut guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut **guard)
    }
}

impl<H: GatingHook> GatingHook for LaneHook<'_, H> {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        self.with(|h| h.on_abort(dir, victim, aborter, aborter_tx, now, view))
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        self.with(|h| h.on_tick(now, view, out));
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        self.with(|h| h.next_deadline(now))
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        self.with(|h| h.on_commit(proc, now));
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        self.with(|h| h.on_wake(proc, now));
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, now: Cycle) {
        self.with(|h| h.on_proc_activity(proc, dir, now));
    }

    fn windowed_couplings(&self, out: &mut Vec<(DirId, ProcId)>) -> bool {
        self.with(|h| h.windowed_couplings(out))
    }

    fn on_tick_scoped(
        &mut self,
        now: Cycle,
        view: &SystemView,
        focus: &[bool],
        out: &mut Vec<(ScopedCmdKey, GateCommand)>,
    ) {
        self.with(|h| h.on_tick_scoped(now, view, focus, out));
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        self.with(|h| h.snapshot(w));
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.with(|h| h.restore(r))
    }
}

impl<H: GatingHook> TccSystem<H> {
    /// The windowed engine's provable conservative lookahead, or `None`
    /// when the topology gives it no cross-shard structure to exploit (the
    /// shared bus, or a sharded fabric collapsed to a single bank channel)
    /// — in which case the caller behaves exactly like fast-forward.
    #[must_use]
    pub fn windowed_lookahead(&self) -> Option<Cycle> {
        if self.cfg.topology.effective_banks(self.dirs.len()) < 2 {
            return None;
        }
        Some(self.net.min_notify_latency().max(1))
    }

    /// Counters accumulated by the windowed engine so far (all zero under
    /// every other engine).
    #[must_use]
    pub fn windowed_stats(&self) -> WindowedStats {
        self.wstats
    }

    /// Advance through exactly one lookahead window (clamped at `clamp`),
    /// through one quiescent stretch if nothing is due, or through one
    /// planner-backoff stretch. Bit-for-bit equivalent to
    /// `advance_until(t)` for the cycle `t <= clamp` it stops at; always
    /// makes progress when `now < clamp`.
    ///
    /// **Planner backoff.** Most windows of a contended run plan to a
    /// single group, and a single-group window is nothing but a serial
    /// `advance_until`. So after each single-group plan the engine skips
    /// planning for a stretch of plain fast-forward stepping, doubling the
    /// stretch per consecutive single-group plan up to
    /// [`PLANNER_BACKOFF_CAP`] and resetting it on the first multi-group
    /// plan. A stretch runs the same `advance_until` primitive as a
    /// single-group window, and switching between serial and windowed
    /// stepping at any cycle is exact (jump splitting), so the backoff
    /// moves only wall-clock time — never a byte of output.
    pub(super) fn advance_window(&mut self, clamp: Cycle) {
        let Some(lookahead) = self.windowed_lookahead() else {
            self.advance_until(clamp);
            return;
        };
        if self.now < self.wskip_until {
            self.advance_until(self.wskip_until.min(clamp));
            return;
        }
        // Fast-forward any quiescent prefix with the ordinary plan, so
        // windows always start on a cycle where something is due.
        let (active, hook_due) = loop {
            if self.done_count >= self.procs.len() || self.now >= clamp {
                return;
            }
            match self.plan_step() {
                StepPlan::Quiescent => {
                    self.fast_forward(clamp - self.now);
                    return;
                }
                StepPlan::Jump(n) => self.fast_forward(n.min(clamp - self.now)),
                StepPlan::Cycle { active, hook_due } => break (active, hook_due),
            }
        };
        // The probe above popped the due event-queue entries of `active`
        // without processing them: the multi-group path reseeds (groups
        // build their own heaps, the barrier forces a rebuild), and the
        // single-group path executes the probed cycle itself.
        let t0 = self.now;
        let t_end = (t0 + lookahead).min(clamp);
        self.wstats.windows += 1;

        let mut couplings: Vec<(DirId, ProcId)> = Vec::new();
        let plan = if self.hook.windowed_couplings(&mut couplings) {
            Some(self.plan_window_groups(t_end, &couplings))
        } else {
            // The hook cannot scope its state: the whole machine is one
            // group and the window degenerates to a serial advance.
            None
        };
        match plan {
            Some(plan) if plan.groups.len() > 1 => {
                self.wbackoff = 0;
                self.advance_window_groups(plan, t0, t_end);
            }
            plan => {
                if let Some(plan) = plan {
                    self.wstats.max_banks_active =
                        self.wstats.max_banks_active.max(plan.active_banks);
                    self.wstats.max_groups_in_window =
                        self.wstats.max_groups_in_window.max(plan.groups.len());
                }
                self.wstats.record_window_groups(1);
                // Exactly the next iteration of `advance_until`'s own loop.
                self.step_cycle(active, hook_due);
                self.advance_until(t_end);
                self.wstats.group_advances += 1;
                self.wbackoff = (self.wbackoff * 2).max(lookahead).min(PLANNER_BACKOFF_CAP);
                self.wskip_until = t_end + self.wbackoff;
            }
        }
    }

    /// Partition the machine for the window `[now, t_end)`: union-find over
    /// processors and bank channels, linking everything that can observe or
    /// mutate shared state before `t_end`. Over-approximation (merging two
    /// groups that would not actually have interacted) only costs
    /// parallelism, never correctness; the converse direction is what every
    /// edge below is for.
    fn plan_window_groups(&self, t_end: Cycle, couplings: &[(DirId, ProcId)]) -> WindowPlan {
        let np = self.procs.len();
        let nd = self.dirs.len();
        let nb = self.cfg.topology.effective_banks(nd);
        let mut dsu = Dsu::new(np + nb);
        let mut active = vec![false; np];
        let mut bank_hook_active = vec![false; nb];
        let now = self.now;

        for (i, active_i) in active.iter_mut().enumerate() {
            let proc = &self.procs[i];
            let acct = self.acct_until[i];

            // (1) Deliverable inbox events. Delivery runs the abort/wake
            // protocol: hook state at the sending directory, release of
            // every touched directory, then a restart that can issue
            // operations — and the hook consults the aborter's view entry,
            // so an *acting* aborter must share the group (a parked
            // aborter's entry is constant and safe to read across groups).
            let mut acts = false;
            for (at, ev) in proc.inbox.iter() {
                if at.max(now) >= t_end {
                    continue;
                }
                acts = true;
                match *ev {
                    ProcEvent::Invalidation { dir, aborter, .. } => {
                        dsu.union(i, np + self.cfg.topology.bank_of(dir, nd));
                        dsu.union(i, aborter);
                    }
                    ProcEvent::TurnOn { dir } => {
                        dsu.union(i, np + self.cfg.topology.bank_of(dir, nd));
                    }
                }
            }
            if acts {
                *active_i = true;
                for &d in &proc.dirs_touched {
                    dsu.union(i, np + self.cfg.topology.bank_of(d, nd));
                }
                let mut anchor = |d: DirId| dsu.union(i, np + self.cfg.topology.bank_of(d, nd));
                // Restart after an abort or wake: attempt state is cleared
                // and the prologue is not re-executed. Walking from the
                // window start overestimates how far it gets — safe.
                self.walk_anchors(i, proc.tx_idx, 0, now, t_end, false, false, &mut anchor);
            }

            // (2) Phase machinery. `r` is the earliest cycle the phase
            // itself acts (relative countdowns are measured from the lazy
            // accounting watermark, exactly like `Processor::next_deadline`).
            let resume = match proc.phase {
                Phase::Done | Phase::Gated => None,
                Phase::PreCompute { remaining } => Some(acct + remaining.saturating_sub(1)),
                Phase::Executing { remaining, .. } => Some(acct + remaining),
                Phase::SpinCommit { .. } => Some(now),
                Phase::WaitMiss { until, .. }
                | Phase::WaitToken { until }
                | Phase::Committing { until, .. }
                | Phase::Aborting { until, .. }
                | Phase::Backoff { until }
                | Phase::Throttled { until }
                | Phase::GateDraining { until }
                | Phase::WakeRestart { until } => Some(until.max(acct)),
            };
            let Some(r) = resume else { continue };
            if r >= t_end {
                // Provably inert all window (its inbox was handled above):
                // parked. Its power state, view entry and lazy accounting
                // watermark stay untouched, exactly as a serial run would
                // leave them while it never acts.
                continue;
            }
            *active_i = true;
            let mut anchor = |d: DirId| dsu.union(i, np + self.cfg.topology.bank_of(d, nd));
            match proc.phase {
                Phase::Done | Phase::Gated | Phase::GateDraining { .. } => {
                    // Gate drain completes locally (power state flips to
                    // Gated); no shared state is touched.
                }
                Phase::PreCompute { .. } => {
                    self.walk_anchors(i, proc.tx_idx, 0, r + 1, t_end, false, true, &mut anchor);
                }
                Phase::Executing { op_idx, .. } => {
                    self.walk_anchors(i, proc.tx_idx, op_idx, r, t_end, false, true, &mut anchor);
                }
                Phase::WaitMiss { op_idx, .. } => {
                    // The fill itself touches only the local cache; the
                    // miss's home is already in `dirs_touched` and gets
                    // anchored if a commit is reachable.
                    self.walk_anchors(
                        i,
                        proc.tx_idx,
                        op_idx,
                        r + 1,
                        t_end,
                        false,
                        true,
                        &mut anchor,
                    );
                }
                Phase::WaitToken { .. } | Phase::SpinCommit { .. } | Phase::Committing { .. } => {
                    // Marking, spinning and flushing touch every planned
                    // directory; finishing releases everything touched.
                    // Conservatively assume the commit can complete inside
                    // the window and the next transaction starts. A commit
                    // finishing at cycle `r` issues the next transaction's
                    // first operation at `r + 1 + pre_compute`, and the walk
                    // charges the prologue itself, so it must start at
                    // `r + 1` to keep every modeled cycle a lower bound.
                    for step in &proc.commit_plan {
                        anchor(step.dir);
                    }
                    for &d in &proc.dirs_touched {
                        anchor(d);
                    }
                    self.walk_anchors(
                        i,
                        proc.tx_idx + 1,
                        0,
                        r + 1,
                        t_end,
                        true,
                        false,
                        &mut anchor,
                    );
                }
                Phase::Aborting { then, .. } => {
                    let start = match then {
                        RetryAfter::Immediately => r + 1,
                        RetryAfter::Backoff(b) => r + b + 1,
                        RetryAfter::Throttle(d) => r + d + 1,
                    };
                    self.walk_anchors(i, proc.tx_idx, 0, start, t_end, false, false, &mut anchor);
                }
                Phase::Backoff { .. } | Phase::Throttled { .. } | Phase::WakeRestart { .. } => {
                    self.walk_anchors(i, proc.tx_idx, 0, r + 1, t_end, false, false, &mut anchor);
                }
            }
        }

        // (3) Hook couplings: a scoped action at directory `d` may read or
        // write state tied to processor `p`, so `d`'s bank and `p` must
        // share a group. If the hook can fire inside this window at all,
        // every coupled bank must belong to *some* group so the due entries
        // are processed (a group can consist of banks alone).
        let hook_due_in_window = self.hook.next_deadline(now).is_some_and(|d| d < t_end);
        for &(d, p) in couplings {
            let b = self.cfg.topology.bank_of(d, nd);
            dsu.union(np + b, p);
            if hook_due_in_window {
                bank_hook_active[b] = true;
            }
        }

        // Assemble groups from the components that contain activity.
        let mut groups: Vec<WindowGroup> = Vec::new();
        let mut root_slot = vec![usize::MAX; np + nb];
        let mut claim = |root: usize, groups: &mut Vec<WindowGroup>| {
            if root_slot[root] == usize::MAX {
                root_slot[root] = groups.len();
                groups.push(WindowGroup {
                    procs: Vec::new(),
                    proc_set: ProcSet::empty(),
                    counts: (0, 0, 0, 0),
                    dir_list: Vec::new(),
                    dirs_mask: vec![false; nd],
                    bank_list: Vec::new(),
                    banks: 0,
                });
            }
            root_slot[root]
        };
        for (i, &is_active) in active.iter().enumerate() {
            if is_active {
                let g = claim(dsu.find(i), &mut groups);
                groups[g].procs.push(i);
                groups[g].proc_set.insert(i);
                match self.procs[i].phase.power_state() {
                    PowerState::Gated => groups[g].counts.0 += 1,
                    PowerState::Miss => groups[g].counts.1 += 1,
                    PowerState::Commit => groups[g].counts.2 += 1,
                    PowerState::Throttled => groups[g].counts.3 += 1,
                    PowerState::Run => {}
                }
            }
        }
        for (b, &hook_active) in bank_hook_active.iter().enumerate() {
            if hook_active {
                claim(dsu.find(np + b), &mut groups);
            }
        }
        let mut bank_group = vec![usize::MAX; nb];
        let mut active_banks = 0usize;
        for (b, slot) in bank_group.iter_mut().enumerate() {
            let g = root_slot[dsu.find(np + b)];
            *slot = g;
            if g != usize::MAX {
                groups[g].banks += 1;
                groups[g].bank_list.push(b);
                if !groups[g].procs.is_empty() {
                    active_banks += 1;
                }
            }
        }
        for d in 0..nd {
            let g = bank_group[self.cfg.topology.bank_of(d, nd)];
            if g != usize::MAX {
                groups[g].dir_list.push(d);
                groups[g].dirs_mask[d] = true;
            }
        }

        // The parked baseline: global population counts minus every group's
        // share (the global counts are current — the caller just ran
        // `plan_step`, which rebuilds them when stale).
        let mut parked = self.state_counts;
        for g in &groups {
            parked.0 -= g.counts.0;
            parked.1 -= g.counts.1;
            parked.2 -= g.counts.2;
            parked.3 -= g.counts.3;
        }
        WindowPlan {
            groups,
            parked,
            active_banks,
        }
    }

    /// Conservative cost-model walk of the operations processor `i` can
    /// reach before `t_end`, anchoring the home directory of every memory
    /// operation on the way (plus, at a reachable commit point, everything
    /// the live attempt would release). Every cost is a lower bound — a
    /// compute op takes at least its trace cycles, a memory op at least one
    /// cycle, a commit at least one — so the walk never stops short of what
    /// the simulation could actually execute.
    #[allow(clippy::too_many_arguments)]
    fn walk_anchors(
        &self,
        i: ProcId,
        mut tx_idx: usize,
        mut op_idx: usize,
        mut t: Cycle,
        t_end: Cycle,
        mut include_prologue: bool,
        mut carry_attempt: bool,
        anchor: &mut impl FnMut(DirId),
    ) {
        let proc = &self.procs[i];
        while t < t_end {
            let Some(tx) = proc.thread.transactions.get(tx_idx) else {
                return;
            };
            if include_prologue {
                // (Re-set at the bottom of the loop: every transaction after
                // the first always pays its prologue.)
                t += tx.pre_compute;
                if t >= t_end {
                    return;
                }
            }
            while op_idx < tx.ops.len() {
                if t >= t_end {
                    return;
                }
                match tx.ops[op_idx] {
                    Op::Compute(c) => t += c.max(1),
                    Op::Read(addr) | Op::Write(addr) => {
                        anchor(self.map.home_of(self.map.line_of(addr)));
                        t += 1;
                    }
                }
                op_idx += 1;
            }
            if t >= t_end {
                return;
            }
            // Commit point reached inside the window. The walked attempt's
            // reads and writes were anchored op by op; a live resumed
            // attempt also releases what it accumulated before the window.
            if carry_attempt {
                for &d in &proc.dirs_touched {
                    anchor(d);
                }
                for &line in &proc.write_set {
                    anchor(self.map.home_of(line));
                }
                carry_attempt = false;
            }
            t += 1;
            tx_idx += 1;
            op_idx = 0;
            include_prologue = true;
        }
    }

    /// Advance the clock of one lane (or of the master, on the sequential
    /// path) from its current cycle to `t_end` with the scoped fast-forward
    /// machinery. Callers install the window focus and seed the fast-engine
    /// structures first.
    fn advance_lane_window(&mut self, t_end: Cycle) {
        while self.now < t_end {
            match self.plan_step() {
                StepPlan::Jump(n) => self.fast_forward(n.min(t_end - self.now)),
                StepPlan::Cycle { active, hook_due } => self.step_cycle(active, hook_due),
                StepPlan::Quiescent => self.fast_forward(t_end - self.now),
            }
        }
    }

    /// Advance every group of `plan` from `t0` to `t_end` with the scoped
    /// fast-forward machinery, then merge at the barrier. With more than
    /// one pool worker the groups run concurrently as disjoint lanes;
    /// otherwise they run sequentially in place. Both paths are
    /// byte-identical.
    fn advance_window_groups(&mut self, plan: WindowPlan, t0: Cycle, t_end: Cycle) {
        self.wstats.multi_group_windows += 1;
        self.wstats.max_groups_in_window = self.wstats.max_groups_in_window.max(plan.groups.len());
        self.wstats.group_advances += plan.groups.len() as u64;
        self.wstats.max_banks_active = self.wstats.max_banks_active.max(plan.active_banks);
        self.wstats.record_window_groups(plan.groups.len());
        debug_assert!(self.wstage.is_empty());

        // Settle the hook-visible snapshot before any group reads it. The
        // lazy dirty set may still hold updates from the previous window
        // (e.g. a commit on its last executed cycle) for processors that
        // are parked — and therefore never refreshed — in this one, yet
        // whose entries a group's abort protocol consults across the
        // group boundary. A parked processor's entry is constant for the
        // whole window, so refreshing everything here is exact; group
        // procs keep refreshing per executed cycle via the lane seeding.
        self.view_dirty = ProcSet::empty();
        self.refresh_view();

        let pool_override = self.lane_pool.clone();
        let pool: &WorkerPool = match &pool_override {
            Some(p) => p,
            None => WorkerPool::global(),
        };
        if pool.workers() > 1 {
            self.advance_window_groups_parallel(plan, t0, t_end, pool);
        } else {
            self.advance_window_groups_sequential(plan, t0, t_end);
        }
    }

    /// The in-place sequential group loop (pool of one worker): groups are
    /// advanced one after another on the caller's thread, re-using the
    /// master's own engine structures.
    fn advance_window_groups_sequential(&mut self, plan: WindowPlan, t0: Cycle, t_end: Cycle) {
        let total = t_end - t0;

        // Swap the interval sinks out: each group records into its own RLE
        // log (summed at the barrier); the dummy tracker absorbs the
        // double-counted records and is discarded.
        let saved_intervals = mem::replace(
            &mut self.intervals,
            IntervalTracker::new(self.cfg.num_procs),
        );
        let saved_log = self.interval_log.take();
        let mut group_logs: Vec<Vec<IntervalSeg>> = Vec::with_capacity(plan.groups.len());

        for group in plan.groups {
            self.now = t0;
            self.interval_log = Some(Vec::new());
            // Seed the engine structures from the group exactly the way
            // `rebuild_fast_state` seeds them from the whole machine.
            self.deadlines.clear();
            self.spin_mask = ProcSet::empty();
            self.state_counts = group.counts;
            self.view_dirty = group.proc_set;
            self.fast_state_stale = false;
            for &i in &group.procs {
                let proc = &self.procs[i];
                if matches!(proc.phase, Phase::SpinCommit { .. }) {
                    self.spin_mask.insert(i);
                    if let Some(d) = proc.inbox.next_delivery() {
                        self.deadlines.push(Reverse((d, i)));
                    }
                } else if let Some(d) = proc.next_deadline(self.acct_until[i]) {
                    self.deadlines.push(Reverse((d, i)));
                }
            }
            self.wfocus = Some(WindowFocus {
                dir_list: group.dir_list,
                dirs_mask: group.dirs_mask,
            });
            self.advance_lane_window(t_end);
            self.wfocus = None;
            let log = self.interval_log.take().unwrap_or_default();
            debug_assert_eq!(log.iter().map(|s| s.cycles).sum::<u64>(), total);
            group_logs.push(log);
        }

        self.intervals = saved_intervals;
        self.interval_log = saved_log;
        self.window_barrier(&group_logs, plan.parked, t0, t_end);
    }

    /// The parallel group loop: split every group off into an owned lane
    /// (components `mem::swap`-ed into a cached [`LaneShell`], interconnect
    /// cloned, hook shared behind a mutex), fan the lanes onto `pool`, then
    /// disassemble and merge. Byte-identical to the sequential path — see
    /// the module docs for the determinism argument.
    fn advance_window_groups_parallel(
        &mut self,
        plan: WindowPlan,
        t0: Cycle,
        t_end: Cycle,
        pool: &WorkerPool,
    ) {
        let window_start = Instant::now();
        let total = t_end - t0;
        let ngroups = plan.groups.len();
        self.wstats.parallel_windows += 1;
        self.wstats.max_concurrent_lanes = self
            .wstats
            .max_concurrent_lanes
            .max(ngroups.min(pool.workers()));

        let mut shells = mem::take(&mut self.lane_shells);
        while shells.len() < ngroups {
            shells.push(LaneShell::new(&self.cfg));
        }

        // Lane-start baselines: every lane begins from the master's counter
        // values, so its end-of-window counter minus the baseline is the
        // lane's own in-window delta.
        let base_done = self.done_count;
        let base_issued = self.token.issued();

        /// What the barrier needs to know about a lane beyond the lane
        /// system itself (the group's proc/bank lists; the dir list rides
        /// along inside the lane's `wfocus`).
        struct LaneMeta {
            procs: Vec<ProcId>,
            bank_list: Vec<usize>,
        }

        let mut metas: Vec<LaneMeta> = Vec::with_capacity(ngroups);
        let mut group_logs: Vec<Vec<IntervalSeg>> = Vec::with_capacity(ngroups);
        let mut lane_busy: Vec<u64> = vec![0; ngroups];
        let mut done_total = base_done;

        // Everything between here and the end of this block holds a mutable
        // borrow of `self.hook` inside `hook_cell`, so only *disjoint field
        // accesses* on `self` are allowed (no `&mut self` method calls).
        {
            let hook_cell = Mutex::new(&mut self.hook);
            let mut lanes: Vec<TccSystem<LaneHook<'_, H>>> = Vec::with_capacity(ngroups);
            for group in plan.groups {
                let shell = &mut shells[lanes.len()];
                // Swap the group's real components into the shell's
                // placeholder slots, then move the full-size vectors into
                // the lane.
                for &i in &group.procs {
                    mem::swap(&mut self.procs[i], &mut shell.procs[i]);
                }
                for &d in &group.dir_list {
                    mem::swap(&mut self.dirs[d], &mut shell.dirs[d]);
                    mem::swap(&mut self.memory_banks[d], &mut shell.memory_banks[d]);
                }
                shell.view.clone_from(&self.view);
                shell.acct_until.clone_from(&self.acct_until);
                // The lane's interconnect is a full clone: its own banks are
                // live (and copied back at the barrier), foreign banks are
                // frozen pre-window state whose only influence is the
                // jump-split horizon, and the vendor ledger starts zeroed so
                // the barrier can fold the delta back.
                let mut net = self.net.clone();
                net.reset_vendor_stats();
                let mut lane = TccSystem {
                    cfg: self.cfg.clone(),
                    map: self.map,
                    procs: mem::take(&mut shell.procs),
                    dirs: mem::take(&mut shell.dirs),
                    token: self.token.clone(),
                    net,
                    memory_banks: mem::take(&mut shell.memory_banks),
                    hook: LaneHook { shared: &hook_cell },
                    view: mem::take(&mut shell.view),
                    intervals: mem::replace(&mut shell.intervals, IntervalTracker::new(0)),
                    now: t0,
                    workload_name: String::new(),
                    last_commit_end: self.last_commit_end,
                    tick_scratch: Vec::new(),
                    dir_scratch: mem::take(&mut shell.dir_scratch),
                    view_dirty: group.proc_set,
                    acct_until: mem::take(&mut shell.acct_until),
                    deadlines: mem::take(&mut shell.deadlines),
                    spin_mask: ProcSet::empty(),
                    state_counts: group.counts,
                    done_count: base_done,
                    fast_state_stale: false,
                    perturb_accounting: self.perturb_accounting,
                    interval_log: Some(mem::take(&mut shell.log_buf)),
                    wfocus: Some(WindowFocus {
                        dir_list: group.dir_list,
                        dirs_mask: group.dirs_mask,
                    }),
                    wstage: mem::take(&mut shell.wstage),
                    wscratch: mem::take(&mut shell.wscratch),
                    last_done_cycle: self.last_done_cycle,
                    wstats: WindowedStats::default(),
                    lane_pool: None,
                    lane_shells: Vec::new(),
                    wbackoff: 0,
                    wskip_until: 0,
                };
                // Seed the lane's event heap and spin mask from the group,
                // exactly like the sequential path.
                for &i in &group.procs {
                    let proc = &lane.procs[i];
                    if matches!(proc.phase, Phase::SpinCommit { .. }) {
                        lane.spin_mask.insert(i);
                        if let Some(d) = proc.inbox.next_delivery() {
                            lane.deadlines.push(Reverse((d, i)));
                        }
                    } else if let Some(d) = proc.next_deadline(lane.acct_until[i]) {
                        lane.deadlines.push(Reverse((d, i)));
                    }
                }
                metas.push(LaneMeta {
                    procs: group.procs,
                    bank_list: group.bank_list,
                });
                lanes.push(lane);
            }

            pool.scope(|scope| {
                for (k, (lane, busy)) in lanes.iter_mut().zip(lane_busy.iter_mut()).enumerate() {
                    scope.spawn_labeled(&format!("windowed lane {k}"), move || {
                        let start = Instant::now();
                        lane.advance_lane_window(t_end);
                        *busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    });
                }
            });

            // Disassemble the lanes in group order (so staged-message
            // appends mirror the sequential path's append order — the
            // barrier sort is stable) and fold every delta back.
            for (lane, meta) in lanes.into_iter().zip(&metas) {
                let shell = &mut shells[group_logs.len()];
                let TccSystem {
                    procs,
                    dirs,
                    memory_banks,
                    token,
                    net,
                    view,
                    mut deadlines,
                    dir_scratch,
                    acct_until,
                    intervals,
                    done_count,
                    last_commit_end,
                    interval_log,
                    wfocus,
                    mut wstage,
                    wscratch,
                    last_done_cycle,
                    ..
                } = lane;
                let focus = wfocus.expect("a lane never clears its window focus");

                // Return the full-size vectors to the shell, then swap the
                // group's (now advanced) components back into the master.
                shell.procs = procs;
                shell.dirs = dirs;
                shell.memory_banks = memory_banks;
                shell.view = view;
                shell.acct_until = acct_until;
                shell.intervals = intervals;
                deadlines.clear();
                shell.deadlines = deadlines;
                shell.dir_scratch = dir_scratch;
                shell.wscratch = wscratch;
                for &i in &meta.procs {
                    mem::swap(&mut self.procs[i], &mut shell.procs[i]);
                    self.view.proc_tx[i] = shell.view.proc_tx[i];
                    self.view.proc_gated[i] = shell.view.proc_gated[i];
                    self.acct_until[i] = shell.acct_until[i];
                }
                for &d in &focus.dir_list {
                    mem::swap(&mut self.dirs[d], &mut shell.dirs[d]);
                    mem::swap(&mut self.memory_banks[d], &mut shell.memory_banks[d]);
                    self.view.dir_marked[d] = shell.view.dir_marked[d];
                }
                for &b in &meta.bank_list {
                    self.net.copy_bank_from(&net, b);
                }
                self.net.absorb_vendor_stats(&net);
                self.token.absorb_issued(token.issued() - base_issued);
                done_total += done_count - base_done;
                self.last_commit_end = self.last_commit_end.max(last_commit_end);
                self.last_done_cycle = self.last_done_cycle.max(last_done_cycle);
                self.wstage.append(&mut wstage);
                shell.wstage = wstage;

                let log = interval_log.unwrap_or_default();
                debug_assert_eq!(log.iter().map(|s| s.cycles).sum::<u64>(), total);
                group_logs.push(log);
            }
        }

        self.done_count = done_total;
        self.wstats.lane_busy_nanos += lane_busy.iter().sum::<u64>();
        self.window_barrier(&group_logs, plan.parked, t0, t_end);

        // Hand the RLE log buffers back to their shells for reuse.
        for (shell, mut log) in shells.iter_mut().zip(group_logs) {
            log.clear();
            shell.log_buf = log;
        }
        self.lane_shells = shells;
        self.wstats.window_wall_nanos +=
            u64::try_from(window_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// The engine-state half of the window barrier, shared by the
    /// sequential and parallel paths: pick the exact end cycle, merge the
    /// per-group interval logs with the parked baseline into the real
    /// tracker, deliver the staged messages in serial push order, and jump
    /// the clock.
    fn window_barrier(
        &mut self,
        group_logs: &[Vec<IntervalSeg>],
        parked: (usize, usize, usize, usize),
        t0: Cycle,
        t_end: Cycle,
    ) {
        self.now = t0;

        // If the run completed inside this window, stop where the serial
        // engines' run loops would have stopped: the cycle right after the
        // last processor finished (every group past that point provably
        // executed nothing).
        let end = if self.done_count >= self.procs.len() {
            debug_assert!(self.last_done_cycle > t0 && self.last_done_cycle <= t_end);
            self.last_done_cycle
        } else {
            t_end
        };

        // Merge the per-group interval logs plus the parked baseline into
        // the real tracker, cycle-wise (truncated at `end`; group logs
        // always cover the full window).
        let base = IntervalSeg {
            cycles: 0,
            gated: parked.0,
            missing: parked.1,
            committing: parked.2,
            throttled: parked.3,
        };
        let mut merged: Vec<IntervalSeg> = Vec::new();
        zip_sum_segments(group_logs, base, end - t0, |seg| merged.push(seg));
        for seg in merged {
            self.intervals.record_with_throttle(
                seg.cycles,
                seg.gated,
                seg.missing,
                seg.committing,
                seg.throttled,
            );
            self.mirror_log(
                seg.cycles,
                seg.gated,
                seg.missing,
                seg.committing,
                seg.throttled,
            );
        }

        // Deliver the staged messages in the exact order a serial run would
        // have pushed them: by cycle, hook commands before processor
        // messages, then by emitter. Each emitter's messages were appended
        // in its own program order and the sort is stable, so per-inbox
        // sequence numbers come out identical to the serial run's.
        let mut stage = mem::take(&mut self.wstage);
        stage.sort_by_key(|m| (m.cycle, m.phase, m.key));
        self.wstats.staged_messages += stage.len() as u64;
        for msg in stage.drain(..) {
            debug_assert!(
                msg.deliver_at >= t_end,
                "lookahead violation: staged message delivers inside its own window"
            );
            self.procs[msg.target].inbox.push(msg.deliver_at, msg.ev);
        }
        self.wstage = stage;

        self.now = end;
        self.state_counts = (0, 0, 0, 0);
        self.fast_state_stale = true;
    }

    /// Scoped replacement for `apply_hook_commands` during a group advance:
    /// the tick sees only the group's directories, and the resulting "on"
    /// messages are routed (paying for their channel slot now, on the
    /// group's own banks) but staged for delivery at the barrier.
    pub(super) fn apply_hook_commands_scoped(&mut self) {
        let mut keyed = mem::take(&mut self.wscratch);
        keyed.clear();
        {
            let focus = self
                .wfocus
                .as_ref()
                .expect("scoped hook tick requires a window focus");
            self.hook
                .on_tick_scoped(self.now, &self.view, &focus.dirs_mask, &mut keyed);
        }
        for &(key, cmd) in &keyed {
            match cmd {
                GateCommand::UngateProcessor { proc, dir } => {
                    let route = Route {
                        src: Node::Dir(dir),
                        dst: Node::Proc(proc),
                    };
                    let arrive = self.net.request(self.now, route, BusTraffic::Control);
                    self.wstage.push(StagedMsg {
                        cycle: self.now,
                        phase: STAGE_PHASE_HOOK,
                        key: (key.0, key.1, key.2),
                        target: proc,
                        deliver_at: arrive,
                        ev: ProcEvent::TurnOn { dir },
                    });
                }
            }
        }
        self.wscratch = keyed;
    }
}
