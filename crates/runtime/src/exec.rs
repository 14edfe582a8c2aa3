//! Discrete-event execution driver.
//!
//! [`simulate`] runs a complete parallel region of a [`Workload`] on the
//! simulated chip: the master core creates tasks in program order (paying
//! dependence-management costs through the selected backend), worker cores
//! repeatedly schedule, execute and finish tasks, and every core's time is
//! attributed to the DEPS / SCHED / EXEC / IDLE phases of Figure 2. The
//! result is a [`RunReport`] from which every figure and table of the paper's
//! evaluation can be derived.
//!
//! # Streaming execution
//!
//! [`simulate_stream`] drives the same loop from a pull-based
//! [`TaskSource`] instead of a materialised task list: the master fetches
//! each task's spec only when it is about to create it, and the driver keeps
//! a spec alive only while its task is in flight. Combined with the
//! **windowed master** ([`ExecConfig::window`]) — the master creates tasks
//! only while the in-flight count is below the window, otherwise it behaves
//! like a throttled runtime system and executes tasks itself — this bounds
//! peak resident [`TaskSpec`]s by the window regardless of how many tasks
//! the stream produces, which is what makes million-task runs feasible.
//! With the default unbounded window the two paths are interchangeable:
//! driving the same workload through either produces bit-identical reports
//! (the eager-vs-streaming conformance suite pins this).
//!
//! # Entry points
//!
//! [`simulate`] and [`simulate_stream`] return a [`RunReport`];
//! [`simulate_outcome`] and [`simulate_stream_outcome`] return a typed
//! [`RunOutcome`] that can report a fault-injection abort. Checkpointing
//! ([`simulate_stream_checkpointed_outcome`]) and resuming
//! ([`resume_stream_outcome`]) exist on the streaming path only; a
//! materialised [`Workload`] goes through them wrapped in a
//! [`WorkloadSource`](crate::stream::WorkloadSource).
//!
//! ```
//! use tdm_runtime::exec::{simulate, simulate_stream, Backend, ExecConfig};
//! use tdm_runtime::scheduler::SchedulerKind;
//! use tdm_runtime::stream::WorkloadSource;
//! use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
//! use tdm_sim::clock::Cycle;
//!
//! let workload = Workload::new(
//!     "pair",
//!     vec![
//!         TaskSpec::new("a", Cycle::new(100_000), vec![DependenceSpec::output(0xA000, 64)]),
//!         TaskSpec::new("b", Cycle::new(100_000), vec![DependenceSpec::input(0xA000, 64)]),
//!     ],
//! );
//! let config = ExecConfig::default().with_window(4);
//! let eager = simulate(&workload, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
//! let mut source = WorkloadSource::new(&workload);
//! let streamed = simulate_stream(&mut source, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
//! assert_eq!(eager.makespan(), streamed.makespan());
//! // The streaming run held at most window+1 specs at once.
//! assert!(streamed.peak_resident_tasks <= 5);
//! ```
//!
//! [`TaskSpec`]: crate::task::TaskSpec

use tdm_core::config::DmuConfig;
use tdm_core::ids::DepDirection;
use tdm_sim::cache::LocalityModel;
use tdm_sim::clock::Cycle;
use tdm_sim::config::ChipConfig;
use tdm_sim::event::EventQueue;
use tdm_sim::noc::NocModel;
use tdm_sim::rng::SplitMix64;
use tdm_sim::snapshot::{self, section, Persist, Reader, Snapshot, SnapshotError};
use tdm_sim::stats::{Phase, SimStats};

use crate::cost::CostModel;
use crate::engine::{
    DependenceEngine, HardwareEngine, HardwareFlavor, HardwareReport, ReadyInfo, SoftwareEngine,
};
use crate::fast_map::FastMap;
use crate::fault::{FaultConfig, FaultPlan, FaultState};
use crate::scheduler::{FifoScheduler, ReadyEntry, Scheduler, SchedulerKind};
use crate::stream::TaskSource;
use crate::task::{TaskRef, TaskSpec, Workload};

/// The runtime-system organisations compared in the paper (Sections II and
/// VI-C).
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Pure software runtime: dependence tracking and scheduling in software.
    Software,
    /// TDM: the DMU tracks dependences, scheduling stays in software.
    Tdm(DmuConfig),
    /// Carbon: hardware ready queues (fixed FIFO), dependence tracking in
    /// software.
    Carbon,
    /// Task Superscalar: dependence tracking and scheduling both in hardware
    /// (fixed FIFO).
    TaskSuperscalar(DmuConfig),
}

impl Backend {
    /// Display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Software => "Software",
            Backend::Tdm(_) => "TDM",
            Backend::Carbon => "Carbon",
            Backend::TaskSuperscalar(_) => "TaskSuperscalar",
        }
    }

    /// True if the ready queue lives in hardware, which fixes the scheduling
    /// policy to FIFO and makes queue operations cheap.
    pub fn hardware_scheduling(&self) -> bool {
        matches!(self, Backend::Carbon | Backend::TaskSuperscalar(_))
    }

    /// Convenience constructor: TDM with the paper's selected DMU
    /// configuration.
    pub fn tdm_default() -> Backend {
        Backend::Tdm(DmuConfig::default())
    }

    /// Convenience constructor: Task Superscalar with tables sized like the
    /// default DMU (the paper compares both at 2048 in-flight entries).
    pub fn task_superscalar_default() -> Backend {
        Backend::TaskSuperscalar(DmuConfig::default())
    }

    fn build_engine(
        &self,
        cost: &CostModel,
        noc_round_trip: Cycle,
        per_op_dmu: bool,
    ) -> Box<dyn DependenceEngine> {
        let hardware = |flavor| {
            let engine =
                HardwareEngine::new(flavor, self.dmu_config(), cost.clone(), noc_round_trip);
            if per_op_dmu {
                engine.with_per_op_dmu()
            } else {
                engine
            }
        };
        match self {
            Backend::Software => Box::new(SoftwareEngine::new(cost.clone())),
            Backend::Carbon => Box::new(SoftwareEngine::with_name("carbon", cost.clone())),
            Backend::Tdm(_) => Box::new(hardware(HardwareFlavor::Tdm)),
            Backend::TaskSuperscalar(_) => Box::new(hardware(HardwareFlavor::TaskSuperscalar)),
        }
    }

    fn dmu_config(&self) -> DmuConfig {
        match self {
            Backend::Tdm(dmu) | Backend::TaskSuperscalar(dmu) => dmu.clone(),
            _ => DmuConfig::default(),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an execution-driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Simulated chip (Table I).
    pub chip: ChipConfig,
    /// Runtime-system cost model.
    pub cost: CostModel,
    /// Seed for duration jitter (deterministic per seed).
    pub seed: u64,
    /// Per-core cache capacity used by the locality model, in bytes. The
    /// default corresponds to a core's share of the L1 plus the shared L2
    /// (4 MB / 32 cores + 32 KB).
    pub locality_capacity_bytes: u64,
    /// Record the full executed schedule in [`RunReport::schedule`].
    /// Off by default: the trace costs O(tasks) memory, which large
    /// workloads should not pay. The conformance tests opt in explicitly to
    /// replay schedules against the reference graph. Tracing never affects
    /// modeled time — makespan and phase breakdowns are bit-identical either
    /// way.
    pub trace_schedule: bool,
    /// Master-thread creation window: the master creates a new task only
    /// while fewer than `window` created tasks are unfinished; at the limit
    /// it behaves like a throttled runtime system (executes tasks, retries
    /// after finishes). This models the paper's master/DMU backpressure and
    /// bounds the specs a streaming run keeps resident. The default
    /// (`usize::MAX`) never throttles, matching the classic eager driver.
    ///
    /// A window of 0 would deadlock the master before it created anything,
    /// so **0 is documented to behave exactly like 1** (one task in flight
    /// at a time): [`with_window`](ExecConfig::with_window) clamps eagerly,
    /// and the driver applies the same clamp to a directly assigned field.
    pub window: usize,
    /// Route hardware-DMU work through the one-operation-at-a-time entry
    /// points instead of the batched ones. The batched path is contractually
    /// bit-identical — same modeled accesses, costs and reports — so this
    /// knob exists only so the conformance suite can pin that contract by
    /// running both and comparing. Off (batched) by default.
    pub per_op_dmu: bool,
    /// Capture a checkpoint [`Snapshot`] every this many cycles of simulated
    /// time, when running through [`simulate_stream_checkpointed_outcome`].
    /// `None` (the default) disables periodic capture; every other entry
    /// point ignores the knob entirely. Deliberately **not** part of the
    /// resume-compatibility fingerprint: a resumed run may checkpoint on a
    /// different cadence (or not at all) — capture never affects modeled
    /// time, so the reports stay bit-identical either way (see
    /// `SNAPSHOT_FORMAT.md`).
    pub checkpoint_every: Option<Cycle>,
    /// Deterministic fault injection ([`crate::fault`]): seeded transient
    /// task failures with bounded retry, plus sticky core faults that retire
    /// a core mid-run. `None` (the default) disables injection entirely;
    /// a configuration with both rates at zero is bit-identical to `None`
    /// (fault draws are pure per-decision functions, so a rate of zero
    /// perturbs nothing). Part of the resume-compatibility fingerprint —
    /// the fault schedule is part of the run's semantics.
    pub fault: Option<FaultConfig>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let chip = ChipConfig::default();
        let locality =
            chip.memory.l1_size_bytes + chip.memory.l2_size_bytes / chip.num_cores as u64;
        ExecConfig {
            chip,
            cost: CostModel::default(),
            seed: 42,
            locality_capacity_bytes: locality,
            trace_schedule: false,
            window: usize::MAX,
            per_op_dmu: false,
            checkpoint_every: None,
            fault: None,
        }
    }
}

impl ExecConfig {
    /// Same configuration with a different core count.
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        self.chip = ChipConfig::with_cores(num_cores);
        self
    }

    /// Same configuration with schedule tracing switched on.
    pub fn with_trace_schedule(mut self) -> Self {
        self.trace_schedule = true;
        self
    }

    /// Same configuration with the master creation window set to `window`
    /// in-flight tasks.
    ///
    /// A window of 0 is clamped to 1 — the master must be allowed at least
    /// one in-flight task or it could never create anything. The driver
    /// applies the same clamp at run time, so assigning
    /// [`window`](ExecConfig::window) directly behaves identically.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Same configuration with the per-operation DMU path selected (see
    /// [`per_op_dmu`](ExecConfig::per_op_dmu)).
    pub fn with_per_op_dmu(mut self) -> Self {
        self.per_op_dmu = true;
        self
    }

    /// Same configuration with periodic checkpointing every `every` cycles
    /// (see [`checkpoint_every`](ExecConfig::checkpoint_every)). Only
    /// [`simulate_stream_checkpointed_outcome`] acts on it.
    pub fn with_checkpoint_every(mut self, every: Cycle) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Same configuration with deterministic fault injection enabled (see
    /// [`fault`](ExecConfig::fault)).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// The set of currently idle cores: O(1) insert/remove via a per-core
/// bitmap, with the lowest-numbered idle core woken first — the same wake
/// order the `BTreeSet` it replaces produced, so runs stay bit-identical.
#[derive(Debug)]
struct IdleSet {
    words: Vec<u64>,
}

impl IdleSet {
    fn new(num_cores: usize) -> Self {
        IdleSet {
            words: vec![0; num_cores.div_ceil(64)],
        }
    }

    fn insert(&mut self, core: usize) {
        self.words[core >> 6] |= 1 << (core & 63);
    }

    /// Removes `core`, returning whether it was present.
    fn remove(&mut self, core: usize) -> bool {
        let word = &mut self.words[core >> 6];
        let bit = 1u64 << (core & 63);
        let was_idle = *word & bit != 0;
        *word &= !bit;
        was_idle
    }

    /// Removes and returns the lowest-numbered idle core.
    fn pop_min(&mut self) -> Option<usize> {
        for (i, word) in self.words.iter_mut().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1; // clear the lowest set bit
                return Some((i << 6) | bit);
            }
        }
        None
    }
}

impl Persist for IdleSet {
    fn save(&self, out: &mut Vec<u8>) {
        self.words.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(IdleSet {
            words: Vec::load(r)?,
        })
    }
}

/// One completed task in the executed schedule: which task ran, on which
/// core, and the cycle at which its finish was processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTask {
    /// The task that finished.
    pub task: TaskRef,
    /// The core it executed on.
    pub core: usize,
    /// Cycle at which the finish completed (dependence-release cost
    /// included).
    pub finish: Cycle,
}

/// The outcome of one simulated execution.
///
/// Two reports compare equal only if every modeled quantity — stats, phase
/// breakdowns, hardware counters, task counts, residency peak and (when
/// traced) the executed schedule — is bit-identical; the sweep determinism
/// suite relies on this.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Backend name.
    pub backend: String,
    /// Scheduling policy actually applied (hardware backends force FIFO).
    pub scheduler: String,
    /// Per-core phase breakdowns, makespan and counters.
    pub stats: SimStats,
    /// Hardware dependence-tracker report, when the backend has one.
    pub hardware: Option<HardwareReport>,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Peak number of [`TaskSpec`]s the driver held
    /// resident at once. For an eager [`simulate`] run this is the whole
    /// workload (the caller materialised it); for a [`simulate_stream`] run
    /// it is bounded by [`ExecConfig::window`] plus one prefetched spec —
    /// the number `bench_scale` reports to show million-task runs stay in
    /// bounded memory. Checkpointed and resumed runs are streaming runs
    /// ([`simulate_stream_checkpointed_outcome`], [`resume_stream_outcome`]),
    /// so a workload replayed through a
    /// [`WorkloadSource`](crate::stream::WorkloadSource) reports the same
    /// stats as [`simulate`] and differs only in this field.
    pub peak_resident_tasks: usize,
    /// Transient task failures injected by the fault plan
    /// ([`ExecConfig::fault`]); 0 when fault injection is off.
    pub faults_injected: u64,
    /// Failed tasks re-issued to the ready pool after their modeled
    /// backoff; 0 when fault injection is off.
    pub retries: u64,
    /// Cores retired by sticky faults during the run; 0 when fault
    /// injection is off.
    pub retired_cores: u64,
    /// The executed schedule, in finish order — **empty unless
    /// [`ExecConfig::trace_schedule`] is set**, because the trace costs
    /// O(tasks) memory. Conformance tests opt in and replay this against the
    /// reference [`TaskGraph`](crate::tdg::TaskGraph) to check that the run
    /// respected every dependence and executed each task exactly once.
    pub schedule: Vec<ScheduledTask>,
}

impl RunReport {
    /// Total execution time of the parallel region.
    pub fn makespan(&self) -> Cycle {
        self.stats.makespan
    }

    /// Speedup of this run over `baseline` (ratio of makespans).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        self.stats.speedup_over(&baseline.stats)
    }

    /// Fraction of the master core's time spent in dependence management
    /// (task creation + finalization) — the per-benchmark bars of Figure 10.
    pub fn master_deps_fraction(&self) -> f64 {
        self.stats.master_breakdown().fraction(Phase::Deps)
    }

    /// Fraction of total CPU time (all cores) spent in `phase`.
    pub fn chip_fraction(&self, phase: Phase) -> f64 {
        self.stats.chip_fraction(phase)
    }

    /// The tasks in the order they finished, extracted from the schedule.
    pub fn finish_order(&self) -> Vec<TaskRef> {
        self.schedule.iter().map(|s| s.task).collect()
    }
}

/// The typed result of a run under fault injection: either the run
/// completed (every created task eventually finished) or a task exhausted
/// its retry budget and the run aborted cleanly.
///
/// An aborted run is a *result*, not a panic: the report carries every
/// phase breakdown and counter accumulated up to the abort point, with the
/// makespan covering the work done so far — a production runtime would
/// surface exactly this to its caller. Runs without fault injection can
/// never abort, which is why [`simulate`] and [`simulate_stream`] keep
/// returning a bare [`RunReport`] (and panic on an abort); every other entry
/// point returns this type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every created task finished; the report is final.
    Completed(RunReport),
    /// `task` failed `attempts` times, exceeding
    /// [`FaultConfig::retry_budget`]; the run stopped at the cycle the
    /// budget was exhausted.
    Aborted {
        /// The task whose retry budget ran out.
        task: TaskRef,
        /// Total failed attempts of that task (budget + 1).
        attempts: u32,
        /// Statistics accumulated up to the abort point.
        report: RunReport,
    },
}

impl RunOutcome {
    /// The run's report, whether it completed or aborted.
    pub fn report(&self) -> &RunReport {
        match self {
            RunOutcome::Completed(report) | RunOutcome::Aborted { report, .. } => report,
        }
    }

    /// Consumes the outcome, returning the report.
    pub fn into_report(self) -> RunReport {
        match self {
            RunOutcome::Completed(report) | RunOutcome::Aborted { report, .. } => report,
        }
    }

    /// True if the run aborted on an exhausted retry budget.
    pub fn is_aborted(&self) -> bool {
        matches!(self, RunOutcome::Aborted { .. })
    }
}

/// Unwraps a completed outcome for [`simulate`] and [`simulate_stream`],
/// which predate fault injection and cannot observe an abort (aborts require
/// [`ExecConfig::fault`], whose users call the `*_outcome` entry points).
fn completed_or_panic(outcome: RunOutcome) -> RunReport {
    match outcome {
        RunOutcome::Completed(report) => report,
        RunOutcome::Aborted { task, attempts, .. } => panic!(
            "run aborted: {task} exhausted its retry budget after {attempts} failed attempts — \
             call the *_outcome entry point to receive RunOutcome::Aborted instead"
        ),
    }
}

// ---------------------------------------------------------------------------
// Task feeds: where the driver gets its specs from
// ---------------------------------------------------------------------------

/// Driver-internal abstraction over "where task specs come from and how long
/// they stay resident". The eager feed borrows a materialised [`Workload`];
/// the stream feed pulls from a [`TaskSource`] and retains only in-flight
/// specs. Keeping the driver generic (monomorphised per feed) means the
/// eager path pays no indirection or cloning for the refactor.
trait TaskFeed {
    fn name(&self) -> &str;
    fn locality_benefit(&self) -> f64;
    fn duration_jitter(&self) -> f64;
    /// Tasks the source may still produce, if known (reporting only).
    fn len_hint(&self) -> Option<usize>;
    /// True once no task with index ≥ `next_create` will ever be available.
    fn exhausted(&self, next_create: usize) -> bool;
    /// Spec of the task about to be created. Called with consecutive indices
    /// (repeats allowed, for stalled-creation retries); must not be called
    /// when [`exhausted`](TaskFeed::exhausted) is true.
    fn fetch(&mut self, index: usize) -> &TaskSpec;
    /// Spec of an in-flight (fetched, unfinished) task.
    fn spec(&self, task: TaskRef) -> &TaskSpec;
    /// True if the spec of `task` is held: fetched and not yet released.
    fn holds(&self, task: TaskRef) -> bool;
    /// Index of the next task a fresh [`fetch`](TaskFeed::fetch) takes from
    /// the source (the number fetched so far), or `None` for a feed that
    /// serves every index at any time.
    fn cursor(&self) -> Option<usize> {
        None
    }
    /// Drops the spec of a finished task.
    fn release(&mut self, task: TaskRef);
    /// Specs currently held resident.
    fn resident(&self) -> usize;
    /// Serialises the feed's restorable state for the FEED snapshot section
    /// (first byte is the feed-kind tag), or `None` if the feed cannot be
    /// checkpointed: an eager workload, or a source that reports no
    /// [`TaskSource::checkpoint_cursor`].
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Feed-kind tag (META field 1, FEED byte 0) of the eager-workload
/// snapshots that no longer exist. Retired, never reused: it decodes to an
/// error telling the operator to regenerate the snapshot.
const FEED_EAGER_RETIRED: u8 = 0;
/// Feed-kind tag: the run was driven by a pull-based streaming source.
const FEED_STREAM: u8 = 1;

/// Checks the feed-kind tag decoded from `section`: only streaming
/// snapshots are accepted.
fn check_feed_kind(tag: u8, section: &str) -> Result<u8, SnapshotError> {
    let context = match tag {
        FEED_STREAM => return Ok(FEED_STREAM),
        FEED_EAGER_RETIRED => format!(
            "{section} carries the retired eager feed kind 0: eager-workload snapshots \
             are no longer supported — regenerate the snapshot by checkpointing the \
             workload through `WorkloadSource`"
        ),
        tag => format!("{section} carries unknown feed kind {tag}"),
    };
    Err(SnapshotError::Corrupt { context })
}

/// Feed over a fully materialised workload: specs are borrowed in place and
/// stay resident for the whole run.
struct EagerFeed<'a> {
    workload: &'a Workload,
}

impl TaskFeed for EagerFeed<'_> {
    fn name(&self) -> &str {
        &self.workload.name
    }

    fn locality_benefit(&self) -> f64 {
        self.workload.locality_benefit
    }

    fn duration_jitter(&self) -> f64 {
        self.workload.duration_jitter
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.workload.len())
    }

    fn exhausted(&self, next_create: usize) -> bool {
        next_create >= self.workload.len()
    }

    fn fetch(&mut self, index: usize) -> &TaskSpec {
        &self.workload.tasks[index]
    }

    fn spec(&self, task: TaskRef) -> &TaskSpec {
        self.workload.spec(task)
    }

    fn holds(&self, task: TaskRef) -> bool {
        task.index() < self.workload.len()
    }

    fn release(&mut self, _task: TaskRef) {}

    fn resident(&self) -> usize {
        self.workload.len()
    }
}

/// Feed over a pull-based source: holds the specs of in-flight tasks plus
/// one prefetched spec (the prefetch is what lets the driver know *before*
/// attempting a creation whether the stream has ended, so its wake-up and
/// scheduling decisions match the eager driver exactly).
struct StreamFeed<'a, S: TaskSource + ?Sized> {
    source: &'a mut S,
    /// Specs of fetched-but-unfinished tasks, keyed by task index.
    in_flight: FastMap<usize, TaskSpec>,
    /// The next spec the source produced, not yet fetched by the driver.
    peeked: Option<TaskSpec>,
    /// Index the peeked spec corresponds to.
    next_index: usize,
}

impl<'a, S: TaskSource + ?Sized> StreamFeed<'a, S> {
    fn new(source: &'a mut S) -> Self {
        let peeked = source.next_task();
        StreamFeed {
            source,
            in_flight: FastMap::default(),
            peeked,
            next_index: 0,
        }
    }

    /// Rebuilds a feed from a snapshot's FEED section: fast-forwards a
    /// *fresh* source to the stored cursor, re-pulls the prefetched spec if
    /// one was pending, and reinstates the in-flight window. Deliberately
    /// not [`new`](StreamFeed::new) — that constructor eagerly pulls the
    /// first task, which would desynchronise the cursor.
    fn restore(source: &'a mut S, payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(payload);
        check_feed_kind(u8::load(&mut r)?, "FEED")?;
        let next_index = usize::load(&mut r)?;
        let had_peek = bool::load(&mut r)?;
        let pairs = Vec::<(usize, TaskSpec)>::load(&mut r)?;
        r.expect_end("FEED")?;

        if let Some(produced) = source.checkpoint_cursor() {
            if produced != 0 {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "resume requires a freshly built source, but this one has \
                         already produced {produced} tasks"
                    ),
                });
            }
        }
        source.resume_at(next_index as u64);
        let peeked = if had_peek {
            let spec = source.next_task().ok_or_else(|| SnapshotError::Corrupt {
                context: format!(
                    "stream ended at task {next_index}, before the position the \
                     snapshot was taken at — the resuming source is shorter than \
                     the one that was checkpointed"
                ),
            })?;
            Some(spec)
        } else {
            None
        };
        let mut in_flight = FastMap::default();
        for (index, spec) in pairs {
            if index >= next_index {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "FEED lists task {index} as in flight, at or past the \
                         stream cursor {next_index}"
                    ),
                });
            }
            if in_flight.insert(index, spec).is_some() {
                return Err(SnapshotError::Corrupt {
                    context: format!("FEED lists task {index} in flight twice"),
                });
            }
        }
        Ok(StreamFeed {
            source,
            in_flight,
            peeked,
            next_index,
        })
    }
}

impl<S: TaskSource + ?Sized> TaskFeed for StreamFeed<'_, S> {
    fn name(&self) -> &str {
        self.source.name()
    }

    fn locality_benefit(&self) -> f64 {
        self.source.locality_benefit()
    }

    fn duration_jitter(&self) -> f64 {
        self.source.duration_jitter()
    }

    fn len_hint(&self) -> Option<usize> {
        self.source
            .len_hint()
            .map(|left| left + self.in_flight.len() + usize::from(self.peeked.is_some()))
    }

    fn exhausted(&self, next_create: usize) -> bool {
        // A stalled creation keeps its spec in `in_flight` without advancing
        // `next_create`, so the retry finds it there.
        self.peeked.is_none() && !self.in_flight.contains_key(&next_create)
    }

    fn fetch(&mut self, index: usize) -> &TaskSpec {
        if !self.in_flight.contains_key(&index) {
            assert_eq!(index, self.next_index, "stream fetched out of order");
            let spec = self.peeked.take().expect("fetch past end of task stream");
            self.in_flight.insert(index, spec);
            self.next_index += 1;
            self.peeked = self.source.next_task();
        }
        &self.in_flight[&index]
    }

    fn spec(&self, task: TaskRef) -> &TaskSpec {
        self.in_flight
            .get(&task.index())
            .expect("spec of a task that is not in flight")
    }

    fn holds(&self, task: TaskRef) -> bool {
        self.in_flight.contains_key(&task.index())
    }

    fn cursor(&self) -> Option<usize> {
        Some(self.next_index)
    }

    fn release(&mut self, task: TaskRef) {
        self.in_flight.remove(&task.index());
    }

    fn resident(&self) -> usize {
        self.in_flight.len() + usize::from(self.peeked.is_some())
    }

    // A streaming checkpoint stores the production cursor plus the bounded
    // in-flight window — never the unproduced remainder of the stream, so
    // snapshots stay O(window) however many tasks are still to come.
    fn save_state(&self) -> Option<Vec<u8>> {
        let cursor = self.source.checkpoint_cursor()?;
        debug_assert_eq!(
            cursor,
            self.next_index as u64 + u64::from(self.peeked.is_some()),
            "source cursor disagrees with the feed's production count"
        );
        let mut out = Vec::new();
        FEED_STREAM.save(&mut out);
        self.next_index.save(&mut out);
        self.peeked.is_some().save(&mut out);
        // In-flight specs keyed by task index, canonicalised to index order
        // (map iteration order is unobservable and must stay that way).
        let mut pairs: Vec<(usize, TaskSpec)> = self
            .in_flight
            .iter()
            .map(|(&i, spec)| (i, spec.clone()))
            .collect();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.save(&mut out);
        Some(out)
    }
}

/// Simulates `workload` on `backend` with the given scheduling policy.
///
/// Hardware-scheduled backends (Carbon, Task Superscalar) ignore `scheduler`
/// and use their fixed FIFO queue.
///
/// # Panics
///
/// Panics if the simulation deadlocks, which would indicate a bug in a
/// dependence engine (the workload graphs are acyclic by construction), or
/// if fault injection aborts the run (use [`simulate_outcome`] to receive
/// [`RunOutcome::Aborted`] instead).
pub fn simulate(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    completed_or_panic(simulate_outcome(workload, backend, scheduler, config))
}

/// Like [`simulate`], but surfaces retry-budget exhaustion as a typed
/// [`RunOutcome::Aborted`] instead of a panic. Without
/// [`ExecConfig::fault`] the outcome is always `Completed`.
///
/// # Panics
///
/// Panics on dependence-engine deadlock (see [`simulate`]).
pub fn simulate_outcome(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunOutcome {
    Driver::new(EagerFeed { workload }, backend, scheduler, config)
        .run(None)
        .expect("a run without a checkpoint sink cannot halt")
}

/// Simulates the tasks produced by `source` on `backend`, creating them
/// through the windowed master (see [`ExecConfig::window`]) and keeping only
/// in-flight specs resident.
///
/// With the default unbounded window this is observably identical to
/// collecting the stream into a [`Workload`] and calling [`simulate`] —
/// bit-identical makespans, stats and DMU access totals — while holding at
/// most the in-flight specs in memory. With a finite window the master is
/// additionally throttled, modelling runtime-system backpressure.
///
/// # Panics
///
/// Panics if the simulation deadlocks (see [`simulate`]), or if fault
/// injection aborts the run (use [`simulate_stream_outcome`]).
pub fn simulate_stream<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    completed_or_panic(simulate_stream_outcome(source, backend, scheduler, config))
}

/// Like [`simulate_stream`], but surfaces retry-budget exhaustion as a typed
/// [`RunOutcome::Aborted`] instead of a panic.
///
/// # Panics
///
/// Panics on dependence-engine deadlock (see [`simulate`]).
pub fn simulate_stream_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunOutcome {
    Driver::new(StreamFeed::new(source), backend, scheduler, config)
        .run(None)
        .expect("a run without a checkpoint sink cannot halt")
}

/// Runs `source` like [`simulate_stream_outcome`], additionally capturing a
/// [`Snapshot`] of the full mid-run state every
/// [`ExecConfig::checkpoint_every`] cycles and handing each one to `sink`.
/// This is the only checkpointing entry point: to checkpoint a materialised
/// [`Workload`], wrap it in a [`WorkloadSource`](crate::stream::WorkloadSource).
///
/// `sink` returns `true` to keep running or `false` to halt the run at that
/// checkpoint; a halted run returns `None` (the snapshot the sink just
/// received is the resume point). If `checkpoint_every` is unset the sink is
/// never called and the run completes normally. Capture never affects
/// modeled time: a checkpointed run's outcome is bit-identical to a plain
/// [`simulate_stream_outcome`] run's.
///
/// Streaming checkpoints store the source's production cursor
/// ([`TaskSource::checkpoint_cursor`]) plus the bounded in-flight window —
/// never the unproduced remainder of the stream — so snapshots stay
/// O(window) regardless of how many tasks are still to come.
///
/// # Panics
///
/// Panics if checkpointing is enabled but `source` reports no checkpoint
/// cursor, and on dependence-engine deadlock (see [`simulate`]).
pub fn simulate_stream_checkpointed_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    sink: &mut dyn FnMut(Snapshot) -> bool,
) -> Option<RunOutcome> {
    assert!(
        config.checkpoint_every.is_none() || source.checkpoint_cursor().is_some(),
        "cannot checkpoint source {:?}: TaskSource::checkpoint_cursor returned None",
        source.name()
    );
    let ctl = config.checkpoint_every.map(|every| CheckpointCtl {
        every,
        next_at: every,
        sink,
    });
    Driver::new(StreamFeed::new(source), backend, scheduler, config).run(ctl)
}

/// Resumes a checkpointed run from `snapshot`, driving it to completion.
/// This is the only resume entry point.
///
/// `source` must be a *freshly built* instance of the stream the
/// checkpointed run was consuming: it is fast-forwarded to the snapshot's
/// production cursor via [`TaskSource::resume_at`], so the stream is
/// regenerated rather than stored. `config` must match what the
/// checkpointed run used: the snapshot's META section carries the run
/// identity and a configuration fingerprint, both validated before any
/// state is reinstated, and the backend and scheduler are rebuilt from it —
/// a snapshot can never be resumed under different semantics than it was
/// taken under. Resuming is bit-exact: the returned [`RunOutcome`] is
/// identical to the outcome of an uninterrupted run (the snapshot
/// conformance suite pins this across the full backend × scheduler matrix).
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] naming the cause when the snapshot does not
/// fit `source` or `config`, is internally inconsistent, or carries the
/// retired eager feed kind.
///
/// # Panics
///
/// Panics on dependence-engine deadlock (see [`simulate`]).
pub fn resume_stream_outcome<S: TaskSource + ?Sized>(
    source: &mut S,
    snapshot: &Snapshot,
    config: &ExecConfig,
) -> Result<RunOutcome, SnapshotError> {
    let meta = RunMeta::from_snapshot(snapshot)?;
    meta.validate(source.name(), config)?;
    let feed = StreamFeed::restore(source, snapshot.section(section::FEED)?)?;
    let mut driver = Driver::new(feed, &meta.backend, meta.scheduler, config);
    driver.restore(snapshot)?;
    Ok(driver
        .run(None)
        .expect("resumed runs have no checkpoint sink and cannot halt"))
}

/// Timing-wheel payload marking a retry dispatch instead of a core event.
/// Scheduled at each failed task's backoff due time; on firing, every due
/// entry of the retry queue is re-issued to the scheduling pool. No real
/// core can carry this id (cores are `0..num_cores`).
const RETRY_EVENT: usize = usize::MAX;

/// The core that creates tasks; every other core only executes them.
const MASTER: usize = 0;

/// A task in flight on a core, carrying the successor count its
/// [`ReadyEntry`] arrived with so a faulted task can be re-issued under the
/// exact same scheduling inputs (the Successor policy orders by it).
#[derive(Clone, Copy)]
struct RunningTask {
    task: TaskRef,
    num_successors: u32,
}

impl Persist for RunningTask {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.num_successors.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RunningTask {
            task: TaskRef::load(r)?,
            num_successors: u32::load(r)?,
        })
    }
}

/// The driver's own run state: everything the DRIVER snapshot section
/// holds. The other subsystems (engine, pool, statistics, locality, events,
/// faults) persist through their own sections.
struct DriverState {
    /// The task each core is executing, if any.
    running: Vec<Option<RunningTask>>,
    /// The cycle each idle core went idle at.
    idle_since: Vec<Option<Cycle>>,
    idle_set: IdleSet,
    /// Index of the next task the master creates.
    next_create: usize,
    finished: usize,
    /// High-water mark of resident specs (in flight plus one prefetched).
    peak_resident: usize,
    makespan: Cycle,
    /// True while the master is held back from creating — either the last
    /// creation attempt stalled on a full DMU structure, or the in-flight
    /// count reached the configured window. The master then behaves as a
    /// worker (runtime-system throttling) and retries after tasks finish.
    master_throttled: bool,
}

impl DriverState {
    fn new(num_cores: usize, peak_resident: usize) -> Self {
        DriverState {
            running: vec![None; num_cores],
            idle_since: vec![None; num_cores],
            idle_set: IdleSet::new(num_cores),
            next_create: 0,
            finished: 0,
            peak_resident,
            makespan: Cycle::ZERO,
            master_throttled: false,
        }
    }

    /// Rejects a decoded DRIVER section that does not fit a `num_cores` run
    /// or disagrees with the restored `feed` and engine: the feed's cursor
    /// must sit at `next_create`, or one past it when the engine's `stalled`
    /// creation is `next_create` and the feed holds it in flight, and every
    /// running task must be created, unfinished, held by the feed and
    /// running on one core only.
    fn check(
        &self,
        num_cores: usize,
        feed: &impl TaskFeed,
        stalled: Option<TaskRef>,
    ) -> Result<(), SnapshotError> {
        same("DRIVER running cores", self.running.len(), num_cores)?;
        same("DRIVER idle_since cores", self.idle_since.len(), num_cores)?;
        let words = IdleSet::new(num_cores).words.len();
        same("DRIVER idle-set words", self.idle_set.words.len(), words)?;
        let (created, finished) = (self.next_create, self.finished);
        if finished > created {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "DRIVER records {finished} finished tasks but only {created} created"
                ),
            });
        }
        // A stalled creation has fetched its spec but not advanced
        // `next_create`.
        let resumes = stalled == Some(TaskRef(created));
        let corrupt = |context: String| Err(SnapshotError::Corrupt { context });
        if let Some(cursor) = feed.cursor() {
            if cursor != created + usize::from(resumes) {
                return corrupt(format!(
                    "DRIVER creates task {created} next but FEED has fetched {cursor} tasks"
                ));
            }
        }
        if let Some(task) = stalled {
            if !resumes {
                return corrupt(format!(
                    "ENGINE resumes the creation of {task}, but DRIVER creates task {created}"
                ));
            }
            if !feed.holds(task) {
                return corrupt(format!(
                    "DRIVER resumes the creation of {task}, but FEED does not hold it"
                ));
            }
        }
        let mut tasks: Vec<TaskRef> = self.running.iter().flatten().map(|rt| rt.task).collect();
        tasks.sort_unstable();
        for (i, &task) in tasks.iter().enumerate() {
            let context = if task.index() >= created || !feed.holds(task) {
                format!("DRIVER runs {task} on a core, but FEED does not hold it in flight")
            } else if tasks.get(i + 1) == Some(&task) {
                format!("DRIVER runs {task} on two cores")
            } else {
                continue;
            };
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(())
    }
}

impl Persist for DriverState {
    fn save(&self, out: &mut Vec<u8>) {
        self.running.save(out);
        self.idle_since.save(out);
        self.idle_set.save(out);
        self.next_create.save(out);
        self.finished.save(out);
        self.peak_resident.save(out);
        self.makespan.save(out);
        self.master_throttled.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DriverState {
            running: Vec::load(r)?,
            idle_since: Vec::load(r)?,
            idle_set: IdleSet::load(r)?,
            next_create: usize::load(r)?,
            finished: usize::load(r)?,
            peak_resident: usize::load(r)?,
            makespan: Cycle::load(r)?,
            master_throttled: bool::load(r)?,
        })
    }
}

/// What the master core does in Phase 2 of the current batch, decided while
/// the batch's engine work is issued ([`Driver::engine_pass`]) and replayed
/// with the driver bookkeeping ([`Driver::bookkeep`]).
#[derive(Clone, Copy)]
enum MasterPlan {
    /// No creation attempt this batch (master absent, throttled, or the feed
    /// is exhausted): plain worker behaviour.
    None,
    /// The in-flight window is full: mark the master throttled, then worker
    /// behaviour.
    Throttle,
    /// A creation was attempted; the tasks it readied are in the create
    /// buffer.
    Created { cost: Cycle, completed: bool },
}

/// Per-batch scratch, reused across cycles and empty between batches: the
/// tasks finishing this cycle in event order (paired with their core), the
/// per-finish costs, the tasks those finishes readied (with per-finish
/// `[start, end)` spans into the shared buffer), the tasks the master's
/// creation attempt readied, and the injected failures. Kept apart from the
/// [`Driver`] so Pass B can read a finish's ready span while it mutates the
/// pool and the statistics.
#[derive(Default)]
struct Batch {
    fin_tasks: Vec<(TaskRef, usize)>,
    fin_costs: Vec<Cycle>,
    fin_spans: Vec<(usize, usize)>,
    fin_ready: Vec<ReadyInfo>,
    create_ready: Vec<ReadyInfo>,
    /// Injected failures in event order: the failing task (with the
    /// successor count its re-issue must carry), the core it failed on, and
    /// the engine's failure-path cost.
    fail_events: Vec<(RunningTask, usize, Cycle)>,
    /// Pass B's cursors into `fin_tasks` and `fail_events`.
    next_fin: usize,
    next_fail: usize,
}

impl Batch {
    fn clear(&mut self) {
        self.fin_tasks.clear();
        self.fin_costs.clear();
        self.fin_spans.clear();
        self.fin_ready.clear();
        self.create_ready.clear();
        self.fail_events.clear();
        self.next_fin = 0;
        self.next_fail = 0;
    }
}

/// Periodic capture control handed to [`Driver::run`]: when simulated time
/// reaches `next_at`, the driver assembles a [`Snapshot`] and hands it to
/// `sink`; a `false` return halts the run
/// ([`simulate_stream_checkpointed_outcome`] then returns `None`).
struct CheckpointCtl<'a> {
    every: Cycle,
    next_at: Cycle,
    sink: &'a mut dyn FnMut(Snapshot) -> bool,
}

/// The discrete-event loop shared by every entry point: plain
/// ([`simulate`] / [`simulate_stream`]), checkpointed and resumed
/// ([`Driver::restore`]). One method per phase of a batch; the fields are
/// the long-lived run state, each subsystem persisted in its own snapshot
/// section.
struct Driver<'a, F: TaskFeed> {
    feed: F,
    backend: &'a Backend,
    scheduler: SchedulerKind,
    config: &'a ExecConfig,
    /// The creation window, with 0 clamped to 1.
    window: usize,
    engine: Box<dyn DependenceEngine>,
    pool: Box<dyn Scheduler>,
    push_cost: Cycle,
    pick_cost: Cycle,
    locality_benefit: f64,
    duration_jitter: f64,
    stats: SimStats,
    locality: LocalityModel,
    events: EventQueue<usize>,
    /// Fault injection: the plan is a pure function of the run seed and the
    /// fault configuration (dedicated stream, so fault draws never perturb
    /// duration jitter), the state is the mutable bookkeeping. Completion
    /// boundaries are counted even with faults disabled so the FAULT
    /// snapshot section — and therefore whole snapshots — are bit-identical
    /// between `fault: None` and an all-zero-rate config.
    fault_plan: Option<FaultPlan>,
    fault_state: FaultState,
    schedule: Vec<ScheduledTask>,
    state: DriverState,
    /// First task to exhaust its retry budget (with its final failure
    /// count): the run halts at the end of that batch and reports
    /// `RunOutcome::Aborted` instead of completing.
    aborted: Option<(TaskRef, u32)>,
    /// The `(addr, size)` blocks of the task being dispatched, refilled for
    /// the locality probe and the read and write records.
    blocks: Vec<(u64, u64)>,
}

impl<'a, F: TaskFeed> Driver<'a, F> {
    /// A driver at cycle 0 with every core's first event queued.
    fn new(
        feed: F,
        backend: &'a Backend,
        scheduler: SchedulerKind,
        config: &'a ExecConfig,
    ) -> Self {
        let num_cores = config.chip.num_cores;
        let noc_round_trip = NocModel::from_chip(&config.chip).average_round_trip();
        let (pool, push_cost, pick_cost): (Box<dyn Scheduler>, _, _) =
            if backend.hardware_scheduling() {
                let op = config.cost.hw_queue_op;
                (Box::new(FifoScheduler::new()), op, op)
            } else {
                let cost = &config.cost;
                (scheduler.build(), cost.sw_sched_push, cost.sw_sched_pick)
            };
        let mut events = EventQueue::new();
        for core in 0..num_cores {
            events.schedule(Cycle::ZERO, core);
        }
        let fault_plan = config
            .fault
            .clone()
            .map(|fc| FaultPlan::new(config.seed, fc));
        let schedule = if config.trace_schedule {
            Vec::with_capacity(feed.len_hint().unwrap_or(0))
        } else {
            Vec::new()
        };
        Driver {
            backend,
            scheduler,
            config,
            window: config.window.max(1),
            engine: backend.build_engine(&config.cost, noc_round_trip, config.per_op_dmu),
            pool,
            push_cost,
            pick_cost,
            locality_benefit: feed.locality_benefit(),
            duration_jitter: feed.duration_jitter(),
            stats: SimStats::new(num_cores, MASTER),
            locality: LocalityModel::new(num_cores, config.locality_capacity_bytes.max(1)),
            events,
            fault_plan,
            fault_state: FaultState::new(num_cores),
            schedule,
            state: DriverState::new(num_cores, feed.resident()),
            aborted: None,
            blocks: Vec::new(),
            feed,
        }
    }

    /// Reinstates the mutable run state section by section. META (identity
    /// and configuration fingerprint) was already validated by the resume
    /// entry point, and the feed was rebuilt from FEED; the restored timing
    /// wheel replaces the initial per-core events, since it already holds
    /// the pending events of the interrupted run.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let num_cores = self.config.chip.num_cores;
        self.stats = snapshot::from_payload(snap.section(section::STATS)?, "STATS")?;
        same("STATS cores", self.stats.cores.len(), num_cores)?;
        same("STATS master core", self.stats.master, MASTER)?;
        self.locality = snapshot::from_payload(snap.section(section::LOCALITY)?, "LOCALITY")?;
        same("LOCALITY cores", self.locality.num_cores(), num_cores)?;
        self.events = snapshot::from_payload(snap.section(section::EVENTS)?, "EVENTS")?;
        let mut r = Reader::new(snap.section(section::SCHEDULER)?);
        self.pool.load_state(&mut r)?;
        r.expect_end("SCHEDULER")?;
        let mut r = Reader::new(snap.section(section::ENGINE)?);
        self.engine.load_state(&mut r)?;
        r.expect_end("ENGINE")?;
        self.state = snapshot::from_payload(snap.section(section::DRIVER)?, "DRIVER")?;
        self.state
            .check(num_cores, &self.feed, self.engine.stalled_creation())?;
        self.fault_state = snapshot::from_payload(snap.section(section::FAULT)?, "FAULT")?;
        same("FAULT cores", self.fault_state.num_cores(), num_cores)?;
        if self.config.trace_schedule {
            self.schedule = snapshot::from_payload(snap.section(section::TRACE)?, "TRACE")?;
        }
        Ok(())
    }

    /// Assembles the complete run state into a [`Snapshot`], one section per
    /// subsystem (the registry in [`tdm_sim::snapshot::SECTIONS`] and the
    /// layout in `SNAPSHOT_FORMAT.md` describe each). Pure read: capture
    /// never mutates the run, so checkpointed and plain runs stay
    /// bit-identical.
    fn capture(&self) -> Snapshot {
        let config = self.config;
        let feed_state = self
            .feed
            .save_state()
            .expect("checkpointing requires a source with a checkpoint cursor");
        let meta = RunMeta {
            feed_kind: feed_state[0],
            workload: self.feed.name().to_string(),
            backend: self.backend.clone(),
            scheduler: self.scheduler,
            num_cores: config.chip.num_cores as u64,
            seed: config.seed,
            locality_capacity_bytes: config.locality_capacity_bytes,
            trace_schedule: config.trace_schedule,
            window: config.window as u64,
            per_op_dmu: config.per_op_dmu,
            cost_hash: debug_hash(&config.cost),
            chip_hash: debug_hash(&config.chip),
            fault_hash: debug_hash(&config.fault),
        };
        let mut sched_state = Vec::new();
        self.pool.save_state(&mut sched_state);
        let mut engine_state = Vec::new();
        self.engine.save_state(&mut engine_state);

        let mut snap = Snapshot::new();
        snap.add_section(section::META, snapshot::to_payload(&meta));
        snap.add_section(section::DRIVER, snapshot::to_payload(&self.state));
        snap.add_section(section::EVENTS, snapshot::to_payload(&self.events));
        snap.add_section(section::STATS, snapshot::to_payload(&self.stats));
        snap.add_section(section::LOCALITY, snapshot::to_payload(&self.locality));
        snap.add_section(section::SCHEDULER, sched_state);
        snap.add_section(section::ENGINE, engine_state);
        snap.add_section(section::FEED, feed_state);
        snap.add_section(section::FAULT, snapshot::to_payload(&self.fault_state));
        if config.trace_schedule {
            snap.add_section(section::TRACE, snapshot::to_payload(&self.schedule));
        }
        snap
    }

    /// Runs the event loop to completion, capturing a checkpoint whenever
    /// `checkpoint` says one is due. Returns `None` when the checkpoint sink
    /// halted the run.
    ///
    /// Batched same-cycle delivery: every event of the current cycle is
    /// drained from the timing wheel in one operation (a single occupancy
    /// scan + bucket detach) and processed in FIFO order, instead of paying
    /// a queue pop per event. Events scheduled *for the same cycle* while
    /// the batch runs are picked up by the next `pop_batch` — exactly the
    /// position serial pops would have delivered them in (behind everything
    /// already pending), so the executed timeline is bit-identical to the
    /// one-pop-at-a-time loop this replaces.
    fn run(mut self, mut checkpoint: Option<CheckpointCtl<'_>>) -> Option<RunOutcome> {
        let mut cores: Vec<usize> = Vec::new();
        let mut batch = Batch::default();
        while let Some(now) = self.events.pop_batch(&mut cores) {
            let plan = self.engine_pass(now, &cores, &mut batch);
            for &core in &cores {
                self.bookkeep(now, core, plan, &mut batch);
            }

            // Retry-budget exhaustion: the rest of the batch was processed
            // normally (its bookkeeping is already committed), but no further
            // cycle runs and no checkpoint is taken at the abort point.
            if self.aborted.is_some() {
                break;
            }

            // Periodic checkpoint capture. The bottom of the batch is the one
            // point where no per-batch scratch is live — the batch buffers
            // and the master plan have all been consumed — so the full run
            // state is exactly the driver's fields.
            if let Some(ctl) = checkpoint.as_mut() {
                if now >= ctl.next_at {
                    ctl.next_at = now + ctl.every;
                    if !(ctl.sink)(self.capture()) {
                        return None;
                    }
                }
            }
        }
        Some(self.into_outcome())
    }

    /// Pass A: every engine call of this batch, issued in event order.
    ///
    /// The engine sees exactly the operation sequence the per-event loop
    /// would issue — finishes of cores up to and including the master, the
    /// master's creation attempt, then the remaining finishes — but the
    /// finish runs go through `finish_batch`, which amortises per-call work
    /// across the whole cycle. Engine calls never read the scheduler pool,
    /// the idle set or the event queue, and the driver bookkeeping replayed
    /// in Pass B never touches the engine, so the two-pass split is
    /// observably identical to the interleaved loop it replaces (the per-op
    /// conformance suite pins this).
    fn engine_pass(&mut self, now: Cycle, cores: &[usize], batch: &mut Batch) -> MasterPlan {
        batch.clear();
        let Some(master_pos) = cores.iter().position(|&c| c == MASTER) else {
            self.complete_all(now, cores, batch);
            return MasterPlan::None;
        };
        let (up_to_master, after_master) = cores.split_at(master_pos + 1);
        self.complete_all(now, up_to_master, batch);

        // The master's creation decision, evaluated against the state it
        // observes mid-batch: finishes processed before its event reset the
        // throttle and shrink the in-flight window.
        let first_run = batch.fin_tasks.len();
        let state = &mut self.state;
        let mut plan = MasterPlan::None;
        let throttled_mid = state.master_throttled && first_run == 0;
        if !throttled_mid && !self.feed.exhausted(state.next_create) {
            if state.next_create - (state.finished + first_run) >= self.window {
                plan = MasterPlan::Throttle;
            } else {
                // The cycle the master reaches its creation attempt at: its
                // own finish cost plus one push per task that finish readied
                // — or, if its own task failed this batch, the
                // failure-detection path (engine failure cost plus detection
                // latency) instead.
                let mut t_master = now;
                let master_fail = batch.fail_events.iter().find(|f| f.1 == MASTER);
                if let (Some(&(_, _, cost)), Some(fault)) = (master_fail, &self.fault_plan) {
                    t_master = now + cost + fault.config().detect_cost;
                } else if let Some(&(_, MASTER)) = batch.fin_tasks.last() {
                    let (start, end) = batch.fin_spans[first_run - 1];
                    t_master = now
                        + batch.fin_costs[first_run - 1]
                        + self.push_cost.scaled((end - start) as u64);
                }
                let task = TaskRef(state.next_create);
                let spec = self.feed.fetch(state.next_create);
                let outcome =
                    self.engine
                        .create_task(t_master, task, spec, &mut batch.create_ready);
                state.peak_resident = state.peak_resident.max(self.feed.resident());
                plan = MasterPlan::Created {
                    cost: outcome.cost,
                    completed: outcome.completed,
                };
            }
        }
        self.complete_all(now, after_master, batch);
        plan
    }

    /// The completion boundary of every core in `cores` that is running a
    /// task: a transient failure (the result is lost and the task must
    /// re-run) joins the batch's failures, a success its finishes, which are
    /// then issued to the engine in one `finish_batch`. Sticky core
    /// retirement is drawn at the same boundary. Both draws are pure,
    /// keyed on stable identities, so the decisions are identical across
    /// backends, schedulers and resume.
    fn complete_all(&mut self, now: Cycle, cores: &[usize], batch: &mut Batch) {
        let before = batch.fin_tasks.len();
        for &core in cores {
            if core == RETRY_EVENT {
                continue;
            }
            let Some(rt) = self.state.running[core].take() else {
                continue;
            };
            let plan = self.fault_plan.as_ref();
            if self
                .fault_state
                .complete(plan, rt.task, core, core != MASTER)
            {
                let cost = self.engine.fail_task(now, rt.task, core);
                batch.fail_events.push((rt, core, cost));
            } else {
                batch.fin_tasks.push((rt.task, core));
            }
        }
        self.engine.finish_batch(
            now,
            &batch.fin_tasks[before..],
            &mut batch.fin_costs,
            &mut batch.fin_ready,
            &mut batch.fin_spans,
        );
        for &(task, _) in &batch.fin_tasks[before..] {
            self.feed.release(task);
        }
    }

    /// Pass B: the driver bookkeeping of one event of the batch, replayed
    /// in batch order.
    fn bookkeep(&mut self, now: Cycle, core: usize, plan: MasterPlan, batch: &mut Batch) {
        if core == RETRY_EVENT {
            self.dispatch_retries(now);
            return;
        }
        let mut t = now;

        // Phase 0b: the injected failure this core contributed, if any. The
        // task never finished: dependents stay blocked, the window stays
        // occupied and the master throttle is NOT reset. The core pays the
        // engine's failure path plus fault-detection latency, then the task
        // is queued for re-issue after a linear backoff — or, past the
        // retry budget, the run aborts at the end of this batch.
        let failed = batch
            .fail_events
            .get(batch.next_fail)
            .filter(|f| f.1 == core);
        if let Some(&(rt, _, engine_cost)) = failed {
            batch.next_fail += 1;
            let plan = self
                .fault_plan
                .as_ref()
                .expect("failures are only injected when a fault plan exists");
            let cost = engine_cost + plan.config().detect_cost;
            self.stats.cores[core].add(Phase::Deps, cost);
            t += cost;
            self.state.makespan = self.state.makespan.max(t);
            let count = self.fault_state.record_failure(rt.task);
            if count > plan.config().retry_budget {
                self.aborted.get_or_insert((rt.task, count));
            } else {
                let due = t + plan.backoff_delay(count);
                self.fault_state.push_retry(due, rt.task, rt.num_successors);
                self.events.schedule(due, RETRY_EVENT);
            }
        }

        // Phase 1: the finish this core contributed to the batch, if any.
        let fin = batch.fin_tasks.get(batch.next_fin).filter(|f| f.1 == core);
        if let Some(&(task, _)) = fin {
            let fin_cost = batch.fin_costs[batch.next_fin];
            let (start, end) = batch.fin_spans[batch.next_fin];
            batch.next_fin += 1;
            // Any finish releases DMU resources and shrinks the in-flight
            // window, so a throttled master may retry creation at its next
            // opportunity.
            self.state.master_throttled = false;
            self.stats.cores[core].add(Phase::Deps, fin_cost);
            t += fin_cost;
            self.state.finished += 1;
            if self.config.trace_schedule {
                self.schedule.push(ScheduledTask {
                    task,
                    core,
                    finish: t,
                });
            }
            self.state.makespan = self.state.makespan.max(t);
            t = self.push_ready(&batch.fin_ready[start..end], Some(core), core, t);

            // The finish freed DMU resources (and may have readied tasks):
            // make sure a throttled or idle master gets a chance to resume
            // creation.
            if core != MASTER
                && !self.feed.exhausted(self.state.next_create)
                && self.state.idle_set.remove(MASTER)
            {
                self.events.schedule(t, MASTER);
            }
        }

        // Phase 2: the master's creation attempt, decided in Pass A.
        //
        // When a creation attempt stalls on a full DMU structure, or the
        // in-flight count reaches the configured window, the master does not
        // busy-wait: like a throttled runtime system it falls through to the
        // worker path, executes a task (or goes idle) and retries creation
        // after the next finish.
        if core == MASTER {
            match plan {
                MasterPlan::None => {}
                MasterPlan::Throttle => self.state.master_throttled = true,
                MasterPlan::Created { cost, completed } => {
                    self.stats.cores[MASTER].add(Phase::Deps, cost);
                    t += cost;
                    t = self.push_ready(&batch.create_ready, None, MASTER, t);
                    if completed {
                        self.state.next_create += 1;
                        self.events.schedule(t, MASTER);
                        return;
                    }
                    self.state.master_throttled = true;
                }
            }
        }

        // Phase 3: worker behaviour — schedule and execute a ready task.
        if self.feed.exhausted(self.state.next_create)
            && self.state.finished >= self.state.next_create
        {
            return;
        }
        // A retired core never takes new work and never joins the idle set
        // (it cannot be woken). If ready work is pending, hand the wake-up to
        // an idle survivor so the pool is never stranded on a core that just
        // died.
        if self.fault_state.is_retired(core) {
            if !self.pool.is_empty() {
                if let Some(idle_core) = self.state.idle_set.pop_min() {
                    self.events.schedule(t, idle_core);
                }
            }
            return;
        }
        self.dispatch(core, t);
    }

    /// Phase 0: retry dispatch. A sentinel event re-issues every due entry
    /// of the retry queue to the scheduling pool, in insertion order, and
    /// wakes idle cores to pick them up. Re-issue itself is modeled free:
    /// the retry watchdog runs off the critical path, and the backoff delay
    /// already charged the latency.
    fn dispatch_retries(&mut self, now: Cycle) {
        let pool = &mut self.pool;
        let dispatched = self.fault_state.drain_due(now, |task, num_successors| {
            pool.push(ReadyEntry {
                task,
                num_successors,
                creation_seq: task.index(),
                ready_at: now,
                producer_core: None,
            });
        });
        self.wake_idle(dispatched, now);
    }

    /// Phase 3: `core` picks a ready task at cycle `t` and executes it, or
    /// goes idle when the pool is empty.
    fn dispatch(&mut self, core: usize, mut t: Cycle) {
        let Some(entry) = self.pool.pop(core) else {
            self.state.idle_since[core].get_or_insert(t);
            self.state.idle_set.insert(core);
            return;
        };
        if let Some(since) = self.state.idle_since[core].take() {
            self.stats.cores[core].add(Phase::Idle, t.saturating_sub(since));
        }
        self.state.idle_set.remove(core);
        self.stats.cores[core].add(Phase::Sched, self.pick_cost);
        t += self.pick_cost;

        let jitter = self.jitter(entry.task);
        let spec = self.feed.spec(entry.task);
        let blocks = &mut self.blocks;
        blocks.clear();
        blocks.extend(spec.blocks(|_| true));
        let hit_fraction = self.locality.probe(core, blocks).hit_fraction();
        let locality_factor = 1.0 - self.locality_benefit * hit_fraction;
        let duration = spec.duration.scaled_f64(locality_factor * jitter);
        blocks.clear();
        blocks.extend(spec.blocks(DepDirection::reads));
        self.locality.record_reads(core, blocks);
        blocks.clear();
        blocks.extend(spec.blocks(DepDirection::writes));
        self.locality.record_writes(core, blocks);

        self.stats.cores[core].add(Phase::Exec, duration);
        self.state.running[core] = Some(RunningTask {
            task: entry.task,
            num_successors: entry.num_successors,
        });
        self.events.schedule(t + duration, core);
    }

    /// Deterministic per-task duration jitter: the same task gets the same
    /// duration regardless of scheduler or backend, so comparisons are fair.
    fn jitter(&self, task: TaskRef) -> f64 {
        if self.duration_jitter == 0.0 {
            return 1.0;
        }
        let seed = self.config.seed ^ (task.index() as u64).wrapping_mul(0x9E37);
        SplitMix64::new(seed).jitter(self.duration_jitter)
    }

    /// Pushes newly ready tasks into the scheduling pool, charging
    /// `pushing_core` one push each from cycle `t`, and wakes idle cores to
    /// pick them up. Returns the cycle the pushes end at.
    fn push_ready(
        &mut self,
        ready: &[ReadyInfo],
        producer_core: Option<usize>,
        pushing_core: usize,
        mut t: Cycle,
    ) -> Cycle {
        for info in ready {
            self.stats.cores[pushing_core].add(Phase::Sched, self.push_cost);
            t += self.push_cost;
            self.pool.push(ReadyEntry {
                task: info.task,
                num_successors: info.num_successors,
                creation_seq: info.task.index(),
                ready_at: t,
                producer_core,
            });
        }
        self.wake_idle(ready.len(), t);
        t
    }

    /// Wakes up to `count` idle cores at cycle `t`, lowest-numbered first.
    fn wake_idle(&mut self, count: usize, t: Cycle) {
        for _ in 0..count {
            let Some(idle_core) = self.state.idle_set.pop_min() else {
                break;
            };
            self.events.schedule(t, idle_core);
        }
    }

    /// The run's outcome once the event loop has drained or aborted.
    ///
    /// # Panics
    ///
    /// Panics if the loop drained with created tasks unfinished or the feed
    /// not exhausted: a dependence-engine deadlock.
    fn into_outcome(self) -> RunOutcome {
        let (next_create, finished) = (self.state.next_create, self.state.finished);
        assert!(
            self.aborted.is_some() || (self.feed.exhausted(next_create) && finished == next_create),
            "simulation ended with {finished} of {next_create} created tasks finished \
             (stream exhausted: {}) — dependence engine deadlock",
            self.feed.exhausted(next_create)
        );

        let mut stats = self.stats;
        stats.makespan = self.state.makespan;
        stats.tasks_executed = finished as u64;
        let hardware = self.engine.hardware_report();
        if let Some(hw) = &hardware {
            stats.dmu_stall_cycles = hw.stall_cycles;
            stats.dmu_instructions = hw.instructions;
        }
        stats.normalize_to_makespan();

        let scheduler = if self.backend.hardware_scheduling() {
            "HW-FIFO"
        } else {
            self.scheduler.name()
        };
        let report = RunReport {
            workload: self.feed.name().to_string(),
            backend: self.backend.name().to_string(),
            scheduler: scheduler.to_string(),
            stats,
            hardware,
            tasks: finished as u64,
            peak_resident_tasks: self.state.peak_resident,
            faults_injected: self.fault_state.faults_injected,
            retries: self.fault_state.retries,
            retired_cores: self.fault_state.retired_cores(),
            schedule: self.schedule,
        };
        match self.aborted {
            Some((task, attempts)) => RunOutcome::Aborted {
                task,
                attempts,
                report,
            },
            None => RunOutcome::Completed(report),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot support: run identity, configuration fingerprint, Persist impls
// ---------------------------------------------------------------------------

impl Persist for Backend {
    fn save(&self, out: &mut Vec<u8>) {
        match self {
            Backend::Software => 0u8.save(out),
            Backend::Tdm(dmu) => {
                1u8.save(out);
                dmu.save(out);
            }
            Backend::Carbon => 2u8.save(out),
            Backend::TaskSuperscalar(dmu) => {
                3u8.save(out);
                dmu.save(out);
            }
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::load(r)? {
            0 => Backend::Software,
            1 => Backend::Tdm(DmuConfig::load(r)?),
            2 => Backend::Carbon,
            3 => Backend::TaskSuperscalar(DmuConfig::load(r)?),
            tag => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown backend tag {tag}"),
                })
            }
        })
    }
}

impl Persist for ScheduledTask {
    fn save(&self, out: &mut Vec<u8>) {
        self.task.save(out);
        self.core.save(out);
        self.finish.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ScheduledTask {
            task: TaskRef::load(r)?,
            core: usize::load(r)?,
            finish: Cycle::load(r)?,
        })
    }
}

/// FNV-1a over the `Debug` rendering of a config sub-structure: a compact
/// compatibility fingerprint for the cost model and chip description. Every
/// field of both feeds modeled time, so any difference must fail resume; a
/// collision is astronomically unlikely, and the cost of a detected mismatch
/// is a clear error rather than silent divergence.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The META section: the run's identity (what is being simulated, on what)
/// plus the configuration fingerprint that gates resume. The backend and
/// scheduler are *rebuilt from here* on resume — they are not caller inputs
/// — so a snapshot can never be resumed under different semantics.
struct RunMeta {
    feed_kind: u8,
    workload: String,
    backend: Backend,
    scheduler: SchedulerKind,
    num_cores: u64,
    seed: u64,
    locality_capacity_bytes: u64,
    trace_schedule: bool,
    window: u64,
    per_op_dmu: bool,
    cost_hash: u64,
    chip_hash: u64,
    fault_hash: u64,
}

impl Persist for RunMeta {
    fn save(&self, out: &mut Vec<u8>) {
        self.feed_kind.save(out);
        self.workload.save(out);
        self.backend.save(out);
        self.scheduler.save(out);
        self.num_cores.save(out);
        self.seed.save(out);
        self.locality_capacity_bytes.save(out);
        self.trace_schedule.save(out);
        self.window.save(out);
        self.per_op_dmu.save(out);
        self.cost_hash.save(out);
        self.chip_hash.save(out);
        self.fault_hash.save(out);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(RunMeta {
            feed_kind: check_feed_kind(u8::load(r)?, "META")?,
            workload: String::load(r)?,
            backend: Backend::load(r)?,
            scheduler: SchedulerKind::load(r)?,
            num_cores: u64::load(r)?,
            seed: u64::load(r)?,
            locality_capacity_bytes: u64::load(r)?,
            trace_schedule: bool::load(r)?,
            window: u64::load(r)?,
            per_op_dmu: bool::load(r)?,
            cost_hash: u64::load(r)?,
            chip_hash: u64::load(r)?,
            fault_hash: u64::load(r)?,
        })
    }
}

impl RunMeta {
    fn from_snapshot(snap: &Snapshot) -> Result<RunMeta, SnapshotError> {
        snapshot::from_payload(snap.section(section::META)?, "META")
    }

    /// Checks that the resuming workload and configuration match what the
    /// snapshot was taken under. Every mismatch is its own actionable error
    /// — the operator learns *which* knob diverged.
    fn validate(&self, workload: &str, config: &ExecConfig) -> Result<(), SnapshotError> {
        let capacity = config.locality_capacity_bytes;
        let cost = debug_hash(&config.cost);
        let (chip, fault) = (debug_hash(&config.chip), debug_hash(&config.fault));
        same("workload", self.workload.as_str(), workload)?;
        same("num_cores", self.num_cores, config.chip.num_cores as u64)?;
        same("seed", self.seed, config.seed)?;
        same(
            "locality_capacity_bytes",
            self.locality_capacity_bytes,
            capacity,
        )?;
        same("trace_schedule", self.trace_schedule, config.trace_schedule)?;
        same("window", self.window, config.window as u64)?;
        same("per_op_dmu", self.per_op_dmu, config.per_op_dmu)?;
        same("cost model fingerprint", self.cost_hash, cost)?;
        same("chip configuration fingerprint", self.chip_hash, chip)?;
        same("fault configuration fingerprint", self.fault_hash, fault)
    }
}

/// Fails unless the snapshot's `what` equals the resuming run's: a META
/// knob of the configuration, or the extent of a restored section.
fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    snapshot: T,
    resuming: T,
) -> Result<(), SnapshotError> {
    if snapshot == resuming {
        return Ok(());
    }
    Err(SnapshotError::Corrupt {
        context: format!("{what}: the snapshot has {snapshot:?}, the resuming run {resuming:?}"),
    })
}

// Compile-time Send contract: the parallel design-space sweep runner
// (`tdm_bench::sweep`) moves whole simulation points — configs, engines,
// schedulers, sources and reports — onto worker threads. Regressions (e.g. an
// `Rc` slipping into an engine) fail here, at the definition site, instead of
// in a downstream crate.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send::<dyn crate::engine::DependenceEngine>();
    assert_send::<dyn crate::scheduler::Scheduler>();
    assert_send::<dyn TaskSource>();
    assert_send::<crate::stream::WorkloadSource<'static>>();
    assert_send::<Backend>();
    assert_send::<ExecConfig>();
    assert_send::<RunReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WorkloadSource;
    use crate::task::{DependenceSpec, TaskSpec};
    use crate::tdg::TaskGraph;

    fn small_chip(cores: usize) -> ExecConfig {
        ExecConfig::default().with_cores(cores)
    }

    /// A block-diagonal workload: `chains` independent chains of `len`
    /// dependent tasks each.
    fn chains_workload(chains: usize, len: usize, duration_us: f64) -> Workload {
        let chip = ChipConfig::default();
        let mut tasks = Vec::new();
        for c in 0..chains {
            for _ in 0..len {
                tasks.push(TaskSpec::new(
                    "link",
                    chip.micros(duration_us),
                    vec![DependenceSpec::inout(
                        0x10_0000 + (c as u64) * 0x1_0000,
                        4096,
                    )],
                ));
            }
        }
        Workload::new("chains", tasks)
    }

    /// Independent tasks (embarrassingly parallel).
    fn independent_workload(n: usize, duration_us: f64) -> Workload {
        let chip = ChipConfig::default();
        let tasks = (0..n)
            .map(|i| {
                TaskSpec::new(
                    "indep",
                    chip.micros(duration_us),
                    vec![DependenceSpec::output(0x20_0000 + (i as u64) * 4096, 4096)],
                )
            })
            .collect();
        Workload::new("independent", tasks)
    }

    #[test]
    fn independent_tasks_scale_with_cores() {
        let w = independent_workload(64, 100.0);
        let one = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(1));
        let many = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(9));
        // 9 cores vs 1 core: near-linear scaling on independent tasks.
        let speedup = many.speedup_over(&one);
        assert!(
            speedup > 5.0,
            "expected large speedup from more cores, got {speedup:.2}"
        );
    }

    #[test]
    fn chain_workload_is_serialized_regardless_of_cores() {
        let w = chains_workload(1, 20, 50.0);
        let few = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(2));
        let many = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(8));
        let speedup = many.speedup_over(&few);
        assert!(
            (0.9..1.1).contains(&speedup),
            "a single dependence chain cannot speed up with cores, got {speedup:.2}"
        );
    }

    #[test]
    fn all_tasks_execute_exactly_once_on_every_backend() {
        let w = chains_workload(4, 10, 20.0);
        for backend in [
            Backend::Software,
            Backend::tdm_default(),
            Backend::Carbon,
            Backend::task_superscalar_default(),
        ] {
            let report = simulate(&w, &backend, SchedulerKind::Fifo, &small_chip(4));
            assert_eq!(report.tasks, 40, "backend {}", backend.name());
            assert_eq!(report.stats.tasks_executed, 40);
            assert!(report.makespan() > Cycle::ZERO);
        }
    }

    #[test]
    fn tdm_outperforms_software_when_creation_bound() {
        // Many short tasks with several dependences each: the master's
        // software creation cost dominates, which is exactly the scenario
        // TDM accelerates (Figure 2 / Figure 12).
        let chip = ChipConfig::default();
        let blocks = 64u64;
        let tasks: Vec<TaskSpec> = (0..1500)
            .map(|i| {
                let a = 0x100_0000 + (i % blocks) * 0x4_0000;
                let b = 0x100_0000 + ((i * 7 + 3) % blocks) * 0x4_0000;
                TaskSpec::new(
                    "t",
                    chip.micros(60.0),
                    vec![
                        DependenceSpec::input(a, 0x4_0000),
                        DependenceSpec::inout(b, 0x4_0000),
                    ],
                )
            })
            .collect();
        let w = Workload::new("creation-bound", tasks);
        let config = ExecConfig::default();
        let sw = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &config);
        let tdm = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let speedup = tdm.speedup_over(&sw);
        assert!(
            speedup > 1.05,
            "TDM should beat software on a creation-bound workload, got {speedup:.3}"
        );
        // And the master spends a much smaller share of its time in DEPS.
        assert!(tdm.master_deps_fraction() < sw.master_deps_fraction());
    }

    #[test]
    fn hardware_backends_force_fifo() {
        let w = independent_workload(16, 10.0);
        let report = simulate(&w, &Backend::Carbon, SchedulerKind::Lifo, &small_chip(4));
        assert_eq!(report.scheduler, "HW-FIFO");
        let report = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Lifo,
            &small_chip(4),
        );
        assert_eq!(report.scheduler, "LIFO");
    }

    #[test]
    fn run_is_deterministic() {
        let w = chains_workload(8, 8, 30.0);
        let a = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &small_chip(8),
        );
        let b = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &small_chip(8),
        );
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn phase_breakdown_covers_makespan_on_every_core() {
        let w = chains_workload(4, 6, 25.0);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(6));
        for core in &report.stats.cores {
            assert_eq!(core.total(), report.makespan());
        }
    }

    #[test]
    fn lifo_hurts_independent_chains_like_blackscholes() {
        // 8 chains on 4 workers: LIFO lets a few chains race ahead and leaves
        // a load-imbalanced tail, as described for Blackscholes in Section VI.
        let w = chains_workload(8, 12, 200.0);
        let config = small_chip(5);
        let fifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let lifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Lifo, &config);
        assert!(
            lifo.makespan() >= fifo.makespan(),
            "LIFO ({}) should not beat FIFO ({}) on independent chains",
            lifo.makespan(),
            fifo.makespan()
        );
    }

    #[test]
    fn tiny_dmu_still_completes_with_stalls() {
        let w = chains_workload(2, 30, 10.0);
        let dmu = DmuConfig {
            tat_entries: 16,
            tat_ways: 8,
            dat_entries: 16,
            dat_ways: 8,
            successor_la_entries: 16,
            dependence_la_entries: 16,
            reader_la_entries: 16,
            ..DmuConfig::default()
        };
        let report = simulate(&w, &Backend::Tdm(dmu), SchedulerKind::Fifo, &small_chip(4));
        assert_eq!(report.stats.tasks_executed, 60);
        let hw = report.hardware.unwrap();
        assert!(hw.stats.stalls > 0);
    }

    #[test]
    fn execution_respects_dependences_under_all_schedulers() {
        // Use the locality-sensitive workload and every scheduler; the
        // dependence engines enforce ordering, so all runs must complete.
        let w = chains_workload(6, 5, 15.0);
        let graph = TaskGraph::build(&w);
        assert!(graph.critical_path_len() == 5);
        for kind in SchedulerKind::all() {
            let report = simulate(&w, &Backend::tdm_default(), kind, &small_chip(4));
            assert_eq!(report.stats.tasks_executed, 30, "scheduler {}", kind.name());
        }
    }

    #[test]
    fn single_core_run_works() {
        let w = independent_workload(5, 10.0);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(1));
        assert_eq!(report.stats.tasks_executed, 5);
        // With one core the master does everything; no idle time beyond
        // rounding is expected for independent tasks.
        assert!(report.stats.cores[0].get(Phase::Exec) > Cycle::ZERO);
    }

    #[test]
    fn empty_workload_completes_immediately() {
        let w = Workload::new("empty", vec![]);
        let report = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &small_chip(4));
        assert_eq!(report.stats.tasks_executed, 0);
        assert_eq!(report.makespan(), Cycle::ZERO);
        // The streaming path agrees on the degenerate case.
        let mut source = WorkloadSource::new(&w);
        let streamed = simulate_stream(
            &mut source,
            &Backend::Software,
            SchedulerKind::Fifo,
            &small_chip(4),
        );
        assert_eq!(streamed.stats.tasks_executed, 0);
    }

    #[test]
    fn locality_scheduler_benefits_memory_bound_workload() {
        // A workload of producer→consumer pairs on large blocks with a high
        // locality benefit: running the consumer where the producer ran is
        // visibly faster.
        let chip = ChipConfig::default();
        let mut tasks = Vec::new();
        for i in 0..120u64 {
            let block = 0x400_0000 + i * 0x8_0000; // 512 KB blocks
            tasks.push(TaskSpec::new(
                "producer",
                chip.micros(80.0),
                vec![DependenceSpec::output(block, 0x8_0000)],
            ));
            tasks.push(TaskSpec::new(
                "consumer",
                chip.micros(80.0),
                vec![DependenceSpec::inout(block, 0x8_0000)],
            ));
        }
        let mut w = Workload::new("pairs", tasks);
        w.locality_benefit = 0.3;
        let config = small_chip(8);
        let fifo = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let local = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Locality,
            &config,
        );
        assert!(
            local.makespan() < fifo.makespan(),
            "locality scheduling ({}) should beat FIFO ({}) here",
            local.makespan(),
            fifo.makespan()
        );
    }

    #[test]
    fn streaming_matches_eager_bit_for_bit() {
        let mut w = chains_workload(6, 8, 25.0);
        w.locality_benefit = 0.1;
        let config = small_chip(6).with_trace_schedule();
        for backend in [
            Backend::Software,
            Backend::tdm_default(),
            Backend::Carbon,
            Backend::task_superscalar_default(),
        ] {
            for scheduler in [SchedulerKind::Fifo, SchedulerKind::Age] {
                let eager = simulate(&w, &backend, scheduler, &config);
                let mut source = WorkloadSource::new(&w);
                let streamed = simulate_stream(&mut source, &backend, scheduler, &config);
                let context = format!("{} / {}", backend.name(), scheduler.name());
                assert_eq!(eager.makespan(), streamed.makespan(), "{context}");
                assert_eq!(eager.stats, streamed.stats, "{context}");
                assert_eq!(eager.schedule, streamed.schedule, "{context}");
            }
        }
    }

    #[test]
    fn windowed_run_bounds_resident_specs_and_completes() {
        let w = chains_workload(5, 10, 15.0);
        let graph = TaskGraph::build(&w);
        for window in [1usize, 2, 7, 50] {
            let config = small_chip(4).with_trace_schedule().with_window(window);
            let mut source = WorkloadSource::new(&w);
            let report = simulate_stream(
                &mut source,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
                &config,
            );
            assert_eq!(report.stats.tasks_executed, 50, "window {window}");
            assert!(
                report.peak_resident_tasks <= window + 1,
                "window {window}: {} specs resident",
                report.peak_resident_tasks
            );
            assert!(
                graph.check_order(&report.finish_order()).is_ok(),
                "window {window}"
            );
        }
    }

    #[test]
    fn window_throttling_never_loses_tasks_on_software_backend() {
        let w = chains_workload(3, 12, 10.0);
        let config = small_chip(3).with_window(2);
        let mut source = WorkloadSource::new(&w);
        let report = simulate_stream(
            &mut source,
            &Backend::Software,
            SchedulerKind::Fifo,
            &config,
        );
        assert_eq!(report.stats.tasks_executed, 36);
        assert!(report.peak_resident_tasks <= 3);
    }

    #[test]
    fn eager_window_throttles_master_too() {
        // The window knob applies to the eager driver as well; a tight
        // window serializes creation against completion and (at worst)
        // lengthens the run, never deadlocks it.
        let w = independent_workload(30, 20.0);
        let wide = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &small_chip(4),
        );
        let narrow = simulate(
            &w,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &small_chip(4).with_window(1),
        );
        assert_eq!(narrow.stats.tasks_executed, 30);
        assert!(narrow.makespan() >= wide.makespan());
    }

    #[test]
    fn with_window_clamps_to_one() {
        assert_eq!(ExecConfig::default().with_window(0).window, 1);
        assert_eq!(ExecConfig::default().with_window(9).window, 9);
        assert_eq!(ExecConfig::default().window, usize::MAX);
    }

    /// Runs `w` checkpointed through a [`WorkloadSource`], collecting every
    /// snapshot; returns the outcome (`None` if the sink halted the run).
    fn checkpoints(
        w: &Workload,
        scheduler: SchedulerKind,
        config: &ExecConfig,
        halt_at: Option<usize>,
    ) -> (Option<RunOutcome>, Vec<Snapshot>) {
        let mut snaps = Vec::new();
        let outcome = simulate_stream_checkpointed_outcome(
            &mut WorkloadSource::new(w),
            &Backend::tdm_default(),
            scheduler,
            config,
            &mut |snap| {
                snaps.push(snap);
                Some(snaps.len()) != halt_at
            },
        );
        (outcome, snaps)
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_bit_exact() {
        let mut w = chains_workload(6, 8, 25.0);
        w.locality_benefit = 0.1;
        let chip = ChipConfig::default();
        let config = small_chip(6)
            .with_trace_schedule()
            .with_checkpoint_every(chip.micros(40.0));
        let straight = simulate_stream(
            &mut WorkloadSource::new(&w),
            &Backend::tdm_default(),
            SchedulerKind::Age,
            &config,
        );
        let eager = simulate(&w, &Backend::tdm_default(), SchedulerKind::Age, &config);
        assert_eq!(straight.stats, eager.stats);

        let (outcome, snaps) = checkpoints(&w, SchedulerKind::Age, &config, None);
        // Capture never perturbs modeled time.
        assert_eq!(outcome, Some(RunOutcome::Completed(straight.clone())));
        assert!(snaps.len() >= 2, "expected several checkpoints");

        // Resuming from every checkpoint reproduces the uninterrupted report,
        // including a round trip through the binary container.
        for snap in &snaps {
            let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = resume_stream_outcome(&mut WorkloadSource::new(&w), &snap, &config);
            assert_eq!(resumed.unwrap(), RunOutcome::Completed(straight.clone()));
        }
    }

    #[test]
    fn halted_stream_run_resumes_bit_exact() {
        let mut w = chains_workload(5, 10, 15.0);
        w.locality_benefit = 0.1;
        let chip = ChipConfig::default();
        let config = small_chip(4)
            .with_trace_schedule()
            .with_window(7)
            .with_checkpoint_every(chip.micros(120.0));

        let mut source = WorkloadSource::new(&w);
        let straight = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &config,
        );

        // Halt at the second checkpoint.
        let (outcome, snaps) = checkpoints(&w, SchedulerKind::Fifo, &config, Some(2));
        assert!(outcome.is_none(), "sink halted the run");
        assert_eq!(snaps.len(), 2, "run reached the second checkpoint");

        // A *fresh* source is fast-forwarded to the snapshot's cursor.
        let mut fresh = WorkloadSource::new(&w);
        let resumed = resume_stream_outcome(&mut fresh, &snaps[1], &config).unwrap();
        assert_eq!(resumed, RunOutcome::Completed(straight));
    }

    #[test]
    fn resume_rejects_mismatched_config_and_wrong_entry_point() {
        let w = chains_workload(3, 6, 20.0);
        let chip = ChipConfig::default();
        let config = small_chip(4).with_checkpoint_every(chip.micros(50.0));
        let (_, snaps) = checkpoints(&w, SchedulerKind::Fifo, &config, None);
        let snap = &snaps[0];
        let refuse = |w: &Workload, snap: &Snapshot, config: &ExecConfig| {
            resume_stream_outcome(&mut WorkloadSource::new(w), snap, config).unwrap_err()
        };

        // Different seed: refused with an error naming the knob.
        let mut other = config.clone();
        other.seed = 7;
        let err = refuse(&w, snap, &other);
        assert!(err.to_string().contains("seed"), "{err}");

        // Different core count.
        let err = refuse(
            &w,
            snap,
            &small_chip(8).with_checkpoint_every(chip.micros(50.0)),
        );
        assert!(err.to_string().contains("cores"), "{err}");

        // Different workload name.
        let mut renamed = w.clone();
        renamed.name = "other".to_string();
        let err = refuse(&renamed, snap, &config);
        assert!(err.to_string().contains("workload"), "{err}");

        // A snapshot claiming the retired eager entry point's feed kind.
        let mut eager = Snapshot::new();
        for id in snap.section_ids() {
            let mut payload = snap.section(id).unwrap().to_vec();
            if id == section::META {
                payload[0] = FEED_EAGER_RETIRED;
            }
            eager.add_section(id, payload);
        }
        let err = refuse(&w, &eager, &config);
        assert!(err.to_string().contains("retired eager"), "{err}");
    }

    /// A CRC-valid DRIVER section that contradicts itself or the FEED is a
    /// typed error: the window arithmetic downstream is unchecked in
    /// release builds, so these loads must never reach the event loop.
    #[test]
    fn resume_rejects_inconsistent_driver_state() {
        let w = chains_workload(3, 6, 20.0);
        let config = small_chip(4).with_checkpoint_every(ChipConfig::default().micros(50.0));
        let (_, snaps) = checkpoints(&w, SchedulerKind::Fifo, &config, None);
        let snap = &snaps[0];
        let with_driver = |patch: &dyn Fn(&mut DriverState)| {
            let payload = snap.section(section::DRIVER).unwrap();
            let mut state: DriverState = snapshot::from_payload(payload, "DRIVER").unwrap();
            patch(&mut state);
            let mut patched = Snapshot::new();
            for id in snap.section_ids() {
                let payload = match id {
                    section::DRIVER => snapshot::to_payload(&state),
                    _ => snap.section(id).unwrap().to_vec(),
                };
                patched.add_section(id, payload);
            }
            resume_stream_outcome(&mut WorkloadSource::new(&w), &patched, &config)
        };
        assert!(with_driver(&|_| {}).is_ok());

        let err = with_driver(&|s| s.finished = s.next_create + 1).unwrap_err();
        assert!(err.to_string().contains("DRIVER records"), "{err}");

        // `next_create` off the FEED cursor in either direction (the first
        // tripped the deadlock assert, the second a DMU panic).
        let state: DriverState =
            snapshot::from_payload(snap.section(section::DRIVER).unwrap(), "DRIVER").unwrap();
        assert!(
            state.finished + 1 < state.next_create,
            "needs tasks in flight"
        );
        for shift in [2, -1] {
            let err = with_driver(&|s| s.next_create = s.next_create.saturating_add_signed(shift))
                .unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. })
                    && err.to_string().contains("FEED has fetched"),
                "{shift}: {err}"
            );
        }

        let err = with_driver(&|s| {
            let rt = s.running.iter_mut().flatten().next().expect("a busy core");
            rt.task = TaskRef(s.next_create);
        })
        .unwrap_err();
        assert!(err.to_string().contains("DRIVER runs"), "{err}");

        let err = with_driver(&|s| {
            let busy: Vec<usize> = (0..s.running.len())
                .filter(|&core| s.running[core].is_some())
                .collect();
            s.running[busy[1]] = s.running[busy[0]];
        })
        .unwrap_err();
        assert!(err.to_string().contains("on two cores"), "{err}");

        let err = with_driver(&|s| s.idle_since.truncate(1)).unwrap_err();
        assert!(err.to_string().contains("DRIVER idle_since"), "{err}");
    }

    #[test]
    fn unset_checkpoint_every_never_calls_the_sink() {
        let w = independent_workload(10, 10.0);
        let config = small_chip(4);
        assert_eq!(config.checkpoint_every, None);
        let (outcome, snaps) = checkpoints(&w, SchedulerKind::Fifo, &config, None);
        assert!(snaps.is_empty());
        assert_eq!(outcome.unwrap().report().tasks, 10);
    }

    #[test]
    fn window_zero_behaves_exactly_like_window_one() {
        // The clamp is documented behaviour, not an accident: a directly
        // assigned `window = 0` (bypassing `with_window`) must produce the
        // same run as window 1, on both the eager and the streaming path.
        let w = chains_workload(3, 8, 20.0);
        let mut zero = small_chip(4).with_trace_schedule();
        zero.window = 0;
        let one = small_chip(4).with_trace_schedule().with_window(1);
        assert_eq!(one.window, 1);

        let eager_zero = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &zero);
        let eager_one = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &one);
        assert_eq!(eager_zero, eager_one);
        assert_eq!(eager_zero.stats.tasks_executed, 24);

        let mut source = WorkloadSource::new(&w);
        let stream_zero = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &zero,
        );
        let mut source = WorkloadSource::new(&w);
        let stream_one = simulate_stream(
            &mut source,
            &Backend::tdm_default(),
            SchedulerKind::Fifo,
            &one,
        );
        assert_eq!(stream_zero, stream_one);
        // And the residency bound is the clamped window's, not 0+1 = 1.
        assert!(stream_zero.peak_resident_tasks <= 2);
    }
}
