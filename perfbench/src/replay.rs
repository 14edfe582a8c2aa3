//! Layer replay: host time per call of the dependence engine, the
//! scheduler, the locality model and the timing wheel, measured from the
//! benchmark's side of their public interfaces.
//!
//! A small driver loop creates a case's tasks in order (within the
//! creation window), dispatches ready tasks to idle cores, and retires them
//! through a timing wheel at `now + duration`. That loop logs every call it
//! makes into each layer. Each log is then replayed on a fresh instance of
//! its layer in a tight loop, timing runs of consecutive same-kind calls
//! (up to [`RUN`]) with one pair of clock reads. The clock's own cost is
//! calibrated and subtracted per timed run, so calls shorter than a clock
//! read are measured in batches rather than one by one. Every layer is
//! deterministic, so a replayed log reproduces the logged calls exactly.

use std::hint::black_box;
use std::time::Instant;

use tdm_runtime::engine::{
    DependenceEngine, HardwareEngine, HardwareFlavor, ReadyInfo, SoftwareEngine,
};
use tdm_runtime::exec::{Backend, ExecConfig};
use tdm_runtime::scheduler::{FifoScheduler, ReadyEntry, Scheduler, SchedulerKind};
use tdm_runtime::task::{TaskRef, TaskSpec};
use tdm_sim::cache::LocalityModel;
use tdm_sim::clock::Cycle;
use tdm_sim::event::TimingWheel;
use tdm_sim::noc::NocModel;

use crate::stats::median;

/// Most calls timed by one pair of clock reads.
const RUN: usize = 256;
/// Dispatches whose locality calls are timed together.
const LOCALITY_CHUNK: usize = 64;

/// One task list to replay, with the backend and policy it runs under.
pub struct ReplayCase {
    pub tasks: Vec<TaskSpec>,
    pub backend: Backend,
    pub scheduler: SchedulerKind,
    /// Creation window: at most this many created, unfinished tasks.
    pub window: usize,
    pub config: ExecConfig,
}

/// Host ns and call count of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub ns: f64,
    pub calls: u64,
}

impl Calls {
    /// Mean host ns per call; 0 when no call was made.
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// What the replay of one or more cases measured.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub create: Calls,
    pub finish: Calls,
    pub push: Calls,
    pub pop: Calls,
    /// `LocalityModel::probe`, one call per dispatched task.
    pub probe: Calls,
    /// `record_reads` plus `record_writes`, counted once per dispatched task.
    pub record: Calls,
    pub schedule: Calls,
    pub pop_batch: Calls,
    /// Largest ready-pool length seen.
    pub pool_max: u64,
    /// Working-set bytes that hit or were probed, in dispatch order.
    pub hit_bytes: u64,
    pub probed_bytes: u64,
}

enum EngineOp {
    Create(Cycle, usize),
    Finish(Cycle, usize, usize),
}

enum SchedOp {
    Push(ReadyEntry),
    Pop(usize),
}

enum WheelOp {
    Schedule(Cycle, usize),
    PopBatch,
}

/// The calls the replay driver made into each layer.
#[derive(Default)]
struct Log {
    engine: Vec<EngineOp>,
    sched: Vec<SchedOp>,
    wheel: Vec<WheelOp>,
    /// (core, task) in dispatch order.
    dispatch: Vec<(usize, usize)>,
}

fn build_engine(case: &ReplayCase) -> Box<dyn DependenceEngine> {
    let cost = case.config.cost.clone();
    let round_trip = NocModel::from_chip(&case.config.chip).average_round_trip();
    match &case.backend {
        Backend::Software => Box::new(SoftwareEngine::new(cost)),
        Backend::Carbon => Box::new(SoftwareEngine::with_name("carbon", cost)),
        Backend::Tdm(dmu) => Box::new(HardwareEngine::new(
            HardwareFlavor::Tdm,
            dmu.clone(),
            cost,
            round_trip,
        )),
        Backend::TaskSuperscalar(dmu) => Box::new(HardwareEngine::new(
            HardwareFlavor::TaskSuperscalar,
            dmu.clone(),
            cost,
            round_trip,
        )),
    }
}

fn build_scheduler(case: &ReplayCase) -> Box<dyn Scheduler> {
    if case.backend.hardware_scheduling() {
        Box::new(FifoScheduler::new())
    } else {
        case.scheduler.build()
    }
}

fn new_locality(case: &ReplayCase) -> LocalityModel {
    LocalityModel::new(
        case.config.chip.num_cores,
        case.config.locality_capacity_bytes.max(1),
    )
}

/// Hands a newly ready task to the pool, logging the push.
fn push_ready(
    pool: &mut dyn Scheduler,
    log: &mut Log,
    info: ReadyInfo,
    ready_at: Cycle,
    producer_core: Option<usize>,
    pool_max: &mut u64,
) {
    let entry = ReadyEntry {
        task: info.task,
        num_successors: info.num_successors,
        creation_seq: info.task.index(),
        ready_at,
        producer_core,
    };
    log.sched.push(SchedOp::Push(entry));
    pool.push(entry);
    *pool_max = (*pool_max).max(pool.len() as u64);
}

/// Runs the replay driver over `case`, logging each layer's calls and
/// measuring the exact-order locality hit share and the pool's peak.
fn drive(case: &ReplayCase, times: &mut LayerTimes) -> Result<Log, String> {
    let n = case.tasks.len();
    let cores = case.config.chip.num_cores;
    let mut log = Log::default();
    let mut engine = build_engine(case);
    let mut pool = build_scheduler(case);
    let mut locality = new_locality(case);
    let mut wheel: TimingWheel<usize> = TimingWheel::new();
    let mut idle: Vec<usize> = (0..cores).rev().collect();
    let mut running = vec![0usize; cores];
    let mut ready: Vec<ReadyInfo> = Vec::new();
    let mut batch = Vec::new();
    let (mut now, mut next, mut finished) = (Cycle::ZERO, 0usize, 0usize);

    while finished < n {
        while next < n && next - finished < case.window {
            ready.clear();
            log.engine.push(EngineOp::Create(now, next));
            let outcome = engine.create_task(now, TaskRef(next), &case.tasks[next], &mut ready);
            for &info in &ready {
                push_ready(&mut *pool, &mut log, info, now, None, &mut times.pool_max);
            }
            if !outcome.completed {
                break;
            }
            next += 1;
        }
        while let Some(&core) = idle.last() {
            log.sched.push(SchedOp::Pop(core));
            let Some(entry) = pool.pop(core) else {
                break;
            };
            idle.pop();
            let spec = &case.tasks[entry.task.index()];
            let working_set = spec.working_set();
            let outcome = locality.probe(core, &working_set);
            times.hit_bytes += outcome.hit_bytes;
            times.probed_bytes += outcome.hit_bytes + outcome.miss_bytes;
            locality.record_reads(core, &spec.read_set());
            locality.record_writes(core, &spec.write_set());
            log.dispatch.push((core, entry.task.index()));
            let due = now + spec.duration.max(Cycle::new(1));
            log.wheel.push(WheelOp::Schedule(due, core));
            wheel.schedule(due, core);
            running[core] = entry.task.index();
        }
        log.wheel.push(WheelOp::PopBatch);
        now = wheel.pop_batch(&mut batch).ok_or_else(|| {
            format!("replay deadlocked: {finished} of {n} tasks finished, {next} created")
        })?;
        for &core in &batch {
            ready.clear();
            log.engine.push(EngineOp::Finish(now, running[core], core));
            engine.finish_task(now, TaskRef(running[core]), core, &mut ready);
            for &info in &ready {
                push_ready(
                    &mut *pool,
                    &mut log,
                    info,
                    now,
                    Some(core),
                    &mut times.pool_max,
                );
            }
            idle.push(core);
            finished += 1;
        }
    }
    Ok(log)
}

/// Host ns of one pair of clock reads, the median of many.
fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2_001)
        .map(|_| {
            let start = Instant::now();
            black_box(Instant::now());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Times `body` once, adding its net host ns (clock cost subtracted) and
/// `calls` calls to `slot`.
fn time_run(slot: &mut Calls, calls: usize, clock_ns: f64, body: impl FnOnce()) {
    let start = Instant::now();
    body();
    let ns = start.elapsed().as_nanos() as f64;
    slot.ns += (ns - clock_ns).max(0.0);
    slot.calls += calls as u64;
}

/// Splits `ops` into runs of at most [`RUN`] consecutive ops of one kind.
fn runs<T>(ops: &[T], kind: impl Fn(&T) -> bool) -> impl Iterator<Item = &[T]> {
    let mut rest = ops;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let k = kind(first);
        let len = rest.iter().take(RUN).take_while(|op| kind(op) == k).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

fn replay_engine(case: &ReplayCase, log: &Log, clock_ns: f64, times: &mut LayerTimes) {
    let mut engine = build_engine(case);
    let mut ready = Vec::new();
    for run in runs(&log.engine, |op| matches!(op, EngineOp::Create(..))) {
        let create = matches!(run[0], EngineOp::Create(..));
        let slot = if create {
            &mut times.create
        } else {
            &mut times.finish
        };
        time_run(slot, run.len(), clock_ns, || {
            for op in run {
                match *op {
                    EngineOp::Create(now, task) => {
                        black_box(engine.create_task(
                            now,
                            TaskRef(task),
                            &case.tasks[task],
                            &mut ready,
                        ));
                    }
                    EngineOp::Finish(now, task, core) => {
                        black_box(engine.finish_task(now, TaskRef(task), core, &mut ready));
                    }
                }
            }
        });
        ready.clear();
    }
}

fn replay_scheduler(case: &ReplayCase, log: &Log, clock_ns: f64, times: &mut LayerTimes) {
    let mut pool = build_scheduler(case);
    for run in runs(&log.sched, |op| matches!(op, SchedOp::Push(_))) {
        let push = matches!(run[0], SchedOp::Push(_));
        let slot = if push {
            &mut times.push
        } else {
            &mut times.pop
        };
        time_run(slot, run.len(), clock_ns, || {
            for op in run {
                match *op {
                    SchedOp::Push(entry) => pool.push(entry),
                    SchedOp::Pop(core) => {
                        black_box(pool.pop(core));
                    }
                }
            }
        });
    }
}

fn replay_wheel(log: &Log, clock_ns: f64, times: &mut LayerTimes) {
    let mut wheel: TimingWheel<usize> = TimingWheel::new();
    let mut batch = Vec::new();
    for run in runs(&log.wheel, |op| matches!(op, WheelOp::Schedule(..))) {
        let schedule = matches!(run[0], WheelOp::Schedule(..));
        let slot = if schedule {
            &mut times.schedule
        } else {
            &mut times.pop_batch
        };
        time_run(slot, run.len(), clock_ns, || {
            for op in run {
                match *op {
                    WheelOp::Schedule(due, core) => wheel.schedule(due, core),
                    WheelOp::PopBatch => {
                        black_box(wheel.pop_batch(&mut batch));
                    }
                }
            }
        });
    }
}

/// Replays the dispatches in chunks: the chunk's probes are timed together
/// against the model as it stood at the chunk's start, then its records.
fn replay_locality(case: &ReplayCase, log: &Log, clock_ns: f64, times: &mut LayerTimes) {
    let mut locality = new_locality(case);
    for chunk in log.dispatch.chunks(LOCALITY_CHUNK) {
        let sets: Vec<_> = chunk
            .iter()
            .map(|&(core, task)| {
                let spec = &case.tasks[task];
                (core, spec.working_set(), spec.read_set(), spec.write_set())
            })
            .collect();
        time_run(&mut times.probe, sets.len(), clock_ns, || {
            for (core, working_set, _, _) in &sets {
                black_box(locality.probe(*core, working_set));
            }
        });
        time_run(&mut times.record, sets.len(), clock_ns, || {
            for (core, _, reads, writes) in &sets {
                locality.record_reads(*core, reads);
                locality.record_writes(*core, writes);
            }
        });
    }
}

/// Replays every case, returning the layers' host time per call.
pub fn replay(cases: &[ReplayCase]) -> Result<LayerTimes, String> {
    let clock_ns = clock_overhead_ns();
    let mut times = LayerTimes::default();
    for case in cases {
        let log = drive(case, &mut times)?;
        replay_engine(case, &log, clock_ns, &mut times);
        replay_scheduler(case, &log, clock_ns, &mut times);
        replay_wheel(&log, clock_ns, &mut times);
        replay_locality(case, &log, clock_ns, &mut times);
    }
    Ok(times)
}
