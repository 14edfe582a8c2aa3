//! The four workloads: how each builds its inputs from the seed (set-up),
//! which driver calls one pass makes, what those calls must output, and
//! which task lists the layer replay drives.

use std::time::Instant;

use tdm_bench::baseline::matrix_backends;
use tdm_bench::standard_config;
use tdm_runtime::exec::{
    resume_stream_outcome, simulate, simulate_stream, simulate_stream_checkpointed_outcome,
    Backend, ExecConfig, RunOutcome, RunReport,
};
use tdm_runtime::fault::FaultConfig;
use tdm_runtime::scheduler::SchedulerKind;
use tdm_runtime::stream::TaskSource;
use tdm_runtime::task::{TaskRef, TaskSpec, Workload};
use tdm_runtime::tdg::TaskGraph;
use tdm_runtime::trace::{self, TraceSource};
use tdm_sim::clock::Cycle;
use tdm_sim::rng::SplitMix64;
use tdm_sim::snapshot::{section, Persist, Reader, Snapshot, SnapshotError};
use tdm_workloads::grammar::{GrammarSpec, Shape};
use tdm_workloads::Benchmark;

use crate::pass::{Pass, Probed};
use crate::replay::ReplayCase;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["table2_matrix", "grammar_sw", "ckpt_faults"];

/// Master creation window of `ckpt_faults` (twice the DMU's 2048 in-flight
/// tasks, so TDM is DMU-limited before it is window-limited).
const WINDOW: usize = 4096;
/// Streamed calls record one host ns-per-task sample per this many tasks.
const SAMPLE_EVERY: u64 = 4096;
/// Transient fault probability per attempt on `ckpt_faults`.
const FAULT_RATE: f64 = 0.3;

/// Input sizes. [`Size::FULL`] is what the benchmark measures;
/// [`Size::SMOKE`] keeps the self-tests short.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Target task count of the `grammar_sw` spec.
    pub grammar_tasks: usize,
    /// Tasks of the scaled cholesky on `ckpt_faults`.
    pub ckpt_tasks: usize,
    /// Simulated cycles between checkpoints on `ckpt_faults`.
    pub checkpoint_every: u64,
    /// `ckpt_faults` resumes from this checkpoint (1-based), or from the
    /// last one when the run took fewer.
    pub resume_checkpoint: u64,
    /// Tasks of each case the layer replay drives, at most.
    pub replay_tasks: usize,
}

impl Size {
    /// The scaled cholesky holds 150k tasks, so a pass takes about a second
    /// and a run repeats each driver call many times.
    pub const FULL: Size = Size {
        grammar_tasks: 200_000,
        ckpt_tasks: 150_000,
        checkpoint_every: 60_000_000,
        resume_checkpoint: 18,
        replay_tasks: 131_072,
    };
    #[cfg(test)]
    pub const SMOKE: Size = Size {
        grammar_tasks: 3_000,
        ckpt_tasks: 6_000,
        checkpoint_every: 400_000,
        resume_checkpoint: 2,
        replay_tasks: 2_000,
    };
}

/// Host time of the traced set-up's parts.
#[derive(Debug, Clone, Default)]
pub struct SetupTrace {
    pub next_task_ns: f64,
    pub trace_bytes: u64,
    pub dump_ns: f64,
    pub parse_ns: f64,
}

/// A workload after set-up.
pub trait Bench {
    /// Records the reference values the checks compare against. Runs after
    /// set-up and is not part of it.
    fn prepare(&mut self) {}

    /// Makes one pass of the workload's driver calls, checking their
    /// outputs. A `traced` pass also times the calls' children.
    fn pass(&self, traced: bool, pass: &mut Pass);

    /// The task lists the layer replay drives, with their backend and
    /// scheduling policy.
    fn replay_cases(&self, max_tasks: usize) -> Vec<ReplayCase>;
}

/// Builds workload `name`'s inputs from `seed`. With `trace`, the set-up's
/// generator, dump and parse are timed into it.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    trace: Option<&mut SetupTrace>,
) -> Result<Box<dyn Bench>, String> {
    let config = ExecConfig {
        seed,
        ..standard_config()
    };
    Ok(match name {
        "table2_matrix" => Box::new(Table2::setup(config, trace)),
        "grammar_sw" => Box::new(Grammar::setup(config, seed, size, trace)?),
        "ckpt_faults" => Box::new(Ckpt {
            config: config
                .with_window(WINDOW)
                .with_faults(FaultConfig::default().with_fault_rate(FAULT_RATE))
                .with_checkpoint_every(Cycle::new(size.checkpoint_every)),
            tasks: Benchmark::Cholesky.scaled_stream(size.ckpt_tasks).len(),
            size,
        }),
        other => return Err(format!("unknown workload {other:?} (known: {NAMES:?})")),
    })
}

/// Times `f` into `slot` when tracing.
fn timed<T>(slot: Option<&mut f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    if let Some(slot) = slot {
        *slot += start.elapsed().as_nanos() as f64;
    }
    value
}

fn dmu_accesses(report: &RunReport) -> u64 {
    report
        .hardware
        .as_ref()
        .map_or(0, |hw| hw.stats.total_accesses)
}

/// The first `max` tasks of a source, for the replay.
fn prefix(mut source: impl TaskSource, max: usize) -> Vec<TaskSpec> {
    std::iter::from_fn(|| source.next_task())
        .take(max)
        .collect()
}

// ---------------------------------------------------------------------------
// table2_matrix
// ---------------------------------------------------------------------------

/// The modeled values one Table II cell must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Expected {
    tasks: u64,
    makespan_cycles: u64,
    dmu_accesses: u64,
}

impl Expected {
    fn of(report: &RunReport) -> Self {
        Expected {
            tasks: report.tasks,
            makespan_cycles: report.makespan().raw(),
            dmu_accesses: dmu_accesses(report),
        }
    }
}

struct Cell {
    bench: Benchmark,
    backend: Backend,
    /// Index into [`Table2::workloads`].
    workload: usize,
    /// Recorded by a streamed run of the same cell over the lazy generator,
    /// which the eager driver must match bit for bit.
    expected: Expected,
}

/// Eager `simulate` over the 36 Table II cells with FIFO.
struct Table2 {
    config: ExecConfig,
    /// Software- and TDM-granularity workload of each benchmark.
    workloads: Vec<Workload>,
    cells: Vec<Cell>,
}

impl Table2 {
    fn setup(config: ExecConfig, trace: Option<&mut SetupTrace>) -> Self {
        let mut generator_ns = 0.0;
        let mut workloads = Vec::new();
        for bench in Benchmark::ALL {
            let slot = trace.is_some().then_some(&mut generator_ns);
            workloads.push(timed(slot, || bench.software_workload()));
            let slot = trace.is_some().then_some(&mut generator_ns);
            workloads.push(timed(slot, || bench.tdm_workload()));
        }
        if let Some(trace) = trace {
            trace.next_task_ns += generator_ns;
        }
        let mut cells = Vec::new();
        for (b, bench) in Benchmark::ALL.into_iter().enumerate() {
            for backend in matrix_backends() {
                let hardware = matches!(backend, Backend::Tdm(_) | Backend::TaskSuperscalar(_));
                cells.push(Cell {
                    bench,
                    workload: 2 * b + usize::from(hardware),
                    expected: Expected::default(),
                    backend,
                });
            }
        }
        Table2 {
            config,
            workloads,
            cells,
        }
    }
}

impl Bench for Table2 {
    /// Records each cell's expected values from a streamed run.
    fn prepare(&mut self) {
        for cell in &mut self.cells {
            let mut stream = if cell.workload % 2 == 1 {
                cell.bench.tdm_stream()
            } else {
                cell.bench.software_stream()
            };
            let report = simulate_stream(
                &mut stream,
                &cell.backend,
                SchedulerKind::Fifo,
                &self.config,
            );
            cell.expected = Expected::of(&report);
        }
    }

    fn pass(&self, _traced: bool, pass: &mut Pass) {
        for cell in &self.cells {
            let workload = &self.workloads[cell.workload];
            let label = format!("{} × {}", cell.bench.name(), cell.backend.name());
            let Some((report, seconds)) = pass.drive(&label, || {
                simulate(workload, &cell.backend, SchedulerKind::Fifo, &self.config)
            }) else {
                continue;
            };
            pass.tasks += report.tasks;
            pass.segments.push((seconds * 1e9, report.tasks));
            pass.modeled.add(&report);
            let got = Expected::of(&report);
            pass.check(got == cell.expected, || {
                format!("{label}: modeled {got:?}, recorded {:?}", cell.expected)
            });
        }
    }

    fn replay_cases(&self, max_tasks: usize) -> Vec<ReplayCase> {
        self.cells
            .iter()
            .map(|cell| {
                let workload = &self.workloads[cell.workload];
                let mut tasks = workload.tasks.clone();
                tasks.truncate(max_tasks);
                ReplayCase {
                    tasks,
                    backend: cell.backend.clone(),
                    scheduler: SchedulerKind::Fifo,
                    window: usize::MAX,
                    config: self.config.clone(),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// grammar_sw
// ---------------------------------------------------------------------------

/// One round of the grammar plan at full size; the plan repeats rounds up
/// to the target count. Fans are wider than the 1024
/// readers TDM can track (legal here: the workload runs on Software).
const GRAMMAR_ROUND: [Shape; 5] = [
    Shape::Fan { width: 3_000 },
    Shape::ReaderSwarm {
        readers: 1_200,
        waves: 2,
    },
    Shape::RenamingStorm {
        writers: 4_000,
        addrs: 4,
    },
    Shape::Mixed { tasks: 4_000 },
    Shape::Chain { len: 1_500 },
];

/// The `grammar_sw` spec for `seed`: the fixed round plan scaled to
/// `target` tasks, each shape's size drawn within ±2% from the seed (the
/// grammar derives durations and mixed dependences from the seed too).
pub fn grammar_spec(seed: u64, target: usize) -> GrammarSpec {
    let round: usize = GRAMMAR_ROUND.iter().map(Shape::task_count).sum();
    let full = Size::FULL.grammar_tasks as f64;
    let scale = target as f64 / full;
    let rounds = (full / round as f64).round().max(1.0) as usize;
    let mut rng = SplitMix64::new(seed ^ 0x6772_616d_6d61_7273);
    let mut draw = |n: usize| {
        let jitter = 0.98 + 0.04 * rng.next_below(1_001) as f64 / 1_000.0;
        ((n as f64 * scale * jitter).round() as usize).max(1)
    };
    let mut shapes = Vec::new();
    for _ in 0..rounds {
        for shape in GRAMMAR_ROUND {
            shapes.push(match shape {
                Shape::Fan { width } => Shape::Fan { width: draw(width) },
                Shape::ReaderSwarm { readers, waves } => Shape::ReaderSwarm {
                    readers: draw(readers),
                    waves,
                },
                Shape::RenamingStorm { writers, addrs } => Shape::RenamingStorm {
                    writers: draw(writers),
                    addrs,
                },
                Shape::Mixed { tasks } => Shape::Mixed { tasks: draw(tasks) },
                Shape::Chain { len } => Shape::Chain { len: draw(len) },
            });
        }
    }
    GrammarSpec::new(seed, shapes)
}

/// A grammar spec dumped to tdmtrace, parsed back, and replayed on Software
/// with the Locality scheduler.
struct Grammar {
    config: ExecConfig,
    source: TraceSource,
    /// The golden model the schedules are checked against, built by
    /// `prepare`.
    graph: Option<TaskGraph>,
}

impl Grammar {
    fn setup(
        config: ExecConfig,
        seed: u64,
        size: Size,
        trace: Option<&mut SetupTrace>,
    ) -> Result<Self, String> {
        let traced = trace.is_some();
        let mut stream = Probed::new(
            grammar_spec(seed, size.grammar_tasks).stream(),
            traced,
            u64::MAX,
        );
        let mut dump_ns = 0.0;
        let text = timed(traced.then_some(&mut dump_ns), || trace::dump(&mut stream))
            .map_err(|e| e.to_string())?;
        let mut parse_ns = 0.0;
        let source = timed(traced.then_some(&mut parse_ns), || {
            TraceSource::parse(&text)
        })
        .map_err(|e| e.to_string())?;
        if let Some(trace) = trace {
            trace.next_task_ns += stream.next_task_ns;
            trace.dump_ns += dump_ns;
            trace.parse_ns += parse_ns;
            trace.trace_bytes += text.len() as u64;
        }
        Ok(Grammar {
            config: config.with_trace_schedule(),
            source,
            graph: None,
        })
    }
}

impl Bench for Grammar {
    fn prepare(&mut self) {
        self.graph = Some(TaskGraph::build(&self.source.clone().into_workload()));
    }

    fn pass(&self, traced: bool, pass: &mut Pass) {
        let graph = self.graph.as_ref().expect("prepare builds the graph");
        let mut source = Probed::new(self.source.clone(), traced, SAMPLE_EVERY);
        let Some((report, seconds)) = pass.drive("grammar", || {
            simulate_stream(
                &mut source,
                &Backend::Software,
                SchedulerKind::Locality,
                &self.config,
            )
        }) else {
            return;
        };
        pass.add_streamed(seconds, report.tasks, &mut source);
        pass.modeled.add(&report);
        let n = graph.len();
        pass.check(
            report.tasks == n as u64 && report.schedule.len() == n,
            || {
                format!(
                    "grammar: {} tasks ran, {} scheduled, {n} in the trace",
                    report.tasks,
                    report.schedule.len()
                )
            },
        );
        let order = graph.check_order(&report.finish_order());
        pass.check(order.is_ok(), || {
            format!("grammar: schedule violates dependence {order:?}")
        });
    }

    fn replay_cases(&self, max_tasks: usize) -> Vec<ReplayCase> {
        let mut tasks = self.source.clone().into_workload().tasks;
        tasks.truncate(max_tasks);
        vec![ReplayCase {
            tasks,
            backend: Backend::Software,
            scheduler: SchedulerKind::Locality,
            window: usize::MAX,
            config: self.config.clone(),
        }]
    }
}

// ---------------------------------------------------------------------------
// ckpt_faults
// ---------------------------------------------------------------------------

/// Scaled cholesky on TDM with transient faults and periodic checkpoints,
/// every snapshot encoded and decoded, then resumed from a mid-run one.
struct Ckpt {
    config: ExecConfig,
    /// Task count the scaled generator declares.
    tasks: usize,
    size: Size,
}

/// Tasks a snapshot records as finished, read from its `DRIVER` section
/// (layout in `SNAPSHOT_FORMAT.md`).
fn finished_at(snapshot: &Snapshot) -> Result<u64, SnapshotError> {
    let mut r = Reader::new(snapshot.section(section::DRIVER)?);
    Vec::<Option<(TaskRef, u32)>>::load(&mut r)?; // running
    Vec::<Option<Cycle>>::load(&mut r)?; // idle_since
    Vec::<u64>::load(&mut r)?; // idle-set bitmap
    usize::load(&mut r)?; // next_create
    Ok(usize::load(&mut r)? as u64)
}

impl Bench for Ckpt {
    fn pass(&self, traced: bool, pass: &mut Pass) {
        let backend = Backend::tdm_default();
        let stream = Benchmark::Cholesky.scaled_stream(self.size.ckpt_tasks);
        let mut source = Probed::new(stream, traced, SAMPLE_EVERY);
        let mut resume_from: Option<Snapshot> = None;
        let mut bad_decodes = 0u64;
        let (mut count, mut bytes) = (0u64, 0u64);
        let (mut sink_ns, mut encode_ns, mut decode_ns) = (0.0, 0.0, 0.0);
        let mut sink = |snapshot: Snapshot| {
            let start = traced.then(Instant::now);
            let encoded = timed(traced.then_some(&mut encode_ns), || snapshot.to_bytes());
            let decoded = timed(traced.then_some(&mut decode_ns), || {
                Snapshot::from_bytes(&encoded)
            });
            count += 1;
            bytes += encoded.len() as u64;
            match decoded {
                Ok(decoded) if decoded == snapshot => {
                    if count <= self.size.resume_checkpoint {
                        resume_from = Some(decoded);
                    }
                }
                _ => bad_decodes += 1,
            }
            if let Some(start) = start {
                sink_ns += start.elapsed().as_nanos() as f64;
            }
            true
        };
        let straight = pass.drive("cholesky checkpointed", || {
            simulate_stream_checkpointed_outcome(
                &mut source,
                &backend,
                SchedulerKind::Fifo,
                &self.config,
                &mut sink,
            )
        });
        pass.sink_ns += sink_ns;
        pass.encode_ns += encode_ns;
        pass.decode_ns += decode_ns;
        pass.snapshots += count;
        pass.snapshot_bytes += bytes;
        pass.check(bad_decodes == 0, || {
            format!("ckpt: {bad_decodes} of {count} snapshots did not decode to themselves")
        });
        let Some((outcome, seconds)) = straight else {
            return;
        };
        let report = match outcome {
            Some(RunOutcome::Completed(report)) => report,
            other => {
                pass.check(false, || format!("ckpt: run did not complete: {other:?}"));
                return;
            }
        };
        pass.add_streamed(seconds, report.tasks, &mut source);
        pass.modeled.add(&report);
        pass.check(report.tasks == self.tasks as u64, || {
            format!("ckpt: {} of {} tasks ran", report.tasks, self.tasks)
        });
        pass.check(report.faults_injected == report.retries, || {
            format!(
                "ckpt: {} faults but {} retries: lost work",
                report.faults_injected, report.retries
            )
        });
        pass.check(report.faults_injected > 0 && count > 0, || {
            format!(
                "ckpt: {} faults, {count} checkpoints: the workload lost its point",
                report.faults_injected
            )
        });

        let Some(snapshot) = resume_from else {
            return;
        };
        let done = match finished_at(&snapshot) {
            Ok(done) => done,
            Err(e) => {
                pass.check(false, || format!("ckpt: unreadable DRIVER section: {e}"));
                return;
            }
        };
        let stream = Benchmark::Cholesky.scaled_stream(self.size.ckpt_tasks);
        let mut source = Probed::new(stream, traced, SAMPLE_EVERY);
        let resumed = pass.drive("cholesky resume", || {
            resume_stream_outcome(&mut source, &snapshot, &self.config)
        });
        let Some((resumed, seconds)) = resumed else {
            return;
        };
        pass.resume_s += seconds;
        match resumed {
            Ok(RunOutcome::Completed(resumed)) => {
                pass.add_streamed(seconds, resumed.tasks.saturating_sub(done), &mut source);
                pass.check(resumed == report, || {
                    format!(
                        "ckpt: resumed run diverges (makespan {} vs {})",
                        resumed.makespan(),
                        report.makespan()
                    )
                });
            }
            other => pass.check(false, || format!("ckpt: resume failed: {other:?}")),
        }
    }

    fn replay_cases(&self, max_tasks: usize) -> Vec<ReplayCase> {
        vec![ReplayCase {
            tasks: prefix(
                Benchmark::Cholesky.scaled_stream(self.size.ckpt_tasks),
                max_tasks,
            ),
            backend: Backend::tdm_default(),
            scheduler: SchedulerKind::Fifo,
            window: self.config.window,
            config: self.config.clone(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_value_fails_the_check() {
        let mut table = Table2::setup(standard_config(), None);
        table.prepare();
        let mut pass = Pass::default();
        table.pass(false, &mut pass);
        assert_eq!(pass.failed, 0);
        table.cells[5].expected.makespan_cycles += 1;
        let mut pass = Pass::default();
        table.pass(false, &mut pass);
        assert_eq!(pass.failed, 1);
    }

    #[test]
    fn a_corrupted_task_count_fails_the_check() {
        let config = standard_config()
            .with_window(WINDOW)
            .with_faults(FaultConfig::default().with_fault_rate(FAULT_RATE))
            .with_checkpoint_every(Cycle::new(Size::SMOKE.checkpoint_every));
        let ckpt = Ckpt {
            config,
            tasks: Benchmark::Cholesky
                .scaled_stream(Size::SMOKE.ckpt_tasks)
                .len()
                + 1,
            size: Size::SMOKE,
        };
        let mut pass = Pass::default();
        ckpt.pass(false, &mut pass);
        assert_eq!(pass.failed, 1);
    }

    #[test]
    fn grammar_spec_follows_the_seed() {
        let spec = grammar_spec(3, Size::FULL.grammar_tasks);
        assert_eq!(spec, grammar_spec(3, Size::FULL.grammar_tasks));
        assert_ne!(spec, grammar_spec(4, Size::FULL.grammar_tasks));
        let tasks = spec.task_count() as f64;
        assert!((tasks / Size::FULL.grammar_tasks as f64 - 1.0).abs() < 0.05);
        assert!(spec
            .shapes
            .iter()
            .any(|s| matches!(s, Shape::Fan { width } if *width > 1024)));
    }
}
