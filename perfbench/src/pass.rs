//! What one pass over a workload's driver calls accumulates: host time,
//! per-task samples, modeled totals, timed children and output checks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tdm_runtime::exec::RunReport;
use tdm_runtime::stream::TaskSource;
use tdm_runtime::task::TaskSpec;
use tdm_sim::stats::Phase;

/// Modeled quantities summed (or, for peaks, maximised) over one pass. A
/// pass makes the same driver calls every time, so these repeat exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Modeled {
    pub makespan_cycles: u64,
    pub dmu_accesses: u64,
    pub dmu_creates: u64,
    pub dmu_add_dependences: u64,
    pub dmu_finishes: u64,
    pub dmu_stalls: u64,
    pub dmu_stall_cycles: u64,
    pub dmu_peak_tasks: u64,
    pub dmu_peak_deps: u64,
    pub faults_injected: u64,
    pub retries: u64,
    pub peak_resident_tasks: u64,
    /// Per driver call: share of the master core's time in dependence
    /// management (Figure 2's DEPS bar).
    pub master_deps: Vec<f64>,
    /// Per driver call: share of all cores' time spent idle.
    pub idle: Vec<f64>,
}

impl Modeled {
    /// Adds one driver call's report.
    pub fn add(&mut self, report: &RunReport) {
        self.makespan_cycles += report.makespan().raw();
        if let Some(hw) = &report.hardware {
            self.dmu_accesses += hw.stats.total_accesses;
            self.dmu_creates += hw.stats.creates;
            self.dmu_add_dependences += hw.stats.add_dependences;
            self.dmu_finishes += hw.stats.finishes;
            self.dmu_stalls += hw.stats.stalls;
            self.dmu_stall_cycles += hw.stall_cycles.raw();
            self.dmu_peak_tasks = self.dmu_peak_tasks.max(hw.peak.tasks as u64);
            self.dmu_peak_deps = self.dmu_peak_deps.max(hw.peak.deps as u64);
        }
        self.faults_injected += report.faults_injected;
        self.retries += report.retries;
        self.peak_resident_tasks = self
            .peak_resident_tasks
            .max(report.peak_resident_tasks as u64);
        self.master_deps.push(report.master_deps_fraction());
        self.idle.push(report.chip_fraction(Phase::Idle));
    }
}

/// One pass over a workload's driver calls.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds spent inside driver calls (`simulate*`, `resume*`).
    pub driver_s: f64,
    /// Simulated tasks those calls completed.
    pub tasks: u64,
    /// The calls cut into segments, in order: (host ns, simulated tasks).
    /// An eager call is one segment; a streamed call is one per chunk of
    /// tasks its source produced, then the rest of the call.
    pub segments: Vec<(f64, u64)>,
    pub modeled: Modeled,
    /// Timed children of the driver calls, filled by traced passes only:
    /// host ns inside `TaskSource::next_task`, and inside the checkpoint
    /// sink (of which encode and decode are parts).
    pub source_ns: f64,
    pub sink_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Host seconds of `resume_stream` calls (a part of `driver_s`).
    pub resume_s: f64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    /// Output checks made and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    /// Counts one output check, printing `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Runs one driver call, adding its host time to the pass. A panic is
    /// caught, counted as a failed check and its message printed; the call
    /// then yields `None`.
    pub fn drive<T>(&mut self, label: &str, call: impl FnOnce() -> T) -> Option<(T, f64)> {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(call));
        let seconds = start.elapsed().as_secs_f64();
        self.driver_s += seconds;
        match result {
            Ok(value) => Some((value, seconds)),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                self.check(false, || {
                    format!("{label}: driver call panicked: {message}")
                });
                None
            }
        }
    }
}

impl Pass {
    /// Adds a streamed call that took `seconds` and completed `tasks`: one
    /// segment per chunk `source` timed, then the rest of the call (the
    /// tasks in flight when the last chunk closed, and the final drain).
    pub fn add_streamed<S>(&mut self, seconds: f64, tasks: u64, source: &mut Probed<S>) {
        let chunked = source.chunks.len() as u64 * source.every;
        let rest_ns = seconds * 1e9 - source.chunks.iter().sum::<f64>();
        self.segments
            .extend(source.chunks.drain(..).map(|ns| (ns, source.every)));
        if tasks > chunked {
            self.segments.push((rest_ns.max(0.0), tasks - chunked));
        }
        self.tasks += tasks;
        self.source_ns += source.next_task_ns;
    }
}

/// A [`TaskSource`] wrapper that times each chunk of `every` produced tasks
/// and, when `timed`, each `next_task` call.
pub struct Probed<S> {
    inner: S,
    timed: bool,
    every: u64,
    produced: u64,
    mark: Instant,
    /// Host ns of each completed chunk.
    chunks: Vec<f64>,
    pub next_task_ns: f64,
}

impl<S: TaskSource> Probed<S> {
    pub fn new(inner: S, timed: bool, every: u64) -> Self {
        Probed {
            inner,
            timed,
            every: every.max(1),
            produced: 0,
            mark: Instant::now(),
            chunks: Vec::new(),
            next_task_ns: 0.0,
        }
    }
}

impl<S: TaskSource> TaskSource for Probed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let spec = if self.timed {
            let start = Instant::now();
            let spec = self.inner.next_task();
            self.next_task_ns += start.elapsed().as_nanos() as f64;
            spec
        } else {
            self.inner.next_task()
        };
        if spec.is_some() {
            self.produced += 1;
            if self.produced.is_multiple_of(self.every) {
                let now = Instant::now();
                self.chunks
                    .push(now.duration_since(self.mark).as_nanos() as f64);
                self.mark = now;
            }
        }
        spec
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn locality_benefit(&self) -> f64 {
        self.inner.locality_benefit()
    }

    fn duration_jitter(&self) -> f64 {
        self.inner.duration_jitter()
    }

    fn checkpoint_cursor(&self) -> Option<u64> {
        self.inner.checkpoint_cursor()
    }

    fn resume_at(&mut self, cursor: u64) {
        self.inner.resume_at(cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_driver_call_is_a_failed_check() {
        let mut pass = Pass::default();
        let result = pass.drive("boom", || -> u32 { panic!("engine deadlock") });
        assert!(result.is_none());
        assert_eq!((pass.attempted, pass.failed), (1, 1));
        assert_eq!(pass.drive("fine", || 5).map(|(v, _)| v), Some(5));
    }
}
