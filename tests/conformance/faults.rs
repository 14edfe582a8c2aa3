//! Fault-injection conformance: determinism, golden validity and
//! checkpoint/restart under injected failures.
//!
//! The fault layer must be a pure overlay on the deterministic driver:
//!
//! * **off means off** — a fault configuration with all rates zero is
//!   bit-identical to no fault configuration at all, across the full
//!   backend × scheduler matrix, on both the eager and streaming paths;
//! * **schedule validity survives faults** — a faulted run's executed
//!   schedule is still a topological order of the reference graph, with
//!   every task finishing exactly once (retries never lose or duplicate
//!   work), and eager and streaming drivers agree bit for bit on the same
//!   fault schedule;
//! * **abort is typed** — exhausting the retry budget yields
//!   [`RunOutcome::Aborted`] with a deterministic attempt count, not a
//!   panic;
//! * **retirement degrades gracefully** — with sticky core faults the
//!   survivors (ultimately the exempt master) still drain the workload;
//! * **resume is bit-exact through faults** — a run checkpointed between a
//!   failure and its retry resumes to the uninterrupted run's report;
//! * **the FAULT section is bounded by the window** — failure counts are
//!   kept only for tasks not yet completed, and a stale count for a
//!   finished task (as older snapshots carry) changes nothing on resume.

use crate::common::{assert_is_permutation, small_benchmark_streams, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::{
    resume_stream_outcome, simulate_stream, simulate_stream_checkpointed_outcome,
    simulate_stream_outcome,
};
use tdm::runtime::fault::RetryEntry;
use tdm::runtime::stream::WorkloadSource;
use tdm::runtime::task::TaskRef;
use tdm::sim::snapshot::{section, to_payload, Persist, Reader, Snapshot};
use tdm::workloads::cholesky;
use tdm::workloads::stream::TaskStream;

/// A fault schedule that exercises retries but can never abort: the
/// per-task cap stays below the retry budget, so every faulted task
/// eventually completes.
fn survivable_faults() -> FaultConfig {
    FaultConfig::default()
        .with_fault_rate(0.25)
        .with_max_faults_per_task(2)
        .with_retry_budget(8)
}

/// Golden-model check of a faulted (but completed) run: every task finishes
/// exactly once, in an order the reference graph allows.
fn assert_schedule_valid(report: &RunReport, workload: &Workload, context: &str) {
    assert_eq!(
        report.stats.tasks_executed,
        workload.len() as u64,
        "{context}: task count"
    );
    let order = report.finish_order();
    assert_is_permutation(&order, workload.len());
    let graph = TaskGraph::build(workload);
    if let Err((pred, task)) = graph.check_order(&order) {
        panic!("{context}: task {task} finished before its predecessor {pred}");
    }
}

/// All-zero rates must be indistinguishable from no fault configuration:
/// identical reports (stats, schedules, counters) on every backend ×
/// scheduler cell, eager and streaming.
#[test]
fn zero_rate_faults_are_bit_identical_to_disabled_faults() {
    let workload = &small_benchmarks()[0];
    let plain_config = conformance_config();
    let zeroed_config = conformance_config().with_faults(FaultConfig::default());
    for backend in all_backends() {
        for scheduler in SchedulerKind::all() {
            let context = format!("{} with {}", backend.name(), scheduler.name());
            let plain = simulate(workload, &backend, scheduler, &plain_config);
            let zeroed = simulate(workload, &backend, scheduler, &zeroed_config);
            assert_eq!(plain, zeroed, "{context}: eager");
            assert_eq!(zeroed.faults_injected, 0, "{context}: fault counter");
            assert_eq!(zeroed.retries, 0, "{context}: retry counter");
            assert_eq!(zeroed.retired_cores, 0, "{context}: retirement counter");
        }
    }

    let mut stream = small_benchmark_streams().swap_remove(0);
    let plain = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &plain_config,
    );
    let mut stream = small_benchmark_streams().swap_remove(0);
    let zeroed = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &zeroed_config,
    );
    assert_eq!(plain, zeroed, "streaming");
}

/// The same seed must produce the same fault schedule on the eager and
/// streaming drivers — bit-identical reports — and the faulted schedule
/// must still conform to the reference graph on every backend.
#[test]
fn fault_schedules_agree_between_eager_and_streaming() {
    let config = conformance_config().with_faults(survivable_faults());
    let workloads = small_benchmarks();
    for (w_idx, workload) in workloads.iter().enumerate() {
        for backend in all_backends() {
            let context = format!("{} on {}", workload.name, backend.name());
            let eager = simulate(workload, &backend, SchedulerKind::Fifo, &config);
            assert!(eager.faults_injected > 0, "{context}: no faults injected");
            assert_eq!(
                eager.faults_injected, eager.retries,
                "{context}: every survivable failure must be retried"
            );
            assert_schedule_valid(&eager, workload, &context);

            let mut stream = small_benchmark_streams().swap_remove(w_idx);
            let streamed =
                simulate_stream_outcome(&mut stream, &backend, SchedulerKind::Fifo, &config);
            assert_eq!(
                RunOutcome::Completed(eager),
                streamed,
                "{context}: streaming diverged"
            );
        }
    }
}

/// A certain-failure schedule with a small retry budget must abort with a
/// typed outcome: the offending task, exactly `budget + 1` attempts, and a
/// deterministic partial report — identically on every run.
#[test]
fn retry_exhaustion_aborts_with_a_typed_outcome() {
    let workload = &small_benchmarks()[0];
    let config = conformance_config().with_faults(
        FaultConfig::default()
            .with_fault_rate(1.0)
            .with_max_faults_per_task(u32::MAX)
            .with_retry_budget(3),
    );
    let outcome = simulate_outcome(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    let RunOutcome::Aborted {
        task,
        attempts,
        report,
    } = &outcome
    else {
        panic!("a certain-failure schedule must abort, got {outcome:?}");
    };
    assert_eq!(*attempts, 4, "budget 3 allows exactly 4 attempts");
    assert!(
        u64::from(*attempts) <= report.faults_injected,
        "the aborting task's failures are part of the fault counter"
    );
    assert_eq!(report.stats.tasks_executed, 0, "no task can ever finish");
    assert!(task.index() < workload.len());

    let again = simulate_outcome(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    assert_eq!(outcome, again, "abort must be deterministic");
}

/// Sticky core faults retire every worker at its first completion; the
/// exempt master must still drain the whole workload, and the degraded run
/// stays valid and deterministic.
#[test]
fn core_retirement_degrades_gracefully() {
    let workload = &small_benchmarks()[2];
    let config = conformance_config().with_faults(FaultConfig::default().with_core_fault_rate(1.0));
    let report = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    let context = "all-worker retirement".to_string();
    assert_schedule_valid(&report, workload, &context);
    assert!(
        report.retired_cores > 0,
        "a parallel run must retire at least one worker"
    );
    assert!(
        report.retired_cores < config.chip.num_cores as u64,
        "the master is exempt from retirement"
    );
    assert_eq!(report.faults_injected, 0, "no transient faults configured");

    let again = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    assert_eq!(report, again, "retirement must be deterministic");
}

/// Runs `workload` through a [`WorkloadSource`] checkpointed every
/// `1/parts` of `straight`'s makespan, returning the outcome and the
/// snapshots (each pushed through the binary codec).
fn workload_checkpoints(
    workload: &Workload,
    backend: &Backend,
    base: &ExecConfig,
    straight: &RunReport,
    parts: u64,
) -> (ExecConfig, RunOutcome, Vec<Snapshot>) {
    let interval = Cycle::new((straight.makespan().raw() / parts).max(1));
    let config = base.clone().with_checkpoint_every(interval);
    let mut snaps: Vec<Snapshot> = Vec::new();
    let outcome = simulate_stream_checkpointed_outcome(
        &mut WorkloadSource::new(workload),
        backend,
        SchedulerKind::Fifo,
        &config,
        &mut |snap| {
            snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
            true
        },
    )
    .expect("sink never halts");
    (config, outcome, snaps)
}

/// Checkpoint/restart through a fault schedule: snapshots taken while
/// failures and retries are in flight (including a populated retry queue)
/// must resume to the uninterrupted run's report, bit for bit, on every
/// backend.
#[test]
fn resume_through_faults_is_bit_exact() {
    let workload = &small_benchmarks()[0];
    for backend in all_backends() {
        let context = format!("{} under faults", backend.name());
        let base = conformance_config().with_faults(survivable_faults());
        let straight = simulate_stream_outcome(
            &mut WorkloadSource::new(workload),
            &backend,
            SchedulerKind::Fifo,
            &base,
        );
        assert!(
            straight.report().faults_injected > 0,
            "{context}: no faults injected"
        );

        let (config, checkpointed, snaps) =
            workload_checkpoints(workload, &backend, &base, straight.report(), 8);
        assert_eq!(
            checkpointed, straight,
            "{context}: capture perturbed the run"
        );
        assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
        for (i, snap) in snaps.iter().enumerate() {
            let resumed = resume_stream_outcome(&mut WorkloadSource::new(workload), snap, &config)
                .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
            assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
        }
    }
}

/// Resume must refuse a fault configuration that differs from the one the
/// snapshot was taken under — including faults-off vs faults-on.
#[test]
fn resume_refuses_diverging_fault_configuration() {
    let workload = &small_benchmarks()[0];
    let base = conformance_config().with_faults(survivable_faults());
    let straight = simulate(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &base,
    );
    let (config, _, snaps) =
        workload_checkpoints(workload, &Backend::tdm_default(), &base, &straight, 4);
    let refuse = |config: &ExecConfig| {
        resume_stream_outcome(&mut WorkloadSource::new(workload), &snaps[0], config).unwrap_err()
    };

    let mut no_faults = config.clone();
    no_faults.fault = None;
    let err = refuse(&no_faults);
    assert!(
        err.to_string().contains("fault configuration"),
        "wrong error: {err}"
    );

    let mut other_rate = config.clone();
    other_rate.fault = Some(survivable_faults().with_fault_rate(0.5));
    let err = refuse(&other_rate);
    assert!(
        err.to_string().contains("fault configuration"),
        "wrong error: {err}"
    );
}

/// The windowed, 30%-fault cholesky stream of the FAULT-footprint tests:
/// hundreds of tasks fail over the run, far more than the 32-task window.
fn faulted_window_run() -> (TaskStream, ExecConfig) {
    let stream = cholesky::stream(cholesky::Params { blocks: 16 });
    let config = conformance_config().with_window(32).with_faults(
        FaultConfig::default()
            .with_fault_rate(0.3)
            .with_max_faults_per_task(2)
            .with_retry_budget(8),
    );
    (stream, config)
}

/// Runs the faulted window stream checkpointed about every 1/64 of its
/// makespan, returning the straight-through report and the snapshots.
fn faulted_window_checkpoints() -> (RunReport, Vec<Snapshot>) {
    let (mut stream, base) = faulted_window_run();
    let straight = simulate_stream(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &base,
    );
    assert!(
        straight.faults_injected > 4 * 32,
        "only {} faults: too few to outgrow the window",
        straight.faults_injected
    );
    let config = base.with_checkpoint_every(Cycle::new((straight.makespan().raw() / 64).max(1)));
    let (mut stream, _) = faulted_window_run();
    let mut snaps = Vec::new();
    let outcome = simulate_stream_checkpointed_outcome(
        &mut stream,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &mut |snap| {
            snaps.push(snap);
            true
        },
    )
    .expect("sink never halts");
    assert_eq!(outcome, RunOutcome::Completed(straight.clone()));
    assert!(snaps.len() > 16, "only {} checkpoints", snaps.len());
    (straight, snaps)
}

/// `(created, finished)` from a snapshot's DRIVER section (layout in
/// SNAPSHOT_FORMAT.md: running tasks, idle stamps and idle bitmap first).
fn driver_progress(snap: &Snapshot) -> (usize, usize) {
    let mut r = Reader::new(snap.section(section::DRIVER).expect("DRIVER"));
    Vec::<Option<(TaskRef, u32)>>::load(&mut r).expect("running");
    Vec::<Option<Cycle>>::load(&mut r).expect("idle_since");
    Vec::<u64>::load(&mut r).expect("idle bitmap");
    let created = usize::load(&mut r).expect("next_create");
    let finished = usize::load(&mut r).expect("finished");
    (created, finished)
}

/// A FAULT payload split into its failure-count list, its retry queue and
/// the raw bytes that follow the failure counts.
fn fault_section(snap: &Snapshot) -> (Vec<(u64, u32)>, Vec<RetryEntry>, Vec<u8>) {
    let payload = snap.section(section::FAULT).expect("FAULT");
    let mut r = Reader::new(payload);
    let failures = Vec::<(u64, u32)>::load(&mut r).expect("failure counts");
    let rest = r.take(r.remaining()).expect("rest").to_vec();
    let mut r = Reader::new(&rest);
    Vec::<u64>::load(&mut r).expect("completions");
    Vec::<u64>::load(&mut r).expect("retired");
    let retry_queue = Vec::<RetryEntry>::load(&mut r).expect("retry queue");
    (failures, retry_queue, rest)
}

/// At every checkpoint of a windowed faulted stream, the FAULT section's
/// failure counts cover only tasks created and not yet finished (those
/// waiting in the retry queue included) — never the hundreds of tasks that
/// failed and have since completed.
#[test]
fn fault_section_is_bounded_by_tasks_in_flight() {
    let (straight, snaps) = faulted_window_checkpoints();
    let finish_order = straight.finish_order();
    let mut most = 0;
    for (i, snap) in snaps.iter().enumerate() {
        let (created, finished) = driver_progress(snap);
        let (failures, retry_queue, _) = fault_section(snap);
        let in_flight = created - finished;
        assert!(
            failures.len() <= in_flight,
            "checkpoint {i}: {} failure counts for {in_flight} tasks in flight",
            failures.len()
        );
        assert!(in_flight <= 32, "checkpoint {i}: window exceeded");
        // The trace is in finish order and a checkpoint falls between
        // batches, so its first `finished` tasks are exactly the finished
        // ones; none of them may keep a count.
        let done: std::collections::HashSet<u64> = finish_order[..finished]
            .iter()
            .map(|t| t.index() as u64)
            .collect();
        for &(task, _) in &failures {
            assert!(
                (task as usize) < created && !done.contains(&task),
                "checkpoint {i}: count kept for task {task}, which is not in flight"
            );
        }
        // A task waiting to retry has failed, so it keeps its count.
        for retry in &retry_queue {
            let task = retry.task.index() as u64;
            assert!(
                failures.iter().any(|&(t, n)| t == task && n > 0),
                "checkpoint {i}: task {task} waits to retry without a count"
            );
        }
        most = most.max(failures.len());
    }
    assert!(most > 0, "no checkpoint caught a failed task in flight");
    assert!((most as u64) < straight.faults_injected);
}

/// A snapshot whose FAULT section still lists a finished task — what a
/// snapshot written before counts were dropped on completion carries —
/// loads and resumes bit-identical to the straight-through run.
#[test]
fn stale_finished_task_failure_count_resumes_identically() {
    let (straight, snaps) = faulted_window_checkpoints();
    let snap = &snaps[snaps.len() / 2];
    let (_, finished) = driver_progress(snap);
    assert!(finished > 0);
    // The trace is in finish order, so its first task finished before
    // this mid-run checkpoint.
    let stale = straight.finish_order()[0].index() as u64;
    let (mut failures, _, rest) = fault_section(snap);
    assert!(failures.iter().all(|&(task, _)| task != stale));
    failures.push((stale, 1));
    failures.sort_unstable();
    let mut fault = to_payload(&failures);
    fault.extend_from_slice(&rest);

    let mut tampered = Snapshot::new();
    for id in snap.section_ids() {
        let payload = if id == section::FAULT {
            fault.clone()
        } else {
            snap.section(id).expect("listed section").to_vec()
        };
        tampered.add_section(id, payload);
    }
    let tampered = Snapshot::from_bytes(&tampered.to_bytes()).expect("codec round trip");
    assert_ne!(&tampered, snap);

    let (mut stream, config) = faulted_window_run();
    let resumed =
        resume_stream_outcome(&mut stream, &tampered, &config).expect("stale entry loads");
    assert_eq!(resumed, RunOutcome::Completed(straight));
}
