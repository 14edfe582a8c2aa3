//! Checkpoint/restart conformance: resume-vs-straight-through bit-identity.
//!
//! A checkpointed run must be observably identical to a plain run (capture
//! never perturbs modeled time), and resuming from *any* checkpoint must
//! reproduce the uninterrupted run's [`RunReport`] bit for bit — stats,
//! phase breakdowns, DMU counters and (traced) schedule. These tests pin
//! that across the backend × scheduler matrix, at several capture points per
//! run, for materialised workloads (replayed through [`WorkloadSource`]) and
//! for windowed generator streams, and always push each snapshot through the
//! binary container ([`Snapshot::to_bytes`]/[`Snapshot::from_bytes`]) so the
//! full codec is on the resume path, not just the in-memory structures.
//!
//! The section-table test keeps `SNAPSHOT_FORMAT.md` honest: every section
//! the driver writes must be in the registry
//! ([`tdm::sim::snapshot::SECTIONS`]) and described in the format document.

use crate::common::{random_workload, small_benchmark_streams, small_benchmarks};
use crate::{all_backends, conformance_config};
use tdm::prelude::*;
use tdm::runtime::exec::{
    resume_stream_outcome, simulate_stream, simulate_stream_checkpointed_outcome,
};
use tdm::runtime::stream::WorkloadSource;
use tdm::runtime::task::TaskRef;
use tdm::sim::snapshot::{self, section, Persist, Reader, Snapshot, SnapshotError};

/// A capture interval that yields several checkpoints over `straight`'s
/// makespan (and at least one even for degenerate runs).
fn quarter_interval(straight: &RunReport) -> Cycle {
    Cycle::new((straight.makespan().raw() / 4).max(1))
}

/// The uninterrupted run of `workload` replayed through a
/// [`WorkloadSource`]: the report every checkpoint must resume to.
fn straight_of(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
) -> RunReport {
    simulate_stream(
        &mut WorkloadSource::new(workload),
        backend,
        scheduler,
        config,
    )
}

/// Runs `workload` checkpointed through a [`WorkloadSource`], asserts
/// capture did not perturb the run, and returns the snapshots after a round
/// trip through the binary codec.
fn checkpoints_of(
    workload: &Workload,
    backend: &Backend,
    scheduler: SchedulerKind,
    config: &ExecConfig,
    straight: &RunReport,
) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    let outcome = simulate_stream_checkpointed_outcome(
        &mut WorkloadSource::new(workload),
        backend,
        scheduler,
        config,
        &mut |snap| {
            snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
            true
        },
    )
    .expect("sink never halts");
    assert_eq!(
        outcome,
        RunOutcome::Completed(straight.clone()),
        "capture perturbed the run ({} / {})",
        backend.name(),
        scheduler.name()
    );
    snaps
}

/// Resumes `snap` with a fresh [`WorkloadSource`] over `workload`.
fn resume_workload(
    workload: &Workload,
    snap: &Snapshot,
    config: &ExecConfig,
) -> Result<RunReport, SnapshotError> {
    resume_stream_outcome(&mut WorkloadSource::new(workload), snap, config)
        .map(RunOutcome::into_report)
}

/// Materialised workload, full matrix: every backend × scheduler cell of a
/// scaled-down benchmark, resumed from every quarter-makespan checkpoint.
#[test]
fn resume_is_bit_exact_across_backends_and_schedulers() {
    let workload = &small_benchmarks()[0];
    for backend in all_backends() {
        for scheduler in SchedulerKind::all() {
            let context = format!("{} with {}", backend.name(), scheduler.name());
            let straight = straight_of(workload, &backend, scheduler, &conformance_config());
            let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
            let snaps = checkpoints_of(workload, &backend, scheduler, &config, &straight);
            assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
            for (i, snap) in snaps.iter().enumerate() {
                let resumed = resume_workload(workload, snap, &config)
                    .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
                assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
            }
        }
    }
}

/// Streaming path: windowed runs over the lazy generators, resumed from
/// every checkpoint with a *freshly built* stream (the snapshot stores the
/// production cursor, never the unproduced remainder).
#[test]
fn streaming_resume_is_bit_exact_with_windows() {
    for window in [4usize, 32, usize::MAX] {
        for bench_idx in 0..small_benchmark_streams().len() {
            let base = ExecConfig {
                window,
                ..conformance_config()
            };
            let mut stream = small_benchmark_streams().swap_remove(bench_idx);
            let straight = simulate_stream(
                &mut stream,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
                &base,
            );
            let config = base.with_checkpoint_every(quarter_interval(&straight));
            let context = format!("{} window {window}", straight.workload);

            let mut snaps: Vec<Snapshot> = Vec::new();
            let mut stream = small_benchmark_streams().swap_remove(bench_idx);
            let outcome = simulate_stream_checkpointed_outcome(
                &mut stream,
                &Backend::tdm_default(),
                SchedulerKind::Fifo,
                &config,
                &mut |snap| {
                    snaps.push(Snapshot::from_bytes(&snap.to_bytes()).expect("codec round trip"));
                    true
                },
            )
            .expect("sink never halts");
            let straight = RunOutcome::Completed(straight);
            assert_eq!(outcome, straight, "{context}: capture perturbed the run");
            assert!(!snaps.is_empty(), "{context}: no checkpoints captured");
            for (i, snap) in snaps.iter().enumerate() {
                let mut fresh = small_benchmark_streams().swap_remove(bench_idx);
                let resumed = resume_stream_outcome(&mut fresh, snap, &config)
                    .unwrap_or_else(|e| panic!("{context}, checkpoint {i}: {e}"));
                assert_eq!(resumed, straight, "{context}: resumed from checkpoint {i}");
            }
        }
    }
}

/// Randomized round-trip fuzz: seeded random workloads (dense RAW/WAR/WAW
/// collisions over a small block pool) checkpointed mid-run and resumed,
/// across backends.
#[test]
fn random_workloads_resume_bit_exact() {
    for seed in 1..=6u64 {
        let workload = random_workload(seed);
        for backend in [Backend::tdm_default(), Backend::Software] {
            let straight = straight_of(
                &workload,
                &backend,
                SchedulerKind::Age,
                &conformance_config(),
            );
            let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
            let snaps = checkpoints_of(&workload, &backend, SchedulerKind::Age, &config, &straight);
            for snap in &snaps {
                let resumed = resume_workload(&workload, snap, &config).expect("resume");
                assert_eq!(resumed, straight, "seed {seed} on {}", backend.name());
            }
        }
    }
}

/// A resumed run must refuse a configuration that differs from the one the
/// snapshot was taken under, naming the diverging knob.
#[test]
fn resume_refuses_diverging_configuration() {
    let workload = &small_benchmarks()[0];
    let straight = straight_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    let snap = &snaps[0];

    let mut wrong_seed = config.clone();
    wrong_seed.seed ^= 1;
    assert!(resume_workload(workload, snap, &wrong_seed)
        .unwrap_err()
        .to_string()
        .contains("seed"));

    let mut wrong_cost = config.clone();
    wrong_cost.cost.sw_sched_push += Cycle::new(1);
    assert!(resume_workload(workload, snap, &wrong_cost)
        .unwrap_err()
        .to_string()
        .contains("cost model"));
}

/// Container hardening on a real driver snapshot: bad magic, future format
/// versions, truncation and payload corruption are all detected with the
/// right error, never mis-parsed.
#[test]
fn damaged_snapshots_are_rejected() {
    let workload = &small_benchmarks()[0];
    let straight = straight_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    let bytes = snaps[0].to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        Snapshot::from_bytes(&bad_magic),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = bytes.clone();
    future[8] = 0xFF; // low byte of the little-endian format version
    assert!(matches!(
        Snapshot::from_bytes(&future),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    assert!(
        Snapshot::from_bytes(&bytes[..bytes.len() / 2]).is_err(),
        "truncated file accepted"
    );

    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    assert!(
        Snapshot::from_bytes(&corrupt).is_err(),
        "flipped payload byte accepted"
    );
}

/// The DRIVER section's fields, in `SNAPSHOT_FORMAT.md` order.
struct DriverFields {
    running: Vec<Option<(TaskRef, u32)>>,
    idle_since: Vec<Option<Cycle>>,
    idle_words: Vec<u64>,
    next_create: usize,
    finished: usize,
    peak_resident: usize,
    makespan: Cycle,
    master_throttled: bool,
}

impl DriverFields {
    fn decode(snap: &Snapshot) -> DriverFields {
        let mut r = Reader::new(snap.section(section::DRIVER).expect("DRIVER present"));
        let fields = DriverFields {
            running: Persist::load(&mut r).expect("running"),
            idle_since: Persist::load(&mut r).expect("idle_since"),
            idle_words: Persist::load(&mut r).expect("idle words"),
            next_create: Persist::load(&mut r).expect("next_create"),
            finished: Persist::load(&mut r).expect("finished"),
            peak_resident: Persist::load(&mut r).expect("peak_resident"),
            makespan: Persist::load(&mut r).expect("makespan"),
            master_throttled: Persist::load(&mut r).expect("master_throttled"),
        };
        r.expect_end("DRIVER").expect("DRIVER fully decoded");
        fields
    }

    /// `snap` with its DRIVER section replaced by these fields, pushed
    /// through the binary codec so every CRC is valid.
    fn patched_into(&self, snap: &Snapshot) -> Snapshot {
        let mut driver = Vec::new();
        self.running.save(&mut driver);
        self.idle_since.save(&mut driver);
        self.idle_words.save(&mut driver);
        self.next_create.save(&mut driver);
        self.finished.save(&mut driver);
        self.peak_resident.save(&mut driver);
        self.makespan.save(&mut driver);
        self.master_throttled.save(&mut driver);
        let mut patched = Snapshot::new();
        for id in snap.section_ids() {
            let payload = if id == section::DRIVER {
                driver.clone()
            } else {
                snap.section(id).expect("listed section").to_vec()
            };
            patched.add_section(id, payload);
        }
        Snapshot::from_bytes(&patched.to_bytes()).expect("re-encoded CRC passes")
    }
}

/// The first quarter-makespan checkpoint of the first small benchmark on
/// TDM × FIFO, with the workload and config to resume it under.
fn first_tdm_checkpoint() -> (Workload, ExecConfig, Snapshot) {
    let workload = small_benchmarks().swap_remove(0);
    let straight = straight_of(
        &workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let snap = checkpoints_of(
        &workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    )
    .swap_remove(0);
    (workload, config, snap)
}

/// Asserts that resuming `snap` fails with a `Corrupt` error naming DRIVER.
fn assert_driver_rejected(workload: &Workload, snap: &Snapshot, config: &ExecConfig) {
    let err = resume_workload(workload, snap, config).expect_err("inconsistent DRIVER resumed");
    let SnapshotError::Corrupt { context } = &err else {
        panic!("expected a Corrupt error, got {err:?}");
    };
    assert!(context.contains("DRIVER"), "{context}");
}

/// A CRC-valid DRIVER section claiming more finished tasks than were ever
/// created is refused with a typed error, not run into a deadlock panic.
#[test]
fn driver_finishing_more_than_created_is_rejected() {
    let (workload, config, snap) = first_tdm_checkpoint();
    let mut fields = DriverFields::decode(&snap);
    fields.finished = fields.next_create + 3;
    assert_driver_rejected(&workload, &fields.patched_into(&snap), &config);
}

/// A CRC-valid DRIVER section whose busy core runs a task the FEED does not
/// hold in flight is refused with a typed error, not an engine panic.
#[test]
fn driver_running_a_task_outside_the_feed_is_rejected() {
    let (workload, config, snap) = first_tdm_checkpoint();
    let mut fields = DriverFields::decode(&snap);
    let busy = fields
        .running
        .iter()
        .position(Option::is_some)
        .expect("a core is busy at the first checkpoint");
    let (_, successors) = fields.running[busy].expect("busy core");
    fields.running[busy] = Some((TaskRef(fields.next_create + 5), successors));
    assert_driver_rejected(&workload, &fields.patched_into(&snap), &config);
}

/// A CRC-valid DRIVER section whose next creation lies past the FEED
/// cursor is refused with a typed error, not run into the deadlock panic.
#[test]
fn driver_creating_past_the_feed_cursor_is_rejected() {
    let (workload, config, snap) = first_tdm_checkpoint();
    let mut fields = DriverFields::decode(&snap);
    fields.next_create += 2;
    assert_driver_rejected(&workload, &fields.patched_into(&snap), &config);
}

/// A CRC-valid DRIVER section whose next creation lies behind the FEED
/// cursor (re-creating a task already fetched) is refused with a typed
/// error, not a DMU panic.
#[test]
fn driver_creating_behind_the_feed_cursor_is_rejected() {
    let (workload, config, snap) = first_tdm_checkpoint();
    let mut fields = DriverFields::decode(&snap);
    assert!(
        fields.finished < fields.next_create - 1,
        "needs tasks in flight"
    );
    fields.next_create -= 1;
    assert_driver_rejected(&workload, &fields.patched_into(&snap), &config);
}

/// CRC-32 of the second checkpoint of [`pinned_snapshot_bytes_are_stable`]'s
/// run, recorded when the format was last changed on purpose.
const PINNED_SNAPSHOT_CRC: u32 = 0xfc8a_83f3;

/// The snapshot bytes of one fixed run are pinned across commits: TDM with
/// 30% transient faults and schedule tracing, so every section is written.
/// A refactor that moves a byte of any section fails here; a deliberate
/// layout change must bump `FORMAT_VERSION` and re-record the constant.
#[test]
fn pinned_snapshot_bytes_are_stable() {
    let workload = &small_benchmarks()[0];
    let config = conformance_config().with_faults(
        FaultConfig::default()
            .with_fault_rate(0.3)
            .with_max_faults_per_task(2)
            .with_retry_budget(8),
    );
    let straight = straight_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    assert!(
        straight.faults_injected > 0,
        "the pinned run injects faults"
    );
    let config = config.with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    let snap = &snaps[1];
    // BENCH is the one registered section the driver never writes.
    for info in snapshot::SECTIONS
        .iter()
        .filter(|info| info.id != section::BENCH)
    {
        assert!(
            snap.section(info.id).is_ok(),
            "the pinned snapshot lacks {}",
            info.name
        );
    }
    let crc = snapshot::crc32(&snap.to_bytes());
    assert_eq!(
        crc, PINNED_SNAPSHOT_CRC,
        "snapshot bytes drifted (CRC-32 {crc:#010x}): a layout change needs a \
         FORMAT_VERSION bump and a re-recorded pin"
    );
}

/// Every section the driver writes is registered in
/// [`tdm::sim::snapshot::SECTIONS`], and `SNAPSHOT_FORMAT.md` documents each
/// registered section by name and identifier.
#[test]
fn format_document_covers_every_written_section() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/SNAPSHOT_FORMAT.md");
    let doc =
        std::fs::read_to_string(doc_path).unwrap_or_else(|e| panic!("cannot read {doc_path}: {e}"));

    // Capture traced snapshots, so the optional TRACE section is checked too.
    let workload = &small_benchmarks()[0];
    let straight = straight_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &conformance_config(),
    );
    let config = conformance_config().with_checkpoint_every(quarter_interval(&straight));
    let mut written: Vec<u32> = Vec::new();
    for snap in checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    ) {
        written.extend(snap.section_ids());
    }
    written.sort_unstable();
    written.dedup();
    assert!(!written.is_empty());

    for id in written {
        assert!(
            snapshot::section_info(id).is_some(),
            "driver wrote unregistered section {id:#04x}"
        );
    }
    for info in snapshot::SECTIONS {
        let id_text = format!("{:#04x}", info.id);
        assert!(
            doc.contains(&id_text),
            "SNAPSHOT_FORMAT.md does not mention section id {id_text} ({})",
            info.name
        );
        assert!(
            doc.contains(info.name),
            "SNAPSHOT_FORMAT.md does not mention section {:?}",
            info.name
        );
    }
}

/// Feed kind 0 belonged to the eager-workload snapshots, which are retired.
/// A CRC-valid snapshot carrying it — in META or in FEED — is refused with
/// a typed error that names the retired kind, never a panic or a resume.
#[test]
fn retired_eager_feed_kind_is_rejected() {
    let workload = &small_benchmarks()[0];
    let config = conformance_config();
    let straight = straight_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
    );
    let config = config.with_checkpoint_every(quarter_interval(&straight));
    let snaps = checkpoints_of(
        workload,
        &Backend::tdm_default(),
        SchedulerKind::Fifo,
        &config,
        &straight,
    );
    assert!(resume_workload(workload, &snaps[0], &config).is_ok());

    for (patched, name) in [(section::META, "META"), (section::FEED, "FEED")] {
        let mut eager = Snapshot::new();
        for id in snaps[0].section_ids() {
            let mut payload = snaps[0].section(id).expect("listed section").to_vec();
            if id == patched {
                assert_eq!(payload[0], 1, "{name}: streaming feed kind");
                payload[0] = 0;
            }
            eager.add_section(id, payload);
        }
        let eager = Snapshot::from_bytes(&eager.to_bytes()).expect("re-encoded CRC passes");
        let err = resume_workload(workload, &eager, &config).expect_err("retired kind resumed");
        let SnapshotError::Corrupt { context } = &err else {
            panic!("{name}: expected a Corrupt error, got {err:?}");
        };
        assert!(
            context.contains(name) && context.contains("retired eager feed kind 0"),
            "{name}: {context}"
        );
        assert!(context.contains("WorkloadSource"), "{name}: {context}");
    }
}
