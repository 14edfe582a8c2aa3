//! Host-performance benchmark of the TDM simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `workloads.rs` and `perfbench/METRICS.md`) in
//! this process on one thread, checks the outputs of every driver call, and
//! prints each metric by name and unit, then one JSON object as the last
//! line of standard output.
//!
//! * `--trace 0` measures the end-to-end metrics: the inputs are set up
//!   several times (the median is `setup_s`), then passes over the
//!   workload's driver calls repeat for `--seconds`.
//! * `--trace 1` measures the per-layer metrics: untraced and traced passes
//!   alternate for half of `--seconds` (the traced ones time the task
//!   source, the checkpoint sink and `resume_stream` from this side of the
//!   calls), then the layer replay (`replay.rs`) times the engine, the
//!   scheduler, the locality model and the timing wheel call by call.

#![forbid(unsafe_code)]

mod pass;
mod replay;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use tdm_bench::baseline::json;
use tdm_bench::cli::Args;

use pass::{Modeled, Pass};
use workloads::{setup, SetupTrace, Size};

/// An end-to-end run sets its inputs up [`SETUP_MIN_REPS`] times before
/// the first pass and up to [`SETUP_REPS_PER_PASS`] times after each pass
/// while set-up has taken less than [`SETUP_SHARE`] of the elapsed run (at
/// most [`SETUP_MAX_REPS`] times in all); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_REPS_PER_PASS: usize = 64;
const SETUP_MAX_REPS: usize = 2_001;
const SETUP_SHARE: f64 = 0.1;
/// Set-ups shorter than this are timed in batches that last about this long.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// End-to-end metrics (`--trace 0`), by name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_tasks_per_s", "1/s"),
    ("ns_per_task_p50", "ns"),
    ("ns_per_task_tail", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_cycles", "cycles"),
];

/// Per-layer metrics (`--trace 1`), by name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("engine.create_ns", "ns"),
    ("engine.finish_ns", "ns"),
    ("dmu.creates", "count"),
    ("dmu.add_dependences", "count"),
    ("dmu.finishes", "count"),
    ("dmu.stalls", "count"),
    ("dmu.stall_cycles", "cycles"),
    ("dmu.peak_tasks", "count"),
    ("dmu.peak_deps", "count"),
    ("dmu.accesses", "count"),
    ("cache.probe_ns", "ns"),
    ("cache.record_ns", "ns"),
    ("cache.hit_frac", "fraction"),
    ("scheduler.push_ns", "ns"),
    ("scheduler.pop_ns", "ns"),
    ("scheduler.pool_max", "count"),
    ("event.schedule_ns", "ns"),
    ("event.pop_batch_ns", "ns"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("exec.resume_ms", "ms"),
    ("fault.injected", "count"),
    ("fault.retries", "count"),
    ("trace.bytes", "bytes"),
    ("trace.dump_ms", "ms"),
    ("trace.parse_ms", "ms"),
    ("workloads.next_task_ms", "ms"),
    ("exec.drive_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("exec.peak_resident_tasks", "count"),
    ("model.master_deps_frac", "fraction"),
    ("model.idle_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("check_fail_frac", "fraction"),
];

#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(raw: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = Args::new(raw);
    while let Some(flag) = args.next_flag() {
        let value = args.value(&flag)?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("{what} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A finished run: its metrics in catalogue order, its checks, and lines
/// that say how the figures were taken.
#[derive(Debug)]
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    fn new(catalogue: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Self {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or_else(|| panic!("metric {name} was not measured"), |&(_, v)| v);
                (name, value, unit)
            })
            .collect();
        Outcome {
            metrics,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// The human-readable lines followed by the JSON result line.
    fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<28} {value:>20.4} {unit}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::escape(name),
                    json::finite(*value, name),
                    json::escape(unit)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Host peak resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sums the passes' checks, counting one more per pass after the first:
/// every pass's modeled totals must equal the first pass's.
fn check_totals(passes: &[&Pass]) -> (u64, u64) {
    let mut checks = Pass::default();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        checks.check(pass.modeled == passes[0].modeled, || {
            format!("pass {i}: modeled totals differ from pass 0")
        });
    }
    passes
        .iter()
        .fold((checks.attempted, checks.failed), |(a, f), p| {
            (a + p.attempted, f + p.failed)
        })
}

fn run_end_to_end(options: &Options, size: Size) -> Result<Outcome, String> {
    // Set-up repetitions: a few before the first pass, then more between
    // passes while set-up has taken less than SETUP_SHARE of the run, so
    // the median samples the host's state over the whole run. A set-up
    // shorter than SETUP_SAMPLE_S is timed in batches, each sample being a
    // batch's mean, so the clock's resolution does not dominate it.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    let mut bench = None;
    let set_up =
        |setup_s: &mut Vec<f64>, bench: &mut Option<Box<dyn workloads::Bench>>, batch: usize| {
            drop(bench.take());
            let mut built = Vec::with_capacity(batch);
            let start = Instant::now();
            for _ in 0..batch {
                built.push(setup(&options.workload, options.seed, size, None)?);
            }
            let seconds = start.elapsed().as_secs_f64();
            setup_s.push(seconds / batch as f64);
            *bench = built.pop();
            Ok::<f64, String>(seconds)
        };
    spent += set_up(&mut setup_s, &mut bench, 1)?;
    let batch = (SETUP_SAMPLE_S / setup_s[0]).ceil().clamp(1.0, 1e5) as usize;
    for _ in 1..SETUP_MIN_REPS {
        spent += set_up(&mut setup_s, &mut bench, batch)?;
    }
    let mut bench = bench.expect("at least one set-up ran");
    bench.prepare();

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut spare = None;
    let mut peak_mb = None;
    loop {
        let mut pass = Pass::default();
        bench.pass(false, &mut pass);
        passes.push(pass);
        // Every pass allocates alike, so the peak after the first one is
        // the run's; reading it here keeps the spare set-ups below out.
        if peak_mb.is_none() {
            peak_mb = Some(peak_rss_mb()?);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= options.seconds {
            break;
        }
        for _ in 0..SETUP_REPS_PER_PASS {
            if setup_s.len() >= SETUP_MAX_REPS || spent >= SETUP_SHARE * elapsed {
                break;
            }
            spent += set_up(&mut setup_s, &mut spare, batch)?;
        }
    }
    drop(spare);

    // Every pass makes the same calls over the same tasks, so each segment
    // of a call has one repetition per pass. The fastest repetition of each
    // is its cost with the least host interference; the metrics are taken
    // over those.
    let ns: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.segments.iter().map(|&(ns, _)| ns).collect())
        .collect();
    let rows: Vec<&[f64]> = ns.iter().map(Vec::as_slice).collect();
    let tasks_of = |p: &Pass| p.segments.iter().map(|&(_, t)| t).collect::<Vec<_>>();
    let aligned = passes.iter().all(|p| tasks_of(p) == tasks_of(&passes[0]));
    let best_ns = stats::best_of(&rows).filter(|_| aligned);
    let mut checks = Pass::default();
    checks.check(best_ns.is_some(), || {
        "passes cut into different segments".to_string()
    });
    let best_ns = best_ns.unwrap_or_else(|| ns[0].clone());
    let best_s = best_ns.iter().sum::<f64>() / 1e9;
    let samples: Vec<f64> = best_ns
        .iter()
        .zip(tasks_of(&passes[0]))
        .map(|(ns, tasks)| ns / tasks.max(1) as f64)
        .collect();
    let tasks = passes[0].tasks;
    let tail = stats::tail(&samples);
    let (attempted, failed) = check_totals(&passes.iter().collect::<Vec<_>>());
    let (attempted, failed) = (attempted + checks.attempted, failed + checks.failed);
    let mut outcome = Outcome::new(
        &END_TO_END,
        &[
            ("sim_tasks_per_s", ratio(tasks as f64, best_s)),
            ("ns_per_task_p50", stats::median(&samples)),
            ("ns_per_task_tail", tail.value),
            ("setup_s", stats::median(&setup_s)),
            ("peak_rss_mb", peak_mb.expect("one pass ran")),
            ("makespan_cycles", passes[0].modeled.makespan_cycles as f64),
        ],
    );
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.notes = vec![
        format!("workload {} seed {}", options.workload, options.seed),
        format!(
            "{} passes of {} segments and {tasks} simulated tasks; fastest repetitions \
             sum to {best_s:.3} s; set-up repeated {} times",
            passes.len(),
            samples.len(),
            setup_s.len()
        ),
        format!(
            "ns_per_task_tail is p{:.1} of {} samples",
            tail.percentile, tail.samples
        ),
        format!(
            "makespan_cycles is simulated time summed over one pass; dmu accesses {}",
            passes[0].modeled.dmu_accesses
        ),
        format!(
            "check_fail_frac {} ({failed} of {attempted} checks failed)",
            ratio(failed as f64, attempted as f64)
        ),
    ];
    Ok(outcome)
}

fn run_traced(options: &Options, size: Size) -> Result<Outcome, String> {
    let mut setup_trace = SetupTrace::default();
    let mut bench = setup(
        &options.workload,
        options.seed,
        size,
        Some(&mut setup_trace),
    )?;
    bench.prepare();

    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let mut pass = Pass::default();
        bench.pass(false, &mut pass);
        plain.push(pass);
        let mut pass = Pass::default();
        bench.pass(true, &mut pass);
        traced.push(pass);
        if start.elapsed().as_secs_f64() >= options.seconds / 2.0 {
            break;
        }
    }
    let layers = replay::replay(&bench.replay_cases(size.replay_tasks))?;

    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let drive_ms = per_pass(&|p| p.driver_s * 1e3);
    let plain_ms = stats::median(&plain.iter().map(|p| p.driver_s * 1e3).collect::<Vec<_>>());
    let (attempted, failed) = check_totals(&plain.iter().chain(&traced).collect::<Vec<_>>());
    let m: &Modeled = &traced[0].modeled;
    let mut outcome = Outcome::new(
        &PER_LAYER,
        &[
            ("engine.create_ns", layers.create.per_call()),
            ("engine.finish_ns", layers.finish.per_call()),
            ("dmu.creates", m.dmu_creates as f64),
            ("dmu.add_dependences", m.dmu_add_dependences as f64),
            ("dmu.finishes", m.dmu_finishes as f64),
            ("dmu.stalls", m.dmu_stalls as f64),
            ("dmu.stall_cycles", m.dmu_stall_cycles as f64),
            ("dmu.peak_tasks", m.dmu_peak_tasks as f64),
            ("dmu.peak_deps", m.dmu_peak_deps as f64),
            ("dmu.accesses", m.dmu_accesses as f64),
            ("cache.probe_ns", layers.probe.per_call()),
            ("cache.record_ns", layers.record.per_call()),
            (
                "cache.hit_frac",
                ratio(layers.hit_bytes as f64, layers.probed_bytes as f64),
            ),
            ("scheduler.push_ns", layers.push.per_call()),
            ("scheduler.pop_ns", layers.pop.per_call()),
            ("scheduler.pool_max", layers.pool_max as f64),
            ("event.schedule_ns", layers.schedule.per_call()),
            ("event.pop_batch_ns", layers.pop_batch.per_call()),
            ("snapshot.count", traced[0].snapshots as f64),
            ("snapshot.bytes", traced[0].snapshot_bytes as f64),
            ("snapshot.encode_ms", per_pass(&|p| p.encode_ns / 1e6)),
            ("snapshot.decode_ms", per_pass(&|p| p.decode_ns / 1e6)),
            ("exec.resume_ms", per_pass(&|p| p.resume_s * 1e3)),
            ("fault.injected", m.faults_injected as f64),
            ("fault.retries", m.retries as f64),
            ("trace.bytes", setup_trace.trace_bytes as f64),
            ("trace.dump_ms", setup_trace.dump_ns / 1e6),
            ("trace.parse_ms", setup_trace.parse_ns / 1e6),
            (
                "workloads.next_task_ms",
                setup_trace.next_task_ns / 1e6 + per_pass(&|p| p.source_ns / 1e6),
            ),
            ("exec.drive_ms", drive_ms),
            (
                "exec.self_ms",
                per_pass(&|p| p.driver_s * 1e3 - (p.source_ns + p.sink_ns) / 1e6),
            ),
            ("exec.peak_resident_tasks", m.peak_resident_tasks as f64),
            ("model.master_deps_frac", mean(&m.master_deps)),
            ("model.idle_frac", mean(&m.idle)),
            ("bench.trace_overhead_frac", ratio(drive_ms, plain_ms) - 1.0),
            ("check_fail_frac", ratio(failed as f64, attempted as f64)),
        ],
    );
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.notes = vec![
        format!(
            "workload {} seed {} (traced)",
            options.workload, options.seed
        ),
        format!(
            "{} untraced and {} traced passes; *_ms figures are medians per traced pass",
            plain.len(),
            traced.len()
        ),
        format!(
            "layer replay: {} creates, {} pushes, {} dispatches, {} wheel pops",
            layers.create.calls, layers.push.calls, layers.probe.calls, layers.pop_batch.calls
        ),
    ];
    Ok(outcome)
}

fn run(options: &Options, size: Size) -> Result<Outcome, String> {
    if options.trace {
        run_traced(options, size)
    } else {
        run_end_to_end(options, size)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_options(&raw).and_then(|options| run(&options, Size::FULL));
    match result {
        Ok(outcome) => {
            print!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                workloads::NAMES.join("|")
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let options = Options {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
        };
        run(&options, Size::SMOKE).expect("smoke run")
    }

    fn catalogue(doc: &Value, key: &str) -> Vec<(String, String)> {
        let obj = doc.as_object("BENCHMARK.json").unwrap();
        json::field(obj, key)
            .unwrap()
            .as_array(key)
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object(key).unwrap();
                let get = |k| json::field(m, k).unwrap().as_str(k).unwrap().to_string();
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(catalogue(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(catalogue(&doc, "per_layer"), owned(&PER_LAYER));
        let obj = doc.as_object("BENCHMARK.json").unwrap();
        let names: Vec<String> = json::field(obj, "workloads")
            .unwrap()
            .as_array("workloads")
            .unwrap()
            .iter()
            .map(|w| {
                let w = w.as_object("workload").unwrap();
                json::field(w, "name")
                    .unwrap()
                    .as_str("name")
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    /// Every catalogue metric prints exactly once with its unit, and the
    /// last line parses back to the same values.
    fn assert_prints(outcome: &Outcome, list: &[(&str, &str)]) {
        assert_eq!(outcome.failed, 0, "checks failed");
        let text = outcome.render();
        let lines: Vec<&str> = text.lines().collect();
        for &(name, unit) in list {
            let printed: Vec<&&str> = lines
                .iter()
                .filter(|l| l.split_whitespace().next() == Some(name))
                .collect();
            assert_eq!(printed.len(), 1, "{name} printed {} times", printed.len());
            assert_eq!(printed[0].split_whitespace().last(), Some(unit), "{name}");
        }
        let result = json::parse(lines.last().unwrap()).expect("last line is JSON");
        let obj = result.as_object("result").unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json::field(obj, "correct").unwrap(), &Value::Bool(true));
        assert!(
            json::field(obj, "attempted")
                .unwrap()
                .as_u64("attempted")
                .unwrap()
                >= 1
        );
        let metrics = json::field(obj, "metrics")
            .unwrap()
            .as_object("metrics")
            .unwrap();
        assert_eq!(metrics.len(), list.len());
        for ((name, value, unit), (key, parsed)) in outcome.metrics.iter().zip(metrics) {
            assert_eq!(name, key);
            let parsed = parsed.as_object(name).unwrap();
            assert_eq!(
                json::field(parsed, "value").unwrap().as_f64(name).unwrap(),
                *value
            );
            assert_eq!(
                json::field(parsed, "unit").unwrap().as_str(name).unwrap(),
                *unit
            );
        }
    }

    #[test]
    fn every_workload_prints_every_metric() {
        for workload in workloads::NAMES {
            assert_prints(&smoke(workload, false), &END_TO_END);
            assert_prints(&smoke(workload, true), &PER_LAYER);
        }
    }

    #[test]
    fn grammar_sw_never_calls_the_dmu() {
        let outcome = smoke("grammar_sw", true);
        for (name, value, _) in &outcome.metrics {
            if name.starts_with("dmu.") {
                assert_eq!(*value, 0.0, "{name}");
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_options(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_options(&args("--workload x --seed 1 --seconds 1")).is_err());
        let options = parse_options(&args("--workload x --seed 3 --seconds 4 --trace 1")).unwrap();
        assert!(options.trace && options.seed == 3 && options.seconds == 4.0);
        let unknown = Options {
            workload: "nope".to_string(),
            ..options
        };
        assert!(run(&unknown, Size::SMOKE).is_err());
    }
}
