//! Performance-baseline measurement and regression gating.
//!
//! The ROADMAP's north star is a simulator that runs as fast as the hardware
//! allows, and optimisation claims are only credible against recorded
//! baselines. This module runs the Table II benchmark × backend matrix once,
//! records for every cell
//!
//! * **wall-clock throughput** (simulated tasks per second of host time) —
//!   the quantity optimisation PRs try to improve, gated with a relative
//!   tolerance because host machines differ, and
//! * **makespan cycles and DMU SRAM accesses** — *modeled* quantities that
//!   must never move under a pure performance optimisation; the CI gate
//!   fails on any drift, making them a correctness canary,
//!
//! and serialises the result to `BENCH_baseline.json` at the repository
//! root. The `bench_baseline` binary wraps this module with `emit` / `check`
//! subcommands; the CI `perf` job runs `check` on every push.
//!
//! The workspace builds offline with no external dependencies, so the JSON
//! is written and parsed by the minimal hand-rolled implementation in
//! [`json`] — sufficient for the fixed schema below and nothing more.

use std::time::Instant;

use tdm_runtime::exec::{simulate, Backend, ExecConfig};
use tdm_runtime::scheduler::SchedulerKind;
use tdm_workloads::Benchmark;

use crate::standard_config;

/// Version of the `BENCH_baseline.json` schema; bump when fields change so a
/// stale committed baseline fails loudly instead of comparing garbage.
///
/// The emitted file additionally records `geomean_tasks_per_sec` — the
/// matrix-wide geometric-mean throughput — so the perf trajectory across
/// PRs is machine-readable straight from the committed `BENCH_*.json`
/// history. The field is *derived* from the entries (recomputed on write,
/// ignored on read), so recording it is not a schema change.
pub const SCHEMA_VERSION: u64 = 1;

/// Default relative wall-clock regression tolerance of the CI gate: a fresh
/// measurement may be up to 25% slower than the committed baseline before the
/// gate fails (modeled metrics get no tolerance at all).
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.25;

/// Absolute wall-clock slack added on top of the relative tolerance. The
/// smallest matrix cells run in well under a millisecond, where scheduler
/// jitter alone exceeds any relative bound; this floor keeps the gate
/// meaningful on the big cells without false alarms on the tiny ones.
pub const WALL_ABS_SLACK_MS: f64 = 5.0;

/// Wall-clock repetitions per cell; the minimum is recorded. Modeled
/// metrics are asserted identical across repetitions (the simulator is
/// deterministic), so repetition only de-noises the host-time measurement.
pub const WALL_REPS: u32 = 3;

/// Allowed range for the host-speed normalisation factor (see
/// `host_speed_factor`). Hardware differences between a dev container and
/// a CI runner live comfortably inside ±4×; a matrix-wide median ratio
/// outside this band is treated as a real regression (or improvement), not
/// as hardware.
pub const HOST_FACTOR_BAND: (f64, f64) = (0.25, 4.0);

/// One cell of the benchmark × backend matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Benchmark name (Table II row).
    pub benchmark: String,
    /// Backend name (Section VI-C organisation).
    pub backend: String,
    /// Number of tasks simulated.
    pub tasks: u64,
    /// Modeled makespan in cycles — must be bit-identical across hosts and
    /// across pure performance optimisations.
    pub makespan_cycles: u64,
    /// Total DMU SRAM accesses (list-array walk totals included); zero for
    /// backends with software dependence tracking. Also drift-gated.
    pub dmu_accesses: u64,
    /// Host wall-clock time for the simulation, in milliseconds.
    pub wall_ms: f64,
    /// Simulated tasks per second of host time (the headline throughput).
    pub tasks_per_sec: f64,
}

impl BaselineEntry {
    /// True if `other` describes the same benchmark × backend cell.
    pub fn same_cell(&self, other: &BaselineEntry) -> bool {
        self.benchmark == other.benchmark && self.backend == other.backend
    }
}

/// A recorded performance baseline: the full matrix plus the configuration
/// it was measured with.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema version of the file this was read from / will be written to.
    pub schema_version: u64,
    /// Simulated cores (Table I chip).
    pub cores: u64,
    /// Duration-jitter seed of the runs.
    pub seed: u64,
    /// One entry per benchmark × backend cell.
    pub entries: Vec<BaselineEntry>,
}

/// The four runtime-system organisations of the comparison matrix.
pub fn matrix_backends() -> Vec<Backend> {
    vec![
        Backend::Software,
        Backend::tdm_default(),
        Backend::Carbon,
        Backend::task_superscalar_default(),
    ]
}

/// Runs one cell of the matrix and measures it: [`WALL_REPS`] repetitions,
/// minimum wall time (the achievable speed), with the modeled metrics
/// asserted identical across repetitions.
fn measure_cell(bench: Benchmark, backend: &Backend, config: &ExecConfig) -> BaselineEntry {
    // Hardware dependence tracking uses the TDM-optimal granularity, the
    // software runtimes their own optimum — the paper's methodology.
    let workload = match backend {
        Backend::Tdm(_) | Backend::TaskSuperscalar(_) => bench.tdm_workload(),
        Backend::Software | Backend::Carbon => bench.software_workload(),
    };
    let mut best_wall = f64::INFINITY;
    let mut reference = None;
    for _ in 0..WALL_REPS.max(1) {
        let start = Instant::now();
        let report = simulate(&workload, backend, SchedulerKind::Fifo, config);
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        let makespan = report.makespan();
        let accesses = report
            .hardware
            .as_ref()
            .map(|hw| hw.stats.total_accesses)
            .unwrap_or(0);
        match &reference {
            None => reference = Some((report.tasks, makespan, accesses)),
            Some(r) => assert_eq!(
                *r,
                (report.tasks, makespan, accesses),
                "{} × {}: nondeterministic modeled metrics",
                bench.name(),
                backend.name()
            ),
        }
    }
    let (tasks, makespan, dmu_accesses) = reference.expect("at least one repetition ran");
    BaselineEntry {
        benchmark: bench.name().to_string(),
        backend: backend.name().to_string(),
        tasks,
        makespan_cycles: makespan.raw(),
        dmu_accesses,
        wall_ms: best_wall * 1e3,
        tasks_per_sec: tasks as f64 / best_wall.max(1e-9),
    }
}

/// Measures the full Table II benchmark × backend matrix with the standard
/// 32-core configuration and returns a fresh [`Baseline`].
pub fn measure() -> Baseline {
    let config = standard_config();
    let mut entries = Vec::new();
    for bench in Benchmark::ALL {
        for backend in matrix_backends() {
            entries.push(measure_cell(bench, &backend, &config));
        }
    }
    Baseline {
        schema_version: SCHEMA_VERSION,
        cores: config.chip.num_cores as u64,
        seed: config.seed,
        entries,
    }
}

/// Host-speed normalisation factor: the median of per-cell
/// `fresh.wall_ms / committed.wall_ms` ratios.
///
/// A committed baseline carries the wall-clock of whatever machine recorded
/// it; CI runners are routinely slower (or faster) across the board. A code
/// regression, by contrast, slows *specific cells relative to the others*.
/// Dividing every cell's ratio by the matrix-wide median cancels uniform
/// host-speed differences while leaving per-cell regressions fully visible.
/// The trade-off: a slowdown hitting the *majority* of cells by a similar
/// factor is indistinguishable from a slower host and hides inside the
/// median — catching that reliably requires a same-host before/after
/// comparison (`bench_baseline emit` before the change, `check` after),
/// which is exactly the workflow perf PRs follow anyway. As a backstop, the
/// factor is clamped to [`HOST_FACTOR_BAND`]: real CI runners differ from
/// dev machines by low single-digit factors, so a median ratio beyond the
/// band stops being credited to hardware and the excess shows up as per-cell
/// failures.
///
/// The lower median is used (conservative: a smaller factor means a stricter
/// gate). Returns 1.0 when no cell pair is comparable.
fn host_speed_factor(current: &Baseline, committed: &Baseline) -> f64 {
    let mut ratios: Vec<f64> = committed
        .entries
        .iter()
        .filter_map(|want| {
            let got = current.entries.iter().find(|e| e.same_cell(want))?;
            // A cell with a zero, negative or non-finite wall on either side
            // carries no host-speed information (degenerate measurement or a
            // hand-edited file); it must not poison the median with a 0, ∞
            // or NaN ratio.
            let ratio = got.wall_ms / want.wall_ms;
            (want.wall_ms > 0.0 && ratio.is_finite() && ratio > 0.0).then_some(ratio)
        })
        .collect();
    // With fewer than three comparable cells the "median" degenerates to a
    // single cell's own ratio (or min/max of two), which would normalise a
    // real regression away as hardware. Too little signal: assume identical
    // hosts and let the per-cell tolerance do the judging.
    if ratios.len() < 3 {
        return 1.0;
    }
    ratios.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("non-finite ratios were filtered out")
    });
    ratios[(ratios.len() - 1) / 2].clamp(HOST_FACTOR_BAND.0, HOST_FACTOR_BAND.1)
}

/// Compares a fresh measurement against a committed baseline.
///
/// Returns every violation found (empty = gate passes):
///
/// * any makespan-cycle, DMU-access or task-count drift (modeled metrics
///   must be bit-identical),
/// * wall-clock more than `wall_tolerance` (relative) slower than recorded,
///   after normalising out the matrix-wide median host-speed ratio (see
///   `host_speed_factor`) and granting [`WALL_ABS_SLACK_MS`] of absolute
///   slack — so a slower CI host doesn't fail an unchanged tree, but a
///   change that slows particular cells still does,
/// * cells present in one baseline but missing from the other,
/// * schema or configuration mismatches.
pub fn compare(current: &Baseline, committed: &Baseline, wall_tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if current.schema_version != committed.schema_version {
        failures.push(format!(
            "schema version mismatch: measured v{}, committed v{} — regenerate the baseline",
            current.schema_version, committed.schema_version
        ));
        return failures;
    }
    if current.cores != committed.cores || current.seed != committed.seed {
        failures.push(format!(
            "configuration mismatch: measured {} cores / seed {}, committed {} cores / seed {}",
            current.cores, current.seed, committed.cores, committed.seed
        ));
        return failures;
    }
    let host_factor = host_speed_factor(current, committed);
    for want in &committed.entries {
        let Some(got) = current.entries.iter().find(|e| e.same_cell(want)) else {
            failures.push(format!(
                "{} × {}: missing from the fresh measurement",
                want.benchmark, want.backend
            ));
            continue;
        };
        let cell = format!("{} × {}", want.benchmark, want.backend);
        if got.tasks != want.tasks {
            failures.push(format!(
                "{cell}: task count drifted ({} measured vs {} recorded)",
                got.tasks, want.tasks
            ));
        }
        if got.makespan_cycles != want.makespan_cycles {
            failures.push(format!(
                "{cell}: makespan drifted ({} cycles measured vs {} recorded) — \
                 a performance change must not alter modeled time",
                got.makespan_cycles, want.makespan_cycles
            ));
        }
        if got.dmu_accesses != want.dmu_accesses {
            failures.push(format!(
                "{cell}: DMU access total drifted ({} measured vs {} recorded) — \
                 list-array walk accounting changed",
                got.dmu_accesses, want.dmu_accesses
            ));
        }
        let expected = want.wall_ms * host_factor;
        if got.wall_ms > expected * (1.0 + wall_tolerance) + WALL_ABS_SLACK_MS {
            failures.push(format!(
                "{cell}: wall-clock regression ({:.2} ms measured vs {:.2} ms recorded \
                 × host factor {host_factor:.2}, tolerance {:.0}% + {WALL_ABS_SLACK_MS} ms)",
                got.wall_ms,
                want.wall_ms,
                wall_tolerance * 100.0
            ));
        }
    }
    for got in &current.entries {
        if !committed.entries.iter().any(|e| e.same_cell(got)) {
            failures.push(format!(
                "{} × {}: not in the committed baseline — regenerate it",
                got.benchmark, got.backend
            ));
        }
    }
    failures
}

/// Geometric-mean throughput across the matrix, for the summary line.
pub fn geomean_tasks_per_sec(baseline: &Baseline) -> f64 {
    let values: Vec<f64> = baseline.entries.iter().map(|e| e.tasks_per_sec).collect();
    crate::geometric_mean(&values)
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

impl Baseline {
    /// Serialises to the committed `BENCH_baseline.json` format.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"benchmark\": {}, \"backend\": {}, \"tasks\": {}, \
                     \"makespan_cycles\": {}, \"dmu_accesses\": {}, \"wall_ms\": {:.3}, \
                     \"tasks_per_sec\": {:.1}}}",
                    json::escape(&e.benchmark),
                    json::escape(&e.backend),
                    e.tasks,
                    e.makespan_cycles,
                    e.dmu_accesses,
                    json::finite(e.wall_ms, "wall_ms"),
                    json::finite(e.tasks_per_sec, "tasks_per_sec"),
                )
            })
            .collect();
        json::document(
            &[
                ("schema_version", self.schema_version.to_string()),
                ("cores", self.cores.to_string()),
                ("seed", self.seed.to_string()),
                (
                    "geomean_tasks_per_sec",
                    format!(
                        "{:.1}",
                        json::finite(geomean_tasks_per_sec(self), "geomean_tasks_per_sec")
                    ),
                ),
            ],
            "entries",
            &rows,
        )
    }

    /// Parses a baseline back from JSON text.
    ///
    /// The summary field `geomean_tasks_per_sec` is *derived* from the
    /// entries, so it is not stored on the struct — but a committed file
    /// whose stored summary disagrees with its own per-cell records has been
    /// hand-edited or truncated, and comparing against it would gate on
    /// garbage. Loading recomputes the geomean and rejects the file when the
    /// stored value is off by more than the writer's own rounding
    /// (one decimal place).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem found,
    /// including a stored-vs-recomputed geomean mismatch.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let value = json::parse(text)?;
        let obj = value.as_object("top level")?;
        let schema_version = json::field(obj, "schema_version")?.as_u64("schema_version")?;
        let cores = json::field(obj, "cores")?.as_u64("cores")?;
        let seed = json::field(obj, "seed")?.as_u64("seed")?;
        let mut entries = Vec::new();
        for (i, item) in json::field(obj, "entries")?
            .as_array("entries")?
            .iter()
            .enumerate()
        {
            let e = item.as_object(&format!("entries[{i}]"))?;
            entries.push(BaselineEntry {
                benchmark: json::field(e, "benchmark")?
                    .as_str("benchmark")?
                    .to_string(),
                backend: json::field(e, "backend")?.as_str("backend")?.to_string(),
                tasks: json::field(e, "tasks")?.as_u64("tasks")?,
                makespan_cycles: json::field(e, "makespan_cycles")?.as_u64("makespan_cycles")?,
                dmu_accesses: json::field(e, "dmu_accesses")?.as_u64("dmu_accesses")?,
                wall_ms: json::field(e, "wall_ms")?.as_f64("wall_ms")?,
                tasks_per_sec: json::field(e, "tasks_per_sec")?.as_f64("tasks_per_sec")?,
            });
        }
        let baseline = Baseline {
            schema_version,
            cores,
            seed,
            entries,
        };
        // Optional for backward compatibility: files written before the
        // summary field existed simply lack it.
        if let Ok(stored) = json::field(obj, "geomean_tasks_per_sec") {
            let stored = stored.as_f64("geomean_tasks_per_sec")?;
            let recomputed = geomean_tasks_per_sec(&baseline);
            // The writer rounds the stored field *and* every entry's
            // throughput to one decimal, so the recomputed value can sit a
            // little off the stored one; a permille-level band covers that
            // accumulated rounding while still catching any real edit.
            let slack = 0.051 + recomputed.abs() * 1e-3;
            if !stored.is_finite() || (stored - recomputed).abs() > slack {
                return Err(format!(
                    "geomean_tasks_per_sec mismatch: file stores {stored}, but its own \
                     entries recompute to {recomputed:.1} — the baseline was edited or \
                     truncated; regenerate it with `bench_baseline emit`"
                ));
            }
        }
        Ok(baseline)
    }
}

/// A minimal JSON reader/writer for the baseline schema.
///
/// The workspace has no (de)serialisation dependency, so this module
/// implements exactly the subset of JSON the baseline file uses: objects,
/// arrays, strings without exotic escapes, numbers, plus `true`/`false`/
/// `null` for completeness.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (stored as f64, exact for the u64 ranges we use —
        /// cycle counts in this model stay far below 2^53).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Interprets the value as an object.
        pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        /// Interprets the value as an array.
        pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        /// Interprets the value as a string.
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        /// Interprets the value as an f64.
        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        /// Interprets the value as a non-negative integer.
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            let n = self.as_f64(what)?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{what}: expected non-negative integer, got {n}"));
            }
            Ok(n as u64)
        }
    }

    /// Assembles the JSON document shape every bench emitter uses — a flat
    /// header of scalar fields followed by one array of pre-rendered row
    /// objects:
    ///
    /// ```text
    /// {
    ///   "field": value,
    ///   ...
    ///   "list_key": [
    ///     {row},
    ///     ...
    ///   ]
    /// }
    /// ```
    ///
    /// Header values and rows are already-serialised JSON fragments (use
    /// [`escape`] for strings); sharing the assembly here keeps the
    /// baseline, sweep and event-microbench writers from each hand-rolling
    /// the brace/comma layout.
    pub fn document(header: &[(&str, String)], list_key: &str, rows: &[String]) -> String {
        let mut out = String::from("{\n");
        for (name, value) in header {
            out.push_str(&format!("  \"{name}\": {value},\n"));
        }
        out.push_str(&format!("  \"{list_key}\": [\n"));
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!("    {row}{comma}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Looks up a field of an object.
    pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field \"{name}\""))
    }

    /// Checks that a number is representable in JSON, returning it for
    /// inline use in a `format!`. `NaN` and the infinities have no JSON
    /// spelling — `{:.3}` renders them as `NaN`/`inf`, which every parser
    /// (including [`parse`] here) rejects. Failing at write time names the
    /// offending field instead of committing a file nothing can read back.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn finite(value: f64, what: &str) -> f64 {
        assert!(
            value.is_finite(),
            "{what}: cannot serialise non-finite value {value} as JSON"
        );
        value
    }

    /// Serialises a string with the escapes JSON requires.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                // \uXXXX — the writer emits these for other
                                // control characters, so the reader must
                                // round-trip them (BMP scalars only; no
                                // surrogate pairs in this schema).
                                let start = self.pos + 1;
                                let hex = self
                                    .bytes
                                    .get(start..start + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| {
                                        format!("truncated \\u escape at byte {}", self.pos)
                                    })?;
                                let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                    format!("bad \\u escape {hex:?} at byte {}", self.pos)
                                })?;
                                let c = char::from_u32(code).ok_or_else(|| {
                                    format!("\\u{hex} is not a scalar value (byte {})", self.pos)
                                })?;
                                out.push(c);
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "unsupported escape {:?} at byte {}",
                                    other.map(|c| c as char),
                                    self.pos
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input came from &str,
                        // so the boundaries are valid).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                        let c = s.chars().next().expect("peek saw a byte");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            cores: 32,
            seed: 42,
            entries: vec![
                BaselineEntry {
                    benchmark: "cholesky".to_string(),
                    backend: "TDM".to_string(),
                    tasks: 5984,
                    makespan_cycles: 123_456_789,
                    dmu_accesses: 98_765,
                    wall_ms: 12.5,
                    tasks_per_sec: 478_720.0,
                },
                BaselineEntry {
                    benchmark: "cholesky".to_string(),
                    backend: "Software".to_string(),
                    tasks: 5984,
                    makespan_cycles: 200_000_000,
                    dmu_accesses: 0,
                    wall_ms: 15.0,
                    tasks_per_sec: 398_933.3,
                },
                // A third cell keeps the host-factor median meaningful in
                // these tests (a 2-cell matrix degenerates to min/max).
                BaselineEntry {
                    benchmark: "cholesky".to_string(),
                    backend: "Carbon".to_string(),
                    tasks: 5984,
                    makespan_cycles: 190_000_000,
                    dmu_accesses: 0,
                    wall_ms: 10.0,
                    tasks_per_sec: 598_400.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let baseline = sample();
        let text = baseline.to_json();
        let back = Baseline::from_json(&text).unwrap();
        assert_eq!(back.schema_version, baseline.schema_version);
        assert_eq!(back.cores, 32);
        assert_eq!(back.seed, 42);
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.entries[0].benchmark, "cholesky");
        assert_eq!(back.entries[0].makespan_cycles, 123_456_789);
        assert_eq!(back.entries[0].dmu_accesses, 98_765);
        assert!((back.entries[0].wall_ms - 12.5).abs() < 1e-9);
    }

    #[test]
    fn identical_baselines_pass() {
        let b = sample();
        assert!(compare(&b, &b, DEFAULT_WALL_TOLERANCE).is_empty());
    }

    #[test]
    fn makespan_drift_fails_with_zero_tolerance() {
        let committed = sample();
        let mut current = sample();
        current.entries[0].makespan_cycles += 1;
        let failures = compare(&current, &committed, DEFAULT_WALL_TOLERANCE);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("makespan drifted"), "{failures:?}");
    }

    #[test]
    fn access_drift_fails() {
        let committed = sample();
        let mut current = sample();
        current.entries[0].dmu_accesses -= 1;
        let failures = compare(&current, &committed, DEFAULT_WALL_TOLERANCE);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("DMU access total"), "{failures:?}");
    }

    #[test]
    fn wall_clock_regression_beyond_tolerance_fails() {
        let mut committed = sample();
        committed.entries[0].wall_ms = 100.0;
        let mut current = committed.clone();
        // 20% slower: inside the 25% tolerance.
        current.entries[0].wall_ms = 120.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
        // Past tolerance plus the absolute slack (100 · 1.25 + 5 = 130 ms).
        current.entries[0].wall_ms = 131.0;
        let failures = compare(&current, &committed, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("wall-clock regression"),
            "{failures:?}"
        );
    }

    #[test]
    fn uniformly_slower_host_passes_but_cell_regression_still_fails() {
        let mut committed = sample();
        committed.entries[0].wall_ms = 100.0;
        committed.entries[1].wall_ms = 15.0;
        // A host exactly 2× slower across the board: median normalisation
        // absorbs it.
        let mut current = committed.clone();
        current.entries[0].wall_ms = 200.0;
        current.entries[1].wall_ms = 30.0;
        current.entries[2].wall_ms = committed.entries[2].wall_ms * 2.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
        // Same slow host, but one cell regressed 3× vs its recorded time
        // (1.5× beyond the host factor): the gate must still fire.
        current.entries[0].wall_ms = 300.0;
        let failures = compare(&current, &committed, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("wall-clock regression"),
            "{failures:?}"
        );
    }

    #[test]
    fn catastrophic_broad_regression_exceeds_host_factor_band() {
        // Every cell 8× slower: the median would normalise it away, but the
        // host-factor clamp (4×) refuses to credit that much to hardware —
        // all cells fail (8 > 4 · 1.25 with walls large enough that the
        // absolute slack is immaterial).
        let mut committed = sample();
        for e in &mut committed.entries {
            e.wall_ms = 100.0;
        }
        let mut current = committed.clone();
        for e in &mut current.entries {
            e.wall_ms = 800.0;
        }
        let failures = compare(&current, &committed, 0.25);
        assert_eq!(failures.len(), committed.entries.len(), "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("wall-clock regression")));
    }

    #[test]
    fn tiny_cells_get_absolute_slack() {
        // A sub-millisecond cell doubling in time is scheduler jitter, not a
        // regression; the absolute slack must absorb it.
        let mut committed = sample();
        committed.entries[0].wall_ms = 0.4;
        let mut current = committed.clone();
        current.entries[0].wall_ms = 0.9;
        assert!(compare(&current, &committed, 0.25).is_empty());
    }

    #[test]
    fn wall_clock_speedup_always_passes() {
        let committed = sample();
        let mut current = sample();
        current.entries[0].wall_ms = committed.entries[0].wall_ms * 0.1;
        current.entries[0].tasks_per_sec *= 10.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
    }

    #[test]
    fn missing_and_extra_cells_fail() {
        let committed = sample();
        let mut current = sample();
        current.entries[0].backend = "TaskSuperscalar".to_string();
        let failures = compare(&current, &committed, DEFAULT_WALL_TOLERANCE);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("missing")));
        assert!(failures.iter().any(|f| f.contains("not in the committed")));
    }

    #[test]
    fn schema_mismatch_fails_fast() {
        let committed = sample();
        let mut current = sample();
        current.schema_version += 1;
        let failures = compare(&current, &committed, DEFAULT_WALL_TOLERANCE);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("schema version"), "{failures:?}");
    }

    #[test]
    fn zero_wall_cells_do_not_poison_the_host_factor() {
        // One committed cell with a 0 ms wall (degenerate measurement): its
        // infinite ratio must be skipped, not fed to the median, and the
        // remaining identical cells still pass the gate.
        let mut committed = sample();
        committed.entries[0].wall_ms = 0.0;
        let mut current = committed.clone();
        current.entries[0].wall_ms = 3.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
        // And a fresh 0 ms cell against a committed positive wall (ratio 0)
        // must not drag the factor towards zero and fail healthy cells.
        let committed = sample();
        let mut current = sample();
        current.entries[0].wall_ms = 0.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
    }

    #[test]
    fn single_cell_matrix_uses_unit_host_factor() {
        // With one comparable cell the "median" is the cell's own ratio, so
        // a real 2× regression would be normalised away as hardware. The
        // minimum-comparable-cells rule pins the factor to 1.0 instead, and
        // the regression fires.
        let mut committed = sample();
        committed.entries.truncate(1);
        committed.entries[0].wall_ms = 100.0;
        let mut current = committed.clone();
        current.entries[0].wall_ms = 200.0;
        let failures = compare(&current, &committed, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("wall-clock regression"),
            "{failures:?}"
        );
        // An in-tolerance single cell still passes.
        current.entries[0].wall_ms = 110.0;
        assert!(compare(&current, &committed, 0.25).is_empty());
    }

    #[test]
    fn stored_geomean_is_recomputed_and_checked_on_load() {
        let baseline = sample();
        let good = baseline.to_json();
        // The writer's own output round-trips.
        Baseline::from_json(&good).expect("self-written geomean must verify");
        // Tampering with the stored summary (e.g. a bad hand merge) fails
        // the load with a recompute mismatch.
        let recomputed = geomean_tasks_per_sec(&baseline);
        let tampered = good.replace(
            &format!("\"geomean_tasks_per_sec\": {recomputed:.1}"),
            &format!("\"geomean_tasks_per_sec\": {:.1}", recomputed * 2.0),
        );
        assert_ne!(good, tampered, "replacement must have matched");
        let err = Baseline::from_json(&tampered).unwrap_err();
        assert!(err.contains("geomean_tasks_per_sec mismatch"), "{err}");
        // Files from before the summary field existed load fine without it.
        let without = good
            .lines()
            .filter(|l| !l.contains("geomean_tasks_per_sec"))
            .collect::<Vec<_>>()
            .join("\n");
        Baseline::from_json(&without).expect("summary field is optional");
    }

    #[test]
    #[should_panic(expected = "wall_ms: cannot serialise non-finite value")]
    fn non_finite_wall_is_rejected_at_write_time() {
        let mut baseline = sample();
        baseline.entries[0].wall_ms = f64::INFINITY;
        let _ = baseline.to_json();
    }

    #[test]
    #[should_panic(expected = "tasks_per_sec: cannot serialise non-finite value")]
    fn non_finite_throughput_is_rejected_at_write_time() {
        let mut baseline = sample();
        baseline.entries[0].tasks_per_sec = f64::NAN;
        let _ = baseline.to_json();
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Baseline::from_json("").is_err());
        assert!(Baseline::from_json("{").is_err());
        assert!(Baseline::from_json("[1, 2]").is_err());
        assert!(Baseline::from_json("{\"schema_version\": \"x\"}").is_err());
        assert!(json::parse("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn json_escape_round_trips() {
        // Includes a control character the writer serialises as \u0001.
        let tricky = "a\"b\\c\nd\u{1}e";
        let escaped = json::escape(tricky);
        assert!(escaped.contains("\\u0001"), "{escaped}");
        let text = format!("{{\"k\": {escaped}}}");
        let value = json::parse(&text).unwrap();
        let obj = value.as_object("t").unwrap();
        assert_eq!(json::field(obj, "k").unwrap().as_str("k").unwrap(), tricky);
        assert!(json::parse("{\"k\": \"\\u123\"}").is_err(), "truncated");
        assert!(json::parse("{\"k\": \"\\ud800\"}").is_err(), "surrogate");
    }
}
