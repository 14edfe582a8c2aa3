//! Trace ingestion and dumping: replaying task-graph traces as a
//! [`TaskSource`].
//!
//! Real task-based codes (an OpenMP/OmpSs runtime with tracing enabled, an
//! HPX task graph) can be replayed through the simulator by writing their
//! task streams in a small line-oriented text format and feeding the file to
//! [`TraceSource`]. The source implements [`TaskSource`] — including the
//! checkpoint cursor — so a trace runs eager (via `into_workload`),
//! streaming, windowed, checkpointed and swept exactly like a generator.
//! The matching writer, [`dump`], serialises *any* task source to the same
//! format; a dump of a parsed trace reproduces the file byte for byte, and a
//! replayed trace produces a bit-identical `RunReport` to the source it was
//! dumped from (pinned by `tests/conformance/trace.rs`).
//!
//! # Trace format (`tdmtrace v1`)
//!
//! ```text
//! tdmtrace v1
//! name grammar-42
//! locality 0.0
//! jitter 0.02
//! tasks 2
//! t produce 200000 out:0xa000:4096
//! t consume 150000 in:0xa000:4096 out:0xb000:64
//! ```
//!
//! * Line 1 is the magic + version. Blank lines and lines starting with `#`
//!   are ignored everywhere.
//! * `name`, `locality` (locality benefit), `jitter` (duration jitter) and
//!   `tasks` (declared task count) are header records; each appears exactly
//!   once, before the first task. Floats are written in Rust's shortest
//!   round-trip form, so re-dumping never perturbs them.
//! * Each `t` record is one task in creation order: kind (no whitespace),
//!   cost in cycles, then zero or more dependences as
//!   `direction:address:size` with direction `in`/`out`/`inout`, address in
//!   hex (`0x…`) and size in decimal bytes.
//!
//! Every malformed input is rejected with a named [`TraceError`] — bad
//! directions, truncated records, non-numeric costs — never a panic.
//!
//! # The canonical writer
//!
//! [`dump`] writes each task into one output buffer as the source yields
//! it, with decimal and `0x…` hex digits written by hand rather than
//! through `format!`, so a dump allocates nothing per task or dependence
//! and never holds the source's specs. The header needs the task count,
//! so it is put in front once the source is drained; its two floats use
//! `{:?}`, Rust's shortest round-trip form.
//!
//! # Example
//!
//! ```
//! use tdm_runtime::trace::{dump, TraceSource};
//! use tdm_runtime::stream::{TaskSource, WorkloadSource};
//! use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
//! use tdm_sim::clock::Cycle;
//!
//! let workload = Workload::new(
//!     "tiny",
//!     vec![TaskSpec::new("t0", Cycle::new(1000), vec![DependenceSpec::inout(0xA000, 64)])],
//! );
//! let text = dump(&mut WorkloadSource::new(&workload)).unwrap();
//! let mut replay = TraceSource::parse(&text).unwrap();
//! assert_eq!(replay.name(), "tiny");
//! assert_eq!(replay.next_task().unwrap(), workload.tasks[0]);
//! ```

use std::fmt;

use tdm_core::ids::DepDirection;

use crate::stream::TaskSource;
use crate::task::{DependenceSpec, TaskSpec};

/// Magic first line of a trace file.
const MAGIC: &str = "tdmtrace";
/// The format version this module reads and writes.
const VERSION: u64 = 1;

/// Everything that can be wrong with a trace file (or a source being
/// dumped). Each variant names the offending line and token so a bad trace
/// is a diagnosable error, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The file does not start with `tdmtrace <version>`.
    MissingHeader,
    /// The file declares a format version this reader does not support.
    UnsupportedVersion {
        /// Version the file declared.
        found: u64,
    },
    /// A header record (`name`, `locality`, `jitter`, `tasks`) is malformed,
    /// duplicated, missing, or appears after the first task.
    BadHeader {
        /// 1-based line number (0 when the problem is a missing record).
        line: usize,
        /// What is wrong.
        message: String,
    },
    /// A record starts with an unknown keyword.
    UnknownRecord {
        /// 1-based line number.
        line: usize,
        /// The unrecognised keyword.
        token: String,
    },
    /// A `t` record has fewer than the mandatory kind + cost fields.
    TruncatedRecord {
        /// 1-based line number.
        line: usize,
    },
    /// A task cost is not a number of cycles.
    BadCost {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A dependence triple is malformed (missing `:`s, bad address or size).
    BadDependence {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A dependence direction is not `in`, `out` or `inout`.
    BadDirection {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The `tasks` header and the number of `t` records disagree.
    TaskCountMismatch {
        /// Count the header declared.
        declared: usize,
        /// `t` records actually present.
        found: usize,
    },
    /// A task kind cannot be written (it contains whitespace, which the
    /// line format cannot carry).
    UnencodableKind {
        /// The offending kind string.
        kind: String,
    },
    /// Reading or writing the file failed.
    Io {
        /// Path involved.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingHeader => {
                write!(f, "trace does not start with `{MAGIC} v{VERSION}`")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "trace format v{found} is not supported (reader is v{VERSION})"
                )
            }
            TraceError::BadHeader { line, message } => {
                write!(f, "line {line}: bad header: {message}")
            }
            TraceError::UnknownRecord { line, token } => {
                write!(f, "line {line}: unknown record {token:?}")
            }
            TraceError::TruncatedRecord { line } => {
                write!(f, "line {line}: truncated task record (need kind and cost)")
            }
            TraceError::BadCost { line, token } => {
                write!(f, "line {line}: task cost {token:?} is not a cycle count")
            }
            TraceError::BadDependence { line, token } => {
                write!(
                    f,
                    "line {line}: dependence {token:?} is not direction:0xaddr:size"
                )
            }
            TraceError::BadDirection { line, token } => {
                write!(
                    f,
                    "line {line}: direction {token:?} is not in, out or inout"
                )
            }
            TraceError::TaskCountMismatch { declared, found } => {
                write!(f, "header declares {declared} tasks but trace has {found}")
            }
            TraceError::UnencodableKind { kind } => {
                write!(
                    f,
                    "task kind {kind:?} contains whitespace and cannot be written"
                )
            }
            TraceError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace: a materialised task list replayed in creation order as a
/// [`TaskSource`].
///
/// Unlike the closed-form generators, a trace's tasks come from a file, so
/// they are held in memory (the file was materialised anyway); the
/// checkpoint cursor is simply the replay position, making trace runs
/// checkpointable and resumable like any generator-backed run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSource {
    name: String,
    locality_benefit: f64,
    duration_jitter: f64,
    tasks: Vec<TaskSpec>,
    next: usize,
}

impl TraceSource {
    /// Parses a trace from its text form.
    pub fn parse(text: &str) -> Result<TraceSource, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        // Magic + version.
        let Some((_, first)) = lines.next() else {
            return Err(TraceError::MissingHeader);
        };
        let mut magic = first.split_ascii_whitespace();
        if magic.next() != Some(MAGIC) {
            return Err(TraceError::MissingHeader);
        }
        let version = magic
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or(TraceError::MissingHeader)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }

        let mut name: Option<String> = None;
        let mut locality: Option<f64> = None;
        let mut jitter: Option<f64> = None;
        let mut declared: Option<usize> = None;
        let mut tasks: Vec<TaskSpec> = Vec::new();

        for (line, text) in lines {
            let mut fields = text.split_ascii_whitespace();
            // Blank lines are filtered above, but stay total anyway.
            let Some(keyword) = fields.next() else {
                continue;
            };
            match keyword {
                "name" | "locality" | "jitter" | "tasks" => {
                    if !tasks.is_empty() {
                        return Err(TraceError::BadHeader {
                            line,
                            message: format!("{keyword} record after the first task"),
                        });
                    }
                    let value = fields.next().ok_or_else(|| TraceError::BadHeader {
                        line,
                        message: format!("{keyword} needs a value"),
                    })?;
                    let duplicate = |set: bool| -> Result<(), TraceError> {
                        if set {
                            return Err(TraceError::BadHeader {
                                line,
                                message: format!("duplicate {keyword} record"),
                            });
                        }
                        Ok(())
                    };
                    match keyword {
                        "name" => {
                            duplicate(name.is_some())?;
                            name = Some(value.to_string());
                        }
                        "locality" => {
                            duplicate(locality.is_some())?;
                            locality = Some(value.parse().map_err(|e| TraceError::BadHeader {
                                line,
                                message: format!("locality {value:?}: {e}"),
                            })?);
                        }
                        "jitter" => {
                            duplicate(jitter.is_some())?;
                            jitter = Some(value.parse().map_err(|e| TraceError::BadHeader {
                                line,
                                message: format!("jitter {value:?}: {e}"),
                            })?);
                        }
                        _ => {
                            duplicate(declared.is_some())?;
                            declared = Some(value.parse().map_err(|e| TraceError::BadHeader {
                                line,
                                message: format!("tasks {value:?}: {e}"),
                            })?);
                        }
                    }
                }
                "t" => {
                    let kind = fields.next().ok_or(TraceError::TruncatedRecord { line })?;
                    let cost = fields.next().ok_or(TraceError::TruncatedRecord { line })?;
                    let cycles: u64 = cost.parse().map_err(|_| TraceError::BadCost {
                        line,
                        token: cost.to_string(),
                    })?;
                    let mut deps = Vec::new();
                    for token in fields {
                        deps.push(parse_dependence(line, token)?);
                    }
                    tasks.push(TaskSpec::new(
                        kind,
                        tdm_sim::clock::Cycle::new(cycles),
                        deps,
                    ));
                }
                other => {
                    return Err(TraceError::UnknownRecord {
                        line,
                        token: other.to_string(),
                    })
                }
            }
        }

        let name = name.ok_or(TraceError::BadHeader {
            line: 0,
            message: "missing name record".to_string(),
        })?;
        let declared = declared.ok_or(TraceError::BadHeader {
            line: 0,
            message: "missing tasks record".to_string(),
        })?;
        if declared != tasks.len() {
            return Err(TraceError::TaskCountMismatch {
                declared,
                found: tasks.len(),
            });
        }
        Ok(TraceSource {
            name,
            locality_benefit: locality.unwrap_or(0.0),
            duration_jitter: jitter.unwrap_or(crate::task::DEFAULT_DURATION_JITTER),
            tasks,
            next: 0,
        })
    }

    /// Reads and parses a trace file.
    pub fn read_from(path: &str) -> Result<TraceSource, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        TraceSource::parse(&text)
    }

    /// Number of tasks in the trace.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the trace holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Collects the trace into an eager [`Workload`](crate::task::Workload).
    pub fn into_workload(self) -> crate::task::Workload {
        let mut workload = crate::task::Workload::new(self.name, self.tasks);
        workload.locality_benefit = self.locality_benefit;
        workload.duration_jitter = self.duration_jitter;
        workload
    }
}

fn parse_dependence(line: usize, token: &str) -> Result<DependenceSpec, TraceError> {
    let bad_dep = || TraceError::BadDependence {
        line,
        token: token.to_string(),
    };
    let mut parts = token.split(':');
    let dir = parts.next().ok_or_else(bad_dep)?;
    let addr = parts.next().ok_or_else(bad_dep)?;
    let size = parts.next().ok_or_else(bad_dep)?;
    if parts.next().is_some() {
        return Err(bad_dep());
    }
    let direction = match dir {
        "in" => DepDirection::In,
        "out" => DepDirection::Out,
        "inout" => DepDirection::InOut,
        _ => {
            return Err(TraceError::BadDirection {
                line,
                token: dir.to_string(),
            })
        }
    };
    let addr = addr
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(bad_dep)?;
    let size: u64 = size.parse().map_err(|_| bad_dep())?;
    Ok(DependenceSpec {
        addr,
        size,
        direction,
    })
}

impl TaskSource for TraceSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let spec = self.tasks.get(self.next)?.clone();
        self.next += 1;
        Some(spec)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks.len() - self.next)
    }

    fn locality_benefit(&self) -> f64 {
        self.locality_benefit
    }

    fn duration_jitter(&self) -> f64 {
        self.duration_jitter
    }

    fn checkpoint_cursor(&self) -> Option<u64> {
        Some(self.next as u64)
    }

    fn resume_at(&mut self, cursor: u64) {
        // A cursor beyond the trace (or beyond usize on a 32-bit host)
        // clamps to "fully drained" rather than wrapping.
        self.next = usize::try_from(cursor).map_or(self.tasks.len(), |c| c.min(self.tasks.len()));
    }
}

/// Serialises a task source to the `tdmtrace v1` text form, draining it.
///
/// The output is canonical — fixed record order, lowercase hex addresses,
/// shortest-round-trip floats — so dumping a parsed trace reproduces the
/// original file byte for byte ([`TraceSource::parse`] ∘ [`dump`] is the
/// identity on canonical traces).
///
/// Each task is written into the output as it is drawn, so the source is
/// never held in memory as specs; the header, which needs the task count,
/// is put in front once the source is drained. A task whose kind cannot
/// be written fails the dump with the first such kind, after the rest of
/// the source is drained.
pub fn dump(source: &mut dyn TaskSource) -> Result<String, TraceError> {
    let mut out = String::new();
    let mut count = 0usize;
    while let Some(spec) = source.next_task() {
        if let Err(error) = write_task(&mut out, &spec) {
            while source.next_task().is_some() {}
            return Err(error);
        }
        count += 1;
    }
    let header = format!(
        "{MAGIC} v{VERSION}\nname {}\nlocality {:?}\njitter {:?}\ntasks {count}\n",
        source.name(),
        source.locality_benefit(),
        source.duration_jitter()
    );
    out.insert_str(0, &header);
    Ok(out)
}

/// Appends one `t` record. Numbers are formatted in stack buffers rather
/// than through `format!`, which would allocate a `String` per task and per
/// dependence.
fn write_task(out: &mut String, spec: &TaskSpec) -> Result<(), TraceError> {
    if spec.kind.is_empty() || spec.kind.chars().any(char::is_whitespace) {
        return Err(TraceError::UnencodableKind {
            kind: spec.kind.clone(),
        });
    }
    out.push_str("t ");
    out.push_str(&spec.kind);
    out.push(' ');
    push_decimal(out, spec.duration.raw());
    for dep in &spec.deps {
        out.push_str(match dep.direction {
            DepDirection::In => " in:0x",
            DepDirection::Out => " out:0x",
            DepDirection::InOut => " inout:0x",
        });
        push_hex(out, dep.addr);
        out.push(':');
        push_decimal(out, dep.size);
    }
    out.push('\n');
    Ok(())
}

/// Appends `value` in decimal, as `{}` formats it.
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        let [low, ..] = (value % 10).to_le_bytes();
        *slot = b'0' + low;
        start -= 1;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    push_digits(out, &digits, start);
}

/// Appends `value` in lowercase hex without the `0x` prefix, as `{:x}`
/// formats it (so zero is `0`).
fn push_hex(out: &mut String, value: u64) {
    let mut digits = [0u8; 16];
    let nibbles = value
        .to_be_bytes()
        .into_iter()
        .flat_map(|byte| [byte >> 4, byte & 0xf]);
    for (slot, nibble) in digits.iter_mut().zip(nibbles) {
        *slot = if nibble < 10 {
            b'0' + nibble
        } else {
            b'a' + (nibble - 10)
        };
    }
    // Skip the leading zero nibbles, leaving at least one digit.
    let zeros = (value | 1).leading_zeros() / 4;
    push_digits(out, &digits, usize::try_from(zeros).unwrap_or(0));
}

/// Appends `digits[start..]`, ASCII digits built on the stack, in one copy.
fn push_digits(out: &mut String, digits: &[u8], start: usize) {
    if let Some(text) = digits
        .get(start..)
        .and_then(|ascii| std::str::from_utf8(ascii).ok())
    {
        out.push_str(text);
    }
}

/// Dumps a source to a file (see [`dump`]).
pub fn write_to(path: &str, source: &mut dyn TaskSource) -> Result<(), TraceError> {
    let text = dump(source)?;
    std::fs::write(path, text).map_err(|e| TraceError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WorkloadSource;
    use crate::task::Workload;
    use tdm_sim::clock::Cycle;

    fn sample() -> Workload {
        let mut w = Workload::new(
            "sample",
            vec![
                TaskSpec::new(
                    "produce",
                    Cycle::new(200_000),
                    vec![DependenceSpec::output(0xA000, 4096)],
                ),
                TaskSpec::new(
                    "consume",
                    Cycle::new(150_000),
                    vec![
                        DependenceSpec::input(0xA000, 4096),
                        DependenceSpec::inout(0xB000, 64),
                    ],
                ),
                TaskSpec::new("free", Cycle::new(1_000), vec![]),
            ],
        );
        w.locality_benefit = 0.25;
        w.duration_jitter = 0.1;
        w
    }

    #[test]
    fn dump_then_parse_is_identity_on_tasks_and_knobs() {
        let w = sample();
        let text = dump(&mut WorkloadSource::new(&w)).unwrap();
        let mut replay = TraceSource::parse(&text).unwrap();
        assert_eq!(replay.name(), "sample");
        assert_eq!(replay.locality_benefit(), 0.25);
        assert_eq!(replay.duration_jitter(), 0.1);
        assert_eq!(replay.len_hint(), Some(3));
        let mut produced = Vec::new();
        while let Some(spec) = replay.next_task() {
            produced.push(spec);
        }
        assert_eq!(produced, w.tasks);
    }

    #[test]
    fn parse_then_dump_is_byte_identity() {
        let w = sample();
        let text = dump(&mut WorkloadSource::new(&w)).unwrap();
        let mut replay = TraceSource::parse(&text).unwrap();
        let again = dump(&mut replay).unwrap();
        assert_eq!(text, again);
    }

    #[test]
    fn comments_blanks_and_padding_are_tolerated() {
        let text =
            "\n# a comment\ntdmtrace v1\nname x\n\n  tasks 1  \n# another\nt k 5 in:0x10:8\n";
        let mut src = TraceSource::parse(text).unwrap();
        assert_eq!(src.name(), "x");
        let task = src.next_task().unwrap();
        assert_eq!(task.kind, "k");
        assert_eq!(task.duration, Cycle::new(5));
        assert_eq!(task.deps, vec![DependenceSpec::input(0x10, 8)]);
        // Defaults apply when locality/jitter are omitted.
        assert_eq!(src.locality_benefit(), 0.0);
        assert_eq!(src.duration_jitter(), crate::task::DEFAULT_DURATION_JITTER);
    }

    #[test]
    fn checkpoint_cursor_resumes_mid_trace() {
        let w = sample();
        let text = dump(&mut WorkloadSource::new(&w)).unwrap();
        let mut src = TraceSource::parse(&text).unwrap();
        src.next_task();
        src.next_task();
        let cursor = src.checkpoint_cursor().unwrap();
        assert_eq!(cursor, 2);
        let mut resumed = TraceSource::parse(&text).unwrap();
        resumed.resume_at(cursor);
        assert_eq!(resumed.next_task(), src.next_task());
        assert_eq!(resumed.next_task(), None);
    }

    #[test]
    fn resume_past_the_end_clamps_to_drained() {
        // A cursor from a longer (or corrupt) checkpoint must not wrap or
        // panic: anything past the end means "no tasks left".
        let w = sample();
        let text = dump(&mut WorkloadSource::new(&w)).unwrap();
        let mut src = TraceSource::parse(&text).unwrap();
        src.resume_at(u64::MAX);
        assert_eq!(src.next_task(), None);
        assert_eq!(src.checkpoint_cursor(), Some(w.len() as u64));
    }

    #[test]
    fn missing_or_bad_magic_is_rejected() {
        assert_eq!(TraceSource::parse(""), Err(TraceError::MissingHeader));
        assert_eq!(
            TraceSource::parse("notatrace v1\n"),
            Err(TraceError::MissingHeader)
        );
        assert_eq!(
            TraceSource::parse("tdmtrace v9\nname x\ntasks 0\n"),
            Err(TraceError::UnsupportedVersion { found: 9 })
        );
    }

    #[test]
    fn bad_direction_is_a_named_error() {
        let text = "tdmtrace v1\nname x\ntasks 1\nt k 5 sideways:0x10:8\n";
        assert_eq!(
            TraceSource::parse(text),
            Err(TraceError::BadDirection {
                line: 4,
                token: "sideways".to_string()
            })
        );
    }

    #[test]
    fn truncated_record_is_a_named_error() {
        let text = "tdmtrace v1\nname x\ntasks 1\nt k\n";
        assert_eq!(
            TraceSource::parse(text),
            Err(TraceError::TruncatedRecord { line: 4 })
        );
    }

    #[test]
    fn non_numeric_cost_is_a_named_error() {
        let text = "tdmtrace v1\nname x\ntasks 1\nt k cheap in:0x10:8\n";
        assert_eq!(
            TraceSource::parse(text),
            Err(TraceError::BadCost {
                line: 4,
                token: "cheap".to_string()
            })
        );
    }

    #[test]
    fn malformed_dependences_are_named_errors() {
        for bad in [
            "in:0x10",
            "in:0x10:8:9",
            "in:ten:8",
            "in:0x10:lots",
            "in:10:8",
        ] {
            let text = format!("tdmtrace v1\nname x\ntasks 1\nt k 5 {bad}\n");
            assert_eq!(
                TraceSource::parse(&text),
                Err(TraceError::BadDependence {
                    line: 4,
                    token: bad.to_string()
                }),
                "{bad}"
            );
        }
    }

    #[test]
    fn header_problems_are_named_errors() {
        // Missing name.
        assert!(matches!(
            TraceSource::parse("tdmtrace v1\ntasks 0\n"),
            Err(TraceError::BadHeader { .. })
        ));
        // Missing tasks.
        assert!(matches!(
            TraceSource::parse("tdmtrace v1\nname x\n"),
            Err(TraceError::BadHeader { .. })
        ));
        // Duplicate record.
        assert!(matches!(
            TraceSource::parse("tdmtrace v1\nname x\nname y\ntasks 0\n"),
            Err(TraceError::BadHeader { .. })
        ));
        // Header after a task.
        assert!(matches!(
            TraceSource::parse("tdmtrace v1\nname x\ntasks 1\nt k 5\njitter 0.5\n"),
            Err(TraceError::BadHeader { .. })
        ));
        // Bad float.
        assert!(matches!(
            TraceSource::parse("tdmtrace v1\nname x\nlocality much\ntasks 0\n"),
            Err(TraceError::BadHeader { .. })
        ));
    }

    #[test]
    fn count_mismatch_and_unknown_records_are_rejected() {
        assert_eq!(
            TraceSource::parse("tdmtrace v1\nname x\ntasks 2\nt k 5\n"),
            Err(TraceError::TaskCountMismatch {
                declared: 2,
                found: 1
            })
        );
        assert_eq!(
            TraceSource::parse("tdmtrace v1\nname x\ntasks 0\nq what 5\n"),
            Err(TraceError::UnknownRecord {
                line: 4,
                token: "q".to_string()
            })
        );
    }

    #[test]
    fn whitespace_kind_cannot_be_dumped() {
        let w = Workload::new("w", vec![TaskSpec::new("two words", Cycle::new(5), vec![])]);
        assert_eq!(
            dump(&mut WorkloadSource::new(&w)),
            Err(TraceError::UnencodableKind {
                kind: "two words".to_string()
            })
        );
    }

    #[test]
    fn number_codecs_match_the_standard_library() {
        for value in [
            0,
            1,
            9,
            10,
            15,
            16,
            255,
            4096,
            0x7f00_0000_1dc0,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::new();
            push_decimal(&mut out, value);
            assert_eq!(out, value.to_string());
            out.clear();
            push_hex(&mut out, value);
            assert_eq!(out, format!("{value:x}"));
        }
    }

    #[test]
    fn errors_render_with_line_numbers() {
        let err = TraceError::BadDirection {
            line: 7,
            token: "up".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("line 7") && text.contains("up"));
    }
}
