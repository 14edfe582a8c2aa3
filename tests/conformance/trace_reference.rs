//! The reference `tdmtrace v1` codec: the straightforward writer that the
//! streaming writer of [`tdm::runtime::trace`] replaced, and the parser that
//! any faster reader must keep agreeing with. It gathers the whole source
//! before writing, formats every record with `format!`, and parses numbers
//! with `str::parse`. The differential test in `trace.rs` holds the production
//! codec to it: identical bytes out of `dump`, identical `Result`s out of
//! `parse` (equal tasks, or the same [`TraceError`] on the same line).

use tdm::prelude::*;
use tdm::runtime::stream::TaskSource;
use tdm::runtime::task::DEFAULT_DURATION_JITTER;
use tdm::runtime::trace::TraceError;

const MAGIC: &str = "tdmtrace";
const VERSION: u64 = 1;

/// A trace parsed by the reference reader.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceTrace {
    pub name: String,
    pub locality_benefit: f64,
    pub duration_jitter: f64,
    pub tasks: Vec<TaskSpec>,
}

/// The reference reader.
pub fn parse(text: &str) -> Result<ReferenceTrace, TraceError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

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
                tasks.push(TaskSpec::new(kind, Cycle::new(cycles), deps));
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
    Ok(ReferenceTrace {
        name,
        locality_benefit: locality.unwrap_or(0.0),
        duration_jitter: jitter.unwrap_or(DEFAULT_DURATION_JITTER),
        tasks,
    })
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

/// The reference writer: gathers the whole source, then formats it.
pub fn dump(source: &mut dyn TaskSource) -> Result<String, TraceError> {
    let mut tasks = Vec::new();
    while let Some(spec) = source.next_task() {
        tasks.push(spec);
    }
    let mut out = String::new();
    out.push_str(&format!("{MAGIC} v{VERSION}\n"));
    out.push_str(&format!("name {}\n", source.name()));
    out.push_str(&format!("locality {:?}\n", source.locality_benefit()));
    out.push_str(&format!("jitter {:?}\n", source.duration_jitter()));
    out.push_str(&format!("tasks {}\n", tasks.len()));
    for spec in &tasks {
        if spec.kind.chars().any(|c| c.is_whitespace()) || spec.kind.is_empty() {
            return Err(TraceError::UnencodableKind {
                kind: spec.kind.clone(),
            });
        }
        out.push_str(&format!("t {} {}", spec.kind, spec.duration.raw()));
        for dep in &spec.deps {
            out.push_str(&format!(" {}:{:#x}:{}", dep.direction, dep.addr, dep.size));
        }
        out.push('\n');
    }
    Ok(out)
}
