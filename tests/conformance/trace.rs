//! Trace replay conformance: a dumped run is the run.
//!
//! The `tdmtrace v1` line format ([`tdm::runtime::trace`]) is the bridge
//! between the generators and offline replay. These tests pin the contract
//! end to end: dumping any source and replaying the text must reproduce the
//! original execution bit for bit on every backend, the canonical encoding
//! must be a fixed point of `parse ∘ dump`, and malformed input must come
//! back as named [`TraceError`](tdm::runtime::trace::TraceError)s — never
//! panics. (Line-level corpus coverage — bad directions, truncated records,
//! non-numeric costs — lives in the module's unit tests; here we check the
//! replayed *execution*.)

use tdm::prelude::*;
use tdm::runtime::exec::simulate_stream;
use tdm::runtime::stream::{TaskSource, WorkloadSource};
use tdm::runtime::trace::{self, TraceError, TraceSource};
use tdm::sim::rng::SplitMix64;
use tdm::workloads::grammar::{self, GrammarSpec};

use crate::trace_reference::{self, ReferenceTrace};
use crate::{all_backends, conformance_config};

/// Grammar → dump → parse → replay reproduces the generator's streaming run
/// field for field on every backend, and re-dumping the parsed source is
/// byte-identical (the canonical encoding is a fixed point).
#[test]
fn trace_replay_reproduces_generator_run() {
    let config = conformance_config();
    for seed in [3, 42] {
        let spec = GrammarSpec::draw(seed);
        let text = trace::dump(&mut spec.stream()).expect("grammar dumps cleanly");
        let replay = TraceSource::parse(&text).expect("dump parses back");
        let again = trace::dump(&mut replay.clone()).expect("replay dumps cleanly");
        assert_eq!(text, again, "dump → parse → dump must be byte-identical");
        for backend in all_backends() {
            let context = format!("{} on {}", spec.name(), backend.name());
            let mut generated = spec.stream();
            let expected = simulate_stream(&mut generated, &backend, SchedulerKind::Fifo, &config);
            let mut replayed_source = replay.clone();
            let replayed =
                simulate_stream(&mut replayed_source, &backend, SchedulerKind::Fifo, &config);
            assert_eq!(expected, replayed, "{context}: trace replay diverged");
        }
    }
}

/// The benchmark generators round-trip through the trace format too — the
/// format is not grammar-specific.
#[test]
fn trace_replay_reproduces_benchmark_run() {
    let config = conformance_config();
    let bench = Benchmark::Blackscholes;
    let text = trace::dump(&mut bench.tdm_stream()).expect("benchmark dumps cleanly");
    let mut replay = TraceSource::parse(&text).expect("dump parses back");
    let mut generated = bench.tdm_stream();
    let expected = simulate_stream(
        &mut generated,
        &Backend::tdm_default(),
        SchedulerKind::Locality,
        &config,
    );
    let replayed = simulate_stream(
        &mut replay,
        &Backend::tdm_default(),
        SchedulerKind::Locality,
        &config,
    );
    assert_eq!(expected, replayed, "benchmark trace replay diverged");
}

/// Malformed traces are rejected with the named error for the offending
/// line — bad direction, truncated record, non-numeric cost, bad count —
/// and never panic.
#[test]
fn malformed_traces_are_rejected_with_named_errors() {
    let valid = trace::dump(&mut grammar::stream(5)).expect("dump");
    assert!(TraceSource::parse(&valid).is_ok());

    let bad_dir = valid.replacen("out:", "sideways:", 1);
    assert!(matches!(
        TraceSource::parse(&bad_dir),
        Err(TraceError::BadDirection { .. })
    ));

    let bad_cost = valid.lines().map(|l| {
        if let Some(rest) = l.strip_prefix("t ") {
            let mut parts = rest.split_whitespace();
            let kind = parts.next().unwrap_or("");
            return format!("t {kind} banana");
        }
        l.to_string()
    });
    let bad_cost: Vec<String> = bad_cost.collect();
    assert!(matches!(
        TraceSource::parse(&bad_cost.join("\n")),
        Err(TraceError::BadCost { .. })
    ));

    let truncated: String = valid
        .lines()
        .map(|l| if l.starts_with("t ") { "t lonely" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(matches!(
        TraceSource::parse(&truncated),
        Err(TraceError::TruncatedRecord { .. })
    ));

    let missing_tasks: String = valid
        .lines()
        .filter(|l| !l.starts_with("t "))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(matches!(
        TraceSource::parse(&missing_tasks),
        Err(TraceError::TaskCountMismatch { found: 0, .. })
    ));

    assert!(matches!(
        TraceSource::parse(""),
        Err(TraceError::MissingHeader)
    ));
    assert!(matches!(
        TraceSource::parse("tdmtrace v99\n"),
        Err(TraceError::UnsupportedVersion { .. })
    ));
}

/// Grammar seeds of the differential corpus.
const CORPUS_GRAMMAR_SEEDS: [u64; 4] = [1, 7, 42, 1009];
/// Tasks taken from the front of each benchmark stream for mutation.
const CORPUS_PREFIX_TASKS: usize = 48;
/// Mutated traces drawn per corpus base.
const MUTANTS_PER_BASE: usize = 60;

/// The unmutated corpus: every grammar draw and a prefix of every Table II
/// benchmark stream, dumped by the reference writer.
fn corpus_bases() -> Vec<String> {
    let mut sources: Vec<Workload> = CORPUS_GRAMMAR_SEEDS
        .iter()
        .map(|&seed| GrammarSpec::draw(seed).stream().into_workload())
        .collect();
    for bench in Benchmark::ALL {
        let mut stream = bench.tdm_stream();
        let tasks = std::iter::from_fn(|| stream.next_task())
            .take(CORPUS_PREFIX_TASKS)
            .collect();
        let mut prefix = Workload::new(bench.name(), tasks);
        prefix.locality_benefit = stream.locality_benefit();
        prefix.duration_jitter = stream.duration_jitter();
        sources.push(prefix);
    }
    sources
        .iter()
        .map(|w| trace_reference::dump(&mut WorkloadSource::new(w)).expect("corpus dumps"))
        .collect()
}

/// Asserts that the production parser and the reference parser agree on
/// `text`: both accept it with equal headers and equal tasks, or both reject
/// it with the same error. Returns a label of the shared outcome.
fn assert_parsers_agree(text: &str, context: &str) -> String {
    let ours = TraceSource::parse(text);
    let reference = trace_reference::parse(text);
    match (ours, reference) {
        (Ok(ours), Ok(reference)) => {
            assert_eq!(ours.name(), reference.name, "{context}: name");
            assert_eq!(
                ours.locality_benefit().to_bits(),
                reference.locality_benefit.to_bits(),
                "{context}: locality"
            );
            assert_eq!(
                ours.duration_jitter().to_bits(),
                reference.duration_jitter.to_bits(),
                "{context}: jitter"
            );
            assert_eq!(ours.len(), reference.tasks.len(), "{context}: task count");
            let mut replay = ours.clone();
            let replayed: Vec<TaskSpec> = std::iter::from_fn(|| replay.next_task()).collect();
            assert_eq!(replayed, reference.tasks, "{context}: replayed tasks");
            let ReferenceTrace { tasks, .. } = reference;
            assert_eq!(ours.into_workload().tasks, tasks, "{context}: workload");
            "ok".to_string()
        }
        (Err(ours), Err(reference)) => {
            assert_eq!(ours, reference, "{context}: error");
            format!("{ours:?}")
                .split([' ', '{'])
                .next()
                .unwrap_or_default()
                .to_string()
        }
        (ours, reference) => panic!(
            "{context}: the parsers disagree\n  ours: {:?}\n  reference: {:?}",
            ours.map(|_| "Ok"),
            reference.map(|_| "Ok")
        ),
    }
}

/// Replacement tokens for a number field: boundaries, overflow, leading
/// zeros and the sign and radix spellings `str::parse` is lenient or strict
/// about.
const NUMBER_TOKENS: [&str; 14] = [
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "000000000000000000000042",
    "+7",
    "+",
    "-1",
    "",
    "1_000",
    "٣",
    "0x10",
    "12a",
    " 5",
];

/// Replacement tokens for an address field (the part after `dir:`).
const ADDRESS_TOKENS: [&str; 14] = [
    "0x0",
    "0xffffffffffffffff",
    "0x10000000000000000",
    "0x0000000000000000000000001",
    "0xABCdef",
    "0x+10",
    "0x+",
    "0x",
    "0X10",
    "0x-1",
    "10",
    "0xg",
    "0x1f::",
    "0x١",
];

/// Task kinds outside plain ASCII, and kinds carrying whitespace that the
/// ASCII tokeniser does not split on.
const KIND_TOKENS: [&str; 10] = [
    "ké",
    "日本語",
    "a\u{a0}b",
    "\u{2003}k",
    "k\u{3000}",
    "x\u{85}y",
    "\u{feff}k",
    "x\u{200b}y",
    "v\u{b}t",
    "#k",
];

/// Applies one seeded mutation to `text`.
fn mutate(text: &str, op: u64, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let pick = |rng: &mut SplitMix64, len: usize| rng.next_below(len.max(1) as u64) as usize;
    let line = pick(rng, lines.len());
    // The whitespace-separated tokens of the chosen line.
    let mut tokens: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
    let token = pick(rng, tokens.len());
    match op {
        // A flipped bit anywhere (invalid UTF-8 becomes U+FFFD).
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = pick(rng, bytes.len());
            if let Some(byte) = bytes.get_mut(at) {
                *byte ^= 1 << rng.next_below(8);
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        // A dropped token.
        1 => {
            tokens.remove(token);
        }
        // A duplicated token.
        2 => {
            let copy = tokens[token].clone();
            tokens.insert(token, copy);
        }
        // CRLF line ends, everywhere or on one line.
        3 => {
            if rng.next_below(2) == 0 {
                return text.replace('\n', "\r\n");
            }
            tokens.last_mut().expect("split yields a token").push('\r');
        }
        // A run of tabs for a space.
        4 => {
            let spaces: Vec<usize> = lines[line].match_indices(' ').map(|(at, _)| at).collect();
            if let Some(&at) = spaces.get(pick(rng, spaces.len())) {
                lines[line].replace_range(at..=at, "\t\t");
            }
            return lines.join("\n") + "\n";
        }
        // A `#` line inserted, or a line commented out.
        5 => {
            if rng.next_below(2) == 0 {
                lines.insert(line, "# inserted comment t k 5".to_string());
            } else {
                lines[line].insert(0, '#');
            }
            return lines.join("\n") + "\n";
        }
        // A kind outside plain ASCII.
        6 => {
            let kind = KIND_TOKENS[pick(rng, KIND_TOKENS.len())];
            if tokens.len() > 1 {
                tokens[1] = kind.to_string();
            }
        }
        // A number field replaced: the cost, or a dependence's address or
        // size.
        7 => {
            let field = &mut tokens[token];
            let parts: Vec<&str> = field.split(':').collect();
            *field = if parts.len() == 3 {
                if rng.next_below(2) == 0 {
                    let address = ADDRESS_TOKENS[pick(rng, ADDRESS_TOKENS.len())];
                    format!("{}:{address}:{}", parts[0], parts[2])
                } else {
                    let size = NUMBER_TOKENS[pick(rng, NUMBER_TOKENS.len())];
                    format!("{}:{}:{size}", parts[0], parts[1])
                }
            } else {
                NUMBER_TOKENS[pick(rng, NUMBER_TOKENS.len())].to_string()
            };
        }
        // A header record broken: the count off by one, a record repeated,
        // or one moved after the first task.
        8 => {
            let header = 1 + pick(rng, 4.min(lines.len().saturating_sub(1)));
            match rng.next_below(3) {
                0 => {
                    if let Some(count) = lines[header].strip_prefix("tasks ") {
                        let count: usize = count.parse().unwrap_or(0);
                        lines[header] = format!("tasks {}", count + 1);
                    }
                }
                1 => {
                    let copy = lines[header].clone();
                    lines.insert(header, copy);
                }
                _ => {
                    let moved = lines.remove(header);
                    let at = lines.len().min(header + 2);
                    lines.insert(at, moved);
                }
            }
            return lines.join("\n") + "\n";
        }
        // Unicode whitespace padding the line, which `trim` strips.
        _ => {
            let pad = ["\u{2003}", "\u{b}", "\u{3000}", "\u{a0}", "\t"][pick(rng, 5)];
            lines[line] = format!("{pad}{}{pad}", lines[line]);
            return lines.join("\n") + "\n";
        }
    }
    lines[line] = tokens.join(" ");
    lines.join("\n") + "\n"
}

/// Differential test of the codec against the reference implementation it
/// replaced: on every unmutated corpus stream the writer is byte-identical
/// to the reference writer, and on every seeded mutation of the corpus the
/// two parsers return the same `Result` — equal tasks, or the same
/// `TraceError` on the same line.
#[test]
fn codec_matches_the_reference_on_a_mutation_corpus() {
    // Writer: whole streams, grammar and all nine benchmarks.
    for seed in CORPUS_GRAMMAR_SEEDS {
        let spec = GrammarSpec::draw(seed);
        assert_eq!(
            trace::dump(&mut spec.stream()),
            trace_reference::dump(&mut spec.stream()),
            "grammar {seed}: dump differs from the reference writer"
        );
    }
    for bench in Benchmark::ALL {
        assert_eq!(
            trace::dump(&mut bench.tdm_stream()),
            trace_reference::dump(&mut bench.tdm_stream()),
            "{}: dump differs from the reference writer",
            bench.name()
        );
    }

    let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
    let mut rng = SplitMix64::new(0x7D_7ACE);
    for (index, base) in corpus_bases().iter().enumerate() {
        // Unmutated: both parsers accept it and the writer is a fixed point.
        let label = assert_parsers_agree(base, &format!("base {index}"));
        assert_eq!(label, "ok", "base {index} must parse");
        let parsed = TraceSource::parse(base).expect("base parses");
        assert_eq!(trace::dump(&mut parsed.clone()).as_ref(), Ok(base));

        for mutant in 0..MUTANTS_PER_BASE {
            let mut text = base.clone();
            // One to three stacked mutations, cycling through every kind.
            for step in 0..1 + rng.next_below(3) {
                text = mutate(&text, (mutant as u64 + step) % 10, &mut rng);
            }
            // Name the case by its first changed lines, not the whole text.
            let changed: Vec<&str> = text
                .lines()
                .zip(base.lines().chain(std::iter::repeat("")))
                .filter(|(ours, theirs)| ours != theirs)
                .map(|(ours, _)| ours)
                .take(3)
                .collect();
            let context = format!("base {index} mutant {mutant}, changed lines {changed:?}");
            *outcomes
                .entry(assert_parsers_agree(&text, &context))
                .or_default() += 1;
        }
    }
    // The corpus must reach acceptance and a spread of distinct rejections,
    // or it tests nothing.
    assert!(
        outcomes.get("ok").copied().unwrap_or(0) > 10,
        "{outcomes:?}"
    );
    for variant in [
        "BadCost",
        "BadDependence",
        "BadDirection",
        "BadHeader",
        "TaskCountMismatch",
        "TruncatedRecord",
        "UnknownRecord",
    ] {
        assert!(
            outcomes.contains_key(variant),
            "{variant} never reached: {outcomes:?}"
        );
    }
}
