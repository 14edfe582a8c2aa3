//! `tdm-lint` — workspace-aware static analysis for the TDM reproduction.
//!
//! Every guarantee the simulator sells (bit-identical replay across
//! backends, schedulers, thread counts, and snapshot/resume) rests on
//! source-level invariants: deterministic hashing, no wall-clock reads in
//! modeled code, total decoders, loss-free codec casts, and save/load
//! symmetry. This crate enforces them at `cargo` time with a hand-rolled
//! lexer and a lightweight item indexer — no external parser dependencies,
//! matching the workspace's no-external-dependencies policy.
//!
//! Layers:
//!
//! * [`lexer`] — Rust token stream with comments as a side channel.
//! * [`scope`] — per-file structural index: test regions, `Persist` impls,
//!   `tdm-lint: allow` comments.
//! * [`lints`] — the lint registry ([`lints::LINTS`]) and checks.
//! * [`runner`] — workspace walk and report formatting.
//!
//! The binary front-end is `tdm-lint check` (exits non-zero on findings)
//! and `tdm-lint list` (prints the registry). See ARCHITECTURE.md's
//! "Static analysis" section for the lint table and allow syntax.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod runner;
pub mod scope;

pub use lints::{classify, Finding, LINTS};
pub use runner::{check_workspace, Report};

/// Checks a single source file as if it lived at `rel_path` in the
/// workspace. This is the entry point the fixture corpus drives.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let class = lints::classify(rel_path);
    let idx = scope::FileIndex::build(source);
    lints::check_file(&class, &idx)
}
