//! Persistent campaign corpus (engine v7).
//!
//! The paper's harness is meant to run continuously against an
//! evolving JIT, but exploration, probing and compilation are all
//! deterministic functions of the interpreter/compiler sources — so
//! none of that work needs to be redone when the sources haven't
//! changed. This crate persists the three cacheable layers of a sweep
//! to one binary file:
//!
//! 1. **explorations** — curated paths, probe models and recorded
//!    negation walks, keyed by the interpreter-side source
//!    fingerprint;
//! 2. **code** — compiled-code-cache artifacts (including refusals),
//!    keyed by the compiler-side fingerprint extended with the
//!    mutant-arming state;
//! 3. **outcomes** — whole-pipeline per-instruction verdicts, keyed
//!    by the combination — the section that makes a warm re-run
//!    against an unchanged compiler skip the pipeline outright.
//!
//! Invalidation is content-based ([`mod@fingerprint`]): every semantic
//! crate bakes an FNV-1a hash of its own sources in at compile time,
//! and each section mixes exactly the crates that can influence it.
//! Change the JIT and the code + outcome sections go stale while the
//! expensive exploration section stays warm; change nothing and a
//! re-sweep is almost pure cache replay.
//!
//! The file layer ([`mod@file`]) enforces the format's one hard rule:
//! a corpus can only ever make a run *faster or colder* — any
//! truncation, checksum mismatch, version skew or decode error
//! silently degrades to recomputing, never panics, never changes a
//! row.

pub mod codec;
pub mod file;
pub mod fingerprint;
pub mod wire;

pub use codec::{from_bytes, to_bytes, Wire};
pub use file::{encode, load, save, Corpus, CorpusEncoder, CorpusImage, ExplorationKey, LoadStats,
               OutcomeKey, SaveOutcome};
pub use fingerprint::{fingerprints, Fingerprints};
pub use wire::{Decoder, Encoder, WireError};
