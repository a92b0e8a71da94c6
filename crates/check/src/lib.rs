//! `svtox-check` — the in-tree property-based testing engine.
//!
//! A dependency-free quickcheck/proptest replacement sized for this
//! workspace, plus the cross-crate differential oracle suite built on it:
//!
//! * [`strategy`] — composable generators with integrated shrinking:
//!   integer ranges (binary-search shrinking), choices and weighted unions
//!   (shrink toward earlier entries), vectors (subset then element
//!   shrinking), and tuples.
//! * [`domain`] — strategies for this problem domain: random layered-DAG
//!   specs (shrinking through DAG-aware gate/input removal that preserves
//!   generator well-formedness), `.bench` text mutations, `InputState`
//!   values, primary-input vectors, and optimizer configurations. Also the
//!   shared random-circuit helpers of the integration suites.
//! * [`runner`] — deterministic case generation (case `i` streams from
//!   `derive_seed(seed, i)`), parallel fan-out through `svtox-exec` with a
//!   worker-count-invariant first-failure pick, greedy shrinking, and
//!   panic capture (a panicking property is a failing property).
//! * [`corpus`] — failure persistence: shrunk counterexamples land in
//!   `tests/corpus/` as `.case` files and are replayed before fresh
//!   generation on every subsequent run.
//! * [`suite`] — the built-in differential oracles (heuristic vs exact
//!   branch and bound, serial vs parallel, tri-valued vs two-valued
//!   simulation, incremental vs cold STA, leakage re-evaluation, parser
//!   fuzzing, RNG uniformity, device-model calibration).
//! * [`reference`] — slow reference implementations of optimized paths,
//!   built from public APIs, for the differential properties.
//! * [`report`] — per-property pass/fail/counterexample reports with text
//!   and deterministic JSON rendering.
//!
//! The CLI exposes the suite as `svtox check`; `tests/differential.rs`
//! runs it under `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod domain;
pub mod reference;
pub mod report;
pub mod runner;
pub mod strategy;
pub mod suite;

pub use report::{render_json, render_text, Counterexample, PropertyReport};
pub use runner::{check_property, CheckConfig};
pub use strategy::{choice, int_range, vec_of, weighted, Strategy};
pub use suite::{builtin_property_names, run_builtin_suite};
