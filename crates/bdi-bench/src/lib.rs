//! # bdi-bench — experiment harness
//!
//! Regenerates every table and figure in EXPERIMENTS.md. The `experiments`
//! binary runs them by id (`experiments e1`, `experiments all`); the
//! Criterion benches under `benches/` cover the wall-clock experiments.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod worlds;
