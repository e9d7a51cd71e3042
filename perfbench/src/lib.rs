//! # perfbench
//!
//! The repository benchmark: three workloads driven through the program's
//! public API, end-to-end metrics with tracing off, and a traced run that
//! times every call the benchmark makes into each layer. See `README.md`
//! in this directory for the workloads, metrics and the command line.

pub mod layers;
pub mod measure;
pub mod report;
pub mod scratch;
pub mod spans;
pub mod stats;
pub mod stores;
pub mod verify;
pub mod workloads;
