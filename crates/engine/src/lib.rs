//! # txproc-engine
//!
//! A WISE-style **transactional process scheduler** (the system the PODS'99
//! paper's conclusion describes): it executes processes with guaranteed
//! termination over simulated transactional subsystems while keeping the
//! emitted history prefix-reducible (PRED) — the paper's unified
//! concurrency-control-and-recovery criterion.
//!
//! * [`policy`] — scheduling policies: the paper's PRED protocol
//!   (Lemmas 1–3, §3.5) and three baselines (serial, conservative
//!   process-level locking, and an *unsafe* concurrency-control-only
//!   scheduler that demonstrates why recovery must be considered jointly),
//! * [`engine`] — the deterministic virtual-time executor: admission
//!   control, failure injection, alternative execution paths, compensation,
//!   deferred 2PC commits, cascading aborts, metrics,
//! * [`concurrent`] — the same protocol under realistic concurrency: an
//!   event-driven worker pool over conflict-domain shards (stress-tested
//!   for PRED),
//! * [`recovery`] — scheduler crash recovery by group abort and completion
//!   replay from the durable logs (§3.3, Definition 8).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod concurrent;
pub mod durability;
pub mod engine;
pub mod policy;
pub mod recovery;

pub use builder::{RunBuilder, RunOutcome};
pub use concurrent::{run_concurrent, ConcurrentConfig, ConcurrentResult, RuntimeKind, ShardMode};
pub use engine::{run, Engine, RunConfig, RunResult};
pub use policy::{Policy, PolicyKind};
pub use recovery::{recover, CrashImage, Recovery, RecoveryError, RecoveryReport, RecoverySource};
