//! The three workloads: how each is generated from a seed, how the program
//! is configured for it, and the calls that run it. Everything goes through
//! the program's public API: `RunBuilder` and `Recovery` for runs, and
//! `Engine::new` / `with_wal` / `run_until_history` / `crash` for the crash
//! point only. Policy `pred`, the incremental certifier and the events
//! runtime throughout.

use crate::stores::{TimingWal, WalHandle, WalLog};
use std::io::Read as _;
use std::path::Path;
use txproc_core::wal::{DurabilityPolicy, WalWriter};
use txproc_engine::policy::CertifierKind;
use txproc_engine::{
    ConcurrentConfig, Engine, PolicyKind, RunBuilder, RunConfig, RuntimeKind, ShardMode,
};
use txproc_sim::workload::{generate, Workload, WorkloadConfig};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Virtual-time engine over one growing conflict domain: certification
    /// dominates.
    StreamCertify,
    /// Concurrent events runtime over many small disjoint tenants: worker
    /// scheduling, shard locking and per-call certification cost dominate.
    BurstTenants,
    /// The stream-certify engine journaled to a file WAL, crashed and
    /// recovered from the durable bytes.
    DurableCrash,
}

/// How big one run of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Processes per generated workload instance.
    pub processes: usize,
    /// Distinct instances a run cycles through (instance `i` is generated
    /// from [`crate::stats::instance_seed`]`(seed, i)`).
    pub instances: usize,
}

/// Group fsync on epoch boundaries, the CLI's default flush policy. The
/// same on both sides of any comparison.
pub const FLUSH_POLICY: DurabilityPolicy = DurabilityPolicy::FsyncPerEpoch;
/// Snapshot cadence of the durable-crash journal, in history events.
pub const SNAPSHOT_EVERY: usize = 64;
/// Epoch size for group certification and batch commit.
pub const EPOCH: usize = 16;
/// Worker threads of the concurrent runtime.
pub const WORKERS: usize = 2;
/// Virtual ticks between engine arrivals.
pub const ARRIVAL_GAP: u64 = 10;

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 3] = [Kind::StreamCertify, Kind::BurstTenants, Kind::DurableCrash];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamCertify => "stream-certify",
            Kind::BurstTenants => "burst-tenants",
            Kind::DurableCrash => "durable-crash",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the virtual-time engine runs this workload.
    pub fn is_engine(self) -> bool {
        !matches!(self, Kind::BurstTenants)
    }

    /// The size a benchmark run uses.
    pub fn full_size(self) -> Size {
        match self {
            Kind::StreamCertify => Size {
                processes: 48,
                instances: 112,
            },
            Kind::BurstTenants => Size {
                processes: 8000,
                instances: 1,
            },
            Kind::DurableCrash => Size {
                processes: 32,
                instances: 144,
            },
        }
    }

    /// Generator parameters for one instance.
    pub fn workload_config(self, seed: u64, processes: usize) -> WorkloadConfig {
        match self {
            Kind::StreamCertify | Kind::DurableCrash => WorkloadConfig {
                seed,
                processes,
                conflict_density: if self == Kind::StreamCertify {
                    0.4
                } else {
                    0.3
                },
                failure_probability: 0.05,
                prefix_len: (2, 5),
                tail_len: (1, 3),
                alternative_probability: 0.5,
                ..WorkloadConfig::default()
            },
            Kind::BurstTenants => WorkloadConfig {
                seed,
                processes,
                clusters: (processes / 96).max(1),
                services_per_kind: 4,
                subsystems: 2,
                conflict_density: 0.3,
                failure_probability: 0.05,
                ..WorkloadConfig::default()
            },
        }
    }

    /// Generates one instance.
    pub fn generate(self, seed: u64, processes: usize) -> Workload {
        generate(&self.workload_config(seed, processes))
    }
}

/// Engine configuration of the engine workloads.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        policy: PolicyKind::Pred,
        seed,
        arrival_gap: ARRIVAL_GAP,
        certifier: CertifierKind::Incremental,
        epoch: EPOCH,
        ..RunConfig::default()
    }
}

/// Concurrent-driver configuration of burst-tenants.
pub fn concurrent_config(seed: u64) -> ConcurrentConfig {
    ConcurrentConfig {
        policy: PolicyKind::Pred,
        seed,
        certifier: CertifierKind::Incremental,
        shards: ShardMode::Auto,
        runtime: RuntimeKind::Events,
        workers: Some(WORKERS),
        epoch: EPOCH,
        ..ConcurrentConfig::default()
    }
}

/// A builder for an engine run of `w`.
pub fn engine_run(w: &Workload, seed: u64) -> RunBuilder<'_> {
    RunBuilder::new(w).config(run_config(seed))
}

/// A builder for a concurrent run of `w`.
pub fn concurrent_run(w: &Workload, seed: u64) -> RunBuilder<'_> {
    RunBuilder::new(w).concurrent(concurrent_config(seed))
}

/// A WAL writer over a fresh timing file store at `path`.
pub fn wal_writer(path: &Path, seed: u64) -> std::io::Result<(WalWriter, WalHandle)> {
    let (store, handle) = TimingWal::create(path)?;
    Ok((WalWriter::new(Box::new(store), FLUSH_POLICY, seed), handle))
}

/// Runs a journaled engine over `w` until its history holds `at` events,
/// then crashes it. The journal's unsynced tail reaches the file but not
/// its durable prefix; the returned counters say where that prefix ends.
pub fn crash_at(w: &Workload, seed: u64, path: &Path, at: usize) -> std::io::Result<WalLog> {
    let (writer, handle) = wal_writer(path, seed)?;
    let mut engine = Engine::new(w, run_config(seed)).with_wal(writer, SNAPSHOT_EVERY);
    engine.run_until_history(at);
    drop(engine.crash());
    Ok(handle.get())
}

/// Reads the first `len` bytes of the log at `path`: what survives a power
/// loss after the last sync.
pub fn read_durable(path: &Path, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(len as usize);
    std::fs::File::open(path)?
        .take(len)
        .read_to_end(&mut bytes)?;
    Ok(bytes)
}
