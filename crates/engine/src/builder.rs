//! The canonical run entry point: one builder on which trace sinks,
//! telemetry, sampling, epochs, and durability compose as orthogonal
//! options, for both the virtual-time engine and the concurrent driver.
//!
//! ```ignore
//! // Virtual-time engine, traced, journaled to a WAL:
//! let out = RunBuilder::new(&workload)
//!     .config(RunConfig { seed, epoch: 16, ..RunConfig::default() })
//!     .sink(Box::new(journal.clone()))
//!     .durability(WalWriter::new(store, DurabilityPolicy::FsyncPerEpoch, seed), 64)
//!     .run()
//!     .into_engine();
//!
//! // Concurrent driver with telemetry:
//! let out = RunBuilder::new(&workload)
//!     .concurrent(ConcurrentConfig { seed, ..ConcurrentConfig::default() })
//!     .telemetry(tele)
//!     .run()
//!     .into_concurrent();
//! ```

use crate::concurrent::{run_concurrent_impl, ConcurrentConfig, ConcurrentResult};
use crate::engine::{Engine, RunConfig, RunResult};
use txproc_core::schedule::Schedule;
use txproc_core::telemetry::Telemetry;
use txproc_core::trace::{NoopSink, TraceSink};
use txproc_core::wal::WalWriter;
use txproc_sim::metrics::Metrics;
use txproc_sim::timeseries::TimeSeries;
use txproc_sim::workload::Workload;

/// What a [`RunBuilder`] run produced: the engine and the concurrent
/// driver keep their distinct result types (virtual ticks vs wall-clock
/// metrics, PRED verdict vs shard metrics), unified behind one enum with
/// accessors for the fields every run has.
#[derive(Debug)]
pub enum RunOutcome {
    /// A virtual-time engine run.
    Engine(RunResult),
    /// A concurrent-driver run.
    Concurrent(ConcurrentResult),
}

impl RunOutcome {
    /// The emitted (engine) or ticket-merged (concurrent) history.
    pub fn history(&self) -> &Schedule {
        match self {
            RunOutcome::Engine(r) => &r.history,
            RunOutcome::Concurrent(r) => &r.history,
        }
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        match self {
            RunOutcome::Engine(r) => &r.metrics,
            RunOutcome::Concurrent(r) => &r.metrics,
        }
    }

    /// Unwraps an engine run; panics on a concurrent one.
    pub fn into_engine(self) -> RunResult {
        match self {
            RunOutcome::Engine(r) => r,
            RunOutcome::Concurrent(_) => {
                panic!("RunOutcome::into_engine on a concurrent run; use into_concurrent")
            }
        }
    }

    /// Unwraps a concurrent run; panics on an engine one.
    pub fn into_concurrent(self) -> ConcurrentResult {
        match self {
            RunOutcome::Concurrent(r) => r,
            RunOutcome::Engine(_) => {
                panic!("RunOutcome::into_concurrent on an engine run; use into_engine")
            }
        }
    }
}

/// Builder over one workload run. Defaults to the virtual-time engine with
/// [`RunConfig::default`]; [`Self::concurrent`] switches to the concurrent
/// driver. Every other option composes with either driver (sampling is
/// engine-only — the concurrent driver has no virtual clock to stamp
/// samples with — and snapshot cadence is engine-only, since shard logs
/// carry no agent state to snapshot).
pub struct RunBuilder<'a> {
    workload: &'a Workload,
    engine_cfg: RunConfig,
    concurrent_cfg: Option<ConcurrentConfig>,
    sink: Option<Box<dyn TraceSink + 'a>>,
    tele: Telemetry,
    sampling: Option<(u64, TimeSeries)>,
    wal: Option<(WalWriter, usize)>,
}

impl<'a> RunBuilder<'a> {
    /// A builder for `workload`, set up as a default engine run.
    pub fn new(workload: &'a Workload) -> Self {
        Self {
            workload,
            engine_cfg: RunConfig::default(),
            concurrent_cfg: None,
            sink: None,
            tele: Telemetry::off(),
            sampling: None,
            wal: None,
        }
    }

    /// Engine configuration (seed, policy, epoch, failure injection, …).
    /// Ignored after [`Self::concurrent`].
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.engine_cfg = cfg;
        self
    }

    /// Switches the run to the concurrent driver with `cfg` (runtime,
    /// shards, workers, epoch, …).
    pub fn concurrent(mut self, cfg: ConcurrentConfig) -> Self {
        self.concurrent_cfg = Some(cfg);
        self
    }

    /// Emits the decision trace into `sink`. Install a cloned
    /// [`txproc_core::trace::Journal`] or [`txproc_core::trace::RingSink`]
    /// handle to read the trace back after the run.
    pub fn sink(mut self, sink: Box<dyn TraceSink + 'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Feeds phase timers and instruments into `tele`'s registry. A
    /// disabled handle keeps the hot paths at one branch per site.
    pub fn telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Samples the telemetry registry into `series` every `every_events`
    /// dispatch events (engine runs only; ignored by the concurrent
    /// driver, which has no virtual clock).
    pub fn sampling(mut self, every_events: u64, series: TimeSeries) -> Self {
        self.sampling = Some((every_events, series));
        self
    }

    /// Journals every durable state transition through `writer` (policy
    /// decides flush/fsync cadence). For engine runs, `snapshot_every > 0`
    /// additionally appends a full-state snapshot marker each time that
    /// many history events accumulated, so recovery replays only the log
    /// tail; concurrent runs journal ticket-stamped shard events and
    /// ignore the snapshot cadence.
    pub fn durability(mut self, writer: WalWriter, snapshot_every: usize) -> Self {
        self.wal = Some((writer, snapshot_every));
        self
    }

    /// Runs the configured driver. Panics on an invalid concurrent
    /// configuration; use [`Self::try_run`] for a `Result`.
    pub fn run(self) -> RunOutcome {
        match self.try_run() {
            Ok(out) => out,
            Err(msg) => panic!("invalid concurrent configuration: {msg}"),
        }
    }

    /// Fallible variant of [`Self::run`]: returns the configuration error
    /// (naming the knob to change) instead of panicking.
    pub fn try_run(self) -> Result<RunOutcome, String> {
        let sink = self.sink.unwrap_or_else(|| Box::new(NoopSink));
        match self.concurrent_cfg {
            Some(cfg) => {
                cfg.validate()?;
                Ok(RunOutcome::Concurrent(run_concurrent_impl(
                    self.workload,
                    cfg,
                    sink,
                    self.tele,
                    self.wal.map(|(writer, _)| writer),
                )))
            }
            None => {
                let mut engine = Engine::assemble(self.workload, self.engine_cfg, sink);
                engine.set_telemetry(self.tele);
                if let Some((every, series)) = self.sampling {
                    engine.set_sampling(every, series);
                }
                if let Some((writer, snapshot_every)) = self.wal {
                    engine.set_wal(writer, snapshot_every);
                }
                Ok(RunOutcome::Engine(engine.run()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_sim::workload::{generate, WorkloadConfig};

    #[test]
    fn try_run_reports_config_errors() {
        let w = generate(&WorkloadConfig {
            seed: 1,
            processes: 4,
            ..WorkloadConfig::default()
        });
        let bad = ConcurrentConfig {
            workers: Some(0),
            ..ConcurrentConfig::default()
        };
        let err = RunBuilder::new(&w).concurrent(bad).try_run().unwrap_err();
        assert!(err.contains("--workers"), "error names the knob: {err}");
        let ok = RunBuilder::new(&w)
            .concurrent(ConcurrentConfig::default())
            .try_run()
            .unwrap();
        assert_eq!(ok.metrics().terminated(), 4);
    }
}
