//! The untraced run: end-to-end metrics with tracing off.
//!
//! A run sets its workload up (generation plus `Engine::new` assembly)
//! three times, then runs rounds over all its instances until the time is
//! up, at least two rounds, and sets up once more after each round;
//! `setup_s` is the median set-up. `procs_per_s` is the processes of all
//! instances over the sum of each instance's fastest run. Other work on the
//! host only ever adds time to a run, and on a shared 2-core virtual machine
//! a fixed CPU loop took 35 to 60 ms from one second to the next, so the
//! median of a run follows the host's load while the per-instance minimum
//! over rounds taken seconds apart follows the program. Figures the virtual
//! clock fixes (commit ratio, ticks, journal bytes) come from the first
//! round, so they are exact for a given seed; durable-crash crashes and
//! recovers each instance in that round. Every run's output is checked;
//! for the deterministic engine, a repeat whose history equals the already
//! checked one needs no second check.

use crate::report::Metric;
use crate::stats::{instance_seed, median, peak_rss_mb, percentile};
use crate::stores::WalLog;
use crate::verify::{check_by_domain, check_engine, check_recovered, durable_commits, Verdict};
use crate::workloads::{
    concurrent_run, crash_at, engine_run, read_durable, run_config, wal_writer, Kind, Size,
    SNAPSHOT_EVERY,
};
use std::path::Path;
use std::time::{Duration, Instant};
use txproc_core::ids::ProcessId;
use txproc_core::schedule::Schedule;
use txproc_core::telemetry::Telemetry;
use txproc_core::wal::read_records;
use txproc_engine::{Engine, Recovery, RecoverySource};
use txproc_sim::metrics::Metrics;
use txproc_sim::workload::Workload;

/// Set-ups before the first round; one more follows each round, so the
/// median `setup_s` spans the whole run, not one moment of the host.
pub const SETUP_REPS: usize = 3;

/// One generated workload instance.
pub struct Instance {
    /// Seed of the generator and of the run's failure injection.
    pub seed: u64,
    /// The generated workload.
    pub workload: Workload,
}

impl Instance {
    /// Submitted processes.
    pub fn processes(&self) -> u64 {
        self.workload.spec.process_count() as u64
    }
}

/// Generates the run's instances, assembling an engine for each on the
/// engine workloads, and returns the time it took with the instances.
pub fn setup(kind: Kind, seed: u64, size: Size) -> (f64, Vec<Instance>) {
    let t = Instant::now();
    let instances = (0..size.instances)
        .map(|i| {
            let seed = instance_seed(seed, i);
            let workload = kind.generate(seed, size.processes);
            if kind.is_engine() {
                drop(std::hint::black_box(Engine::new(
                    &workload,
                    run_config(seed),
                )));
            }
            Instance { seed, workload }
        })
        .collect();
    (t.elapsed().as_secs_f64(), instances)
}

/// What one untraced run of an instance produced.
pub struct RunSummary {
    /// Wall seconds of the run call.
    pub run_s: f64,
    /// The emitted (engine) or merged (concurrent) history.
    pub history: Schedule,
    /// The driver's metrics.
    pub metrics: Metrics,
    /// Processes the engine reported stalled.
    pub stalled: Vec<ProcessId>,
    /// The journal's counters (durable-crash).
    pub wal: Option<WalLog>,
}

/// Runs `inst` once without a trace sink: the engine, journaled to
/// `wal_path` on durable-crash, or the concurrent runtime. `tele` is off
/// for the gated runs.
pub fn run_untraced(
    kind: Kind,
    inst: &Instance,
    wal_path: &Path,
    tele: Telemetry,
) -> std::io::Result<RunSummary> {
    let w = &inst.workload;
    if kind == Kind::BurstTenants {
        let t = Instant::now();
        let r = concurrent_run(w, inst.seed)
            .telemetry(tele)
            .run()
            .into_concurrent();
        return Ok(RunSummary {
            run_s: t.elapsed().as_secs_f64(),
            history: r.history,
            metrics: r.metrics,
            stalled: Vec::new(),
            wal: None,
        });
    }
    let (builder, handle) = if kind == Kind::DurableCrash {
        let (writer, handle) = wal_writer(wal_path, inst.seed)?;
        (
            engine_run(w, inst.seed).durability(writer, SNAPSHOT_EVERY),
            Some(handle),
        )
    } else {
        (engine_run(w, inst.seed), None)
    };
    let builder = builder.telemetry(tele);
    let t = Instant::now();
    let r = builder.run().into_engine();
    let run_s = t.elapsed().as_secs_f64();
    Ok(RunSummary {
        run_s,
        history: r.history,
        metrics: r.metrics,
        stalled: r.stalled,
        wal: handle.map(|h| h.get()),
    })
}

/// Checks a run's history.
pub fn check_run(kind: Kind, inst: &Instance, run: &RunSummary) -> Verdict {
    let spec = &inst.workload.spec;
    if kind.is_engine() {
        check_engine(spec, &run.history, &run.stalled)
    } else {
        check_by_domain(spec, &run.history, run.metrics.terminated())
    }
}

/// Outcome of one crash-and-recover step.
pub struct CrashOutcome {
    /// Seconds from restart to recovered state (`None` if recovery failed).
    pub recovery_s: Option<f64>,
    /// Processes lost, duplicated, or (on a recovery error) all of them.
    pub failed: u64,
}

/// Crashes a journaled engine over `inst` at `at` history events, recovers
/// from the bytes up to the last sync (timed: read plus `Recovery`), and
/// checks that no durably committed process was lost or had an effect
/// repeated.
pub fn crash_and_recover(inst: &Instance, at: usize, path: &Path) -> CrashOutcome {
    let failed_all = CrashOutcome {
        recovery_s: None,
        failed: inst.processes(),
    };
    let log = match crash_at(&inst.workload, inst.seed, path, at) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("crash run journal {}: {e}", path.display());
            return failed_all;
        }
    };
    // The durable commits are read first, so the check's copy of the log
    // is gone before recovery builds its own.
    let durable =
        read_durable(path, log.durable).map(|bytes| durable_commits(&read_records(&bytes).0));
    let t = Instant::now();
    let recovered = read_durable(path, log.durable)
        .map_err(|e| e.to_string())
        .and_then(|bytes| {
            Recovery::from(RecoverySource::WalBytes(bytes))
                .run(&inst.workload)
                .map_err(|e| e.to_string())
        });
    let recovery_s = t.elapsed().as_secs_f64();
    match (recovered, durable) {
        (Ok(report), Ok(durable)) => CrashOutcome {
            recovery_s: Some(recovery_s),
            failed: check_recovered(&durable, &report.history).len() as u64,
        },
        (recovered, durable) => {
            eprintln!(
                "recovery of instance {}: {:?} / {:?}",
                inst.seed,
                recovered.err(),
                durable.err()
            );
            failed_all
        }
    }
}

/// What an untraced run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Submitted processes over every run started.
    pub attempted: u64,
    /// Processes that failed a check.
    pub failed: u64,
    /// Workload generation plus engine assembly, median seconds.
    pub setup_s: f64,
    /// Terminated processes per wall second of the run.
    pub procs_per_s: f64,
    /// Committed ÷ submitted.
    pub commit_ratio: f64,
    /// Median virtual makespan over the instances (engine workloads).
    pub makespan_ticks: f64,
    /// Arrival-to-termination percentiles, virtual ticks (engine workloads).
    pub latency_p50_ticks: f64,
    /// See `latency_p50_ticks`.
    pub latency_p90_ticks: f64,
    /// Submission-to-termination percentiles, wall ms (burst-tenants).
    pub latency_p50_ms: f64,
    /// See `latency_p50_ms`.
    pub latency_p99_ms: f64,
    /// Restart to recovered state from the durable bytes, median ms.
    pub recovery_ms: f64,
    /// Journal bytes per history event (durable-crash).
    pub wal_bytes_per_event: f64,
    /// Peak resident set of this process, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The gated end-to-end metrics: every workload reports each of them.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", self.setup_s),
            Metric::new("procs_per_s", "processes/s", self.procs_per_s),
            Metric::new("commit_ratio", "fraction", self.commit_ratio),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }

    /// The workload-specific end-to-end figures (zero where the workload
    /// has no such quantity) and the failure share.
    pub fn workload_specific(&self) -> Vec<Metric> {
        vec![
            Metric::new("makespan_ticks", "ticks", self.makespan_ticks),
            Metric::new("latency_p50_ticks", "ticks", self.latency_p50_ticks),
            Metric::new("latency_p90_ticks", "ticks", self.latency_p90_ticks),
            Metric::new("latency_p50_ms", "ms", self.latency_p50_ms),
            Metric::new("latency_p99_ms", "ms", self.latency_p99_ms),
            Metric::new("recovery_ms", "ms", self.recovery_ms),
            Metric::new(
                "wal_bytes_per_event",
                "bytes/event",
                self.wal_bytes_per_event,
            ),
            Metric::new("failed_share", "fraction", self.failed_share()),
        ]
    }
}

/// Runs `kind` for about `seconds` with tracing off, in rounds over every
/// instance, at least two rounds. WAL files go to `scratch`.
pub fn measure(kind: Kind, seed: u64, seconds: f64, size: Size, scratch: &Path) -> Measured {
    let mut setup_times = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPS {
        let (t, generated) = setup(kind, seed, size);
        setup_times.push(t);
        instances = generated;
    }
    let mut m = Measured::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let wal_path = scratch.join("full.wal");
    let crash_path = scratch.join("crash.wal");
    let mut checked: Vec<Option<Schedule>> = instances.iter().map(|_| None).collect();
    // Per instance: the fastest run over the rounds, and its processes.
    let mut best_s = vec![f64::INFINITY; instances.len()];
    let mut terminated = vec![0u64; instances.len()];
    let mut recovery_ms = Vec::new();
    let (mut committed, mut submitted, mut events, mut wal_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut makespans = Vec::new();
    let mut latencies = Vec::new();
    let (mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new());
    for round in 0.. {
        // Two rounds at least, so every instance has a second sample.
        if round >= 2 && Instant::now() >= deadline {
            break;
        }
        // Time every instance first, then check them, so checking does
        // not sit between the timed runs.
        let mut runs = Vec::new();
        for inst in &instances {
            m.attempted += inst.processes();
            match run_untraced(kind, inst, &wal_path, Telemetry::off()) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("journal {}: {e}", wal_path.display());
                    m.failed += inst.processes();
                    return m;
                }
            }
        }
        for (i, run) in runs.iter().enumerate() {
            best_s[i] = best_s[i].min(run.run_s);
            terminated[i] = run.metrics.terminated();
        }
        for ((inst, run), checked) in instances.iter().zip(runs).zip(checked.iter_mut()) {
            if checked.as_ref() != Some(&run.history) {
                m.failed += check_run(kind, inst, &run).failed_count();
            }
            if kind == Kind::BurstTenants {
                committed += run.metrics.committed;
                submitted += inst.processes();
                p50_ms.push(percentile(&run.metrics.latencies, 0.50) as f64 / 1e3);
                p99_ms.push(percentile(&run.metrics.latencies, 0.99) as f64 / 1e3);
                continue;
            }
            if round == 0 {
                committed += run.metrics.committed;
                submitted += inst.processes();
                makespans.push(run.metrics.makespan as f64);
                latencies.extend_from_slice(&run.metrics.latencies);
                events += run.history.len() as u64;
                wal_bytes += run.wal.as_ref().map_or(0, |w| w.appended);
            }
            // The engine is deterministic, so one crash per instance covers
            // it; later rounds time the journaled run alone.
            if kind == Kind::DurableCrash && round == 0 {
                m.attempted += inst.processes();
                let crash = crash_and_recover(inst, run.history.len() * 2 / 3, &crash_path);
                m.failed += crash.failed;
                recovery_ms.extend(crash.recovery_s.map(|s| s * 1e3));
            }
            if kind.is_engine() {
                *checked = Some(run.history);
            }
        }
        setup_times.push(setup(kind, seed, size).0);
    }
    m.setup_s = median(&setup_times);
    m.procs_per_s = terminated.iter().sum::<u64>() as f64 / best_s.iter().sum::<f64>().max(1e-12);
    m.commit_ratio = committed as f64 / submitted.max(1) as f64;
    m.makespan_ticks = median(&makespans);
    m.latency_p50_ticks = percentile(&latencies, 0.50) as f64;
    m.latency_p90_ticks = percentile(&latencies, 0.90) as f64;
    m.latency_p50_ms = median(&p50_ms);
    m.latency_p99_ms = median(&p99_ms);
    m.recovery_ms = median(&recovery_ms);
    m.wal_bytes_per_event = wal_bytes as f64 / events.max(1) as f64;
    m.peak_rss_mb = peak_rss_mb();
    m
}
