//! The traced run: per-layer metrics.
//!
//! It starts with an untraced measurement (half the time, at least one pass
//! over the instances) for the workload-specific figures, then runs rounds
//! over the instances until the time is up. A round runs the instance once
//! untraced and once with telemetry only (the baselines of the overhead
//! figures), then once traced: the program's `Telemetry` on, a
//! benchmark-owned timing `TraceSink`, and on durable-crash a timing
//! `WalStore` over `FileWal`. After the traced run the round replays what
//! the program emitted through each layer from outside: the history through
//! `IncrementalPred::certify_keep` + `record`, the journal's records through
//! `WalWriter` over a `MemWal`, recovery split into `read_records`,
//! `rebuild_image` and `recover`, and the output checks. Every such call is
//! a span. Telemetry figures are the program's own inclusive counters, not
//! an exclusive breakdown.

use crate::measure::{check_run, measure, run_untraced, setup, Instance, Measured};
use crate::report::Metric;
use crate::spans::{totals_by_name, Recorder, Span};
use crate::stats::{median, percentile};
use crate::stores::{SinkCounters, TimingSink, WalLog};
use crate::verify::{
    check_by_domain, check_engine, check_recovered, durable_commits, project_by_domain, Verdict,
};
use crate::workloads::{
    concurrent_run, crash_at, engine_run, read_durable, run_config, wal_writer, Kind, Size,
    FLUSH_POLICY, SNAPSHOT_EVERY,
};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txproc_core::domains::DomainPartition;
use txproc_core::pred_incremental::IncrementalPred;
use txproc_core::schedule::Schedule;
use txproc_core::spec::Spec;
use txproc_core::telemetry::{Phase, Snapshot, Telemetry};
use txproc_core::wal::{encode_record, read_records, MemWal, WalRecord, WalWriter};
use txproc_engine::durability::rebuild_image;
use txproc_engine::{recover, Engine};
use txproc_sim::metrics::Metrics;

/// Every span name the traced run records, in call order.
pub const SPAN_NAMES: [&str; 12] = [
    "bench.iteration",
    "sim.workload.generate",
    "engine.engine.assemble",
    "engine.engine.run",
    "engine.concurrent.run",
    "engine.engine.crash_run",
    "core.wal.read_records",
    "engine.durability.rebuild_image",
    "engine.recovery.recover",
    "core.wal.reencode",
    "core.pred_incremental.replay",
    "verify.check",
];

/// Sums over the traced iterations (divided by their number on output).
#[derive(Debug, Default)]
struct Totals {
    iterations: u64,
    processes: u64,
    activities_defined: u64,
    events: u64,
    run: Metrics,
    shards: u64,
    phases: [(u64, u64); Phase::COUNT],
    sink_records: u64,
    sink_ns: u64,
    replay_ns: u64,
    replay_events: u64,
    wal: WalLog,
    wal_records: u64,
    wal_snapshots: u64,
    wal_snapshot_bytes: u64,
    wal_encode_ns: u64,
    recovery_durable: u64,
    recovery_discarded: u64,
    recovery_log_records: u64,
    recovery_replayed: u64,
    recovery_aborted: u64,
    recovery_compensations: u64,
    recovery_forward: u64,
    recovery_resolved: u64,
    recovery_runs: u64,
    verify: Verdict,
}

/// Run seconds of each round: untraced, telemetry only and traced (all
/// journaled on durable-crash), and the unlogged engine on durable-crash.
#[derive(Debug, Default)]
struct Pairs {
    untraced: Vec<f64>,
    telemetry: Vec<f64>,
    traced: Vec<f64>,
    unlogged: Vec<f64>,
}

/// What the traced run produced.
pub struct LayerRun {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<Metric>,
    /// The untraced measurement it began with.
    pub measured: Measured,
    /// Operations attempted by the traced rounds.
    pub attempted: u64,
    /// Operations that failed a check in the traced rounds.
    pub failed: u64,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Runs the traced measurement of `kind` for about `seconds`.
pub fn traced(kind: Kind, seed: u64, seconds: f64, size: Size, scratch: &Path) -> LayerRun {
    let measured = measure(kind, seed, seconds / 2.0, size, scratch);
    let (_, instances) = setup(kind, seed, size);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut rec = Recorder::new();
    let mut totals = Totals::default();
    let mut pairs = Pairs::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        let inst = &instances[round % instances.len()];
        round += 1;
        attempted += inst.processes();
        failed += paired_runs(kind, inst, scratch, &mut pairs);
        rec.set_iteration(round as u64);
        let (f, traced_s) = rec.span("bench.iteration", |rec| {
            iteration(kind, inst, size, scratch, rec, &mut totals)
        });
        attempted += inst.processes() * if kind == Kind::DurableCrash { 2 } else { 1 };
        failed += f;
        pairs.traced.push(traced_s);
    }
    let metrics = layer_metrics(kind, &totals, &pairs, &measured, rec.spans());
    LayerRun {
        metrics,
        measured,
        attempted,
        failed,
        spans: rec.spans().to_vec(),
    }
}

/// The baseline runs of a round: untraced and telemetry only (journaled
/// on durable-crash, like the traced run), plus the unlogged engine on
/// durable-crash. Returns failed processes.
fn paired_runs(kind: Kind, inst: &Instance, scratch: &Path, pairs: &mut Pairs) -> u64 {
    let path = scratch.join("pair.wal");
    let runs = run_untraced(kind, inst, &path, Telemetry::off()).and_then(|plain| {
        run_untraced(kind, inst, &path, Telemetry::on()).map(|tele| (plain, tele))
    });
    let (plain, tele) = match runs {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("journal {}: {e}", path.display());
            return inst.processes();
        }
    };
    pairs.untraced.push(plain.run_s);
    pairs.telemetry.push(tele.run_s);
    if kind == Kind::DurableCrash {
        let t = Instant::now();
        drop(engine_run(&inst.workload, inst.seed).run());
        pairs.unlogged.push(t.elapsed().as_secs_f64());
    }
    check_run(kind, inst, &plain).failed_count()
}

/// One traced iteration. Returns (failed processes, traced run seconds).
fn iteration(
    kind: Kind,
    inst: &Instance,
    size: Size,
    scratch: &Path,
    rec: &mut Recorder,
    totals: &mut Totals,
) -> (u64, f64) {
    totals.iterations += 1;
    totals.processes += inst.processes();
    let w = rec.span("sim.workload.generate", |_| {
        kind.generate(inst.seed, size.processes)
    });
    totals.activities_defined += w.spec.processes().map(|p| p.len() as u64).sum::<u64>();
    if kind.is_engine() {
        rec.span("engine.engine.assemble", |_| {
            drop(std::hint::black_box(Engine::new(&w, run_config(inst.seed))));
        });
    }
    let tele = Telemetry::on();
    let (sink, counters) = TimingSink::new();
    let mut failed = 0u64;
    let full_path = scratch.join("traced-full.wal");
    let (history, traced_s) = match kind {
        Kind::BurstTenants => {
            let t = Instant::now();
            let r = rec.span("engine.concurrent.run", |_| {
                concurrent_run(&w, inst.seed)
                    .telemetry(tele.clone())
                    .sink(Box::new(sink))
                    .run()
                    .into_concurrent()
            });
            let traced_s = t.elapsed().as_secs_f64();
            totals.shards += r.metrics.shards.len() as u64;
            add_run(totals, &r.metrics, &tele, &counters, r.history.len());
            let v = rec.span("verify.check", |_| {
                check_by_domain(&w.spec, &r.history, r.metrics.terminated())
            });
            failed += v.failed_count();
            add_verdict(totals, &v);
            (r.history, traced_s)
        }
        Kind::StreamCertify | Kind::DurableCrash => {
            let mut builder = engine_run(&w, inst.seed)
                .telemetry(tele.clone())
                .sink(Box::new(sink));
            let mut handle = None;
            if kind == Kind::DurableCrash {
                match wal_writer(&full_path, inst.seed) {
                    Ok((writer, h)) => {
                        builder = builder.durability(writer, SNAPSHOT_EVERY);
                        handle = Some(h);
                    }
                    Err(e) => {
                        eprintln!("journal {}: {e}", full_path.display());
                        return (inst.processes() * 2, 0.0);
                    }
                }
            }
            let t = Instant::now();
            let r = rec.span("engine.engine.run", |_| builder.run().into_engine());
            let traced_s = t.elapsed().as_secs_f64();
            add_run(totals, &r.metrics, &tele, &counters, r.history.len());
            if let Some(h) = handle {
                let log = h.get();
                add_wal(totals, &log);
                failed += durable_layers(inst, &full_path, r.history.len(), scratch, rec, totals);
            }
            let v = rec.span("verify.check", |_| {
                check_engine(&w.spec, &r.history, &r.stalled)
            });
            failed += v.failed_count();
            add_verdict(totals, &v);
            (r.history, traced_s)
        }
    };
    rec.span("core.pred_incremental.replay", |_| {
        let t = Instant::now();
        let replayed = replay_certifier(kind, &w.spec, &history);
        totals.replay_ns += t.elapsed().as_nanos() as u64;
        totals.replay_events += replayed;
    });
    (failed, traced_s)
}

/// Replays `history` through the incremental certifier, `certify_keep` then
/// `record` per event — per conflict domain on burst-tenants, where one
/// certifier over all tenants is not what the runtime runs. Returns events
/// replayed.
fn replay_certifier(kind: Kind, spec: &Spec, history: &Schedule) -> u64 {
    let replay = |h: &Schedule| {
        let mut cert = IncrementalPred::new(spec);
        for e in h.events() {
            let _ = std::hint::black_box(cert.certify_keep(e));
            let _ = std::hint::black_box(cert.record(e));
        }
        h.len() as u64
    };
    if kind.is_engine() {
        replay(history)
    } else {
        let partition = DomainPartition::partition(spec);
        project_by_domain(&partition, history)
            .values()
            .map(replay)
            .sum()
    }
}

/// The journal layers of a durable-crash iteration: the crash run, recovery
/// split into its three stages over the durable bytes, and re-encoding the
/// full journal's records. Returns failed processes.
fn durable_layers(
    inst: &Instance,
    full_path: &Path,
    full_len: usize,
    scratch: &Path,
    rec: &mut Recorder,
    totals: &mut Totals,
) -> u64 {
    let w = &inst.workload;
    let n = inst.processes();
    if let Ok(bytes) = std::fs::read(full_path) {
        let (records, _) = read_records(&bytes);
        totals.wal_records += records.len() as u64;
        for r in &records {
            if matches!(r, WalRecord::SnapshotMarker { .. }) {
                totals.wal_snapshots += 1;
                totals.wal_snapshot_bytes += encode_record(r).len() as u64;
            }
        }
        rec.span("core.wal.reencode", |_| {
            let t = Instant::now();
            reencode(inst.seed, &records);
            totals.wal_encode_ns += t.elapsed().as_nanos() as u64;
        });
    }
    let crash_path = scratch.join("traced-crash.wal");
    let log = match rec.span("engine.engine.crash_run", |_| {
        crash_at(w, inst.seed, &crash_path, full_len * 2 / 3)
    }) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("crash journal {}: {e}", crash_path.display());
            return n;
        }
    };
    totals.recovery_durable += log.durable;
    totals.recovery_discarded += log.appended - log.durable;
    let records = rec.span("core.wal.read_records", |_| {
        read_durable(&crash_path, log.durable).map(|bytes| read_records(&bytes).0)
    });
    let Ok(records) = records else {
        return n;
    };
    totals.recovery_log_records += records.len() as u64;
    let last_snapshot = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::SnapshotMarker { .. }));
    totals.recovery_replayed += records[last_snapshot.map_or(0, |i| i + 1)..]
        .iter()
        .filter(|r| matches!(r, WalRecord::Event { .. }))
        .count() as u64;
    let image = rec.span("engine.durability.rebuild_image", |_| {
        rebuild_image(w, &records)
    });
    let Ok(image) = image else {
        return n;
    };
    let report = rec.span("engine.recovery.recover", |_| recover(w, image));
    let Ok(report) = report else {
        return n;
    };
    totals.recovery_runs += 1;
    totals.recovery_aborted += report.aborted.len() as u64;
    totals.recovery_compensations += report.compensations as u64;
    totals.recovery_forward += report.forward as u64;
    totals.recovery_resolved += report.resolved_groups as u64;
    check_recovered(&durable_commits(&records), &report.history).len() as u64
}

/// Streams recorded journal records through a fresh writer over memory,
/// with epoch seals going through `seal_epoch` as in the original run.
fn reencode(seed: u64, records: &[WalRecord]) {
    let mut writer = WalWriter::new(Box::new(MemWal::new()), FLUSH_POLICY, seed);
    for record in records {
        match record {
            WalRecord::Begin { .. } => {}
            WalRecord::EpochSeal { epoch } => writer.seal_epoch(*epoch),
            other => writer.append(other),
        }
    }
    writer.finish();
}

fn add_run(
    totals: &mut Totals,
    metrics: &Metrics,
    tele: &Telemetry,
    counters: &Arc<SinkCounters>,
    events: usize,
) {
    totals.events += events as u64;
    totals.run.merge(metrics);
    if let Some(snap) = tele.snapshot() {
        add_phases(totals, &snap);
    }
    totals.sink_records += counters.records.load(Ordering::Relaxed);
    totals.sink_ns += counters.ns.load(Ordering::Relaxed);
}

fn add_phases(totals: &mut Totals, snap: &Snapshot) {
    for phase in Phase::ALL {
        if let Some(p) = snap.phase(phase) {
            totals.phases[phase.index()].0 += p.count;
            totals.phases[phase.index()].1 += p.total_ns;
        }
    }
}

fn add_wal(totals: &mut Totals, log: &WalLog) {
    totals.wal.appended += log.appended;
    totals.wal.appends += log.appends;
    totals.wal.append_ns += log.append_ns;
    totals.wal.sync_ns.extend_from_slice(&log.sync_ns);
}

fn add_verdict(totals: &mut Totals, v: &Verdict) {
    totals.verify.domains += v.domains;
    totals.verify.pred_violations += v.pred_violations;
    totals.verify.proc_rec_violations += v.proc_rec_violations;
}

/// `(a / b − 1) × 100`, or 0 without a baseline.
fn overhead_pct(with: &[f64], without: &[f64]) -> f64 {
    let (a, b): (f64, f64) = (with.iter().sum(), without.iter().sum());
    if b > 0.0 {
        (a / b - 1.0) * 100.0
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric, computed from the traced rounds.
fn layer_metrics(
    kind: Kind,
    t: &Totals,
    pairs: &Pairs,
    measured: &Measured,
    spans: &[Span],
) -> Vec<Metric> {
    let it = t.iterations.max(1) as f64;
    let per = |x: u64| x as f64 / it;
    let ms = |ns: u64| ns as f64 / 1e6 / it;
    let span_ns = totals_by_name(spans);
    let span_total = |name: &str| span_ns.get(name).map_or(0, |v| v.0);
    let run = &t.run;
    let rt = run.runtime.clone().unwrap_or_default();
    let phase = |p: Phase| t.phases[p.index()];
    let run_ns = span_total("engine.engine.run") + span_total("engine.concurrent.run");
    let lock_wait: u64 = run.shards.iter().map(|s| s.lock_wait_ns).sum();
    let lock_hold: u64 = run.shards.iter().map(|s| s.lock_hold_ns).sum();
    let wakeups: u64 = run.shards.iter().map(|s| s.wakeups).sum();
    let spurious: u64 = run.shards.iter().map(|s| s.spurious_wakeups).sum();
    let (certify_calls, certify_ns) = phase(Phase::Certify);
    let mut m = vec![
        Metric::new(
            "workload.generate_ms",
            "ms",
            ms(span_total("sim.workload.generate")),
        ),
        Metric::new("workload.activities", "count", per(t.activities_defined)),
        Metric::new(
            "engine.assemble_ms",
            "ms",
            ms(span_total("engine.engine.assemble")),
        ),
        Metric::new("engine.run_ms", "ms", ms(run_ns)),
        Metric::new("engine.events", "count", per(t.events)),
        Metric::new("engine.activities", "count", per(run.activities)),
        Metric::new("engine.compensations", "count", per(run.compensations)),
        Metric::new("engine.retries", "count", per(run.retries)),
        Metric::new(
            "engine.wasted_work_ratio",
            "fraction",
            ratio(run.compensations as f64, run.activities as f64),
        ),
        Metric::new("concurrent.shards", "count", per(t.shards)),
        Metric::new("concurrent.steps", "count", per(rt.steps)),
        Metric::new("concurrent.repolls", "count", per(rt.repolls)),
        Metric::new(
            "concurrent.useful_step_ratio",
            "fraction",
            if rt.steps > 0 {
                1.0 - ratio(run.waits as f64, rt.steps as f64)
            } else {
                0.0
            },
        ),
        Metric::new("concurrent.worker_busy_ms", "ms", ms(rt.worker_busy_ns)),
        Metric::new("concurrent.worker_idle_ms", "ms", ms(rt.worker_idle_ns)),
        Metric::new("concurrent.utilization", "fraction", rt.utilization()),
        Metric::new(
            "concurrent.busy_us_per_proc",
            "us",
            if rt.steps > 0 {
                rt.worker_busy_ns as f64 / 1e3 / t.processes.max(1) as f64
            } else {
                0.0
            },
        ),
        Metric::new(
            "concurrent.run_queue_peak",
            "count",
            rt.run_queue_peak as f64,
        ),
        Metric::new(
            "concurrent.in_flight_peak",
            "count",
            rt.in_flight_peak as f64,
        ),
        Metric::new(
            "concurrent.sched_delay_p50_ns",
            "ns",
            rt.delay_percentile_ns(0.50).unwrap_or(0) as f64,
        ),
        Metric::new(
            "concurrent.sched_delay_p99_ns",
            "ns",
            rt.delay_percentile_ns(0.99).unwrap_or(0) as f64,
        ),
        Metric::new("concurrent.lock_wait_ms", "ms", ms(lock_wait)),
        Metric::new("concurrent.lock_hold_ms", "ms", ms(lock_hold)),
        Metric::new("concurrent.wakeups", "count", per(wakeups)),
        Metric::new("concurrent.spurious_wakeups", "count", per(spurious)),
        Metric::new("policy.calls", "count", per(phase(Phase::Policy).0)),
        Metric::new("policy.ns", "ns", per(phase(Phase::Policy).1)),
        Metric::new("policy.waits", "count", per(run.waits)),
        Metric::new("policy.rejections", "count", per(run.rejections)),
        Metric::new(
            "policy.deferred_commits",
            "count",
            per(run.deferred_commits),
        ),
        Metric::new("abort.rejected", "count", per(run.abort_reasons.rejected)),
        Metric::new("abort.cascade", "count", per(run.abort_reasons.cascade)),
        Metric::new("abort.failure", "count", per(run.abort_reasons.failure)),
        Metric::new("abort.deadlock", "count", per(run.abort_reasons.deadlock)),
        Metric::new(
            "abort.cert_stuck",
            "count",
            per(run.abort_reasons.cert_stuck),
        ),
        Metric::new("certify.calls", "count", per(certify_calls)),
        Metric::new("certify.ns", "ns", per(certify_ns)),
        Metric::new("certify.failures", "count", per(run.cert_failures)),
        Metric::new(
            "certify.accept_ratio",
            "events/call",
            ratio(t.events as f64, certify_calls as f64),
        ),
        // Workers certify in parallel: on the concurrent runtime the share
        // is of their busy time, not of the run's wall time.
        Metric::new(
            "certify.run_share",
            "fraction",
            ratio(
                certify_ns as f64,
                if kind.is_engine() {
                    run_ns as f64
                } else {
                    rt.worker_busy_ns as f64
                },
            ),
        ),
        Metric::new("certify.replay_ms", "ms", ms(t.replay_ns)),
        Metric::new(
            "certify.replay_ns_per_event",
            "ns/event",
            ratio(t.replay_ns as f64, t.replay_events as f64),
        ),
        Metric::new("certify.epoch_batches", "count", per(run.epoch_batches)),
        Metric::new(
            "certify.epoch_fill",
            "events/epoch",
            ratio(run.epoch_events as f64, run.epoch_batches as f64),
        ),
        Metric::new(
            "subsystem.invocations",
            "count",
            per(run.activities + run.compensations + run.retries),
        ),
        Metric::new("subsystem.compensations", "count", per(run.compensations)),
        Metric::new("subsystem.retries", "count", per(run.retries)),
        Metric::new(
            "subsystem.compensation_ns",
            "ns",
            per(phase(Phase::Compensation).1),
        ),
        Metric::new("tpc.two_pc_ns", "ns", per(phase(Phase::TwoPc).1)),
        Metric::new("trace.records", "count", per(t.sink_records)),
        Metric::new("trace.sink_ns", "ns", per(t.sink_ns)),
        Metric::new(
            "trace.overhead_pct",
            "%",
            overhead_pct(&pairs.traced, &pairs.untraced),
        ),
        Metric::new(
            "telemetry.overhead_pct",
            "%",
            overhead_pct(&pairs.telemetry, &pairs.untraced),
        ),
    ];
    let sync_us: Vec<u64> = t.wal.sync_ns.iter().map(|ns| ns / 1000).collect();
    let sync_ns: u64 = t.wal.sync_ns.iter().sum();
    let recoveries = t.recovery_runs.max(1) as f64;
    let per_recovery = |x: u64| x as f64 / recoveries;
    let span_ms = |name: &str| span_total(name) as f64 / 1e6 / recoveries;
    m.extend([
        Metric::new("wal.appends", "count", per(t.wal.appends)),
        Metric::new("wal.bytes", "bytes", per(t.wal.appended)),
        Metric::new("wal.append_ms", "ms", ms(t.wal.append_ns)),
        Metric::new("wal.syncs", "count", per(t.wal.sync_ns.len() as u64)),
        Metric::new("wal.sync_ms", "ms", ms(sync_ns)),
        Metric::new("wal.sync_p50_us", "us", percentile(&sync_us, 0.5) as f64),
        Metric::new("wal.records", "count", per(t.wal_records)),
        Metric::new("wal.snapshots", "count", per(t.wal_snapshots)),
        Metric::new("wal.snapshot_bytes", "bytes", per(t.wal_snapshot_bytes)),
        Metric::new(
            "wal.snapshot_byte_share",
            "fraction",
            ratio(t.wal_snapshot_bytes as f64, t.wal.appended as f64),
        ),
        Metric::new("wal.encode_ms", "ms", ms(t.wal_encode_ns)),
        Metric::new(
            "wal.overhead_ms",
            "ms",
            if pairs.unlogged.is_empty() {
                0.0
            } else {
                (median(&pairs.untraced) - median(&pairs.unlogged)) * 1e3
            },
        ),
        Metric::new(
            "recovery.durable_bytes",
            "bytes",
            per_recovery(t.recovery_durable),
        ),
        Metric::new(
            "recovery.discarded_bytes",
            "bytes",
            per_recovery(t.recovery_discarded),
        ),
        Metric::new("recovery.read_ms", "ms", span_ms("core.wal.read_records")),
        Metric::new(
            "recovery.rebuild_ms",
            "ms",
            span_ms("engine.durability.rebuild_image"),
        ),
        Metric::new(
            "recovery.recover_ms",
            "ms",
            span_ms("engine.recovery.recover"),
        ),
        Metric::new(
            "recovery.log_records",
            "count",
            per_recovery(t.recovery_log_records),
        ),
        Metric::new(
            "recovery.replayed_events",
            "count",
            per_recovery(t.recovery_replayed),
        ),
        Metric::new(
            "recovery.aborted",
            "count",
            per_recovery(t.recovery_aborted),
        ),
        Metric::new(
            "recovery.compensations",
            "count",
            per_recovery(t.recovery_compensations),
        ),
        Metric::new(
            "recovery.forward",
            "count",
            per_recovery(t.recovery_forward),
        ),
        Metric::new(
            "recovery.resolved_groups",
            "count",
            per_recovery(t.recovery_resolved),
        ),
        Metric::new("verify.ms", "ms", ms(span_total("verify.check"))),
        Metric::new("verify.domains", "count", per(t.verify.domains as u64)),
        Metric::new(
            "verify.pred_violations",
            "count",
            t.verify.pred_violations as f64,
        ),
        Metric::new(
            "verify.proc_rec_violations",
            "count",
            t.verify.proc_rec_violations as f64,
        ),
    ]);
    if kind != Kind::DurableCrash {
        // No journal on this workload: the recovery figures are absent, not
        // a zero-cost recovery.
        for metric in m.iter_mut().filter(|x| x.name.starts_with("recovery.")) {
            metric.value = 0.0;
        }
    }
    m.extend(measured.workload_specific());
    for name in SPAN_NAMES {
        let self_ns = span_ns.get(name).map_or(0, |v| v.1);
        m.push(Metric::new(format!("self_ms.{name}"), "ms", ms(self_ns)));
    }
    m
}
