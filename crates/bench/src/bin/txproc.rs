//! `txproc` — command-line front end for the transactional process
//! management toolkit.
//!
//! ```text
//! txproc simulate  [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy pred|pred-wait|pred-protocol|serial|conservative|unsafe-cc]
//!                  [--arrival-gap N] [--check] [--epoch N]
//!                  [--runtime events] [--workers N] [--shards auto|single|N]
//!                  [--wal PATH] [--durability none|buffered|fsync-N|fsync-epoch]
//!                  [--snapshot-every N]
//!                  # --runtime switches to the wall-clock concurrent driver
//!                  # --epoch N batches certification/commit in N-event
//!                  # epochs (0 = per-event path, the default)
//!                  # --wal journals the run write-ahead to PATH; --durability
//!                  # picks the fsync policy (default fsync-epoch)
//! txproc generate  [--seed N] [--processes N] [--density F] [--json PATH]
//! txproc check     --scenario PATH.json        # {"spec": …, "history": …}
//! txproc demo      fig4a|fig4b|fig7|fig9       # PRED-check a paper schedule
//! txproc dot       p1|p2|p3|cim-construction|cim-production
//! txproc crash     [--seed N] [--at N] [--epoch N]  # crash/recovery demo
//!                  [--wal PATH] [--durability …] [--snapshot-every N]
//!                  # with --wal the in-memory image is discarded and the
//!                  # scheduler state is rebuilt from the log alone
//! txproc bench     [--smoke] [--out PATH] [--seed N] [--processes CSV]
//!                  [--density CSV] [--policy CSV] [--certifier batch|incremental]
//!                  [--arrival-gap N]           # perf trajectory → BENCH_scheduler.json
//!                  [--shards auto|single|N]    # concurrent-driver shard topology
//!                  [--clusters N]              # tenants in the sharding comparison
//!                  [--workers N]
//!                  [--open-processes CSV] [--open-gap US]  # Poisson open-arrival sweep
//!                  [--epoch N]                 # epoch size of the epoch sweep entries
//!                  [--durability-processes N]  # E26 durability sweep size (0 = skip)
//! txproc trace     [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--certifier …] [--arrival-gap N]
//!                  [--pid N] [--kind SUBSTR]   # filter the printed journal
//!                  [--explain PID]             # why was P blocked/aborted?
//!                  [--json PATH]               # JSONL event journal
//!                  [--chrome PATH]             # chrome://tracing / Perfetto
//!                  [--dot-dir DIR]             # per-step conflict-graph dots
//!                  [--trace-sample N]          # keep every Nth process chain
//! txproc stats     [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--certifier …] [--arrival-gap N]
//!                  [--runtime events] [--shards …] [--workers N]
//!                  [--prom PATH]               # Prometheus text (default: stdout)
//!                  [--timeseries PATH]         # sampled series as JSON
//!                  [--samples N]               # time-series ring capacity
//!                  [--sample-ms N]             # wall sampler period (concurrent)
//!                  [--sample-events N]         # virtual-time period (engine)
//! txproc top       [--seed N] [--processes N] [--density F] [--failures F]
//!                  [--policy …] [--certifier …]
//!                  [--shards …] [--workers N] [--refresh-ms N]
//!                  # live per-shard/per-worker metrics while the
//!                  # concurrent driver runs the workload
//! txproc regression [--baseline PATH] [--current PATH]
//!                  # perf-regression gate: diff a fresh BENCH_scheduler.json
//!                  # against the committed BENCH_baseline.json; exit 1 on
//!                  # per-point throughput/latency deviations past the gate
//! txproc gauntlet  [--seeds N] [--scenario NAME] [--policy …] [--certifier …]
//!                  [--shards auto|single|N]
//!                  [--workers N] [--epoch N] [--json PATH]
//!                  # run the named adversarial scenarios (engine + sharded
//!                  # concurrent) through the PRED / Proc-REC checkers and
//!                  # their acceptance envelopes; non-zero exit on failure
//! ```

use serde::Deserialize;
use txproc_bench::scenarios;
use txproc_core::dot::process_to_dot;
use txproc_core::fixtures::{cim_world, paper_world};
use txproc_core::ids::ProcessId;
use txproc_core::pred::check_pred;
use txproc_core::schedule::{render, Schedule};
use txproc_core::spec::Spec;
use txproc_core::wal::{DurabilityPolicy, FileWal, WalWriter};
use txproc_engine::concurrent::{ConcurrentConfig, RuntimeKind, ShardMode};
use txproc_engine::engine::{Engine, RunConfig};
use txproc_engine::policy::{CertifierKind, PolicyKind};
use txproc_engine::recovery::{recover, Recovery, RecoverySource};
use txproc_engine::RunBuilder;
use txproc_sim::workload::{try_generate, WorkloadConfig};

/// Simple `--key value` argument map.
struct Args {
    values: std::collections::BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = std::collections::BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(key) = a.strip_prefix("--") {
                if key == "check" || key == "smoke" {
                    values.insert(key.to_string(), "true".to_string());
                } else {
                    i += 1;
                    let v = raw.get(i).ok_or_else(|| format!("--{key} needs a value"))?;
                    values.insert(key.to_string(), v.clone());
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Args { values, positional })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    // `pred-scan` is deliberately not in `all()` (it duplicates
    // pred-protocol decisions); it stays selectable by name as the
    // pre-index perf baseline.
    if name == PolicyKind::PredScan.label() {
        return Ok(PolicyKind::PredScan);
    }
    PolicyKind::all()
        .into_iter()
        .find(|k| k.label() == name)
        .ok_or_else(|| format!("unknown policy: {name}"))
}

fn parse_certifier(name: &str) -> Result<CertifierKind, String> {
    CertifierKind::all()
        .into_iter()
        .find(|k| k.label() == name)
        .ok_or_else(|| format!("unknown certifier: {name} (expected batch|incremental)"))
}

fn parse_runtime(raw: &str) -> Result<RuntimeKind, String> {
    RuntimeKind::parse(raw).ok_or_else(|| format!("invalid --runtime value: {raw} (want events)"))
}

fn parse_shards(raw: &str) -> Result<ShardMode, String> {
    ShardMode::parse(raw)
        .ok_or_else(|| format!("invalid --shards value: {raw} (want auto|single|N)"))
}

fn parse_workers(args: &Args) -> Result<Option<usize>, String> {
    match args.values.get("workers") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid --workers value: {raw}")),
    }
}

fn workload_from(args: &Args) -> Result<txproc_sim::workload::Workload, String> {
    try_generate(&WorkloadConfig {
        seed: args.get("seed", 42u64)?,
        processes: args.get("processes", 8usize)?,
        conflict_density: args.get("density", 0.3f64)?,
        failure_probability: args.get("failures", 0.1f64)?,
        ..WorkloadConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// Parses the shared WAL options: `--wal PATH` turns journaling on,
/// `--durability` picks the fsync policy (default `fsync-epoch`),
/// `--snapshot-every N` the engine snapshot cadence (default 64).
fn parse_wal(args: &Args) -> Result<Option<(std::path::PathBuf, DurabilityPolicy, usize)>, String> {
    let Some(path) = args.values.get("wal") else {
        return Ok(None);
    };
    let raw = args.get("durability", "fsync-epoch".to_string())?;
    let policy = DurabilityPolicy::parse(&raw).ok_or_else(|| {
        format!("unknown durability policy `{raw}` (none|buffered|fsync-N|fsync-epoch)")
    })?;
    Ok(Some((
        path.into(),
        policy,
        args.get("snapshot-every", 64usize)?,
    )))
}

fn open_wal(
    path: &std::path::Path,
    policy: DurabilityPolicy,
    seed: u64,
) -> Result<WalWriter, String> {
    let file = FileWal::create(path).map_err(|e| format!("create WAL {}: {e}", path.display()))?;
    Ok(WalWriter::new(Box::new(file), policy, seed))
}

/// `simulate --runtime events`: the wall-clock concurrent driver instead
/// of the virtual-time engine. Config errors (e.g. `--workers 0`) surface
/// as CLI errors naming the knob to turn.
fn simulate_concurrent(
    args: &Args,
    w: &txproc_sim::workload::Workload,
    policy: PolicyKind,
    certifier: CertifierKind,
    runtime: RuntimeKind,
) -> Result<(), String> {
    let shards = match args.values.get("shards") {
        Some(raw) => parse_shards(raw)?,
        None => ShardMode::Auto,
    };
    let seed = args.get("seed", 42u64)?;
    let wal = parse_wal(args)?;
    let mut builder = RunBuilder::new(w).concurrent(ConcurrentConfig {
        policy,
        seed,
        certifier,
        shards,
        runtime,
        workers: parse_workers(args)?,
        epoch: args.get("epoch", 0usize)?,
        ..ConcurrentConfig::default()
    });
    if let Some((path, dpolicy, snapshot_every)) = &wal {
        builder = builder.durability(open_wal(path, *dpolicy, seed)?, *snapshot_every);
    }
    let r = builder.try_run()?.into_concurrent();
    println!("policy:            {}", policy.label());
    println!("runtime:           {}", runtime.label());
    println!("shards:            {}", r.metrics.shards.len());
    if r.metrics.epoch_batches > 0 {
        println!(
            "epoch batches:     {} ({} events)",
            r.metrics.epoch_batches, r.metrics.epoch_events
        );
    }
    println!(
        "committed/aborted: {}/{}",
        r.metrics.committed, r.metrics.aborted
    );
    println!("activities:        {}", r.metrics.activities);
    println!("compensations:     {}", r.metrics.compensations);
    println!(
        "latency p50/p95:   {:?}/{:?} µs",
        r.metrics.latency_percentile(0.5),
        r.metrics.latency_percentile(0.95)
    );
    if let Some(rt) = &r.metrics.runtime {
        println!("workers:           {}", rt.workers);
        println!("steps/repolls:     {}/{}", rt.steps, rt.repolls);
        println!("run-queue peak:    {}", rt.run_queue_peak);
        println!("in-flight peak:    {}", rt.in_flight_peak);
        println!(
            "sched delay p50/p95: {:?}/{:?} ns",
            rt.delay_percentile_ns(0.5),
            rt.delay_percentile_ns(0.95)
        );
        println!("worker utilization: {:.1}%", rt.utilization() * 100.0);
    }
    if args.flag("check") {
        let ok = txproc_core::pred::is_pred(&w.spec, &r.history).map_err(|e| e.to_string())?;
        println!("history PRED:      {ok}");
        if !ok {
            return Err("concurrent history is not PRED".to_string());
        }
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    let certifier = parse_certifier(&args.get("certifier", "incremental".to_string())?)?;
    if let Some(raw) = args.values.get("runtime") {
        return simulate_concurrent(args, &w, policy, certifier, parse_runtime(raw)?);
    }
    let seed = args.get("seed", 42u64)?;
    let cfg = RunConfig {
        policy,
        seed,
        arrival_gap: args.get("arrival-gap", 0u64)?,
        check_pred: args.flag("check"),
        certifier,
        epoch: args.get("epoch", 0usize)?,
        ..RunConfig::default()
    };
    let wal = parse_wal(args)?;
    let mut builder = RunBuilder::new(&w).config(cfg);
    if let Some((path, dpolicy, snapshot_every)) = &wal {
        builder = builder.durability(open_wal(path, *dpolicy, seed)?, *snapshot_every);
    }
    let r = builder.try_run()?.into_engine();
    println!("policy:            {}", policy.label());
    if policy.certified() {
        println!("certifier:         {}", certifier.label());
    }
    println!("makespan:          {}", r.metrics.makespan);
    println!(
        "committed/aborted: {}/{}",
        r.metrics.committed, r.metrics.aborted
    );
    println!("activities:        {}", r.metrics.activities);
    println!("compensations:     {}", r.metrics.compensations);
    println!("retries:           {}", r.metrics.retries);
    println!("deferred commits:  {}", r.metrics.deferred_commits);
    if r.metrics.epoch_batches > 0 {
        println!(
            "epoch batches:     {} ({} events)",
            r.metrics.epoch_batches, r.metrics.epoch_events
        );
    }
    println!(
        "waits/rejections:  {}/{}",
        r.metrics.waits, r.metrics.rejections
    );
    println!(
        "latency p50/p95:   {:?}/{:?}",
        r.metrics.latency_percentile(0.5),
        r.metrics.latency_percentile(0.95)
    );
    if let Some(ok) = r.pred_ok {
        println!("history PRED:      {ok}");
    }
    if let Some((path, dpolicy, _)) = &wal {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!(
            "wal:               {} ({}, {bytes} bytes)",
            path.display(),
            dpolicy.label()
        );
    }
    if !r.stalled.is_empty() {
        return Err(format!("stalled processes: {:?}", r.stalled));
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    println!("processes: {}", w.spec.process_count());
    for p in w.spec.processes() {
        let analysis = txproc_core::flex::FlexAnalysis::analyze(p, &w.spec.catalog);
        println!(
            "  {} ({} activities, guaranteed termination: {})",
            p.name,
            p.len(),
            analysis.has_guaranteed_termination()
        );
    }
    println!("services: {}", w.spec.catalog.len());
    println!(
        "declared conflicting pairs: {}",
        w.spec.conflicts.declared_pairs()
    );
    println!("subsystems: {}", w.deployment.subsystems().len());
    if let Some(path) = args.values.get("json") {
        let json = serde_json::to_string_pretty(&w.spec).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote spec to {path}");
    }
    Ok(())
}

/// On-disk scenario: a spec plus a history to check.
#[derive(Deserialize)]
struct Scenario {
    spec: Spec,
    history: Schedule,
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let path = args
        .values
        .get("scenario")
        .ok_or("check needs --scenario PATH")?;
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let scenario: Scenario = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    print_pred_report(&scenario.spec, &scenario.history)
}

fn cmd_demo(args: &Args) -> Result<(), String> {
    let which = args
        .positional
        .first()
        .ok_or("demo needs a schedule name")?;
    let fx = paper_world();
    let s = match which.as_str() {
        "fig4a" => scenarios::figure4a_st2(&fx),
        "fig4b" => scenarios::figure4b_st2(&fx),
        "fig7" => scenarios::figure7(&fx),
        "fig9" => scenarios::figure9(&fx),
        other => return Err(format!("unknown demo schedule: {other}")),
    };
    print_pred_report(&fx.spec, &s)
}

fn print_pred_report(spec: &Spec, s: &Schedule) -> Result<(), String> {
    println!("history: {}", render(s));
    let serializable =
        txproc_core::serializability::is_serializable(spec, s).map_err(|e| e.to_string())?;
    println!("serializable: {serializable}");
    let report = check_pred(spec, s).map_err(|e| e.to_string())?;
    println!("reducible (RED): {}", report.reducible());
    println!("prefix-reducible (PRED): {}", report.pred);
    if let Some(k) = report.first_violation {
        println!("first violating prefix: {k} events");
    }
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let which = args.positional.first().ok_or("dot needs a process name")?;
    let out = match which.as_str() {
        "p1" | "p2" | "p3" => {
            let fx = paper_world();
            let p = match which.as_str() {
                "p1" => &fx.p1,
                "p2" => &fx.p2,
                _ => &fx.p3,
            };
            process_to_dot(p, &fx.spec)
        }
        "cim-construction" | "cim-production" => {
            let fx = cim_world();
            let p = if which == "cim-construction" {
                &fx.construction
            } else {
                &fx.production
            };
            process_to_dot(p, &fx.spec)
        }
        other => return Err(format!("unknown process: {other}")),
    };
    print!("{out}");
    Ok(())
}

fn parse_csv<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("invalid {what} value: {s}"))
        })
        .collect()
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    use txproc_bench::perf::{run_scheduler_bench, SchedulerBenchConfig};
    let mut cfg = if args.flag("smoke") {
        SchedulerBenchConfig::smoke()
    } else {
        SchedulerBenchConfig::full()
    };
    cfg.seed = args.get("seed", cfg.seed)?;
    cfg.arrival_gap = args.get("arrival-gap", cfg.arrival_gap)?;
    if let Some(raw) = args.values.get("processes") {
        cfg.processes = parse_csv(raw, "--processes")?;
    }
    if let Some(raw) = args.values.get("density") {
        cfg.densities = parse_csv(raw, "--density")?;
    }
    if let Some(raw) = args.values.get("policy") {
        cfg.policies = raw
            .split(',')
            .map(|s| parse_policy(s.trim()))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(raw) = args.values.get("certifier") {
        cfg.certifier = parse_certifier(raw)?;
    }
    if let Some(raw) = args.values.get("shards") {
        cfg.shards = parse_shards(raw)?;
    }
    cfg.workers = parse_workers(args)?.or(cfg.workers);
    if let Some(raw) = args.values.get("open-processes") {
        cfg.open_processes = parse_csv(raw, "--open-processes")?;
    }
    cfg.open_mean_gap_us = args.get("open-gap", cfg.open_mean_gap_us)?;
    cfg.sharding_clusters = args.get("clusters", cfg.sharding_clusters)?;
    cfg.epoch = args.get("epoch", cfg.epoch)?;
    cfg.durability_processes = args.get("durability-processes", cfg.durability_processes)?;
    let report = run_scheduler_bench(&cfg);
    for e in &report.runs {
        let shard = match &e.shard_mode {
            Some(m) => format!(
                " shards={m}/{} runtime={}",
                e.shards,
                e.runtime.as_deref().unwrap_or("?")
            ),
            None => String::new(),
        };
        println!(
            "{:<10} {:<14} n={:<4} d={:<4} {:>10.2} ms  {:>12.0} events/s  ({} committed, {} aborted){shard}",
            e.mode, e.policy, e.processes, e.density, e.wall_ms, e.events_per_sec,
            e.committed, e.aborted
        );
    }
    for o in &report.open_runs {
        println!(
            "open       n={:<6} gap={}µs shards={} workers={} {:>10.2} ms  {:>12.0} events/s  \
             in-flight-peak={} pred-violations={} proc-rec-violations={} (verify {:.0} ms)",
            o.processes,
            o.mean_gap_us,
            o.shards,
            o.workers,
            o.wall_ms,
            o.events_per_sec,
            o.in_flight_peak,
            o.pred_violations,
            o.proc_rec_violations,
            o.verify_ms,
        );
    }
    for d in &report.decision {
        println!(
            "decision   live_ops={:<6} edges={:<5} indexed {:>9.0} ns/request  scan {:>9.0} ns/request",
            d.live_ops, d.edges, d.ns_per_request_indexed, d.ns_per_request_scan
        );
    }
    for t in &report.trace_overhead {
        println!(
            "trace      {:<14} n={:<4} d={:<4} {:>10.2} ms  ({:+.1}% vs untraced)",
            t.sink, t.processes, t.density, t.wall_ms, t.overhead_pct
        );
    }
    for n in &report.notes {
        println!("note: {n}");
    }
    let out = args
        .values
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_scheduler.json".to_string());
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

/// Re-runs a seeded workload with the trace journal attached and renders
/// the scheduler's decisions: pretty-printed (filterable), as a JSONL
/// journal, as a Chrome-trace timeline, as per-step conflict-graph dot
/// snapshots, or as an `--explain` decision chain for one process.
fn cmd_trace(args: &Args) -> Result<(), String> {
    use txproc_core::trace::{
        chrome_trace, explain_process, to_jsonl, Journal, SampleSink, TraceSink,
    };
    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    let certifier = parse_certifier(&args.get("certifier", "incremental".to_string())?)?;
    let cfg = RunConfig {
        policy,
        seed: args.get("seed", 42u64)?,
        arrival_gap: args.get("arrival-gap", 0u64)?,
        certifier,
        ..RunConfig::default()
    };
    let sample_n: u32 = args.get("trace-sample", 1u32)?;
    if sample_n == 0 {
        return Err("--trace-sample must be ≥ 1".to_string());
    }
    let journal = Journal::new();
    let sink: Box<dyn TraceSink> = if sample_n > 1 {
        Box::new(SampleSink::new(journal.clone(), sample_n))
    } else {
        Box::new(journal.clone())
    };
    let r = txproc_engine::RunBuilder::new(&w)
        .config(cfg)
        .sink(sink)
        .run()
        .into_engine();
    let records = journal.snapshot();
    if sample_n > 1 {
        println!(
            "sampling 1-in-{sample_n} process chains: kept {} records",
            records.len()
        );
    }

    if let Some(path) = args.values.get("json") {
        std::fs::write(path, to_jsonl(&records)).map_err(|e| e.to_string())?;
        println!("wrote {} trace records to {path}", records.len());
    }
    if let Some(path) = args.values.get("chrome") {
        std::fs::write(path, chrome_trace(&records)).map_err(|e| e.to_string())?;
        println!("wrote chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }
    if let Some(dir) = args.values.get("dot-dir") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut prefix = Schedule::new();
        for (i, e) in r.history.events().iter().enumerate() {
            prefix.push(e.clone());
            let dot = txproc_core::dot::conflict_graph_to_dot(&w.spec, &prefix)
                .map_err(|e| e.to_string())?;
            let path = std::path::Path::new(dir).join(format!("step_{:03}.dot", i + 1));
            std::fs::write(&path, dot).map_err(|e| e.to_string())?;
        }
        println!(
            "wrote {} conflict-graph snapshots to {dir}",
            r.history.len()
        );
    }
    if let Some(raw) = args.values.get("explain") {
        let pid = ProcessId(
            raw.parse()
                .map_err(|_| format!("invalid --explain pid: {raw}"))?,
        );
        print!("{}", explain_process(&records, pid));
        return Ok(());
    }
    let pid_filter: Option<ProcessId> = match args.values.get("pid") {
        Some(raw) => Some(ProcessId(
            raw.parse().map_err(|_| format!("invalid --pid: {raw}"))?,
        )),
        None => None,
    };
    let kind_filter = args.values.get("kind");
    let mut shown = 0usize;
    for rec in &records {
        if let Some(p) = pid_filter {
            if !rec.event.mentions(p) {
                continue;
            }
        }
        if let Some(k) = kind_filter {
            if !rec.event.kind().contains(k.as_str()) {
                continue;
            }
        }
        println!("{rec}");
        shown += 1;
    }
    println!(
        "-- {shown} of {} records (history: {} events, {} committed, {} aborted)",
        records.len(),
        r.history.len(),
        r.metrics.committed,
        r.metrics.aborted
    );
    Ok(())
}

/// `txproc stats`: run one workload with the telemetry registry enabled and
/// export the result two ways — Prometheus text (stdout, or `--prom PATH`)
/// and the sampled time-series ring as a `txproc-timeseries/v1` JSON
/// document (`--timeseries PATH`). Engine runs sample on virtual time every
/// `--sample-events`; concurrent runs (`--runtime events`) attach a
/// wall-clock sampler thread ticking every `--sample-ms`.
fn cmd_stats(args: &Args) -> Result<(), String> {
    use txproc_core::telemetry::{prometheus_text, Telemetry};
    use txproc_sim::timeseries::{Sampler, TimeSeries};

    let w = workload_from(args)?;
    let policy = parse_policy(&args.get("policy", "pred".to_string())?)?;
    let certifier = parse_certifier(&args.get("certifier", "incremental".to_string())?)?;
    let tele = Telemetry::on();
    let series = TimeSeries::new(args.get("samples", 1024usize)?.max(1));
    let (committed, aborted) = if let Some(raw) = args.values.get("runtime") {
        let cfg = ConcurrentConfig {
            policy,
            seed: args.get("seed", 42u64)?,
            certifier,
            shards: match args.values.get("shards") {
                Some(raw) => parse_shards(raw)?,
                None => ShardMode::Auto,
            },
            runtime: parse_runtime(raw)?,
            workers: parse_workers(args)?,
            ..ConcurrentConfig::default()
        };
        cfg.validate()?;
        let every = std::time::Duration::from_millis(args.get("sample-ms", 1u64)?.max(1));
        let sampler = Sampler::spawn(tele.clone(), every, series.clone());
        let r = txproc_engine::RunBuilder::new(&w)
            .concurrent(cfg)
            .telemetry(tele.clone())
            .run()
            .into_concurrent();
        sampler.stop();
        (r.metrics.committed, r.metrics.aborted)
    } else {
        let cfg = RunConfig {
            policy,
            seed: args.get("seed", 42u64)?,
            arrival_gap: args.get("arrival-gap", 0u64)?,
            certifier,
            ..RunConfig::default()
        };
        let r = txproc_engine::RunBuilder::new(&w)
            .config(cfg)
            .telemetry(tele.clone())
            .sampling(args.get("sample-events", 64u64)?, series.clone())
            .run()
            .into_engine();
        (r.metrics.committed, r.metrics.aborted)
    };
    let snap = tele
        .snapshot()
        .ok_or("telemetry registry produced no snapshot")?;
    match args.values.get("prom") {
        Some(path) => {
            std::fs::write(path, prometheus_text(&snap)).map_err(|e| e.to_string())?;
            println!("wrote Prometheus metrics to {path}");
        }
        None => print!("{}", prometheus_text(&snap)),
    }
    if let Some(path) = args.values.get("timeseries") {
        std::fs::write(path, series.to_json()).map_err(|e| e.to_string())?;
        println!(
            "wrote {} time-series sample(s) to {path} ({} evicted by the ring)",
            series.len(),
            series.dropped()
        );
    }
    eprintln!("run: {committed} committed, {aborted} aborted");
    Ok(())
}

/// One frame of the `txproc top` display: phase totals plus the per-shard
/// and per-worker instrument tables, derived purely from a registry
/// snapshot so it can be unit-tested without a terminal.
fn render_top(snap: &txproc_core::telemetry::Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "txproc top — registry age {:.1} ms",
        snap.wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>10}",
        "phase", "count", "total µs", "p95 ns"
    );
    for p in snap.phases.iter().filter(|p| p.count > 0) {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12.1} {:>10}",
            p.phase,
            p.count,
            p.total_ns as f64 / 1e3,
            p.p95_ns
        );
    }
    // Pivot the flat instrument list into one row per shard / per worker.
    let mut shards: std::collections::BTreeMap<u64, [u64; 4]> = Default::default();
    let mut workers: std::collections::BTreeMap<u64, u64> = Default::default();
    for ins in &snap.instruments {
        let lane = |key: &str| {
            ins.labels
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<u64>().ok())
        };
        if let Some(s) = lane("shard") {
            let row = shards.entry(s).or_default();
            match ins.name.as_str() {
                "events_total" => row[0] = ins.value,
                "committed_total" => row[1] = ins.value,
                "run_queue_depth" => row[2] = ins.value,
                "lock_wait_ns_total" => row[3] = ins.value,
                _ => {}
            }
        } else if let (Some(widx), "worker_steps_total") = (lane("worker"), ins.name.as_str()) {
            workers.insert(widx, ins.value);
        }
    }
    if !shards.is_empty() {
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>10} {:>7} {:>14}",
            "shard", "events", "committed", "queue", "lock-wait µs"
        );
        for (s, [events, committed, depth, wait_ns]) in &shards {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>10} {:>7} {:>14.1}",
                s,
                events,
                committed,
                depth,
                *wait_ns as f64 / 1e3
            );
        }
    }
    if !workers.is_empty() {
        let steps: Vec<String> = workers
            .iter()
            .map(|(widx, steps)| format!("w{widx}:{steps}"))
            .collect();
        let _ = writeln!(out, "worker steps: {}", steps.join(" "));
    }
    out
}

/// `txproc top`: run the concurrent driver with telemetry on and repaint a
/// per-shard/per-worker metrics table every `--refresh-ms` until the run
/// finishes. Uses ANSI clear-screen when stdout is a terminal, plain
/// appended frames otherwise (pipes, CI logs).
fn cmd_top(args: &Args) -> Result<(), String> {
    use std::io::IsTerminal;
    use std::sync::atomic::{AtomicBool, Ordering};
    use txproc_core::telemetry::Telemetry;

    let w = workload_from(args)?;
    let cfg = ConcurrentConfig {
        policy: parse_policy(&args.get("policy", "pred".to_string())?)?,
        seed: args.get("seed", 42u64)?,
        certifier: parse_certifier(&args.get("certifier", "incremental".to_string())?)?,
        shards: match args.values.get("shards") {
            Some(raw) => parse_shards(raw)?,
            None => ShardMode::Auto,
        },
        workers: parse_workers(args)?,
        ..ConcurrentConfig::default()
    };
    cfg.validate()?;
    let refresh = std::time::Duration::from_millis(args.get("refresh-ms", 200u64)?.max(10));
    let ansi = std::io::stdout().is_terminal();
    let tele = Telemetry::on();
    let done = AtomicBool::new(false);
    let result = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let r = txproc_engine::RunBuilder::new(&w)
                .concurrent(cfg)
                .telemetry(tele.clone())
                .run()
                .into_concurrent();
            *result.lock().expect("result mutex") = Some(r);
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            if let Some(snap) = tele.snapshot() {
                if ansi {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_top(&snap));
            }
            std::thread::sleep(refresh);
        }
    });
    let r = result
        .into_inner()
        .expect("result mutex")
        .expect("run thread stores its result before setting done");
    if let Some(snap) = tele.snapshot() {
        if ansi {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&snap));
    }
    println!(
        "done: {} committed, {} aborted, {} activities, {} compensations",
        r.metrics.committed, r.metrics.aborted, r.metrics.activities, r.metrics.compensations
    );
    Ok(())
}

/// `txproc regression`: the perf-regression gate. Reads the committed
/// baseline (`--baseline`, default `BENCH_baseline.json`) and a freshly
/// produced report (`--current`, default `BENCH_scheduler.json`), prints
/// the per-point diff, and exits non-zero when any matched sweep point
/// regresses past the gate (throughput −20% / p95 +30%, both relative to
/// the run-wide median ratio so a uniformly slower host cancels out).
fn cmd_regression(args: &Args) -> Result<(), String> {
    use txproc_bench::regression::compare;
    let baseline_path = args
        .values
        .get("baseline")
        .cloned()
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let current_path = args
        .values
        .get("current")
        .cloned()
        .unwrap_or_else(|| "BENCH_scheduler.json".to_string());
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let current = std::fs::read_to_string(&current_path)
        .map_err(|e| format!("cannot read current report {current_path}: {e}"))?;
    let report = compare(&baseline, &current).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if report.passed() {
        println!("regression gate: pass ({baseline_path} vs {current_path})");
        Ok(())
    } else {
        Err(format!(
            "perf regression gate failed ({baseline_path} vs {current_path}); \
             see the violating points above — refresh the baseline only for \
             intentional perf changes (see CONTRIBUTING.md)"
        ))
    }
}

/// Runs the scenario gauntlet: every named scenario (or one, with
/// `--scenario`) over `--seeds` seeds through engine and sharded-concurrent
/// runs, each history checked for PRED and Proc-REC, the aggregate checked
/// against the scenario's acceptance envelope. Errors (exit 1) when any
/// scenario fails.
fn cmd_gauntlet(args: &Args) -> Result<(), String> {
    use txproc_bench::scenarios::{run_scenario, GauntletConfig};
    let mut cfg = GauntletConfig::smoke();
    cfg.seeds = args.get("seeds", cfg.seeds)?;
    cfg.seed_base = args.get("seed-base", cfg.seed_base)?;
    cfg.policy = parse_policy(&args.get("policy", cfg.policy.label().to_string())?)?;
    cfg.certifier = parse_certifier(&args.get("certifier", cfg.certifier.label().to_string())?)?;
    if let Some(raw) = args.values.get("shards") {
        cfg.shards = parse_shards(raw)?;
    }
    cfg.workers = parse_workers(args)?.or(cfg.workers);
    cfg.epoch = args.get("epoch", cfg.epoch)?;
    let scenarios =
        match args.values.get("scenario") {
            Some(name) => vec![txproc_sim::scenario::find(name)
                .ok_or_else(|| format!("unknown scenario: {name}"))?],
            None => txproc_sim::scenario::registry(),
        };
    let mut failed = Vec::new();
    let mut reports = Vec::new();
    for s in &scenarios {
        let report = run_scenario(s, &cfg);
        for m in &report.modes {
            let mode_label = match &m.runtime {
                Some(rt) => format!("{}/{rt}", m.mode),
                None => m.mode.to_string(),
            };
            println!(
                "{:<15} {:<16} seeds={:<4} commit-rate={:.3} p50={:?} p95={:?} pred-violations={} proc-rec-violations={} [{}] ({:.0} ms)",
                report.name,
                mode_label,
                m.runs,
                m.commit_rate,
                m.latency_p50,
                m.latency_p95,
                m.pred_violations,
                m.proc_rec_violations,
                if m.envelope_breaches.is_empty() {
                    "envelope ok".to_string()
                } else {
                    m.envelope_breaches.join("; ")
                },
                m.wall_ms,
            );
        }
        if !report.pass {
            failed.push(report.name.clone());
        }
        reports.push(report);
    }
    if let Some(path) = args.values.get("json") {
        let json = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if failed.is_empty() {
        println!(
            "gauntlet: all {} scenario(s) passed over {} seed(s)",
            reports.len(),
            cfg.seeds
        );
        Ok(())
    } else {
        Err(format!("gauntlet failures: {}", failed.join(", ")))
    }
}

fn cmd_crash(args: &Args) -> Result<(), String> {
    let w = workload_from(args)?;
    let at = args.get("at", 8usize)?;
    let wal = parse_wal(args)?;
    let seed = args.get("seed", 42u64)?;
    let run_cfg = RunConfig {
        seed,
        epoch: args.get("epoch", 0usize)?,
        ..RunConfig::default()
    };
    let mut engine = Engine::new(&w, run_cfg);
    if let Some((path, dpolicy, snapshot_every)) = &wal {
        engine = engine.with_wal(open_wal(path, *dpolicy, seed)?, *snapshot_every);
    }
    engine.run_until_history(at);
    println!("history at crash: {}", render(engine.history()));
    let report = match &wal {
        // The honest crash path: discard the in-memory image and rebuild
        // everything from the durable log alone.
        Some((path, _, _)) => {
            drop(engine.crash());
            println!("replaying WAL:    {}", path.display());
            Recovery::from(RecoverySource::Wal(path.clone()))
                .run(&w)
                .map_err(|e| e.to_string())?
        }
        None => recover(&w, engine.crash()).map_err(|e| e.to_string())?,
    };
    println!(
        "recovered: {} aborted, {} compensations, {} forward steps, {} 2PC groups resolved",
        report.aborted.len(),
        report.compensations,
        report.forward,
        report.resolved_groups
    );
    let red = txproc_core::reduction::is_reducible(&w.spec, &report.history)
        .map_err(|e| e.to_string())?;
    println!("recovered history RED: {red}");
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!(
            "usage: txproc <simulate|generate|check|demo|dot|crash|bench|trace|stats|top|regression|gauntlet> [options]"
        );
        std::process::exit(2);
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&args),
        "generate" => cmd_generate(&args),
        "check" => cmd_check(&args),
        "demo" => cmd_demo(&args),
        "dot" => cmd_dot(&args),
        "crash" => cmd_crash(&args),
        "bench" => cmd_bench(&args),
        "trace" => cmd_trace(&args),
        "stats" => cmd_stats(&args),
        "top" => cmd_top(&args),
        "regression" => cmd_regression(&args),
        "gauntlet" => cmd_gauntlet(&args),
        other => Err(format!("unknown command: {other}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--seed", "7", "--density", "0.4", "fig7", "--check"]);
        assert_eq!(a.get("seed", 0u64).unwrap(), 7);
        assert!((a.get("density", 0.0f64).unwrap() - 0.4).abs() < 1e-9);
        assert_eq!(a.positional, vec!["fig7"]);
        assert!(a.flag("check"));
        assert!(!a.flag("json"));
        assert_eq!(a.get("processes", 8usize).unwrap(), 8);
    }

    #[test]
    fn invalid_value_reported() {
        let a = args(&["--seed", "x"]);
        assert!(a.get("seed", 0u64).is_err());
    }

    #[test]
    fn missing_value_reported() {
        let raw = vec!["--seed".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn crash_recovers_from_a_wal_file() {
        let path =
            std::env::temp_dir().join(format!("txproc-cli-crash-{}.wal", std::process::id()));
        let a = args(&[
            "--seed",
            "5",
            "--processes",
            "6",
            "--at",
            "6",
            "--epoch",
            "4",
            "--wal",
            path.to_str().unwrap(),
        ]);
        cmd_crash(&a).unwrap();
        assert!(path.exists(), "crash left no WAL behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_journals_through_the_wal_flag() {
        let path =
            std::env::temp_dir().join(format!("txproc-cli-simulate-{}.wal", std::process::id()));
        let a = args(&[
            "--seed",
            "3",
            "--processes",
            "6",
            "--epoch",
            "4",
            "--durability",
            "buffered",
            "--wal",
            path.to_str().unwrap(),
        ]);
        cmd_simulate(&a).unwrap();
        let (records, clean) = txproc_core::wal::read_records(&std::fs::read(&path).unwrap());
        assert!(!records.is_empty());
        assert_eq!(clean, std::fs::metadata(&path).unwrap().len() as usize);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("pred").unwrap(), PolicyKind::Pred);
        assert_eq!(parse_policy("unsafe-cc").unwrap(), PolicyKind::UnsafeCc);
        assert_eq!(parse_policy("pred-scan").unwrap(), PolicyKind::PredScan);
        assert!(parse_policy("bogus").is_err());
    }

    #[test]
    fn bench_smoke_writes_report() {
        let out = std::env::temp_dir().join("txproc_bench_smoke_test.json");
        let a = args(&[
            "--smoke",
            "--processes",
            "5",
            "--policy",
            "pred-protocol,pred-scan",
            "--out",
            out.to_str().unwrap(),
        ]);
        cmd_bench(&a).unwrap();
        let raw = std::fs::read_to_string(&out).unwrap();
        assert!(raw.contains("txproc-bench-scheduler/v9"));
        assert!(raw.contains("pred-scan"));
        assert!(raw.contains("zipf-hotspot"));
        assert!(raw.contains("open_runs"));
        assert!(raw.contains("\"phases\""));
        assert!(raw.contains("telemetry_overhead"));
        assert!(raw.contains("epoch_decision"));
        assert!(raw.contains("\"epoch\": 16"));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn stats_exports_prometheus_and_timeseries() {
        let dir = std::env::temp_dir().join("txproc_stats_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("metrics.prom");
        let series = dir.join("series.json");

        // Engine run: virtual-time sampling.
        let a = args(&[
            "--seed",
            "4",
            "--processes",
            "6",
            "--density",
            "0.4",
            "--sample-events",
            "8",
            "--prom",
            prom.to_str().unwrap(),
            "--timeseries",
            series.to_str().unwrap(),
        ]);
        cmd_stats(&a).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(
            text.contains("txproc_phase_duration_ns_count{phase=\"certify\"}"),
            "{text}"
        );
        assert!(text.contains("# TYPE"), "{text}");
        let doc =
            txproc_sim::timeseries::from_json(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert!(!doc.samples.is_empty());

        // Concurrent run: wall-clock sampler.
        let b = args(&[
            "--seed",
            "4",
            "--processes",
            "6",
            "--runtime",
            "events",
            "--prom",
            prom.to_str().unwrap(),
            "--timeseries",
            series.to_str().unwrap(),
        ]);
        cmd_stats(&b).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("txproc_events_total"), "{text}");
        let doc =
            txproc_sim::timeseries::from_json(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert!(!doc.samples.is_empty(), "final sample on sampler stop");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_runs_and_renders() {
        let a = args(&["--seed", "4", "--processes", "6", "--refresh-ms", "10"]);
        cmd_top(&a).unwrap();

        // The frame renderer pivots instruments into per-shard rows.
        use txproc_core::telemetry::{InstrumentSnapshot, Snapshot};
        let snap = Snapshot {
            wall_ns: 2_000_000,
            phases: Vec::new(),
            instruments: vec![
                InstrumentSnapshot {
                    name: "events_total".into(),
                    labels: vec![("shard".into(), "0".into())],
                    kind: "counter".into(),
                    value: 17,
                },
                InstrumentSnapshot {
                    name: "worker_steps_total".into(),
                    labels: vec![("worker".into(), "1".into())],
                    kind: "counter".into(),
                    value: 9,
                },
            ],
        };
        let frame = render_top(&snap);
        assert!(frame.contains("shard"), "{frame}");
        assert!(frame.contains("17"), "{frame}");
        assert!(frame.contains("w1:9"), "{frame}");
    }

    #[test]
    fn trace_sampling_drops_chains() {
        let dir = std::env::temp_dir().join("txproc_trace_sample_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.jsonl");
        let sampled = dir.join("sampled.jsonl");
        let base = ["--seed", "4", "--processes", "8", "--density", "0.5"];
        let mut a = base.to_vec();
        a.extend(["--json", full.to_str().unwrap()]);
        cmd_trace(&args(&a)).unwrap();
        let mut b = base.to_vec();
        b.extend(["--json", sampled.to_str().unwrap(), "--trace-sample", "4"]);
        cmd_trace(&args(&b)).unwrap();
        let full_lines = std::fs::read_to_string(&full).unwrap().lines().count();
        let sampled_lines = std::fs::read_to_string(&sampled).unwrap().lines().count();
        assert!(
            sampled_lines > 0 && sampled_lines < full_lines,
            "sampling kept {sampled_lines} of {full_lines}"
        );
        assert!(cmd_trace(&args(&["--trace-sample", "0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regression_gate_passes_self_and_fails_doctored() {
        let dir = std::env::temp_dir().join("txproc_regression_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let a = args(&[
            "--smoke",
            "--processes",
            "5",
            "--out",
            baseline.to_str().unwrap(),
        ]);
        cmd_bench(&a).unwrap();

        let self_check = args(&[
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            baseline.to_str().unwrap(),
        ]);
        cmd_regression(&self_check).unwrap();

        // Halve one point's throughput: it now sits far below the median
        // ratio and must trip the gate.
        let raw = std::fs::read_to_string(&baseline).unwrap();
        let mut doc: serde::Value = serde_json::from_str(&raw).unwrap();
        let mut halved = false;
        if let serde::Value::Map(fields) = &mut doc {
            if let Some((_, serde::Value::Seq(runs))) = fields.iter_mut().find(|(k, _)| k == "runs")
            {
                if let Some(serde::Value::Map(run)) = runs.first_mut() {
                    if let Some((_, v)) = run.iter_mut().find(|(k, _)| k == "events_per_sec") {
                        match v {
                            serde::Value::F64(e) => *e /= 2.0,
                            serde::Value::U64(e) => *e /= 2,
                            serde::Value::I64(e) => *e /= 2,
                            other => panic!("unexpected events_per_sec shape: {other:?}"),
                        }
                        halved = true;
                    }
                }
            }
        }
        assert!(halved, "baseline report carries runs[0].events_per_sec");
        let doctored = dir.join("doctored.json");
        std::fs::write(&doctored, serde_json::to_string(&doc).unwrap()).unwrap();
        let fail_check = args(&[
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            doctored.to_str().unwrap(),
        ]);
        let err = cmd_regression(&fail_check).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_concurrent_runtimes() {
        let events = args(&[
            "--seed",
            "3",
            "--processes",
            "6",
            "--runtime",
            "events",
            "--epoch",
            "8",
            "--check",
        ]);
        cmd_simulate(&events).unwrap();
        let two_workers = args(&[
            "--seed",
            "3",
            "--processes",
            "6",
            "--runtime",
            "events",
            "--workers",
            "2",
        ]);
        cmd_simulate(&two_workers).unwrap();
        // `events` is the only runtime: the removed thread runtime is
        // rejected like any other unknown name.
        for bogus in ["threads", "fibers"] {
            let err = cmd_simulate(&args(&["--runtime", bogus])).unwrap_err();
            assert!(err.contains("want events"), "{bogus}: {err}");
        }
        // A config error surfaces as a CLI error naming its knob.
        let zero = args(&["--processes", "4", "--runtime", "events", "--workers", "0"]);
        let err = cmd_simulate(&zero).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn gauntlet_runs_one_scenario() {
        let out = std::env::temp_dir().join("txproc_gauntlet_cli_test.json");
        let a = args(&[
            "--scenario",
            "zipf-hotspot",
            "--seeds",
            "2",
            "--epoch",
            "16",
            "--json",
            out.to_str().unwrap(),
        ]);
        cmd_gauntlet(&a).unwrap();
        let raw = std::fs::read_to_string(&out).unwrap();
        assert!(raw.contains("zipf-hotspot"));
        assert!(raw.contains("pred_violations"));
        std::fs::remove_file(&out).ok();

        let bad = args(&["--scenario", "no-such"]);
        assert!(cmd_gauntlet(&bad).is_err());
    }

    #[test]
    fn invalid_workload_config_is_a_cli_error() {
        let a = args(&["--processes", "0"]);
        let err = cmd_simulate(&a).unwrap_err();
        assert!(err.contains("processes"), "{err}");
    }

    #[test]
    fn demo_schedules_check_cleanly() {
        for which in ["fig4a", "fig4b", "fig7", "fig9"] {
            let a = Args {
                values: Default::default(),
                positional: vec![which.to_string()],
            };
            cmd_demo(&a).unwrap();
        }
    }

    #[test]
    fn dot_export_runs() {
        for which in ["p1", "p2", "p3", "cim-construction", "cim-production"] {
            let a = Args {
                values: Default::default(),
                positional: vec![which.to_string()],
            };
            cmd_dot(&a).unwrap();
        }
    }

    #[test]
    fn trace_exports_and_explains() {
        let dir = std::env::temp_dir().join("txproc_trace_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("trace.jsonl");
        let chrome = dir.join("trace.json");
        let dots = dir.join("dots");
        let base = [
            "--seed",
            "4",
            "--processes",
            "6",
            "--density",
            "0.5",
            "--failures",
            "0.2",
        ];
        let mut export = base.to_vec();
        export.extend([
            "--json",
            json.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
            "--dot-dir",
            dots.to_str().unwrap(),
        ]);
        cmd_trace(&args(&export)).unwrap();
        let jsonl = std::fs::read_to_string(&json).unwrap();
        assert!(jsonl.lines().count() > 0);
        assert!(std::fs::read_to_string(&chrome)
            .unwrap()
            .contains("traceEvents"));
        assert!(std::fs::read_dir(&dots).unwrap().count() > 0);
        let mut explain = base.to_vec();
        explain.extend(["--explain", "0"]);
        cmd_trace(&args(&explain)).unwrap();
        let mut filtered = base.to_vec();
        filtered.extend(["--pid", "1", "--kind", "request"]);
        cmd_trace(&args(&filtered)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_and_crash_run() {
        let a = args(&["--seed", "3", "--processes", "4", "--check"]);
        cmd_simulate(&a).unwrap();
        let epoch = args(&["--seed", "3", "--processes", "4", "--check", "--epoch", "4"]);
        cmd_simulate(&epoch).unwrap();
        cmd_crash(&a).unwrap();
        cmd_generate(&a).unwrap();
    }
}
