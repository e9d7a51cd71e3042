//! A reduced-size pass of every workload: every metric `BENCHMARK.json`
//! names is emitted with its unit, spans nest properly, and recovery from
//! the bytes up to the last sync passes the durable-commit check.

use perfbench::layers::traced;
use perfbench::measure::{crash_and_recover, measure, run_untraced, setup};
use perfbench::report::Metric;
use perfbench::scratch::ScratchDir;
use perfbench::spans::self_times;
use perfbench::verify::{check_recovered, durable_commits};
use perfbench::workloads::{crash_at, read_durable, Kind, Size};
use serde::Value;
use std::path::Path;
use txproc_core::telemetry::Telemetry;
use txproc_core::wal::read_records;
use txproc_engine::{Recovery, RecoverySource};

const SEED: u64 = 3;

fn small(kind: Kind) -> Size {
    Size {
        processes: if kind == Kind::BurstTenants { 192 } else { 16 },
        instances: 2,
    }
}

fn scratch() -> ScratchDir {
    ScratchDir::new(Path::new(".bench_scratch")).expect("scratch directory")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, key: &str| -> String {
        let map = v.as_map().expect("metric is an object");
        let (_, value) = map.iter().find(|(k, _)| k == key).expect("metric field");
        value.as_str().expect("string field").to_string()
    };
    let map = doc.as_map().expect("top level is an object");
    let (_, metrics) = map.iter().find(|(k, _)| k == list).expect("metric list");
    metrics
        .as_seq()
        .expect("metric list is an array")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_are_emitted_with_units_on_every_workload() {
    let declared = declared("end_to_end");
    for kind in Kind::ALL {
        let dir = scratch();
        let m = measure(kind, SEED, 0.05, small(kind), dir.path());
        assert_eq!(m.failed, 0, "{}: {m:?}", kind.name());
        assert!(m.attempted > 0);
        let metrics = m.end_to_end();
        assert_eq!(emitted(&metrics), declared, "{}", kind.name());
        for metric in &metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{}: {metric:?}",
                kind.name()
            );
        }
        for metric in m.workload_specific() {
            assert!(
                metric.value.is_finite() && metric.value >= 0.0,
                "{metric:?}"
            );
        }
    }
}

#[test]
fn engine_figures_repeat_exactly_for_a_seed() {
    for kind in [Kind::StreamCertify, Kind::DurableCrash] {
        let (a, b) = (scratch(), scratch());
        let x = measure(kind, SEED, 0.05, small(kind), a.path());
        let y = measure(kind, SEED, 0.05, small(kind), b.path());
        let exact = |m: &perfbench::measure::Measured| {
            (
                m.commit_ratio,
                m.makespan_ticks,
                m.latency_p50_ticks,
                m.latency_p90_ticks,
                m.wal_bytes_per_event,
            )
        };
        assert_eq!(exact(&x), exact(&y), "{}", kind.name());
    }
}

#[test]
fn traced_run_emits_every_layer_metric_and_nested_spans() {
    let declared = declared("per_layer");
    for kind in Kind::ALL {
        let dir = scratch();
        let run = traced(kind, SEED, 0.05, small(kind), dir.path());
        assert_eq!(run.failed + run.measured.failed, 0, "{}", kind.name());
        assert_eq!(emitted(&run.metrics), declared, "{}", kind.name());
        assert!(run.metrics.iter().all(|m| m.value.is_finite()));
        let spans = &run.spans;
        assert!(!spans.is_empty());
        let selfs = self_times(spans);
        for (s, self_ns) in spans.iter().zip(&selfs) {
            assert!(*self_ns <= s.duration_ns());
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert_eq!(parent.iteration, s.iteration);
            } else {
                assert_eq!(s.name, "bench.iteration");
            }
        }
        let value = |name: &str| {
            run.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        assert!(value("engine.run_ms") > 0.0);
        assert!(value("certify.calls") > 0.0);
        if kind == Kind::DurableCrash {
            assert!(value("wal.syncs") > 0.0);
            assert!(value("recovery.durable_bytes") > 0.0);
        }
    }
}

#[test]
fn recovery_from_synced_bytes_keeps_durable_commits() {
    let kind = Kind::DurableCrash;
    let dir = scratch();
    let (_, instances) = setup(kind, SEED, small(kind));
    for inst in &instances {
        let full = run_untraced(kind, inst, &dir.path().join("full.wal"), Telemetry::off())
            .expect("journaled run");
        let len = full.history.len();
        for at in [len / 3, len * 2 / 3, len] {
            let outcome = crash_and_recover(inst, at, &dir.path().join("crash.wal"));
            assert_eq!(outcome.failed, 0, "crash at {at} of {len}");
            assert!(outcome.recovery_s.is_some());
        }
        // The same step by hand: the unsynced tail reaches the file but
        // recovery reads only the synced prefix.
        let path = dir.path().join("by-hand.wal");
        let log = crash_at(&inst.workload, inst.seed, &path, len * 2 / 3).expect("crash run");
        assert!(log.durable <= log.appended);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            log.appended,
            "the whole tail reached the file"
        );
        let bytes = read_durable(&path, log.durable).unwrap();
        assert_eq!(bytes.len() as u64, log.durable);
        let (records, clean) = read_records(&bytes);
        assert_eq!(clean, bytes.len(), "a sync point is a frame boundary");
        let report = Recovery::from(RecoverySource::WalBytes(bytes))
            .run(&inst.workload)
            .expect("recovery from the synced prefix");
        let durable = durable_commits(&records);
        assert!(check_recovered(&durable, &report.history).is_empty());
    }
}

#[test]
fn a_lost_durable_commit_is_reported() {
    use txproc_core::ids::ProcessId;
    use txproc_core::schedule::Schedule;
    let durable = [ProcessId(1)].into_iter().collect();
    let mut lost = Schedule::new();
    lost.abort(ProcessId(1));
    assert_eq!(check_recovered(&durable, &lost).len(), 1);
    let mut kept = Schedule::new();
    kept.commit(ProcessId(1));
    assert!(check_recovered(&durable, &kept).is_empty());
}
