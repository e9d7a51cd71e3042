//! Stress tests pinning the event-driven runtime's outcomes.
//!
//! Three oracles:
//!
//! 1. On workloads whose processes are pairwise non-conflicting,
//!    scheduling decisions degenerate to the deterministic failure coins,
//!    so the default (sharded, multi-worker) configuration must commit and
//!    abort exactly the processes of the deterministic one-worker
//!    single-shard run, and both must hash to the golden outcome pin over
//!    256 seeds. The pin was recorded while the thread-per-process runtime
//!    still existed and agreed with the events runtime on every seed, so it
//!    keeps that differential's other side.
//! 2. With a single worker and closed arrivals the events runtime has no
//!    scheduling nondeterminism left: repeated runs must produce
//!    bit-identical merged histories.
//! 3. Termination stress: two workers on conflict-heavy, abort-heavy
//!    workloads must terminate every process. A run that stalls or
//!    livelocks fails under a watchdog instead of hanging the suite.

use std::collections::BTreeSet;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::schedule::{Event, Schedule};
use txproc_engine::{run_concurrent, ConcurrentConfig, ShardMode};
use txproc_sim::workload::{generate, WorkloadConfig};

/// FNV-1a over the `(seed, committed, aborted)` outcome sets of oracle 1's
/// 256 seeds, recorded with the events and thread runtimes in agreement.
const GOLDEN_OUTCOMES: u64 = 0x3107_9e2a_3674_9840;

type Outcomes = (BTreeSet<ProcessId>, BTreeSet<ProcessId>);

fn outcome_sets(history: &Schedule) -> Outcomes {
    let mut committed = BTreeSet::new();
    let mut aborted = BTreeSet::new();
    for e in history.events() {
        match e {
            Event::Commit(p) => {
                committed.insert(*p);
            }
            Event::Abort(p) => {
                aborted.insert(*p);
            }
            Event::GroupAbort(ps) => {
                aborted.extend(ps.iter().copied());
            }
            _ => {}
        }
    }
    (committed, aborted)
}

/// Folds one seed's outcome sets into an FNV-1a hash: the seed, then each
/// set as its length followed by its pids, all as little-endian `u64`s.
fn fold_outcomes(hash: &mut u64, seed: u64, (committed, aborted): &Outcomes) {
    let mut word = |x: u64| {
        for b in x.to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(seed);
    for set in [committed, aborted] {
        word(set.len() as u64);
        for p in set {
            word(u64::from(p.0));
        }
    }
}

/// Oracle 1: the default configuration and the one-worker single-shard run
/// commit and abort exactly the same processes on disjoint workloads, and
/// both match the golden pin, over 256 seeds.
#[test]
fn events_matches_golden_and_single_worker_on_disjoint_workloads_over_256_seeds() {
    let mut default_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut single_hash = default_hash;
    for seed in 0..256u64 {
        let processes = 3 + (seed % 4) as usize;
        let w = generate(&WorkloadConfig {
            seed,
            processes,
            clusters: processes, // one cluster per process: fully disjoint
            conflict_density: 0.0,
            failure_probability: 0.25,
            ..WorkloadConfig::default()
        });
        assert_eq!(
            DomainPartition::partition(&w.spec).domain_count(),
            processes,
            "seed {seed}: workload not fully disjoint"
        );
        let cfg = ConcurrentConfig {
            seed,
            ..ConcurrentConfig::default()
        };
        let sharded = run_concurrent(&w, cfg.clone());
        let single = run_concurrent(
            &w,
            ConcurrentConfig {
                shards: ShardMode::Single,
                workers: Some(1),
                ..cfg
            },
        );
        let outcomes = outcome_sets(&sharded.history);
        assert_eq!(
            outcomes,
            outcome_sets(&single.history),
            "seed {seed}: sharded vs single-worker outcome sets diverge"
        );
        assert_eq!(
            sharded.metrics.committed, single.metrics.committed,
            "seed {seed}: committed counts diverge"
        );
        assert_eq!(
            sharded.metrics.aborted, single.metrics.aborted,
            "seed {seed}: aborted counts diverge"
        );
        assert!(
            txproc_core::pred::is_pred(&w.spec, &sharded.history).unwrap(),
            "seed {seed}: events history not PRED"
        );
        fold_outcomes(&mut default_hash, seed, &outcomes);
        fold_outcomes(&mut single_hash, seed, &outcome_sets(&single.history));
    }
    assert_eq!(
        default_hash, GOLDEN_OUTCOMES,
        "default configuration drifted from the golden outcome pin"
    );
    assert_eq!(
        single_hash, GOLDEN_OUTCOMES,
        "single-worker run drifted from the golden outcome pin"
    );
}

/// Oracle 2: one worker + closed arrivals ⇒ the events runtime is fully
/// deterministic — bit-identical histories across repeated runs, including
/// on conflict-heavy multi-domain workloads.
#[test]
fn single_worker_events_runtime_is_deterministic() {
    for seed in [0u64, 7, 21, 42] {
        let w = generate(&WorkloadConfig {
            seed,
            processes: 10,
            clusters: 3,
            conflict_density: 0.5,
            failure_probability: 0.2,
            ..WorkloadConfig::default()
        });
        let cfg = ConcurrentConfig {
            seed,
            workers: Some(1),
            ..ConcurrentConfig::default()
        };
        let first = run_concurrent(&w, cfg.clone());
        assert_eq!(first.metrics.terminated(), 10, "seed {seed}");
        for rep in 0..3 {
            let again = run_concurrent(&w, cfg.clone());
            assert_eq!(
                first.history.events(),
                again.history.events(),
                "seed {seed} rep {rep}: single-worker histories diverge"
            );
            assert_eq!(
                first.metrics.committed, again.metrics.committed,
                "seed {seed} rep {rep}"
            );
        }
    }
}

/// Oracle 3: two workers terminate every process on abort-heavy contended
/// workloads. Runs under a watchdog: a stalled run is reported instead of
/// hanging the harness.
#[test]
fn two_worker_events_runtime_terminates_under_abort_heavy_stress() {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        for seed in 0..24u64 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 8,
                clusters: 2,
                conflict_density: 0.7,
                failure_probability: 0.3,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    seed,
                    workers: Some(2),
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 8, "seed {seed}");
        }
        tx.send(()).ok();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!(
            "events runtime did not terminate an abort-heavy workload within \
             the watchdog"
        ),
        // Sent, or the stress thread panicked: joining surfaces its panic.
        _ => handle.join().expect("stress runs clean"),
    }
}
