//! Scheduler crash recovery (§3.3): completing all active processes from the
//! durable logs.
//!
//! When the process scheduler crashes, its volatile state (policy graph,
//! process cursors, event queue) is gone. What survives is the emitted
//! history, the invocation log, the 2PC decision log, and the subsystems
//! themselves (holding committed state and in-doubt prepared transactions).
//! Recovery proceeds exactly as the completion construction of Definition 8
//! prescribes:
//!
//! 1. finish in-doubt 2PC groups from the coordinator's decision log,
//! 2. abort prepared invocations that were never decided,
//! 3. treat all still-active processes as aborted via a **group abort**
//!    appended to the history,
//! 4. execute each aborted process's completion — compensations in reverse
//!    order, then the retriable forward recovery path — with processes
//!    ordered reverse to the serialization order of the history, so the
//!    Lemma 2/3 orderings hold.
//!
//! The resulting extended history is exactly a completed process schedule;
//! the crash-recovery experiment (E16) verifies it reduces (RED).

use std::collections::BTreeMap;
use txproc_core::completion::complete;
use txproc_core::ids::{GlobalActivityId, ProcessId};
use txproc_core::schedule::{Event, OpKind, Schedule};
use txproc_core::serializability::process_graph_linear;
use txproc_core::spec::Spec;
use txproc_core::trace::{AbortReason, NoopSink, TraceEvent, TraceRecord, TraceSink};
use txproc_sim::workload::Workload;
use txproc_subsystem::agent::{Agent, CommitMode, InvokeOutcome};
use txproc_subsystem::error::SubsystemError;
use txproc_subsystem::subsystem::SubsystemId;
use txproc_subsystem::tpc::{Coordinator, Decision};

pub use crate::engine::InvocationLogEntry;

/// The durable state surviving a scheduler crash.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// The emitted history (the scheduler's durable log).
    pub history: Schedule,
    /// The subsystems (independent systems; they did not crash).
    pub agents: BTreeMap<SubsystemId, Agent>,
    /// The 2PC coordinator's decision log.
    pub coordinator: Coordinator,
    /// The durable invocation log.
    pub invocation_log: Vec<InvocationLogEntry>,
}

/// Outcome of recovery.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The extended history (original + group abort + completions).
    pub history: Schedule,
    /// Processes completed through the group abort, in completion order.
    pub aborted: Vec<ProcessId>,
    /// Compensating activities executed during recovery.
    pub compensations: usize,
    /// Forward-recovery activities executed during recovery.
    pub forward: usize,
    /// 2PC groups finished from the decision log.
    pub resolved_groups: usize,
    /// Prepared invocations aborted because no decision was logged.
    pub aborted_prepared: usize,
    /// The durable state after recovery: the extended history plus the
    /// updated subsystems, decision log and invocation log. A crash right
    /// after recovery resumes from this image — recovering it again must be
    /// a no-op (idempotence, exercised by the tests).
    pub image: CrashImage,
}

/// Decision trace of a recovery run. Recovery has no virtual clock, so
/// records are stamped with `time == seq` (journal order).
struct Tracer<'s> {
    sink: Box<dyn TraceSink + 's>,
    seq: u64,
}

impl Tracer<'_> {
    fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    fn emit(&mut self, history_len: usize, event: TraceEvent) {
        if !self.sink.enabled() {
            return;
        }
        let rec = TraceRecord {
            seq: self.seq,
            time: self.seq,
            history_len,
            shard: None,
            worker: None,
            event,
        };
        self.seq += 1;
        self.sink.record(rec);
    }
}

/// Where [`Recovery`] reads its durable state from.
#[derive(Debug)]
pub enum RecoverySource {
    /// A live crash image — the volatile-state path the tests and the
    /// `crash` CLI command use.
    Image(CrashImage),
    /// A WAL file on disk: salvage the clean prefix (torn tails are
    /// truncated), rebuild the crash image by replay, then recover.
    Wal(std::path::PathBuf),
    /// Raw WAL bytes (e.g. a [`txproc_core::wal::MemWal`] snapshot): the
    /// same salvage and rebuild as [`RecoverySource::Wal`].
    WalBytes(Vec<u8>),
}

/// What can go wrong between a durable log and a recovered history.
#[derive(Debug)]
pub enum RecoveryError {
    /// The WAL file could not be read.
    Io(std::io::Error),
    /// The salvaged log does not replay into a consistent crash image.
    Rebuild(crate::durability::RebuildError),
    /// A subsystem rejected a recovery action.
    Subsystem(SubsystemError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "reading WAL: {e}"),
            RecoveryError::Rebuild(e) => write!(f, "rebuilding crash image: {e}"),
            RecoveryError::Subsystem(e) => write!(f, "recovering: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The unified recovery entry point: image-based and WAL-based recovery
/// share this one call site and one traced path.
///
/// ```ignore
/// let report = Recovery::from(RecoverySource::Wal(path)).run(&workload)?;
/// let report = Recovery::from(RecoverySource::Image(image))
///     .sink(Box::new(journal.clone()))
///     .run(&workload)?;
/// ```
pub struct Recovery<'s> {
    source: RecoverySource,
    sink: Box<dyn TraceSink + 's>,
}

impl<'s> Recovery<'s> {
    /// Recovery over a durable source, with the no-op trace sink.
    #[allow(clippy::should_implement_trait)] // mirrors `RunBuilder::new`; not a `From` impl
    pub fn from(source: RecoverySource) -> Self {
        Self {
            source,
            sink: Box::new(NoopSink),
        }
    }

    /// Delivers the recovery decision trace into `sink`: the
    /// recovery-initiated group abort (`initiator: None` — the scheduler
    /// itself is the initiator), each victim's `AbortStarted` (reason
    /// `External`), every completion operation, and the final
    /// `ProcessAborted` terminations.
    pub fn sink(mut self, sink: Box<dyn TraceSink + 's>) -> Self {
        self.sink = sink;
        self
    }

    /// Resolves the source to a crash image (salvaging and replaying the
    /// WAL when needed) and runs recovery over it.
    pub fn run(self, workload: &Workload) -> Result<RecoveryReport, RecoveryError> {
        let image = match self.source {
            RecoverySource::Image(image) => image,
            RecoverySource::Wal(path) => {
                let (records, _clean) =
                    txproc_core::wal::read_wal_file(&path).map_err(RecoveryError::Io)?;
                crate::durability::rebuild_image(workload, &records)
                    .map_err(RecoveryError::Rebuild)?
            }
            RecoverySource::WalBytes(bytes) => {
                let (records, _clean) = txproc_core::wal::read_records(&bytes);
                crate::durability::rebuild_image(workload, &records)
                    .map_err(RecoveryError::Rebuild)?
            }
        };
        recover_impl(workload, image, self.sink).map_err(RecoveryError::Subsystem)
    }
}

/// Runs crash recovery over a crash image. Shorthand for
/// `Recovery::from(RecoverySource::Image(image)).run(workload)` with the
/// original `SubsystemError` error type.
pub fn recover(workload: &Workload, image: CrashImage) -> Result<RecoveryReport, SubsystemError> {
    recover_impl(workload, image, Box::new(NoopSink))
}

/// The one recovery implementation behind [`recover`] and [`Recovery`].
pub(crate) fn recover_impl<'s>(
    workload: &Workload,
    mut image: CrashImage,
    sink: Box<dyn TraceSink + 's>,
) -> Result<RecoveryReport, SubsystemError> {
    let mut tracer = Tracer { sink, seq: 0 };
    let spec = &workload.spec;

    // 1. Finish in-doubt 2PC groups from the decision log.
    let resolved = image.coordinator.resolve_in_doubt(&mut image.agents)?;
    let resolved_groups = resolved.len();
    // Committed releases missing their history event become visible. This
    // covers groups just resolved above *and* already-completed groups a
    // WAL truncation caught between phase 2 and the `Execute` append — an
    // applied decision whose history event never reached the log.
    let executed_gids: Vec<GlobalActivityId> = history_executed(&image.history);
    for record in image.coordinator.log() {
        if record.decision != Decision::Commit {
            continue;
        }
        for p in &record.participants {
            if let Some(entry) = image
                .invocation_log
                .iter()
                .find(|e| e.subsystem == p.subsystem && e.invocation == p.invocation)
            {
                if !executed_gids.contains(&entry.gid) {
                    image.history.execute(entry.gid);
                }
            }
        }
    }

    // 2. Abort prepared invocations that were never decided.
    let executed_gids: Vec<GlobalActivityId> = history_executed(&image.history);
    let mut aborted_prepared = 0;
    for entry in &image.invocation_log {
        if entry.prepared && !executed_gids.contains(&entry.gid) {
            let agent = image
                .agents
                .get_mut(&entry.subsystem)
                .expect("agent exists");
            // The invocation may already be resolved; ignore stale entries.
            if agent.abort_prepared(entry.invocation).is_ok() {
                aborted_prepared += 1;
            }
        }
    }

    // 3. Replay the history to rebuild process states; group-abort actives.
    let replay = image
        .history
        .replay(spec)
        .expect("durable history is a legal schedule");
    let mut actives: Vec<ProcessId> = replay
        .states
        .iter()
        .filter(|(_, st)| st.is_active())
        .map(|(&p, _)| p)
        .collect();
    // Reverse serialization order (dependents complete first — Lemma 2).
    let ranks = serialization_ranks(spec, &image.history);
    actives.sort_by_key(|p| std::cmp::Reverse((ranks.get(p).copied().unwrap_or(0), p.0)));

    let mut history = image.history.clone();
    if !actives.is_empty() {
        if tracer.enabled() {
            tracer.emit(
                history.len(),
                TraceEvent::GroupAbort {
                    initiator: None,
                    victims: actives.clone(),
                    trigger: None,
                },
            );
        }
        history.group_abort(actives.clone());
        if tracer.enabled() {
            for &pid in &actives {
                tracer.emit(
                    history.len(),
                    TraceEvent::AbortStarted {
                        pid,
                        reason: AbortReason::External,
                    },
                );
            }
        }
    }

    // 4. Execute completions in a single ≪̃-respecting interleaved order.
    //    Running each process's completion serially is NOT sound: a forward
    //    recovery activity of one process may then land between another
    //    process's base activity and its compensation, violating Lemma 3 and
    //    leaving the recovered history irreducible. The completion
    //    construction of Definition 8 already carries the correct partial
    //    order `≪̃`, so recovery executes one of its linearisations.
    let completed = complete(spec, &history).expect("group-aborted history has a completion");
    let mut states = history
        .replay(spec)
        .expect("group-aborted history is a legal schedule")
        .states;
    let mut compensations = 0;
    let mut forward = 0;
    let invocation_of: BTreeMap<
        GlobalActivityId,
        (SubsystemId, txproc_subsystem::agent::InvocationId),
    > = image
        .invocation_log
        .iter()
        .filter(|e| !e.prepared || executed_gids.contains(&e.gid))
        .map(|e| (e.gid, (e.subsystem, e.invocation)))
        .collect();
    let topo = completed
        .order
        .topological_order()
        .expect("≪̃ construction is acyclic");
    for idx in topo {
        if idx < completed.original_len {
            continue;
        }
        let op = &completed.ops[idx];
        let gid = op.gid;
        let (pid, a) = (gid.process, gid.activity);
        let state = states.get_mut(&pid).expect("completing state");
        match op.kind {
            OpKind::Compensation => {
                let &(sid, invocation) = invocation_of
                    .get(&gid)
                    .expect("compensatable activity was logged");
                let agent = image.agents.get_mut(&sid).expect("agent");
                match agent.compensate(invocation)? {
                    InvokeOutcome::Committed { .. } => {
                        if tracer.enabled() {
                            let service = spec.process(pid).expect("known").service(a);
                            tracer.emit(
                                history.len(),
                                TraceEvent::CompensationStarted { gid, service },
                            );
                        }
                        history.compensate(gid);
                        state.apply_compensation(a).expect("queued compensation");
                        compensations += 1;
                    }
                    other => panic!("compensation must succeed during recovery: {other:?}"),
                }
            }
            OpKind::Forward => {
                let process = spec.process(pid).expect("known process");
                let svc = process.service(a);
                let site = workload.deployment.site(svc).expect("deployed");
                let sid = site.subsystem;
                let program = site.program.clone();
                let agent = image.agents.get_mut(&sid).expect("agent");
                match agent.invoke(svc, &program, CommitMode::Immediate, false)? {
                    InvokeOutcome::Committed { .. } => {
                        history.execute(gid);
                        if tracer.enabled() {
                            tracer.emit(
                                history.len(),
                                TraceEvent::RequestAdmitted {
                                    gid,
                                    service: svc,
                                    deferred: false,
                                    blockers: Vec::new(),
                                    edges_added: Vec::new(),
                                },
                            );
                        }
                        state.apply_commit(a).expect("forward path");
                        forward += 1;
                    }
                    other => panic!("forward recovery must succeed: {other:?}"),
                }
            }
        }
    }
    for &pid in &actives {
        debug_assert!(
            states.get(&pid).is_some_and(|s| !s.is_active()),
            "completion terminates process {pid:?}"
        );
        if tracer.enabled() {
            tracer.emit(history.len(), TraceEvent::ProcessAborted { pid });
        }
    }

    Ok(RecoveryReport {
        image: CrashImage {
            history: history.clone(),
            agents: image.agents,
            coordinator: image.coordinator,
            invocation_log: image.invocation_log,
        },
        history,
        aborted: actives,
        compensations,
        forward,
        resolved_groups,
        aborted_prepared,
    })
}

fn history_executed(history: &Schedule) -> Vec<GlobalActivityId> {
    history
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Execute(g) => Some(*g),
            _ => None,
        })
        .collect()
}

fn serialization_ranks(spec: &Spec, history: &Schedule) -> BTreeMap<ProcessId, usize> {
    let ops = history.ops(spec).expect("legal history");
    let g = process_graph_linear(spec, &ops);
    match g.topological_order() {
        Some(order) => order.into_iter().enumerate().map(|(r, p)| (p, r)).collect(),
        None => BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunConfig};
    use txproc_core::reduction::is_reducible;
    use txproc_sim::workload::{generate, WorkloadConfig};

    fn workload(seed: u64) -> Workload {
        generate(&WorkloadConfig {
            seed,
            processes: 6,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        })
    }

    /// `recover` and `Recovery` over an image source are two names for one
    /// procedure: identical reports over 256 seeds of varied shape.
    #[test]
    fn recover_and_recovery_from_image_agree() {
        for seed in 0..256u64 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 3 + (seed % 4) as usize,
                clusters: 1 + (seed % 3) as usize,
                conflict_density: (seed % 5) as f64 / 5.0,
                failure_probability: if seed.is_multiple_of(2) { 0.2 } else { 0.0 },
                ..WorkloadConfig::default()
            });
            let cfg = RunConfig {
                seed,
                epoch: (seed % 5) as usize,
                ..RunConfig::default()
            };
            let mut engine = Engine::new(&w, cfg);
            engine.run_until_history(3 + (seed % 7) as usize);
            let image = engine.crash();
            let plain = recover(&w, image.clone()).expect("recover");
            let unified = Recovery::from(RecoverySource::Image(image))
                .run(&w)
                .expect("Recovery::run");
            assert_eq!(
                txproc_core::schedule::render(&plain.history),
                txproc_core::schedule::render(&unified.history),
                "seed {seed}"
            );
            assert_eq!(plain.aborted, unified.aborted, "seed {seed}");
            assert_eq!(plain.compensations, unified.compensations, "seed {seed}");
        }
    }

    #[test]
    fn recovery_after_midrun_crash_yields_reducible_history() {
        for crash_at in [1, 3, 6, 10, 15] {
            let w = workload(11);
            let mut engine = Engine::new(&w, RunConfig::default());
            engine.run_until_history(crash_at);
            let image = engine.crash();
            let report = recover(&w, image).expect("recovery succeeds");
            // The extended history must replay and reduce (RED).
            assert!(
                is_reducible(&w.spec, &report.history).unwrap(),
                "crash at {crash_at}: recovered history not reducible:\n{}",
                txproc_core::schedule::render(&report.history)
            );
            // Every process terminated.
            let replay = report.history.replay(&w.spec).unwrap();
            assert!(replay.active_processes().is_empty(), "crash at {crash_at}");
        }
    }

    #[test]
    fn recovery_of_finished_run_is_a_noop() {
        let w = workload(12);
        let mut engine = Engine::new(&w, RunConfig::default());
        while engine.tick() {}
        let image = engine.crash();
        let report = recover(&w, image).unwrap();
        assert!(report.aborted.is_empty());
        assert_eq!(report.compensations, 0);
        assert_eq!(report.forward, 0);
    }

    #[test]
    fn recovery_aborts_undecided_prepared_invocations() {
        // Find a crash point where some invocation is prepared (deferred).
        let mut exercised = false;
        'search: for seed in 0..64u64 {
            for crash_at in [4usize, 6, 8, 10, 12] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let deferred_now = engine.metrics().deferred_commits;
                let image = engine.crash();
                let report = recover(&w, image).unwrap();
                if deferred_now > 0 && report.aborted_prepared > 0 {
                    exercised = true;
                    break 'search;
                }
            }
        }
        assert!(exercised, "no crash point with a prepared invocation found");
    }

    #[test]
    fn recovery_is_idempotent() {
        // Crashing again immediately after recovery and recovering the
        // post-recovery image must change nothing: every process already
        // terminated, every in-doubt group is resolved, every undecided
        // prepared invocation is already aborted.
        for seed in [11u64, 14, 23] {
            for crash_at in [3usize, 7, 12] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let first = recover(&w, engine.crash()).expect("first recovery");
                let second = recover(&w, first.image.clone()).expect("second recovery");
                assert_eq!(
                    txproc_core::schedule::render(&second.history),
                    txproc_core::schedule::render(&first.history),
                    "seed {seed} crash {crash_at}: second recovery changed the history"
                );
                assert!(second.aborted.is_empty(), "seed {seed} crash {crash_at}");
                assert_eq!(second.compensations, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.forward, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.resolved_groups, 0, "seed {seed} crash {crash_at}");
                assert_eq!(second.aborted_prepared, 0, "seed {seed} crash {crash_at}");
            }
        }
    }

    #[test]
    fn recovered_histories_are_pred() {
        // Stronger than reducibility of the final completed schedule: the
        // whole extended history stays prefix-reducible, because recovery
        // executes the completion in a ≪̃-respecting order (Lemma 3).
        for seed in [11u64, 21, 31] {
            for crash_at in [2usize, 5, 9, 14] {
                let w = workload(seed);
                let mut engine = Engine::new(
                    &w,
                    RunConfig {
                        seed,
                        ..RunConfig::default()
                    },
                );
                engine.run_until_history(crash_at);
                let report = recover(&w, engine.crash()).expect("recovery succeeds");
                assert!(
                    txproc_core::pred::is_pred(&w.spec, &report.history).unwrap(),
                    "seed {seed} crash {crash_at}: recovered history not PRED:\n{}",
                    txproc_core::schedule::render(&report.history)
                );
            }
        }
    }

    #[test]
    fn recovery_is_deterministic() {
        let w = workload(13);
        let run_once = || {
            let mut engine = Engine::new(&w, RunConfig::default());
            engine.run_until_history(7);
            let report = recover(&w, engine.crash()).unwrap();
            txproc_core::schedule::render(&report.history)
        };
        assert_eq!(run_once(), run_once());
    }
}
