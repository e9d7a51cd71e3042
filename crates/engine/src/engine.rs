//! The transactional process scheduler runtime: a deterministic virtual-time
//! executor driving processes through a [`Policy`](crate::policy::Policy)
//! over simulated subsystems.
//!
//! The engine is the WISE-style system the paper describes in its
//! conclusion: it admits processes with guaranteed termination, asks the
//! scheduling policy before every activity, invokes services at the
//! subsystem agents (with failure injection), handles alternative execution
//! paths and compensations via the per-process state machines, defers
//! non-compensatable commits via 2PC where the protocol demands it, cascades
//! aborts, and records the emitted history as a
//! [`Schedule`](txproc_core::schedule::Schedule) that can be checked for
//! PRED offline.

use crate::policy::{CertifierKind, Policy, PolicyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use txproc_core::activity::Termination;
use txproc_core::ids::{ActivityId, GlobalActivityId, ProcessId};
use txproc_core::protocol::Admission;
use txproc_core::schedule::Schedule;
use txproc_core::state::{FailureOutcome, ProcessState, ProcessStatus};
use txproc_core::telemetry::{Phase, Telemetry};
use txproc_core::trace::{AbortReason, NoopSink, TraceEvent, TraceRecord, TraceSink};
use txproc_core::wal::{WalRecord, WalWriter};
use txproc_sim::clock::{EventQueue, SimTime};
use txproc_sim::metrics::Metrics;
use txproc_sim::timeseries::TimeSeries;
use txproc_sim::workload::Workload;
use txproc_subsystem::agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::subsystem::{Subsystem, SubsystemId};
use txproc_subsystem::tpc::{Coordinator, Participant};

/// Run configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// RNG seed for failure injection.
    pub seed: u64,
    /// Whether failable activities may fail (probability from the workload).
    pub inject_failures: bool,
    /// Virtual time between process arrivals (0: all at time zero).
    pub arrival_gap: u64,
    /// Verify the emitted history for PRED after the run (expensive).
    pub check_pred: bool,
    /// Which §3.5 certifier implementation answers the per-event
    /// certification (certified policies only).
    pub certifier: CertifierKind,
    /// Epoch size for group certification and batch commit. `0` keeps the
    /// per-event path bit-identical to earlier releases. With `N > 0` the
    /// engine retains each certified plan for its matching `record` (one
    /// closure computation per admitted event instead of two), groups up to
    /// `N` deferred 2PC releases into one prepare→decide round, and flushes
    /// the trace sink once per `N` emitted events (or earlier under
    /// conflict pressure). `N = 1` closes an epoch per event and stays
    /// bit-identical — history *and* metrics — to `N = 0`.
    #[serde(default)]
    pub epoch: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::Pred,
            seed: 7,
            inject_failures: true,
            arrival_gap: 0,
            check_pred: false,
            certifier: CertifierKind::Incremental,
            epoch: 0,
        }
    }
}

/// Result of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Collected metrics.
    pub metrics: Metrics,
    /// The emitted history.
    pub history: Schedule,
    /// PRED verdict of the history (when `check_pred` was set).
    pub pred_ok: Option<bool>,
    /// Processes that could not make progress (scheduling stall — should
    /// always be empty; reported instead of hanging).
    pub stalled: Vec<ProcessId>,
}

/// Internal per-process bookkeeping.
#[derive(Debug, Clone, PartialEq)]
enum Waiting {
    /// Ready/running: the next dispatch token is scheduled.
    No,
    /// Waiting for any of these processes to terminate.
    OnProcesses(Vec<ProcessId>),
    /// Executed under deferred commit; waiting for release.
    OnRelease,
}

struct PendingRelease {
    gid: GlobalActivityId,
    activity: ActivityId,
    subsystem: SubsystemId,
    invocation: InvocationId,
}

/// The engine.
pub struct Engine<'a> {
    workload: &'a Workload,
    cfg: RunConfig,
    policy: Box<dyn Policy + Send + 'a>,
    agents: BTreeMap<SubsystemId, Agent>,
    coordinator: Coordinator,
    states: BTreeMap<ProcessId, ProcessState<'a>>,
    queue: EventQueue<(ProcessId, u64)>,
    /// Latest dispatch token per process; stale events no-op.
    tokens: BTreeMap<ProcessId, u64>,
    next_token: u64,
    history: Schedule,
    metrics: Metrics,
    now: SimTime,
    rng: StdRng,
    /// Committed forward invocations, for later compensation.
    invocations: BTreeMap<GlobalActivityId, (SubsystemId, InvocationId)>,
    pending_release: BTreeMap<ProcessId, PendingRelease>,
    waiting: BTreeMap<ProcessId, Waiting>,
    arrivals: BTreeMap<ProcessId, u64>,
    done: BTreeSet<ProcessId>,
    /// Order in which aborts were initiated (Definition 8.3(f): completions
    /// of concurrently aborting processes are ordered consistently).
    abort_seq: BTreeMap<ProcessId, u64>,
    next_abort_seq: u64,
    /// Whether every effect event is certified against the completed prefix
    /// (§3.5) before it is emitted.
    certify: bool,
    /// The incremental §3.5 certifier (when configured). Kept in lock-step
    /// with `history` lazily: `certified_ok` absorbs newly emitted events
    /// before certifying the candidate, so each event is processed exactly
    /// once over the whole run. `RefCell` because diagnostic probes certify
    /// through `&self`.
    incremental: Option<RefCell<txproc_core::pred_incremental::IncrementalPred<'a>>>,
    /// Deferred releases postponed by certification, stamped with the
    /// history length at failure time; retried only once the history
    /// actually advanced (the certifier's answer depends on nothing else).
    postponed_releases: Vec<(ProcessId, Vec<GlobalActivityId>, usize)>,
    /// Consecutive certification failures per process; escalates to an
    /// abort so the run cannot livelock.
    cert_failures: BTreeMap<ProcessId, u32>,
    /// Transient-retry counters for retriable activities.
    retries_left: BTreeMap<GlobalActivityId, u32>,
    /// Durable invocation log (survives scheduler crashes): every service
    /// invocation with its subsystem transaction handle.
    invocation_log: Vec<InvocationLogEntry>,
    stall_guard: u32,
    /// Consecutive processed events without progress (livelock detector).
    no_progress_ticks: u32,
    /// Decision-trace sink ([`NoopSink`] unless installed via
    /// [`crate::builder::RunBuilder::sink`]). Emission sites consult
    /// `sink.enabled()` before building payloads, so the no-op sink costs
    /// one branch.
    sink: Box<dyn TraceSink + 'a>,
    /// Next trace sequence number.
    trace_seq: u64,
    /// Virtual time at which each currently blocked process entered its
    /// wait, for the per-process blocked-time metric.
    blocked_since: BTreeMap<ProcessId, u64>,
    /// Telemetry registry handle (disabled unless installed via
    /// [`crate::builder::RunBuilder::telemetry`]). Phase timers consult
    /// `tele.enabled()` before reading the clock, so the disabled handle
    /// costs one branch — the same discipline as the [`NoopSink`] trace
    /// path.
    tele: Telemetry,
    /// Wall instant at which each process's deferred invocation prepared;
    /// populated only while telemetry is enabled (disabled runs stay
    /// byte-identical). Drives the [`Phase::TwoPc`] prepare→decide gap.
    prepared_at: BTreeMap<ProcessId, Instant>,
    /// Virtual-time sampling: every `K` processed events, snapshot the
    /// registry into the ring (installed via
    /// [`crate::builder::RunBuilder::sampling`]).
    sampling: Option<(u64, TimeSeries)>,
    /// Processed (non-stale) dispatch events, for the sampling cadence.
    events_processed: u64,
    /// History events emitted since the last epoch close (`cfg.epoch > 0`
    /// only). An epoch closes on fill (`>= cfg.epoch`), on certification
    /// failure (conflict pressure — get the decision trace out while the
    /// run stalls), and at run end.
    epoch_pending: usize,
    /// Deferred 2PC releases accumulated for the current group-commit
    /// round (`cfg.epoch > 0` only); flushed as one
    /// [`Coordinator::commit_group`] call per `cfg.epoch` participants.
    epoch_group: Vec<Participant>,
    /// Durable write-ahead journal (absent unless installed via
    /// [`Engine::with_wal`]). Every durable state transition appends a
    /// typed record; `engine::durability::rebuild_image` replays the log
    /// back into a [`CrashImage`](crate::recovery::CrashImage). The WAL is
    /// pure observation: installing it never changes scheduling decisions,
    /// so WAL-on and WAL-off runs emit bit-identical histories.
    wal: Option<WalWriter>,
    /// Append a full-state snapshot marker every this many emitted history
    /// events (`0`: never — recovery replays from the log head).
    snapshot_every: usize,
    /// History length at the last snapshot marker.
    last_snapshot: usize,
    /// Monotonic counter for WAL epoch-seal records.
    wal_epoch: u64,
}

/// One durable invocation-log entry: enough to find the subsystem
/// transaction of an activity after a scheduler crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationLogEntry {
    /// The activity.
    pub gid: GlobalActivityId,
    /// Where it ran.
    pub subsystem: SubsystemId,
    /// The invocation handle at the agent.
    pub invocation: InvocationId,
    /// Whether the invocation was left prepared (commit deferred).
    pub prepared: bool,
}

const BUSY_BACKOFF: u64 = 1;
const MAX_TRANSIENT_RETRIES: u32 = 3;

impl<'a> Engine<'a> {
    /// Sets up a run over a workload with the default (no-op) trace sink.
    pub fn new(workload: &'a Workload, cfg: RunConfig) -> Self {
        Self::assemble(workload, cfg, Box::new(NoopSink))
    }

    /// The one engine constructor behind [`Engine::new`] and
    /// [`crate::builder::RunBuilder`].
    pub(crate) fn assemble(
        workload: &'a Workload,
        cfg: RunConfig,
        sink: Box<dyn TraceSink + 'a>,
    ) -> Self {
        let policy = cfg.policy.build(&workload.spec);
        let mut agents = BTreeMap::new();
        for sid in workload.deployment.subsystems() {
            agents.insert(
                sid,
                Agent::new(Subsystem::new(sid, format!("sub{}", sid.0))),
            );
        }
        let mut engine = Self {
            workload,
            cfg: cfg.clone(),
            policy,
            agents,
            coordinator: Coordinator::new(),
            states: BTreeMap::new(),
            queue: EventQueue::new(),
            tokens: BTreeMap::new(),
            next_token: 0,
            history: Schedule::new(),
            metrics: Metrics::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(cfg.seed),
            invocations: BTreeMap::new(),
            pending_release: BTreeMap::new(),
            waiting: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            done: BTreeSet::new(),
            retries_left: BTreeMap::new(),
            invocation_log: Vec::new(),
            stall_guard: 0,
            no_progress_ticks: 0,
            abort_seq: BTreeMap::new(),
            next_abort_seq: 0,
            certify: cfg.policy.certified(),
            incremental: (cfg.policy.certified() && cfg.certifier == CertifierKind::Incremental)
                .then(|| {
                    RefCell::new(txproc_core::pred_incremental::IncrementalPred::new(
                        &workload.spec,
                    ))
                }),
            postponed_releases: Vec::new(),
            cert_failures: BTreeMap::new(),
            sink,
            trace_seq: 0,
            blocked_since: BTreeMap::new(),
            tele: Telemetry::off(),
            prepared_at: BTreeMap::new(),
            sampling: None,
            events_processed: 0,
            epoch_pending: 0,
            epoch_group: Vec::new(),
            wal: None,
            snapshot_every: 0,
            last_snapshot: 0,
            wal_epoch: 0,
        };
        // Closed arrivals keep the config's `arrival_gap` staggering; open
        // models (Poisson / Burst) take their times from the workload.
        let open = !matches!(
            workload.config.arrivals,
            txproc_sim::workload::ArrivalModel::Closed
        );
        let times = open.then(|| txproc_sim::workload::arrival_times(&workload.config));
        let mut at = 0u64;
        for (idx, process) in workload.spec.processes().enumerate() {
            let pid = process.id;
            let state = ProcessState::new(process, &workload.spec.catalog)
                .expect("workload processes are tree-structured");
            engine.states.insert(pid, state);
            let arrive = match &times {
                Some(ts) => ts[idx],
                None => at,
            };
            engine.arrivals.insert(pid, arrive);
            engine.policy.register(pid);
            engine.waiting.insert(pid, Waiting::No);
            engine.schedule_dispatch(pid, SimTime(arrive));
            at += cfg.arrival_gap;
        }
        engine
    }

    /// Installs a telemetry handle: phase timers (certify / policy /
    /// compensation / 2PC prepare→decide) feed its registry. With a
    /// disabled handle the hot paths cost one branch and read no clocks.
    pub(crate) fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Samples the telemetry registry into `series` every `every_events`
    /// processed dispatch events, stamped with the virtual clock. No-op
    /// while telemetry is disabled.
    pub(crate) fn set_sampling(&mut self, every_events: u64, series: TimeSeries) {
        self.sampling = Some((every_events.max(1), series));
    }

    /// Installs a durable write-ahead journal: every durable state
    /// transition (invocation, release, decision, history event) appends a
    /// typed record before the run proceeds past it. `snapshot_every > 0`
    /// additionally appends a full-state snapshot marker each time that
    /// many history events accumulated since the last one, so recovery
    /// replays only the log tail. Journaling is pure observation — the
    /// emitted history is bit-identical with and without it.
    pub fn with_wal(mut self, writer: WalWriter, snapshot_every: usize) -> Self {
        self.set_wal(writer, snapshot_every);
        self
    }

    pub(crate) fn set_wal(&mut self, writer: WalWriter, snapshot_every: usize) {
        self.wal = Some(writer);
        self.snapshot_every = snapshot_every;
    }

    /// WAL writer counters `(records, bytes, syncs)`, when journaling.
    pub fn wal_stats(&self) -> Option<(u64, u64, u64)> {
        self.wal
            .as_ref()
            .map(|w| (w.records(), w.bytes(), w.syncs()))
    }

    /// Appends one record to the journal (no-op without one).
    #[inline]
    fn wal_append(&mut self, record: WalRecord) {
        if let Some(w) = &mut self.wal {
            w.append(&record);
        }
    }

    /// Appends a history-event record to the journal (no-op without one).
    #[inline]
    fn wal_event(&mut self, event: txproc_core::schedule::Event) {
        if self.wal.is_some() {
            self.wal_append(WalRecord::Event { event });
        }
    }

    /// The emitted history so far.
    pub fn history(&self) -> &Schedule {
        &self.history
    }

    /// Current metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Subsystem agents (inspection in tests).
    pub fn agents(&self) -> &BTreeMap<SubsystemId, Agent> {
        &self.agents
    }

    /// Processes that have not terminated.
    pub fn live_processes(&self) -> Vec<ProcessId> {
        self.states
            .keys()
            .filter(|p| !self.done.contains(p))
            .copied()
            .collect()
    }

    /// Whether decision tracing is on. Emission sites building non-trivial
    /// payloads (clones, vectors) guard on this so the no-op sink stays
    /// zero-cost.
    #[inline]
    fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// Emits one decision record, stamped with the causal position.
    fn trace(&mut self, event: TraceEvent) {
        if !self.sink.enabled() {
            return;
        }
        let rec = TraceRecord {
            seq: self.trace_seq,
            time: self.now.0,
            history_len: self.history.len(),
            shard: None,
            worker: None,
            event,
        };
        self.trace_seq += 1;
        self.sink.record(rec);
    }

    /// Marks the start of a blocked interval (idempotent while blocked).
    fn mark_blocked(&mut self, pid: ProcessId) {
        let now = self.now.0;
        self.blocked_since.entry(pid).or_insert(now);
    }

    /// Closes a blocked interval, accumulating it into the metrics.
    fn mark_unblocked(&mut self, pid: ProcessId) {
        if let Some(t) = self.blocked_since.remove(&pid) {
            *self.metrics.blocked_time.entry(pid.0).or_insert(0) += self.now.0.saturating_sub(t);
        }
    }

    fn count_abort_reason(&mut self, reason: AbortReason) {
        let r = &mut self.metrics.abort_reasons;
        match reason {
            AbortReason::Rejected => r.rejected += 1,
            AbortReason::Cascade => r.cascade += 1,
            AbortReason::Failure => r.failure += 1,
            AbortReason::CertStuck => r.cert_stuck += 1,
            AbortReason::Deadlock => r.deadlock += 1,
            AbortReason::External => r.external += 1,
        }
    }

    fn schedule_dispatch(&mut self, pid: ProcessId, at: SimTime) {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.insert(pid, token);
        self.queue.schedule(at, (pid, token));
    }

    fn duration_of(&self, gid: GlobalActivityId) -> u64 {
        let process = self.workload.spec.process(gid.process).expect("known");
        let svc = process.service(gid.activity);
        self.workload
            .deployment
            .site(svc)
            .map(|s| s.duration)
            .unwrap_or(1)
    }

    /// Processes one pending event. Returns `false` when nothing remains
    /// (all processes terminated or stalled for good).
    pub fn tick(&mut self) -> bool {
        loop {
            let Some((time, (pid, token))) = self.queue.pop() else {
                // Queue drained: wake waiting processes; if nothing
                // progresses, resolve the deadlock by aborting a victim
                // (mutual waits — deferment vs. release vs. commit order —
                // can only be broken by an abort, which is always legal for
                // an uncommitted process).
                let undone: Vec<ProcessId> = self.live_processes();
                if undone.is_empty() {
                    return false;
                }
                if self.stall_guard > 2 {
                    if !self.break_deadlock() {
                        return false; // everything already aborting: stuck
                    }
                    continue;
                }
                self.stall_guard += 1;
                for pid in undone {
                    // Never clobber OnRelease: the process already executed
                    // its deferred activity and must not re-run it.
                    if !matches!(self.waiting.get(&pid), Some(Waiting::OnRelease)) {
                        self.mark_unblocked(pid);
                        self.waiting.insert(pid, Waiting::No);
                    }
                    let at = self.now;
                    self.schedule_dispatch(pid, at);
                }
                continue;
            };
            if self.tokens.get(&pid) != Some(&token) {
                continue; // stale
            }
            self.now = time;
            self.events_processed += 1;
            if let Some((every, series)) = &self.sampling {
                if self.events_processed.is_multiple_of(*every) {
                    if let Some(snap) = self.tele.snapshot() {
                        series.push_virtual(self.now.0, snap);
                    }
                }
            }
            let before = (
                self.history.len(),
                self.invocation_log.len(),
                self.done.len(),
            );
            self.dispatch(pid);
            let after = (
                self.history.len(),
                self.invocation_log.len(),
                self.done.len(),
            );
            if self.cfg.epoch > 0 {
                self.epoch_pending += after.0 - before.0;
                if self.epoch_pending >= self.cfg.epoch {
                    self.close_epoch();
                }
            }
            // Snapshot at tick boundaries only: the release group is empty
            // and no 2PC decision window is open, so the captured state is
            // consistent by construction.
            if self.wal.is_some()
                && self.snapshot_every > 0
                && self.history.len() - self.last_snapshot >= self.snapshot_every
            {
                self.append_snapshot();
            }
            if before != after {
                // Real progress: effects, prepares, or terminations.
                self.stall_guard = 0;
                self.no_progress_ticks = 0;
            } else {
                // Backoff/retry livelocks (e.g. everything Busy behind a
                // prepared transaction) never drain the queue; detect them
                // by counting progress-free ticks.
                self.no_progress_ticks += 1;
                if self.no_progress_ticks > 2_000 {
                    self.no_progress_ticks = 0;
                    self.break_deadlock();
                }
            }
            return true;
        }
    }

    /// Deadlock resolution: aborts the youngest live non-aborting process
    /// (always legal before its commit). Returns false when every live
    /// process is already aborting.
    fn break_deadlock(&mut self) -> bool {
        let victim = self
            .live_processes()
            .into_iter()
            .rev()
            .find(|p| self.states[p].is_active() && !self.states[p].abort_in_progress());
        let Some(victim) = victim else {
            return false;
        };
        self.metrics.rejections += 1;
        self.stall_guard = 0;
        self.initiate_abort(victim, AbortReason::Deadlock, None);
        true
    }

    /// Runs until the emitted history holds at least `n` events (or nothing
    /// remains to do).
    pub fn run_until_history(&mut self, n: usize) {
        while self.history.len() < n && self.tick() {}
    }

    /// Runs to completion; returns the result.
    pub fn run(mut self) -> RunResult {
        // Safety bound: a run of n processes needs O(n · activities) events;
        // hitting the bound indicates a scheduling livelock, which is
        // reported via `stalled` instead of hanging.
        let max_ticks = 10_000 * (self.states.len() as u64 + 1);
        let mut ticks = 0u64;
        while self.tick() {
            ticks += 1;
            if ticks > max_ticks {
                break;
            }
        }
        if self.cfg.epoch > 0 {
            self.close_epoch();
        }
        if let Some(w) = &mut self.wal {
            w.finish();
        }
        self.metrics.makespan = self.now.0;
        let stalled = self.live_processes();
        let pred_ok = if self.cfg.check_pred {
            Some(txproc_core::pred::is_pred(&self.workload.spec, &self.history).unwrap_or(false))
        } else {
            None
        };
        if let Some(false) = pred_ok {
            self.metrics.violations += 1;
        }
        RunResult {
            metrics: self.metrics,
            history: self.history,
            pred_ok,
            stalled,
        }
    }

    /// §3.5 certification: would the history extended by `event` still have
    /// a reducible completed schedule? Certified policies gate every effect
    /// event on this — which makes every emitted prefix reducible, i.e. the
    /// history PRED by construction.
    fn certified_ok(&self, event: txproc_core::schedule::Event) -> bool {
        if !self.certify {
            return true;
        }
        let t0 = self.tele.phase_start();
        let ok = self.certified_ok_inner(event);
        self.tele.phase_end(Phase::Certify, t0);
        ok
    }

    fn certified_ok_inner(&self, event: txproc_core::schedule::Event) -> bool {
        if let Some(cell) = &self.incremental {
            let mut inc = cell.borrow_mut();
            // Absorb history events emitted since the last certification;
            // amortized, every event is recorded exactly once per run. The
            // sync stays per-event `record` (not `record_epoch`): emitted
            // history may contain forcibly recorded non-reducible events
            // (aborts), which a batch verdict would refuse to apply.
            for e in &self.history.events()[inc.len()..] {
                inc.record(e).expect("emitted history event is legal");
            }
            // Epoch mode retains the certified plan so the admitting
            // `record` above (next sync) replays it instead of re-planning:
            // one closure / `PairCounts` computation per admitted event.
            // `certify` and `certify_keep` answer identically — the cache
            // is a pure amortization, so histories stay bit-identical.
            let verdict = if self.cfg.epoch > 0 {
                inc.certify_keep(&event)
            } else {
                inc.certify(&event)
            };
            return match verdict {
                Ok(verdict) => verdict.reducible,
                Err(_) => false,
            };
        }
        let mut candidate = self.history.clone();
        candidate.push(event);
        match txproc_core::completion::complete(&self.workload.spec, &candidate) {
            Ok(completed) => {
                txproc_core::reduction::reduce(&self.workload.spec, &completed).reducible
            }
            Err(_) => false,
        }
    }

    /// [`Engine::certified_ok`] plus bookkeeping: counts failed verdicts in
    /// the metrics and emits a [`TraceEvent::CertifyOutcome`] per decision
    /// (certified policies only).
    fn certified_traced(&mut self, event: txproc_core::schedule::Event) -> bool {
        if !self.certify {
            return true;
        }
        let ok = self.certified_ok(event.clone());
        if !ok {
            self.metrics.cert_failures += 1;
        }
        if self.tracing() {
            let frontier = self.history.len() + 1;
            self.trace(TraceEvent::CertifyOutcome {
                event,
                ok,
                frontier,
            });
        }
        ok
    }

    /// Closes the current epoch: flushes the trace sink (one write for the
    /// whole batch), samples the epoch-fill and flush-latency histograms,
    /// and counts the batch in the metrics. `epoch >= 2` only for the
    /// counters — an epoch of one *is* the per-event path, and counting it
    /// would break the `epoch=1 ≡ per-event` metrics identity the
    /// differential oracle pins.
    fn close_epoch(&mut self) {
        if self.epoch_pending == 0 {
            return;
        }
        let fill = self.epoch_pending as u64;
        self.epoch_pending = 0;
        if self.cfg.epoch >= 2 {
            self.metrics.epoch_batches += 1;
            self.metrics.epoch_events += fill;
        }
        self.tele.phase_ns(Phase::EpochFill, fill);
        let t0 = self.tele.phase_start();
        self.sink.flush();
        self.tele.phase_end(Phase::EpochFlush, t0);
        if let Some(w) = &mut self.wal {
            let epoch = self.wal_epoch;
            self.wal_epoch += 1;
            w.seal_epoch(epoch);
        }
    }

    /// Appends a full-state snapshot marker: history, invocation log, 2PC
    /// decision log, and agents, serialized so recovery restores them and
    /// replays only the records that follow.
    fn append_snapshot(&mut self) {
        self.last_snapshot = self.history.len();
        let payload = crate::durability::snapshot_payload(
            &self.history,
            &self.invocation_log,
            &self.coordinator,
            &self.agents,
        );
        self.wal_append(WalRecord::SnapshotMarker { payload });
    }

    fn dispatch(&mut self, pid: ProcessId) {
        self.retry_postponed_releases();
        if self.done.contains(&pid) {
            return;
        }
        if matches!(self.waiting.get(&pid), Some(Waiting::OnRelease)) {
            return;
        }
        let status = self.states[&pid].status();
        if status != ProcessStatus::Active {
            self.finalize(pid);
            return;
        }
        // 1. Pending compensation?
        if let Some(c) = self.states[&pid].next_compensation() {
            self.run_compensation(pid, c);
            return;
        }
        // 2. Next forward activity?
        if let Some(a) = self.states[&pid].next_activity() {
            self.run_activity(pid, a);
            return;
        }
        // 3. Path finished: commit.
        if self.states[&pid].can_commit() {
            self.try_commit(pid);
        }
    }

    fn gid(pid: ProcessId, a: ActivityId) -> GlobalActivityId {
        GlobalActivityId::new(pid, a)
    }

    fn run_compensation(&mut self, pid: ProcessId, a: ActivityId) {
        let gid = Self::gid(pid, a);
        // Lemma 2 / Example 8: conflicting operations executed after the
        // compensated one must vanish first (or their owners cascade).
        match self.policy.compensation_gate(gid) {
            txproc_core::protocol::CompletionGate::Ready => {}
            txproc_core::protocol::CompletionGate::WaitFor(wait_for) => {
                if self.tracing() {
                    self.trace(TraceEvent::CompletionBlocked { pid, wait_for });
                }
                let at = self.now.after(BUSY_BACKOFF);
                self.schedule_dispatch(pid, at);
                return;
            }
            txproc_core::protocol::CompletionGate::Cascade(victims) => {
                for v in victims {
                    self.begin_abort(v, true, AbortReason::Cascade);
                }
                let at = self.now.after(BUSY_BACKOFF);
                self.schedule_dispatch(pid, at);
                return;
            }
        }
        if !self.certified_traced(txproc_core::schedule::Event::Compensate(gid)) {
            // Another process's completion step must come first (Lemma 2/3
            // ordering); retry after it progressed, escalating if stuck.
            self.cert_failure_backoff(pid);
            return;
        }
        self.cert_failures.remove(&pid);
        let Some(&(sid, invocation)) = self.invocations.get(&gid) else {
            panic!("compensating an unknown invocation {gid}");
        };
        let agent = self.agents.get_mut(&sid).expect("agent exists");
        let t0 = self.tele.phase_start();
        let outcome = agent.compensate(invocation).expect("subsystem up");
        self.tele.phase_end(Phase::Compensation, t0);
        match outcome {
            InvokeOutcome::Committed { .. } => {
                if self.tracing() {
                    let service = self.workload.spec.process(pid).expect("known").service(a);
                    self.trace(TraceEvent::CompensationStarted { gid, service });
                }
                self.wal_event(txproc_core::schedule::Event::Compensate(gid));
                self.history.compensate(gid);
                self.policy.record_compensated(gid);
                self.states
                    .get_mut(&pid)
                    .expect("state")
                    .apply_compensation(a)
                    .expect("compensation matches plan");
                self.metrics.compensations += 1;
                let d = self.duration_of(gid);
                let at = self.now.after(d);
                self.schedule_dispatch(pid, at);
            }
            InvokeOutcome::Busy { .. } => {
                let at = self.now.after(BUSY_BACKOFF);
                self.schedule_dispatch(pid, at);
            }
            other => panic!("unexpected compensation outcome {other:?}"),
        }
    }

    fn run_activity(&mut self, pid: ProcessId, a: ActivityId) {
        let gid = Self::gid(pid, a);
        let process = self.workload.spec.process(pid).expect("known");
        let svc = process.service(a);
        let in_completion = self.states[&pid].abort_in_progress();
        let admission = if in_completion {
            // Completion activities are mandated by recovery; Definition 8
            // orders them after everything already executed. Lemma 3 /
            // §3.5: conflicting live operations must be compensated first.
            match self.policy.forward_gate(pid, svc) {
                txproc_core::protocol::CompletionGate::Ready
                    if self.forward_order_blocked(pid, svc) =>
                {
                    let at = self.now.after(BUSY_BACKOFF);
                    self.schedule_dispatch(pid, at);
                    return;
                }
                txproc_core::protocol::CompletionGate::Ready => Admission::Allow,
                txproc_core::protocol::CompletionGate::WaitFor(wait_for) => {
                    if self.tracing() {
                        self.trace(TraceEvent::CompletionBlocked { pid, wait_for });
                    }
                    let at = self.now.after(BUSY_BACKOFF);
                    self.schedule_dispatch(pid, at);
                    return;
                }
                txproc_core::protocol::CompletionGate::Cascade(victims) => {
                    for v in victims {
                        self.begin_abort(v, true, AbortReason::Cascade);
                    }
                    let at = self.now.after(BUSY_BACKOFF);
                    self.schedule_dispatch(pid, at);
                    return;
                }
            }
        } else {
            let t0 = self.tele.phase_start();
            let admission = self.policy.request(pid, gid, svc);
            self.tele.phase_end(Phase::Policy, t0);
            admission
        };
        match admission {
            Admission::Allow => self.execute_forward(pid, a, CommitMode::Immediate, Vec::new()),
            Admission::AllowDeferred { blockers } => {
                self.execute_forward(pid, a, CommitMode::Deferred, blockers)
            }
            Admission::Wait { blockers } => {
                self.metrics.waits += 1;
                if self.tracing() {
                    self.trace(TraceEvent::RequestBlocked {
                        gid,
                        service: svc,
                        blockers: blockers.clone(),
                    });
                }
                self.mark_blocked(pid);
                self.waiting.insert(pid, Waiting::OnProcesses(blockers));
            }
            Admission::Reject { conflicting } => {
                self.metrics.rejections += 1;
                if self.tracing() {
                    self.trace(TraceEvent::RequestRejected {
                        gid,
                        service: svc,
                        conflicting,
                    });
                }
                self.initiate_abort(pid, AbortReason::Rejected, Some(gid));
            }
        }
    }

    fn execute_forward(
        &mut self,
        pid: ProcessId,
        a: ActivityId,
        mode: CommitMode,
        blockers: Vec<ProcessId>,
    ) {
        if self.pending_release.contains_key(&pid) {
            // Already executed under deferred commit; awaiting release.
            self.mark_blocked(pid);
            self.waiting.insert(pid, Waiting::OnRelease);
            return;
        }
        let gid = Self::gid(pid, a);
        let process = self.workload.spec.process(pid).expect("known");
        let svc = process.service(a);
        let termination = self.workload.spec.catalog.termination(svc);
        let site = self
            .workload
            .deployment
            .site(svc)
            .expect("deployed service")
            .clone();
        let d = site.duration;

        // Failure injection (Definitions 3 and 4). A crash-storm overrides
        // the base rate on its subsystems while the virtual clock is inside
        // the storm window.
        let mut p_fail = self.workload.config.failure_probability;
        if let Some(storm) = &self.workload.config.storm {
            let in_window = self.now.0 >= storm.window.0 && self.now.0 < storm.window.1;
            if in_window && site.subsystem.0 < storm.subsystems {
                p_fail = storm.failure_probability;
            }
        }
        let inject =
            self.cfg.inject_failures && p_fail > 0.0 && self.rng.gen_bool(p_fail.clamp(0.0, 1.0));
        if inject {
            match termination {
                Termination::Retriable => {
                    // Transient abort: bounded, then guaranteed success.
                    let left = self
                        .retries_left
                        .entry(gid)
                        .or_insert(MAX_TRANSIENT_RETRIES);
                    if *left > 0 {
                        *left -= 1;
                        let agent = self.agents.get_mut(&site.subsystem).expect("agent");
                        let _ = agent.invoke(svc, &site.program, CommitMode::Immediate, true);
                        self.metrics.retries += 1;
                        let at = self.now.after(d);
                        self.schedule_dispatch(pid, at);
                        return;
                    }
                    // Retry budget exhausted: fall through to success
                    // (retriable activities never fail for good).
                }
                Termination::Pivot | Termination::Compensatable => {
                    let agent = self.agents.get_mut(&site.subsystem).expect("agent");
                    let _ = agent.invoke(svc, &site.program, CommitMode::Immediate, true);
                    self.handle_definitive_failure(pid, a);
                    return;
                }
            }
        }

        // §3.5 certification: the extended prefix's completion must reduce.
        // (Deferred executions emit their history event at release time and
        // are certified there.)
        if mode == CommitMode::Immediate
            && !self.certified_traced(txproc_core::schedule::Event::Execute(gid))
        {
            self.cert_failure_backoff(pid);
            return;
        }
        self.cert_failures.remove(&pid);
        let agent = self.agents.get_mut(&site.subsystem).expect("agent");
        match agent
            .invoke(svc, &site.program, mode, false)
            .expect("subsystem up")
        {
            InvokeOutcome::Committed { invocation, .. } => {
                // One atomic record covers both the agent commit and the
                // history event — no log prefix separates them.
                self.wal_append(WalRecord::Invocation {
                    gid,
                    subsystem: site.subsystem.0,
                    invocation: invocation.0,
                    prepared: false,
                });
                self.invocations.insert(gid, (site.subsystem, invocation));
                self.invocation_log.push(InvocationLogEntry {
                    gid,
                    subsystem: site.subsystem,
                    invocation,
                    prepared: false,
                });
                self.history.execute(gid);
                let edges_added = self.policy.record_executed(gid, false);
                if self.tracing() {
                    self.trace(TraceEvent::RequestAdmitted {
                        gid,
                        service: svc,
                        deferred: false,
                        blockers,
                        edges_added,
                    });
                }
                self.states
                    .get_mut(&pid)
                    .expect("state")
                    .apply_commit(a)
                    .expect("activity is the frontier");
                self.metrics.activities += 1;
                let at = self.now.after(d);
                self.schedule_dispatch(pid, at);
            }
            InvokeOutcome::Prepared { invocation, .. } => {
                self.wal_append(WalRecord::Invocation {
                    gid,
                    subsystem: site.subsystem.0,
                    invocation: invocation.0,
                    prepared: true,
                });
                self.invocations.insert(gid, (site.subsystem, invocation));
                self.invocation_log.push(InvocationLogEntry {
                    gid,
                    subsystem: site.subsystem,
                    invocation,
                    prepared: true,
                });
                let edges_added = self.policy.record_executed(gid, true);
                if self.tracing() {
                    self.trace(TraceEvent::RequestAdmitted {
                        gid,
                        service: svc,
                        deferred: true,
                        blockers: blockers.clone(),
                        edges_added,
                    });
                    self.trace(TraceEvent::CommitDeferred { gid, blockers });
                }
                self.pending_release.insert(
                    pid,
                    PendingRelease {
                        gid,
                        activity: a,
                        subsystem: site.subsystem,
                        invocation,
                    },
                );
                self.metrics.deferred_commits += 1;
                if self.tele.enabled() {
                    self.prepared_at.insert(pid, Instant::now());
                }
                self.mark_blocked(pid);
                self.waiting.insert(pid, Waiting::OnRelease);
            }
            InvokeOutcome::Busy { .. } => {
                let at = self.now.after(BUSY_BACKOFF);
                self.schedule_dispatch(pid, at);
            }
            InvokeOutcome::Aborted => unreachable!("no injection requested"),
        }
    }

    /// Definition 8.3(f): when several processes abort concurrently, their
    /// conflicting completion activities must be consistently ordered. A
    /// forward-recovery step is blocked while an *earlier-initiated* abort
    /// still has conflicting completion work pending.
    ///
    /// Only used in uncertified mode: certified runs derive the completion
    /// order from the certifier itself (whose mandatory-rank choice is
    /// authoritative and may differ from abort-initiation order).
    fn forward_order_blocked(&self, pid: ProcessId, svc: txproc_core::ids::ServiceId) -> bool {
        if self.certify {
            return false;
        }
        let Some(&my_seq) = self.abort_seq.get(&pid) else {
            return false;
        };
        let oracle = self.workload.spec.oracle();
        let base = self.workload.spec.catalog.base(svc);
        for (&q, &seq) in &self.abort_seq {
            if q == pid || seq >= my_seq || self.done.contains(&q) {
                continue;
            }
            let state = &self.states[&q];
            if !state.abort_in_progress() {
                continue;
            }
            let process = self.workload.spec.process(q).expect("known");
            let completion = state.completion();
            let remaining = completion
                .compensations
                .iter()
                .chain(completion.forward.iter());
            for &a in remaining {
                let s = self.workload.spec.catalog.base(process.service(a));
                if oracle.conflict(s, base) {
                    return true;
                }
            }
        }
        false
    }

    fn handle_definitive_failure(&mut self, pid: ProcessId, a: ActivityId) {
        let gid = Self::gid(pid, a);
        if self.tracing() {
            let service = self.workload.spec.process(pid).expect("known").service(a);
            self.trace(TraceEvent::ActivityFailed { gid, service });
        }
        self.wal_event(txproc_core::schedule::Event::Fail(gid));
        self.history.fail(gid);
        let outcome = self
            .states
            .get_mut(&pid)
            .expect("state")
            .apply_failure(a)
            .expect("failable activity at frontier");
        match outcome {
            FailureOutcome::ProcessAbort { .. } => {
                // The state machine entered its completion directly; record
                // the abort initiation for the trace and the breakdown.
                self.count_abort_reason(AbortReason::Failure);
                self.trace(TraceEvent::AbortStarted {
                    pid,
                    reason: AbortReason::Failure,
                });
                let d = self.duration_of(gid);
                let at = self.now.after(d);
                self.schedule_dispatch(pid, at);
            }
            FailureOutcome::Alternative { .. } => {
                let d = self.duration_of(gid);
                let at = self.now.after(d);
                self.schedule_dispatch(pid, at);
            }
            FailureOutcome::Stuck => {
                panic!("workload processes have guaranteed termination; {gid} got stuck")
            }
        }
    }

    fn try_commit(&mut self, pid: ProcessId) {
        let t0 = self.tele.phase_start();
        let verdict = self.policy.can_commit(pid);
        self.tele.phase_end(Phase::Policy, t0);
        match verdict {
            Ok(()) if !self.certified_traced(txproc_core::schedule::Event::Commit(pid)) => {
                self.cert_failure_backoff(pid);
            }
            Ok(()) => {
                self.states
                    .get_mut(&pid)
                    .expect("state")
                    .apply_process_commit()
                    .expect("path finished");
                self.wal_event(txproc_core::schedule::Event::Commit(pid));
                self.history.commit(pid);
                self.finalize(pid);
            }
            Err(blockers) => {
                self.metrics.waits += 1;
                if self.tracing() {
                    self.trace(TraceEvent::CommitBlocked {
                        pid,
                        wait_for: blockers.clone(),
                    });
                }
                self.mark_blocked(pid);
                self.waiting.insert(pid, Waiting::OnProcesses(blockers));
            }
        }
    }

    /// Records termination of a process, releases dependents, wakes waiters.
    fn finalize(&mut self, pid: ProcessId) {
        if self.done.contains(&pid) {
            return;
        }
        self.done.insert(pid);
        self.mark_unblocked(pid);
        let status = self.states[&pid].status();
        let released = match status {
            ProcessStatus::Committed => {
                self.metrics.committed += 1;
                let latency = self.now.0.saturating_sub(self.arrivals[&pid]);
                self.metrics.latencies.push(latency);
                self.metrics.latency_by_pid.insert(pid.0, latency);
                self.trace(TraceEvent::ProcessCommitted { pid });
                self.policy.on_commit(pid)
            }
            ProcessStatus::Aborted => {
                self.metrics.aborted += 1;
                let latency = self.now.0.saturating_sub(self.arrivals[&pid]);
                self.metrics.latencies.push(latency);
                self.metrics.latency_by_pid.insert(pid.0, latency);
                self.trace(TraceEvent::ProcessAborted { pid });
                self.policy.on_abort(pid)
            }
            ProcessStatus::Active => unreachable!("finalize on active process"),
        };
        self.release_deferred(released);
        self.wake_waiters();
    }

    /// Releases deferred commits atomically via 2PC. Releases whose history
    /// event does not certify yet are postponed and retried on progress.
    ///
    /// With `cfg.epoch > 0`, releases arriving in one call are
    /// group-committed: up to `epoch` participants share a single
    /// prepare→decide round ([`Coordinator::commit_group`] logs one
    /// decision record for the whole group). The group decision runs after
    /// its members' history events are emitted — sound, because phase 2
    /// releases every prepared participant unconditionally, and invisible
    /// to history/metrics, because nothing between emit and decision reads
    /// agent state.
    fn release_deferred(&mut self, released: Vec<(ProcessId, Vec<GlobalActivityId>)>) {
        debug_assert!(self.epoch_group.is_empty());
        for (pj, gids) in released {
            if !self.pending_release.contains_key(&pj) {
                continue;
            }
            let gid = self.pending_release[&pj].gid;
            if !self.certified_traced(txproc_core::schedule::Event::Execute(gid)) {
                self.postponed_releases
                    .push((pj, gids, self.history.events().len()));
                continue;
            }
            let pending = self.pending_release.remove(&pj).expect("checked");
            if let Some(t0) = self.prepared_at.remove(&pj) {
                self.tele
                    .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
            }
            debug_assert!(gids.contains(&pending.gid));
            let participant = Participant {
                subsystem: pending.subsystem,
                invocation: pending.invocation,
            };
            if self.cfg.epoch == 0 {
                if self.wal.is_some() {
                    // Decision before phase 2, DecisionApplied after: a log
                    // truncated between the two leaves the group in doubt
                    // and recovery finishes it from the decision record.
                    self.wal_append(WalRecord::Decision {
                        group: self.coordinator.next_group_id(),
                        commit: true,
                        participants: vec![(participant.subsystem.0, participant.invocation.0)],
                    });
                }
                let group = self
                    .coordinator
                    .commit_group(&mut self.agents, vec![participant], false)
                    .expect("participants prepared");
                if self.wal.is_some() {
                    self.wal_append(WalRecord::DecisionApplied { group });
                }
            } else {
                self.epoch_group.push(participant);
                if self.epoch_group.len() >= self.cfg.epoch {
                    self.flush_release_group();
                }
            }
            self.wal_event(txproc_core::schedule::Event::Execute(pending.gid));
            self.history.execute(pending.gid);
            self.policy.record_deferred_released(pending.gid);
            self.trace(TraceEvent::CommitReleased { gid: pending.gid });
            self.states
                .get_mut(&pj)
                .expect("state")
                .apply_commit(pending.activity)
                .expect("deferred activity was the frontier");
            self.metrics.activities += 1;
            self.mark_unblocked(pj);
            self.waiting.insert(pj, Waiting::No);
            let at = self.now;
            self.schedule_dispatch(pj, at);
        }
        self.flush_release_group();
    }

    /// Commits the accumulated release group in one 2PC round (no-op while
    /// empty, so per-event mode never reaches the coordinator from here).
    fn flush_release_group(&mut self) {
        if self.epoch_group.is_empty() {
            return;
        }
        let participants = std::mem::take(&mut self.epoch_group);
        if self.wal.is_some() {
            self.wal_append(WalRecord::Decision {
                group: self.coordinator.next_group_id(),
                commit: true,
                participants: participants
                    .iter()
                    .map(|p| (p.subsystem.0, p.invocation.0))
                    .collect(),
            });
        }
        let group = self
            .coordinator
            .commit_group(&mut self.agents, participants, false)
            .expect("participants prepared");
        if self.wal.is_some() {
            self.wal_append(WalRecord::DecisionApplied { group });
        }
    }

    /// Retries releases previously postponed by certification — but only
    /// those whose failure predates the current history: certification is a
    /// pure function of the history, so re-asking without new events is a
    /// guaranteed-failed busy-retry.
    fn retry_postponed_releases(&mut self) {
        if self.postponed_releases.is_empty() {
            return;
        }
        let hist_len = self.history.events().len();
        let (retry, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.postponed_releases)
            .into_iter()
            .partition(|&(_, _, stamp)| stamp < hist_len);
        self.postponed_releases = keep;
        if !retry.is_empty() {
            self.release_deferred(retry.into_iter().map(|(pj, gids, _)| (pj, gids)).collect());
        }
    }

    /// Escalation for repeated certification failures: back off, then abort
    /// the process (always legal before its commit). If the *completion* of
    /// an already-aborting process is what stays blocked, the blockage can
    /// only come from other active processes' hypothetical completions
    /// (§3.5's "new conflicts"): group-abort them — a full group abort
    /// always reduces, so their real completions unblock ours.
    fn cert_failure_backoff(&mut self, pid: ProcessId) {
        // Conflict pressure: certification just refused an event, so the
        // run is about to stall-and-retry. Close the epoch early — the
        // decision trace of the refusal should reach the sink now, not
        // after the backoff resolves.
        if self.cfg.epoch > 0 {
            self.close_epoch();
        }
        let count = self.cert_failures.entry(pid).or_insert(0);
        *count += 1;
        if *count > 50 {
            self.cert_failures.remove(&pid);
            if self.states[&pid].abort_in_progress() {
                let others: Vec<ProcessId> = self
                    .live_processes()
                    .into_iter()
                    .filter(|&q| q != pid && !self.states[&q].abort_in_progress())
                    .collect();
                if self.tracing() && !others.is_empty() {
                    self.trace(TraceEvent::GroupAbort {
                        initiator: Some(pid),
                        victims: others.iter().rev().copied().collect(),
                        trigger: None,
                    });
                }
                for q in others.into_iter().rev() {
                    self.begin_abort(q, true, AbortReason::Cascade);
                }
            } else {
                self.metrics.rejections += 1;
                self.initiate_abort(pid, AbortReason::CertStuck, None);
                return;
            }
        }
        let at = self.now.after(BUSY_BACKOFF);
        self.schedule_dispatch(pid, at);
    }

    /// Wakes every process waiting on terminated processes.
    fn wake_waiters(&mut self) {
        let to_wake: Vec<ProcessId> = self
            .waiting
            .iter()
            .filter(|(pid, w)| {
                !self.done.contains(pid)
                    && matches!(w, Waiting::OnProcesses(blockers)
                        if blockers.iter().all(|b| self.done.contains(b)))
            })
            .map(|(&pid, _)| pid)
            .collect();
        for pid in to_wake {
            self.mark_unblocked(pid);
            self.waiting.insert(pid, Waiting::No);
            let at = self.now;
            self.schedule_dispatch(pid, at);
        }
    }

    /// Aborts a process (and its cascade victims), per Lemma 2/3 ordering:
    /// victims — dependents later in the serialization — run their
    /// completions first. `reason` is the initiator's first cause; `trigger`
    /// the operation whose rejection/failure set it off (when known).
    fn initiate_abort(
        &mut self,
        pid: ProcessId,
        reason: AbortReason,
        trigger: Option<GlobalActivityId>,
    ) {
        if self.done.contains(&pid) || self.states[&pid].abort_in_progress() {
            return;
        }
        let completion = self.states[&pid].completion();
        let comp_gids: Vec<GlobalActivityId> = completion
            .compensations
            .iter()
            .map(|&a| Self::gid(pid, a))
            .collect();
        let process = self.workload.spec.process(pid).expect("known");
        let fwd_services: Vec<_> = completion
            .forward
            .iter()
            .map(|&a| process.service(a))
            .collect();
        let victims = self.policy.plan_abort(pid, &comp_gids, &fwd_services);
        if self.tracing() && !victims.is_empty() {
            self.trace(TraceEvent::GroupAbort {
                initiator: Some(pid),
                victims: victims.clone(),
                trigger,
            });
        }
        for v in victims {
            self.begin_abort(v, true, AbortReason::Cascade);
        }
        self.begin_abort(pid, false, reason);
    }

    fn begin_abort(&mut self, pid: ProcessId, cascade: bool, reason: AbortReason) {
        if self.done.contains(&pid)
            || !self.states[&pid].is_active()
            || self.states[&pid].abort_in_progress()
        {
            return;
        }
        // Abort a prepared (deferred) invocation first: it vanishes
        // atomically, leaving the process backward-recoverable.
        if let Some(pending) = self.pending_release.remove(&pid) {
            if let Some(t0) = self.prepared_at.remove(&pid) {
                self.tele
                    .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
            }
            self.wal_append(WalRecord::PreparedAborted {
                subsystem: pending.subsystem.0,
                invocation: pending.invocation.0,
            });
            let agent = self.agents.get_mut(&pending.subsystem).expect("agent");
            agent
                .abort_prepared(pending.invocation)
                .expect("prepared invocation");
            self.invocations.remove(&pending.gid);
            self.policy.record_prepared_aborted(pending.gid);
        }
        if cascade {
            self.metrics.cascaded += 1;
        }
        self.count_abort_reason(reason);
        self.trace(TraceEvent::AbortStarted { pid, reason });
        let seq = self.next_abort_seq;
        self.next_abort_seq += 1;
        self.abort_seq.insert(pid, seq);
        self.policy.on_abort_begin(pid);
        self.wal_event(txproc_core::schedule::Event::Abort(pid));
        self.history.abort(pid);
        self.states
            .get_mut(&pid)
            .expect("state")
            .apply_process_abort()
            .expect("active process");
        self.mark_unblocked(pid);
        self.waiting.insert(pid, Waiting::No);
        let at = self.now;
        self.schedule_dispatch(pid, at);
    }

    /// Requests an abort of a process from outside (tests, crash recovery).
    pub fn abort_process(&mut self, pid: ProcessId) {
        self.initiate_abort(pid, AbortReason::External, None);
    }

    /// Evaluates (without side effects) why a process's next step is
    /// blocked: gate verdicts and certification of the candidate event.
    pub fn probe(&self, pid: ProcessId) -> String {
        let st = &self.states[&pid];
        if let Some(c) = st.next_compensation() {
            let gid = Self::gid(pid, c);
            return format!(
                "comp {gid}: gate={:?} cert={}",
                self.policy.compensation_gate(gid),
                self.certified_ok(txproc_core::schedule::Event::Compensate(gid))
            );
        }
        if let Some(a) = st.next_activity() {
            let gid = Self::gid(pid, a);
            let svc = self.workload.spec.process(pid).unwrap().service(a);
            return format!(
                "act {gid}: fwd_gate={:?} order_blocked={} cert={}",
                self.policy.forward_gate(pid, svc),
                self.forward_order_blocked(pid, svc),
                self.certified_ok(txproc_core::schedule::Event::Execute(gid))
            );
        }
        "no step".into()
    }

    /// Human-readable snapshot of every live process's scheduling state
    /// (stall diagnostics).
    pub fn diagnostics(&self) -> String {
        let mut out = String::new();
        for pid in self.live_processes() {
            let st = &self.states[&pid];
            out.push_str(&format!(
                "{pid}: status={:?} aborting={} waiting={:?} next_comp={:?} next_act={:?} can_commit={} pending_release={}\n",
                st.status(),
                st.abort_in_progress(),
                self.waiting.get(&pid),
                st.next_compensation(),
                st.next_activity(),
                st.can_commit(),
                self.pending_release.contains_key(&pid),
            ));
        }
        out
    }

    /// Simulates a scheduler crash: volatile state (policy, process states,
    /// event queue) is lost; the durable pieces — emitted history,
    /// invocation log, 2PC decision log, and the subsystems themselves —
    /// survive as a [`CrashImage`](crate::recovery::CrashImage).
    pub fn crash(self) -> crate::recovery::CrashImage {
        crate::recovery::CrashImage {
            history: self.history,
            agents: self.agents,
            coordinator: self.coordinator,
            invocation_log: self.invocation_log,
        }
    }
}

impl Engine<'_> {
    /// Policy-internal debug dump (diagnostics only).
    pub fn policy_debug(&self) -> String {
        self.policy.debug_state()
    }
}

/// Convenience: run a workload under a configuration.
pub fn run(workload: &Workload, cfg: RunConfig) -> RunResult {
    Engine::new(workload, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txproc_sim::workload::{generate, WorkloadConfig};

    fn small_workload(seed: u64, conflict_density: f64, failure: f64) -> Workload {
        generate(&WorkloadConfig {
            seed,
            processes: 6,
            conflict_density,
            failure_probability: failure,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn all_processes_terminate_under_pred() {
        let w = small_workload(1, 0.4, 0.15);
        let result = run(&w, RunConfig::default());
        assert!(result.stalled.is_empty(), "stalled: {:?}", result.stalled);
        assert_eq!(result.metrics.terminated(), 6);
        assert!(result.metrics.activities > 0);
    }

    #[test]
    fn pred_histories_are_pred() {
        for seed in 0..8 {
            let w = small_workload(seed, 0.5, 0.2);
            let result = run(
                &w,
                RunConfig {
                    seed,
                    check_pred: true,
                    ..RunConfig::default()
                },
            );
            assert!(result.stalled.is_empty(), "seed {seed}: stalled");
            assert_eq!(
                result.pred_ok,
                Some(true),
                "seed {seed}: history not PRED:\n{}",
                txproc_core::schedule::render(&result.history)
            );
        }
    }

    #[test]
    fn incremental_certifier_matches_batch_histories() {
        // The virtual-time engine is deterministic, so two runs diverge only
        // if the certifiers ever answer differently. Identical histories are
        // therefore an end-to-end differential check of the incremental
        // certifier against the batch reference.
        for policy in [PolicyKind::Pred, PolicyKind::PredWait] {
            for seed in 0..8 {
                let w = small_workload(seed, 0.5, 0.2);
                let batch = run(
                    &w,
                    RunConfig {
                        policy,
                        seed,
                        check_pred: true,
                        certifier: crate::policy::CertifierKind::Batch,
                        ..RunConfig::default()
                    },
                );
                let incr = run(
                    &w,
                    RunConfig {
                        policy,
                        seed,
                        check_pred: true,
                        certifier: crate::policy::CertifierKind::Incremental,
                        ..RunConfig::default()
                    },
                );
                assert_eq!(
                    txproc_core::schedule::render(&batch.history),
                    txproc_core::schedule::render(&incr.history),
                    "{} seed {seed}: certifiers diverged",
                    policy.label()
                );
                assert!(incr.stalled.is_empty(), "{} seed {seed}", policy.label());
                assert_eq!(incr.pred_ok, Some(true), "{} seed {seed}", policy.label());
            }
        }
    }

    #[test]
    fn serial_policy_is_pred_and_slower() {
        let w = small_workload(3, 0.5, 0.0);
        let pred = run(&w, RunConfig::default());
        let serial = run(
            &w,
            RunConfig {
                policy: PolicyKind::Serial,
                ..RunConfig::default()
            },
        );
        assert!(serial.stalled.is_empty());
        assert!(
            serial.metrics.makespan >= pred.metrics.makespan,
            "serial {} < pred {}",
            serial.metrics.makespan,
            pred.metrics.makespan
        );
    }

    #[test]
    fn conservative_policy_terminates() {
        let w = small_workload(4, 0.6, 0.1);
        let result = run(
            &w,
            RunConfig {
                policy: PolicyKind::Conservative,
                check_pred: true,
                ..RunConfig::default()
            },
        );
        assert!(result.stalled.is_empty());
        assert_eq!(result.pred_ok, Some(true));
    }

    #[test]
    fn unsafe_cc_violates_pred_under_failures() {
        // The headline claim: CC without recovery produces histories that
        // are not prefix-reducible once failures occur.
        let mut violations = 0;
        for seed in 0..20 {
            let w = small_workload(seed, 0.7, 0.3);
            let result = run(
                &w,
                RunConfig {
                    policy: PolicyKind::UnsafeCc,
                    seed,
                    check_pred: true,
                    ..RunConfig::default()
                },
            );
            if result.pred_ok == Some(false) {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "expected at least one PRED violation from the unsafe scheduler"
        );
    }

    #[test]
    fn no_failures_still_terminates_everything_and_stays_pred() {
        // Without failures the only aborts are scheduler-initiated
        // (serializability rejections); everything terminates and the
        // history stays PRED.
        let w = small_workload(5, 0.3, 0.0);
        let result = run(
            &w,
            RunConfig {
                inject_failures: false,
                check_pred: true,
                ..RunConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 6);
        assert_eq!(
            result.metrics.aborted,
            result.metrics.rejections + result.metrics.cascaded
        );
        assert_eq!(result.pred_ok, Some(true));
    }

    #[test]
    fn zero_hot_key_density_still_terminates_and_stays_pred() {
        // Even with no hot keys, processes can conflict by reusing the same
        // pooled service; everything must still terminate correctly.
        let w = small_workload(5, 0.0, 0.0);
        let result = run(
            &w,
            RunConfig {
                inject_failures: false,
                check_pred: true,
                ..RunConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 6);
        assert_eq!(result.pred_ok, Some(true));
    }

    #[test]
    fn deterministic_runs() {
        let w = small_workload(6, 0.5, 0.2);
        let r1 = run(&w, RunConfig::default());
        let r2 = run(&w, RunConfig::default());
        assert_eq!(r1.history, r2.history);
        assert_eq!(r1.metrics.makespan, r2.metrics.makespan);
    }

    #[test]
    fn arrival_gap_staggers_processes() {
        let w = small_workload(7, 0.0, 0.0);
        let r = run(
            &w,
            RunConfig {
                arrival_gap: 100,
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        assert!(r.metrics.makespan >= 500, "makespan {}", r.metrics.makespan);
    }

    #[test]
    fn histories_replay_cleanly() {
        // Every emitted history must be a legal schedule (Definition 7.1).
        for seed in 0..5 {
            let w = small_workload(seed, 0.5, 0.25);
            let result = run(
                &w,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            );
            assert!(result.history.replay(&w.spec).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn external_abort_runs_completion() {
        let w = small_workload(9, 0.0, 0.0);
        let mut engine = Engine::new(
            &w,
            RunConfig {
                inject_failures: false,
                ..RunConfig::default()
            },
        );
        // Let the first few events run, then abort one process.
        engine.run_until_history(4);
        let victim = engine.live_processes()[0];
        engine.abort_process(victim);
        let result = engine.run();
        assert!(result.stalled.is_empty());
        assert!(result.metrics.aborted >= 1);
    }
}
