//! Concurrent driver: the same scheduling protocol exercised under real
//! concurrency, sharded by conflict domains.
//!
//! The virtual-time [`Engine`](crate::engine::Engine) is deterministic and
//! fast — ideal for experiments. This driver runs the workload under real
//! OS concurrency. The paper's protocol (Lemmas 1–3) only ever orders
//! operations that *conflict*, so processes in different connected
//! components of the potential-conflict graph impose no ordering
//! obligations on each other. The driver exploits that: a
//! [`DomainPartition`] splits the workload into conflict domains, and each
//! shard owns a complete scheduler state — its own [`Policy`] instance,
//! incremental §3.5 certifier and history segment — so admission,
//! certification, commit and abort decisions in disjoint domains proceed
//! fully in parallel. A deterministic merge (events are stamped with a
//! global atomic ticket at emission) produces one global [`Schedule`];
//! shard-local PRED plus the absence of cross-shard conflicts implies
//! global PRED (see DESIGN.md "Conflict-domain sharding" for the
//! commutation argument, and the differential stress tests for the oracle).
//!
//! # Runtime
//!
//! Processes are non-blocking state machines stepped by a fixed worker
//! pool (default `min(cores, shards)`; see [`advance`]). Each worker owns
//! a disjoint set of shards; per shard it keeps a run queue of runnable
//! processes and a waiting set of blocked ones. A blocked process costs a
//! queue entry, not a parked thread stack, so the runtime scales to 100k+
//! in-flight processes. Any step that bumps the shard generation re-queues
//! the shard's waiters: a blocker is always a shard-mate, and every
//! unblocking mutation bumps the generation, so no wakeup is missed.
//!
//! Lock order (never acquired in reverse):
//!
//! | level | lock                | protects                              |
//! |-------|---------------------|---------------------------------------|
//! | 1     | shard mutex         | one domain's policy/certifier/history |
//! | 2     | trace sink mutex    | global journal + dense trace seq      |
//! | 2     | agent mutex (per subsystem) | subsystem state + key locks   |
//!
//! No thread ever holds two shard locks, and two level-2 locks are never
//! nested. Agents are shared across shards, but a key lock held by a
//! prepared invocation can only block a *conflicting* service (reads do not
//! lock; additive writes share their lock), and conflicting services are by
//! construction in the same domain — so cross-shard `Busy` outcomes cannot
//! occur and shard-local wakeups are complete.
//!
//! Failure injection is a pure function of `(seed, activity, attempt)`, so
//! outcome draws are independent of thread interleaving: on workloads whose
//! processes are pairwise non-conflicting the sharded and single-lock
//! configurations produce bit-equal commit/abort sets.

use crate::policy::{CertifierKind, Policy, PolicyKind};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txproc_core::activity::Termination;
use txproc_core::domains::DomainPartition;
use txproc_core::ids::{ActivityId, GlobalActivityId, ProcessId, ServiceId};
use txproc_core::protocol::Admission;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::state::{FailureOutcome, ProcessState, ProcessStatus};
use txproc_core::telemetry::{Counter, Gauge, Phase, Telemetry};
use txproc_core::trace::{AbortReason, NoopSink, TraceEvent, TraceRecord, TraceSink};
use txproc_core::wal::{WalRecord, WalWriter};
use txproc_sim::metrics::{Metrics, RuntimeMetrics, ShardMetrics};
use txproc_sim::workload::Workload;
use txproc_subsystem::agent::{Agent, CommitMode, InvocationId, InvokeOutcome};
use txproc_subsystem::deploy::ServiceSite;
use txproc_subsystem::subsystem::{Subsystem, SubsystemId};

/// Consecutive state-machine steps one event worker runs on a shard before
/// moving to its next shard (bounds cross-shard starvation on a worker
/// that owns several).
const STEP_BUDGET: u32 = 128;

/// Longest nap an idle event worker takes while waiting for the next
/// open-system arrival on one of its shards (a bound, not a poll period:
/// the nap targets the exact arrival offset).
const MAX_IDLE_NAP: Duration = Duration::from_millis(100);

/// Per-shard admission cap of the events runtime: a due arrival is deferred
/// while the shard already has this many live processes. Certification cost
/// grows superlinearly with the concurrently-active set (the §3.5 overlay
/// pairs every pending completion activity against every other), so
/// throttling admission keeps the certifier frontier small and raises both
/// throughput and commit rate on dense workloads — the same reason a real
/// TP monitor runs with a bounded multiprogramming level. Deferred
/// processes cost a queue entry, not a stack, so the cap bounds *churn*,
/// not capacity.
const ADMIT_CAP: usize = 32;

/// How the driver maps processes onto scheduler shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// One scheduler state for all processes — the classic single-lock
    /// driver, kept as the differential baseline.
    Single,
    /// One shard per conflict domain of the workload (the partition of the
    /// potential-conflict graph computed by [`DomainPartition`]).
    Auto,
    /// Conflict domains grouped round-robin into at most N shards. Whole
    /// domains only: the partition invariant (no cross-shard conflicts) is
    /// never violated, so `Fixed(1)` is semantically the single-lock driver.
    Fixed(u32),
}

impl ShardMode {
    /// Parses `auto`, `single`, or a shard count.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "single" => Some(Self::Single),
            _ => s.parse::<u32>().ok().map(|n| match n {
                1 => Self::Single,
                n => Self::Fixed(n),
            }),
        }
    }

    /// Stable label for reports (`auto`, `single`, or the count).
    pub fn label(&self) -> String {
        match self {
            Self::Auto => "auto".into(),
            Self::Single => "single".into(),
            Self::Fixed(n) => n.to_string(),
        }
    }
}

// Serialized as the CLI label (`auto` / `single` / a count) so bench
// reports and the `--shards` flag speak the same vocabulary.
impl serde::Serialize for ShardMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label())
    }
}

impl serde::Deserialize for ShardMode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::parse(s)
                .ok_or_else(|| serde::DeError::new(format!("invalid shard mode `{s}`"))),
            other => Err(serde::DeError::new(format!(
                "expected shard mode string, got {other:?}"
            ))),
        }
    }
}

/// How processes are executed. The event-driven worker pool is the only
/// runtime; the one-variant type and [`ConcurrentConfig::runtime`] stay
/// because the benchmark package (`perfbench/`) names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Event-driven worker pool: processes are state machines on
    /// per-shard run queues, stepped by `min(cores, shards)` workers.
    Events,
}

impl RuntimeKind {
    /// Parses `events`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "events" => Some(Self::Events),
            _ => None,
        }
    }

    /// Stable label for reports and the `--runtime` flag.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Events => "events",
        }
    }
}

// Serialized as the CLI label so bench reports and `--runtime` agree.
impl serde::Serialize for RuntimeKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl serde::Deserialize for RuntimeKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::parse(s)
                .ok_or_else(|| serde::DeError::new(format!("invalid runtime kind `{s}`"))),
            other => Err(serde::DeError::new(format!(
                "expected runtime kind string, got {other:?}"
            ))),
        }
    }
}

/// Configuration of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Seed for per-process failure injection.
    pub seed: u64,
    /// Whether failable activities may fail.
    pub inject_failures: bool,
    /// Which §3.5 certifier implementation answers the per-event
    /// certification (certified policies only).
    pub certifier: CertifierKind,
    /// Shard topology. `Auto` (the default) shards by conflict domain;
    /// `Single` is the pre-sharding single-lock driver.
    pub shards: ShardMode,
    /// Execution runtime (only [`RuntimeKind::Events`]).
    pub runtime: RuntimeKind,
    /// Worker-pool size. `None` (the default) resolves to
    /// `min(available cores, shard count)`.
    pub workers: Option<usize>,
    /// Epoch size for group certification and batch commit. `0` keeps the
    /// per-event path bit-identical to earlier releases. With `N > 0` each
    /// shard retains certified plans for their matching `record` (one
    /// closure computation per admitted event instead of two), buffers its
    /// trace records and appends them to the global journal one batch — one
    /// sink lock acquisition — at a time, and groups deferred-commit
    /// releases into per-subsystem rounds of at most `N`. Epochs close on
    /// fill, on certification failure (conflict pressure) and at run end.
    /// `N = 1` closes an epoch per event and stays bit-identical — history
    /// *and* metrics — to `N = 0`.
    pub epoch: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::Pred,
            seed: 99,
            inject_failures: true,
            certifier: CertifierKind::Incremental,
            shards: ShardMode::Auto,
            runtime: RuntimeKind::Events,
            workers: None,
            epoch: 0,
        }
    }
}

impl ConcurrentConfig {
    /// Checks the configuration; the error names the knob to change.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == Some(0) {
            return Err("worker pool must have at least 1 worker (`--workers` / \
                 `ConcurrentConfig::workers`)"
                .to_string());
        }
        Ok(())
    }

    /// Worker-pool size the runtime will use for a given shard count.
    pub fn resolved_workers(&self, shard_count: usize) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.workers
            .unwrap_or_else(|| cores.min(shard_count.max(1)))
            .max(1)
    }
}

/// Result of a concurrent run.
#[derive(Debug)]
pub struct ConcurrentResult {
    /// The merged global history (shard segments interleaved in ticket
    /// order).
    pub history: Schedule,
    /// Aggregate metrics; `metrics.shards` holds one entry per shard.
    pub metrics: Metrics,
}

/// Per-subsystem agents, each behind its own lock so agent work does not
/// serialize unrelated threads on a scheduler lock.
type Agents = BTreeMap<SubsystemId, Mutex<Agent>>;

/// Shared trace lane: one global journal with a dense sequence, fed by all
/// shards. `enabled` is hoisted out of the lock (a sink's enabledness is
/// static) so the disabled path costs one branch.
struct TraceShared<'a> {
    sink: Mutex<Box<dyn TraceSink + 'a>>,
    seq: AtomicU64,
    enabled: bool,
    /// Static shard→worker assignment.
    worker_of_shard: Vec<u32>,
}

impl TraceShared<'_> {
    fn record(&self, shard: u32, history_len: usize, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        let worker = Some(self.worker_of_shard[shard as usize]);
        let mut sink = self.sink.lock();
        // Sequence assignment under the sink lock keeps journal order and
        // seq order identical even when shards race to record.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        sink.record(TraceRecord {
            seq,
            time: seq,
            history_len,
            shard: Some(shard),
            worker,
            event,
        });
    }

    /// Appends a whole epoch of one shard's trace records under a single
    /// sink-lock acquisition. Sequence numbers are assigned at flush time
    /// (still under the lock), so journal order and seq order stay
    /// identical; the flush lets a buffering sink write the batch as one
    /// I/O operation.
    fn record_batch(&self, shard: u32, entries: Vec<(usize, TraceEvent)>) {
        if !self.enabled || entries.is_empty() {
            return;
        }
        let worker = Some(self.worker_of_shard[shard as usize]);
        let mut sink = self.sink.lock();
        for (history_len, event) in entries {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            sink.record(TraceRecord {
                seq,
                time: seq,
                history_len,
                shard: Some(shard),
                worker,
                event,
            });
        }
        sink.flush();
    }
}

/// Everything a worker needs besides its shard: immutable run-wide context.
struct RunCtx<'r, 'a> {
    workload: &'a Workload,
    cfg: &'r ConcurrentConfig,
    agents: &'r Agents,
    /// Global event ticket counter: stamps every emitted event with its
    /// position in the merged schedule.
    tickets: &'r AtomicU64,
    trace: &'r TraceShared<'a>,
    /// Telemetry handle shared by all workers (run-queue delay phase and
    /// per-worker instruments).
    tele: Telemetry,
    run_start: Instant,
    /// Arrival offset per process in microseconds (one virtual tick of the
    /// workload's arrival model = 1µs here). All zeros for closed arrivals.
    arrivals: BTreeMap<ProcessId, u64>,
    /// Processes currently in flight (arrived, not yet terminated) and the
    /// peak observed — the open-system concurrency level actually reached.
    live_now: AtomicU64,
    live_peak: AtomicU64,
    /// Durable journal of the merged history: every emitted shard event is
    /// appended as a ticket-stamped [`WalRecord::ShardEvent`], so the
    /// ticket-sorted log replays to the exact returned history. The shard
    /// log carries no agent state — subsystem recovery stays an
    /// engine-WAL capability.
    wal: Option<&'r Mutex<WalWriter>>,
}

impl RunCtx<'_, '_> {
    fn process_arrived(&self) {
        let now = 1 + self.live_now.fetch_add(1, Ordering::Relaxed);
        self.live_peak.fetch_max(now, Ordering::Relaxed);
    }

    fn process_terminated(&self) {
        self.live_now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One conflict-domain shard: a complete scheduler state behind its own
/// lock, plus contention counters (atomics so they survive into the merge
/// without locking).
struct Shard<'a> {
    id: u32,
    state: Mutex<ShardState<'a>>,
    lock_wait_ns: AtomicU64,
    lock_hold_ns: AtomicU64,
    /// Telemetry handle for the lock-wait / lock-hold phase timers (off by
    /// default: one branch per lock operation).
    tele: Telemetry,
    /// Per-shard lock-wait counter for the live view (`txproc top`).
    tele_lock_wait: Counter,
}

impl<'a> Shard<'a> {
    fn new(id: u32, state: ShardState<'a>, tele: Telemetry) -> Self {
        let tele_lock_wait = tele.counter("lock_wait_ns_total", &[("shard", id.to_string())]);
        Self {
            id,
            state: Mutex::new(state),
            lock_wait_ns: AtomicU64::new(0),
            lock_hold_ns: AtomicU64::new(0),
            tele,
            tele_lock_wait,
        }
    }

    /// Acquires the shard lock, charging the blocked time to `lock_wait_ns`
    /// and (via the guard's `Drop`) the held time to `lock_hold_ns`.
    fn lock(&self) -> ShardGuard<'_, 'a> {
        let t0 = Instant::now();
        let guard = self.state.lock();
        let waited = t0.elapsed().as_nanos() as u64;
        self.lock_wait_ns.fetch_add(waited, Ordering::Relaxed);
        self.tele.phase_ns(Phase::LockWait, waited);
        self.tele_lock_wait.add(waited);
        ShardGuard {
            guard,
            shard: self,
            acquired: Instant::now(),
        }
    }
}

/// Shard lock guard that charges hold time on release.
struct ShardGuard<'g, 'a> {
    guard: parking_lot::MutexGuard<'g, ShardState<'a>>,
    shard: &'g Shard<'a>,
    acquired: Instant,
}

impl<'a> std::ops::Deref for ShardGuard<'_, 'a> {
    type Target = ShardState<'a>;
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<'a> std::ops::DerefMut for ShardGuard<'_, 'a> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

impl Drop for ShardGuard<'_, '_> {
    fn drop(&mut self) {
        let held = self.acquired.elapsed();
        self.shard
            .lock_hold_ns
            .fetch_add(held.as_nanos() as u64, Ordering::Relaxed);
        self.shard
            .tele
            .phase_ns(Phase::LockHold, held.as_nanos() as u64);
    }
}

struct ShardState<'a> {
    shard_id: u32,
    workload: &'a Workload,
    certify: bool,
    /// The incremental §3.5 certifier (when configured). Synced lazily with
    /// the shard history inside `certified_ok`; the shard lock serializes
    /// history order, so the certifier sees exactly the emitted sequence.
    /// Certification against the shard-local segment is sound because
    /// events of other shards commute with every event of this one.
    incremental: Option<txproc_core::pred_incremental::IncrementalPred<'a>>,
    policy: Box<dyn Policy + Send + 'a>,
    states: BTreeMap<ProcessId, ProcessState<'a>>,
    /// Shard-local history segment.
    history: Schedule,
    /// Global merge ticket of each segment event (parallel to `history`).
    event_tickets: Vec<u64>,
    /// Bumped on every scheduler-visible mutation (history events, policy
    /// live-op removal at finalize); the runtime re-queues a shard's
    /// waiters when it moves.
    generation: u64,
    metrics: Metrics,
    invocations: BTreeMap<GlobalActivityId, (SubsystemId, InvocationId)>,
    /// Deferred activities released by a predecessor's termination.
    released: BTreeMap<ProcessId, ActivityId>,
    pending_release: BTreeMap<ProcessId, (GlobalActivityId, ActivityId, SubsystemId, InvocationId)>,
    /// Releases granted by the policy but not yet certified/applied.
    ready_releases: Vec<ProcessId>,
    /// Releases that failed certification, stamped with the history length
    /// at failure time. Certification is a pure function of the history, so
    /// they are re-armed only once the history actually advanced — not
    /// busy-retried on every lock acquisition.
    stalled_releases: Vec<(ProcessId, usize)>,
    /// Last journalled block state per process (kind, wait set). Blocked
    /// requests are re-polled on every wakeup; one journal record per
    /// *distinct* blocked state keeps the trace readable.
    block_notes: BTreeMap<ProcessId, (u8, Vec<ProcessId>)>,
    /// Certification failures already journalled, stamped with the history
    /// length: the verdict is a pure function of the history, so re-polls at
    /// the same length are the same decision, not a new one.
    cert_fail_notes: Vec<(Event, usize)>,
    /// Telemetry handle for the certify / policy / 2PC / compensation phase
    /// timers (off by default).
    tele: Telemetry,
    /// Per-shard instruments for the live view: emitted history events and
    /// committed processes.
    tele_events: Counter,
    tele_committed: Counter,
    /// Prepare instants of in-flight deferred commits, populated only while
    /// telemetry is enabled (so the disabled path stays byte-identical):
    /// feeds the 2PC prepare→decide phase histogram.
    prepared_at: BTreeMap<ProcessId, Instant>,
    /// Epoch size (from [`ConcurrentConfig::epoch`]); `0` is the per-event
    /// path.
    epoch: usize,
    /// History events emitted since the last epoch close (`epoch > 0`
    /// only).
    epoch_pending: usize,
    /// Buffered trace records of the current epoch (`epoch > 0` and
    /// tracing enabled only), flushed to the global journal as one batch.
    trace_buf: Vec<(usize, TraceEvent)>,
}

/// A failure-injected ("simulated") agent invocation to run after the
/// shard lock is dropped: its outcome is ignored and it leaves no trace in
/// history or policy, so only the agent's own lock is needed.
struct SimulatedInvoke {
    svc: ServiceId,
    site: ServiceSite,
}

/// Outcome of one state-machine step.
enum Step {
    /// Process reached a terminal state.
    Done,
    /// Blocked on shard state; parked until the generation moves.
    Wait,
    /// Made progress (or must re-poll immediately); optionally runs a
    /// simulated invocation after releasing the shard lock.
    Yield(Option<SimulatedInvoke>),
}

impl<'a> ShardState<'a> {
    /// Appends an event to the shard segment, stamping it with the global
    /// merge ticket and bumping the generation.
    fn emit(&mut self, ctx: &RunCtx<'_, 'a>, event: Event) {
        let ticket = ctx.tickets.fetch_add(1, Ordering::Relaxed);
        if let Some(wal) = ctx.wal {
            wal.lock().append(&WalRecord::ShardEvent {
                shard: self.shard_id,
                ticket,
                event: event.clone(),
            });
        }
        self.history.push(event);
        self.event_tickets.push(ticket);
        self.generation += 1;
        self.tele_events.inc();
        if self.epoch > 0 {
            self.epoch_pending += 1;
            if self.epoch_pending >= self.epoch {
                self.close_epoch(ctx);
            }
        }
    }

    fn trace(&mut self, ctx: &RunCtx<'_, 'a>, event: TraceEvent) {
        if self.epoch > 0 {
            if !ctx.trace.enabled {
                return;
            }
            self.trace_buf.push((self.history.len(), event));
            // Bound the buffer even when no history event closes the epoch
            // (e.g. a run of blocked-note records).
            if self.trace_buf.len() >= self.epoch {
                self.close_epoch(ctx);
            }
            return;
        }
        ctx.trace.record(self.shard_id, self.history.len(), event);
    }

    /// Closes the current epoch: counts the batch, samples the epoch-fill
    /// histogram, and flushes the buffered trace records to the global
    /// journal under one sink-lock acquisition (sampling the flush
    /// latency). The metrics counters require `epoch >= 2` — an epoch of
    /// one *is* the per-event path, and counting it would break the
    /// `epoch=1 ≡ per-event` metrics identity the differential oracle pins.
    fn close_epoch(&mut self, ctx: &RunCtx<'_, 'a>) {
        if self.epoch_pending > 0 {
            let fill = self.epoch_pending as u64;
            self.epoch_pending = 0;
            if self.epoch >= 2 {
                self.metrics.epoch_batches += 1;
                self.metrics.epoch_events += fill;
            }
            self.tele.phase_ns(Phase::EpochFill, fill);
        }
        if self.trace_buf.is_empty() {
            return;
        }
        let t0 = self.tele.phase_start();
        let buf = std::mem::take(&mut self.trace_buf);
        ctx.trace.record_batch(self.shard_id, buf);
        self.tele.phase_end(Phase::EpochFlush, t0);
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

    /// Whether this block state is new for `pid` (and notes it if so).
    fn note_blocked(&mut self, pid: ProcessId, kind: u8, wait_for: &[ProcessId]) -> bool {
        match self.block_notes.get(&pid) {
            Some((k, w)) if *k == kind && w == wait_for => false,
            _ => {
                self.block_notes.insert(pid, (kind, wait_for.to_vec()));
                true
            }
        }
    }

    fn clear_block_note(&mut self, pid: ProcessId) {
        self.block_notes.remove(&pid);
    }

    /// [`Self::certified_ok`] plus metrics accounting and a
    /// [`TraceEvent::CertifyOutcome`] record. Re-polls of a failed
    /// certification against an unchanged history are deduplicated.
    fn certified_traced(&mut self, ctx: &RunCtx<'_, 'a>, event: Event) -> bool {
        if !self.certify {
            return true;
        }
        let len = self.history.len();
        self.cert_fail_notes.retain(|&(_, stamp)| stamp >= len);
        if self
            .cert_fail_notes
            .iter()
            .any(|(e, stamp)| *stamp == len && *e == event)
        {
            // The verdict is a pure function of the history: a re-poll at
            // the same length is the same failed decision, so skip the
            // O(closure) certify preview entirely — deadlock-escalation
            // spins repeat this call hundreds of times per abort.
            return false;
        }
        let ok = self.certified_ok(event.clone());
        if !ok {
            self.cert_fail_notes.push((event.clone(), len));
            self.metrics.cert_failures += 1;
        }
        if ctx.trace.enabled {
            let frontier = self.history.len() + 1;
            self.trace(
                ctx,
                TraceEvent::CertifyOutcome {
                    event,
                    ok,
                    frontier,
                },
            );
        }
        if !ok && self.epoch > 0 {
            // Conflict pressure: the shard is about to stall-and-retry, so
            // get the current epoch's decision trace (including the refusal
            // just recorded) out now.
            self.close_epoch(ctx);
        }
        ok
    }

    /// §3.5 certification of the next effect event against the shard-local
    /// segment (see the virtual-time engine for the rationale).
    fn certified_ok(&mut self, event: Event) -> bool {
        if !self.certify {
            return true;
        }
        let t0 = self.tele.phase_start();
        let ok = if let Some(inc) = &mut self.incremental {
            // Per-event sync (not `record_epoch`): emitted history may hold
            // forcibly recorded non-reducible events (aborts), which a
            // batch verdict would refuse to apply.
            for e in &self.history.events()[inc.len()..] {
                inc.record(e).expect("emitted history event is legal");
            }
            // Epoch mode retains the certified plan so the admitting
            // `record` above replays it instead of re-planning — a pure
            // amortization, bit-identical answers.
            let verdict = if self.epoch > 0 {
                inc.certify_keep(&event)
            } else {
                inc.certify(&event)
            };
            match verdict {
                Ok(verdict) => verdict.reducible,
                Err(_) => false,
            }
        } else {
            let mut candidate = self.history.clone();
            candidate.push(event);
            match txproc_core::completion::complete(&self.workload.spec, &candidate) {
                Ok(completed) => {
                    txproc_core::reduction::reduce(&self.workload.spec, &completed).reducible
                }
                Err(_) => false,
            }
        };
        self.tele.phase_end(Phase::Certify, t0);
        ok
    }

    /// Attempts every granted-but-unapplied deferred release. Releases whose
    /// history event does not certify yet are parked in `stalled_releases`
    /// and re-armed when the history grows.
    fn drain_ready_releases(&mut self, ctx: &RunCtx<'_, 'a>) {
        if !self.stalled_releases.is_empty() {
            let hist_len = self.history.len();
            let (rearm, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.stalled_releases)
                .into_iter()
                .partition(|&(_, stamp)| stamp < hist_len);
            self.stalled_releases = keep;
            self.ready_releases
                .extend(rearm.into_iter().map(|(pj, _)| pj));
        }
        let ready = std::mem::take(&mut self.ready_releases);
        // Epoch mode groups the agent-side releases: each chunk of at most
        // `epoch` invocations commits as one round, one agent-lock
        // acquisition per subsystem per chunk. Sound because a release
        // unconditionally commits a prepared invocation, and invisible to
        // history/metrics because nothing below reads agent state between
        // emit and release.
        let mut group: Vec<(SubsystemId, InvocationId)> = Vec::new();
        for pj in ready {
            let Some(&(gid, a, sid, inv)) = self.pending_release.get(&pj) else {
                continue;
            };
            if !self.certified_traced(ctx, Event::Execute(gid)) {
                self.stalled_releases.push((pj, self.history.len()));
                continue;
            }
            self.pending_release.remove(&pj);
            if let Some(t0) = self.prepared_at.remove(&pj) {
                self.tele
                    .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
            }
            if self.epoch == 0 {
                ctx.agents[&sid].lock().release(inv).expect("prepared");
            } else {
                group.push((sid, inv));
                if group.len() >= self.epoch {
                    release_group(ctx, std::mem::take(&mut group));
                }
            }
            self.emit(ctx, Event::Execute(gid));
            self.policy.record_deferred_released(gid);
            self.metrics.activities += 1;
            self.clear_block_note(pj);
            if ctx.trace.enabled {
                self.trace(ctx, TraceEvent::CommitReleased { gid });
            }
            // The owner thread applies the state advance.
            self.released.insert(pj, a);
        }
        release_group(ctx, group);
    }
}

/// Commits one group of prepared invocations, one agent-lock acquisition
/// per subsystem (the releases are sorted into per-subsystem runs by the
/// `BTreeMap` grouping). No-op on an empty group.
fn release_group(ctx: &RunCtx<'_, '_>, group: Vec<(SubsystemId, InvocationId)>) {
    if group.is_empty() {
        return;
    }
    let mut by_subsystem: BTreeMap<SubsystemId, Vec<InvocationId>> = BTreeMap::new();
    for (sid, inv) in group {
        by_subsystem.entry(sid).or_default().push(inv);
    }
    for (sid, invs) in by_subsystem {
        let mut agent = ctx.agents[&sid].lock();
        for inv in invs {
            agent.release(inv).expect("prepared");
        }
    }
}

/// Deterministic failure-injection coin: a pure hash of
/// `(seed, activity, attempt)`, so the draw for a given attempt does not
/// depend on thread interleaving or shard topology.
fn fail_coin(seed: u64, gid: GlobalActivityId, attempt: u64) -> f64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut h = mix(seed);
    h = mix(h ^ u64::from(gid.process.0));
    h = mix(h ^ gid.activity.index() as u64);
    h = mix(h ^ attempt);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Failure probability of an activity on `subsystem`. The wall-clock driver
/// has no virtual clock to scope a crash-storm window, so a configured storm
/// applies to its subsystems for the whole run (documented on
/// [`txproc_sim::workload::CrashStorm`]).
fn p_fail(workload: &Workload, subsystem: SubsystemId) -> f64 {
    if let Some(storm) = &workload.config.storm {
        if subsystem.0 < storm.subsystems {
            return storm.failure_probability.clamp(0.0, 1.0);
        }
    }
    workload.config.failure_probability.clamp(0.0, 1.0)
}

/// Runs the workload, sharded by conflict domain per `cfg.shards`. Panics
/// on an invalid configuration; use [`crate::builder::RunBuilder::try_run`]
/// for a `Result`. The driver has no virtual clock: [`Metrics::latencies`]
/// holds wall-clock submit→terminal times in microseconds and
/// [`Metrics::makespan`] the wall-clock run time in microseconds (the
/// virtual-time engine reports virtual ticks in those fields instead).
pub fn run_concurrent(workload: &Workload, cfg: ConcurrentConfig) -> ConcurrentResult {
    run_concurrent_impl(workload, cfg, Box::new(NoopSink), Telemetry::off(), None)
}

/// The one concurrent-driver implementation behind [`run_concurrent`] and
/// [`crate::builder::RunBuilder`]: runs the workload with the given trace
/// sink, telemetry handle, and (optionally) a durable WAL journaling every
/// emitted shard event. Trace records are stamped with `time == seq`
/// (journal order) and the shard that served the decision; `history_len`
/// is the shard-local segment length. Multi-process interleavings are
/// nondeterministic except with one worker and closed arrivals.
pub(crate) fn run_concurrent_impl<'a>(
    workload: &'a Workload,
    cfg: ConcurrentConfig,
    sink: Box<dyn TraceSink + 'a>,
    tele: Telemetry,
    wal: Option<WalWriter>,
) -> ConcurrentResult {
    if let Err(msg) = cfg.validate() {
        panic!("invalid concurrent configuration: {msg}");
    }
    let mut agents: Agents = BTreeMap::new();
    for sid in workload.deployment.subsystems() {
        agents.insert(
            sid,
            Mutex::new(Agent::new(Subsystem::new(sid, format!("sub{}", sid.0)))),
        );
    }

    // Shard topology: process groups with no conflicts across groups.
    let groups: Vec<Vec<ProcessId>> = match cfg.shards {
        ShardMode::Single => {
            vec![workload.spec.processes().map(|p| p.id).collect()]
        }
        ShardMode::Auto => DomainPartition::partition(&workload.spec)
            .domains()
            .to_vec(),
        ShardMode::Fixed(n) => DomainPartition::partition(&workload.spec).shard_groups(n as usize),
    };

    let shards: Vec<Shard<'_>> = groups
        .iter()
        .enumerate()
        .map(|(i, members)| {
            let mut policy = cfg.policy.build(&workload.spec);
            let mut states = BTreeMap::new();
            for &pid in members {
                policy.register(pid);
                states.insert(
                    pid,
                    ProcessState::new(
                        workload
                            .spec
                            .process(pid)
                            .expect("partitioned pid is known"),
                        &workload.spec.catalog,
                    )
                    .expect("tree process"),
                );
            }
            Shard::new(
                i as u32,
                ShardState {
                    shard_id: i as u32,
                    workload,
                    certify: cfg.policy.certified(),
                    incremental: (cfg.policy.certified()
                        && cfg.certifier == CertifierKind::Incremental)
                        .then(|| {
                            txproc_core::pred_incremental::IncrementalPred::new(&workload.spec)
                        }),
                    policy,
                    states,
                    history: Schedule::new(),
                    event_tickets: Vec::new(),
                    generation: 0,
                    metrics: Metrics::new(),
                    invocations: BTreeMap::new(),
                    released: BTreeMap::new(),
                    pending_release: BTreeMap::new(),
                    ready_releases: Vec::new(),
                    stalled_releases: Vec::new(),
                    block_notes: BTreeMap::new(),
                    cert_fail_notes: Vec::new(),
                    tele: tele.clone(),
                    tele_events: tele.counter("events_total", &[("shard", i.to_string())]),
                    tele_committed: tele.counter("committed_total", &[("shard", i.to_string())]),
                    prepared_at: BTreeMap::new(),
                    epoch: cfg.epoch,
                    epoch_pending: 0,
                    trace_buf: Vec::new(),
                },
                tele.clone(),
            )
        })
        .collect();

    let worker_count = cfg.resolved_workers(shards.len());
    // Static shard→worker ownership: shard i belongs to worker i mod W.
    // Disjoint ownership means shard locks are uncontended; they are kept
    // for the lock metrics and because agents and the trace sink are shared.
    let worker_of_shard: Vec<u32> = (0..shards.len())
        .map(|si| (si % worker_count) as u32)
        .collect();
    let enabled = sink.enabled();
    let trace = TraceShared {
        sink: Mutex::new(sink),
        seq: AtomicU64::new(0),
        enabled,
        worker_of_shard: worker_of_shard.clone(),
    };
    let tickets = AtomicU64::new(0);
    let wal_cell = wal.map(Mutex::new);
    let arrivals: BTreeMap<ProcessId, u64> = workload
        .spec
        .processes()
        .map(|p| p.id)
        .zip(txproc_sim::workload::arrival_times(&workload.config))
        .collect();
    let ctx = RunCtx {
        workload,
        cfg: &cfg,
        agents: &agents,
        tickets: &tickets,
        trace: &trace,
        tele: tele.clone(),
        run_start: Instant::now(),
        arrivals,
        live_now: AtomicU64::new(0),
        live_peak: AtomicU64::new(0),
        wal: wal_cell.as_ref(),
    };

    // Build each worker's shard schedulers up front (run queues, waiting
    // sets, per-process machine bookkeeping).
    let mut per_worker: Vec<Vec<ShardSched>> = (0..worker_count).map(|_| Vec::new()).collect();
    for (si, members) in groups.iter().enumerate() {
        per_worker[worker_of_shard[si] as usize].push(ShardSched::new(si, members, &ctx));
    }
    let mut runtime_metrics = RuntimeMetrics::new(RuntimeKind::Events.label(), worker_count as u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .enumerate()
            .map(|(widx, owned)| {
                let shards = &shards;
                let ctx = &ctx;
                scope.spawn(move || event_worker(ctx, shards, owned, widx))
            })
            .collect();
        for h in handles {
            runtime_metrics.merge(&h.join().expect("event worker panicked"));
        }
    });
    runtime_metrics.workers = worker_count as u64;
    runtime_metrics.in_flight_peak = ctx.live_peak.load(Ordering::Relaxed);

    // Deterministic merge: interleave shard segments in ticket order into
    // one global schedule, and fold shard metrics into the aggregate.
    let makespan_us = ctx.run_start.elapsed().as_micros() as u64;
    let mut tagged: Vec<(u64, Event)> = Vec::new();
    let mut metrics = Metrics::new();
    for shard in shards {
        let mut st = shard.state.into_inner();
        // Final epoch close: flush the partial epoch (trace records and
        // fill accounting) each shard accumulated after its last boundary.
        st.close_epoch(&ctx);
        let st = st;
        let mut m = st.metrics;
        m.shards.push(ShardMetrics {
            shard: shard.id,
            processes: st.states.len() as u64,
            events: st.history.len() as u64,
            lock_wait_ns: shard.lock_wait_ns.into_inner(),
            lock_hold_ns: shard.lock_hold_ns.into_inner(),
            ..ShardMetrics::default()
        });
        metrics.merge(&m);
        tagged.extend(
            st.event_tickets
                .iter()
                .copied()
                .zip(st.history.events().iter().cloned()),
        );
    }
    tagged.sort_by_key(|&(t, _)| t);
    let mut history = Schedule::new();
    for (_, e) in tagged {
        history.push(e);
    }
    metrics.makespan = makespan_us;
    debug_assert!(
        runtime_metrics
            .invariant_violations(Some(makespan_us.saturating_mul(1000)))
            .is_empty(),
        "runtime metrics invariants violated: {:?}",
        runtime_metrics.invariant_violations(Some(makespan_us.saturating_mul(1000)))
    );
    metrics.runtime = Some(runtime_metrics);
    if let Some(cell) = wal_cell {
        // Land the journal tail; syncing follows the writer's policy.
        cell.into_inner().finish();
    }
    ConcurrentResult { history, metrics }
}

/// Per-process state-machine bookkeeping: admission attempt counters and
/// the no-progress escalation state.
struct ProcSM {
    attempts: BTreeMap<ActivityId, u64>,
    no_progress: u32,
    last_fingerprint: Option<(usize, usize)>,
}

impl ProcSM {
    fn new() -> Self {
        Self {
            attempts: BTreeMap::new(),
            no_progress: 0,
            last_fingerprint: None,
        }
    }
}

/// One shard's scheduler as seen by its owning event worker: the run queue
/// of runnable processes, the waiting set of blocked ones, pending
/// open-system arrivals and the per-process state machines. Owned by
/// exactly one worker, so no lock guards it.
struct ShardSched {
    /// Index into the shard slice.
    index: usize,
    /// Runnable processes with their enqueue instant (scheduling delay is
    /// measured from it).
    run_queue: VecDeque<(ProcessId, Instant)>,
    /// Blocked processes; re-queued when the run queue drains after one or
    /// more generation moves.
    waiting: BTreeSet<ProcessId>,
    /// Not-yet-arrived processes, ordered by arrival offset (µs).
    arrivals: VecDeque<(u64, ProcessId)>,
    sm: BTreeMap<ProcessId, ProcSM>,
    /// Arrived and not yet terminated.
    live: usize,
    /// The shard generation moved since waiters were last re-queued. Moves
    /// are *coalesced*: re-queuing every waiter on every move would cost an
    /// O(waiters) futile-poll round per event, where draining the runnable
    /// work first folds a whole burst of moves into one round.
    dirty: bool,
    /// Live telemetry gauge mirroring `run_queue.len() + waiting.len()`
    /// (no-op when telemetry is disabled).
    depth: Gauge,
}

impl ShardSched {
    fn new(index: usize, members: &[ProcessId], ctx: &RunCtx<'_, '_>) -> Self {
        let mut arrivals: Vec<(u64, ProcessId)> = members
            .iter()
            .map(|&pid| (ctx.arrivals.get(&pid).copied().unwrap_or(0), pid))
            .collect();
        // Deterministic admission order: by arrival offset, ties by pid.
        arrivals.sort();
        Self {
            index,
            run_queue: VecDeque::new(),
            waiting: BTreeSet::new(),
            arrivals: arrivals.into(),
            sm: members.iter().map(|&pid| (pid, ProcSM::new())).collect(),
            live: 0,
            dirty: false,
            depth: ctx
                .tele
                .gauge("run_queue_depth", &[("shard", index.to_string())]),
        }
    }

    /// Moves every waiter back onto the run queue (the shard generation
    /// moved, so any of them may now be unblocked).
    fn requeue_waiters(&mut self) {
        for pid in std::mem::take(&mut self.waiting) {
            self.run_queue.push_back((pid, Instant::now()));
        }
    }

    /// Moves one waiter (smallest pid, for determinism) back onto the run
    /// queue. Used when the run queue drains *without* a generation move:
    /// everyone is deadlocked, so stepping all of them is pure futile work
    /// under a certified policy — a single probe accumulates no-progress
    /// toward the escalation in `advance`, and the moment its abort moves
    /// the generation the full requeue path wakes the rest.
    fn requeue_one_waiter(&mut self) {
        if let Some(&pid) = self.waiting.iter().next() {
            self.waiting.remove(&pid);
            self.run_queue.push_back((pid, Instant::now()));
        }
    }
}

/// Event-worker loop: round-robins over the worker's owned shards, spending
/// up to [`STEP_BUDGET`] `advance` steps per shard per pass, run-to-block
/// within each dequeued process. Returns the worker's share of the runtime
/// metrics.
///
/// Invariants (see DESIGN.md "Event-driven runtime"):
///
/// * every live process is in exactly one of `run_queue` / `waiting` /
///   mid-step;
/// * waiters are re-queued whenever the shard generation has moved and the
///   runnable work has drained (moves are coalesced via the `dirty` flag) —
///   and a blocker is always a shard-mate (domain invariant), so no wakeup
///   is ever missed;
/// * when a shard's run queue drains with waiters left, every live process
///   of the shard is blocked. A future arrival only *adds* conflicts and
///   can never unblock an existing waiter, so this is a genuine deadlock
///   among the arrived: one waiter is re-queued as a probe (a counted
///   re-poll round) to drive the no-progress escalation in [`advance`]
///   instead of sleeping on a timeout — stepping *all* waiters would only
///   multiply futile certify attempts, since nothing short of a generation
///   move (which re-queues everyone) can unblock them.
fn event_worker<'a>(
    ctx: &RunCtx<'_, 'a>,
    shards: &[Shard<'a>],
    mut owned: Vec<ShardSched>,
    widx: usize,
) -> RuntimeMetrics {
    let mut rt = RuntimeMetrics::new(RuntimeKind::Events.label(), 1);
    let worker_steps = ctx
        .tele
        .counter("worker_steps_total", &[("worker", widx.to_string())]);
    loop {
        let mut all_done = true;
        let mut progressed = false;
        let mut next_arrival: Option<u64> = None;
        for sched in owned.iter_mut() {
            let shard = &shards[sched.index];
            // Admit arrivals that are due (1 workload tick = 1 µs).
            if !sched.arrivals.is_empty() {
                let now_us = ctx.run_start.elapsed().as_micros() as u64;
                while let Some(&(at, pid)) = sched.arrivals.front() {
                    if at > now_us {
                        next_arrival = Some(next_arrival.map_or(at, |m| m.min(at)));
                        break;
                    }
                    if sched.live >= ADMIT_CAP {
                        // Due but deferred: admission control. The process
                        // is admitted as soon as a live slot frees up.
                        break;
                    }
                    sched.arrivals.pop_front();
                    sched.live += 1;
                    ctx.process_arrived();
                    sched.run_queue.push_back((pid, Instant::now()));
                    progressed = true;
                }
            }
            if sched.live > 0 || !sched.arrivals.is_empty() {
                all_done = false;
            }
            let mut budget = STEP_BUDGET;
            while budget > 0 {
                let Some((pid, enqueued)) = sched.run_queue.pop_front() else {
                    if sched.waiting.is_empty() {
                        break;
                    }
                    if sched.dirty {
                        // Generation moved while the runnable work drained:
                        // any waiter may be unblocked, so re-queue them all
                        // (one coalesced round for the whole burst).
                        sched.dirty = false;
                        sched.requeue_waiters();
                        continue;
                    }
                    // Run queue drained with live waiters and no generation
                    // move: a genuine deadlock among the arrived. Probe one
                    // waiter instead of spinning all of them through futile
                    // certify attempts.
                    rt.repolls += 1;
                    sched.requeue_one_waiter();
                    continue;
                };
                let delay_ns = enqueued.elapsed().as_nanos() as u64;
                rt.record_delay_ns(delay_ns);
                ctx.tele.phase_ns(Phase::QueueDelay, delay_ns);
                // Run-to-block: keep stepping the dequeued process until it
                // waits, terminates, or exhausts the pass budget. Rotating
                // after every step would interleave all live processes
                // uniformly, keeping a maximal unreduced frontier alive in
                // the certifier for the whole run; running each process as
                // deep as it can go completes (and reduces away) processes
                // early.
                loop {
                    budget -= 1;
                    rt.steps += 1;
                    worker_steps.inc();
                    let t0 = Instant::now();
                    let mut g = shard.lock();
                    let gen0 = g.generation;
                    let sm = sched
                        .sm
                        .get_mut(&pid)
                        .expect("live process has a state machine");
                    let step = advance(ctx, &mut g, pid, sm);
                    let moved = g.generation != gen0;
                    drop(g);
                    rt.worker_busy_ns += t0.elapsed().as_nanos() as u64;
                    if moved {
                        progressed = true;
                        sched.dirty = true;
                    }
                    match step {
                        Step::Done => {
                            sched.live -= 1;
                            sched.sm.remove(&pid);
                            ctx.process_terminated();
                            progressed = true;
                            break;
                        }
                        Step::Wait => {
                            sched.waiting.insert(pid);
                            break;
                        }
                        Step::Yield(simulated) => {
                            // Failure-injected invocation: agent work only,
                            // no shared scheduling state — run it off the
                            // shard lock, then the process is immediately
                            // runnable again.
                            if let Some(sim) = simulated {
                                let _ = ctx.agents[&sim.site.subsystem].lock().invoke(
                                    sim.svc,
                                    &sim.site.program,
                                    CommitMode::Immediate,
                                    true,
                                );
                            }
                            if budget == 0 {
                                // Budget exhausted mid-process: stay at the
                                // queue front so the next pass resumes the
                                // same process (depth-first across passes).
                                sched.run_queue.push_front((pid, Instant::now()));
                                break;
                            }
                        }
                    }
                }
                let depth = (sched.run_queue.len() + sched.waiting.len()) as u64;
                rt.run_queue_peak = rt.run_queue_peak.max(depth);
                sched.depth.set(depth);
            }
            if !sched.run_queue.is_empty() {
                progressed = true;
            }
        }
        if all_done {
            return rt;
        }
        if !progressed {
            if let Some(at) = next_arrival {
                // Everything runnable is drained and the next event on any
                // owned shard is an arrival: nap until it is due.
                let target = Duration::from_micros(at);
                let since = ctx.run_start.elapsed();
                if target > since {
                    let nap = (target - since).min(MAX_IDLE_NAP);
                    rt.worker_idle_ns += nap.as_nanos() as u64;
                    std::thread::sleep(nap);
                }
            }
        }
    }
}

/// One scheduling iteration for `pid` under the shard lock.
fn advance<'a>(
    ctx: &RunCtx<'_, 'a>,
    g: &mut ShardGuard<'_, 'a>,
    pid: ProcessId,
    sm: &mut ProcSM,
) -> Step {
    g.drain_ready_releases(ctx);
    let fingerprint = (g.history.len(), g.states[&pid].steps().len());
    if sm.last_fingerprint == Some(fingerprint) {
        sm.no_progress += 1;
    } else {
        sm.no_progress = 0;
    }
    sm.last_fingerprint = Some(fingerprint);
    if sm.no_progress > 0 && sm.no_progress.is_multiple_of(200) && g.states[&pid].is_active() {
        if g.states[&pid].abort_in_progress() {
            // Our completion is blocked by other processes' hypothetical
            // completions (§3.5): group-abort them so their real
            // completions unblock ours. Only shard-mates can block us —
            // cross-shard operations commute.
            let others: Vec<ProcessId> = g
                .states
                .iter()
                .filter(|(&q, st)| q != pid && st.is_active() && !st.abort_in_progress())
                .map(|(&q, _)| q)
                .collect();
            if ctx.trace.enabled && !others.is_empty() {
                g.trace(
                    ctx,
                    TraceEvent::GroupAbort {
                        initiator: Some(pid),
                        victims: others.iter().rev().copied().collect(),
                        trigger: None,
                    },
                );
            }
            for q in others.into_iter().rev() {
                cascade_abort(ctx, g, q);
            }
        } else {
            // Nothing moved for a while: only an abort can resolve this.
            g.metrics.rejections += 1;
            initiate_abort(ctx, g, pid, AbortReason::Deadlock, None);
        }
        return Step::Yield(None);
    }
    if sm.no_progress >= 20_000 {
        let mut diag = String::new();
        for (p, st) in &g.states {
            diag.push_str(&format!(
                "\n  {p}: status={:?} aborting={} next_comp={:?} next_act={:?} can_commit={}",
                st.status(),
                st.abort_in_progress(),
                st.next_compensation(),
                st.next_activity(),
                st.can_commit()
            ));
        }
        panic!(
            "{pid}: concurrent run livelocked (shard {})\nshard history: {}{diag}",
            g.shard_id,
            txproc_core::schedule::render(&g.history)
        );
    }
    let status = g.states[&pid].status();
    if status != ProcessStatus::Active {
        finalize(ctx, g, pid);
        return Step::Done;
    }
    // Deferred release arrived?
    if let Some(a) = g.released.remove(&pid) {
        g.states
            .get_mut(&pid)
            .expect("state")
            .apply_commit(a)
            .expect("released frontier");
        return Step::Yield(None);
    }
    if g.pending_release.contains_key(&pid) {
        // Waiting for a predecessor to release our deferred commit.
        return Step::Wait;
    }
    // Pending compensation?
    if let Some(c) = g.states[&pid].next_compensation() {
        let gid = GlobalActivityId::new(pid, c);
        if !g.certified_traced(ctx, Event::Compensate(gid)) {
            return Step::Wait;
        }
        let (sid, inv) = g.invocations[&gid];
        let t0 = g.tele.phase_start();
        let outcome = ctx.agents[&sid]
            .lock()
            .compensate(inv)
            .expect("subsystem up");
        g.tele.phase_end(Phase::Compensation, t0);
        return match outcome {
            InvokeOutcome::Committed { .. } => {
                if ctx.trace.enabled {
                    let service = ctx.workload.spec.process(pid).expect("known").service(c);
                    g.trace(ctx, TraceEvent::CompensationStarted { gid, service });
                }
                g.emit(ctx, Event::Compensate(gid));
                g.policy.record_compensated(gid);
                g.states
                    .get_mut(&pid)
                    .expect("state")
                    .apply_compensation(c)
                    .expect("queued");
                g.metrics.compensations += 1;
                Step::Yield(None)
            }
            InvokeOutcome::Busy { .. } => Step::Wait,
            other => panic!("unexpected compensation outcome {other:?}"),
        };
    }
    // Next forward activity?
    if let Some(a) = g.states[&pid].next_activity() {
        return step_activity(ctx, g, pid, a, &mut sm.attempts);
    }
    // Commit.
    if g.states[&pid].can_commit() {
        let t0 = g.tele.phase_start();
        let verdict = g.policy.can_commit(pid);
        g.tele.phase_end(Phase::Policy, t0);
        return match verdict {
            Ok(()) if !g.certified_traced(ctx, Event::Commit(pid)) => Step::Wait,
            Ok(()) => {
                g.states
                    .get_mut(&pid)
                    .expect("state")
                    .apply_process_commit()
                    .expect("finished path");
                g.emit(ctx, Event::Commit(pid));
                finalize(ctx, g, pid);
                Step::Done
            }
            Err(blockers) => {
                g.metrics.waits += 1;
                if ctx.trace.enabled && g.note_blocked(pid, 1, &blockers) {
                    g.trace(
                        ctx,
                        TraceEvent::CommitBlocked {
                            pid,
                            wait_for: blockers,
                        },
                    );
                }
                Step::Wait
            }
        };
    }
    // Nothing to do right now (e.g. mid-abort with empty completion).
    Step::Wait
}

/// Runs one scheduling step for the next forward activity.
fn step_activity<'a>(
    ctx: &RunCtx<'_, 'a>,
    g: &mut ShardGuard<'_, 'a>,
    pid: ProcessId,
    a: ActivityId,
    attempts: &mut BTreeMap<ActivityId, u64>,
) -> Step {
    let gid = GlobalActivityId::new(pid, a);
    let process = ctx.workload.spec.process(pid).expect("known");
    let svc = process.service(a);
    let site = ctx.workload.deployment.site(svc).expect("deployed").clone();
    let termination = ctx.workload.spec.catalog.termination(svc);
    let in_completion = g.states[&pid].abort_in_progress();
    let admission = if in_completion {
        Admission::Allow
    } else {
        let t0 = g.tele.phase_start();
        let admission = g.policy.request(pid, gid, svc);
        g.tele.phase_end(Phase::Policy, t0);
        admission
    };
    let (mode, blockers) = match admission {
        Admission::Allow => (CommitMode::Immediate, Vec::new()),
        Admission::AllowDeferred { blockers } => (CommitMode::Deferred, blockers),
        Admission::Wait { blockers } => {
            g.metrics.waits += 1;
            if ctx.trace.enabled && g.note_blocked(pid, 0, &blockers) {
                g.trace(
                    ctx,
                    TraceEvent::RequestBlocked {
                        gid,
                        service: svc,
                        blockers,
                    },
                );
            }
            // Blocked; re-evaluated when the shard state changes.
            return Step::Wait;
        }
        Admission::Reject { conflicting } => {
            g.metrics.rejections += 1;
            if ctx.trace.enabled {
                g.trace(
                    ctx,
                    TraceEvent::RequestRejected {
                        gid,
                        service: svc,
                        conflicting,
                    },
                );
            }
            initiate_abort(ctx, g, pid, AbortReason::Rejected, Some(gid));
            return Step::Yield(None);
        }
    };
    // Failure injection: one deterministic draw per admission attempt.
    let attempt = attempts.entry(a).and_modify(|n| *n += 1).or_insert(1);
    let coin = fail_coin(ctx.cfg.seed, gid, *attempt);
    let inject = ctx.cfg.inject_failures && coin < p_fail(ctx.workload, site.subsystem);
    if inject && termination.can_fail() {
        g.emit(ctx, Event::Fail(gid));
        if ctx.trace.enabled {
            g.trace(ctx, TraceEvent::ActivityFailed { gid, service: svc });
        }
        let outcome = g
            .states
            .get_mut(&pid)
            .expect("state")
            .apply_failure(a)
            .expect("frontier");
        match outcome {
            FailureOutcome::Stuck => panic!("guaranteed-termination process stuck at {gid}"),
            FailureOutcome::ProcessAbort { .. } => {
                g.count_abort_reason(AbortReason::Failure);
                g.clear_block_note(pid);
                if ctx.trace.enabled {
                    g.trace(
                        ctx,
                        TraceEvent::AbortStarted {
                            pid,
                            reason: AbortReason::Failure,
                        },
                    );
                }
            }
            FailureOutcome::Alternative { .. } => {}
        }
        return Step::Yield(Some(SimulatedInvoke { svc, site }));
    }
    if inject && termination == Termination::Retriable {
        g.metrics.retries += 1;
        return Step::Yield(Some(SimulatedInvoke { svc, site }));
    }
    if mode == CommitMode::Immediate && !g.certified_traced(ctx, Event::Execute(gid)) {
        // Certification is a function of the shard history; retry once it
        // advances.
        return Step::Wait;
    }
    let outcome = ctx.agents[&site.subsystem]
        .lock()
        .invoke(svc, &site.program, mode, false)
        .expect("subsystem up");
    match outcome {
        InvokeOutcome::Committed { invocation, .. } => {
            g.invocations.insert(gid, (site.subsystem, invocation));
            g.emit(ctx, Event::Execute(gid));
            let edges_added = g.policy.record_executed(gid, false);
            g.states
                .get_mut(&pid)
                .expect("state")
                .apply_commit(a)
                .expect("frontier");
            g.metrics.activities += 1;
            g.clear_block_note(pid);
            if ctx.trace.enabled {
                g.trace(
                    ctx,
                    TraceEvent::RequestAdmitted {
                        gid,
                        service: svc,
                        deferred: false,
                        blockers: Vec::new(),
                        edges_added,
                    },
                );
            }
            Step::Yield(None)
        }
        InvokeOutcome::Prepared { invocation, .. } => {
            g.invocations.insert(gid, (site.subsystem, invocation));
            let edges_added = g.policy.record_executed(gid, true);
            g.pending_release
                .insert(pid, (gid, a, site.subsystem, invocation));
            if g.tele.enabled() {
                g.prepared_at.insert(pid, Instant::now());
            }
            g.metrics.deferred_commits += 1;
            g.clear_block_note(pid);
            if ctx.trace.enabled {
                g.trace(
                    ctx,
                    TraceEvent::RequestAdmitted {
                        gid,
                        service: svc,
                        deferred: true,
                        blockers: blockers.clone(),
                        edges_added,
                    },
                );
                g.trace(ctx, TraceEvent::CommitDeferred { gid, blockers });
            }
            Step::Yield(None)
        }
        // A key lock held by a prepared invocation; holder is a shard-mate
        // (conflicting services share a domain), so the release/abort that
        // frees the key also bumps our generation.
        InvokeOutcome::Busy { .. } => Step::Wait,
        InvokeOutcome::Aborted => unreachable!("no injection requested"),
    }
}

fn finalize<'a>(ctx: &RunCtx<'_, 'a>, g: &mut ShardGuard<'_, 'a>, pid: ProcessId) {
    let status = g.states[&pid].status();
    let released = match status {
        ProcessStatus::Committed => {
            g.metrics.committed += 1;
            g.tele_committed.inc();
            g.clear_block_note(pid);
            if ctx.trace.enabled {
                g.trace(ctx, TraceEvent::ProcessCommitted { pid });
            }
            g.policy.on_commit(pid)
        }
        ProcessStatus::Aborted => {
            g.metrics.aborted += 1;
            g.clear_block_note(pid);
            if ctx.trace.enabled {
                g.trace(ctx, TraceEvent::ProcessAborted { pid });
            }
            g.policy.on_abort(pid)
        }
        ProcessStatus::Active => return,
    };
    // Wall-clock arrival→terminal latency in microseconds (arrival offset
    // subtracted so open-system latencies measure time in system, not time
    // since run start).
    let arrival_us = ctx.arrivals.get(&pid).copied().unwrap_or(0);
    let latency = (ctx.run_start.elapsed().as_micros() as u64).saturating_sub(arrival_us);
    g.metrics.latencies.push(latency);
    g.metrics.latency_by_pid.insert(pid.0, latency);
    for (pj, _gids) in released {
        if g.pending_release.contains_key(&pj) {
            g.ready_releases.push(pj);
        }
    }
    g.drain_ready_releases(ctx);
    // `on_commit`/`on_abort` above removed the process's live operations
    // from the policy — a scheduler-visible change that can unblock a
    // waiter even when no history event was emitted here. Bump the
    // generation so the runtime re-queues the shard's waiters; otherwise
    // only its deadlock probe would reach them.
    g.generation += 1;
}

/// Cascade-aborts a single process (prepared invocations dropped first).
fn cascade_abort<'a>(ctx: &RunCtx<'_, 'a>, g: &mut ShardGuard<'_, 'a>, v: ProcessId) {
    if !g.states[&v].is_active() || g.states[&v].abort_in_progress() {
        return;
    }
    g.metrics.cascaded += 1;
    g.count_abort_reason(AbortReason::Cascade);
    g.clear_block_note(v);
    if ctx.trace.enabled {
        g.trace(
            ctx,
            TraceEvent::AbortStarted {
                pid: v,
                reason: AbortReason::Cascade,
            },
        );
    }
    if let Some((gid, _a, sid, inv)) = g.pending_release.remove(&v) {
        if let Some(t0) = g.prepared_at.remove(&v) {
            g.tele
                .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
        }
        ctx.agents[&sid]
            .lock()
            .abort_prepared(inv)
            .expect("prepared");
        g.invocations.remove(&gid);
        g.policy.record_prepared_aborted(gid);
    }
    g.policy.on_abort_begin(v);
    g.emit(ctx, Event::Abort(v));
    g.states
        .get_mut(&v)
        .expect("state")
        .apply_process_abort()
        .expect("active");
}

fn initiate_abort<'a>(
    ctx: &RunCtx<'_, 'a>,
    g: &mut ShardGuard<'_, 'a>,
    pid: ProcessId,
    reason: AbortReason,
    trigger: Option<GlobalActivityId>,
) {
    if g.states[&pid].abort_in_progress() || !g.states[&pid].is_active() {
        return;
    }
    let completion = g.states[&pid].completion();
    let comp_gids: Vec<GlobalActivityId> = completion
        .compensations
        .iter()
        .map(|&a| GlobalActivityId::new(pid, a))
        .collect();
    let process = ctx.workload.spec.process(pid).expect("known");
    let fwd: Vec<_> = completion
        .forward
        .iter()
        .map(|&a| process.service(a))
        .collect();
    let victims = g.policy.plan_abort(pid, &comp_gids, &fwd);
    if ctx.trace.enabled && !victims.is_empty() {
        g.trace(
            ctx,
            TraceEvent::GroupAbort {
                initiator: Some(pid),
                victims: victims.clone(),
                trigger,
            },
        );
    }
    for v in victims {
        cascade_abort(ctx, g, v);
    }
    if g.states[&pid].is_active() && !g.states[&pid].abort_in_progress() {
        if let Some((gid, _a, sid, inv)) = g.pending_release.remove(&pid) {
            if let Some(t0) = g.prepared_at.remove(&pid) {
                g.tele
                    .phase_ns(Phase::TwoPc, t0.elapsed().as_nanos() as u64);
            }
            ctx.agents[&sid]
                .lock()
                .abort_prepared(inv)
                .expect("prepared");
            g.invocations.remove(&gid);
            g.policy.record_prepared_aborted(gid);
        }
        g.count_abort_reason(reason);
        g.clear_block_note(pid);
        if ctx.trace.enabled {
            g.trace(ctx, TraceEvent::AbortStarted { pid, reason });
        }
        g.policy.on_abort_begin(pid);
        g.emit(ctx, Event::Abort(pid));
        g.states
            .get_mut(&pid)
            .expect("state")
            .apply_process_abort()
            .expect("active");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use txproc_sim::workload::{generate, WorkloadConfig};

    #[test]
    fn concurrent_run_terminates_and_is_pred() {
        for seed in 0..4 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 5,
                conflict_density: 0.4,
                failure_probability: 0.15,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    seed,
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 5, "seed {seed}");
            assert!(
                txproc_core::pred::is_pred(&w.spec, &result.history).unwrap(),
                "seed {seed}: concurrent history not PRED:\n{}",
                txproc_core::schedule::render(&result.history)
            );
        }
    }

    #[test]
    fn concurrent_run_with_batch_certifier_is_pred() {
        // Thread interleavings are nondeterministic, so histories cannot be
        // compared against an incremental run; the contract is that whatever
        // interleaving the OS produces, a batch-certified history is still
        // PRED.
        for seed in 0..4 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 5,
                conflict_density: 0.4,
                failure_probability: 0.15,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    seed,
                    certifier: CertifierKind::Batch,
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 5, "seed {seed}");
            assert!(
                txproc_core::pred::is_pred(&w.spec, &result.history).unwrap(),
                "seed {seed}: batch-certified history not PRED:\n{}",
                txproc_core::schedule::render(&result.history)
            );
        }
    }

    #[test]
    fn concurrent_run_without_failures_commits_everything() {
        let w = generate(&WorkloadConfig {
            seed: 4,
            processes: 6,
            conflict_density: 0.3,
            failure_probability: 0.0,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                inject_failures: false,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.committed, 6);
        assert_eq!(result.metrics.aborted, 0);
    }

    #[test]
    fn concurrent_run_uncertified_protocol_terminates() {
        // The pure protocol (no certifier) under real threads — the
        // bench-harness configuration. PRED is not guaranteed without
        // certification (pred-protocol is the "necessary but not
        // sufficient" ablation); the contract here is termination with a
        // fully accounted outcome.
        for seed in 0..4 {
            let w = generate(&WorkloadConfig {
                seed: seed + 11,
                processes: 6,
                conflict_density: 0.4,
                failure_probability: 0.15,
                ..WorkloadConfig::default()
            });
            let result = run_concurrent(
                &w,
                ConcurrentConfig {
                    policy: PolicyKind::PredProtocol,
                    seed,
                    ..ConcurrentConfig::default()
                },
            );
            assert_eq!(result.metrics.terminated(), 6, "seed {seed}");
        }
    }

    fn outcome_sets(history: &Schedule) -> (BTreeSet<ProcessId>, BTreeSet<ProcessId>) {
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

    #[test]
    fn auto_sharding_reports_one_shard_per_domain() {
        let w = generate(&WorkloadConfig {
            seed: 7,
            processes: 16,
            clusters: 4,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let domains = DomainPartition::partition(&w.spec).domain_count();
        assert!(domains >= 4);
        let auto = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 7,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(auto.metrics.shards.len(), domains);
        assert_eq!(auto.metrics.terminated(), 16);
        let total_events: u64 = auto.metrics.shards.iter().map(|s| s.events).sum();
        assert_eq!(total_events as usize, auto.history.len());

        let single = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 7,
                shards: ShardMode::Single,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(single.metrics.shards.len(), 1);
        assert_eq!(single.metrics.terminated(), 16);

        let fixed = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 7,
                shards: ShardMode::Fixed(2),
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(fixed.metrics.shards.len(), 2);
        assert_eq!(fixed.metrics.terminated(), 16);
    }

    #[test]
    fn sharded_and_single_agree_on_disjoint_workloads() {
        // On a workload whose processes never conflict the failure coins
        // fully determine every outcome, so the sharded and single-lock
        // drivers must produce bit-equal commit/abort sets.
        for seed in 0..6 {
            let w = generate(&WorkloadConfig {
                seed,
                processes: 8,
                conflict_density: 0.0,
                clusters: 8,
                failure_probability: 0.2,
                ..WorkloadConfig::default()
            });
            assert_eq!(
                DomainPartition::partition(&w.spec).domain_count(),
                8,
                "seed {seed}: clusters of one process each"
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
                    ..cfg
                },
            );
            assert_eq!(
                outcome_sets(&sharded.history),
                outcome_sets(&single.history),
                "seed {seed}: outcome sets diverge"
            );
            assert!(txproc_core::pred::is_pred(&w.spec, &sharded.history).unwrap());
        }
    }

    #[test]
    fn concurrent_run_fills_wall_clock_latency_metrics() {
        let w = generate(&WorkloadConfig {
            seed: 2,
            processes: 4,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 2,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.latencies.len(), 4);
        assert!(result.metrics.makespan > 0);
        assert!(result.metrics.latency_percentile(0.5).is_some());
        assert!(
            result
                .metrics
                .latencies
                .iter()
                .all(|&l| l <= result.metrics.makespan),
            "latency beyond makespan"
        );
        assert!(!result.metrics.shards.is_empty());
    }

    #[test]
    fn runtime_kind_parses_only_events() {
        assert_eq!(RuntimeKind::parse("events"), Some(RuntimeKind::Events));
        assert_eq!(RuntimeKind::parse("threads"), None);
        assert_eq!(RuntimeKind::parse("bogus"), None);
        assert_eq!(RuntimeKind::Events.label(), "events");
    }

    #[test]
    fn validate_rejects_an_empty_worker_pool_naming_the_knob() {
        assert!(ConcurrentConfig::default().validate().is_ok());
        let zero = ConcurrentConfig {
            workers: Some(0),
            ..ConcurrentConfig::default()
        };
        assert!(zero.validate().unwrap_err().contains("--workers"));
    }

    #[test]
    fn events_runtime_populates_runtime_metrics() {
        let w = generate(&WorkloadConfig {
            seed: 5,
            processes: 8,
            conflict_density: 0.4,
            failure_probability: 0.1,
            ..WorkloadConfig::default()
        });
        let result = run_concurrent(
            &w,
            ConcurrentConfig {
                seed: 5,
                ..ConcurrentConfig::default()
            },
        );
        assert_eq!(result.metrics.terminated(), 8);
        let rt = result.metrics.runtime.expect("runtime metrics populated");
        assert_eq!(rt.runtime, "events");
        assert!(rt.workers >= 1);
        assert!(rt.steps >= 8, "at least one step per process");
        assert_eq!(rt.in_flight_peak, 8, "closed arrivals: all in flight");
        assert!(rt.sched_delay_ns.iter().sum::<u64>() > 0);
        assert!(rt.delay_percentile_ns(0.95).is_some());
    }

    #[test]
    fn shard_mode_parse_and_label_round_trip() {
        assert_eq!(ShardMode::parse("auto"), Some(ShardMode::Auto));
        assert_eq!(ShardMode::parse("single"), Some(ShardMode::Single));
        assert_eq!(ShardMode::parse("1"), Some(ShardMode::Single));
        assert_eq!(ShardMode::parse("4"), Some(ShardMode::Fixed(4)));
        assert_eq!(ShardMode::parse("bogus"), None);
        assert_eq!(ShardMode::Auto.label(), "auto");
        assert_eq!(ShardMode::Single.label(), "single");
        assert_eq!(ShardMode::Fixed(4).label(), "4");
    }
}
