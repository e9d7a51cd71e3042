//! Output checks. An operation is one submitted process; it fails when it
//! stalls or never terminates, when the history it belongs to is not
//! PRED ∧ Proc-REC, or when crash recovery loses it after its commit was
//! durable. Scheduler-chosen aborts are protocol outcomes, not failures.
//! (A process aborted before its first activity leaves no history event, so
//! termination is read from the run's metrics, not from the history.)

use std::collections::{BTreeMap, BTreeSet};
use txproc_core::domains::DomainPartition;
use txproc_core::ids::ProcessId;
use txproc_core::pred_incremental::check_pred_incremental;
use txproc_core::recoverability::proc_rec_violations;
use txproc_core::schedule::{Event, Schedule};
use txproc_core::spec::Spec;
use txproc_core::wal::WalRecord;

/// Outcome of checking one run's history.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Processes counted as failed.
    pub failed: BTreeSet<ProcessId>,
    /// Histories (conflict domains) checked.
    pub domains: usize,
    /// Checked histories that are not PRED.
    pub pred_violations: u64,
    /// Checked histories with a Proc-REC violation.
    pub proc_rec_violations: u64,
    /// Processes the run never terminated (concurrent runs, which report
    /// a count rather than a stalled list).
    pub never_terminated: u64,
}

impl Verdict {
    /// Failed processes: the failed set plus those never terminated.
    pub fn failed_count(&self) -> u64 {
        self.failed.len() as u64 + self.never_terminated
    }
}

/// Whether one history is PRED and Proc-REC: `(pred_ok, proc_rec_ok)`.
fn check_one(spec: &Spec, history: &Schedule) -> (bool, bool) {
    let pred = check_pred_incremental(spec, history).is_ok_and(|r| r.pred);
    let proc_rec = proc_rec_violations(spec, history).is_ok_and(|v| v.is_empty());
    (pred, proc_rec)
}

/// Checks an engine run: the whole history as one domain, plus the
/// processes the engine reported stalled. A failing history fails every
/// process of the workload.
pub fn check_engine(spec: &Spec, history: &Schedule, stalled: &[ProcessId]) -> Verdict {
    let mut v = Verdict {
        domains: 1,
        ..Verdict::default()
    };
    let (pred, proc_rec) = check_one(spec, history);
    v.pred_violations = u64::from(!pred);
    v.proc_rec_violations = u64::from(!proc_rec);
    if !(pred && proc_rec) {
        v.failed.extend(spec.processes().map(|p| p.id));
    }
    v.failed.extend(stalled.iter().copied());
    v
}

/// Checks a concurrent run domain by domain: each conflict domain's
/// projection of the history is checked on its own, and a failing domain
/// fails its processes. Operations of different domains never conflict, so
/// the full history is PRED ∧ Proc-REC iff every projection is. The
/// driver's `terminated` count adds the processes that never terminated.
pub fn check_by_domain(spec: &Spec, history: &Schedule, terminated: u64) -> Verdict {
    let partition = DomainPartition::partition(spec);
    let per: Vec<(u32, Schedule)> = project_by_domain(&partition, history).into_iter().collect();
    // Domains are independent: check them on two threads.
    let half = per.len().div_ceil(2);
    let check = |chunk: &[(u32, Schedule)]| {
        let mut v = Verdict::default();
        for (d, s) in chunk {
            let (pred, proc_rec) = check_one(spec, s);
            v.pred_violations += u64::from(!pred);
            v.proc_rec_violations += u64::from(!proc_rec);
            if !(pred && proc_rec) {
                v.failed
                    .extend(partition.domains()[*d as usize].iter().copied());
            }
        }
        v
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(&per[half..]));
        let mine = check(&per[..half]);
        (mine, other.join().expect("domain check thread panicked"))
    });
    Verdict {
        failed: a.failed.union(&b.failed).copied().collect(),
        domains: per.len(),
        pred_violations: a.pred_violations + b.pred_violations,
        proc_rec_violations: a.proc_rec_violations + b.proc_rec_violations,
        never_terminated: (spec.process_count() as u64).saturating_sub(terminated),
    }
}

/// Projects a history onto the conflict domains of its processes.
pub fn project_by_domain(
    partition: &DomainPartition,
    history: &Schedule,
) -> BTreeMap<u32, Schedule> {
    let mut per: BTreeMap<u32, Schedule> = BTreeMap::new();
    for e in history.events() {
        match e {
            Event::Execute(g) | Event::Fail(g) | Event::Compensate(g) => {
                if let Some(d) = partition.domain_of(g.process) {
                    per.entry(d).or_default().push(e.clone());
                }
            }
            Event::Commit(p) | Event::Abort(p) => {
                if let Some(d) = partition.domain_of(*p) {
                    per.entry(d).or_default().push(e.clone());
                }
            }
            Event::GroupAbort(ps) => {
                let mut by_domain: BTreeMap<u32, Vec<ProcessId>> = BTreeMap::new();
                for p in ps {
                    if let Some(d) = partition.domain_of(*p) {
                        by_domain.entry(d).or_default().push(*p);
                    }
                }
                for (d, members) in by_domain {
                    per.entry(d).or_default().group_abort(members);
                }
            }
        }
    }
    per
}

/// Processes whose `Commit` record lies in the durable log prefix.
pub fn durable_commits(records: &[WalRecord]) -> BTreeSet<ProcessId> {
    records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Event {
                event: Event::Commit(p),
            } => Some(*p),
            _ => None,
        })
        .collect()
}

/// The durable-commit check on a recovered history: every durably
/// committed process is still committed, and no activity is executed or
/// compensated twice and no process commits twice. Returns the processes
/// that fail it.
pub fn check_recovered(durable: &BTreeSet<ProcessId>, recovered: &Schedule) -> BTreeSet<ProcessId> {
    let mut failed = BTreeSet::new();
    let mut executed = BTreeSet::new();
    let mut compensated = BTreeSet::new();
    let mut committed = BTreeSet::new();
    let mut aborted = BTreeSet::new();
    for e in recovered.events() {
        let dup = match e {
            Event::Execute(g) => (!executed.insert(*g)).then_some(g.process),
            Event::Compensate(g) => (!compensated.insert(*g)).then_some(g.process),
            Event::Commit(p) => (!committed.insert(*p)).then_some(*p),
            Event::Abort(p) => {
                aborted.insert(*p);
                None
            }
            Event::GroupAbort(ps) => {
                aborted.extend(ps.iter().copied());
                None
            }
            Event::Fail(_) => None,
        };
        failed.extend(dup);
    }
    failed.extend(
        durable
            .iter()
            .filter(|p| !committed.contains(*p) || aborted.contains(*p))
            .copied(),
    );
    failed
}
