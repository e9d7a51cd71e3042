//! Benchmark-owned instruments that plug into the program's extension
//! points: a [`WalStore`] that wraps [`FileWal`] and records every append
//! and sync, and a [`TraceSink`] that counts and times record delivery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use txproc_core::trace::{Journal, TraceRecord, TraceSink};
use txproc_core::wal::{FileWal, WalStore};

/// What a [`TimingWal`] observed, shared with the benchmark.
#[derive(Debug, Default, Clone)]
pub struct WalLog {
    /// Bytes appended to the file so far.
    pub appended: u64,
    /// Byte offset covered by the last successful sync: the durable prefix.
    pub durable: u64,
    /// `append` calls.
    pub appends: u64,
    /// Nanoseconds spent in `append`.
    pub append_ns: u64,
    /// Nanoseconds of each successful `sync`, in order.
    pub sync_ns: Vec<u64>,
}

/// A [`FileWal`] that records the offset of each successful sync, so a
/// crash can be modelled as a power loss that drops the unsynced tail.
pub struct TimingWal {
    file: FileWal,
    log: Arc<Mutex<WalLog>>,
}

impl TimingWal {
    /// Creates (truncating) the log file at `path`; returns the store and a
    /// handle onto its counters.
    pub fn create(path: &std::path::Path) -> std::io::Result<(TimingWal, WalHandle)> {
        let log = Arc::new(Mutex::new(WalLog::default()));
        let store = TimingWal {
            file: FileWal::create(path)?,
            log: Arc::clone(&log),
        };
        Ok((store, WalHandle(log)))
    }
}

/// Read handle onto a [`TimingWal`]'s counters.
#[derive(Debug, Clone)]
pub struct WalHandle(Arc<Mutex<WalLog>>);

impl WalHandle {
    /// A copy of the counters.
    pub fn get(&self) -> WalLog {
        lock(&self.0).clone()
    }
}

fn lock(log: &Mutex<WalLog>) -> MutexGuard<'_, WalLog> {
    log.lock()
        .expect("WAL counters lock poisoned by a panicking writer")
}

impl WalStore for TimingWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        self.file.append(bytes)?;
        let ns = t.elapsed().as_nanos() as u64;
        let mut g = lock(&self.log);
        g.appended += bytes.len() as u64;
        g.appends += 1;
        g.append_ns += ns;
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        self.file.sync()?;
        let ns = t.elapsed().as_nanos() as u64;
        let mut g = lock(&self.log);
        g.durable = g.appended;
        g.sync_ns.push(ns);
        Ok(())
    }
}

/// Counters of a [`TimingSink`].
#[derive(Debug, Default)]
pub struct SinkCounters {
    /// Records delivered.
    pub records: AtomicU64,
    /// Nanoseconds spent delivering them.
    pub ns: AtomicU64,
}

/// A trace sink that keeps every record in a [`Journal`], as a user reading
/// the trace back would, and times each delivery.
pub struct TimingSink {
    journal: Journal,
    counters: Arc<SinkCounters>,
}

impl TimingSink {
    /// A fresh sink and a handle onto its counters.
    pub fn new() -> (TimingSink, Arc<SinkCounters>) {
        let counters = Arc::new(SinkCounters::default());
        let sink = TimingSink {
            journal: Journal::new(),
            counters: Arc::clone(&counters),
        };
        (sink, counters)
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, rec: TraceRecord) {
        let t = Instant::now();
        self.journal.record(rec);
        let ns = t.elapsed().as_nanos() as u64;
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters.ns.fetch_add(ns, Ordering::Relaxed);
    }
}
