//! Host-time spans measured from outside the program: a timing
//! decorator for [`DurableBackend`] and the calibrated cost of one span.

use ccnvm_mem::file::FileIoStats;
use ccnvm_mem::{Cycle, DurableBackend, Line, LineAddr, LineStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Call counts and host nanoseconds of the timed backend calls. Shared
/// between the decorator (owned by the program) and the benchmark; the
/// atomics publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct BackendTally {
    stores: AtomicU64,
    store_ns: AtomicU64,
    commits: AtomicU64,
    commit_ns: AtomicU64,
    syncs: AtomicU64,
    flight_appends: AtomicU64,
    /// Every timed call: stores, erases, group brackets, syncs, ticks
    /// and flight appends.
    spans: AtomicU64,
    total_ns: AtomicU64,
}

/// A snapshot of [`BackendTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts {
    /// `store` calls.
    pub stores: u64,
    /// Host ns inside `store`.
    pub store_ns: u64,
    /// `commit_atomic` calls.
    pub commits: u64,
    /// Host ns inside `commit_atomic`.
    pub commit_ns: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `flight_append` calls.
    pub flight_appends: u64,
    /// Timed calls of any kind.
    pub spans: u64,
    /// Host ns inside timed calls of any kind.
    pub total_ns: u64,
}

impl BackendTally {
    /// The counts so far.
    pub fn counts(&self) -> BackendCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        BackendCounts {
            stores: get(&self.stores),
            store_ns: get(&self.store_ns),
            commits: get(&self.commits),
            commit_ns: get(&self.commit_ns),
            syncs: get(&self.syncs),
            flight_appends: get(&self.flight_appends),
            spans: get(&self.spans),
            total_ns: get(&self.total_ns),
        }
    }

    fn charge(&self, start: Instant, kind: Option<(&AtomicU64, &AtomicU64)>) {
        let ns = start.elapsed().as_nanos() as u64;
        self.spans.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some((calls, kind_ns)) = kind {
            calls.fetch_add(1, Ordering::Relaxed);
            kind_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl BackendCounts {
    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: BackendCounts) -> BackendCounts {
        BackendCounts {
            stores: self.stores - earlier.stores,
            store_ns: self.store_ns - earlier.store_ns,
            commits: self.commits - earlier.commits,
            commit_ns: self.commit_ns - earlier.commit_ns,
            syncs: self.syncs - earlier.syncs,
            flight_appends: self.flight_appends - earlier.flight_appends,
            spans: self.spans - earlier.spans,
            total_ns: self.total_ns - earlier.total_ns,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: BackendCounts) {
        self.stores += other.stores;
        self.store_ns += other.store_ns;
        self.commits += other.commits;
        self.commit_ns += other.commit_ns;
        self.syncs += other.syncs;
        self.flight_appends += other.flight_appends;
        self.spans += other.spans;
        self.total_ns += other.total_ns;
    }
}

/// A [`DurableBackend`] that forwards every trait method to `inner`
/// and times the calls that write: `store`, `erase`, the atomic-group
/// brackets, `sync`, `tick` and `flight_append`. Reads are forwarded
/// untimed; they are map lookups far cheaper than a span.
///
/// Every method is forwarded, including those the trait defaults: a
/// default left in place would silently turn the inner store's group
/// commits, syncs and flight sidecar into no-ops.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    tally: Arc<BackendTally>,
}

impl<B: DurableBackend> TimedBackend<B> {
    /// Wraps `inner`; the returned tally reads the counts.
    pub fn new(inner: B) -> (Self, Arc<BackendTally>) {
        let tally = Arc::new(BackendTally::default());
        (
            Self {
                inner,
                tally: Arc::clone(&tally),
            },
            tally,
        )
    }
}

impl<B: DurableBackend> DurableBackend for TimedBackend<B> {
    fn load(&self, line: LineAddr) -> Option<Line> {
        self.inner.load(line)
    }

    fn store(&mut self, line: LineAddr, content: Line) {
        let t = Instant::now();
        self.inner.store(line, content);
        let tally = &self.tally;
        tally.charge(t, Some((&tally.stores, &tally.store_ns)));
    }

    fn erase(&mut self, line: LineAddr) -> Option<Line> {
        let t = Instant::now();
        let old = self.inner.erase(line);
        self.tally.charge(t, None);
        old
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn addrs(&self) -> Vec<LineAddr> {
        self.inner.addrs()
    }

    fn snapshot(&self) -> LineStore {
        self.inner.snapshot()
    }

    fn restore(&mut self, image: &LineStore) {
        self.inner.restore(image)
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.inner.contains(line)
    }

    fn read(&self, line: LineAddr) -> Line {
        self.inner.read(line)
    }

    fn begin_atomic(&mut self) {
        let t = Instant::now();
        self.inner.begin_atomic();
        self.tally.charge(t, None);
    }

    fn commit_atomic(&mut self) {
        let t = Instant::now();
        self.inner.commit_atomic();
        let tally = &self.tally;
        tally.charge(t, Some((&tally.commits, &tally.commit_ns)));
    }

    fn sync(&mut self) {
        let t = Instant::now();
        self.inner.sync();
        let tally = &self.tally;
        tally.syncs.fetch_add(1, Ordering::Relaxed);
        tally.charge(t, None);
    }

    fn tick(&mut self, now: Cycle) {
        let t = Instant::now();
        self.inner.tick(now);
        self.tally.charge(t, None);
    }

    fn flight_append(&mut self, entry: &[u8]) {
        let t = Instant::now();
        self.inner.flight_append(entry);
        let tally = &self.tally;
        tally.flight_appends.fetch_add(1, Ordering::Relaxed);
        tally.charge(t, None);
    }

    fn flight_enabled(&self) -> bool {
        self.inner.flight_enabled()
    }

    fn io_stats(&self) -> Option<FileIoStats> {
        self.inner.io_stats()
    }
}

/// Host ns one span costs: an `Instant::now()` plus `elapsed()` pair
/// and the bookkeeping around it, as the median of several timed
/// batches of empty spans.
pub fn calibrate_span_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let mut per_batch = Vec::new();
    for _ in 0..9 {
        let mut sink = 0u64;
        let t = Instant::now();
        for _ in 0..BATCH {
            let s = Instant::now();
            sink = sink.wrapping_add(std::hint::black_box(s.elapsed().as_nanos() as u64));
        }
        std::hint::black_box(sink);
        per_batch.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::report::median(&per_batch)
}
