//! Thread-safe event collector.

use crate::event::{Event, EventKind, MsgId};
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of independently locked event buffers. Each recording thread
/// is pinned to one shard (round-robin at first record), so threads
/// only contend when they share a shard — 1/N of the time instead of
/// always, which matters once hundreds of ranks trace concurrently.
const EVENT_SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// The shard this thread appends to. Thread affinity keeps one
/// thread's events in vector order within its shard; the global `seq`
/// gives the cross-shard total order back at snapshot time.
fn shard_index() -> usize {
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A process-wide trace collector.
///
/// One `Tracer` is shared (via `Arc`) by every process thread, daemon and
/// the scheduler of a virtual machine. Recording appends to one of
/// `EVENT_SHARDS` mutex-protected vectors (chosen per thread), with a
/// global atomic sequence number preserving a dense total recording
/// order; a disabled tracer short-circuits on a relaxed atomic load
/// before touching the clock, the sequence or any lock.
#[derive(Debug)]
pub struct Tracer {
    start: Instant,
    enabled: AtomicBool,
    next_msg: AtomicU64,
    next_seq: AtomicU64,
    events: [Mutex<Vec<Event>>; EVENT_SHARDS],
    metrics: MetricsRegistry,
}

impl Tracer {
    /// Create an enabled tracer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            start: Instant::now(),
            enabled: AtomicBool::new(true),
            next_msg: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            events: std::array::from_fn(|_| Mutex::new(Vec::new())),
            metrics: MetricsRegistry::new(),
        })
    }

    /// Create a tracer that records nothing (for overhead-sensitive
    /// benchmark runs — Table 1's "original"/"modified" columns).
    pub fn disabled() -> Arc<Self> {
        let t = Self::new();
        t.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Is recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on/off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Allocate a fresh wire message id. Ids are allocated even when
    /// tracing is disabled so envelopes are identical in both modes.
    pub fn next_msg_id(&self) -> MsgId {
        MsgId(self.next_msg.fetch_add(1, Ordering::Relaxed))
    }

    /// The per-migration metrics registry shared by every component that
    /// holds this tracer (migrating processes, the scheduler, the post
    /// office).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn push(&self, t_ns: u64, who: &str, kind: EventKind) {
        // The sequence is a global atomic, so `seq` order is a dense
        // total order across shards; the string allocation happens
        // outside any lock.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            t_ns,
            seq,
            who: who.to_string(),
            kind,
        };
        self.events[shard_index()].lock().push(ev);
    }

    /// Record an event performed by the process labelled `who`.
    pub fn record(&self, who: &str, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(self.now_ns(), who, kind);
    }

    /// Record an event with a caller-captured timestamp (from
    /// [`Self::now_ns`]). Use when the traced action races another
    /// thread's reaction to it — e.g. a message post that the receiver
    /// may observe (and trace) before the sender gets to its own
    /// `record` call. Capturing the timestamp *before* the action keeps
    /// cause before effect in the sorted log.
    pub fn record_at(&self, t_ns: u64, who: &str, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(t_ns, who, kind);
    }

    /// Copy out every event recorded so far, ordered by record time.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = Vec::with_capacity(self.len());
        for shard in &self.events {
            evs.extend(shard.lock().iter().cloned());
        }
        // Shards interleave arbitrarily and recording order can deviate
        // slightly from timestamp order; sort so analyses see a
        // consistent timeline. `seq` breaks equal-nanosecond ties in
        // recording order — without it, same-timestamp events could
        // swap and break per-process causal order.
        evs.sort_by_key(|e| (e.t_ns, e.seq));
        evs
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.iter().all(|s| s.lock().is_empty())
    }

    /// Drop all recorded events (between benchmark repetitions). The
    /// sequence counter restarts; message ids keep advancing.
    pub fn clear(&self) {
        for shard in &self.events {
            shard.lock().clear();
        }
        self.next_seq.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_and_snapshots() {
        let t = Tracer::new();
        t.record("p0", EventKind::MigrationStart { rank: 0 });
        t.record("p1", EventKind::MigrationCommit { rank: 0 });
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].who, "p0");
        assert!(evs[0].t_ns <= evs[1].t_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record("p0", EventKind::MigrationStart { rank: 0 });
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record("p0", EventKind::MigrationStart { rank: 0 });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn msg_ids_unique_across_threads() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                (0..100).map(|_| t.next_msg_id().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    t.record(&format!("p{i}"), EventKind::Compute { work: 1 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 200);
        let evs = t.snapshot();
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn clear_resets_events_not_ids() {
        let t = Tracer::new();
        t.record("p0", EventKind::MigrationStart { rank: 0 });
        let id1 = t.next_msg_id();
        t.clear();
        assert!(t.is_empty());
        let id2 = t.next_msg_id();
        assert!(id2 > id1, "ids keep advancing across clears");
        // Sequence numbers restart so post-clear logs stay dense.
        t.record("p0", EventKind::MigrationStart { rank: 0 });
        assert_eq!(t.snapshot()[0].seq, 0);
    }

    #[test]
    fn equal_timestamps_keep_recording_order() {
        // Force every event to the same nanosecond: recording order is
        // the only thing that can keep the timeline causal, and the
        // (t_ns, seq) sort must preserve it exactly.
        let t = Tracer::new();
        for i in 0..64usize {
            t.record(
                &format!("p{}", i % 4),
                EventKind::Compute { work: i as u64 },
            );
        }
        // Flatten timestamps and scramble each shard's vector order to
        // model snapshot observing buffers whose sort must fall back to
        // `seq`, not insertion order.
        for shard in t.events.iter() {
            let mut evs = shard.lock();
            for e in evs.iter_mut() {
                e.t_ns = 1_000;
            }
            evs.reverse();
        }
        let evs = t.snapshot();
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(
                e.kind,
                EventKind::Compute { work: i as u64 },
                "event {i} swapped despite equal timestamps"
            );
        }
    }

    #[test]
    fn seq_is_unique_and_dense_across_threads() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    t.record(&format!("p{i}"), EventKind::Compute { work: 0 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seqs: Vec<u64> = t.snapshot().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn sharded_store_interleaves_into_one_timeline() {
        // More recording threads than shards: every shard sees traffic,
        // and the merged snapshot must still be one totally ordered,
        // dense timeline.
        let t = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..(EVENT_SHARDS * 2) {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                for w in 0..25u64 {
                    t.record(&format!("p{i}"), EventKind::Compute { work: w });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), EVENT_SHARDS * 2 * 25);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].t_ns, w[0].seq) <= (w[1].t_ns, w[1].seq)));
        // Per-thread order must survive the shard merge.
        for i in 0..(EVENT_SHARDS * 2) {
            let who = format!("p{i}");
            let works: Vec<u64> = evs
                .iter()
                .filter(|e| e.who == who)
                .map(|e| match e.kind {
                    EventKind::Compute { work } => work,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(works, (0..25).collect::<Vec<u64>>(), "thread {i}");
        }
    }
}
