//! Shared occupancy accounting across all buffers of a query graph.
//!
//! The paper's Figure 8 measures **peak total queue size** — "the total
//! number of tuples in the buffers" at the worst instant of the run. Every
//! buffer of a graph therefore shares one [`OccupancyTracker`] that is
//! bumped on each enqueue and decremented on each dequeue; the peak is
//! maintained incrementally so no sampling is needed.
//!
//! **Single-writer contract.** Every update comes from one thread at a
//! time: the writers are the buffers of one graph (or of one connected
//! component after partitioning), each behind the `RefCell` of a
//! `!Sync` query graph, and every graph or component gets a private
//! tracker. Writes are therefore a relaxed load followed by a relaxed
//! store — no locked read-modify-write on the per-tuple path. The
//! counters stay atomics only so other threads can read whole values
//! (snapshots, a finished run's peak) and the tracker stays
//! `Send + Sync`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregate queue-occupancy statistics shared by all buffers of one graph
/// (with parallel execution: of one connected component — each component's
/// sub-graph owns a private tracker).
///
/// Single-writer: all updates must come from one thread at a time (see the
/// module docs); any thread may read. Under that contract relaxed ordering
/// is exact, not approximate.
#[derive(Debug, Default)]
pub struct OccupancyTracker {
    total: AtomicUsize,
    peak: AtomicUsize,
    data_total: AtomicUsize,
    punct_total: AtomicUsize,
    enqueued: AtomicU64,
    punct_enqueued: AtomicU64,
    coalesced: AtomicU64,
}

impl OccupancyTracker {
    /// Creates a fresh tracker wrapped for sharing.
    pub fn shared() -> Arc<OccupancyTracker> {
        Arc::new(OccupancyTracker::default())
    }

    /// Records one tuple leaving some buffer.
    pub fn on_dequeue(&self, punctuation: bool) {
        saturating_sub(&self.total, 1);
        if punctuation {
            saturating_sub(&self.punct_total, 1);
        } else {
            saturating_sub(&self.data_total, 1);
        }
    }

    /// Records a whole batch of enqueues in one update per counter.
    ///
    /// Equivalent to `data + punct` single-tuple enqueues with no
    /// interleaved dequeues — which is exactly the situation inside
    /// `Buffer::push_batch`. Occupancy only grows during the batch, so the
    /// post-batch total *is* the running maximum and one peak comparison
    /// observes the same peak the per-tuple updates would have.
    pub fn on_enqueue_batch(&self, data: usize, punct: usize) {
        let n = data + punct;
        if n == 0 {
            return;
        }
        let t = add(&self.total, n);
        if t > self.peak.load(Ordering::Relaxed) {
            self.peak.store(t, Ordering::Relaxed);
        }
        add_u64(&self.enqueued, n as u64);
        if punct > 0 {
            add(&self.punct_total, punct);
            add_u64(&self.punct_enqueued, punct as u64);
        }
        if data > 0 {
            add(&self.data_total, data);
        }
    }

    /// Records a whole batch of dequeues in one update per counter.
    /// Dequeues never move the peak, so this is exactly `data + punct`
    /// calls to [`OccupancyTracker::on_dequeue`].
    pub fn on_dequeue_batch(&self, data: usize, punct: usize) {
        if data + punct == 0 {
            return;
        }
        saturating_sub(&self.total, data + punct);
        if punct > 0 {
            saturating_sub(&self.punct_total, punct);
        }
        if data > 0 {
            saturating_sub(&self.data_total, data);
        }
    }

    /// Records `n` punctuation tuples that were merged into a buffer tail
    /// instead of occupying new slots.
    pub fn on_coalesce_batch(&self, n: u64) {
        if n > 0 {
            add_u64(&self.coalesced, n);
        }
    }

    /// Current total number of queued tuples across the graph.
    pub fn total(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Current number of queued *data* tuples.
    pub fn data_total(&self) -> usize {
        self.data_total.load(Ordering::Relaxed)
    }

    /// Current number of queued punctuation tuples.
    pub fn punctuation_total(&self) -> usize {
        self.punct_total.load(Ordering::Relaxed)
    }

    /// Highest total occupancy observed so far (the Fig. 8 metric).
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Lifetime count of enqueued tuples (data + punctuation).
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Lifetime count of enqueued punctuation tuples.
    pub fn punctuation_enqueued(&self) -> u64 {
        self.punct_enqueued.load(Ordering::Relaxed)
    }

    /// Lifetime count of coalesced punctuation tuples.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

/// The single writer's `counter += n`, wrapping on overflow;
/// returns the new value.
fn add(counter: &AtomicUsize, n: usize) -> usize {
    let v = counter.load(Ordering::Relaxed).wrapping_add(n);
    counter.store(v, Ordering::Relaxed);
    v
}

/// [`add`] for the lifetime counters.
fn add_u64(counter: &AtomicU64, n: u64) {
    let v = counter.load(Ordering::Relaxed).wrapping_add(n);
    counter.store(v, Ordering::Relaxed);
}

/// The single writer's `counter -= n`, clamping at zero.
fn saturating_sub(counter: &AtomicUsize, n: usize) {
    let v = counter.load(Ordering::Relaxed).saturating_sub(n);
    counter.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let t = OccupancyTracker::default();
        t.on_enqueue_batch(1, 0);
        t.on_enqueue_batch(0, 1);
        t.on_enqueue_batch(1, 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.peak(), 3);
        t.on_dequeue(true);
        t.on_dequeue(false);
        assert_eq!(t.total(), 1);
        assert_eq!(t.peak(), 3, "peak must not shrink on dequeue");
        t.on_enqueue_batch(1, 0);
        assert_eq!(t.peak(), 3);
    }

    #[test]
    fn kind_split_accounting() {
        let t = OccupancyTracker::default();
        t.on_enqueue_batch(1, 0);
        t.on_enqueue_batch(0, 1);
        assert_eq!(t.data_total(), 1);
        assert_eq!(t.punctuation_total(), 1);
        assert_eq!(t.punctuation_enqueued(), 1);
        t.on_dequeue(false);
        assert_eq!(t.data_total(), 0);
        assert_eq!(t.punctuation_total(), 1);
    }

    #[test]
    fn dequeue_saturates_at_zero() {
        let t = OccupancyTracker::default();
        t.on_dequeue(false);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn coalesce_counter() {
        let t = OccupancyTracker::default();
        t.on_coalesce_batch(1);
        t.on_coalesce_batch(1);
        assert_eq!(t.coalesced(), 2);
        assert_eq!(t.total(), 0, "coalescing does not change occupancy");
    }

    #[test]
    fn batched_updates_match_per_tuple_updates() {
        // The same traffic applied per-tuple and as batches must agree on
        // every counter, including the peak (occupancy is monotone within
        // an enqueue batch, so the post-batch peak comparison sees the
        // same high-water mark the per-tuple updates would).
        let per_tuple = OccupancyTracker::default();
        let batched = OccupancyTracker::default();

        for _ in 0..7 {
            per_tuple.on_enqueue_batch(1, 0);
        }
        for _ in 0..3 {
            per_tuple.on_enqueue_batch(0, 1);
        }
        batched.on_enqueue_batch(7, 3);

        for _ in 0..5 {
            per_tuple.on_dequeue(false);
        }
        per_tuple.on_dequeue(true);
        batched.on_dequeue_batch(5, 1);

        // A second, smaller wave: the peak must stay at the first wave's.
        for _ in 0..2 {
            per_tuple.on_enqueue_batch(1, 0);
        }
        batched.on_enqueue_batch(2, 0);

        for t in [&per_tuple, &batched] {
            assert_eq!(t.total(), 6);
            assert_eq!(t.data_total(), 4);
            assert_eq!(t.punctuation_total(), 2);
            assert_eq!(t.peak(), 10);
            assert_eq!(t.enqueued(), 12);
            assert_eq!(t.punctuation_enqueued(), 3);
        }
    }

    #[test]
    fn batch_dequeue_saturates_at_zero() {
        let t = OccupancyTracker::default();
        t.on_enqueue_batch(2, 0);
        t.on_dequeue_batch(5, 3);
        assert_eq!(t.total(), 0);
        assert_eq!(t.data_total(), 0);
        assert_eq!(t.punctuation_total(), 0);
        // Empty batches are free no-ops.
        t.on_enqueue_batch(0, 0);
        t.on_coalesce_batch(0);
        assert_eq!(t.enqueued(), 2);
        t.on_coalesce_batch(2);
        assert_eq!(t.coalesced(), 2);
    }

    #[test]
    fn tracker_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OccupancyTracker>();
    }
}
