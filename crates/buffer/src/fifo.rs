//! Inter-operator FIFO buffers.
//!
//! In the paper's query graphs (§3) every arc is a buffer: the upstream
//! operator appends to the tail (*production*) and the downstream operator
//! takes from the front (*consumption*). Buffers enforce the stream-order
//! contract — timestamps are non-decreasing — because every IWP operator's
//! correctness depends on it.
//!
//! Buffers optionally **coalesce punctuation**: consecutive punctuation
//! tuples carry no more information than the last one, so when enabled a
//! punctuation pushed onto a punctuation tail replaces it in place. The
//! paper's Fig. 8(b) shows the memory cost of *not* bounding punctuation at
//! high heartbeat rates; coalescing is the corresponding engineering fix and
//! is evaluated by the `ablation_coalescing` bench.
//!
//! Steady-state allocation discipline: the backing `VecDeque` never
//! shrinks, so push/pop cycles stop touching the allocator once a buffer
//! has seen its high-water occupancy. Bulk consumption composes with
//! that: [`Buffer::drain_front`] hands out a block (`Vec<Tuple>`) from a
//! small per-buffer pool and [`Buffer::recycle`] returns it, so repeated
//! drain/refill cycles reuse the same capacity instead of allocating a
//! fresh vector per batch. Shared occupancy accounting is batched the
//! same way — one tracker update per batch, not per tuple.

use std::collections::VecDeque;
use std::sync::Arc;

use millstream_types::{Error, Result, Timestamp, Tuple};

use crate::occupancy::OccupancyTracker;
use crate::sentinel::OrderSentinel;

/// Policy for how a buffer handles punctuation tuples on push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PunctuationPolicy {
    /// Keep every punctuation tuple (the paper's baseline behaviour).
    #[default]
    KeepAll,
    /// Replace a punctuation tail with the newer punctuation, so at most
    /// one trailing punctuation is ever queued.
    Coalesce,
}

/// What to do with a tuple whose timestamp regresses below the buffer's
/// high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Reject the push with [`Error::OutOfOrder`] (default; millstream
    /// streams are order-contracted like Stream Mill's).
    #[default]
    Reject,
    /// Clamp the timestamp up to the high-water mark (the pragmatic recovery
    /// used for mildly disordered external feeds).
    Clamp,
    /// Silently drop the tuple.
    Drop,
    /// Accept the tuple as-is. Only valid on buffers consumed by an
    /// order-restoring operator (`Reorder`): every other operator relies on
    /// the ordering contract.
    Accept,
}

/// The one staleness rule for punctuation: does a punctuation at `ts` say
/// nothing new about a stream whose data has reached `data_hw` and whose
/// punctuation has reached `punct_hw` ([`Buffer::high_water`] /
/// [`Buffer::punct_high_water`], or a mirror of them)?
///
/// The comparison is deliberately asymmetric. A punctuation *at* the data
/// high-water still says something — "no more data below `ts`", which the
/// data tuple at `ts` itself does not promise — so only one strictly below
/// it is stale. A punctuation *at* the punctuation high-water repeats a
/// promise already made, so it is stale too. Every door that admits
/// punctuation asks here: heartbeat ingest, the exchange's on-demand
/// frontier advance, and the server's heartbeat frames and idle synthesis.
///
/// Pinned by the executor's `heartbeat_at_data_high_water_is_still_admitted`
/// and `duplicate_heartbeats_are_dropped_and_counted`, and by fuzz-corpus
/// seeds 2 and 5 (`fuzz_graphs`).
pub fn punctuation_is_stale<T: PartialOrd>(ts: T, data_hw: Option<T>, punct_hw: Option<T>) -> bool {
    data_hw.is_some_and(|hw| ts < hw) || punct_hw.is_some_and(|hw| ts <= hw)
}

/// A FIFO buffer connecting two operators (one arc of the query graph).
#[derive(Debug)]
pub struct Buffer {
    name: String,
    queue: VecDeque<Tuple>,
    /// Highest timestamp ever pushed; the ordering contract floor.
    high_water: Option<Timestamp>,
    /// Highest *punctuation* timestamp ever pushed. A punctuation at or
    /// below this mark is informationless (its ETS was already asserted),
    /// which is what lets the executor drop duplicate heartbeats.
    punct_high_water: Option<Timestamp>,
    punctuation_policy: PunctuationPolicy,
    order_policy: OrderPolicy,
    tracker: Option<Arc<OccupancyTracker>>,
    /// Opt-in ordering-contract checker (`MILLSTREAM_CHECK`); `None` when
    /// checking is off, so the steady-state cost is one branch per push.
    sentinel: Option<OrderSentinel>,
    /// Number of queued *data* tuples (punctuation excluded).
    data_count: usize,
    /// Lifetime counts for diagnostics.
    pushed: u64,
    popped: u64,
    dropped: u64,
    /// Recycled drain blocks: cleared vectors whose capacity is reused by
    /// the next [`Buffer::drain_front`] instead of allocating afresh.
    pool: Vec<Vec<Tuple>>,
}

/// Blocks retained per buffer for drain reuse. One is enough for the
/// drain→consume→recycle cycle of a single consumer; a little slack
/// covers nested drains during teardown.
const POOL_BLOCKS: usize = 4;

/// Tracker deltas accumulated across one push batch and applied in a
/// single [`OccupancyTracker`] update per counter.
#[derive(Default)]
struct PendingEnqueues {
    data: usize,
    punct: usize,
    coalesced: u64,
}

impl Buffer {
    /// Creates a buffer with default policies and no shared tracker.
    pub fn new(name: impl Into<String>) -> Self {
        Buffer {
            name: name.into(),
            queue: VecDeque::new(),
            high_water: None,
            punct_high_water: None,
            punctuation_policy: PunctuationPolicy::default(),
            order_policy: OrderPolicy::default(),
            tracker: None,
            sentinel: None,
            data_count: 0,
            pushed: 0,
            popped: 0,
            dropped: 0,
            pool: Vec::new(),
        }
    }

    /// Attaches a shared occupancy tracker (builder style).
    pub fn with_tracker(mut self, tracker: Arc<OccupancyTracker>) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Replaces the shared occupancy tracker, registering any currently
    /// queued tuples with the new tracker so its occupancy (and peak)
    /// reflect reality from the moment of attachment. Used when a graph is
    /// partitioned into components and each sub-graph gets a private
    /// tracker.
    pub fn set_tracker(&mut self, tracker: Arc<OccupancyTracker>) {
        tracker.on_enqueue_batch(self.data_count, self.queue.len() - self.data_count);
        self.tracker = Some(tracker);
    }

    /// Attaches (or clears) the ordering-contract sentinel for this buffer.
    pub fn set_sentinel(&mut self, sentinel: Option<OrderSentinel>) {
        self.sentinel = sentinel;
    }

    /// The attached sentinel, if any.
    pub fn sentinel(&self) -> Option<&OrderSentinel> {
        self.sentinel.as_ref()
    }

    /// Sets the punctuation policy (builder style).
    pub fn with_punctuation_policy(mut self, policy: PunctuationPolicy) -> Self {
        self.punctuation_policy = policy;
        self
    }

    /// Sets the ordering policy (builder style).
    pub fn with_order_policy(mut self, policy: OrderPolicy) -> Self {
        self.order_policy = policy;
        self
    }

    /// The buffer's out-of-order policy.
    pub fn order_policy(&self) -> OrderPolicy {
        self.order_policy
    }

    /// Buffer name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of queued tuples.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued *data* tuples. Idle-waiting accounting is defined
    /// over data: a lingering trailing punctuation delays nothing
    /// user-visible.
    pub fn data_len(&self) -> usize {
        self.data_count
    }

    /// True iff no tuples are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The tuple at the consumption end, without removing it.
    pub fn front(&self) -> Option<&Tuple> {
        self.queue.front()
    }

    /// Timestamp of the front tuple, if any.
    pub fn front_ts(&self) -> Option<Timestamp> {
        self.queue.front().map(|t| t.ts)
    }

    /// Highest timestamp ever pushed into this buffer.
    pub fn high_water(&self) -> Option<Timestamp> {
        self.high_water
    }

    /// Highest punctuation timestamp ever pushed into this buffer.
    pub fn punct_high_water(&self) -> Option<Timestamp> {
        self.punct_high_water
    }

    /// Lifetime number of successful pushes.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Lifetime number of pops.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Lifetime number of tuples dropped by [`OrderPolicy::Drop`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a tuple at the production end, enforcing stream order and
    /// applying the punctuation policy.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        let mut pending = PendingEnqueues::default();
        let result = self.push_inner(tuple, &mut pending);
        self.flush_enqueues(pending);
        result
    }

    /// The push logic minus tracker traffic: order/punctuation policy,
    /// high-water and queue updates, with the tracker deltas accumulated
    /// into `pending` for the caller to flush in one batch.
    fn push_inner(&mut self, mut tuple: Tuple, pending: &mut PendingEnqueues) -> Result<()> {
        if let Some(hw) = self.high_water {
            if tuple.ts < hw {
                if let Some(s) = &self.sentinel {
                    // Counted under every policy: Reject fails loudly on its
                    // own and Clamp/Drop recoveries are policy-sanctioned,
                    // but the regression itself is worth surfacing.
                    if self.order_policy != OrderPolicy::Accept {
                        s.note_order_regression(&self.name, tuple.ts, hw);
                    }
                }
                match self.order_policy {
                    OrderPolicy::Reject => {
                        return Err(Error::OutOfOrder {
                            context: format!("buffer {}", self.name),
                            got: tuple.ts.as_micros(),
                            watermark: hw.as_micros(),
                        });
                    }
                    OrderPolicy::Clamp => tuple.ts = hw,
                    OrderPolicy::Drop => {
                        self.dropped += 1;
                        return Ok(());
                    }
                    OrderPolicy::Accept => {}
                }
            }
        }
        if let Some(s) = &self.sentinel {
            // Punctuation dominance: once an ETS at τ was pushed on this
            // arc, data below τ contradicts it. Only `Accept` buffers can
            // reach this with a violating tuple (Reject/Clamp/Drop already
            // handled the regression against the ≥ punctuation high-water
            // mark above), and `Accept` is exactly where nothing else
            // checks.
            if tuple.is_data() {
                if let Some(p) = self.punct_high_water {
                    if tuple.ts < p {
                        s.check_punct_dominance(&self.name, tuple.ts, p)?;
                    }
                }
            }
        }
        // High-water tracks the max (under Accept a regressed tuple must
        // not lower it).
        self.high_water = Some(self.high_water.map_or(tuple.ts, |hw| hw.max(tuple.ts)));
        if tuple.is_punctuation() {
            self.punct_high_water = Some(
                self.punct_high_water
                    .map_or(tuple.ts, |hw| hw.max(tuple.ts)),
            );
        }

        if tuple.is_punctuation() && self.punctuation_policy == PunctuationPolicy::Coalesce {
            if let Some(tail) = self.queue.back_mut() {
                if tail.is_punctuation() {
                    // The newer ETS subsumes the older one.
                    *tail = tuple;
                    pending.coalesced += 1;
                    return Ok(());
                }
            }
        }

        if tuple.is_data() {
            self.data_count += 1;
            pending.data += 1;
        } else {
            pending.punct += 1;
        }
        self.pushed += 1;
        self.queue.push_back(tuple);
        Ok(())
    }

    /// Applies accumulated enqueue deltas to the shared tracker: one
    /// update per counter per batch, instead of per tuple. Occupancy only
    /// grows within a push batch, so the batched peak equals the
    /// per-tuple peak (see `OccupancyTracker::on_enqueue_batch`).
    fn flush_enqueues(&self, pending: PendingEnqueues) {
        if let Some(t) = &self.tracker {
            t.on_enqueue_batch(pending.data, pending.punct);
            t.on_coalesce_batch(pending.coalesced);
        }
    }

    /// Appends a run of tuples at the production end, applying the same
    /// order and punctuation policies as [`Buffer::push`]. Returns the
    /// number of tuples accepted (coalesced punctuation counts as
    /// accepted). On an ordering error, tuples already accepted stay
    /// queued — exactly as if they had been pushed one by one. The shared
    /// occupancy tracker is updated once for the whole batch.
    pub fn push_batch<I>(&mut self, tuples: I) -> Result<usize>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut accepted = 0;
        let mut pending = PendingEnqueues::default();
        for tuple in tuples {
            if let Err(e) = self.push_inner(tuple, &mut pending) {
                // Tuples accepted before the error stay queued, so their
                // tracker deltas must land too.
                self.flush_enqueues(pending);
                return Err(e);
            }
            accepted += 1;
        }
        self.flush_enqueues(pending);
        Ok(accepted)
    }

    /// Removes and returns the front tuple.
    pub fn pop(&mut self) -> Option<Tuple> {
        let tuple = self.queue.pop_front()?;
        if let Some(t) = &self.tracker {
            t.on_dequeue(tuple.is_punctuation());
        }
        if tuple.is_data() {
            self.data_count -= 1;
        }
        self.popped += 1;
        Some(tuple)
    }

    /// Removes and returns up to `n` tuples from the consumption end,
    /// preserving FIFO order, with the same accounting as [`Buffer::pop`]
    /// applied once for the whole batch. The returned block comes from
    /// this buffer's recycle pool when one is available — pass it back
    /// via [`Buffer::recycle`] after consuming it and steady-state
    /// drain/refill cycles never touch the allocator.
    pub fn drain_front(&mut self, n: usize) -> Vec<Tuple> {
        let take = n.min(self.queue.len());
        let mut out = self.pool.pop().unwrap_or_default();
        out.reserve(take);
        let mut data = 0usize;
        for tuple in self.queue.drain(..take) {
            if tuple.is_data() {
                data += 1;
            }
            out.push(tuple);
        }
        if let Some(t) = &self.tracker {
            t.on_dequeue_batch(data, take - data);
        }
        self.data_count -= data;
        self.popped += take as u64;
        out
    }

    /// Returns a consumed drain block to the buffer's pool. The block is
    /// cleared; its capacity is reused by the next [`Buffer::drain_front`].
    /// At most a handful of blocks are retained — surplus blocks are
    /// simply dropped — and recycling a block from a *different* buffer is
    /// harmless (capacity is capacity).
    pub fn recycle(&mut self, mut block: Vec<Tuple>) {
        block.clear();
        if block.capacity() > 0 && self.pool.len() < POOL_BLOCKS {
            self.pool.push(block);
        }
    }

    /// Number of recycled blocks currently pooled (diagnostic).
    pub fn pooled_blocks(&self) -> usize {
        self.pool.len()
    }

    /// Removes and drops up to `n` tuples from the consumption end without
    /// returning them. The bulk variant of [`Buffer::pop`] for fused
    /// drop-runs: same accounting (one batched tracker update), one pass,
    /// no intermediate allocation. Returns the number of tuples removed.
    pub fn discard_front(&mut self, n: usize) -> usize {
        let take = n.min(self.queue.len());
        let mut data = 0usize;
        for tuple in self.queue.drain(..take) {
            if tuple.is_data() {
                data += 1;
            }
        }
        if let Some(t) = &self.tracker {
            t.on_dequeue_batch(data, take - data);
        }
        self.data_count -= data;
        self.popped += take as u64;
        take
    }

    /// Iterates the queued tuples front-to-back without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.queue.iter()
    }

    /// Removes every queued tuple (tracker-aware, batched). Used on
    /// teardown.
    pub fn clear(&mut self) {
        let take = self.queue.len();
        let data = self.data_count;
        self.queue.clear();
        if let Some(t) = &self.tracker {
            t.on_dequeue_batch(data, take - data);
        }
        self.data_count = 0;
        self.popped += take as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_types::Value;

    fn data(ts: u64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(ts as i64)])
    }

    #[test]
    fn fifo_order() {
        let mut b = Buffer::new("t");
        b.push(data(1)).unwrap();
        b.push(data(2)).unwrap();
        b.push(data(2)).unwrap(); // simultaneous tuples are fine
        assert_eq!(b.len(), 3);
        assert_eq!(b.pop().unwrap().ts.as_micros(), 1);
        assert_eq!(b.pop().unwrap().ts.as_micros(), 2);
        assert_eq!(b.pop().unwrap().ts.as_micros(), 2);
        assert!(b.pop().is_none());
    }

    #[test]
    fn rejects_out_of_order_by_default() {
        let mut b = Buffer::new("t");
        b.push(data(10)).unwrap();
        let err = b.push(data(5)).unwrap_err();
        assert!(matches!(
            err,
            Error::OutOfOrder {
                got: 5,
                watermark: 10,
                ..
            }
        ));
        // High-water survives even after the queue drains.
        b.pop();
        assert!(b.push(data(7)).is_err());
        assert!(b.push(data(10)).is_ok(), "equal to high-water is in order");
    }

    #[test]
    fn clamp_policy_raises_timestamp() {
        let mut b = Buffer::new("t").with_order_policy(OrderPolicy::Clamp);
        b.push(data(10)).unwrap();
        b.push(data(5)).unwrap();
        assert_eq!(b.iter().nth(1).unwrap().ts.as_micros(), 10);
    }

    #[test]
    fn accept_policy_permits_disorder() {
        let mut b = Buffer::new("t").with_order_policy(OrderPolicy::Accept);
        b.push(data(10)).unwrap();
        b.push(data(5)).unwrap();
        b.push(data(7)).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.front_ts().unwrap().as_micros(), 10, "FIFO, not sorted");
        assert_eq!(
            b.high_water().unwrap().as_micros(),
            10,
            "high-water is the max"
        );
    }

    #[test]
    fn drop_policy_counts_drops() {
        let mut b = Buffer::new("t").with_order_policy(OrderPolicy::Drop);
        b.push(data(10)).unwrap();
        b.push(data(5)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn coalesces_trailing_punctuation() {
        let tracker = OccupancyTracker::shared();
        let mut b = Buffer::new("t")
            .with_punctuation_policy(PunctuationPolicy::Coalesce)
            .with_tracker(tracker.clone());
        b.push(Tuple::punctuation(Timestamp::from_micros(1)))
            .unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(2)))
            .unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(3)))
            .unwrap();
        assert_eq!(b.len(), 1, "consecutive punctuation collapses");
        assert_eq!(b.front_ts().unwrap().as_micros(), 3);
        assert_eq!(tracker.coalesced(), 2);
        assert_eq!(tracker.total(), 1);

        // A data tuple breaks the run; the next punctuation queues anew.
        b.push(data(4)).unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(5)))
            .unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn keep_all_retains_every_punctuation() {
        let mut b = Buffer::new("t");
        b.push(Tuple::punctuation(Timestamp::from_micros(1)))
            .unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(2)))
            .unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn tracker_follows_occupancy() {
        let tracker = OccupancyTracker::shared();
        let mut a = Buffer::new("a").with_tracker(tracker.clone());
        let mut b = Buffer::new("b").with_tracker(tracker.clone());
        a.push(data(1)).unwrap();
        b.push(data(1)).unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(2)))
            .unwrap();
        assert_eq!(tracker.total(), 3);
        assert_eq!(tracker.peak(), 3);
        assert_eq!(tracker.punctuation_total(), 1);
        a.pop();
        b.clear();
        assert_eq!(tracker.total(), 0);
        assert_eq!(tracker.peak(), 3);
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        let tracker = OccupancyTracker::shared();
        let mut b = Buffer::new("t").with_tracker(tracker.clone());
        let n = b
            .push_batch(vec![
                data(1),
                Tuple::punctuation(Timestamp::from_micros(2)),
                data(3),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.data_len(), 2);
        assert_eq!(b.pushed(), 3);
        assert_eq!(tracker.total(), 3);
        assert_eq!(b.high_water().unwrap().as_micros(), 3);
        assert_eq!(b.punct_high_water().unwrap().as_micros(), 2);
    }

    #[test]
    fn push_batch_stops_at_first_ordering_error() {
        let mut b = Buffer::new("t");
        let err = b.push_batch(vec![data(5), data(3), data(9)]).unwrap_err();
        assert!(matches!(err, Error::OutOfOrder { got: 3, .. }));
        assert_eq!(b.len(), 1, "tuples before the error stay queued");
    }

    #[test]
    fn drain_front_preserves_order_and_accounting() {
        let tracker = OccupancyTracker::shared();
        let mut b = Buffer::new("t").with_tracker(tracker.clone());
        b.push_batch((1..=5).map(data)).unwrap();
        let got = b.drain_front(3);
        let ts: Vec<u64> = got.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![1, 2, 3]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.data_len(), 2);
        assert_eq!(b.popped(), 3);
        assert_eq!(tracker.total(), 2);
        // Over-asking drains everything without panicking.
        assert_eq!(b.drain_front(100).len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn discard_front_matches_pop_accounting() {
        let tracker = OccupancyTracker::shared();
        let mut b = Buffer::new("t").with_tracker(tracker.clone());
        b.push_batch((1..=4).map(data)).unwrap();
        b.push(Tuple::punctuation(Timestamp::from_micros(5)))
            .unwrap();
        assert_eq!(b.discard_front(3), 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.data_len(), 1);
        assert_eq!(b.popped(), 3);
        assert_eq!(tracker.total(), 2);
        assert_eq!(b.front_ts().unwrap().as_micros(), 4);
        // Over-asking clamps; punctuation accounting stays consistent.
        assert_eq!(b.discard_front(10), 2);
        assert!(b.is_empty());
        assert_eq!(b.data_len(), 0);
        assert_eq!(tracker.total(), 0);
    }

    #[test]
    fn recycled_blocks_are_reused_by_drain_front() {
        let mut b = Buffer::new("t");
        b.push_batch((1..=8).map(data)).unwrap();
        let block = b.drain_front(4);
        let cap = block.capacity();
        let ptr = block.as_ptr();
        b.recycle(block);
        assert_eq!(b.pooled_blocks(), 1);
        let reused = b.drain_front(4);
        assert_eq!(b.pooled_blocks(), 0, "drain takes the pooled block");
        assert_eq!(reused.as_ptr(), ptr, "same backing storage came back");
        assert!(reused.capacity() >= cap);
        let ts: Vec<u64> = reused.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![5, 6, 7, 8]);
        // Zero-capacity blocks are not worth pooling; the pool is bounded.
        b.recycle(Vec::new());
        assert_eq!(b.pooled_blocks(), 0);
        for _ in 0..10 {
            b.recycle(Vec::with_capacity(4));
        }
        assert!(b.pooled_blocks() <= 4, "pool stays bounded");
    }

    #[test]
    fn batched_tracker_accounting_matches_per_tuple_path() {
        // The bulk paths (push_batch / drain_front / discard_front / clear)
        // update the shared tracker once per batch. This must be
        // observationally identical — including the peak — to a buffer
        // driven one tuple at a time through push/pop.
        let bulk_t = OccupancyTracker::shared();
        let unit_t = OccupancyTracker::shared();
        let mut bulk = Buffer::new("bulk").with_tracker(bulk_t.clone());
        let mut unit = Buffer::new("unit").with_tracker(unit_t.clone());

        let wave = || {
            let mut w: Vec<Tuple> = (1..=6).map(data).collect();
            w.push(Tuple::punctuation(Timestamp::from_micros(7)));
            w
        };
        bulk.push_batch(wave()).unwrap();
        for t in wave() {
            unit.push(t).unwrap();
        }
        let block = bulk.drain_front(5);
        bulk.recycle(block);
        for _ in 0..5 {
            unit.pop();
        }
        bulk.push_batch((8..=9).map(data)).unwrap();
        for t in (8..=9).map(data) {
            unit.push(t).unwrap();
        }
        bulk.clear();
        unit.clear();

        for (b, t) in [(&bulk, &bulk_t), (&unit, &unit_t)] {
            assert_eq!(t.total(), 0);
            assert_eq!(t.peak(), 7, "peak must match the per-tuple path");
            assert_eq!(t.enqueued(), 9);
            assert_eq!(t.punctuation_enqueued(), 1);
            assert_eq!(b.pushed(), 9);
            assert_eq!(b.popped(), 9);
        }
    }

    #[test]
    fn sentinel_counts_masked_regressions() {
        use crate::sentinel::{CheckMode, OrderSentinel, SentinelStats};
        let stats = SentinelStats::shared();
        let mut b = Buffer::new("t").with_order_policy(OrderPolicy::Clamp);
        b.set_sentinel(Some(OrderSentinel::new(
            CheckMode::Counters,
            "op",
            stats.clone(),
        )));
        b.push(data(10)).unwrap();
        b.push(data(5)).unwrap(); // clamped to 10 — counted, not escalated
        assert_eq!(stats.order_regressions(), 1);
        assert_eq!(b.iter().nth(1).unwrap().ts.as_micros(), 10);

        // Reject still fails with its own OutOfOrder, sentinel counts it.
        let mut r = Buffer::new("r");
        r.set_sentinel(Some(OrderSentinel::new(
            CheckMode::Strict,
            "op",
            stats.clone(),
        )));
        r.push(data(10)).unwrap();
        assert!(matches!(
            r.push(data(4)).unwrap_err(),
            Error::OutOfOrder { .. }
        ));
        assert_eq!(stats.order_regressions(), 2);
    }

    #[test]
    fn sentinel_escalates_punct_dominance_on_accept_buffers() {
        use crate::sentinel::{CheckMode, OrderSentinel, SentinelStats};
        let stats = SentinelStats::shared();
        let mut b = Buffer::new("t").with_order_policy(OrderPolicy::Accept);
        b.set_sentinel(Some(OrderSentinel::new(
            CheckMode::Strict,
            "src s",
            stats.clone(),
        )));
        b.push(data(10)).unwrap();
        b.push(data(5)).unwrap(); // disorder is legal on Accept buffers
        b.push(Tuple::punctuation(Timestamp::from_micros(20)))
            .unwrap();
        b.push(data(25)).unwrap();
        // …but data below an asserted punctuation is not.
        let err = b.push(data(15)).unwrap_err();
        assert!(matches!(
            err,
            Error::InvariantViolation {
                got: 15,
                bound: 20,
                ..
            }
        ));
        assert_eq!(stats.punct_violations(), 1);

        // In counters mode the same push is admitted and only counted.
        let stats2 = SentinelStats::shared();
        let mut c = Buffer::new("t").with_order_policy(OrderPolicy::Accept);
        c.set_sentinel(Some(OrderSentinel::new(
            CheckMode::Counters,
            "src s",
            stats2.clone(),
        )));
        c.push(Tuple::punctuation(Timestamp::from_micros(20)))
            .unwrap();
        c.push(data(15)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(stats2.punct_violations(), 1);
    }

    #[test]
    fn counters() {
        let mut b = Buffer::new("t");
        b.push(data(1)).unwrap();
        b.push(data(2)).unwrap();
        b.pop();
        assert_eq!(b.pushed(), 2);
        assert_eq!(b.popped(), 1);
        assert_eq!(b.high_water().unwrap().as_micros(), 2);
    }
}
