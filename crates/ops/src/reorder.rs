//! Order restoration for disordered external streams — the "flexible time
//! management" direction the paper cites (Srivastava & Widom, PODS'04,
//! reference [12]).
//!
//! Externally timestamped tuples can arrive out of order within a bounded
//! *disorder* (network reordering, multiple upstream sources). Every other
//! millstream operator relies on the ordering contract, so a [`Reorder`]
//! operator is placed directly after such a source: it buffers tuples in a
//! min-heap and releases them once the stream's high-water mark has moved
//! `slack` past them — at that point, assuming disorder is bounded by
//! `slack`, no smaller timestamp can still arrive. Tuples that violate the
//! bound anyway (*too-late* tuples) are handled by a configurable policy.
//!
//! Punctuation at τ asserts that no future tuple is below τ regardless of
//! slack, so it flushes everything ≤ τ and is forwarded — which is how
//! on-demand ETS keeps working across a Reorder stage.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use millstream_types::{Result, Schema, TimeDelta, Timestamp, Tuple};

use crate::context::{OpContext, Operator, Poll, StepOutcome};

/// What to do with a tuple that arrives later than the slack bound allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Drop it and count it (load-shedding semantics; the default).
    #[default]
    Drop,
    /// Clamp its timestamp up to the already-emitted high-water mark so it
    /// is not lost, at the cost of a slightly wrong timestamp.
    Clamp,
}

/// Heap entry ordered by (ts, arrival sequence) for stable release order.
/// Identity is (ts, seq) — seq is unique, so this is a total order.
#[derive(Debug)]
struct Pending {
    ts: Timestamp,
    seq: u64,
    tuple: Tuple,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.seq) == (other.ts, other.seq)
    }
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The order-restoring slack buffer.
pub struct Reorder {
    name: String,
    schema: Schema,
    slack: TimeDelta,
    late_policy: LatePolicy,
    heap: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    /// Largest input timestamp observed (data or punctuation).
    max_seen: Option<Timestamp>,
    /// Largest timestamp emitted (the downstream ordering floor).
    emitted_high_water: Option<Timestamp>,
    late_tuples: u64,
    /// Optional shared mirror of `late_tuples`, for observers that only
    /// hold the built graph (the operator itself is boxed away).
    late_counter: Option<Arc<AtomicU64>>,
}

impl Reorder {
    /// Creates a reorder stage with the given slack bound.
    pub fn new(name: impl Into<String>, schema: Schema, slack: TimeDelta) -> Self {
        Reorder {
            name: name.into(),
            schema,
            slack,
            late_policy: LatePolicy::default(),
            heap: BinaryHeap::new(),
            seq: 0,
            max_seen: None,
            emitted_high_water: None,
            late_tuples: 0,
            late_counter: None,
        }
    }

    /// Sets the too-late policy (builder style).
    pub fn with_late_policy(mut self, policy: LatePolicy) -> Self {
        self.late_policy = policy;
        self
    }

    /// Mirrors the late-tuple count into a shared cell (builder style).
    pub fn with_late_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.late_counter = Some(counter);
        self
    }

    /// Tuples currently held back.
    pub fn buffered(&self) -> usize {
        self.heap.len()
    }

    /// Tuples that violated the slack bound so far.
    pub fn late_tuples(&self) -> u64 {
        self.late_tuples
    }

    /// The release watermark: everything at or below it may be emitted.
    fn watermark(&self) -> Option<Timestamp> {
        self.max_seen.map(|m| m.saturating_sub(self.slack))
    }

    /// The release floor: the slack watermark raised to the emitted
    /// high-water mark. Anything at or below the emitted floor is already
    /// safe to emit — it can only tie the downstream ordering floor — so a
    /// clamped tuple (ts == emitted high-water) never waits for `max_seen`
    /// to advance `slack` past it.
    fn release_floor(&self) -> Option<Timestamp> {
        match (self.watermark(), self.emitted_high_water) {
            (Some(w), Some(h)) => Some(w.max(h)),
            (w, h) => w.or(h),
        }
    }

    /// Releases every buffered tuple at or below the watermark, in order.
    fn release(&mut self, ctx: &OpContext<'_>, up_to: Timestamp) -> Result<usize> {
        let mut produced = 0;
        while self.heap.peek().is_some_and(|Reverse(p)| p.ts <= up_to) {
            let Reverse(p) = self.heap.pop().expect("peeked");
            self.emitted_high_water = Some(
                self.emitted_high_water
                    .map_or(p.tuple.ts, |h| h.max(p.tuple.ts)),
            );
            ctx.output_mut(0).push(p.tuple)?;
            produced += 1;
        }
        Ok(produced)
    }
}

impl Operator for Reorder {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn accepts_disorder(&self) -> bool {
        true
    }

    /// Tuples below the release floor in the slack heap may still be
    /// emitted at their own timestamps — the heap minimum is the hold.
    fn frontier_hold(&self) -> Option<Timestamp> {
        self.heap.peek().map(|Reverse(p)| p.ts)
    }

    fn output_schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
        if !ctx.input(0).is_empty() {
            return Poll::Ready;
        }
        // Input drained; anything already past the release floor can still go.
        if let Some(w) = self.release_floor() {
            if self.heap.peek().is_some_and(|Reverse(p)| p.ts <= w) {
                return Poll::Ready;
            }
        }
        Poll::starved_on(0)
    }

    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
        let mut consumed = 0;
        if let Some(tuple) = ctx.input_mut(0).pop() {
            consumed = 1;
            self.max_seen = Some(self.max_seen.map_or(tuple.ts, |m| m.max(tuple.ts)));
            if tuple.is_punctuation() {
                // A punctuation is authoritative: flush ≤ τ and forward it.
                // A *stale* punctuation (τ at or below the emitted floor)
                // carries no new information, but the flush must still use
                // the full release floor so buffered ties are not stranded.
                let tau = tuple.ts;
                let flush = self.emitted_high_water.map_or(tau, |h| h.max(tau));
                let mut produced = self.release(ctx, flush)?;
                if self.emitted_high_water.is_none_or(|h| tau > h) {
                    self.emitted_high_water = Some(tau);
                    ctx.output_mut(0).push(tuple)?;
                    produced += 1;
                }
                return Ok(StepOutcome {
                    consumed,
                    produced,
                    work: produced,
                });
            }
            // Too late even for the slack bound?
            if self.emitted_high_water.is_some_and(|h| tuple.ts < h) {
                self.late_tuples += 1;
                if let Some(c) = &self.late_counter {
                    c.store(self.late_tuples, Ordering::Relaxed);
                }
                match self.late_policy {
                    LatePolicy::Drop => {
                        return Ok(StepOutcome {
                            consumed,
                            produced: 0,
                            work: 0,
                        });
                    }
                    LatePolicy::Clamp => {
                        let mut t = tuple;
                        t.ts = self.emitted_high_water.expect("checked");
                        self.seq += 1;
                        self.heap.push(Reverse(Pending {
                            ts: t.ts,
                            seq: self.seq,
                            tuple: t,
                        }));
                    }
                }
            } else {
                self.seq += 1;
                self.heap.push(Reverse(Pending {
                    ts: tuple.ts,
                    seq: self.seq,
                    tuple,
                }));
            }
        }
        let produced = match self.release_floor() {
            Some(w) => self.release(ctx, w)?,
            None => 0,
        };
        Ok(StepOutcome {
            consumed,
            produced,
            work: produced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_buffer::{Buffer, OrderPolicy};
    use millstream_types::{DataType, Field, Value};
    use std::cell::RefCell;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    fn data(ts: u64, v: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
    }

    fn run(r: &mut Reorder, tuples: Vec<Tuple>) -> Vec<Tuple> {
        let input = RefCell::new(Buffer::new("in").with_order_policy(OrderPolicy::Accept));
        let output = RefCell::new(Buffer::new("out"));
        for t in tuples {
            input.borrow_mut().push(t).unwrap();
        }
        let inputs = [&input];
        let outputs = [&output];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        while r.poll(&ctx).is_ready() {
            r.step(&ctx).unwrap();
        }
        let mut got = vec![];
        while let Some(t) = output.borrow_mut().pop() {
            got.push(t);
        }
        got
    }

    #[test]
    fn restores_order_within_slack() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(10));
        let out = run(
            &mut r,
            vec![data(5, 0), data(3, 1), data(8, 2), data(6, 3), data(25, 4)],
        );
        // Watermark reaches 15 with the last tuple: 3,5,6,8 released in order.
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        assert_eq!(ts, vec![3, 5, 6, 8]);
        assert_eq!(r.buffered(), 1, "ts 25 still held");
        assert_eq!(r.late_tuples(), 0);
    }

    #[test]
    fn punctuation_flushes_and_forwards() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(100));
        let out = run(
            &mut r,
            vec![
                data(5, 0),
                data(3, 1),
                Tuple::punctuation(Timestamp::from_micros(50)),
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(out[0].is_data() && out[1].is_data());
        assert_eq!(out[0].ts.as_micros(), 3);
        assert!(out[2].is_punctuation());
        assert_eq!(out[2].ts.as_micros(), 50);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn too_late_tuple_is_dropped_by_default() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(5));
        let out = run(
            &mut r,
            vec![data(10, 0), data(20, 1), data(2, 2), data(40, 3)],
        );
        // Watermark hit 15 after ts 20 → ts 10 released; ts 2 arrives with
        // emitted high-water 10 → too late → dropped.
        assert!(out.iter().all(|t| t.ts.as_micros() != 2));
        assert_eq!(r.late_tuples(), 1);
    }

    #[test]
    fn too_late_tuple_clamped_when_configured() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(5))
            .with_late_policy(LatePolicy::Clamp);
        let out = run(
            &mut r,
            vec![data(10, 0), data(20, 1), data(2, 2), data(40, 3)],
        );
        assert_eq!(r.late_tuples(), 1);
        // The clamped tuple survives with ts raised to the emitted floor.
        let clamped: Vec<&Tuple> = out
            .iter()
            .filter(|t| t.values().unwrap()[0] == Value::Int(2))
            .collect();
        assert_eq!(clamped.len(), 1);
        assert_eq!(clamped[0].ts.as_micros(), 10);
        // Output stays ordered.
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn output_always_ordered_on_random_disorder() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Pseudo-random but deterministic jitter.
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(50));
        let mut tuples = vec![];
        for i in 0..200u64 {
            let mut h = DefaultHasher::new();
            i.hash(&mut h);
            let jitter = h.finish() % 50;
            let ts = 10 * i + jitter;
            tuples.push(data(ts, i as i64));
        }
        let out = run(&mut r, tuples);
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "released stream must be ordered");
        assert_eq!(r.late_tuples(), 0, "jitter stays within slack");
        assert!(out.len() >= 190, "nearly everything released");
    }

    #[test]
    fn shared_late_counter_mirrors() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(5))
            .with_late_counter(counter.clone());
        run(
            &mut r,
            vec![data(10, 0), data(20, 1), data(2, 2), data(40, 3)],
        );
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert_eq!(counter.load(Ordering::Relaxed), r.late_tuples());
    }

    #[test]
    fn clamped_tuple_released_without_waiting_for_slack() {
        // Regression: a punctuation raised the emitted floor far beyond
        // max_seen − slack; a late tuple clamped to that floor used to sit
        // in the heap until max_seen advanced `slack` past it, even though
        // its (clamped) timestamp was already safe to emit.
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(100))
            .with_late_policy(LatePolicy::Clamp);
        let out = run(
            &mut r,
            vec![
                data(5, 0),
                Tuple::punctuation(Timestamp::from_micros(50)),
                data(10, 1),
            ],
        );
        assert_eq!(r.buffered(), 0, "clamped tuple must not be stranded");
        assert_eq!(r.late_tuples(), 1);
        let clamped: Vec<&Tuple> = out
            .iter()
            .filter(|t| t.is_data() && t.values().unwrap()[0] == Value::Int(1))
            .collect();
        assert_eq!(clamped.len(), 1);
        assert_eq!(clamped[0].ts.as_micros(), 50);
    }

    #[test]
    fn tie_with_emitted_floor_releases_immediately() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(100));
        let out = run(
            &mut r,
            vec![
                data(5, 0),
                Tuple::punctuation(Timestamp::from_micros(50)),
                data(50, 1),
            ],
        );
        // ts 50 equals the emitted floor: not late, and releasable at once
        // even though the slack watermark is far behind.
        assert_eq!(r.buffered(), 0);
        assert_eq!(out.len(), 3);
        assert_eq!(r.late_tuples(), 0);
    }

    #[test]
    fn stale_punctuation_is_suppressed_but_still_flushes() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(100))
            .with_late_policy(LatePolicy::Clamp);
        let out = run(
            &mut r,
            vec![
                data(5, 0),
                Tuple::punctuation(Timestamp::from_micros(50)),
                data(60, 1),
                // Stale: τ ≤ the emitted floor. Must not be re-forwarded,
                // must not disturb the heap.
                Tuple::punctuation(Timestamp::from_micros(30)),
                // Late → clamped to 50 — must still release at once.
                data(10, 2),
            ],
        );
        let punct_ts: Vec<u64> = out
            .iter()
            .filter(|t| t.is_punctuation())
            .map(|t| t.ts.as_micros())
            .collect();
        assert_eq!(punct_ts, vec![50], "stale punctuation is not re-forwarded");
        assert_eq!(r.buffered(), 1, "ts 60 still waits for slack");
        assert!(out.iter().any(|t| t.is_data() && t.ts.as_micros() == 50));
    }

    #[test]
    fn property_mix_punctuation_ties_and_late_under_both_policies() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for policy in [LatePolicy::Drop, LatePolicy::Clamp] {
            let mut r =
                Reorder::new("↻", schema(), TimeDelta::from_micros(20)).with_late_policy(policy);
            let mut tuples = vec![];
            let mut data_in = 0u64;
            for i in 0..300u64 {
                let mut h = DefaultHasher::new();
                (i, 0xC0FFEE_u64).hash(&mut h);
                let jitter = h.finish() % 40; // up to 2× slack → real late tuples
                let base = 5 * i;
                tuples.push(data(base.saturating_sub(jitter), i as i64));
                data_in += 1;
                if i % 23 == 22 {
                    // Punctuation on the undithered timeline: sometimes
                    // ahead of the emitted floor, sometimes stale, and it
                    // makes tuples behind it late — exactly the mix the
                    // release floor has to survive.
                    tuples.push(Tuple::punctuation(Timestamp::from_micros(base)));
                }
                if i % 17 == 16 {
                    // Exact tie with the previous tuple's timestamp.
                    let prev = tuples.last().unwrap().ts;
                    tuples.push(Tuple::data(prev, vec![Value::Int(-1)]));
                    data_in += 1;
                }
            }
            tuples.push(Tuple::punctuation(Timestamp::MAX));
            let out = run(&mut r, tuples);

            // The output buffer (Reject policy) already enforces order;
            // assert it explicitly anyway.
            let ts: Vec<u64> = out.iter().map(|t| t.ts.as_micros()).collect();
            let mut sorted = ts.clone();
            sorted.sort();
            assert_eq!(ts, sorted, "released stream must be ordered");
            assert_eq!(r.buffered(), 0, "final punctuation flushes everything");

            let data_out = out.iter().filter(|t| t.is_data()).count() as u64;
            match policy {
                LatePolicy::Clamp => {
                    assert_eq!(data_out, data_in, "clamping never loses data");
                }
                LatePolicy::Drop => {
                    assert_eq!(
                        data_out,
                        data_in - r.late_tuples(),
                        "drops account for every missing tuple"
                    );
                    assert!(r.late_tuples() > 0, "workload must exercise lateness");
                }
            }
        }
    }

    #[test]
    fn simultaneous_arrivals_release_fifo() {
        let mut r = Reorder::new("↻", schema(), TimeDelta::from_micros(1));
        let out = run(
            &mut r,
            vec![data(5, 1), data(5, 2), data(5, 3), data(100, 9)],
        );
        let vs: Vec<i64> = out
            .iter()
            .take(3)
            .map(|t| t.values().unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(vs, vec![1, 2, 3], "ties release in arrival order");
    }
}
