//! Model test for the graph-wide occupancy counters.
//!
//! Three buffers with different order and punctuation policies share one
//! [`OccupancyTracker`]. Seeded sequences of `push`, `push_batch`, `pop`,
//! `drain_front`, `discard_front` and `clear` run against them, and after
//! every operation each tracker counter is checked against a naive recount:
//! occupancy from the queued tuples themselves, the peak as the running
//! maximum of that recount, and the lifetime counters from a shadow copy of
//! each buffer that has no tracker and takes every tuple through `push`.

use std::sync::Arc;

use millstream_buffer::{Buffer, OccupancyTracker, OrderPolicy, PunctuationPolicy};
use millstream_types::{Timestamp, Tuple, Value};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One buffer under test, its tracker-less shadow, and the next timestamp
/// the generator hands it.
struct Lane {
    buffer: Buffer,
    shadow: Buffer,
    next_ts: u64,
}

/// Lifetime counters recounted from the shadows, one tuple at a time.
#[derive(Default)]
struct Recount {
    peak: usize,
    punct_enqueued: u64,
    coalesced: u64,
}

fn lane(
    name: &str,
    order: OrderPolicy,
    punct: PunctuationPolicy,
    t: &Arc<OccupancyTracker>,
) -> Lane {
    let make = |b: Buffer| b.with_order_policy(order).with_punctuation_policy(punct);
    Lane {
        buffer: make(Buffer::new(name)).with_tracker(Arc::clone(t)),
        shadow: make(Buffer::new(name)),
        next_ts: 1,
    }
}

/// A tuple at about the lane's clock: mostly ascending, sometimes
/// regressed (exercising each order policy), a third of them punctuation.
fn tuple(rng: &mut Rng, lane: &mut Lane) -> Tuple {
    let ts = if rng.below(8) == 0 {
        lane.next_ts.saturating_sub(1 + rng.below(5))
    } else {
        lane.next_ts += rng.below(3);
        lane.next_ts
    };
    let ts = Timestamp::from_micros(ts);
    if rng.below(3) == 0 {
        Tuple::punctuation(ts)
    } else {
        Tuple::data(ts, vec![Value::Int(ts.as_micros() as i64)])
    }
}

/// Pushes `tuples` onto the shadow one at a time, stopping at the first
/// error exactly as `push_batch` does, and recounts what each push did.
fn shadow_push(shadow: &mut Buffer, tuples: &[Tuple], recount: &mut Recount) {
    for t in tuples {
        let (pushed, dropped) = (shadow.pushed(), shadow.dropped());
        if shadow.push(t.clone()).is_err() {
            return;
        }
        if t.is_punctuation() {
            if shadow.pushed() > pushed {
                recount.punct_enqueued += 1;
            } else if shadow.dropped() == dropped {
                recount.coalesced += 1;
            }
        }
    }
}

fn check(tracker: &OccupancyTracker, lanes: &[Lane], recount: &mut Recount, at: &str) {
    let mut total = 0;
    let mut data = 0;
    let mut enqueued = 0;
    for l in lanes {
        let queued: Vec<&Tuple> = l.buffer.iter().collect();
        let shadow: Vec<&Tuple> = l.shadow.iter().collect();
        assert_eq!(queued, shadow, "{at}: buffer and shadow diverged");
        total += queued.len();
        data += queued.iter().filter(|t| t.is_data()).count();
        enqueued += l.shadow.pushed();
    }
    recount.peak = recount.peak.max(total);
    assert_eq!(tracker.total(), total, "{at}: total");
    assert_eq!(tracker.data_total(), data, "{at}: data_total");
    assert_eq!(
        tracker.punctuation_total(),
        total - data,
        "{at}: punctuation_total"
    );
    assert_eq!(tracker.peak(), recount.peak, "{at}: peak");
    assert_eq!(tracker.enqueued(), enqueued, "{at}: enqueued");
    assert_eq!(
        tracker.punctuation_enqueued(),
        recount.punct_enqueued,
        "{at}: punctuation_enqueued"
    );
    assert_eq!(tracker.coalesced(), recount.coalesced, "{at}: coalesced");
}

fn run(seed: u64, ops: usize) {
    let tracker = OccupancyTracker::shared();
    let mut lanes = [
        lane(
            "reject",
            OrderPolicy::Reject,
            PunctuationPolicy::KeepAll,
            &tracker,
        ),
        lane(
            "clamp",
            OrderPolicy::Clamp,
            PunctuationPolicy::Coalesce,
            &tracker,
        ),
        lane(
            "drop",
            OrderPolicy::Drop,
            PunctuationPolicy::Coalesce,
            &tracker,
        ),
    ];
    let mut rng = Rng(seed);
    let mut recount = Recount::default();
    for i in 0..ops {
        let lane = &mut lanes[rng.below(3) as usize];
        let op = rng.below(20);
        match op {
            0..=5 => {
                let t = tuple(&mut rng, lane);
                shadow_push(&mut lane.shadow, std::slice::from_ref(&t), &mut recount);
                let _ = lane.buffer.push(t);
            }
            6..=10 => {
                let n = rng.below(9) as usize;
                let batch: Vec<Tuple> = (0..n).map(|_| tuple(&mut rng, lane)).collect();
                shadow_push(&mut lane.shadow, &batch, &mut recount);
                let _ = lane.buffer.push_batch(batch);
            }
            11..=13 => {
                lane.shadow.pop();
                lane.buffer.pop();
            }
            14..=16 => {
                let n = rng.below(7) as usize;
                for _ in 0..n {
                    lane.shadow.pop();
                }
                let block = lane.buffer.drain_front(n);
                lane.buffer.recycle(block);
            }
            17..=18 => {
                let n = rng.below(7) as usize;
                for _ in 0..n {
                    lane.shadow.pop();
                }
                lane.buffer.discard_front(n);
            }
            _ => {
                while lane.shadow.pop().is_some() {}
                lane.buffer.clear();
            }
        }
        check(
            &tracker,
            &lanes,
            &mut recount,
            &format!("seed {seed} op {i} ({op})"),
        );
    }
}

#[test]
fn tracker_matches_a_naive_recount_after_every_operation() {
    for seed in 0..32 {
        run(seed, 2_000);
    }
}
