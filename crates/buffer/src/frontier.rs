//! Per-worker frontier summaries for intra-component data parallelism.
//!
//! When one connected component is sharded across N workers, the paper's
//! per-source ETS/TSM registers are no longer enough: each worker sees
//! only its key-partition of every source stream, so a TSM register
//! filled from local data alone under-reports global progress and an IWP
//! operator would idle-wait forever on tuples that were routed elsewhere.
//! The [`FrontierTable`] generalizes the registers into compact,
//! lock-free **frontier summaries** shared by the router, the shard
//! workers and the merge stage (the "timestamp tokens" coordination model
//! of Lattuada & McSherry, specialized to millstream's ordered streams):
//!
//! * the **router** publishes, per source, the routed data high-water
//!   mark ([`FrontierTable::note_routed`], ordered sources only — a
//!   routed tuple at `t` proves every future tuple of that source is
//!   `≥ t` *on every shard*) and the broadcast punctuation high-water
//!   mark ([`FrontierTable::note_punct`], valid even for unordered
//!   sources because a heartbeat is the producer's global promise);
//! * each **shard worker** publishes, per `(source, shard)`, the frontier
//!   it has applied to its local source ([`FrontierTable::publish_applied`])
//!   and one per-shard **output floor** ([`FrontierTable::publish_floor`]):
//!   a lower bound on the timestamp of anything the shard may still emit;
//! * the **merge stage** (an ordinary IWP union over the shard outputs)
//!   unblocks when the *minimum floor across shards* passes its stall
//!   point — the exact analogue of the paper's relaxed `more` condition,
//!   with the frontier advance generated on demand, only when the merge
//!   operator actually starves.
//!
//! Timestamps are stored in `AtomicU64` slots encoded as `micros + 1`
//! (saturating), with `0` meaning *unset* — a summary must never be
//! mistaken for an assertion at time zero. All updates are `fetch_max`,
//! so every published value is monotone by construction; regressions are
//! rejected at the slot and surface through the sentinel layer's
//! frontier-consistency check instead of corrupting the table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use millstream_types::Timestamp;

/// Encodes a timestamp into a slot value (`0` stays reserved for unset).
fn encode(ts: Timestamp) -> u64 {
    ts.as_micros().saturating_add(1)
}

/// Decodes a slot value back into a timestamp (`None` when unset).
fn decode(raw: u64) -> Option<Timestamp> {
    if raw == 0 {
        None
    } else {
        Some(Timestamp::from_micros(raw - 1))
    }
}

/// Lock-free frontier summaries for one sharded component.
///
/// Indexed by the component's local source ids (`0..num_sources`) and
/// shard ids (`0..num_shards`). See the module docs for who writes what.
#[derive(Debug)]
pub struct FrontierTable {
    num_sources: usize,
    num_shards: usize,
    /// Per source: routed data high-water (router; ordered sources only).
    routed: Vec<AtomicU64>,
    /// Per source: broadcast punctuation high-water (router).
    punct: Vec<AtomicU64>,
    /// Per `(source, shard)` (source-major): the frontier the shard worker
    /// has applied to its local copy of the source.
    applied: Vec<AtomicU64>,
    /// Per shard: the published output floor.
    floors: Vec<AtomicU64>,
}

impl FrontierTable {
    /// A fresh table for `num_sources` sources sharded `num_shards` ways.
    pub fn new(num_sources: usize, num_shards: usize) -> Self {
        let fill = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        FrontierTable {
            num_sources,
            num_shards,
            routed: fill(num_sources),
            punct: fill(num_sources),
            applied: fill(num_sources * num_shards),
            floors: fill(num_shards),
        }
    }

    /// A shareable handle (router, workers and merge all hold one).
    pub fn shared(num_sources: usize, num_shards: usize) -> Arc<Self> {
        Arc::new(Self::new(num_sources, num_shards))
    }

    /// Number of sources tracked.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn raise(slot: &AtomicU64, ts: Timestamp) {
        slot.fetch_max(encode(ts), Ordering::Release);
    }

    /// Router: a data tuple of `source` at `ts` was routed to some shard.
    /// Only meaningful for ordered sources (an unordered stream's data
    /// high-water bounds nothing).
    pub fn note_routed(&self, source: usize, ts: Timestamp) {
        Self::raise(&self.routed[source], ts);
    }

    /// Router: punctuation at `ts` was broadcast for `source` — a global
    /// promise, valid on every shard regardless of source ordering.
    pub fn note_punct(&self, source: usize, ts: Timestamp) {
        Self::raise(&self.punct[source], ts);
    }

    /// Shard worker: `shard` has applied frontier `ts` for `source`.
    pub fn publish_applied(&self, source: usize, shard: usize, ts: Timestamp) {
        Self::raise(&self.applied[source * self.num_shards + shard], ts);
    }

    /// Shard worker: `shard` promises every future emission is `≥ ts`.
    pub fn publish_floor(&self, shard: usize, ts: Timestamp) {
        Self::raise(&self.floors[shard], ts);
    }

    /// The bound on future data of `source` arriving at *any* shard:
    /// `max(routed, punct)` for ordered sources, punctuation only for
    /// unordered ones (late data may still regress below the routed mark).
    pub fn source_frontier(&self, source: usize, ordered: bool) -> Option<Timestamp> {
        let punct = decode(self.punct[source].load(Ordering::Acquire));
        if !ordered {
            return punct;
        }
        let routed = decode(self.routed[source].load(Ordering::Acquire));
        match (routed, punct) {
            (Some(r), Some(p)) => Some(r.max(p)),
            (r, p) => r.or(p),
        }
    }

    /// The frontier `shard` has applied for `source`.
    pub fn applied(&self, source: usize, shard: usize) -> Option<Timestamp> {
        decode(self.applied[source * self.num_shards + shard].load(Ordering::Acquire))
    }

    /// The minimum applied frontier for `source` across every shard —
    /// `None` while any shard has not published yet. This is the value an
    /// IWP operator's stall point is compared against.
    pub fn min_applied(&self, source: usize) -> Option<Timestamp> {
        let mut min: Option<Timestamp> = None;
        for shard in 0..self.num_shards {
            match self.applied(source, shard) {
                None => return None,
                Some(ts) => min = Some(min.map_or(ts, |m| m.min(ts))),
            }
        }
        min
    }

    /// The output floor `shard` last published.
    pub fn floor(&self, shard: usize) -> Option<Timestamp> {
        decode(self.floors[shard].load(Ordering::Acquire))
    }

    /// The minimum published floor across every shard — `None` while any
    /// shard has not published yet.
    pub fn min_floor(&self) -> Option<Timestamp> {
        let mut min: Option<Timestamp> = None;
        for shard in 0..self.num_shards {
            match self.floor(shard) {
                None => return None,
                Some(ts) => min = Some(min.map_or(ts, |m| m.min(ts))),
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(micros: u64) -> Timestamp {
        Timestamp::from_micros(micros)
    }

    #[test]
    fn unset_slots_read_as_none() {
        let t = FrontierTable::new(2, 3);
        assert_eq!(t.num_sources(), 2);
        assert_eq!(t.num_shards(), 3);
        assert_eq!(t.source_frontier(0, true), None);
        assert_eq!(t.source_frontier(1, false), None);
        assert_eq!(t.applied(0, 2), None);
        assert_eq!(t.min_applied(0), None);
        assert_eq!(t.floor(1), None);
        assert_eq!(t.min_floor(), None);
    }

    #[test]
    fn time_zero_is_distinguishable_from_unset() {
        let t = FrontierTable::new(1, 1);
        t.note_routed(0, Timestamp::ZERO);
        assert_eq!(t.source_frontier(0, true), Some(Timestamp::ZERO));
        t.publish_floor(0, Timestamp::ZERO);
        assert_eq!(t.min_floor(), Some(Timestamp::ZERO));
    }

    #[test]
    fn source_frontier_combines_routed_and_punct_for_ordered() {
        let t = FrontierTable::new(1, 2);
        t.note_routed(0, ts(10));
        assert_eq!(t.source_frontier(0, true), Some(ts(10)));
        t.note_punct(0, ts(25));
        assert_eq!(t.source_frontier(0, true), Some(ts(25)));
        // Unordered sources only trust the broadcast punctuation.
        assert_eq!(t.source_frontier(0, false), Some(ts(25)));
        t.note_routed(0, ts(40));
        assert_eq!(t.source_frontier(0, true), Some(ts(40)));
        assert_eq!(t.source_frontier(0, false), Some(ts(25)));
    }

    #[test]
    fn updates_are_monotone() {
        let t = FrontierTable::new(1, 1);
        t.note_routed(0, ts(50));
        t.note_routed(0, ts(20));
        assert_eq!(t.source_frontier(0, true), Some(ts(50)));
        t.publish_floor(0, ts(9));
        t.publish_floor(0, ts(3));
        assert_eq!(t.floor(0), Some(ts(9)));
        t.publish_applied(0, 0, ts(7));
        t.publish_applied(0, 0, ts(2));
        assert_eq!(t.applied(0, 0), Some(ts(7)));
    }

    #[test]
    fn minima_require_every_shard() {
        let t = FrontierTable::new(1, 3);
        t.publish_floor(0, ts(10));
        t.publish_floor(2, ts(4));
        assert_eq!(t.min_floor(), None, "shard 1 has not published");
        t.publish_floor(1, ts(7));
        assert_eq!(t.min_floor(), Some(ts(4)));

        t.publish_applied(0, 0, ts(10));
        t.publish_applied(0, 1, ts(30));
        assert_eq!(t.min_applied(0), None);
        t.publish_applied(0, 2, ts(20));
        assert_eq!(t.min_applied(0), Some(ts(10)));
    }

    #[test]
    fn timestamp_max_saturates() {
        let t = FrontierTable::new(1, 1);
        t.note_punct(0, Timestamp::MAX);
        let f = t.source_frontier(0, false).unwrap();
        assert_eq!(f.as_micros(), u64::MAX - 1, "encode saturates below MAX");
    }

    #[test]
    fn table_is_shareable_across_threads() {
        let t = FrontierTable::shared(1, 4);
        let mut handles = Vec::new();
        for shard in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    t.publish_floor(shard, ts(i));
                    t.publish_applied(0, shard, ts(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.min_floor(), Some(ts(99)));
        assert_eq!(t.min_applied(0), Some(ts(99)));
    }
}
