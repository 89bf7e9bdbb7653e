//! Seeded input schedules and the independent reference computations every
//! workload's output is checked against.
//!
//! The same `--seed` always yields the same inputs; the system under test
//! sees only the generated tuples. References share no code with the engine:
//! the union reference is a plain k-way timestamp merge with a Rust closure
//! for the selection, the join reference a brute per-key hash join with
//! deque windows. Both fold what they expect into an order-sensitive
//! rolling checksum that the sink side computes over what it actually got.

use std::collections::{HashMap, VecDeque};

/// SplitMix64 — tiny, seedable, and owned by the benchmark so a change to
/// the repository's vendored `rand` shim cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential inter-arrival gap (seconds) of a Poisson process.
    pub fn exp_gap(&mut self, rate_hz: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate_hz
    }
}

/// Order-sensitive rolling checksum over a sequence of result rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    pub rows: u64,
    pub hash: u64,
}

impl Checksum {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.hash = (self.hash.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    /// Folds one result row: its timestamp and its integer columns.
    #[inline]
    pub fn fold(&mut self, ts: u64, cols: impl IntoIterator<Item = i64>) {
        self.rows += 1;
        self.mix(ts);
        for c in cols {
            self.mix(c as u64);
        }
    }
}

/// The selection both union branches apply (`WHERE v < 950`).
pub const UNION_PASS_BELOW: i64 = 950;

/// One input row of a union workload: `(ts, id, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct URow {
    pub ts: u64,
    pub id: i64,
    pub v: i64,
}

/// Reference for σ→∪←σ: a k-way merge by timestamp of the per-stream input
/// sequences, keeping rows that pass the selection.
#[derive(Debug, Default)]
pub struct UnionReference {
    queues: Vec<VecDeque<URow>>,
    pub expected: Checksum,
}

impl UnionReference {
    pub fn new(streams: usize) -> Self {
        UnionReference {
            queues: vec![VecDeque::new(); streams],
            expected: Checksum::default(),
        }
    }

    /// Appends a row to one stream (per-stream timestamps ascend).
    pub fn push(&mut self, stream: usize, row: URow) {
        debug_assert!(self.queues[stream].back().is_none_or(|b| b.ts < row.ts));
        self.queues[stream].push_back(row);
    }

    /// Merges out every queued row with `ts <= bound`. The caller passes a
    /// bound below which every stream's input is complete.
    pub fn drain_upto(&mut self, bound: u64) {
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, q) in self.queues.iter().enumerate() {
                if let Some(head) = q.front() {
                    if head.ts <= bound && best.is_none_or(|(_, ts)| head.ts < ts) {
                        best = Some((i, head.ts));
                    }
                }
            }
            let Some((i, _)) = best else { return };
            let row = self.queues[i].pop_front().expect("head seen");
            if row.v < UNION_PASS_BELOW {
                self.expected.fold(row.ts, [row.id, row.v]);
            }
        }
    }
}

/// What the open-loop generator sends at one due instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyKind {
    Fast,
    Slow,
    /// Heartbeat on `slow` (no payload).
    SlowHeartbeat,
}

/// One event of the open-loop schedule. `ts` is both the tuple's stream
/// timestamp and its due offset in microseconds since the run's zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyEvent {
    pub ts: u64,
    pub kind: SteadyKind,
    pub id: i64,
    pub v: i64,
}

/// Open-loop schedule for `wire_union_steady`: Poisson `fast_hz` on `fast`,
/// Poisson `slow_hz` plus a heartbeat every `hb_period_us` on `slow`, for
/// `duration_us`. Sorted by `ts`. `fast` timestamps are even and `slow`
/// ones odd, so no two data rows tie and the merge order is unique; each
/// stream's timestamps strictly increase (the wire protocol's resume
/// contract).
pub fn steady_schedule(
    seed: u64,
    duration_us: u64,
    fast_hz: f64,
    slow_hz: f64,
    hb_period_us: u64,
) -> Vec<SteadyEvent> {
    let mut events = Vec::new();
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    let mut last = 0u64;
    let mut id = 0i64;
    loop {
        t += rng.exp_gap(fast_hz);
        let due = (t * 1e6) as u64;
        if due >= duration_us {
            break;
        }
        let ts = ((due + 2) & !1).max(last + 2);
        last = ts;
        events.push(SteadyEvent {
            ts,
            kind: SteadyKind::Fast,
            id,
            v: rng.below(1000) as i64,
        });
        id += 1;
    }
    // The slow port carries data and heartbeats in one strictly increasing
    // odd-timestamp sequence, so a heartbeat never contradicts later data.
    let mut rng = Rng::new(seed ^ 0x5107);
    let mut slow_due = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exp_gap(slow_hz);
        let due = (t * 1e6) as u64;
        if due >= duration_us {
            break;
        }
        slow_due.push((due, Some(rng.below(1000) as i64)));
    }
    let mut hb = hb_period_us;
    while hb < duration_us {
        slow_due.push((hb, None));
        hb += hb_period_us;
    }
    slow_due.sort_by_key(|&(due, v)| (due, v.is_none()));
    let mut last = 1u64;
    let mut id = 0i64;
    for (due, v) in slow_due {
        let ts = (due | 1).max(last + 2);
        last = ts;
        match v {
            Some(v) => {
                events.push(SteadyEvent {
                    ts,
                    kind: SteadyKind::Slow,
                    id,
                    v,
                });
                id += 1;
            }
            None => events.push(SteadyEvent {
                ts,
                kind: SteadyKind::SlowHeartbeat,
                id: 0,
                v: 0,
            }),
        }
    }
    events.sort_by_key(|e| e.ts);
    events
}

/// Expected output of a steady schedule sent with `ts_offset` added to
/// every timestamp, via the k-way merge reference.
pub fn steady_reference(events: &[SteadyEvent], ts_offset: u64) -> Checksum {
    let mut reference = UnionReference::new(2);
    for e in events {
        let row = URow {
            ts: e.ts + ts_offset,
            id: e.id,
            v: e.v,
        };
        match e.kind {
            SteadyKind::Fast => reference.push(0, row),
            SteadyKind::Slow => reference.push(1, row),
            SteadyKind::SlowHeartbeat => {}
        }
    }
    reference.drain_upto(u64::MAX);
    reference.expected
}

/// Zipf(s) sampler over keys `0..n` by inverse CDF on a cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> i64 {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as i64
    }
}

/// Reference for `l JOIN r ON l.k = r.k WINDOW w`: a brute symmetric hash
/// join. Rows arrive in global timestamp order; each probes the other
/// side's rows of its key that are at most `window` older (inclusive),
/// oldest first, then joins its own side's window. Result rows are
/// `(probe ts | l.k, l.id, r.k, r.id)`.
#[derive(Debug)]
pub struct JoinReference {
    window: u64,
    sides: [HashMap<i64, VecDeque<(u64, i64)>>; 2],
    last_sweep: u64,
    pub expected: Checksum,
}

impl JoinReference {
    pub fn new(window_us: u64) -> Self {
        JoinReference {
            window: window_us,
            sides: [HashMap::new(), HashMap::new()],
            last_sweep: 0,
            expected: Checksum::default(),
        }
    }

    /// Feeds one input row (`side` 0 = `l`, 1 = `r`).
    pub fn push(&mut self, side: usize, ts: u64, key: i64, id: i64) {
        let floor = ts.saturating_sub(self.window);
        if let Some(stored) = self.sides[1 - side].get_mut(&key) {
            while stored.front().is_some_and(|&(t, _)| t < floor) {
                stored.pop_front();
            }
            for &(_, other_id) in stored.iter() {
                let (l_id, r_id) = if side == 0 {
                    (id, other_id)
                } else {
                    (other_id, id)
                };
                self.expected.fold(ts, [key, l_id, key, r_id]);
            }
        }
        self.sides[side].entry(key).or_default().push_back((ts, id));
        // Keys never probed again would otherwise pin their rows forever.
        if floor > self.last_sweep + self.window {
            self.last_sweep = floor;
            for side in &mut self.sides {
                side.retain(|_, rows| {
                    while rows.front().is_some_and(|&(t, _)| t < floor) {
                        rows.pop_front();
                    }
                    !rows.is_empty()
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.next_f64()));
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn steady_schedule_is_deterministic_ordered_and_disjoint() {
        let a = steady_schedule(3, 20_000, 50_000.0, 500.0, 1_000);
        let b = steady_schedule(3, 20_000, 50_000.0, 500.0, 1_000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, steady_schedule(4, 20_000, 50_000.0, 500.0, 1_000));
        // ~1 000 fast tuples in 20 ms at 50 k/s, 19 heartbeats.
        let fast = a.iter().filter(|e| e.kind == SteadyKind::Fast).count();
        assert!((800..1200).contains(&fast), "fast count {fast}");
        let hbs = a
            .iter()
            .filter(|e| e.kind == SteadyKind::SlowHeartbeat)
            .count();
        assert_eq!(hbs, 19);
        assert!(a.windows(2).all(|w| w[0].ts < w[1].ts), "globally unique");
        for e in &a {
            match e.kind {
                SteadyKind::Fast => assert_eq!(e.ts % 2, 0),
                _ => assert_eq!(e.ts % 2, 1),
            }
        }
    }

    /// 1 k-tuple self-test of the union reference against a sort-based
    /// oracle written a different way.
    #[test]
    fn union_reference_matches_sort_oracle() {
        let events = steady_schedule(11, 20_000, 50_000.0, 2_000.0, 500);
        assert!(events.len() > 1000);
        let mut rows: Vec<(u64, i64, i64)> = events
            .iter()
            .filter(|e| e.kind != SteadyKind::SlowHeartbeat && e.v < UNION_PASS_BELOW)
            .map(|e| (e.ts, e.id, e.v))
            .collect();
        rows.sort();
        let mut want = Checksum::default();
        for (ts, id, v) in rows {
            want.fold(ts, [id, v]);
        }
        assert_eq!(steady_reference(&events, 0), want);
        assert!(want.rows > 900);
    }

    #[test]
    fn union_reference_respects_the_drain_bound() {
        let mut r = UnionReference::new(2);
        r.push(0, URow { ts: 2, id: 0, v: 1 });
        r.push(
            0,
            URow {
                ts: 8,
                id: 1,
                v: 999,
            },
        ); // filtered out
        r.push(1, URow { ts: 5, id: 0, v: 2 });
        r.push(
            0,
            URow {
                ts: 12,
                id: 2,
                v: 3,
            },
        );
        r.drain_upto(9);
        assert_eq!(r.expected.rows, 2);
        r.drain_upto(u64::MAX);
        assert_eq!(r.expected.rows, 3);
        let mut want = Checksum::default();
        want.fold(2, [0, 1]);
        want.fold(5, [0, 2]);
        want.fold(12, [2, 3]);
        assert_eq!(r.expected, want);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = Checksum::default();
        a.fold(1, [1]);
        a.fold(2, [2]);
        let mut b = Checksum::default();
        b.fold(2, [2]);
        b.fold(1, [1]);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.hash, b.hash);
    }

    /// 1 k-tuple self-test of the join reference against an O(n²) nested
    /// loop over the same schedule.
    #[test]
    fn join_reference_matches_nested_loop() {
        let mut rng = Rng::new(5);
        let zipf = Zipf::new(40, 0.5);
        let window = 300u64;
        let rows: Vec<(usize, u64, i64, i64)> = (0..1000u64)
            .map(|i| {
                (
                    (i % 2) as usize,
                    i + 1,
                    zipf.sample(&mut rng),
                    (i / 2) as i64,
                )
            })
            .collect();
        let mut reference = JoinReference::new(window);
        for &(side, ts, k, id) in &rows {
            reference.push(side, ts, k, id);
        }
        let mut want = Checksum::default();
        for (n, &(side, ts, k, id)) in rows.iter().enumerate() {
            for &(s2, ts2, k2, id2) in &rows[..n] {
                if s2 != side && k2 == k && ts2 + window >= ts {
                    let (l, r) = if side == 0 { (id, id2) } else { (id2, id) };
                    want.fold(ts, [k, l, k, r]);
                }
            }
        }
        assert!(want.rows > 1000, "enough matches to mean something");
        assert_eq!(reference.expected, want);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.5);
        let mut rng = Rng::new(9);
        let mut head = 0;
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!((0..1000).contains(&k));
            if k < 10 {
                head += 1;
            }
        }
        // Uniform would put 1 % in the first ten keys; Zipf(0.5) ≈ 8 %.
        assert!(head > 1000, "head share {head}");
    }
}
