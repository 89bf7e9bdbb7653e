//! Shared join-state layer: key-partitioned hash indexes with
//! punctuation-driven purge and a tiered cold store.
//!
//! [`crate::MultiWindowJoin`] keeps one [`JoinState`] per input. Two
//! storage modes:
//!
//! * **Keyed** — an equi-key column partitions the window into hash
//!   buckets (`key value → Vec<Tuple>` in timestamp order). A probe
//!   touches exactly one bucket, so probe cost is proportional to the
//!   number of *matching* tuples, not the window length. Bucket equality
//!   uses [`Value`]'s `Eq`, which is exactly the engine's SQL `=` on
//!   non-null operands (`Int(1) == Float(1.0)`, hash-consistent), and a
//!   null probe key returns no candidates — SQL three-valued logic.
//! * **Scan** — no key: one contiguous store in timestamp order, probed
//!   as a whole (the pre-existing cross-within-window behaviour).
//!
//! Expiry contract: the *logical* window floor (`max seen τ − window`)
//! advances on every probe and every punctuation, and no probe ever
//! returns a tuple below it — correctness does not depend on physical
//! reclamation. Physical purge is amortized: scan stores trim eagerly
//! (cheap pointer bump + periodic compaction), while keyed stores sweep
//! their buckets only when the floor has advanced by at least half a
//! window since the last sweep — or immediately on punctuation
//! ([`JoinState::purge`]), which drops wholly-expired buckets in O(1)
//! per bucket. Retained state is therefore bounded by ~1.5× the window
//! between punctuations and snaps back to the exact window at each one.
//!
//! # Tiered storage ([`TierConfig`])
//!
//! Long windows (minutes–hours) exhaust memory long before CPU if every
//! live tuple stays in row format. With a tier config, each sweep moves
//! rows that have aged past `hot_fraction` of the window out of the hot
//! row buckets into an immutable columnar **run**: values column-major,
//! timestamps as a sorted `Vec<Timestamp>` so the logical floor stays a
//! `partition_point`, and (keyed mode) a key → row-range index. Once the
//! resident run payload exceeds `budget` bytes, the oldest runs spill to
//! the state's append-only temp file ([`crate::spill::SpillFile`]); only
//! the timestamp column and the key index stay resident, so punctuation
//! retires a spilled run by dropping its entry — an unlink, never a scan
//! ("Timestamp tokens"' frontier-addressing requirement). Successive
//! runs cover disjoint ascending timestamp ranges (inserts and floor
//! advances are globally τ-ordered), so a probe that chains runs oldest
//! first and the hot bucket last reproduces exactly the candidate order
//! of an untiered state — tiering is invisible in the output.

use std::collections::{HashMap, VecDeque};

use millstream_types::{Error, Result, Row, TimeDelta, Timestamp, Tuple, Value};

use crate::spill::{ts_bytes, value_bytes, SpillFile};

/// Compact the scan store once this many expired tuples pile up in front.
const SCAN_COMPACT_MIN: usize = 32;

/// In keyed mode, drop empty buckets once they outnumber live ones by
/// this factor (plus a small constant floor so steady-state key churn
/// never triggers reallocation).
const EMPTY_BUCKET_SLACK: usize = 2;
const EMPTY_BUCKET_MIN: usize = 16;

/// Coalesce the logical-live histogram once it holds this many distinct
/// timestamps (merging adjacent entries halves it; the estimate stays
/// conservative — merged counts expire at the later timestamp).
const HIST_MAX: usize = 1024;

/// Tiered-store configuration: when present, sweeps compact cold rows
/// into columnar runs and runs beyond the byte budget spill to disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Resident byte budget for compacted run payloads. Once exceeded,
    /// the oldest runs spill to the state's temp file; `u64::MAX`
    /// compacts to columnar but never touches disk.
    pub budget: u64,
    /// Fraction of the window a row stays in the hot row tier after
    /// arrival before a sweep may compact it (`0.0 ..= 1.0`; `1.0`
    /// disables compaction entirely).
    pub hot_fraction: f64,
    /// Minimum cold rows a sweep must find before materializing a run —
    /// amortizes per-run metadata over enough rows to be worth it.
    pub min_run_rows: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            budget: u64::MAX,
            hot_fraction: 0.5,
            min_run_rows: 32,
        }
    }
}

impl TierConfig {
    /// Compaction on, spill off — the `∞` budget.
    pub fn unbounded() -> Self {
        TierConfig::default()
    }

    /// Compaction on with a resident-run byte budget.
    pub fn with_budget(budget: u64) -> Self {
        TierConfig {
            budget,
            ..TierConfig::default()
        }
    }

    /// Reads the process-wide default from `MILLSTREAM_JOIN_SPILL` (the
    /// env form of the `--join-spill-budget` knob): unset/`off` → no
    /// tiering, `unbounded` → compact but never spill, otherwise a byte
    /// budget with optional `k`/`m`/`g` suffix.
    pub fn from_env() -> Option<TierConfig> {
        TierConfig::parse(&std::env::var("MILLSTREAM_JOIN_SPILL").ok()?)
    }

    /// Parses a `--join-spill-budget` argument. `None` = tiering off.
    pub fn parse(raw: &str) -> Option<TierConfig> {
        let s = raw.trim().to_ascii_lowercase();
        match s.as_str() {
            "" | "off" => None,
            "unbounded" | "inf" | "none" => Some(TierConfig::unbounded()),
            _ => {
                let (digits, mult) = match s.as_bytes().last() {
                    Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
                    Some(b'm') => (&s[..s.len() - 1], 1u64 << 20),
                    Some(b'g') => (&s[..s.len() - 1], 1u64 << 30),
                    _ => (s.as_str(), 1),
                };
                let n: u64 = digits.parse().ok()?;
                Some(TierConfig::with_budget(n.saturating_mul(mult)))
            }
        }
    }
}

/// Lifetime tier counters, sampled by the executor into `ExecStats` and
/// `OpProfile`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// Immutable columnar runs materialized by sweeps.
    pub compacted_runs: u64,
    /// Run payload bytes written to the disk tier.
    pub spilled_bytes: u64,
    /// Wholly-expired runs retired at a floor advance (unlinked, never
    /// scanned).
    pub run_drops: u64,
}

impl SpillStats {
    /// Accumulates another state's counters.
    pub fn merge(&mut self, other: &SpillStats) {
        self.compacted_runs += other.compacted_runs;
        self.spilled_bytes += other.spilled_bytes;
        self.run_drops += other.run_drops;
    }
}

/// Where a run's value payload lives.
enum RunValues {
    /// Column-major: column `c` of row `r` is `v[c * rows + r]`.
    Resident(Vec<Value>),
    /// A blob in the state's spill file.
    Spilled { offset: u64, len: u64 },
}

/// One immutable columnar run of cold rows.
struct Run {
    max_ts: Timestamp,
    /// Per-row timestamps in run order: keyed mode groups rows by key
    /// (ascending within each group), scan mode is globally ascending.
    /// Always resident — the floor addresses a run through this column
    /// and the run header alone, even when the payload is on disk.
    ts: Vec<Timestamp>,
    /// Keyed mode: probe key → (row start, row count). Scan mode: `None`
    /// (the whole run is one ascending range).
    index: Option<HashMap<Value, (u32, u32)>>,
    width: usize,
    /// Resident payload estimate (resident runs) / exact blob length
    /// (spilled runs).
    payload_bytes: u64,
    values: RunValues,
}

/// One input's window state for a symmetric join.
pub struct JoinState {
    /// Equi-key column index within this input's row, if any.
    key: Option<usize>,
    window: TimeDelta,
    /// Keyed mode: timestamp-ordered bucket per key value. Null-keyed
    /// tuples live under `Value::Null` but are never probed.
    buckets: HashMap<Value, Vec<Tuple>>,
    /// Scan mode: timestamp-ordered store; `scan[scan_head..]` is live.
    scan: Vec<Tuple>,
    scan_head: usize,
    /// Tuples physically retained in keyed buckets (hot tier only).
    keyed_live: usize,
    /// Buckets currently empty (retained for their capacity).
    empties: usize,
    /// Logical expiry floor: tuples with `ts < floor` never match.
    floor: Timestamp,
    /// Floor at the last physical reclamation (scan trim / bucket sweep).
    swept_floor: Timestamp,
    /// Highest timestamp observed (inserts, probes, punctuation). The
    /// cold cut anchors here rather than on the floor: the two coincide
    /// once the floor unsaturates (`floor = high − window`), but during
    /// the first window's fill the floor is pinned at zero while rows
    /// still age — compaction must not wait out the warm-up.
    high: Timestamp,
    /// `high` at the last tier compaction check, for sweep batching.
    swept_high: Timestamp,
    /// High-water of stored tuples, for peak-state accounting.
    peak: usize,
    /// Full keyed-bucket sweeps performed (lifetime) — lets tests assert
    /// that a non-advancing purge is a no-op.
    sweeps: u64,
    /// Tier config; `None` = hot rows only (the pre-tier behaviour).
    tier: Option<TierConfig>,
    /// Cold runs, oldest first; their timestamp ranges are disjoint and
    /// ascending, and every `max_ts` precedes every hot row.
    runs: VecDeque<Run>,
    /// Rows held across all runs (so `len()` reports physical retention).
    run_rows: usize,
    /// Resident payload bytes across `RunValues::Resident` runs — the
    /// quantity the spill budget bounds.
    resident_run_bytes: u64,
    /// Runs currently in `RunValues::Spilled` form.
    spilled_runs: usize,
    /// Lazily created disk tier (first spill).
    spill: Option<SpillFile>,
    /// Set after a spill I/O failure: runs stay resident from then on
    /// (graceful degradation — correctness never depends on the disk).
    spill_disabled: bool,
    stats: SpillStats,
    /// Logical-live histogram: `(ts, inserts at ts)` in arrival order.
    /// Front entries expire as the floor passes them, keeping
    /// `logical_live` an O(1)-amortized estimate that — unlike the
    /// physical `keyed_live` — never counts logically-expired tuples.
    hist: VecDeque<(Timestamp, u32)>,
    /// Tuples inserted and not yet logically expired (exact until the
    /// histogram coalesces, then a slight overestimate).
    logical_live: usize,
}

impl JoinState {
    /// A window state; `key` is the equi-key column within this input's
    /// own row (`None` = ordered scan store). No tiering.
    pub fn new(window: TimeDelta, key: Option<usize>) -> Self {
        JoinState::with_tier(window, key, None)
    }

    /// A window state with an optional tiered cold store.
    pub fn with_tier(window: TimeDelta, key: Option<usize>, tier: Option<TierConfig>) -> Self {
        JoinState {
            key,
            window,
            buckets: HashMap::new(),
            scan: Vec::new(),
            scan_head: 0,
            keyed_live: 0,
            empties: 0,
            floor: Timestamp::ZERO,
            swept_floor: Timestamp::ZERO,
            high: Timestamp::ZERO,
            swept_high: Timestamp::ZERO,
            peak: 0,
            sweeps: 0,
            tier,
            runs: VecDeque::new(),
            run_rows: 0,
            resident_run_bytes: 0,
            spilled_runs: 0,
            spill: None,
            spill_disabled: false,
            stats: SpillStats::default(),
            hist: VecDeque::new(),
            logical_live: 0,
        }
    }

    /// The equi-key column, if this state is hash-partitioned.
    pub fn key(&self) -> Option<usize> {
        self.key
    }

    /// The window length.
    pub fn window(&self) -> TimeDelta {
        self.window
    }

    /// Tuples physically retained — hot rows plus compacted run rows
    /// (physical retention may lag logical expiry by up to half a window
    /// in keyed mode between punctuations).
    pub fn len(&self) -> usize {
        let hot = if self.key.is_some() {
            self.keyed_live
        } else {
            self.scan.len() - self.scan_head
        };
        hot + self.run_rows
    }

    /// True when no tuples are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water of [`JoinState::len`] over the state's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Full keyed-bucket sweeps performed over the state's lifetime.
    pub fn sweep_count(&self) -> u64 {
        self.sweeps
    }

    /// Floor at the last physical reclamation — exposed so tests can
    /// check `advance`/`purge` bookkeeping stays consistent.
    pub fn swept_floor(&self) -> Timestamp {
        self.swept_floor
    }

    /// Lifetime tier counters (compactions, spilled bytes, run drops).
    pub fn spill_stats(&self) -> SpillStats {
        self.stats
    }

    /// Estimated resident bytes: hot rows, run metadata (timestamp
    /// column + key index — resident even for spilled runs), and
    /// resident run payloads. Spilled payloads are *not* counted — this
    /// is the quantity the spill budget bounds, sampled by the spill
    /// bench to prove peak resident state tracks `--join-spill-budget`.
    pub fn resident_bytes(&self) -> u64 {
        let mut total = self.resident_run_bytes;
        for run in &self.runs {
            total += ts_bytes(run.ts.len());
            if let Some(index) = &run.index {
                total += (index.len() * (std::mem::size_of::<Value>() + 8)) as u64;
            }
        }
        let hot_tuples = |t: &Tuple| -> u64 {
            let mut b = std::mem::size_of::<Tuple>() as u64;
            for v in t.values_expect() {
                if let Value::Str(s) = v {
                    b += s.len() as u64;
                }
            }
            if t.width() > millstream_types::INLINE_ROW_CAP {
                b += (t.width() * std::mem::size_of::<Value>()) as u64;
            }
            b
        };
        if self.key.is_some() {
            for bucket in self.buckets.values() {
                total += bucket.iter().map(&hot_tuples).sum::<u64>();
            }
        } else {
            total += self.scan[self.scan_head..]
                .iter()
                .map(&hot_tuples)
                .sum::<u64>();
        }
        total
    }

    /// Expected candidates per probe — the adaptive-order cost signal.
    /// Keyed states divide *logically live* tuples by distinct live keys
    /// (uniform bucket estimate); scan states pay the logical window.
    /// The numerator comes from the timestamp histogram, not the
    /// physical `keyed_live`: between sweeps the physical count retains
    /// logically-expired tuples, which used to let a mostly-expired
    /// input masquerade as fat and lose the probe order it should win.
    pub fn estimated_candidates(&self) -> usize {
        if self.key.is_some() {
            let run_keys: usize = self
                .runs
                .iter()
                .map(|r| r.index.as_ref().map_or(0, HashMap::len))
                .sum();
            let live_buckets = (self.buckets.len() - self.empties) + run_keys;
            self.logical_live / live_buckets.max(1)
        } else {
            self.logical_live
        }
    }

    /// Stores a tuple. Timestamps must be non-decreasing across calls
    /// (guaranteed by the join's τ = TSM-minimum processing order).
    pub fn insert(&mut self, tuple: Tuple) {
        self.high = self.high.max(tuple.ts);
        self.note_insert(tuple.ts);
        match self.key {
            Some(col) => {
                let k = tuple.values_expect()[col].clone();
                let bucket = self.buckets.entry(k).or_default();
                if bucket.is_empty() && self.empties > 0 {
                    // Reusing a drained bucket's capacity.
                    self.empties -= 1;
                }
                bucket.push(tuple);
                self.keyed_live += 1;
            }
            None => self.scan.push(tuple),
        }
        self.peak = self.peak.max(self.len());
    }

    /// Advances the logical floor for a probe at `ts` and amortizes
    /// physical reclamation (scan: eager trim; keyed: sweep only once the
    /// floor has moved at least half a window past the last sweep, or the
    /// tier's compaction hysteresis fires). Runs wholly below the floor
    /// are dropped immediately — an O(1) header check, never a scan.
    pub fn advance(&mut self, ts: Timestamp) {
        self.high = self.high.max(ts);
        let floor = ts.saturating_sub(self.window);
        let advanced = floor > self.floor;
        if advanced {
            self.floor = floor;
            self.expire_hist();
            self.drop_expired_runs();
        }
        if self.key.is_none() {
            if advanced || self.compaction_due() {
                self.trim_scan();
            }
        } else {
            let lag = self.floor.duration_since(self.swept_floor);
            if (advanced && lag.as_micros().saturating_mul(2) >= self.window.as_micros().max(1))
                || self.compaction_due()
            {
                self.sweep_buckets();
            }
        }
    }

    /// Whether enough time has passed since the last sweep for a batch of
    /// cold rows to be worth compacting. Half the hot span is the
    /// hysteresis: the hot tier holds at most ~1.5× `hot_fraction` of the
    /// window between compactions. Always false with the tier off, so the
    /// untiered sweep cadence is exactly the pre-tier one.
    fn compaction_due(&self) -> bool {
        let Some(tier) = &self.tier else { return false };
        let keep = (self.window.as_micros() as f64 * tier.hot_fraction.clamp(0.0, 1.0)) as u64;
        let since = self.high.duration_since(self.swept_high).as_micros();
        since.saturating_mul(2) >= keep.max(1)
    }

    /// Punctuation-driven purge at `ts`: advances the floor and forces a
    /// full physical reclamation at it. When the implied floor does not
    /// pass the last reclamation point the call is a no-op — repeated or
    /// non-advancing punctuation must not pay a bucket sweep.
    pub fn purge(&mut self, ts: Timestamp) {
        self.high = self.high.max(ts);
        let floor = self.floor.max(ts.saturating_sub(self.window));
        if floor <= self.swept_floor {
            return;
        }
        self.floor = floor;
        self.expire_hist();
        self.drop_expired_runs();
        if self.key.is_none() {
            self.trim_scan();
        } else {
            self.sweep_buckets();
        }
    }

    /// Candidates for a probe, oldest first: cold runs (resident then hot
    /// in *time* order — runs never interleave) rehydrated into `scratch`,
    /// chained with the hot bucket borrowed in place. The chained order is
    /// exactly an untiered state's bucket order, so callers' output is
    /// byte-identical whatever the tier does. A null probe key never
    /// matches. Callers of a keyed state must pass `Some(key)`.
    pub fn probe<'a>(
        &'a self,
        key: Option<&Value>,
        scratch: &'a mut Vec<Tuple>,
    ) -> Result<impl Iterator<Item = &'a Tuple> + 'a> {
        scratch.clear();
        self.probe_cold(key, scratch)?;
        Ok(scratch.iter().chain(self.probe_hot(key).iter()))
    }

    /// Hot-tier candidates only: the matching bucket (keyed) or the whole
    /// live store (scan), filtered to `ts ≥ floor` — a borrowed slice,
    /// no copy. The enumeration hot path stays allocation-free.
    pub fn probe_hot(&self, key: Option<&Value>) -> &[Tuple] {
        let candidates: &[Tuple] = match (self.key, key) {
            (Some(_), Some(k)) => {
                if k.is_null() {
                    return &[];
                }
                match self.buckets.get(k) {
                    Some(bucket) => bucket,
                    None => return &[],
                }
            }
            (None, _) => &self.scan[self.scan_head..],
            (Some(_), None) => {
                debug_assert!(false, "keyed state probed without a key");
                return &[];
            }
        };
        // Physical purge may lag the logical floor; skip the expired front.
        let start = candidates.partition_point(|t| t.ts < self.floor);
        &candidates[start..]
    }

    /// Rehydrates cold candidates (resident and spilled runs, oldest
    /// first, filtered by the floor) into `out`. Returns rows appended.
    pub fn probe_cold(&self, key: Option<&Value>, out: &mut Vec<Tuple>) -> Result<usize> {
        if self.runs.is_empty() {
            return Ok(0);
        }
        let before = out.len();
        match (self.key, key) {
            (Some(_), Some(k)) => {
                if k.is_null() {
                    return Ok(0);
                }
                for run in &self.runs {
                    let Some(index) = &run.index else { continue };
                    let Some(&(start, count)) = index.get(k) else {
                        continue;
                    };
                    self.thaw_range(run, start as usize, count as usize, out)?;
                }
            }
            (None, _) => {
                for run in &self.runs {
                    self.thaw_range(run, 0, run.ts.len(), out)?;
                }
            }
            (Some(_), None) => {
                debug_assert!(false, "keyed state probed without a key");
            }
        }
        Ok(out.len() - before)
    }

    /// Rehydrates run rows `[start, start + count)` — minus the expired
    /// prefix — into `out` as row-format tuples.
    fn thaw_range(
        &self,
        run: &Run,
        start: usize,
        count: usize,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        // The range is ts-ascending: the logical floor is a partition
        // point here exactly as in a hot bucket.
        let skip = run.ts[start..start + count].partition_point(|&t| t < self.floor);
        let (start, count) = (start + skip, count - skip);
        if count == 0 {
            return Ok(());
        }
        match &run.values {
            RunValues::Resident(vals) => {
                let rows = run.ts.len();
                for r in start..start + count {
                    let mut row = Row::builder(run.width);
                    for c in 0..run.width {
                        row.push(vals[c * rows + r].clone());
                    }
                    out.push(Tuple::data(run.ts[r], row.finish()));
                }
            }
            RunValues::Spilled { offset, len } => {
                let spill = self.spill.as_ref().expect("spilled run without a file");
                let mut thawed: Vec<Vec<Value>> = Vec::new();
                spill
                    .read_rows(*offset, *len, start, count, &mut thawed)
                    .map_err(|e| Error::runtime(format!("join spill read: {e}")))?;
                for (i, vals) in thawed.into_iter().enumerate() {
                    let mut row = Row::builder(run.width);
                    for v in vals {
                        row.push(v);
                    }
                    out.push(Tuple::data(run.ts[start + i], row.finish()));
                }
            }
        }
        Ok(())
    }

    /// Records an insert in the logical-live histogram.
    fn note_insert(&mut self, ts: Timestamp) {
        self.logical_live += 1;
        if let Some(back) = self.hist.back_mut() {
            if back.0 == ts {
                back.1 += 1;
                return;
            }
        }
        if self.hist.len() >= HIST_MAX {
            // Merge adjacent entries pairwise, keeping the later
            // timestamp: merged counts expire late, so the live estimate
            // errs high (never resurrects an expired-looking input).
            let mut merged = VecDeque::with_capacity(self.hist.len() / 2 + 1);
            let mut it = self.hist.drain(..);
            while let Some((ts1, c1)) = it.next() {
                match it.next() {
                    Some((ts2, c2)) => merged.push_back((ts2, c1 + c2)),
                    None => merged.push_back((ts1, c1)),
                }
            }
            drop(it);
            self.hist = merged;
        }
        self.hist.push_back((ts, 1));
    }

    /// Expires histogram entries below the floor.
    fn expire_hist(&mut self) {
        while let Some(&(ts, count)) = self.hist.front() {
            if ts >= self.floor {
                break;
            }
            self.logical_live -= count as usize;
            self.hist.pop_front();
        }
    }

    /// Drops wholly-expired runs from the front. Runs are ts-disjoint and
    /// ascending, so this is a header comparison per dropped run — the
    /// payload (resident or spilled) is never visited. Once the last
    /// spilled run is gone the spill file is reclaimed wholesale.
    fn drop_expired_runs(&mut self) {
        while self.runs.front().is_some_and(|r| r.max_ts < self.floor) {
            let run = self.runs.pop_front().expect("front checked");
            self.run_rows -= run.ts.len();
            match run.values {
                RunValues::Resident(_) => self.resident_run_bytes -= run.payload_bytes,
                RunValues::Spilled { .. } => self.spilled_runs -= 1,
            }
            self.stats.run_drops += 1;
        }
        if self.spilled_runs == 0 {
            if let Some(file) = &mut self.spill {
                if !file.is_empty() && file.reset().is_err() {
                    self.spill_disabled = true;
                }
            }
        }
    }

    /// The timestamp below which live rows are cold: rows stay hot for
    /// `hot_fraction` of the window after arrival. Anchored on the high
    /// timestamp, which equals `floor + window` once the floor
    /// unsaturates but keeps aging rows compactable during warm-up.
    fn cold_cut(&self, tier: &TierConfig) -> Timestamp {
        let window = self.window.as_micros();
        let keep = (window as f64 * tier.hot_fraction.clamp(0.0, 1.0)) as u64;
        self.high.saturating_sub(TimeDelta::from_micros(keep))
    }

    fn trim_scan(&mut self) {
        self.swept_high = self.high;
        let live = &self.scan[self.scan_head..];
        self.scan_head += live.partition_point(|t| t.ts < self.floor);
        if let Some(tier) = self.tier {
            let cut = self.cold_cut(&tier);
            let cold = self.scan[self.scan_head..].partition_point(|t| t.ts < cut);
            if cold >= tier.min_run_rows.max(1) {
                let rows = self.scan[self.scan_head..self.scan_head + cold].to_vec();
                self.scan_head += cold;
                self.push_run(rows, None);
                self.enforce_budget();
            }
        }
        if self.scan_head >= SCAN_COMPACT_MIN && self.scan_head * 2 >= self.scan.len() {
            self.scan.drain(..self.scan_head);
            self.scan_head = 0;
            // A burst must not pin its allocation for the stream
            // lifetime: release capacity down to a small multiple of
            // the surviving rows (hysteresis avoids realloc churn).
            let target = self.scan.len() * 2 + SCAN_COMPACT_MIN;
            if self.scan.capacity() > target * 2 {
                self.scan.shrink_to(target);
            }
        }
        self.swept_floor = self.floor;
    }

    fn sweep_buckets(&mut self) {
        self.sweeps += 1;
        self.swept_high = self.high;
        let floor = self.floor;
        // Decide up front whether this sweep compacts: cold rows across
        // all buckets must clear `min_run_rows` to amortize run metadata.
        let compact_cut = self.tier.and_then(|tier| {
            let cut = self.cold_cut(&tier);
            let cold: usize = self
                .buckets
                .values()
                .map(|b| {
                    let live = b.partition_point(|t| t.ts < floor);
                    b[live..].partition_point(|t| t.ts < cut)
                })
                .sum();
            (cold >= tier.min_run_rows.max(1)).then_some(cut)
        });
        let mut cold_rows: Vec<Tuple> = Vec::new();
        let mut cold_index: Vec<(Value, u32, u32)> = Vec::new();
        let mut live = 0;
        let mut empties = 0;
        for (key, bucket) in self.buckets.iter_mut() {
            if bucket.last().is_some_and(|t| t.ts < floor) {
                // Whole bucket expired: drop its contents in one clear,
                // keeping capacity for the next tuple of this key.
                bucket.clear();
            } else {
                let dead = bucket.partition_point(|t| t.ts < floor);
                if dead > 0 {
                    bucket.drain(..dead);
                }
                if let Some(cut) = compact_cut {
                    let cold = bucket.partition_point(|t| t.ts < cut);
                    if cold > 0 {
                        let start = cold_rows.len() as u32;
                        cold_rows.extend(bucket.drain(..cold));
                        cold_index.push((key.clone(), start, cold as u32));
                    }
                }
            }
            // Same leak as the scan store: a key's burst must not pin
            // its bucket capacity forever.
            if bucket.capacity() > 8 && bucket.capacity() > bucket.len() * 4 {
                bucket.shrink_to(bucket.len() * 2);
            }
            if bucket.is_empty() {
                empties += 1;
            } else {
                live += bucket.len();
            }
        }
        self.keyed_live = live;
        self.empties = empties;
        self.swept_floor = floor;
        let occupied = self.buckets.len() - empties;
        if empties >= EMPTY_BUCKET_MIN && empties >= EMPTY_BUCKET_SLACK * occupied.max(1) {
            self.buckets.retain(|_, b| !b.is_empty());
            self.empties = 0;
            let target = self.buckets.len() * 2 + EMPTY_BUCKET_MIN;
            if self.buckets.capacity() > target * 2 {
                self.buckets.shrink_to(target);
            }
        }
        if !cold_rows.is_empty() {
            let index = cold_index
                .into_iter()
                .map(|(k, start, count)| (k, (start, count)))
                .collect();
            self.push_run(cold_rows, Some(index));
            self.enforce_budget();
        }
    }

    /// Materializes one immutable columnar run from row-format tuples.
    fn push_run(&mut self, rows: Vec<Tuple>, index: Option<HashMap<Value, (u32, u32)>>) {
        debug_assert!(!rows.is_empty());
        let n = rows.len();
        let width = rows[0].width();
        let min_ts = rows.iter().map(|t| t.ts).min().expect("non-empty");
        let max_ts = rows.iter().map(|t| t.ts).max().expect("non-empty");
        debug_assert!(
            self.runs.back().is_none_or(|r| r.max_ts < min_ts),
            "runs must cover disjoint ascending timestamp ranges"
        );
        let mut ts = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n * width);
        // Column-major: all of column 0, then column 1, …
        for c in 0..width {
            for t in &rows {
                debug_assert_eq!(t.width(), width, "join input rows share one width");
                values.push(t.values_expect()[c].clone());
            }
        }
        for t in &rows {
            ts.push(t.ts);
        }
        let payload_bytes: u64 = values.iter().map(value_bytes).sum();
        self.run_rows += n;
        self.resident_run_bytes += payload_bytes;
        self.stats.compacted_runs += 1;
        self.runs.push_back(Run {
            max_ts,
            ts,
            index,
            width,
            payload_bytes,
            values: RunValues::Resident(values),
        });
    }

    /// Spills the oldest resident runs until the resident payload fits
    /// the budget. I/O failure degrades gracefully: the run stays
    /// resident and spilling is disabled for this state.
    fn enforce_budget(&mut self) {
        let Some(tier) = self.tier else { return };
        while !self.spill_disabled && self.resident_run_bytes > tier.budget {
            let Some(idx) = self
                .runs
                .iter()
                .position(|r| matches!(r.values, RunValues::Resident(_)))
            else {
                break;
            };
            if !self.spill_run(idx) {
                self.spill_disabled = true;
            }
        }
    }

    /// Moves one resident run's payload to the disk tier. Returns false
    /// on I/O failure (the run stays resident).
    fn spill_run(&mut self, idx: usize) -> bool {
        if self.spill.is_none() {
            match SpillFile::create() {
                Ok(f) => self.spill = Some(f),
                Err(_) => return false,
            }
        }
        let file = self.spill.as_mut().expect("just ensured");
        let run = &mut self.runs[idx];
        let RunValues::Resident(values) = &run.values else {
            return true;
        };
        match file.append_run(run.ts.len(), run.width, values) {
            Ok((offset, len)) => {
                self.resident_run_bytes -= run.payload_bytes;
                self.stats.spilled_bytes += len;
                run.payload_bytes = len;
                run.values = RunValues::Spilled { offset, len };
                self.spilled_runs += 1;
                true
            }
            Err(_) => false,
        }
    }

    #[cfg(test)]
    fn scan_capacity(&self) -> usize {
        self.scan.capacity()
    }

    #[cfg(test)]
    fn resident_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r.values, RunValues::Resident(_)))
            .count()
    }

    #[cfg(test)]
    fn spilled_run_count(&self) -> usize {
        self.spilled_runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(ts: u64, k: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(k)])
    }

    fn probe_all(s: &JoinState, key: Option<&Value>) -> Vec<Tuple> {
        let mut scratch = Vec::new();
        s.probe(key, &mut scratch)
            .unwrap()
            .cloned()
            .collect::<Vec<_>>()
    }

    #[test]
    fn keyed_probe_touches_one_bucket() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..10 {
            s.insert(data(ts, (ts % 3) as i64));
        }
        let hits = s.probe_hot(Some(&Value::Int(1)));
        assert_eq!(hits.len(), 3, "only key-1 tuples: ts 1, 4, 7");
        assert!(hits.iter().all(|t| t.values_expect()[0] == Value::Int(1)));
        assert!(s.probe_hot(Some(&Value::Int(99))).is_empty());
    }

    #[test]
    fn null_probe_key_never_matches() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        s.insert(Tuple::data(Timestamp::from_micros(1), vec![Value::Null]));
        s.insert(data(2, 5));
        assert!(s.probe_hot(Some(&Value::Null)).is_empty());
        assert_eq!(s.probe_hot(Some(&Value::Int(5))).len(), 1);
        assert_eq!(s.len(), 2, "null-keyed tuples still count as stored");
    }

    #[test]
    fn logical_floor_filters_before_physical_sweep() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        s.insert(data(10, 1));
        s.insert(data(120, 1));
        // Advance by less than half a window past the last sweep: the old
        // tuple is retained physically but must not be probeable.
        s.advance(Timestamp::from_micros(130));
        assert_eq!(s.probe_hot(Some(&Value::Int(1))).len(), 1);
        assert_eq!(s.probe_hot(Some(&Value::Int(1)))[0].ts.as_micros(), 120);
    }

    #[test]
    fn punctuation_purge_is_exact() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in [1u64, 2, 3] {
            s.insert(data(ts, ts as i64));
        }
        assert_eq!(s.len(), 3);
        s.purge(Timestamp::from_micros(500));
        assert_eq!(s.len(), 0, "all buckets wholly expired");
        assert_eq!(s.peak(), 3, "peak survives the purge");
    }

    #[test]
    fn scan_mode_trims_eagerly() {
        let mut s = JoinState::new(TimeDelta::from_micros(10), None);
        for ts in 0..50 {
            s.insert(data(ts, 0));
            s.advance(Timestamp::from_micros(ts));
        }
        assert!(s.len() <= 11, "scan store bounded by the window");
        assert_eq!(s.probe_hot(None).len(), s.len());
    }

    #[test]
    fn estimated_candidates_reflects_partitioning() {
        let mut keyed = JoinState::new(TimeDelta::from_micros(100), Some(0));
        let mut scan = JoinState::new(TimeDelta::from_micros(100), None);
        for ts in 0..40 {
            keyed.insert(data(ts, (ts % 8) as i64));
            scan.insert(data(ts, (ts % 8) as i64));
        }
        assert_eq!(keyed.estimated_candidates(), 5, "40 tuples / 8 keys");
        assert_eq!(scan.estimated_candidates(), 40);
    }

    #[test]
    fn estimated_candidates_ignores_logically_expired_tuples() {
        // Regression: the estimate used to divide the *physical*
        // `keyed_live` by live buckets; between sweeps it counted
        // logically-expired tuples and a mostly-dead input looked fat
        // (or, probed elsewhere, a stale input looked cheap).
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..90u64 {
            s.insert(data(ts, (ts % 3) as i64));
        }
        s.insert(data(110, 0));
        // Floor 45: everything below is logically dead, but the lag (45)
        // is under half a window, so no physical sweep happened.
        s.advance(Timestamp::from_micros(145));
        assert!(s.len() > 40, "physical retention still holds stale rows");
        assert!(
            s.estimated_candidates() <= 15,
            "estimate must track logical live (~15/key), got {}",
            s.estimated_candidates()
        );
        // After the forced sweep the physical and logical views agree.
        s.purge(Timestamp::from_micros(145));
        assert_eq!(s.len(), 45 + 1);
    }

    #[test]
    fn scan_burst_releases_capacity() {
        // Regression: `trim_scan` drained expired rows but kept the
        // burst-sized allocation for the stream lifetime.
        let mut s = JoinState::new(TimeDelta::from_micros(10), None);
        for ts in 0..10_000u64 {
            s.insert(data(ts, 0));
        }
        let burst_cap = s.scan_capacity();
        assert!(burst_cap >= 10_000);
        // Everything expires; steady drip keeps the store tiny.
        for ts in 20_000..20_100u64 {
            s.insert(data(ts, 0));
            s.advance(Timestamp::from_micros(ts));
        }
        assert!(s.len() <= 11);
        assert!(
            s.scan_capacity() < burst_cap / 8,
            "burst capacity released: {} -> {}",
            burst_cap,
            s.scan_capacity()
        );
    }

    #[test]
    fn keyed_burst_releases_bucket_capacity() {
        let mut s = JoinState::new(TimeDelta::from_micros(10), Some(0));
        for ts in 0..10_000u64 {
            s.insert(data(ts, 7));
        }
        s.purge(Timestamp::from_micros(20_000));
        s.insert(data(20_001, 7));
        // The sole bucket held 10k rows; after the purge-sweep its
        // capacity must have been released.
        let cap = s.buckets.get(&Value::Int(7)).unwrap().capacity();
        assert!(cap < 10_000 / 8, "bucket capacity released, got {cap}");
    }

    #[test]
    fn non_advancing_purge_is_a_noop() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..50u64 {
            s.insert(data(ts, (ts % 4) as i64));
        }
        s.purge(Timestamp::from_micros(130));
        let sweeps = s.sweep_count();
        let swept = s.swept_floor();
        assert_eq!(swept.as_micros(), 30);
        // Same witness again, and older ones: the floor cannot advance,
        // so no bucket sweep may run.
        s.purge(Timestamp::from_micros(130));
        s.purge(Timestamp::from_micros(90));
        s.purge(Timestamp::ZERO);
        assert_eq!(s.sweep_count(), sweeps, "non-advancing purge swept");
        assert_eq!(s.swept_floor(), swept);
    }

    #[test]
    fn swept_floor_consistent_across_interleaved_advance_and_purge() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..200u64 {
            s.insert(data(ts, (ts % 4) as i64));
            s.advance(Timestamp::from_micros(ts));
        }
        // advance() sweeps on half-window hysteresis; swept_floor tracks
        // the last sweep, never ahead of the logical floor.
        assert!(s.swept_floor() <= Timestamp::from_micros(100));
        let sweeps_before = s.sweep_count();
        s.purge(Timestamp::from_micros(200));
        assert_eq!(s.swept_floor().as_micros(), 100, "purge reconciles");
        assert_eq!(s.sweep_count(), sweeps_before + 1);
        // A purge at the same witness after the reconciling sweep: no-op.
        s.purge(Timestamp::from_micros(200));
        assert_eq!(s.sweep_count(), sweeps_before + 1);
        // advance() below the hysteresis threshold must not sweep...
        s.advance(Timestamp::from_micros(240));
        assert_eq!(s.sweep_count(), sweeps_before + 1);
        assert_eq!(s.swept_floor().as_micros(), 100);
        // ...and purge() at that same witness must (floor moved past the
        // swept point).
        s.purge(Timestamp::from_micros(240));
        assert_eq!(s.sweep_count(), sweeps_before + 2);
        assert_eq!(s.swept_floor().as_micros(), 140);
    }

    fn tiered(window: u64, key: Option<usize>, budget: u64) -> JoinState {
        JoinState::with_tier(
            TimeDelta::from_micros(window),
            key,
            Some(TierConfig {
                budget,
                hot_fraction: 0.25,
                min_run_rows: 4,
            }),
        )
    }

    /// Drives identical inserts/advances through a plain and a tiered
    /// state, asserting identical probe results throughout.
    fn differential(budget: u64, key: Option<usize>) {
        let window = 200u64;
        let mut plain = JoinState::new(TimeDelta::from_micros(window), key);
        let mut tier = tiered(window, key, budget);
        for step in 0..2_000u64 {
            let ts = step;
            let k = (step % 16) as i64;
            plain.insert(data(ts, k));
            tier.insert(data(ts, k));
            plain.advance(Timestamp::from_micros(ts));
            tier.advance(Timestamp::from_micros(ts));
            if step % 97 == 0 {
                let probe_key = Value::Int(((step / 97) % 16) as i64);
                let pk = key.map(|_| &probe_key);
                let a: Vec<(u64, Vec<Value>)> = probe_all(&plain, pk)
                    .iter()
                    .map(|t| (t.ts.as_micros(), t.values_expect().to_vec()))
                    .collect();
                let b: Vec<(u64, Vec<Value>)> = probe_all(&tier, pk)
                    .iter()
                    .map(|t| (t.ts.as_micros(), t.values_expect().to_vec()))
                    .collect();
                assert_eq!(a, b, "tiering changed probe results at step {step}");
            }
            if step % 500 == 499 {
                plain.purge(Timestamp::from_micros(ts));
                tier.purge(Timestamp::from_micros(ts));
            }
        }
        assert!(
            tier.spill_stats().compacted_runs > 0,
            "workload must exercise compaction"
        );
        if budget == 0 {
            assert!(tier.spill_stats().spilled_bytes > 0, "tiny budget must spill");
        }
        assert!(tier.spill_stats().run_drops > 0, "purges must drop runs");
    }

    #[test]
    fn tiered_keyed_probe_equals_untiered_unbounded() {
        differential(u64::MAX, Some(0));
    }

    #[test]
    fn tiered_keyed_probe_equals_untiered_tiny_budget() {
        differential(0, Some(0));
    }

    #[test]
    fn tiered_scan_probe_equals_untiered() {
        differential(u64::MAX, None);
        differential(0, None);
    }

    #[test]
    fn runs_spill_and_drop_wholesale() {
        let mut s = tiered(100, Some(0), 0);
        for ts in 0..400u64 {
            s.insert(data(ts, (ts % 8) as i64));
            s.advance(Timestamp::from_micros(ts));
        }
        // Punctuation sweeps force compaction; budget 0 spills every run.
        s.purge(Timestamp::from_micros(399));
        assert!(s.spilled_run_count() > 0, "budget 0 must spill runs");
        assert_eq!(s.resident_runs(), 0);
        let drops_before = s.spill_stats().run_drops;
        // Jump far ahead: every run expires and is dropped by header
        // comparison; the spill file is reclaimed wholesale.
        s.purge(Timestamp::from_micros(10_000));
        assert!(s.spill_stats().run_drops > drops_before);
        assert_eq!(s.len(), 0);
        assert_eq!(s.spilled_run_count(), 0);
        assert!(s.spill.as_ref().unwrap().is_empty(), "file reclaimed");
    }

    #[test]
    fn resident_bytes_tracks_budget() {
        // String-heavy rows: the value payload (what the budget bounds)
        // dominates the per-row timestamp/index metadata that must stay
        // resident for frontier addressing.
        let run_state = |budget: u64| -> (u64, SpillStats) {
            let mut s = JoinState::with_tier(
                TimeDelta::from_micros(2_000),
                Some(0),
                Some(TierConfig {
                    budget,
                    hot_fraction: 0.05,
                    min_run_rows: 16,
                }),
            );
            let mut peak = 0u64;
            for ts in 0..8_000u64 {
                let row = vec![
                    Value::Int((ts % 32) as i64),
                    Value::str(format!("payload-{ts:-<120}")),
                ];
                s.insert(Tuple::data(Timestamp::from_micros(ts), row));
                s.advance(Timestamp::from_micros(ts));
                if ts % 250 == 249 {
                    s.purge(Timestamp::from_micros(ts));
                }
                if ts % 50 == 49 {
                    peak = peak.max(s.resident_bytes());
                }
            }
            (peak, s.spill_stats())
        };
        let (unbounded_peak, _) = run_state(u64::MAX);
        let (tiny_peak, tiny_stats) = run_state(4096);
        assert!(tiny_stats.spilled_bytes > 0, "budget must spill");
        assert!(tiny_stats.run_drops > 0, "punctuation must drop runs");
        assert!(
            tiny_peak * 4 <= unbounded_peak,
            "budgeted peak {tiny_peak} must sit ≥4x below unbounded {unbounded_peak}"
        );
    }

    #[test]
    fn tier_config_parses_budget_forms() {
        assert_eq!(TierConfig::parse("off"), None);
        assert_eq!(TierConfig::parse(""), None);
        assert_eq!(
            TierConfig::parse("unbounded").unwrap().budget,
            u64::MAX
        );
        assert_eq!(TierConfig::parse("4096").unwrap().budget, 4096);
        assert_eq!(TierConfig::parse("64k").unwrap().budget, 64 << 10);
        assert_eq!(TierConfig::parse("2m").unwrap().budget, 2 << 20);
        assert_eq!(TierConfig::parse("1g").unwrap().budget, 1 << 30);
        assert_eq!(TierConfig::parse("garbage"), None);
    }
}
