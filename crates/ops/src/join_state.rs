//! Shared join-state layer: a τ-ordered ring with per-key chains,
//! expired exactly at the window floor, over a tiered cold store.
//!
//! [`crate::MultiWindowJoin`] keeps one [`JoinState`] per input. Rows
//! arrive in τ order, so one ring in arrival order *is* the window in
//! timestamp order, in both storage modes:
//!
//! * **Keyed** — an equi-key column threads the ring with per-key
//!   chains: each row links forward to the next row with the same key,
//!   and a map holds every live non-null key's oldest and newest row. A
//!   probe walks exactly one chain, so probe cost is proportional to the
//!   number of *matching* rows, not the window length. Key equality uses
//!   [`Value`]'s `Eq`, which is exactly the engine's SQL `=` on non-null
//!   operands (`Int(1) == Float(1.0)`, hash-consistent). Null-keyed rows
//!   sit in the ring unchained and a null probe key finds no chain — SQL
//!   three-valued logic.
//! * **Scan** — no key: every row links to the next, and a probe walks
//!   the whole ring (cross-within-window).
//!
//! Expiry is exact at the floor (`max seen τ − window`): every
//! [`JoinState::advance`] pops the ring front while it lies below the
//! floor, unlinking each row from its key and dropping a key whose chain
//! runs dry. The ring therefore holds exactly the logical window and the
//! key map exactly its live keys; punctuation ([`JoinState::purge`]) is
//! the same step.
//!
//! # Tiered storage ([`TierConfig`])
//!
//! Long windows (minutes–hours) exhaust memory long before CPU if every
//! live tuple stays in row format. With a tier config, the ring prefix
//! that has aged past `hot_fraction` of the window is popped through the
//! same unlink path into an immutable columnar **run**: values
//! column-major, timestamps resident so the floor stays addressable, and
//! (keyed mode) rows grouped by key with a key → row-range index. Once the
//! resident run payload exceeds `budget` bytes, the oldest runs spill to
//! the state's append-only temp file ([`crate::spill::SpillFile`]); only
//! the timestamp column and the key index stay resident, so punctuation
//! retires a spilled run by dropping its entry — an unlink, never a scan
//! ("Timestamp tokens"' frontier-addressing requirement). A run is a
//! contiguous ring prefix, so successive runs cover disjoint ascending
//! timestamp ranges that precede every hot row, and a probe that chains
//! runs oldest first and the hot chain last reproduces exactly the
//! candidate order of an untiered state — tiering is invisible in the
//! output.

use std::collections::{hash_map::Entry, HashMap, VecDeque};

use millstream_types::{Error, Result, Row, TimeDelta, Timestamp, Tuple, Value};

use crate::spill::{ts_bytes, value_bytes, SpillFile};

/// Chain terminator: no further row with this key (or, in scan mode, no
/// further row at all).
const END: u64 = u64::MAX;

/// Capacity the ring and the key map may keep whatever their length.
const MIN_SLACK: usize = 64;

/// Tiered-store configuration: when present, compaction moves cold rows
/// into columnar runs and runs beyond the byte budget spill to disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Resident byte budget for compacted run payloads. Once exceeded,
    /// the oldest runs spill to the state's temp file; `u64::MAX`
    /// compacts to columnar but never touches disk.
    pub budget: u64,
    /// Fraction of the window a row stays in the hot row tier after
    /// arrival before compaction may take it (`0.0 ..= 1.0`; `1.0`
    /// disables compaction entirely).
    pub hot_fraction: f64,
    /// Minimum cold rows compaction must find before materializing a run —
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
    /// Immutable columnar runs materialized by compaction.
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

/// One hot row and its forward link: the absolute sequence number of the
/// next row with the same key (keyed) or of the next row (scan), or
/// [`END`].
struct Slot {
    tuple: Tuple,
    next: u64,
}

// Layout pin: an 88 B tuple plus its link. `resident_bytes` charges this.
const _: () = assert!(std::mem::size_of::<Slot>() == 96);

/// A live key's chain: absolute sequence numbers of its oldest and newest
/// hot rows.
struct Chain {
    first: u64,
    last: u64,
}

/// One input's window state for a symmetric join.
pub struct JoinState {
    /// Equi-key column index within this input's row, if any.
    key: Option<usize>,
    window: TimeDelta,
    /// Hot rows in arrival order, which is τ order; every row is at or
    /// above the floor.
    ring: VecDeque<Slot>,
    /// Absolute sequence number of `ring.front()`.
    head: u64,
    /// Keyed mode: every live non-null key's chain, and nothing else.
    chains: HashMap<Value, Chain>,
    /// Expiry floor: no retained hot row lies below it.
    floor: Timestamp,
    /// Highest timestamp observed (inserts, probes, punctuation). The
    /// cold cut anchors here rather than on the floor: the two coincide
    /// once the floor unsaturates (`floor = high − window`), but during
    /// the first window's fill the floor is pinned at zero while rows
    /// still age — compaction must not wait out the warm-up.
    high: Timestamp,
    /// `high` at the last compaction check, for compaction hysteresis.
    compacted_high: Timestamp,
    /// High-water of stored tuples, for peak-state accounting.
    peak: usize,
    /// Tier config; `None` = hot rows only.
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
}

/// A probe's hot candidates, oldest first: one key's chain (keyed) or
/// the whole ring (scan). Cloning restarts nothing — it forks the walk.
#[derive(Clone)]
struct Cursor<'a> {
    ring: &'a VecDeque<Slot>,
    head: u64,
    at: u64,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        if self.at == END {
            return None;
        }
        let slot = &self.ring[(self.at - self.head) as usize];
        self.at = slot.next;
        Some(&slot.tuple)
    }
}

impl JoinState {
    /// A window state; `key` is the equi-key column within this input's
    /// own row (`None` = scan store). No tiering.
    pub fn new(window: TimeDelta, key: Option<usize>) -> Self {
        JoinState::with_tier(window, key, None)
    }

    /// A window state with an optional tiered cold store.
    pub fn with_tier(window: TimeDelta, key: Option<usize>, tier: Option<TierConfig>) -> Self {
        JoinState {
            key,
            window,
            ring: VecDeque::new(),
            head: 0,
            chains: HashMap::new(),
            floor: Timestamp::ZERO,
            high: Timestamp::ZERO,
            compacted_high: Timestamp::ZERO,
            peak: 0,
            tier,
            runs: VecDeque::new(),
            run_rows: 0,
            resident_run_bytes: 0,
            spilled_runs: 0,
            spill: None,
            spill_disabled: false,
            stats: SpillStats::default(),
        }
    }

    /// Tuples retained: hot rows, all at or above the floor, plus
    /// compacted run rows (a run retires whole, once its newest row
    /// expires).
    pub fn len(&self) -> usize {
        self.ring.len() + self.run_rows
    }

    /// True when no tuples are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water of [`JoinState::len`] over the state's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Lifetime tier counters (compactions, spilled bytes, run drops).
    pub fn spill_stats(&self) -> SpillStats {
        self.stats
    }

    /// Estimated resident bytes: hot rows with their links, run metadata
    /// (timestamp column + key index — resident even for spilled runs),
    /// and resident run payloads. Spilled payloads are *not* counted —
    /// this is the quantity the spill budget bounds, sampled by the spill
    /// bench to prove peak resident state tracks `--join-spill-budget`.
    /// A hot row costs its 96 B [`Slot`] (a `Value` is 16 B, since a
    /// string is a one-pointer handle) plus, per `STRING` value, the
    /// payload's byte length — charged per reference, so an interned
    /// payload shared by many rows is over-counted (an upper bound).
    pub fn resident_bytes(&self) -> u64 {
        let mut total = self.resident_run_bytes;
        for run in &self.runs {
            total += ts_bytes(run.ts.len());
            if let Some(index) = &run.index {
                total += (index.len() * (std::mem::size_of::<Value>() + 8)) as u64;
            }
        }
        for slot in &self.ring {
            let t = &slot.tuple;
            total += std::mem::size_of::<Slot>() as u64;
            for v in t.values_expect() {
                if let Value::Str(s) = v {
                    total += s.len() as u64;
                }
            }
            if t.width() > millstream_types::INLINE_ROW_CAP {
                total += (t.width() * std::mem::size_of::<Value>()) as u64;
            }
        }
        total
    }

    /// Expected candidates per probe — the adaptive-order cost signal.
    /// Keyed states divide live rows by live keys (hot chains plus run
    /// index keys: a uniform-chain estimate); scan states pay the window.
    pub fn estimated_candidates(&self) -> usize {
        if self.key.is_some() {
            let run_keys: usize = self
                .runs
                .iter()
                .map(|r| r.index.as_ref().map_or(0, HashMap::len))
                .sum();
            self.len() / (self.chains.len() + run_keys).max(1)
        } else {
            self.len()
        }
    }

    /// Stores a tuple: a ring push plus a link. Timestamps must be
    /// non-decreasing across calls (guaranteed by the join's τ =
    /// TSM-minimum processing order).
    pub fn insert(&mut self, tuple: Tuple) {
        self.high = self.high.max(tuple.ts);
        let seq = self.head + self.ring.len() as u64;
        let prev = match self.key {
            Some(col) => {
                let k = &tuple.values_expect()[col];
                if k.is_null() {
                    None
                } else {
                    match self.chains.entry(k.clone()) {
                        Entry::Occupied(mut e) => {
                            Some(std::mem::replace(&mut e.get_mut().last, seq))
                        }
                        Entry::Vacant(e) => {
                            e.insert(Chain {
                                first: seq,
                                last: seq,
                            });
                            None
                        }
                    }
                }
            }
            None => (!self.ring.is_empty()).then(|| seq - 1),
        };
        if let Some(prev) = prev {
            self.ring[(prev - self.head) as usize].next = seq;
        }
        self.ring.push_back(Slot { tuple, next: END });
        self.peak = self.peak.max(self.len());
    }

    /// Moves the floor to `ts − window` and expires everything below it:
    /// hot rows pop off the ring front, runs wholly below it retire by a
    /// header check. Then compacts the cold ring prefix when the tier's
    /// hysteresis is due.
    pub fn advance(&mut self, ts: Timestamp) {
        self.high = self.high.max(ts);
        let floor = ts.saturating_sub(self.window);
        if floor > self.floor {
            self.floor = floor;
            while self.ring.front().is_some_and(|s| s.tuple.ts < floor) {
                self.pop_front();
            }
            self.drop_expired_runs();
            self.release_slack();
        }
        if self.compaction_due() {
            self.compact();
        }
    }

    /// Punctuation at `ts`: the same expiry step as [`JoinState::advance`].
    /// A repeated or older witness cannot move the floor and changes
    /// nothing.
    pub fn purge(&mut self, ts: Timestamp) {
        self.advance(ts);
    }

    /// Pops the ring's oldest row, unlinking it from its key: it is the
    /// oldest row of its chain, so the chain's head moves to its link, and
    /// a key whose chain runs dry leaves the map.
    fn pop_front(&mut self) -> Option<Tuple> {
        let slot = self.ring.pop_front()?;
        self.head += 1;
        if let Some(col) = self.key {
            let k = &slot.tuple.values_expect()[col];
            if !k.is_null() {
                if slot.next == END {
                    self.chains.remove(k);
                } else {
                    let chain = self.chains.get_mut(k).expect("live key has a chain");
                    debug_assert_eq!(chain.first, self.head - 1, "popped row heads its chain");
                    chain.first = slot.next;
                }
            }
        }
        Some(slot.tuple)
    }

    /// A burst must not pin its allocation for the stream lifetime: once
    /// the ring or the key map fills under a quarter of its capacity,
    /// release it down to twice its length (hysteresis avoids realloc
    /// churn).
    fn release_slack(&mut self) {
        let len = self.ring.len();
        if self.ring.capacity() > (4 * len).max(MIN_SLACK) {
            self.ring.shrink_to((2 * len).max(MIN_SLACK));
        }
        let keys = self.chains.len();
        if self.chains.capacity() > (4 * keys).max(MIN_SLACK) {
            self.chains.shrink_to((2 * keys).max(MIN_SLACK));
        }
    }

    /// How long a row stays hot after arrival: `hot_fraction` of the
    /// window, in µs.
    fn hot_span(&self, tier: &TierConfig) -> u64 {
        (self.window.as_micros() as f64 * tier.hot_fraction.clamp(0.0, 1.0)) as u64
    }

    /// Whether enough time has passed since the last compaction check for
    /// a batch of cold rows to be worth compacting. Half the hot span is
    /// the hysteresis: the hot tier holds at most ~1.5× `hot_fraction` of
    /// the window between compactions. Always false with the tier off.
    fn compaction_due(&self) -> bool {
        let Some(tier) = &self.tier else { return false };
        let since = self.high.duration_since(self.compacted_high).as_micros();
        since.saturating_mul(2) >= self.hot_span(tier).max(1)
    }

    /// Moves the ring prefix below the cold cut into one run, once it
    /// holds at least `min_run_rows`. The cut anchors on the high
    /// timestamp, which equals `floor + window` once the floor
    /// unsaturates but keeps aging rows compactable during warm-up. The
    /// prefix pops through the same unlink path as expiry; keyed runs
    /// group it by key, ts-ascending within each key.
    fn compact(&mut self) {
        let Some(tier) = self.tier else { return };
        self.compacted_high = self.high;
        let cut = self
            .high
            .saturating_sub(TimeDelta::from_micros(self.hot_span(&tier)));
        let cold = self.ring.partition_point(|s| s.tuple.ts < cut);
        if cold < tier.min_run_rows.max(1) {
            return;
        }
        let mut rows: Vec<Tuple> = (0..cold)
            .map(|_| self.pop_front().expect("cold prefix"))
            .collect();
        let index = self.key.map(|col| group_by_key(&mut rows, col));
        self.push_run(rows, index);
        self.enforce_budget();
        self.release_slack();
    }

    /// Candidates for a probe, oldest first: cold runs rehydrated into
    /// `scratch` (runs never interleave in time), then the hot chain (or,
    /// in scan mode, the whole ring) walked in place. The order is exactly
    /// an untiered state's chain order, so callers' output is
    /// byte-identical whatever the tier does. The returned cursor is a
    /// cheap `Clone`, so an enumeration can restart it without probing
    /// again. A null probe key never matches. Callers of a keyed state
    /// must pass `Some(key)`.
    pub fn probe<'a>(
        &'a self,
        key: Option<&Value>,
        scratch: &'a mut Vec<Tuple>,
    ) -> Result<impl Iterator<Item = &'a Tuple> + Clone + 'a> {
        scratch.clear();
        self.probe_cold(key, scratch)?;
        let at = match (self.key, key) {
            (Some(_), Some(k)) => self.chains.get(k).map_or(END, |c| c.first),
            (None, _) if !self.ring.is_empty() => self.head,
            (None, _) => END,
            (Some(_), None) => {
                debug_assert!(false, "keyed state probed without a key");
                END
            }
        };
        Ok(scratch.iter().chain(Cursor {
            ring: &self.ring,
            head: self.head,
            at,
        }))
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
        // point here exactly as in a hot chain.
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
                    .read_rows(*offset, *len, run.width, start, count, &mut thawed)
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
    fn ring_capacity(&self) -> usize {
        self.ring.capacity()
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

/// Groups a ts-ascending batch by its key column — stably, so each key's
/// rows stay ts-ascending — and returns each non-null key's row range.
/// Null-keyed rows are grouped too but left out of the index: they are
/// retained, never probed.
fn group_by_key(rows: &mut Vec<Tuple>, col: usize) -> HashMap<Value, (u32, u32)> {
    let mut groups: HashMap<Value, u32> = HashMap::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut tagged: Vec<(u32, Tuple)> = rows
        .drain(..)
        .map(|t| {
            let g = *groups
                .entry(t.values_expect()[col].clone())
                .or_insert_with(|| {
                    counts.push(0);
                    counts.len() as u32 - 1
                });
            counts[g as usize] += 1;
            (g, t)
        })
        .collect();
    tagged.sort_by_key(|&(g, _)| g);
    rows.extend(tagged.into_iter().map(|(_, t)| t));
    let mut starts = Vec::with_capacity(counts.len());
    let mut at = 0;
    for &c in &counts {
        starts.push(at);
        at += c;
    }
    groups
        .into_iter()
        .filter(|(k, _)| !k.is_null())
        .map(|(k, g)| (k, (starts[g as usize], counts[g as usize])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
    fn keyed_probe_walks_one_chain() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..10 {
            s.insert(data(ts, (ts % 3) as i64));
        }
        let hits = probe_all(&s, Some(&Value::Int(1)));
        assert_eq!(hits.len(), 3, "only key-1 tuples: ts 1, 4, 7");
        assert!(hits.iter().all(|t| t.values_expect()[0] == Value::Int(1)));
        assert!(probe_all(&s, Some(&Value::Int(99))).is_empty());
    }

    #[test]
    fn null_probe_key_never_matches() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        s.insert(Tuple::data(Timestamp::from_micros(1), vec![Value::Null]));
        s.insert(data(2, 5));
        assert!(probe_all(&s, Some(&Value::Null)).is_empty());
        assert_eq!(probe_all(&s, Some(&Value::Int(5))).len(), 1);
        assert_eq!(s.len(), 2, "null-keyed tuples still count as stored");
        assert_eq!(s.chains.len(), 1, "null keys are never chained");
    }

    #[test]
    fn logical_floor_filters_before_physical_sweep() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        s.insert(data(10, 1));
        s.insert(data(120, 1));
        // Floor 30: the old tuple is gone from the probe and the store
        // alike, however little the floor moved.
        s.advance(Timestamp::from_micros(130));
        let hits = probe_all(&s, Some(&Value::Int(1)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].ts.as_micros(), 120);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn punctuation_purge_is_exact() {
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in [1u64, 2, 3] {
            s.insert(data(ts, ts as i64));
        }
        assert_eq!(s.len(), 3);
        s.purge(Timestamp::from_micros(500));
        assert_eq!(s.len(), 0, "every row expired");
        assert!(s.chains.is_empty(), "every key left the map");
        assert_eq!(s.peak(), 3, "peak survives the purge");
    }

    #[test]
    fn scan_mode_trims_eagerly() {
        let mut s = JoinState::new(TimeDelta::from_micros(10), None);
        for ts in 0..50 {
            s.insert(data(ts, 0));
            s.advance(Timestamp::from_micros(ts));
        }
        assert_eq!(s.len(), 11, "scan store holds exactly the window");
        assert_eq!(probe_all(&s, None).len(), s.len());
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
        // Regression: the estimate used to divide the *physical* keyed
        // count by live buckets; while expired rows were still resident
        // a mostly-dead input looked fat (or, probed elsewhere, a stale
        // input looked cheap).
        let mut s = JoinState::new(TimeDelta::from_micros(100), Some(0));
        for ts in 0..90u64 {
            s.insert(data(ts, (ts % 3) as i64));
        }
        s.insert(data(110, 0));
        // Floor 45: ts 45..=89 and 110 are live, nothing else is kept.
        s.advance(Timestamp::from_micros(145));
        assert_eq!(s.len(), 45 + 1, "retention is exactly the live rows");
        assert!(
            s.estimated_candidates() <= 15,
            "estimate must track logical live (~15/key), got {}",
            s.estimated_candidates()
        );
    }

    #[test]
    fn scan_burst_releases_capacity() {
        // Regression: expiry dropped the rows but kept the burst-sized
        // allocation for the stream lifetime.
        let mut s = JoinState::new(TimeDelta::from_micros(10), None);
        for ts in 0..10_000u64 {
            s.insert(data(ts, 0));
        }
        let burst_cap = s.ring_capacity();
        assert!(burst_cap >= 10_000);
        // Everything expires; steady drip keeps the store tiny.
        for ts in 20_000..20_100u64 {
            s.insert(data(ts, 0));
            s.advance(Timestamp::from_micros(ts));
        }
        assert!(s.len() <= 11);
        assert!(
            s.ring_capacity() < burst_cap / 8,
            "burst capacity released: {} -> {}",
            burst_cap,
            s.ring_capacity()
        );
    }

    #[test]
    fn keyed_burst_releases_ring_capacity() {
        let mut s = JoinState::new(TimeDelta::from_micros(10), Some(0));
        for ts in 0..10_000u64 {
            s.insert(data(ts, (ts % 5_000) as i64));
        }
        let (ring_cap, map_cap) = (s.ring_capacity(), s.chains.capacity());
        assert!(ring_cap >= 10_000 && map_cap >= 5_000);
        s.purge(Timestamp::from_micros(20_000));
        s.insert(data(20_001, 7));
        // The burst held 10k rows over 5k keys; after the purge both the
        // ring and the key map must have released that capacity.
        assert!(
            s.ring_capacity() < ring_cap / 8,
            "ring capacity released, got {}",
            s.ring_capacity()
        );
        assert!(
            s.chains.capacity() < map_cap / 8,
            "key map capacity released, got {}",
            s.chains.capacity()
        );
    }

    #[test]
    fn retention_is_exactly_the_window() {
        for key in [Some(0), None] {
            let window = 100u64;
            let mut s = JoinState::new(TimeDelta::from_micros(window), key);
            let mut inserted: Vec<u64> = Vec::new();
            let mut floor = 0u64;
            let live =
                |inserted: &[u64], floor: u64| inserted.iter().filter(|&&t| t >= floor).count();
            for ts in 0..600u64 {
                s.insert(data(ts, (ts % 7) as i64));
                inserted.push(ts);
                if ts % 3 == 0 {
                    s.advance(Timestamp::from_micros(ts));
                } else if ts % 11 == 0 {
                    s.purge(Timestamp::from_micros(ts + 5));
                    floor = floor.max((ts + 5).saturating_sub(window));
                    assert_eq!(s.len(), live(&inserted, floor), "after purge at {}", ts + 5);
                    continue;
                } else {
                    continue;
                }
                floor = floor.max(ts.saturating_sub(window));
                assert_eq!(s.len(), live(&inserted, floor), "after advance at {ts}");
            }
            // A repeated or older purge cannot move the floor: nothing
            // changes, not even capacity.
            s.purge(Timestamp::from_micros(650));
            let snapshot = |s: &JoinState| {
                let probed: Vec<u64> = probe_all(s, key.map(|_| &Value::Int(3)))
                    .iter()
                    .map(|t| t.ts.as_micros())
                    .collect();
                (s.len(), s.chains.len(), s.ring_capacity(), probed)
            };
            let before = snapshot(&s);
            assert_eq!(before.0, live(&inserted, 550));
            for older in [650u64, 600, 90, 0] {
                s.purge(Timestamp::from_micros(older));
                assert_eq!(snapshot(&s), before, "purge at {older} changed the state");
            }
        }
    }

    /// Seeded xorshift: deterministic and dependency-free.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Drives seeded random insert/advance/purge/probe sequences through
    /// a state and a naive model — a `Vec` of every row, filtered by the
    /// floor and then by key equality — and checks after every step that
    /// probes agree row for row and that the chain map holds exactly the
    /// distinct non-null keys of the hot rows (with the tier off: of the
    /// live window).
    fn model_differential(seed: u64, key: Option<usize>, tier: Option<u64>, keys: u64) {
        let window = 60u64;
        let mut s = match tier {
            Some(budget) => tiered(window, key, budget),
            None => JoinState::new(TimeDelta::from_micros(window), key),
        };
        let mut model: Vec<Tuple> = Vec::new();
        let mut floor = 0u64;
        let mut now = 0u64;
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        // Keys: ints, their float twins (`Int(k) = Float(k)`) and nulls.
        let pick_key = |rng: &mut Rng| -> Value {
            let k = rng.below(keys) as i64;
            match rng.below(10) {
                0 => Value::Null,
                1 | 2 => Value::Float(k as f64),
                _ => Value::Int(k),
            }
        };
        for step in 0..1_000u64 {
            match rng.below(20) {
                // A burst: many rows at one timestamp.
                0 => {
                    for _ in 0..rng.below(30) {
                        let t = Tuple::data(
                            Timestamp::from_micros(now),
                            vec![pick_key(&mut rng), Value::Int(step as i64)],
                        );
                        model.push(t.clone());
                        s.insert(t);
                    }
                }
                1..=3 => {
                    // Now and then a silence longer than the window
                    // expires everything.
                    now += if rng.below(25) == 0 {
                        2 * window
                    } else {
                        rng.below(8)
                    };
                    s.advance(Timestamp::from_micros(now));
                    floor = floor.max(now.saturating_sub(window));
                }
                4 | 5 => {
                    // Punctuation, sometimes older than what was seen.
                    let at = now.saturating_sub(rng.below(3) * rng.below(40));
                    s.purge(Timestamp::from_micros(at));
                    floor = floor.max(at.saturating_sub(window));
                }
                _ => {
                    now += rng.below(3);
                    let t = Tuple::data(
                        Timestamp::from_micros(now),
                        vec![pick_key(&mut rng), Value::Int(step as i64)],
                    );
                    model.push(t.clone());
                    s.insert(t);
                }
            }
            model.retain(|t| t.ts.as_micros() >= floor);
            let live: Vec<&Tuple> = model.iter().collect();
            let rows = |ts: Vec<Tuple>| -> Vec<(u64, Vec<Value>)> {
                ts.iter()
                    .map(|t| (t.ts.as_micros(), t.values_expect().to_vec()))
                    .collect()
            };
            let expect = |k: Option<&Value>| -> Vec<(u64, Vec<Value>)> {
                rows(
                    live.iter()
                        .filter(|t| k.is_none_or(|k| !k.is_null() && t.values_expect()[0] == *k))
                        .map(|&t| t.clone())
                        .collect(),
                )
            };
            let mut probes: Vec<Option<Value>> = Vec::new();
            if key.is_some() {
                let k = rng.below(keys) as i64;
                probes.extend([Value::Int(k), Value::Float(k as f64), Value::Null].map(Some));
                if step % 50 == 0 {
                    probes.extend(live.iter().map(|t| Some(t.values_expect()[0].clone())));
                }
            } else {
                probes.push(None);
            }
            for k in &probes {
                assert_eq!(
                    rows(probe_all(&s, k.as_ref())),
                    expect(k.as_ref()),
                    "seed {seed} step {step}: probe {k:?} disagrees"
                );
            }
            let chained: HashSet<&Value> = s.chains.keys().collect();
            let hot: HashSet<&Value> = s
                .ring
                .iter()
                .map(|slot| &slot.tuple.values_expect()[0])
                .filter(|v| key.is_some() && !v.is_null())
                .collect();
            assert_eq!(chained, hot, "seed {seed} step {step}: chain map");
            if tier.is_none() {
                assert_eq!(s.len(), live.len(), "seed {seed} step {step}: retention");
                let live_keys: HashSet<&Value> = live
                    .iter()
                    .map(|t| &t.values_expect()[0])
                    .filter(|v| key.is_some() && !v.is_null())
                    .collect();
                assert_eq!(chained, live_keys, "seed {seed} step {step}: live keys");
            }
        }
        if let Some(budget) = tier {
            let stats = s.spill_stats();
            assert!(
                stats.compacted_runs > 0 && stats.run_drops > 0,
                "seed {seed}: {stats:?}"
            );
            assert!(
                budget > 0 || stats.spilled_bytes > 0,
                "seed {seed}: budget 0 must spill"
            );
        }
    }

    #[test]
    fn store_agrees_with_a_naive_window_model() {
        for seed in 0..4 {
            for tier in [None, Some(u64::MAX), Some(0)] {
                // Dense keys (long chains), and a sparse universe (many
                // keys, few rows each).
                for keys in [5, 10_000] {
                    model_differential(seed, Some(0), tier, keys);
                }
                model_differential(seed, None, tier, 5);
            }
        }
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
            assert!(
                tier.spill_stats().spilled_bytes > 0,
                "tiny budget must spill"
            );
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
        // Compaction ran along the way; budget 0 spills every run.
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
        assert_eq!(TierConfig::parse("unbounded").unwrap().budget, u64::MAX);
        assert_eq!(TierConfig::parse("4096").unwrap().budget, 4096);
        assert_eq!(TierConfig::parse("64k").unwrap().budget, 64 << 10);
        assert_eq!(TierConfig::parse("2m").unwrap().budget, 2 << 20);
        assert_eq!(TierConfig::parse("1g").unwrap().budget, 1 << 30);
        assert_eq!(TierConfig::parse("garbage"), None);
    }
}
