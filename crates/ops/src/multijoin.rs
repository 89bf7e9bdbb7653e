//! Symmetric window join (⋈) — the second IWP operator of the paper, over
//! two or more inputs.
//!
//! The binary case implements the widely accepted semantics of Kang,
//! Naughton and Viglas (ICDE'03) adopted by the paper (Fig. 1), revised
//! with TSM registers and punctuation handling per Fig. 6; the multi-way
//! case is the one the paper's §2 leaves out "for simplicity of discussion
//! … whose treatment is however similar to that of binary joins" — here it
//! is the same operator at a higher arity.
//!
//! Each of the k inputs keeps its own time window; a new data tuple at τ
//! (the TSM minimum) probes the other windows, emitting one output row per
//! combination that satisfies the join condition, then slides into its own
//! window. The output row concatenates the inputs' columns in input order
//! whichever input probed; the timestamp comes from the probe, so the
//! output stays timestamp-ordered. When the τ-witness is **punctuation** it
//! is consumed, expires every window, and is forwarded — "when we cannot
//! generate a data tuple, we simply produce a punctuation tuple for the
//! benefit of the IWP operators down the path". Forwarded punctuation is
//! deduplicated against a *punctuation* high-water only: data emissions at
//! τ must not swallow a later punctuation witness at τ, or downstream IWP
//! operators never learn τ is closed.
//!
//! Window state lives in the shared [`JoinState`] layer: one τ-ordered
//! ring per input, expired exactly at the window floor. With an equi-key
//! class ([`MultiWindowJoin::with_keys`]) every ring is threaded with
//! per-key chains and a probe walks only the probe key's chain — probe
//! cost scales with the matching tuples, not the window length. Each
//! enumeration depth holds one cheap `Clone` cursor over its input's
//! candidates, so the odometer restarts a depth by cloning, and a probe
//! allocates nothing. The condition is
//! decomposed into conjuncts tagged with the inputs they reference, so
//! each conjunct is evaluated at the shallowest enumeration depth where
//! its inputs are bound, pruning whole combination subtrees. Enumeration
//! order is adaptive: every [`REPLAN_EVERY`] probes the inputs are
//! re-sorted by estimated candidates per probe (smallest first), shrinking
//! the enumeration frontier. The emitted multiset is order-independent —
//! every qualifying combination is emitted exactly once at the probe
//! timestamp — so adaptivity never changes observable output beyond the
//! within-probe emission order.

use millstream_buffer::TsmBank;
use millstream_types::{BinOp, Expr, Result, Row, Schema, TimeDelta, Timestamp, Tuple, Value};

use crate::context::{OpContext, Operator, Poll, StepOutcome};
use crate::join_state::{JoinState, SpillStats, TierConfig};

/// Upper bound on join arity — lets the probe loop keep its odometer and
/// candidate cursors on the stack (no per-probe allocation).
pub const MAX_ARITY: usize = 16;

/// Probes between adaptive-order re-plans.
const REPLAN_EVERY: u32 = 64;

/// One conjunct of the join condition and the inputs it references.
struct Conjunct {
    expr: Expr,
    /// Bit i set ⇔ the conjunct reads columns of input i.
    mask: u32,
}

/// The n-ary symmetric window join operator.
pub struct MultiWindowJoin {
    name: String,
    schema: Schema,
    /// Per-input window length.
    windows: Vec<TimeDelta>,
    /// Condition conjuncts over the concatenated row (all inputs, in input
    /// order). Empty = window cross product (modulo `keys`).
    conjuncts: Vec<Conjunct>,
    /// Equi-key column per input (one shared equi-class), if keyed.
    keys: Option<Vec<usize>>,
    tsm: TsmBank,
    stores: Vec<JoinState>,
    /// Column offset of each input in the concatenated row.
    offsets: Vec<usize>,
    /// High-water of forwarded punctuation only — data emissions at τ must
    /// not swallow a punctuation witness at the same τ.
    punct_high_water: Option<Timestamp>,
    probes: u64,
    /// All inputs sorted by ascending estimated candidates per probe.
    order: Vec<usize>,
    /// `depth_plan[p][s]` = conjuncts first fully bound at enumeration
    /// slot `s` when input `p` is the probe (slot 0 = probe columns only,
    /// slot d+1 = after assigning the d-th non-probe input in order).
    depth_plan: Vec<Vec<Vec<u16>>>,
    probes_since_plan: u32,
    /// Reusable full-width row image for conjunct evaluation and output
    /// assembly.
    scratch: Vec<Value>,
    /// Tier config applied to every store (`None` = hot rows only).
    tier: Option<TierConfig>,
    /// Per-enumeration-depth rehydration buffers for cold-tier candidates
    /// (reused across probes; all empty while the tier is off).
    cold: Vec<Vec<Tuple>>,
}

/// Appends the top-level AND-conjuncts of `e` to `out`.
fn flatten_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        left,
        right,
    } = e
    {
        flatten_conjuncts(left, out);
        flatten_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// ORs the input bits referenced by `e`'s column indexes into `mask`.
fn input_mask(e: &Expr, offsets: &[usize], mask: &mut u32) {
    match e {
        Expr::Column(col) => {
            // The owning input is the last offset ≤ col.
            let input = offsets.partition_point(|&o| o <= *col) - 1;
            *mask |= 1 << input;
        }
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            input_mask(left, offsets, mask);
            input_mask(right, offsets, mask);
        }
        Expr::Not(inner) | Expr::Neg(inner) | Expr::IsNull(inner) => {
            input_mask(inner, offsets, mask);
        }
    }
}

impl MultiWindowJoin {
    /// Creates an n-ary join over `input_schemas`, one window per input.
    /// The output schema concatenates the inputs with positional
    /// qualifiers `in0`, `in1`, … applied to colliding names.
    pub fn new(
        name: impl Into<String>,
        input_schemas: &[Schema],
        windows: Vec<TimeDelta>,
        condition: Option<Expr>,
    ) -> Self {
        assert!(
            input_schemas.len() >= 2,
            "multi-way join needs at least two inputs"
        );
        assert!(
            input_schemas.len() <= MAX_ARITY,
            "multi-way join supports at most {MAX_ARITY} inputs"
        );
        assert_eq!(
            input_schemas.len(),
            windows.len(),
            "one window per input required"
        );
        let mut schema = input_schemas[0].clone();
        for (i, s) in input_schemas.iter().enumerate().skip(1) {
            schema = schema.join(s, &format!("in{}", i - 1), &format!("in{i}"));
        }
        let mut offsets = Vec::with_capacity(input_schemas.len());
        let mut off = 0;
        for s in input_schemas {
            offsets.push(off);
            off += s.len();
        }
        let mut flat = Vec::new();
        if let Some(c) = &condition {
            flatten_conjuncts(c, &mut flat);
        }
        let conjuncts = flat
            .into_iter()
            .map(|expr| {
                let mut mask = 0u32;
                input_mask(&expr, &offsets, &mut mask);
                Conjunct { expr, mask }
            })
            .collect();
        let arity = input_schemas.len();
        let stores = windows.iter().map(|w| JoinState::new(*w, None)).collect();
        let mut join = MultiWindowJoin {
            name: name.into(),
            schema,
            tsm: TsmBank::new(arity),
            stores,
            windows,
            conjuncts,
            keys: None,
            offsets,
            punct_high_water: None,
            probes: 0,
            order: (0..arity).collect(),
            depth_plan: Vec::new(),
            probes_since_plan: 0,
            scratch: vec![Value::Null; off],
            tier: None,
            cold: vec![Vec::new(); arity],
        };
        join.replan();
        join
    }

    /// Hash-partitions every window on one equi-key column per input (all
    /// columns form a single equi-class, as produced by chained `a.k = b.k
    /// AND b.k = c.k` conditions). `keys[i]` indexes input i's *own* row.
    /// Key equality is enforced by the hash probe with the engine's SQL
    /// `=` semantics (nulls never match), so the extracted conjuncts need
    /// not be repeated in `condition`.
    pub fn with_keys(mut self, keys: Vec<usize>) -> Self {
        assert_eq!(keys.len(), self.arity(), "one key column per input");
        let tier = self.tier;
        self.stores = self
            .windows
            .iter()
            .zip(&keys)
            .map(|(w, k)| JoinState::with_tier(*w, Some(*k), tier))
            .collect();
        self.keys = Some(keys);
        self
    }

    /// Enables the tiered cold store on every window state (builder
    /// style). `None` keeps hot rows only.
    pub fn with_tier(mut self, tier: Option<TierConfig>) -> Self {
        self.tier = tier;
        self.stores = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let key = self.keys.as_ref().map(|k| k[i]);
                JoinState::with_tier(*w, key, tier)
            })
            .collect();
        self
    }

    /// Number of inputs.
    pub fn arity(&self) -> usize {
        self.stores.len()
    }

    /// Stored tuples in input `i`'s window — see [`JoinState::len`].
    pub fn window_len(&self, i: usize) -> usize {
        self.stores[i].len()
    }

    /// Column offset of input `i` in the concatenated output row — useful
    /// when authoring a `condition` expression against specific inputs.
    pub fn input_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Lifetime candidate tuples examined across all enumeration depths.
    /// Keyed probes examine only matching chains, so this is the measure
    /// of real probe work (sub-linear in window length when keyed).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Peak total stored tuples across all windows (lifetime high-water).
    pub fn peak_state(&self) -> usize {
        self.stores.iter().map(|s| s.peak()).sum()
    }

    /// Current enumeration order (inputs by ascending estimated
    /// candidates) — exposed for tests and benches.
    pub fn probe_order(&self) -> &[usize] {
        &self.order
    }

    fn observe_heads(&mut self, ctx: &OpContext<'_>) {
        for i in 0..self.arity() {
            if let Some(ts) = ctx.input(i).front_ts() {
                self.tsm.observe(i, ts);
            }
        }
    }

    /// Re-sorts the enumeration order by estimated candidates and rebuilds
    /// the per-probe conjunct schedule.
    fn replan(&mut self) {
        self.probes_since_plan = 0;
        self.order
            .sort_by_key(|&i| self.stores[i].estimated_candidates());
        let arity = self.arity();
        self.depth_plan.resize_with(arity, Vec::new);
        for p in 0..arity {
            let plan = &mut self.depth_plan[p];
            plan.resize_with(arity, Vec::new);
            for slots in plan.iter_mut() {
                slots.clear();
            }
            // Enumeration sequence for probe p: `order` minus p. A
            // conjunct lands in the slot where its last input is bound.
            for (ci, c) in self.conjuncts.iter().enumerate() {
                let mut slot = 0;
                for (pos, &inp) in (1..).zip(self.order.iter().filter(|&&inp| inp != p)) {
                    if c.mask & (1 << inp) != 0 {
                        slot = pos;
                    }
                }
                plan[slot].push(ci as u16);
            }
        }
    }

    fn push_punctuation(&mut self, ctx: &OpContext<'_>, ts: Timestamp) -> Result<usize> {
        if self.punct_high_water.is_some_and(|hw| ts <= hw) {
            return Ok(0);
        }
        self.punct_high_water = Some(ts);
        ctx.output_mut(0).push(Tuple::punctuation(ts))?;
        Ok(1)
    }
}

impl Operator for MultiWindowJoin {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_iwp(&self) -> bool {
        true
    }

    fn tsm_min(&self) -> Option<Timestamp> {
        self.tsm.min_tau()
    }

    fn num_inputs(&self) -> usize {
        self.arity()
    }

    fn state_tuples(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }

    fn spill_stats(&self) -> SpillStats {
        let mut acc = SpillStats::default();
        for s in &self.stores {
            acc.merge(&s.spill_stats());
        }
        acc
    }

    fn output_schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
        self.observe_heads(ctx);
        match self.tsm.min_tau() {
            None => Poll::Starved {
                starving: self.tsm.argmin(),
            },
            Some(tau) => {
                if (0..self.arity()).any(|i| ctx.input(i).front_ts() == Some(tau)) {
                    Poll::Ready
                } else {
                    Poll::Starved {
                        starving: self.tsm.argmin(),
                    }
                }
            }
        }
    }

    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
        self.observe_heads(ctx);
        let Some(tau) = self.tsm.min_tau() else {
            return Ok(StepOutcome::default());
        };

        // Prefer a data witness of τ.
        let mut data_input = None;
        let mut punct_input = None;
        for i in 0..self.arity() {
            let input = ctx.input(i);
            if let Some(head) = input.front() {
                if head.ts == tau {
                    if head.is_data() {
                        data_input = Some(i);
                        break;
                    }
                    punct_input.get_or_insert(i);
                }
            }
        }

        if let Some(i) = data_input {
            let probe = ctx.input_mut(i).pop().expect("head checked");
            for st in self.stores.iter_mut() {
                st.advance(probe.ts);
            }
            self.probes_since_plan += 1;
            if self.probes_since_plan >= REPLAN_EVERY {
                self.replan();
            }

            let arity = self.arity();
            let m = arity - 1;
            let width = self.scratch.len();
            let pvals = probe.values_expect();
            let off = self.offsets[i];
            self.scratch[off..off + pvals.len()].clone_from_slice(pvals);
            let probe_key: Option<&Value> = self.keys.as_ref().map(|k| &pvals[k[i]]);

            let mut produced = 0usize;
            let mut work = 0usize;
            let plan = &self.depth_plan[i];

            // Conjuncts bound by the probe alone gate the whole probe.
            let mut live = true;
            for &ci in &plan[0] {
                if !self.conjuncts[ci as usize]
                    .expr
                    .eval_predicate(&self.scratch)?
                {
                    live = false;
                    break;
                }
            }

            if live {
                // One cursor per enumeration depth: depth d binds input
                // seq[d]. A cursor yields the depth's cold-tier rows
                // (rehydrated into the reused `cold` buffer, empty while
                // the tier is off) then its hot chain — ascending
                // timestamps, exactly an untiered store's chain order —
                // and cloning `start[d]` restarts it for free.
                let mut start: [Option<_>; MAX_ARITY] = std::array::from_fn(|_| None);
                let mut seq = [0usize; MAX_ARITY];
                let order = self.order.iter().filter(|&&inp| inp != i);
                for (d, (&inp, buf)) in order.zip(self.cold.iter_mut()).enumerate() {
                    seq[d] = inp;
                    start[d] = Some(self.stores[inp].probe(probe_key, buf)?);
                }
                let mut cur: [Option<_>; MAX_ARITY] = std::array::from_fn(|_| None);
                cur[0] = start[0].clone();

                // Odometer over the depths; conjuncts fire at the
                // shallowest depth where all their inputs are bound,
                // pruning subtrees early.
                let mut d = 0usize;
                let mut probes = 0u64;
                loop {
                    let Some(t) = cur[d].as_mut().and_then(Iterator::next) else {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                        continue;
                    };
                    probes += 1;
                    work += 1;
                    let o = self.offsets[seq[d]];
                    let vals = t.values_expect();
                    self.scratch[o..o + vals.len()].clone_from_slice(vals);
                    let mut pass = true;
                    for &ci in &plan[d + 1] {
                        if !self.conjuncts[ci as usize]
                            .expr
                            .eval_predicate(&self.scratch)?
                        {
                            pass = false;
                            break;
                        }
                    }
                    if !pass {
                        continue;
                    }
                    if d + 1 == m {
                        let mut builder = Row::builder(width);
                        builder.extend_from_slice(&self.scratch);
                        let out = Tuple::data_with_entry(probe.ts, probe.entry, builder.finish());
                        ctx.output_mut(0).push(out)?;
                        produced += 1;
                    } else {
                        d += 1;
                        cur[d] = start[d].clone();
                    }
                }
                self.probes += probes;
            }

            self.stores[i].insert(probe);
            return Ok(StepOutcome {
                consumed: 1,
                produced,
                work,
            });
        }
        if let Some(i) = punct_input {
            ctx.input_mut(i).pop();
            for st in self.stores.iter_mut() {
                st.purge(tau);
            }
            let produced = self.push_punctuation(ctx, tau)?;
            return Ok(StepOutcome {
                consumed: 1,
                produced,
                work: 0,
            });
        }
        Ok(StepOutcome::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_buffer::Buffer;
    use millstream_types::{DataType, Field};
    use std::cell::RefCell;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("k", DataType::Int)])
    }

    fn data(ts: u64, k: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(k)])
    }

    fn punct(ts: u64) -> Tuple {
        Tuple::punctuation(Timestamp::from_micros(ts))
    }

    struct Rig {
        bufs: Vec<RefCell<Buffer>>,
        out: RefCell<Buffer>,
    }

    impl Rig {
        fn new(arity: usize) -> Self {
            Rig {
                bufs: (0..arity)
                    .map(|i| RefCell::new(Buffer::new(format!("in{i}"))))
                    .collect(),
                out: RefCell::new(Buffer::new("out")),
            }
        }

        fn push(&self, input: usize, t: Tuple) {
            self.bufs[input].borrow_mut().push(t).unwrap();
        }

        fn drain(&self, j: &mut MultiWindowJoin) -> Vec<Tuple> {
            let inputs: Vec<&RefCell<Buffer>> = self.bufs.iter().collect();
            let outputs = [&self.out];
            let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
            while j.poll(&ctx).is_ready() {
                j.step(&ctx).unwrap();
            }
            let mut got = vec![];
            while let Some(t) = self.out.borrow_mut().pop() {
                got.push(t);
            }
            got
        }
    }

    fn join3(condition: Option<Expr>) -> MultiWindowJoin {
        MultiWindowJoin::new(
            "⋈3",
            &[schema(), schema(), schema()],
            vec![TimeDelta::from_micros(100); 3],
            condition,
        )
    }

    /// The binary join: arity 2, one `k` column per side.
    fn join2(window_us: u64, condition: Option<Expr>) -> MultiWindowJoin {
        MultiWindowJoin::new(
            "⋈",
            &[schema(), schema()],
            vec![TimeDelta::from_micros(window_us); 2],
            condition,
        )
    }

    fn data_rows(out: &[Tuple]) -> Vec<&Tuple> {
        out.iter().filter(|t| t.is_data()).collect()
    }

    #[test]
    fn output_schema_concatenates_with_qualifiers() {
        let j = join3(None);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.input_offset(0), 0);
        assert_eq!(j.input_offset(2), 2);
        let s = j.output_schema();
        assert_eq!(s.len(), 3);
        // All three columns named `k` collide and get qualified.
        assert!(s.field(0).unwrap().name.contains('k'));
        assert_ne!(s.field(0).unwrap().name, s.field(2).unwrap().name);
    }

    #[test]
    fn three_way_match_within_windows() {
        let rig = Rig::new(3);
        // Equality across all three inputs via a condition expression.
        let cond = Expr::col(0)
            .eq(Expr::col(1))
            .and(Expr::col(1).eq(Expr::col(2)));
        let mut j = join3(Some(cond));
        rig.bufs[0].borrow_mut().push(data(1, 7)).unwrap();
        rig.bufs[1].borrow_mut().push(data(2, 7)).unwrap();
        rig.bufs[2].borrow_mut().push(data(3, 7)).unwrap();
        // Close the other inputs past 3 so the last probe can run.
        rig.bufs[0].borrow_mut().push(punct(10)).unwrap();
        rig.bufs[1].borrow_mut().push(punct(10)).unwrap();
        let out = rig.drain(&mut j);
        let datas: Vec<&Tuple> = out.iter().filter(|t| t.is_data()).collect();
        assert_eq!(datas.len(), 1, "one (7,7,7) combination");
        assert_eq!(datas[0].ts.as_micros(), 3, "probe timestamp");
        assert_eq!(
            datas[0].values().unwrap(),
            &[Value::Int(7), Value::Int(7), Value::Int(7)]
        );
    }

    /// Drives `arity` inputs with one tuple each per µs for `steps` µs,
    /// keyed by `key(step)`, with punctuation on every input once per
    /// window (the purge driver). Keyed installs the equi-key as per-key
    /// chains; otherwise the same equality is a conjunct chain over the
    /// concatenated row. Returns the sorted data rows, the candidate
    /// tuples examined and the peak stored state.
    fn equi_join_run(
        arity: usize,
        window: u64,
        steps: u64,
        keyed: bool,
        key: fn(u64) -> i64,
    ) -> (Vec<(u64, Vec<Value>)>, u64, usize) {
        let rig = Rig::new(arity);
        let schemas = vec![schema(); arity];
        let windows = vec![TimeDelta::from_micros(window); arity];
        let mut j = if keyed {
            MultiWindowJoin::new("⋈", &schemas, windows, None).with_keys(vec![0; arity])
        } else {
            let chain = (1..arity)
                .map(|i| Expr::col(i - 1).eq(Expr::col(i)))
                .reduce(Expr::and);
            MultiWindowJoin::new("⋈", &schemas, windows, chain)
        };
        let mut rows = Vec::new();
        for step in 0..steps {
            for input in 0..arity {
                rig.push(input, data(step, key(step)));
                if step > 0 && step.is_multiple_of(window) {
                    rig.push(input, punct(step));
                }
            }
            rows.extend(
                rig.drain(&mut j)
                    .iter()
                    .filter(|t| t.is_data())
                    .map(|t| (t.ts.as_micros(), t.values().unwrap().to_vec())),
            );
        }
        rows.sort();
        (rows, j.probes(), j.peak_state())
    }

    #[test]
    fn keyed_agrees_with_condition_form_in_bounded_state() {
        // Arity × window × key skew: fresh key per step, 16 cycling keys,
        // and half the traffic on one hot key.
        let unique: fn(u64) -> i64 = |step| step as i64;
        let uniform: fn(u64) -> i64 = |step| (step % 16) as i64;
        let hot: fn(u64) -> i64 = |step| {
            if step.is_multiple_of(2) {
                0
            } else {
                1 + ((step / 2) % 15) as i64
            }
        };
        let cells = [
            (2, 16, unique),
            (3, 16, unique),
            (4, 16, unique),
            (4, 64, unique),
            (3, 16, uniform),
            (3, 16, hot),
        ];
        for (arity, window, key) in cells {
            let steps = (4 * window).max(64);
            let (keyed_rows, keyed_probes, keyed_peak) =
                equi_join_run(arity, window, steps, true, key);
            let (scan_rows, scan_probes, _) = equi_join_run(arity, window, steps, false, key);
            assert!(!keyed_rows.is_empty(), "{arity}-ary × {window} µs joins");
            assert_eq!(keyed_rows, scan_rows, "{arity}-ary × {window} µs");
            // Purge contract: expiry is exact at the floor, so each input
            // retains at most window + 1 timestamps' rows (one per µs) plus
            // the in-flight probe tuple, however long the run.
            let bound = arity * (window as usize + 2);
            assert!(
                keyed_peak <= bound,
                "peak state {keyed_peak} exceeds purge bound {bound} ({arity}-ary × {window} µs)"
            );
            if (arity, window) == (4, 64) {
                assert!(
                    scan_probes >= 5 * keyed_probes,
                    "keyed probing must examine ≥5x fewer candidates at the largest cell \
                     ({keyed_probes} keyed vs {scan_probes} scan)"
                );
            }
        }
    }

    #[test]
    fn cross_product_counts_combinations() {
        let rig = Rig::new(3);
        let mut j = join3(None);
        // Two tuples in each of inputs 0 and 1, then one probe on input 2.
        for ts in [1u64, 2] {
            rig.bufs[0].borrow_mut().push(data(ts, ts as i64)).unwrap();
        }
        for ts in [3u64, 4] {
            rig.bufs[1].borrow_mut().push(data(ts, ts as i64)).unwrap();
        }
        rig.bufs[2].borrow_mut().push(data(5, 9)).unwrap();
        rig.bufs[0].borrow_mut().push(punct(10)).unwrap();
        rig.bufs[1].borrow_mut().push(punct(10)).unwrap();
        let out = rig.drain(&mut j);
        let datas: Vec<&Tuple> = out.iter().filter(|t| t.is_data()).collect();
        // The probe at ts 5 pairs with {1,2} × {3,4} = 4 combinations.
        assert_eq!(datas.len(), 4);
        assert!(datas.iter().all(|t| t.ts.as_micros() == 5));
    }

    #[test]
    fn expiry_prunes_old_windows() {
        let rig = Rig::new(3);
        let mut j = join3(None);
        rig.bufs[0].borrow_mut().push(data(1, 1)).unwrap();
        rig.bufs[1].borrow_mut().push(data(2, 2)).unwrap();
        // Probe far beyond the 100 µs windows.
        rig.bufs[2].borrow_mut().push(data(500, 3)).unwrap();
        rig.bufs[0].borrow_mut().push(punct(600)).unwrap();
        rig.bufs[1].borrow_mut().push(punct(600)).unwrap();
        let out = rig.drain(&mut j);
        assert!(
            out.iter().all(|t| t.is_punctuation()),
            "stale windows expired"
        );
        assert_eq!(j.window_len(0), 0);
        assert_eq!(j.window_len(1), 0);
    }

    #[test]
    fn punctuation_flows_and_dedupes() {
        let rig = Rig::new(3);
        let mut j = join3(None);
        for b in &rig.bufs {
            b.borrow_mut().push(punct(50)).unwrap();
        }
        let out = rig.drain(&mut j);
        assert_eq!(out.len(), 1, "one forwarded ETS for three inputs");
        assert!(out[0].is_punctuation());
        assert_eq!(out[0].ts.as_micros(), 50);
    }

    #[test]
    fn punctuation_after_same_ts_data_is_forwarded() {
        // Regression: a data emission at τ used to advance the shared
        // high-water, swallowing a punctuation witness at the same τ.
        let rig = Rig::new(3);
        let cond = Expr::col(0)
            .eq(Expr::col(1))
            .and(Expr::col(1).eq(Expr::col(2)));
        let mut j = join3(Some(cond));
        rig.bufs[0].borrow_mut().push(data(1, 7)).unwrap();
        rig.bufs[1].borrow_mut().push(data(2, 7)).unwrap();
        rig.bufs[2].borrow_mut().push(data(3, 7)).unwrap();
        rig.bufs[0].borrow_mut().push(punct(3)).unwrap();
        rig.bufs[1].borrow_mut().push(punct(3)).unwrap();
        let out = rig.drain(&mut j);
        // The probe at τ=3 emits the combination; the punctuation
        // witnesses at τ=3 must still close τ downstream.
        assert_eq!(out.len(), 2, "data then forwarded punct: {out:?}");
        assert!(out[0].is_data());
        assert_eq!(out[0].ts.as_micros(), 3);
        assert!(out[1].is_punctuation());
        assert_eq!(out[1].ts.as_micros(), 3);
    }

    #[test]
    fn starves_until_all_inputs_heard() {
        let rig = Rig::new(3);
        let mut j = join3(None);
        rig.bufs[0].borrow_mut().push(data(1, 1)).unwrap();
        rig.bufs[1].borrow_mut().push(data(1, 1)).unwrap();
        let inputs: Vec<&RefCell<Buffer>> = rig.bufs.iter().collect();
        let outputs = [&rig.out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        assert_eq!(j.poll(&ctx), Poll::starved_on(2));
    }

    #[test]
    #[should_panic(expected = "at least two inputs")]
    fn rejects_unary() {
        let _ = MultiWindowJoin::new("x", &[schema()], vec![TimeDelta::ZERO], None);
    }

    #[test]
    fn binary_window_expiry_prevents_stale_matches() {
        let rig = Rig::new(2);
        let mut j = join2(10, None).with_keys(vec![0, 0]);
        rig.push(0, data(1, 7));
        rig.push(1, data(50, 7));
        // Give input 0 a second tuple so τ reaches 50.
        rig.push(0, data(60, 8));
        let out = rig.drain(&mut j);
        assert!(out.is_empty(), "ts 1 expired before probe at 50");
        assert_eq!(j.window_len(1), 1);
    }

    #[test]
    fn binary_residual_predicate_filters_pairs() {
        let rig = Rig::new(2);
        // Join where in0.k < in1.k (columns 0 and 1 of the joined row).
        let mut j = join2(100, Some(Expr::col(0).lt(Expr::col(1))));
        rig.push(0, data(1, 5));
        rig.push(0, punct(5));
        rig.push(1, data(2, 3));
        rig.push(1, data(2, 9));
        let out = rig.drain(&mut j);
        let datas = data_rows(&out);
        assert_eq!(datas.len(), 1);
        assert_eq!(
            datas[0].values().unwrap(),
            &[Value::Int(5), Value::Int(9)],
            "row layout is input order regardless of probe side"
        );
    }

    #[test]
    fn binary_punctuation_expires_windows() {
        let rig = Rig::new(2);
        let mut j = join2(10, None);
        rig.push(0, data(1, 1));
        rig.push(0, punct(3));
        rig.push(1, data(2, 2));
        rig.drain(&mut j);
        assert_eq!(j.window_len(0), 1);
        assert_eq!(j.window_len(1), 1);
        // ETS far in the future on both inputs expires everything.
        rig.push(0, punct(1_000));
        rig.push(1, punct(1_000));
        rig.drain(&mut j);
        assert_eq!(j.window_len(0), 0);
        assert_eq!(j.window_len(1), 0);
    }

    #[test]
    fn binary_nulls_never_join_on_key() {
        let rig = Rig::new(2);
        let mut j = join2(100, None).with_keys(vec![0, 0]);
        rig.push(0, Tuple::data(Timestamp::from_micros(1), vec![Value::Null]));
        rig.push(1, Tuple::data(Timestamp::from_micros(2), vec![Value::Null]));
        let out = rig.drain(&mut j);
        assert!(out.is_empty());
    }

    #[test]
    fn binary_simultaneous_tuples_join_both_ways() {
        let rig = Rig::new(2);
        let mut j = join2(100, None);
        rig.push(0, data(5, 1));
        rig.push(1, data(5, 2));
        let out = rig.drain(&mut j);
        // One of the two orders: first probe sees an empty opposite window,
        // second probe matches — exactly one result either way.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts.as_micros(), 5);
    }

    #[test]
    fn binary_keyed_probe_touches_only_its_bucket() {
        let rig = Rig::new(2);
        let mut j = join2(1_000, None).with_keys(vec![0, 0]);
        // 20 tuples across 4 keys in input 0's window, then one probe for
        // key 2.
        for ts in 0..20u64 {
            rig.push(0, data(ts, (ts % 4) as i64));
        }
        rig.push(0, punct(50));
        rig.push(1, data(30, 2));
        let out = rig.drain(&mut j);
        assert_eq!(data_rows(&out).len(), 5, "ts {{2, 6, 10, 14, 18}} match");
        assert_eq!(j.probes(), 5, "hash probe examined only the key-2 chain");
    }

    #[test]
    fn adaptive_order_prefers_small_windows() {
        let rig = Rig::new(3);
        let mut j = join3(None).with_keys(vec![0, 0, 0]);
        // Input 2 accumulates far more state than inputs 0 and 1; after a
        // re-plan it must be probed last.
        let mut ts = 0u64;
        for round in 0..80u64 {
            ts += 1;
            rig.bufs[2].borrow_mut().push(data(ts, 1)).unwrap();
            if round % 8 == 0 {
                ts += 1;
                rig.bufs[0].borrow_mut().push(data(ts, 2)).unwrap();
                ts += 1;
                rig.bufs[1].borrow_mut().push(data(ts, 3)).unwrap();
            }
            rig.bufs[0].borrow_mut().push(punct(ts + 1)).unwrap();
            rig.bufs[1].borrow_mut().push(punct(ts + 1)).unwrap();
            rig.drain(&mut j);
        }
        let order = j.probe_order();
        assert_eq!(order[2], 2, "fattest input probed last: {order:?}");
    }

    #[test]
    fn stale_estimate_does_not_flip_probe_order() {
        // Regression for the probe-order estimate bug: keyed
        // `estimated_candidates()` used to divide a *physical* count that
        // only shrank at periodic sweeps by the live keys. An input whose
        // window content had logically expired kept its stale count and
        // was ranked as the fattest input, pushing the genuinely cheapest
        // store to the end of the enumeration order.
        let rig = Rig::new(3);
        let mut j = MultiWindowJoin::new(
            "⋈3",
            &[schema(), schema(), schema()],
            vec![TimeDelta::from_micros(1_000); 3],
            None,
        )
        .with_keys(vec![0, 0, 0]);
        // Input 0: a 200-tuple burst that will be dead by the probe
        // phase. Distinct keys per input avoid any matches.
        for ts in 1..=200u64 {
            rig.bufs[0].borrow_mut().push(data(ts, 1)).unwrap();
        }
        rig.bufs[0].borrow_mut().push(data(1470, 1)).unwrap();
        // Input 1: a small fresh batch that stays live.
        for ts in 1391..=1400u64 {
            rig.bufs[1].borrow_mut().push(data(ts, 2)).unwrap();
        }
        rig.bufs[1].borrow_mut().push(data(1470, 2)).unwrap();
        // Input 2 drives enough probes at ts ≈ 1400+ to cross a re-plan
        // boundary; the floor passes input 0's whole burst (≈ 470 µs).
        for ts in 1401..=1468u64 {
            rig.bufs[2].borrow_mut().push(data(ts, 3)).unwrap();
        }
        let out = rig.drain(&mut j);
        assert!(out.is_empty(), "keys are disjoint, no matches expected");
        // τ stops at 1468 (input 2's last tuple), floor 468: the burst is
        // gone and input 0's 1470 tuple is still queued.
        assert_eq!(j.window_len(0), 0, "input 0's burst expired at the floor");
        assert_eq!(j.window_len(1), 10);
        let order = j.probe_order();
        let pos = |input: usize| order.iter().position(|&p| p == input).unwrap();
        // Input 0 holds nothing — by far the cheapest store. A stale
        // count (200+ tuples) used to rank it behind the genuinely fatter
        // inputs 1 and 2.
        assert!(
            pos(0) < pos(1),
            "mostly-expired input 0 must rank cheaper than live input 1: {order:?}"
        );
        assert!(
            pos(0) < pos(2),
            "mostly-expired input 0 must rank cheapest of all: {order:?}"
        );
    }
}
