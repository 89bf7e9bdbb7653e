//! Windowed grouped aggregation — a punctuation-consuming extension
//! operator — computed over **panes**.
//!
//! The paper restricts its discussion to union and join "due to space
//! limitations" but notes that *other* IWP/punctuation-sensitive operators
//! exist. Windowed aggregation is the classic one: results for a window
//! ending at `e` can only be emitted once time provably passed `e`, which
//! a sparse stream may take arbitrarily long to witness with data —
//! exactly the situation ETS punctuation fixes.
//!
//! A sliding window of length `W` advancing every `S` (with `W = k·S`) is
//! evaluated pane-wise: the stream is cut into disjoint `S`-sized panes,
//! each pane keeps per-group partial aggregates, and the window result at a
//! boundary `e` merges the `k` panes covering `[e − W, e)`. Each input
//! tuple is folded into exactly one pane, so the cost per window is `O(k)`
//! merges instead of re-scanning `W` worth of tuples — the classic
//! paired/pane optimization for overlapping windows. A tumbling window is
//! the one-pane case `W = S`.
//!
//! Emission is driven by stream time — data *or punctuation* crossing a
//! slide boundary — which is precisely where on-demand ETS pays off on
//! sparse streams.

use std::collections::{BTreeMap, VecDeque};

use millstream_types::{
    DataType, Error, Expr, Field, Result, Row, Schema, TimeDelta, Timestamp, Tuple, Value,
};

use crate::aggregate::{AggExpr, AggFunc, AggState};
use crate::context::{OpContext, Operator, Poll, StepOutcome};

/// Keys are [`Row`]s so narrow group keys build and compare without
/// touching the heap.
type Groups = BTreeMap<Row, Vec<AggState>>;

/// Pane-based windowed grouped aggregation: sliding for `W = k·S`,
/// tumbling for `W = S`.
pub struct SlidingAggregate {
    name: String,
    window: TimeDelta,
    slide: TimeDelta,
    group_by: Vec<Expr>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    /// Start of the currently open pane.
    pane_start: Option<Timestamp>,
    /// Closed panes, oldest first: (pane start, per-group partials). At
    /// most `k − 1` panes are retained.
    panes: VecDeque<(Timestamp, Groups)>,
    /// The open pane's per-group partials.
    current: Groups,
    windows_emitted: u64,
}

impl SlidingAggregate {
    /// Creates a sliding aggregate. `window` must be a positive integer
    /// multiple of `slide`.
    pub fn new(
        name: impl Into<String>,
        input_schema: &Schema,
        window: TimeDelta,
        slide: TimeDelta,
        group_by: Vec<(String, Expr)>,
        aggs: Vec<AggExpr>,
    ) -> Result<Self> {
        if slide.is_zero() || window.is_zero() {
            return Err(Error::config("window and slide must be positive"));
        }
        if !window.as_micros().is_multiple_of(slide.as_micros()) {
            return Err(Error::config(format!(
                "window ({window}) must be an integer multiple of slide ({slide})"
            )));
        }
        let mut fields = Vec::with_capacity(1 + group_by.len() + aggs.len());
        fields.push(Field::new("window_start", DataType::Int));
        for (n, e) in &group_by {
            fields.push(Field::new(n.clone(), e.infer_type(input_schema)?));
        }
        for a in &aggs {
            let arg_ty = match a.func {
                AggFunc::Count => DataType::Int,
                _ => a.arg.infer_type(input_schema)?,
            };
            fields.push(Field::new(a.name.clone(), a.func.result_type(arg_ty)));
        }
        Ok(SlidingAggregate {
            name: name.into(),
            window,
            slide,
            group_by: group_by.into_iter().map(|(_, e)| e).collect(),
            aggs,
            schema: Schema::new(fields),
            pane_start: None,
            panes: VecDeque::new(),
            current: Groups::new(),
            windows_emitted: 0,
        })
    }

    /// Number of panes per window (k = W / S).
    pub fn panes_per_window(&self) -> u64 {
        self.window.as_micros() / self.slide.as_micros()
    }

    /// Windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted
    }

    /// Closed panes currently retained.
    pub fn retained_panes(&self) -> usize {
        self.panes.len()
    }

    /// Aligns a timestamp down to a slide boundary.
    fn align(&self, ts: Timestamp) -> Timestamp {
        let s = self.slide.as_micros();
        Timestamp::from_micros(ts.as_micros() / s * s)
    }

    /// Advances pane/window state so that stream time `ts` is inside the
    /// open pane, emitting every window whose boundary was crossed.
    fn advance_to(&mut self, ctx: &OpContext<'_>, ts: Timestamp) -> Result<usize> {
        let Some(mut start) = self.pane_start else {
            self.pane_start = Some(self.align(ts));
            return Ok(0);
        };
        let mut produced = 0;
        // Saturating arithmetic throughout: an end-of-stream punctuation
        // may carry Timestamp::MAX.
        while ts >= start.saturating_add(self.slide) && start < Timestamp::MAX {
            // Close the open pane.
            let closing = std::mem::take(&mut self.current);
            self.panes.push_back((start, closing));
            let boundary = start.saturating_add(self.slide);

            // Emit the window ending at `boundary` from the last k panes.
            produced += self.emit_window(ctx, boundary)?;

            // Retire panes that no future window reaches.
            let keep_from = boundary
                .saturating_add(self.slide)
                .saturating_sub(self.window);
            while self.panes.front().is_some_and(|(s, _)| *s < keep_from) {
                self.panes.pop_front();
            }

            start = start.saturating_add(self.slide);
            self.pane_start = Some(start);

            // Fast-forward across long empty gaps once nothing is retained.
            if self.panes.iter().all(|(_, g)| g.is_empty()) && self.current.is_empty() {
                self.panes.clear();
                let target = self.align(ts);
                if target > start {
                    start = target;
                    self.pane_start = Some(start);
                }
            }
        }
        Ok(produced)
    }

    /// Merges the retained panes covering `[boundary − W, boundary)` and
    /// emits one row per group, stamped at the boundary.
    fn emit_window(&mut self, ctx: &OpContext<'_>, boundary: Timestamp) -> Result<usize> {
        let from = boundary.saturating_sub(self.window);
        let mut merged: Groups = Groups::new();
        for (start, groups) in &self.panes {
            if *start < from || *start >= boundary {
                continue;
            }
            for (key, states) in groups {
                match merged.get_mut(key) {
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(states) {
                            a.merge(b)?;
                        }
                    }
                    None => {
                        merged.insert(key.clone(), states.clone());
                    }
                }
            }
        }
        if merged.is_empty() {
            return Ok(0);
        }
        let mut produced = 0;
        for (key, states) in merged {
            let mut row = Row::builder(1 + key.len() + states.len());
            row.push(Value::Int(from.as_micros() as i64));
            row.extend_from_slice(&key);
            for s in states {
                row.push(s.finish());
            }
            ctx.output_mut(0)
                .push(Tuple::data(boundary, row.finish()))?;
            produced += 1;
        }
        self.windows_emitted += 1;
        Ok(produced)
    }
}

impl Operator for SlidingAggregate {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn is_time_driven(&self) -> bool {
        true
    }

    /// The next slide boundary to emit is `pane_start + slide`; every
    /// window still pending emits at or after it.
    fn frontier_hold(&self) -> Option<Timestamp> {
        match self.pane_start {
            Some(start) if start != Timestamp::MAX => Some(start.saturating_add(self.slide)),
            _ => None,
        }
    }

    fn output_schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
        if ctx.input(0).is_empty() {
            Poll::starved_on(0)
        } else {
            Poll::Ready
        }
    }

    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
        let Some(tuple) = ctx.input_mut(0).pop() else {
            return Ok(StepOutcome::default());
        };
        let mut produced = self.advance_to(ctx, tuple.ts)?;
        match tuple.values() {
            None => {
                ctx.output_mut(0).push(tuple)?;
                produced += 1;
            }
            Some(row) => {
                let mut key = Row::builder(self.group_by.len());
                for g in &self.group_by {
                    key.push(g.eval(row)?);
                }
                let states = self
                    .current
                    .entry(key.finish())
                    .or_insert_with(|| self.aggs.iter().map(|a| AggState::new(a.func)).collect());
                for (state, agg) in states.iter_mut().zip(self.aggs.iter()) {
                    let v = match agg.func {
                        AggFunc::Count => Value::Int(1),
                        _ => agg.arg.eval(row)?,
                    };
                    state.update(v)?;
                }
            }
        }
        Ok(StepOutcome {
            consumed: 1,
            produced,
            work: produced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_buffer::Buffer;
    use std::cell::RefCell;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
    }

    fn sliding(window_us: u64, slide_us: u64) -> SlidingAggregate {
        SlidingAggregate::new(
            "γs",
            &schema(),
            TimeDelta::from_micros(window_us),
            TimeDelta::from_micros(slide_us),
            vec![("k".into(), Expr::col(0))],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: Expr::col(1),
                    name: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Expr::col(1),
                    name: "s".into(),
                },
            ],
        )
        .unwrap()
    }

    fn data(ts: u64, k: i64, v: i64) -> Tuple {
        Tuple::data(
            Timestamp::from_micros(ts),
            vec![Value::Int(k), Value::Int(v)],
        )
    }

    /// Feeds `tuples` through `a` and returns everything it emitted.
    fn drain(a: &mut SlidingAggregate, tuples: Vec<Tuple>) -> Vec<Tuple> {
        let input = RefCell::new(Buffer::new("in"));
        let output = RefCell::new(Buffer::new("out"));
        for t in tuples {
            input.borrow_mut().push(t).unwrap();
        }
        let inputs = [&input];
        let outputs = [&output];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        while a.poll(&ctx).is_ready() {
            a.step(&ctx).unwrap();
        }
        let mut out = vec![];
        while let Some(t) = output.borrow_mut().pop() {
            out.push(t);
        }
        out
    }

    /// The data rows `a` emits for `tuples`, as (window_start, k, n, s).
    fn run(a: &mut SlidingAggregate, tuples: Vec<Tuple>) -> Vec<(i64, i64, i64, i64)> {
        drain(a, tuples)
            .iter()
            .filter_map(|t| t.values())
            .map(|r| {
                (
                    r[0].as_int().unwrap(),
                    r[1].as_int().unwrap(),
                    r[2].as_int().unwrap(),
                    r[3].as_int().unwrap(),
                )
            })
            .collect()
    }

    /// `func` over column `v`.
    fn agg(func: AggFunc, name: &str) -> AggExpr {
        AggExpr {
            func,
            arg: Expr::col(1),
            name: name.into(),
        }
    }

    /// A tumbling window (`W = S` = 100 µs) grouped by `k`.
    fn tumbling() -> SlidingAggregate {
        SlidingAggregate::new(
            "γ",
            &schema(),
            TimeDelta::from_micros(100),
            TimeDelta::from_micros(100),
            vec![("k".into(), Expr::col(0))],
            vec![
                agg(AggFunc::Count, "n"),
                agg(AggFunc::Sum, "total"),
                agg(AggFunc::Avg, "mean"),
            ],
        )
        .unwrap()
    }

    fn eos(ts: u64) -> Tuple {
        Tuple::punctuation(Timestamp::from_micros(ts))
    }

    #[test]
    fn validates_parameters() {
        let mk = |w: u64, s: u64| {
            SlidingAggregate::new(
                "x",
                &schema(),
                TimeDelta::from_micros(w),
                TimeDelta::from_micros(s),
                vec![],
                vec![],
            )
        };
        assert!(mk(100, 0).is_err());
        assert!(matches!(mk(0, 10), Err(Error::Config(_))));
        assert!(mk(100, 30).is_err(), "not a multiple");
        assert!(mk(100, 50).is_ok());
        assert_eq!(mk(100, 25).unwrap().panes_per_window(), 4);
    }

    #[test]
    fn degenerates_to_tumbling_when_window_equals_slide() {
        let mut s = sliding(100, 100);
        let rows = run(
            &mut s,
            vec![
                data(10, 1, 5),
                data(20, 1, 7),
                data(150, 1, 100),
                eos(1_000),
            ],
        );
        // Window [0,100): n=2, s=12. Window [100,200): n=1, s=100.
        assert_eq!(rows, vec![(0, 1, 2, 12), (100, 1, 1, 100)]);
    }

    #[test]
    fn overlapping_windows_count_tuples_multiply() {
        // W = 200, S = 100: each tuple appears in two windows.
        let mut s = sliding(200, 100);
        let rows = run(&mut s, vec![data(50, 1, 10), data(150, 1, 20), eos(1_000)]);
        // Boundary 100: window [−100..0? no: [boundary−200, boundary) = wraps
        // below zero → saturates to 0 for the label: [0,100) pane only.
        //   → (window_start 0, n=1, s=10) — window covering ts 50.
        // Boundary 200: window [0,200): both tuples.
        // Boundary 300: window [100,300): the 150-tuple.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].2, 1);
        assert_eq!(rows[0].3, 10);
        assert_eq!(rows[1], (0, 1, 2, 30));
        assert_eq!(rows[2], (100, 1, 1, 20));
    }

    #[test]
    fn groups_stay_separate_across_panes() {
        let mut s = sliding(200, 100);
        let rows = run(&mut s, vec![data(50, 1, 1), data(150, 2, 2), eos(1_000)]);
        // Boundary 200 window [0,200) has both groups.
        let b200: Vec<_> = rows.iter().filter(|r| r.0 == 0 && r.2 == 1).collect();
        assert!(b200.len() >= 2, "rows {rows:?}");
    }

    #[test]
    fn punctuation_drives_emission_and_is_forwarded() {
        let mut s = sliding(100, 100);
        let tuples = drain(&mut s, vec![data(10, 1, 5), eos(500)]);
        // The ETS at 500 closes window [0,100): one result + the forwarded
        // punctuation.
        assert_eq!(tuples.len(), 2);
        assert!(tuples[0].is_data());
        assert_eq!(tuples[0].ts.as_micros(), 100);
        assert!(tuples[1].is_punctuation());
        assert_eq!(tuples[1].ts.as_micros(), 500);
        assert!(s.current.is_empty(), "no group left open");
    }

    #[test]
    fn long_gaps_fast_forward_without_empty_output() {
        let mut s = sliding(100, 10);
        let rows = run(
            &mut s,
            vec![data(5, 1, 1), data(10_000_000, 1, 2), eos(20_000_000)],
        );
        // The first tuple appears in k=10 overlapping windows; the second in
        // 10 more; no empty windows in between are emitted.
        assert_eq!(rows.len(), 20, "rows {rows:?}");
        assert!(s.retained_panes() <= 10);
    }

    #[test]
    fn avg_merges_correctly_across_panes() {
        let mut s = SlidingAggregate::new(
            "γs",
            &schema(),
            TimeDelta::from_micros(200),
            TimeDelta::from_micros(100),
            vec![],
            vec![AggExpr {
                func: AggFunc::Avg,
                arg: Expr::col(1),
                name: "m".into(),
            }],
        )
        .unwrap();
        // Pane [0,100): 10; pane [100,200): 30 → window [0,200) avg = 20.
        let out = drain(&mut s, vec![data(50, 0, 10), data(150, 0, 30), eos(1_000)]);
        let avgs: Vec<(i64, f64)> = out
            .iter()
            .filter_map(|t| t.values())
            .map(|r| (r[0].as_int().unwrap(), r[1].as_float().unwrap()))
            .collect();
        assert!(avgs.contains(&(0, 20.0)), "avgs {avgs:?}");
    }

    #[test]
    fn survives_end_of_stream_punctuation_at_max() {
        let mut s = sliding(200, 100);
        let rows = run(
            &mut s,
            vec![data(50, 1, 10), Tuple::punctuation(Timestamp::MAX)],
        );
        // Both overlapping windows containing the tuple flush.
        assert_eq!(rows.len(), 2, "rows {rows:?}");

        // Timestamp::MAX is the natural end-of-stream marker; boundary
        // arithmetic must saturate rather than overflow.
        let out = drain(
            &mut tumbling(),
            vec![data(10, 1, 5), Tuple::punctuation(Timestamp::MAX)],
        );
        assert_eq!(out.len(), 2, "flush + forwarded EOS");
        assert!(out[0].is_data());
        assert!(out[1].is_punctuation());
    }

    #[test]
    fn output_is_timestamp_ordered() {
        let mut s = sliding(300, 100);
        let input: Vec<Tuple> = (0..50)
            .map(|i| data(37 * i, (i % 3) as i64, i as i64))
            .chain(std::iter::once(eos(10_000)))
            .collect();
        let rows = run(&mut s, input);
        // Row tuples are (window_start, ...) and emission boundary =
        // window_start + W is non-decreasing.
        for w in rows.windows(2) {
            assert!(w[0].0 <= w[1].0, "rows {rows:?}");
        }
    }

    #[test]
    fn output_schema_shape() {
        let a = tumbling();
        let s = a.output_schema();
        assert_eq!(s.len(), 5);
        assert_eq!(s.field(0).unwrap().name, "window_start");
        assert_eq!(s.field(2).unwrap().name, "n");
        assert_eq!(s.field(4).unwrap().data_type, DataType::Float);
    }

    #[test]
    fn tumbling_flushes_on_window_boundary_crossing() {
        let mut a = tumbling();
        let out = drain(
            &mut a,
            vec![data(10, 1, 5), data(20, 1, 7), data(150, 1, 100)],
        );
        // Window [0,100) closes when ts 150 arrives.
        assert_eq!(out.len(), 1);
        let row = out[0].values().unwrap();
        assert_eq!(row[0], Value::Int(0)); // window_start
        assert_eq!(row[1], Value::Int(1)); // group key
        assert_eq!(row[2], Value::Int(2)); // count
        assert_eq!(row[3], Value::Int(12)); // sum
        assert_eq!(row[4], Value::Float(6.0)); // avg
        assert_eq!(out[0].ts.as_micros(), 100, "stamped with window end");
        assert_eq!(a.current.len(), 1, "the 150-tuple opened a new window");
        assert_eq!(a.retained_panes(), 0, "one pane per window: none kept");
    }

    #[test]
    fn tumbling_groups_are_separate() {
        let out = drain(
            &mut tumbling(),
            vec![data(10, 1, 5), data(20, 2, 7), data(150, 1, 0)],
        );
        assert_eq!(out.len(), 2);
        // BTreeMap gives deterministic key order.
        assert_eq!(out[0].values().unwrap()[1], Value::Int(1));
        assert_eq!(out[1].values().unwrap()[1], Value::Int(2));
    }

    #[test]
    fn tumbling_skips_empty_windows() {
        let mut a = tumbling();
        let out = drain(&mut a, vec![data(10, 1, 5), data(1_050, 1, 1)]);
        assert_eq!(out.len(), 1, "empty windows produce no rows");
        assert_eq!(a.windows_emitted(), 1);
    }

    #[test]
    fn min_max_and_null_handling() {
        let mut a = SlidingAggregate::new(
            "γ",
            &schema(),
            TimeDelta::from_micros(100),
            TimeDelta::from_micros(100),
            vec![],
            vec![agg(AggFunc::Min, "lo"), agg(AggFunc::Max, "hi")],
        )
        .unwrap();
        let null_tuple = Tuple::data(Timestamp::from_micros(15), vec![Value::Int(0), Value::Null]);
        let out = drain(
            &mut a,
            vec![data(10, 0, 9), null_tuple, data(20, 0, 3), data(130, 0, 1)],
        );
        assert_eq!(out.len(), 1);
        let row = out[0].values().unwrap();
        assert_eq!(row[1], Value::Int(3));
        assert_eq!(row[2], Value::Int(9));
    }

    #[test]
    fn window_alignment_is_stable() {
        // First tuple at 250 → window [200, 300).
        let out = drain(
            &mut tumbling(),
            vec![data(250, 1, 1), data(299, 1, 1), data(305, 1, 1)],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values().unwrap()[0], Value::Int(200));
        assert_eq!(out[0].values().unwrap()[2], Value::Int(2));
    }
}
