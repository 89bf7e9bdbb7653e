//! Property-based tests checking the streaming operators against naive
//! batch reference models:
//!
//! * the union against a stable sort-merge;
//! * the window join against a nested-loop join over the full history;
//! * the aggregate against a batch group-by.
//!
//! Inputs are arbitrary ordered streams (with duplicates/simultaneous
//! timestamps); both inputs are closed with a final punctuation so the
//! streaming operators can flush completely.

use std::cell::RefCell;
use std::collections::BTreeMap;

use proptest::prelude::*;

use millstream_buffer::Buffer;
use millstream_ops::{
    AggExpr, AggFunc, MultiWindowJoin, OpContext, Operator, SlidingAggregate, Union,
};
use millstream_types::{DataType, Expr, Field, Schema, TimeDelta, Timestamp, Tuple, Value};

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

/// An ordered stream of (ts, value) with coarse timestamps (many ties).
fn stream(max_len: usize) -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..50, any::<i8>()), 0..max_len).prop_map(|mut v| {
        // Sort by the timestamp *gaps* interpretation: accumulate gaps so
        // the stream is ordered but has ties (gap 0).
        let mut ts = 0u64;
        v.iter_mut()
            .map(|(gap, val)| {
                ts += *gap % 5; // frequent ties
                (ts, *val as i64)
            })
            .collect()
    })
}

fn data(ts: u64, v: i64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
}

/// Drives a 2-input operator over fully loaded inputs terminated by a
/// far-future punctuation; returns the data tuples emitted.
fn drive2(op: &mut dyn Operator, a: &[(u64, i64)], b: &[(u64, i64)]) -> Vec<Tuple> {
    let ia = RefCell::new(Buffer::new("a"));
    let ib = RefCell::new(Buffer::new("b"));
    let out = RefCell::new(Buffer::new("out"));
    for &(ts, v) in a {
        ia.borrow_mut().push(data(ts, v)).unwrap();
    }
    for &(ts, v) in b {
        ib.borrow_mut().push(data(ts, v)).unwrap();
    }
    let eos = Timestamp::from_micros(1_000_000);
    ia.borrow_mut().push(Tuple::punctuation(eos)).unwrap();
    ib.borrow_mut().push(Tuple::punctuation(eos)).unwrap();
    let inputs = [&ia, &ib];
    let outputs = [&out];
    let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
    while op.poll(&ctx).is_ready() {
        op.step(&ctx).unwrap();
    }
    let mut got = vec![];
    while let Some(t) = out.borrow_mut().pop() {
        if t.is_data() {
            got.push(t);
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Union ≡ stable merge: same multiset of rows, timestamp-ordered.
    #[test]
    fn union_matches_sort_merge(a in stream(60), b in stream(60)) {
        let mut u = Union::new("∪", schema(), 2);
        let got = drive2(&mut u, &a, &b);

        // Reference: concatenate and stably sort by timestamp.
        let mut expect: Vec<(u64, i64)> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_by_key(|&(ts, _)| ts);

        prop_assert_eq!(got.len(), expect.len());
        // Output is ordered by timestamp.
        let ts: Vec<u64> = got.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        prop_assert_eq!(&ts, &sorted);
        // Same multiset of (ts, v) pairs.
        let mut got_pairs: Vec<(u64, i64)> = got
            .iter()
            .map(|t| (t.ts.as_micros(), t.values().unwrap()[0].as_int().unwrap()))
            .collect();
        got_pairs.sort();
        let mut expect_pairs = expect;
        expect_pairs.sort();
        prop_assert_eq!(got_pairs, expect_pairs);
    }

    /// Window join ≡ nested loop over the full history with the window
    /// predicate |ta − tb| ≤ w applied pairwise (per Kang et al.: a pair
    /// joins iff each tuple is within the other's window at probe time,
    /// which for symmetric windows is exactly the timestamp-distance test).
    #[test]
    fn join_matches_nested_loop(a in stream(40), b in stream(40), w in 1u64..20) {
        let window = TimeDelta::from_micros(w);
        let mut j = MultiWindowJoin::new("⋈", &[schema(), schema()], vec![window; 2], None)
            .with_keys(vec![0, 0]);
        let got = drive2(&mut j, &a, &b);

        // Reference nested loop.
        let mut expect = 0usize;
        for &(ta, va) in &a {
            for &(tb, vb) in &b {
                if va == vb && ta.abs_diff(tb) <= w {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(got.len(), expect, "a={:?} b={:?} w={}", a, b, w);
        // Every result's timestamp is the max of some contributing pair —
        // at minimum, results are ordered.
        let ts: Vec<u64> = got.iter().map(|t| t.ts.as_micros()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        prop_assert_eq!(ts, sorted);
    }

    /// Sliding (pane-based) aggregate ≡ batch recomputation over every
    /// overlapping window.
    #[test]
    fn sliding_matches_batch_windows(
        input in stream(60),
        k in 2u64..6,
        s_us in 3u64..15,
    ) {
        let w = k * s_us;
        let in_schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let mut agg = SlidingAggregate::new(
            "γs",
            &in_schema,
            TimeDelta::from_micros(w),
            TimeDelta::from_micros(s_us),
            vec![],
            vec![
                AggExpr { func: AggFunc::Count, arg: Expr::col(0), name: "n".into() },
                AggExpr { func: AggFunc::Sum, arg: Expr::col(0), name: "s".into() },
            ],
        ).unwrap();
        let i0 = RefCell::new(Buffer::new("in"));
        let out = RefCell::new(Buffer::new("out"));
        for &(ts, v) in &input {
            i0.borrow_mut().push(data(ts, v)).unwrap();
        }
        i0.borrow_mut().push(Tuple::punctuation(Timestamp::from_micros(1_000_000))).unwrap();
        let inputs = [&i0];
        let outputs = [&out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        while agg.poll(&ctx).is_ready() {
            agg.step(&ctx).unwrap();
        }
        // Collect emitted windows keyed by emission boundary (= ts).
        let mut got: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
        while let Some(t) = out.borrow_mut().pop() {
            if let Some(row) = t.values() {
                got.insert(
                    t.ts.as_micros(),
                    (row[1].as_int().unwrap(), row[2].as_int().unwrap()),
                );
            }
        }
        // Reference: for every slide boundary b, the batch aggregate over
        // tuples with ts ∈ [b−w, b). Only non-empty windows are emitted.
        if !input.is_empty() {
            let max_ts = input.iter().map(|&(t, _)| t).max().unwrap();
            let mut b = s_us; // first possible boundary at one slide
            let mut expect: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
            while b <= max_ts + w {
                let from = b.saturating_sub(w);
                let (mut n, mut sum) = (0i64, 0i64);
                for &(ts, v) in &input {
                    if ts >= from && ts < b {
                        n += 1;
                        sum += v;
                    }
                }
                if n > 0 {
                    expect.insert(b, (n, sum));
                }
                b += s_us;
            }
            prop_assert_eq!(&got, &expect, "input={:?} w={} s={}", input, w, s_us);
        } else {
            prop_assert!(got.is_empty());
        }
    }

    /// Tumbling aggregate (`W = S`) ≡ batch group-by per window.
    #[test]
    fn aggregate_matches_batch_group_by(input in stream(80), w in 3u64..25) {
        let in_schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let window = TimeDelta::from_micros(w);
        let mut agg = SlidingAggregate::new(
            "γ",
            &in_schema,
            window,
            window,
            vec![],
            vec![
                AggExpr { func: AggFunc::Count, arg: Expr::col(0), name: "n".into() },
                AggExpr { func: AggFunc::Sum, arg: Expr::col(0), name: "s".into() },
            ],
        ).unwrap();

        // Drive single-input (reuse drive2 with an empty second input is
        // wrong arity — drive manually).
        let i0 = RefCell::new(Buffer::new("in"));
        let out = RefCell::new(Buffer::new("out"));
        for &(ts, v) in &input {
            i0.borrow_mut().push(data(ts, v)).unwrap();
        }
        i0.borrow_mut().push(Tuple::punctuation(Timestamp::from_micros(1_000_000))).unwrap();
        let inputs = [&i0];
        let outputs = [&out];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
        while agg.poll(&ctx).is_ready() {
            agg.step(&ctx).unwrap();
        }
        let mut got: Vec<(i64, i64, i64)> = vec![]; // (window_start, count, sum)
        while let Some(t) = out.borrow_mut().pop() {
            if let Some(row) = t.values() {
                got.push((
                    row[0].as_int().unwrap(),
                    row[1].as_int().unwrap(),
                    row[2].as_int().unwrap(),
                ));
            }
        }

        // Reference: batch group-by on aligned windows. The operator aligns
        // its first window to floor(first_ts / w) * w.
        let mut expect: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for &(ts, v) in &input {
            let start = (ts / w * w) as i64;
            let e = expect.entry(start).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        let expect: Vec<(i64, i64, i64)> =
            expect.into_iter().map(|(k, (n, s))| (k, n, s)).collect();
        prop_assert_eq!(got, expect, "input={:?} w={}", input, w);
    }
}
