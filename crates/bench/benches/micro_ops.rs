//! Ablation **A6** — Criterion micro-benchmarks of the primitives whose
//! costs the simulator's [`CostModel`] abstracts: buffer push/pop, union
//! merge steps, join probes, expression evaluation, and the end-to-end
//! executor cycle including on-demand ETS generation.

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use millstream_buffer::Buffer;
use millstream_exec::{CostModel, EtsPolicy, Executor, GraphBuilder, Input, VirtualClock};
use millstream_ops::{
    AggExpr, AggFunc, Filter, MultiWindowJoin, OpContext, Operator, Reorder, Sink,
    SlidingAggregate, Union, VecCollector,
};
use millstream_types::{
    DataType, Expr, Field, Schema, TimeDelta, Timestamp, TimestampKind, Tuple, Value,
};

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

fn data(ts: u64, v: i64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
}

fn bench_buffer(c: &mut Criterion) {
    c.bench_function("buffer/push_pop", |b| {
        let mut buf = Buffer::new("bench");
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            buf.push(data(ts, ts as i64)).unwrap();
            std::hint::black_box(buf.pop());
        });
    });
}

fn bench_expr(c: &mut Criterion) {
    let expr = Expr::col(0)
        .mul(Expr::lit(3))
        .add(Expr::lit(7))
        .gt(Expr::lit(100));
    let row = vec![Value::Int(42)];
    c.bench_function("expr/eval_predicate", |b| {
        b.iter(|| std::hint::black_box(expr.eval_predicate(&row).unwrap()));
    });
}

fn bench_union_step(c: &mut Criterion) {
    c.bench_function("union/merge_1k", |b| {
        b.iter_batched(
            || {
                let a = RefCell::new(Buffer::new("a"));
                let bb = RefCell::new(Buffer::new("b"));
                let out = RefCell::new(Buffer::new("out"));
                for i in 0..500u64 {
                    a.borrow_mut().push(data(2 * i, i as i64)).unwrap();
                    bb.borrow_mut().push(data(2 * i + 1, i as i64)).unwrap();
                }
                (a, bb, out, Union::new("∪", schema(), 2))
            },
            |(a, bb, out, mut u)| {
                let inputs = [&a, &bb];
                let outputs = [&out];
                let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
                while u.poll(&ctx).is_ready() {
                    u.step(&ctx).unwrap();
                }
                std::hint::black_box(out.borrow().len());
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_join_probe(c: &mut Criterion) {
    c.bench_function("join/probe_window_64", |b| {
        b.iter_batched(
            || {
                let a = RefCell::new(Buffer::new("a"));
                let bb = RefCell::new(Buffer::new("b"));
                let out = RefCell::new(Buffer::new("out"));
                let mut j = MultiWindowJoin::new(
                    "⋈",
                    &[schema(), schema()],
                    vec![TimeDelta::from_secs(10); 2],
                    None,
                )
                .with_keys(vec![0, 0]);
                // Preload W(B) with 64 tuples by running them through.
                {
                    let inputs = [&a, &bb];
                    let outputs = [&out];
                    let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
                    for i in 0..64u64 {
                        ctx.input_mut(1).push(data(i, (i % 8) as i64)).unwrap();
                    }
                    ctx.input_mut(0)
                        .push(Tuple::punctuation(Timestamp::from_micros(100)))
                        .unwrap();
                    while j.poll(&ctx).is_ready() {
                        j.step(&ctx).unwrap();
                    }
                    out.borrow_mut().clear();
                }
                // One probe tuple on A.
                a.borrow_mut().push(data(101, 3)).unwrap();
                bb.borrow_mut()
                    .push(Tuple::punctuation(Timestamp::from_micros(200)))
                    .unwrap();
                (a, bb, out, j)
            },
            |(a, bb, out, mut j)| {
                let inputs = [&a, &bb];
                let outputs = [&out];
                let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
                while j.poll(&ctx).is_ready() {
                    j.step(&ctx).unwrap();
                }
                std::hint::black_box(out.borrow().len());
            },
            BatchSize::SmallInput,
        );
    });
}

/// Fig. 4 graph + one tuple wave including the on-demand ETS round — the
/// real-world cost of what the simulator charges as a handful of steps.
fn bench_executor_wave(c: &mut Criterion) {
    c.bench_function("executor/fig4_wave_with_ets", |b| {
        b.iter_batched(
            || {
                let mut gb = GraphBuilder::new();
                let s1 = gb.source("S1", schema(), TimestampKind::Internal);
                let s2 = gb.source("S2", schema(), TimestampKind::Internal);
                let pass = Expr::col(0).ge(Expr::lit(0));
                let f1 = gb
                    .operator(
                        Box::new(Filter::new("σ1", schema(), pass.clone())),
                        vec![Input::Source(s1)],
                    )
                    .unwrap();
                let f2 = gb
                    .operator(
                        Box::new(Filter::new("σ2", schema(), pass)),
                        vec![Input::Source(s2)],
                    )
                    .unwrap();
                let u = gb
                    .operator(
                        Box::new(Union::new("∪", schema(), 2)),
                        vec![Input::Op(f1), Input::Op(f2)],
                    )
                    .unwrap();
                let _k = gb
                    .operator(
                        Box::new(Sink::new("sink", schema(), VecCollector::default())),
                        vec![Input::Op(u)],
                    )
                    .unwrap();
                let exec = Executor::new(
                    gb.build().unwrap(),
                    VirtualClock::shared(),
                    CostModel::free(),
                    EtsPolicy::on_demand(),
                );
                (exec, s1)
            },
            |(mut exec, s1)| {
                exec.clock().advance(TimeDelta::from_micros(10));
                exec.ingest(s1, data(exec.clock().now().as_micros(), 1))
                    .unwrap();
                exec.run_until_quiescent(1_000).unwrap();
                std::hint::black_box(exec.stats().steps);
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_reorder(c: &mut Criterion) {
    use millstream_buffer::OrderPolicy;
    c.bench_function("reorder/jittered_512", |b| {
        b.iter_batched(
            || {
                let input = RefCell::new(Buffer::new("in").with_order_policy(OrderPolicy::Accept));
                let out = RefCell::new(Buffer::new("out"));
                // Deterministic jitter pattern within a 64 µs bound.
                for i in 0..512u64 {
                    let jitter = (i * 37) % 64;
                    let ts = 100 * i + jitter;
                    input.borrow_mut().push(data(ts, i as i64)).unwrap();
                }
                let r = Reorder::new("↻", schema(), TimeDelta::from_micros(64));
                (input, out, r)
            },
            |(input, out, mut r)| {
                let inputs = [&input];
                let outputs = [&out];
                let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
                while r.poll(&ctx).is_ready() {
                    r.step(&ctx).unwrap();
                }
                std::hint::black_box(out.borrow().len());
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_sliding_aggregate(c: &mut Criterion) {
    c.bench_function("sliding/panes_1k_tuples", |b| {
        b.iter_batched(
            || {
                let input = RefCell::new(Buffer::new("in"));
                let out = RefCell::new(Buffer::new("out"));
                for i in 0..1_000u64 {
                    input
                        .borrow_mut()
                        .push(data(10 * i, (i % 8) as i64))
                        .unwrap();
                }
                input
                    .borrow_mut()
                    .push(Tuple::punctuation(Timestamp::from_micros(100_000)))
                    .unwrap();
                let agg = SlidingAggregate::new(
                    "γs",
                    &schema(),
                    TimeDelta::from_micros(4_000),
                    TimeDelta::from_micros(1_000),
                    vec![("k".into(), millstream_types::Expr::col(0))],
                    vec![AggExpr {
                        func: AggFunc::Count,
                        arg: millstream_types::Expr::col(0),
                        name: "n".into(),
                    }],
                )
                .unwrap();
                (input, out, agg)
            },
            |(input, out, mut agg)| {
                let inputs = [&input];
                let outputs = [&out];
                let ctx = OpContext::new(&inputs, &outputs, Timestamp::ZERO);
                while agg.poll(&ctx).is_ready() {
                    agg.step(&ctx).unwrap();
                }
                std::hint::black_box(out.borrow().len());
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_buffer, bench_expr, bench_union_step, bench_join_probe, bench_executor_wave, bench_reorder, bench_sliding_aggregate
);
criterion_main!(benches);
