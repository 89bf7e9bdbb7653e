//! Micro-benchmark — steady-state heap allocations per delivered tuple.
//!
//! The paper's win is scheduling-side; the remaining ceiling is
//! memory-side. This harness registers the counting allocator
//! (`millstream_bench::alloc_track`, feature `count-alloc`) and measures
//! how many heap allocations the engine performs per delivered tuple on
//! the filter→project→union pipeline, at per-tuple execution (K=1) and
//! the batched Encore hot path (K=64), plus a keyed window-join rig that
//! guards the clone-free probe path (`max_allocs_per_tuple_join`).
//!
//! Methodology: tuples are ingested by cloning pre-built templates — a
//! clone of a narrow row never allocates in either the old (`Arc` bump)
//! or new (inline copy) representation — so the census isolates the
//! *engine*: buffer push/pop, scheduling, operator row construction and
//! sink delivery. Each configuration warms up first (queue capacity
//! growth, pools, interner) and then samples the allocation counter and
//! the wall clock around whole waves; the per-configuration minimum over
//! alternating rounds is reported, as in `micro_batching`.
//!
//! The checked-in files under `crates/bench/` close the loop:
//!
//! * `baselines/alloc_before.json` — the pre-refactor numbers (captured
//!   on the commit before the inline-row representation landed), embedded
//!   into `BENCH_alloc.json` as the *before* column;
//! * `alloc_budget.json` — the regression budget; the run fails if
//!   steady-state allocs/tuple exceeds it, which is what the CI
//!   alloc-budget job enforces in `--quick` mode.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use millstream_bench::{
    alloc_track, print_table, quick_mode, read_json_num, write_bench_summary, write_results,
};
use millstream_core::prelude::*;
use millstream_metrics::Json;

/// Counts deliveries without storing tuples (keeps the sink cost flat).
#[derive(Clone, Default)]
struct Count(Arc<AtomicU64>);

impl SinkCollector for Count {
    fn deliver(&mut self, _tuple: Tuple, _now: Timestamp) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

const WAVE_TUPLES: u64 = 1024; // per source, per wave
const WARMUP_WAVES: u64 = 4;
const ROUNDS: usize = 5;

/// Key cardinality for the join rig. With the window at twice the key
/// cycle, every hash bucket stays warm (no free/realloc churn from whole
/// buckets expiring between recurrences) and each probe matches a small
/// constant number of opposite-side tuples.
const JOIN_KEYS: u64 = 64;
const JOIN_WINDOW_MS: u64 = 2 * JOIN_KEYS;

/// Builds the filter→project→union pipeline: two sources, an all-pass
/// filter and a two-column projection per branch, merged by a union into
/// a counting sink. Every ingested tuple is delivered, so the allocation
/// census divides by a denominator equal to the ingest volume.
fn build() -> (GraphBuilder, SourceId, SourceId, Count) {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let wide = Schema::new(vec![
        Field::new("v", DataType::Int),
        Field::new("v1", DataType::Int),
    ]);
    let out = Count::default();
    let mut b = GraphBuilder::new();
    let s1 = b.source("S1", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("S2", schema.clone(), TimestampKind::Internal);
    let pred = Expr::col(0).ge(Expr::lit(0));
    let branch = |b: &mut GraphBuilder, src, tag: &str| {
        let f = b
            .operator(
                Box::new(Filter::new(format!("σ{tag}"), schema.clone(), pred.clone())),
                vec![Input::Source(src)],
            )
            .unwrap();
        b.operator(
            Box::new(Project::new(
                format!("π{tag}"),
                wide.clone(),
                vec![Expr::col(0), Expr::col(0).add(Expr::lit(1))],
            )),
            vec![Input::Op(f)],
        )
        .unwrap()
    };
    let p1 = branch(&mut b, s1, "1");
    let p2 = branch(&mut b, s2, "2");
    let u = b
        .operator(
            Box::new(Union::new("∪", wide.clone(), 2)),
            vec![Input::Op(p1), Input::Op(p2)],
        )
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink", wide, out.clone())),
        vec![Input::Op(u)],
    )
    .unwrap();
    (b, s1, s2, out)
}

/// Builds the join rig: two sources feeding a keyed symmetric
/// `MultiWindowJoin` into a counting sink. The join probe path is the target
/// of the clone-elimination fix — this rig is what the CI alloc-budget
/// job watches so a per-probe clone (or per-match row spill) regression
/// shows up as allocs per delivered result.
fn build_join() -> (GraphBuilder, SourceId, SourceId, Count) {
    let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
    let joined = Schema::new(vec![
        Field::new("v", DataType::Int),
        Field::new("v2", DataType::Int),
    ]);
    let out = Count::default();
    let mut b = GraphBuilder::new();
    let s1 = b.source("J1", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("J2", schema.clone(), TimestampKind::Internal);
    let join = MultiWindowJoin::new(
        "⋈",
        &[schema.clone(), schema],
        vec![TimeDelta::from_millis(JOIN_WINDOW_MS); 2],
        None,
    )
    .with_keys(vec![0, 0]);
    let j = b
        .operator(Box::new(join), vec![Input::Source(s1), Input::Source(s2)])
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink⋈", joined, out.clone())),
        vec![Input::Op(j)],
    )
    .unwrap();
    (b, s1, s2, out)
}

struct Window {
    allocs_per_tuple: f64,
    tuples_per_sec: f64,
    delivered: u64,
}

/// Ingests one wave on both sources (template clones cycling through the
/// slice, monotone timestamps) and returns the timed drain-to-quiescence
/// duration.
fn wave(
    exec: &mut Executor,
    s1: SourceId,
    s2: SourceId,
    templates: &[Tuple],
    n: &mut u64,
) -> Duration {
    for _ in 0..WAVE_TUPLES {
        let ts = Timestamp::from_millis(*n);
        let mut t = templates[(*n % templates.len() as u64) as usize].clone();
        *n += 1;
        t.ts = ts;
        t.entry = ts;
        exec.ingest(s1, t.clone()).unwrap();
        exec.ingest(s2, t).unwrap();
    }
    let started = Instant::now();
    exec.run_until_quiescent(100_000_000).unwrap();
    started.elapsed()
}

/// Runs one configuration: warm up, then `ROUNDS` measurement windows of
/// `waves` waves over the same (steady-state) executor; the best window —
/// fewest allocations, and independently the fastest drain — is reported.
fn run_rig(
    rig: (GraphBuilder, SourceId, SourceId, Count),
    templates: &[Tuple],
    encore_batch: usize,
    waves: u64,
) -> Window {
    let (b, s1, s2, out) = rig;
    let mut exec = Executor::new(
        b.build().unwrap(),
        VirtualClock::shared(),
        CostModel::default(),
        EtsPolicy::None,
    )
    .with_encore_batch(encore_batch);

    let mut n = 0u64;
    for _ in 0..WARMUP_WAVES {
        let _ = wave(&mut exec, s1, s2, templates, &mut n);
    }

    let mut best_allocs = u64::MAX;
    let mut best_drain = Duration::MAX;
    let mut delivered_last = 0u64;
    for _ in 0..ROUNDS {
        let delivered0 = out.0.load(Ordering::Relaxed);
        let allocs0 = alloc_track::allocations();
        let mut drain = Duration::ZERO;
        for _ in 0..waves {
            drain += wave(&mut exec, s1, s2, templates, &mut n);
        }
        let allocs = alloc_track::allocations() - allocs0;
        delivered_last = out.0.load(Ordering::Relaxed) - delivered0;
        assert!(delivered_last > 0, "pipeline must deliver");
        best_allocs = best_allocs.min(allocs);
        best_drain = best_drain.min(drain);
    }

    let ingested = 2 * waves * WAVE_TUPLES;
    Window {
        allocs_per_tuple: best_allocs as f64 / delivered_last as f64,
        tuples_per_sec: ingested as f64 / best_drain.as_secs_f64(),
        delivered: delivered_last,
    }
}

fn run(encore_batch: usize, waves: u64) -> Window {
    let templates = [Tuple::data(Timestamp::ZERO, vec![Value::Int(7)])];
    run_rig(build(), &templates, encore_batch, waves)
}

/// The join configuration: keys cycle over `JOIN_KEYS` so the keyed probe
/// path (bucket lookup, clone-free enumeration, purge sweep) runs in
/// steady state; allocs are normalized by delivered join results.
fn run_join(waves: u64) -> Window {
    let templates: Vec<Tuple> = (0..JOIN_KEYS)
        .map(|k| Tuple::data(Timestamp::ZERO, vec![Value::Int(k as i64)]))
        .collect();
    run_rig(build_join(), &templates, 64, waves)
}

fn main() {
    let quick = quick_mode();
    assert!(
        alloc_track::counting(),
        "micro_alloc requires the counting allocator: build with --features count-alloc"
    );
    let waves = if quick { 8 } else { 32 };
    println!("millstream micro-benchmark — steady-state heap allocations per delivered tuple");
    println!(
        "filter→project→union pipeline, all-pass, {} tuples per window, best of {ROUNDS} rounds{}\n",
        2 * waves * WAVE_TUPLES,
        if quick { " (quick mode)" } else { "" }
    );

    let ks = [1usize, 64];
    let windows: Vec<Window> = ks.iter().map(|&k| run(k, waves)).collect();
    let join = run_join(waves);

    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(manifest.join("baselines/alloc_before.json")).ok();
    let budget = std::fs::read_to_string(manifest.join("alloc_budget.json")).ok();
    let base_num = |key: &str| baseline.as_deref().and_then(|t| read_json_num(t, key));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (&k, w) in ks.iter().zip(&windows) {
        let before_apt = base_num(&format!("k{k}_allocs_per_tuple"));
        let before_tps = base_num(&format!("k{k}_tuples_per_sec"));
        let reduction = before_apt.map(|b| 1.0 - w.allocs_per_tuple / b);
        let speedup = before_tps.map(|b| w.tuples_per_sec / b);
        rows.push(vec![
            format!("K={k}"),
            before_apt.map_or("n/a".into(), |b| format!("{b:.3}")),
            format!("{:.3}", w.allocs_per_tuple),
            reduction.map_or("n/a".into(), |r| format!("{:.1}%", r * 100.0)),
            format!("{:.2}M", w.tuples_per_sec / 1e6),
            speedup.map_or("n/a".into(), |s| format!("{s:.2}x")),
        ]);
        json_rows.push(Json::obj([
            ("encore_batch", Json::Num(k as f64)),
            ("allocs_per_tuple", Json::Num(w.allocs_per_tuple)),
            (
                "baseline_allocs_per_tuple",
                before_apt.map_or(Json::Null, Json::Num),
            ),
            ("alloc_reduction", reduction.map_or(Json::Null, Json::Num)),
            ("tuples_per_sec", Json::Num(w.tuples_per_sec)),
            (
                "baseline_tuples_per_sec",
                before_tps.map_or(Json::Null, Json::Num),
            ),
            ("speedup_vs_baseline", speedup.map_or(Json::Null, Json::Num)),
            ("delivered_per_window", Json::Num(w.delivered as f64)),
        ]));
    }
    rows.push(vec![
        format!("join K=64 ({JOIN_KEYS} keys)"),
        "n/a".into(),
        format!("{:.3}", join.allocs_per_tuple),
        "n/a".into(),
        format!("{:.2}M", join.tuples_per_sec / 1e6),
        "n/a".into(),
    ]);
    json_rows.push(Json::obj([
        ("rig", Json::str("window-join")),
        ("encore_batch", Json::Num(64.0)),
        ("allocs_per_tuple", Json::Num(join.allocs_per_tuple)),
        ("tuples_per_sec", Json::Num(join.tuples_per_sec)),
        ("delivered_per_window", Json::Num(join.delivered as f64)),
    ]));
    print_table(
        "steady-state allocations per delivered tuple (before = pre-refactor baseline)",
        &[
            "batch",
            "before a/t",
            "after a/t",
            "reduction",
            "tuples/s",
            "speedup",
        ],
        &rows,
    );

    let summary = Json::obj([
        (
            "pipeline",
            Json::str("filter→project→union, all-pass, INT rows"),
        ),
        (
            "tuples_per_window",
            Json::Num((2 * waves * WAVE_TUPLES) as f64),
        ),
        ("quick", Json::Bool(quick)),
        ("rows", Json::Arr(json_rows)),
    ]);
    write_results("micro_alloc", summary.clone());
    write_bench_summary("alloc", summary);

    if baseline.is_none() {
        println!("\nnote: baselines/alloc_before.json missing — before/after columns unavailable");
    }
    match budget
        .as_deref()
        .and_then(|t| read_json_num(t, "max_allocs_per_tuple_k64"))
    {
        Some(max) => {
            let after = windows[1].allocs_per_tuple;
            assert!(
                after <= max,
                "allocation budget exceeded at K=64: {after:.3} allocs/tuple > budget {max:.3}"
            );
            if let Some(max1) = budget
                .as_deref()
                .and_then(|t| read_json_num(t, "max_allocs_per_tuple_k1"))
            {
                let after1 = windows[0].allocs_per_tuple;
                assert!(
                    after1 <= max1,
                    "allocation budget exceeded at K=1: {after1:.3} allocs/tuple > budget {max1:.3}"
                );
            }
            if let Some(maxj) = budget
                .as_deref()
                .and_then(|t| read_json_num(t, "max_allocs_per_tuple_join"))
            {
                assert!(
                    join.allocs_per_tuple <= maxj,
                    "allocation budget exceeded on the join rig: {:.3} allocs/result > budget {maxj:.3}",
                    join.allocs_per_tuple
                );
            }
            println!(
                "\nbudget check passed: K=64 steady state {:.3} allocs/tuple ≤ {max:.3}, \
                 join rig {:.3} allocs/result",
                after, join.allocs_per_tuple
            );
        }
        None => println!("\nnote: alloc_budget.json missing — budget not enforced"),
    }
}
