//! Allocation gate: the steady-state hot path performs at most
//! [`MAX_ALLOCS_PER_TUPLE`] heap allocations per delivered tuple — on the
//! filter→project→union pipeline at per-tuple execution (K = 1) and the
//! batched Encore path (K = 64), and on a keyed window join whose probe
//! path must not clone (K = 64).
//!
//! This binary installs its own counting `#[global_allocator]`. The count
//! is per thread, so the test harness's threads and the other tests in
//! this binary cannot pollute the measuring thread's census. The executor
//! is serial, so every engine allocation lands on the measuring thread.
//!
//! Methodology: tuples are ingested as clones of pre-built templates (a
//! narrow row clones without allocating), so the census isolates the
//! engine — buffer push/pop, scheduling, operator row construction and
//! sink delivery. Each rig warms up first (queue capacity growth, pools)
//! and then counts allocations around whole waves; the fewest over
//! several windows is compared with the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use millstream_core::prelude::*;

/// Allocations per delivered tuple the steady state may spend.
const MAX_ALLOCS_PER_TUPLE: f64 = 0.5;

thread_local! {
    /// Allocating calls made by this thread. `const`-initialised with no
    /// destructor, so the allocator can bump it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts allocating calls per thread.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards every call unchanged to the system allocator; the only
// addition is a thread-local counter bump, which cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move (and therefore allocate); count it as one.
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WAVE_TUPLES: u64 = 1024; // per source, per wave
const WARMUP_WAVES: u64 = 4;
const WAVES: u64 = 8; // per measured window
const WINDOWS: usize = 5;

/// Join key cardinality. With the window at twice the key cycle every key
/// stays live, so its chain never empties and its key-map entry is never
/// freed and re-inserted between recurrences.
const JOIN_KEYS: u64 = 64;

/// Counts deliveries without storing tuples (keeps the sink cost flat).
#[derive(Clone, Default)]
struct Count(Arc<AtomicU64>);

impl SinkCollector for Count {
    fn deliver(&mut self, _tuple: Tuple, _now: Timestamp) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

struct Rig {
    graph: GraphBuilder,
    s1: SourceId,
    s2: SourceId,
    out: Count,
}

fn int_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
}

/// Two sources, an all-pass filter and a two-column projection per
/// branch, merged by a union: every ingested tuple is delivered.
fn pipeline() -> Rig {
    let schema = int_schema(&["v"]);
    let wide = int_schema(&["v", "v1"]);
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
    Rig {
        graph: b,
        s1,
        s2,
        out,
    }
}

/// Two sources feeding a keyed symmetric window join.
fn keyed_join() -> Rig {
    let schema = int_schema(&["v"]);
    let out = Count::default();
    let mut b = GraphBuilder::new();
    let s1 = b.source("J1", schema.clone(), TimestampKind::Internal);
    let s2 = b.source("J2", schema.clone(), TimestampKind::Internal);
    let join = MultiWindowJoin::new(
        "⋈",
        &[schema.clone(), schema],
        vec![TimeDelta::from_millis(2 * JOIN_KEYS); 2],
        None,
    )
    .with_keys(vec![0, 0]);
    let j = b
        .operator(Box::new(join), vec![Input::Source(s1), Input::Source(s2)])
        .unwrap();
    b.operator(
        Box::new(Sink::new("sink⋈", int_schema(&["v", "v2"]), out.clone())),
        vec![Input::Op(j)],
    )
    .unwrap();
    Rig {
        graph: b,
        s1,
        s2,
        out,
    }
}

/// Steady-state allocations per delivered tuple: warm up, then the
/// fewest allocations over [`WINDOWS`] windows of [`WAVES`] waves each,
/// divided by the tuples one window delivers.
fn allocs_per_delivered(rig: Rig, templates: &[Tuple], encore_batch: usize) -> f64 {
    let Rig { graph, s1, s2, out } = rig;
    let mut exec = Executor::new(
        graph.build().unwrap(),
        VirtualClock::shared(),
        CostModel::default(),
        EtsPolicy::None,
    )
    .with_encore_batch(encore_batch);
    let mut n = 0u64;
    let mut wave = |exec: &mut Executor| {
        for _ in 0..WAVE_TUPLES {
            let ts = Timestamp::from_millis(n);
            let mut t = templates[(n % templates.len() as u64) as usize].clone();
            n += 1;
            t.ts = ts;
            t.entry = ts;
            exec.ingest(s1, t.clone()).unwrap();
            exec.ingest(s2, t).unwrap();
        }
        exec.run_until_quiescent(100_000_000).unwrap();
    };
    for _ in 0..WARMUP_WAVES {
        wave(&mut exec);
    }
    let mut fewest = u64::MAX;
    let mut delivered = 0;
    for _ in 0..WINDOWS {
        let delivered0 = out.0.load(Ordering::Relaxed);
        let allocs0 = ALLOCS.with(Cell::get);
        for _ in 0..WAVES {
            wave(&mut exec);
        }
        fewest = fewest.min(ALLOCS.with(Cell::get) - allocs0);
        delivered = out.0.load(Ordering::Relaxed) - delivered0;
    }
    assert!(delivered > 0, "the rig must deliver");
    fewest as f64 / delivered as f64
}

fn assert_within_budget(rig: &str, allocs_per_tuple: f64) {
    assert!(
        allocs_per_tuple <= MAX_ALLOCS_PER_TUPLE,
        "{rig}: {allocs_per_tuple:.3} allocs per delivered tuple > budget {MAX_ALLOCS_PER_TUPLE}"
    );
}

fn pipeline_templates() -> Vec<Tuple> {
    vec![Tuple::data(Timestamp::ZERO, vec![Value::Int(7)])]
}

#[test]
fn pipeline_per_tuple_stays_within_alloc_budget() {
    assert_within_budget(
        "K=1",
        allocs_per_delivered(pipeline(), &pipeline_templates(), 1),
    );
}

#[test]
fn pipeline_batched_stays_within_alloc_budget() {
    assert_within_budget(
        "K=64",
        allocs_per_delivered(pipeline(), &pipeline_templates(), 64),
    );
}

#[test]
fn keyed_join_probe_stays_within_alloc_budget() {
    // Keys cycle so the keyed probe path (chain lookup, clone-free
    // enumeration, expiry at the floor) runs in steady state.
    let templates: Vec<Tuple> = (0..JOIN_KEYS)
        .map(|k| Tuple::data(Timestamp::ZERO, vec![Value::Int(k as i64)]))
        .collect();
    assert_within_budget(
        "join K=64",
        allocs_per_delivered(keyed_join(), &templates, 64),
    );
}
