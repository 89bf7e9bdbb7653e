//! Differential stream fuzzer — randomized query graphs × adversarial
//! workloads, every run under `MILLSTREAM_CHECK=strict` semantics.
//!
//! Each seed deterministically generates (via a hand-rolled SplitMix64
//! generator, so runs are reproducible across platforms and never depend
//! on ambient entropy):
//!
//! * a small query graph — one or two independent components, each with
//!   1–3 sources feeding optional filters, an optional out-of-order
//!   source behind a [`Reorder`], and a [`Union`] when a component has
//!   more than one source; roughly half the seeds additionally append a
//!   3-way [`MultiWindowJoin`] component (hash-keyed or with the
//!   equivalent explicit condition) checked against a combination oracle;
//! * a workload mixing bursty arrivals, simultaneous timestamps (ties),
//!   bounded disorder on the unordered source, and heartbeats that are
//!   valid by construction (each promises the minimum timestamp still to
//!   come on its source).
//!
//! The workload then runs under **every cell of the engine matrix** —
//! `EtsPolicy` × `SchedPolicy` × workers ∈ {1 (serial [`Executor`]),
//! 4 ([`ParallelExecutor`])}, plus `EtsPolicy` × `SchedPolicy` ×
//! shards ∈ {1, 2, 4} through the key-partitioned [`ShardedExecutor`]
//! (each component sharded whole-row across exchange edges, re-merged by
//! timestamp, with per-shard frontier floors checked for consistency) —
//! with the sentinel layer in strict mode, and
//! each sink's output is compared against a naive single-queue oracle
//! (all surviving data tuples of the component, merged into one queue and
//! sorted by timestamp). Any engine error, invariant violation, ordering
//! regression at a sink, or oracle mismatch is reported as a failure.
//!
//! Two disorder regimes are generated for the unordered source:
//!
//! * **exact** — `Reorder` slack ≥ the maximum jitter, so no tuple is
//!   late and the oracle compares the exact `(timestamp, value)`
//!   multiset;
//! * **clamped** — slack below the jitter bound with
//!   [`LatePolicy::Clamp`], where late tuples keep their values but get
//!   clamped timestamps, so the oracle compares the value multiset and
//!   still requires non-decreasing sink timestamps. (`LatePolicy::Drop`
//!   is excluded here: which tuples are dropped depends on scheduling
//!   interleavings, so there is no engine-independent oracle for it.)
//!
//! On-demand ETS is skipped for workloads containing an unordered source:
//! the §5 external skew rule promises `t + τ − δ` monotonized against the
//! last data timestamp, a promise bounded disorder legitimately breaks —
//! pairing them is a configuration error, not an engine bug, and would
//! drown the fuzzer in false punctuation-dominance findings.

use std::sync::{Arc, Mutex};

use millstream_exec::{
    CheckMode, CostModel, Engine, EtsPolicy, Executor, GraphBuilder, Input, ParallelConfig,
    ParallelExecutor, QueryGraph, SchedPolicy, ShardKey, ShardOutput, ShardedConfig,
    ShardedExecutor, SourceId, VirtualClock,
};
use millstream_ops::{
    Filter, LatePolicy, MultiWindowJoin, Project, Reorder, Sink, SinkCollector, TierConfig, Union,
};
use millstream_types::{
    DataType, Error, Expr, Field, Schema, TimeDelta, Timestamp, TimestampKind, Tuple, Value,
    INLINE_ROW_CAP,
};

/// Step budget per quiescence drain; hitting it means a livelock.
const MAX_STEPS: u64 = 2_000_000;

/// SplitMix64 — tiny, fast, and excellent dispersion for fuzzing. Keeping
/// it local (rather than using the `rand` shim) pins the byte-for-byte
/// seed → workload mapping, which the regression corpus depends on.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (modulo bias is irrelevant at fuzzing
    /// sizes).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One generated event at a source.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A data tuple: ingested at `arrival`, carrying application
    /// timestamp `ts` (equal to `arrival` for ordered sources) and an
    /// integer payload.
    Data { arrival: u64, ts: u64, v: i64 },
    /// A heartbeat promising no future data below `ts` on this source.
    Heartbeat { arrival: u64, ts: u64 },
}

impl Ev {
    fn arrival(&self) -> u64 {
        match *self {
            Ev::Data { arrival, .. } | Ev::Heartbeat { arrival, .. } => arrival,
        }
    }
}

/// One generated source and its workload.
#[derive(Debug, Clone)]
struct SrcSpec {
    /// Out-of-order external stream behind a `Reorder`?
    unordered: bool,
    /// Reorder slack (µs); meaningful only when `unordered`.
    slack: u64,
    /// Reorder late policy is Clamp (always true when `!exact`).
    clamp: bool,
    /// Slack covers the jitter bound — no tuple can be late.
    exact: bool,
    /// Optional `col0 >= k` filter on this source's path.
    filter_min: Option<i64>,
    /// Wide rows: the source carries `INLINE_ROW_CAP + 2` columns, so
    /// every tuple uses `Row`'s spilled (shared-heap) representation all
    /// the way to a `Project` that narrows it back to one inline column.
    wide: bool,
    events: Vec<Ev>,
}

/// How a join component combines its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JoinKind {
    /// Hash-partitioned equi-keys: `with_keys([0, 0, 0])`, no condition.
    Keyed,
    /// Keyless scan stores with the same equality as an explicit
    /// condition (`c0 = c1 AND c1 = c2`) — exercises the conjunct
    /// scheduler and the ordered-scan path; same oracle as `Keyed`.
    Conditioned,
}

/// One independent query-graph component (its own sink).
#[derive(Debug, Clone)]
struct CompSpec {
    sources: Vec<SrcSpec>,
    /// When set, the component is a 3-way [`MultiWindowJoin`] over its
    /// (exactly three, ordered, narrow) sources with this kind and a
    /// shared window length in µs.
    join: Option<(JoinKind, u64)>,
}

/// A full generated scenario.
#[derive(Debug, Clone)]
struct FuzzSpec {
    comps: Vec<CompSpec>,
}

impl FuzzSpec {
    fn any_unordered(&self) -> bool {
        self.comps
            .iter()
            .any(|c| c.sources.iter().any(|s| s.unordered))
    }
}

/// What the oracle asserts about a component's sink output.
enum Expected {
    /// Exact `(ts, value)` multiset (no clamping possible).
    Exact(Vec<(u64, i64)>),
    /// Value multiset only (clamping may rewrite late timestamps).
    ValuesOnly(Vec<i64>),
}

fn gen_source(rng: &mut SplitMix64, unordered: bool) -> SrcSpec {
    let n = 4 + rng.below(28);
    let jitter = 2 + rng.below(10);
    let exact = !unordered || rng.chance(2, 3);
    let slack = if exact { jitter } else { jitter / 2 };
    let clamp = if exact { rng.chance(1, 2) } else { true };

    let mut events = Vec::new();
    let mut arrival = 1 + rng.below(8);
    for _ in 0..n {
        let v = rng.below(16) as i64;
        let ts = if unordered {
            // ts ∈ [arrival, arrival + jitter]: a later arrival can carry
            // an earlier timestamp, with lateness bounded by `jitter`.
            arrival + jitter - rng.below(jitter + 1)
        } else {
            arrival
        };
        events.push(Ev::Data { arrival, ts, v });
        // Bursty gaps; zero gaps create simultaneous timestamps.
        const GAPS: [u64; 8] = [0, 0, 1, 1, 2, 3, 5, 9];
        arrival += GAPS[rng.below(8) as usize];
    }

    // Interleave heartbeats that are valid by construction: each promises
    // the minimum application timestamp still to come on this source.
    let data: Vec<(u64, u64)> = events
        .iter()
        .map(|e| match *e {
            Ev::Data { arrival, ts, .. } => (arrival, ts),
            Ev::Heartbeat { .. } => unreachable!("only data generated so far"),
        })
        .collect();
    let mut with_hb = Vec::with_capacity(events.len() + 4);
    for (i, ev) in events.into_iter().enumerate() {
        let arrival = ev.arrival();
        with_hb.push(ev);
        if rng.chance(1, 6) {
            if let Some(&min_future) = data[i + 1..]
                .iter()
                .map(|(_, ts)| ts)
                .min()
                .filter(|&&ts| ts > 0)
            {
                with_hb.push(Ev::Heartbeat {
                    arrival,
                    ts: min_future,
                });
            }
        }
    }

    SrcSpec {
        unordered,
        slack,
        clamp,
        exact,
        filter_min: rng.chance(1, 2).then(|| rng.below(12) as i64),
        wide: false,
        events: with_hb,
    }
}

fn gen_spec(seed: u64) -> FuzzSpec {
    let mut rng = SplitMix64::new(seed);
    let ncomps = if rng.chance(1, 3) { 2 } else { 1 };
    let comps = (0..ncomps)
        .map(|_| {
            let nsources = 1 + rng.below(3) as usize;
            let unordered_at = rng
                .chance(1, 3)
                .then(|| rng.below(nsources as u64) as usize);
            let sources = (0..nsources)
                .map(|si| gen_source(&mut rng, unordered_at == Some(si)))
                .collect();
            CompSpec {
                sources,
                join: None,
            }
        })
        .collect();
    let mut spec = FuzzSpec { comps };
    // Wide-row flags are drawn *after* every structural draw above, so
    // the historic seed → graph/workload mapping — which the regression
    // corpus under fuzz-corpus/ pins — is unchanged; wideness only adds
    // padding columns and a narrowing Project on top of the same spec.
    for comp in &mut spec.comps {
        for s in &mut comp.sources {
            s.wide = rng.chance(1, 4);
        }
    }
    // Join components draw from a *separately derived* generator so every
    // historic draw above stays byte-identical — the corpus seeds keep
    // their exact graphs and workloads, and a 3-way join component is
    // appended on top for roughly half the seeds.
    let mut jrng = SplitMix64::new(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    if jrng.chance(1, 2) {
        let kind = if jrng.chance(1, 2) {
            JoinKind::Keyed
        } else {
            JoinKind::Conditioned
        };
        let window = 3 + jrng.below(10);
        let sources = (0..3).map(|_| gen_join_source(&mut jrng)).collect();
        spec.comps.push(CompSpec {
            sources,
            join: Some((kind, window)),
        });
    }
    spec
}

/// A join input: ordered, narrow, data-only, with a small value domain so
/// equi-keys collide often enough to produce matches.
fn gen_join_source(rng: &mut SplitMix64) -> SrcSpec {
    let n = 3 + rng.below(10);
    let mut events = Vec::new();
    let mut arrival = 1 + rng.below(4);
    for _ in 0..n {
        let v = rng.below(4) as i64;
        events.push(Ev::Data {
            arrival,
            ts: arrival,
            v,
        });
        const GAPS: [u64; 8] = [0, 1, 1, 2, 2, 3, 5, 8];
        arrival += GAPS[rng.below(8) as usize];
    }
    SrcSpec {
        unordered: false,
        slack: 0,
        clamp: false,
        exact: true,
        filter_min: None,
        wide: false,
        events,
    }
}

/// One-line digest of the scenario a seed generates (CLI diagnostics and
/// corpus curation).
pub fn describe_seed(seed: u64) -> String {
    let spec = gen_spec(seed);
    let comps: Vec<String> = spec
        .comps
        .iter()
        .map(|c| {
            let srcs: Vec<String> = c
                .sources
                .iter()
                .map(|s| {
                    let n = s
                        .events
                        .iter()
                        .filter(|e| matches!(e, Ev::Data { .. }))
                        .count();
                    let hb = s.events.len() - n;
                    let wide = if s.wide { " wide" } else { "" };
                    if s.unordered {
                        let mode = if s.exact { "exact" } else { "clamped" };
                        format!("unordered({n}d/{hb}h slack={} {mode}{wide})", s.slack)
                    } else {
                        format!("ordered({n}d/{hb}h{wide})")
                    }
                })
                .collect();
            match c.join {
                Some((kind, w)) => {
                    let kind = match kind {
                        JoinKind::Keyed => "keyed",
                        JoinKind::Conditioned => "conditioned",
                    };
                    format!("join3[{kind} w={w}: {}]", srcs.join(" + "))
                }
                None => format!("[{}]", srcs.join(" + ")),
            }
        })
        .collect();
    format!("seed {seed}: {}", comps.join(" | "))
}

/// The naive single-queue oracle: every data tuple that survives its
/// source's filter, merged into one queue and sorted by timestamp. Join
/// components use the combination oracle instead.
fn expected(comp: &CompSpec) -> Expected {
    if let Some((_, w)) = comp.join {
        return expected_join(comp, w);
    }
    let inexact = comp.sources.iter().any(|s| s.unordered && !s.exact);
    let mut rows: Vec<(u64, i64)> = Vec::new();
    for s in &comp.sources {
        for ev in &s.events {
            if let Ev::Data { ts, v, .. } = *ev {
                if s.filter_min.is_none_or(|k| v >= k) {
                    rows.push((ts, v));
                }
            }
        }
    }
    rows.sort_unstable();
    if inexact {
        let mut vs: Vec<i64> = rows.iter().map(|r| r.1).collect();
        vs.sort_unstable();
        Expected::ValuesOnly(vs)
    } else {
        Expected::Exact(rows)
    }
}

/// Thread-safe sink collector capturing `(ts, value)` rows.
#[derive(Clone, Default)]
struct CollectedSink(Arc<Mutex<Vec<(u64, i64)>>>);

impl SinkCollector for CollectedSink {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let v = match tuple.values().and_then(|vs| vs.first()) {
            Some(&Value::Int(v)) => v,
            _ => i64::MIN,
        };
        self.0.lock().unwrap().push((tuple.ts.as_micros(), v));
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", DataType::Int)])
}

/// Wide variant: `INLINE_ROW_CAP + 2` columns, guaranteed past the inline
/// cap so every row on a wide source's path is spilled.
const WIDE_COLS: usize = INLINE_ROW_CAP + 2;

fn wide_schema() -> Schema {
    Schema::new(
        (0..WIDE_COLS)
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect::<Vec<_>>(),
    )
}

/// The payload a source ingests for value `v`: the padding columns carry
/// values derived from `v` so a corrupted or torn spill would change what
/// the narrowing `Project` emits and trip the oracle.
fn payload(s: &SrcSpec, v: i64) -> Vec<Value> {
    if s.wide {
        (0..WIDE_COLS as i64).map(|i| Value::Int(v + i)).collect()
    } else {
        vec![Value::Int(v)]
    }
}

struct Built {
    graph: QueryGraph,
    /// Per component: its global source ids, in spec order.
    src_ids: Vec<Vec<SourceId>>,
    /// Per component: its sink.
    outs: Vec<CollectedSink>,
}

/// What every component's sink has collected.
fn outputs(outs: &[CollectedSink]) -> Vec<Vec<(u64, i64)>> {
    outs.iter()
        .map(|out| out.0.lock().unwrap().clone())
        .collect()
}

/// Appends one component's pipeline — sources, optional `Reorder` /
/// `Filter` / narrowing `Project` stages, a `Union` when multi-source,
/// and a sink delivering to `out` — to the builder. Returns the
/// component's source ids in spec order. Shared between the full
/// multi-component graph ([`build`]) and the per-shard replica factories
/// ([`run_sharded`]), so every engine cell executes the same plan.
fn append_component<C: SinkCollector + 'static>(
    b: &mut GraphBuilder,
    comp: &CompSpec,
    ci: usize,
    tier: Option<TierConfig>,
    out: C,
) -> Result<Vec<SourceId>, String> {
    if let Some((kind, w)) = comp.join {
        return append_join_component(b, comp, ci, kind, w, tier, out);
    }
    let mut tails = Vec::new();
    let mut src_ids = Vec::new();
    for (si, s) in comp.sources.iter().enumerate() {
        let name = format!("S{ci}_{si}");
        let src_schema = if s.wide { wide_schema() } else { schema() };
        let sid = if s.unordered {
            b.unordered_source(&name, src_schema.clone(), TimestampKind::External)
        } else {
            b.source(&name, src_schema.clone(), TimestampKind::Internal)
        };
        src_ids.push(sid);
        let mut tail = Input::Source(sid);
        if s.unordered {
            let policy = if s.clamp {
                LatePolicy::Clamp
            } else {
                LatePolicy::Drop
            };
            let r = Reorder::new(
                format!("reorder{ci}_{si}"),
                src_schema.clone(),
                TimeDelta::from_micros(s.slack),
            )
            .with_late_policy(policy);
            tail = Input::Op(
                b.operator(Box::new(r), vec![tail])
                    .map_err(|e| e.to_string())?,
            );
        }
        if let Some(k) = s.filter_min {
            let f = Filter::new(
                format!("filter{ci}_{si}"),
                src_schema.clone(),
                Expr::col(0).ge(Expr::lit(k)),
            );
            tail = Input::Op(
                b.operator(Box::new(f), vec![tail])
                    .map_err(|e| e.to_string())?,
            );
        }
        if s.wide {
            // Narrow the spilled rows back to the one-column schema the
            // union and sink (and the oracle) expect.
            let p = Project::new(format!("narrow{ci}_{si}"), schema(), vec![Expr::col(0)]);
            tail = Input::Op(
                b.operator(Box::new(p), vec![tail])
                    .map_err(|e| e.to_string())?,
            );
        }
        tails.push(tail);
    }
    let tail = if tails.len() > 1 {
        let u = Union::new(format!("union{ci}"), schema(), tails.len());
        Input::Op(b.operator(Box::new(u), tails).map_err(|e| e.to_string())?)
    } else {
        tails.pop().expect("component has at least one source")
    };
    b.operator(
        Box::new(Sink::new(format!("sink{ci}"), schema(), out)),
        vec![tail],
    )
    .map_err(|e| e.to_string())?;
    Ok(src_ids)
}

/// Output schema of a 3-way join component: the concatenated input
/// columns.
fn join_out_schema() -> Schema {
    Schema::new(
        (0..3)
            .map(|i| Field::new(format!("v{i}"), DataType::Int))
            .collect::<Vec<_>>(),
    )
}

/// Appends a 3-way [`MultiWindowJoin`] component: three ordered narrow
/// sources straight into the join, then the sink.
fn append_join_component<C: SinkCollector + 'static>(
    b: &mut GraphBuilder,
    comp: &CompSpec,
    ci: usize,
    kind: JoinKind,
    w: u64,
    tier: Option<TierConfig>,
    out: C,
) -> Result<Vec<SourceId>, String> {
    let mut inputs = Vec::new();
    let mut src_ids = Vec::new();
    for si in 0..comp.sources.len() {
        let sid = b.source(format!("S{ci}_{si}"), schema(), TimestampKind::Internal);
        src_ids.push(sid);
        inputs.push(Input::Source(sid));
    }
    let windows = vec![TimeDelta::from_micros(w); comp.sources.len()];
    let schemas = vec![schema(); comp.sources.len()];
    let join = match kind {
        JoinKind::Keyed => MultiWindowJoin::new(format!("join{ci}"), &schemas, windows, None)
            .with_keys(vec![0; comp.sources.len()]),
        JoinKind::Conditioned => MultiWindowJoin::new(
            format!("join{ci}"),
            &schemas,
            windows,
            Some(
                Expr::col(0)
                    .eq(Expr::col(1))
                    .and(Expr::col(1).eq(Expr::col(2))),
            ),
        ),
    };
    let join = join.with_tier(tier);
    let jn = b
        .operator(Box::new(join), inputs)
        .map_err(|e| e.to_string())?;
    b.operator(
        Box::new(Sink::new(format!("sink{ci}"), join_out_schema(), out)),
        vec![Input::Op(jn)],
    )
    .map_err(|e| e.to_string())?;
    Ok(src_ids)
}

fn build(spec: &FuzzSpec, tier: Option<TierConfig>) -> Result<Built, String> {
    let mut b = GraphBuilder::new();
    let mut src_ids = Vec::new();
    let mut outs = Vec::new();
    for (ci, comp) in spec.comps.iter().enumerate() {
        let out = CollectedSink::default();
        src_ids.push(append_component(&mut b, comp, ci, tier, out.clone())?);
        outs.push(out);
    }
    let graph = b.build().map_err(|e| e.to_string())?;
    Ok(Built {
        graph,
        src_ids,
        outs,
    })
}

/// A globally ordered ingest schedule: all events of all sources, sorted
/// by arrival instant, stable within each source.
struct GEvent {
    arrival: u64,
    comp: usize,
    src: usize,
    ev: Ev,
}

fn merged_events(spec: &FuzzSpec) -> Vec<GEvent> {
    let mut all = Vec::new();
    for (ci, comp) in spec.comps.iter().enumerate() {
        for (si, s) in comp.sources.iter().enumerate() {
            for ev in &s.events {
                all.push(GEvent {
                    arrival: ev.arrival(),
                    comp: ci,
                    src: si,
                    ev: *ev,
                });
            }
        }
    }
    // Stable sort preserves each source's own event order under arrival
    // ties while interleaving sources deterministically.
    all.sort_by_key(|g| (g.arrival, g.comp, g.src));
    all
}

/// The one event-replay loop every matrix cell shares: replays the
/// spec's global arrival schedule through `engines` — a single engine
/// hosting every component (serial, parallel) or one engine per component
/// (sharded; components are independent) — draining every engine to
/// quiescence at each arrival boundary, then closes all sources, drains
/// again and requires a clean violation count.
fn replay<E: Engine>(
    spec: &FuzzSpec,
    engines: &mut [E],
    src_ids: &[Vec<SourceId>],
) -> millstream_types::Result<()> {
    let shared = engines.len() == 1;
    let host = |comp: usize| if shared { 0 } else { comp };
    let drain_all = |engines: &mut [E]| -> millstream_types::Result<()> {
        for engine in engines.iter_mut() {
            if engine.run_until_quiescent(MAX_STEPS)? >= MAX_STEPS {
                return Err(Error::runtime(format!(
                    "step budget ({MAX_STEPS}) exhausted without quiescence"
                )));
            }
        }
        Ok(())
    };
    let mut pending: Option<u64> = None;
    for g in merged_events(spec) {
        if pending.is_some_and(|a| a != g.arrival) {
            drain_all(engines)?;
        }
        pending = Some(g.arrival);
        let sid = src_ids[g.comp][g.src];
        let src = &spec.comps[g.comp].sources[g.src];
        let engine = &mut engines[host(g.comp)];
        engine.advance_to(Timestamp::from_micros(g.arrival))?;
        match g.ev {
            Ev::Data { ts, v, .. } => engine.ingest(
                sid,
                Tuple::data(Timestamp::from_micros(ts), payload(src, v)),
            )?,
            Ev::Heartbeat { ts, .. } => engine.ingest_heartbeat(sid, Timestamp::from_micros(ts))?,
        }
    }
    drain_all(engines)?;
    for (comp, ids) in src_ids.iter().enumerate() {
        for &sid in ids {
            engines[host(comp)].close_source(sid)?;
        }
    }
    drain_all(engines)?;
    for engine in engines.iter() {
        // Includes the sharded merge input's frontier-consistency count.
        let violations = engine.stats()?.invariant_violations;
        if violations != 0 {
            return Err(Error::runtime(format!(
                "{violations} invariant violation(s) counted"
            )));
        }
    }
    Ok(())
}

fn run_serial(
    spec: &FuzzSpec,
    policy: EtsPolicy,
    sched: SchedPolicy,
    tier: Option<TierConfig>,
) -> Result<Vec<Vec<(u64, i64)>>, String> {
    let built = build(spec, tier)?;
    let exec = Executor::new(
        built.graph,
        VirtualClock::shared(),
        CostModel::free(),
        policy,
    )
    .with_sched_policy(sched)
    .with_check_mode(CheckMode::Strict);
    replay(spec, &mut [exec], &built.src_ids).map_err(|e| e.to_string())?;
    Ok(outputs(&built.outs))
}

fn run_parallel(
    spec: &FuzzSpec,
    policy: EtsPolicy,
    sched: SchedPolicy,
    workers: usize,
) -> Result<Vec<Vec<(u64, i64)>>, String> {
    let built = build(spec, None)?;
    let config = ParallelConfig::new(CostModel::free(), policy, workers)
        .with_sched_policy(sched)
        .with_check_mode(CheckMode::Strict);
    let pex = ParallelExecutor::new(built.graph, config);
    replay(spec, &mut [pex], &built.src_ids).map_err(|e| e.to_string())?;
    Ok(outputs(&built.outs))
}

/// Runs each component through a [`ShardedExecutor`]: tuples whole-row
/// key-partitioned across `shards` exchange queues, each shard a full
/// replica of the component pipeline, outputs timestamp-merged back into
/// one stream whose per-shard frontier floors the sentinel layer checks
/// for consistency. Components are independent, so each gets its own
/// sharded engine while the global arrival schedule is replayed across
/// all of them (quiescence barriers between arrival epochs, as in the
/// serial and parallel cells).
fn run_sharded(
    spec: &FuzzSpec,
    policy: EtsPolicy,
    sched: SchedPolicy,
    shards: usize,
) -> Result<Vec<Vec<(u64, i64)>>, String> {
    let mut execs = Vec::new();
    let mut outs = Vec::new();
    let mut src_ids: Vec<Vec<SourceId>> = Vec::new();
    for (ci, comp) in spec.comps.iter().enumerate() {
        let out = CollectedSink::default();
        let mut config = ShardedConfig::new(CostModel::free(), policy, shards)
            .with_sched_policy(sched)
            .with_check_mode(CheckMode::Strict);
        if comp.join.is_some() {
            // Every matching combination has equal values across inputs
            // (hash keys or the explicit equality condition), so routing
            // each input on column 0 keeps combinations whole per shard.
            config = config.with_keys(vec![ShardKey::Column(0); comp.sources.len()]);
        }
        let merge_schema = if comp.join.is_some() {
            join_out_schema()
        } else {
            schema()
        };
        let mut ids = Vec::new();
        let sx = ShardedExecutor::new(
            |replica, shard_out: ShardOutput| {
                let mut b = GraphBuilder::new();
                let sids = append_component(&mut b, comp, ci, None, shard_out)
                    .map_err(|e| Error::graph(format!("shard replica build: {e}")))?;
                if replica == 0 {
                    ids = sids;
                }
                b.build()
            },
            merge_schema,
            Box::new(out.clone()),
            config,
        )
        .map_err(|e| e.to_string())?;
        execs.push(sx);
        outs.push(out);
        src_ids.push(ids);
    }
    replay(spec, &mut execs, &src_ids).map_err(|e| e.to_string())?;
    Ok(outputs(&outs))
}

/// Checks one engine run's sink outputs against the oracle.
fn check_outputs(
    spec: &FuzzSpec,
    outputs: &[Vec<(u64, i64)>],
    label: &str,
    failures: &mut Vec<String>,
) {
    for (ci, comp) in spec.comps.iter().enumerate() {
        let out = &outputs[ci];
        if let Some(w) = out.windows(2).find(|w| w[0].0 > w[1].0) {
            failures.push(format!(
                "{label}: component {ci} sink order regression ({} then {})",
                w[0].0, w[1].0
            ));
            continue;
        }
        match expected(comp) {
            Expected::Exact(want) => {
                let mut got = out.clone();
                got.sort_unstable();
                if got != want {
                    failures.push(format!(
                        "{label}: component {ci} mismatch: {} row(s) delivered, {} expected{}",
                        got.len(),
                        want.len(),
                        first_diff(&got, &want)
                    ));
                }
            }
            Expected::ValuesOnly(want) => {
                let mut got: Vec<i64> = out.iter().map(|r| r.1).collect();
                got.sort_unstable();
                if got != want {
                    failures.push(format!(
                        "{label}: component {ci} value-multiset mismatch: {} row(s) delivered, {} expected",
                        got.len(),
                        want.len()
                    ));
                }
            }
        }
    }
}

/// Oracle for a 3-way join component: every combination of one data tuple
/// per input whose members all lie within `w` of the combination's
/// maximum timestamp M — the symmetric-window containment the probe
/// enforces — with all three values equal (hash keys for `Keyed`, the
/// explicit condition for `Conditioned`). Each combination is emitted
/// exactly once, when its last member probes, at timestamp M, and the
/// sink records the first output column: input 0's value.
fn expected_join(comp: &CompSpec, w: u64) -> Expected {
    let input = |i: usize| -> Vec<(u64, i64)> {
        comp.sources[i]
            .events
            .iter()
            .filter_map(|e| match *e {
                Ev::Data { ts, v, .. } => Some((ts, v)),
                Ev::Heartbeat { .. } => None,
            })
            .collect()
    };
    let (a, b, c) = (input(0), input(1), input(2));
    let mut rows = Vec::new();
    for &(ta, va) in &a {
        for &(tb, vb) in &b {
            if vb != va {
                continue;
            }
            for &(tc, vc) in &c {
                if vc != va {
                    continue;
                }
                let m = ta.max(tb).max(tc);
                if m - ta <= w && m - tb <= w && m - tc <= w {
                    rows.push((m, va));
                }
            }
        }
    }
    rows.sort_unstable();
    Expected::Exact(rows)
}

fn first_diff(got: &[(u64, i64)], want: &[(u64, i64)]) -> String {
    for i in 0..got.len().max(want.len()) {
        let g = got.get(i);
        let w = want.get(i);
        if g != w {
            return format!("; first diff at row {i}: got {g:?}, want {w:?}");
        }
    }
    String::new()
}

/// Runs the full engine matrix for one seed; returns failure descriptions
/// (empty = clean).
pub fn fuzz_seed(seed: u64) -> Vec<String> {
    let spec = gen_spec(seed);
    let mut policies = vec![EtsPolicy::None];
    if !spec.any_unordered() {
        policies.push(EtsPolicy::on_demand());
    }
    let mut failures = Vec::new();
    for &policy in &policies {
        for sched in [SchedPolicy::DepthFirst, SchedPolicy::RoundRobin] {
            for workers in [1usize, 4] {
                let label =
                    format!("seed {seed} [policy={policy:?} sched={sched:?} workers={workers}]");
                let result = if workers == 1 {
                    run_serial(&spec, policy, sched, None)
                } else {
                    run_parallel(&spec, policy, sched, workers)
                };
                match result {
                    Err(e) => failures.push(format!("{label}: {e}")),
                    Ok(outputs) => check_outputs(&spec, &outputs, &label, &mut failures),
                }
            }
            // Exchange-edge cells: the same spec sharded across worker
            // threads behind whole-row key partitioning, including the
            // shards=1 degenerate path (router + merge stage with a
            // single queue behind them).
            for shards in [1usize, 2, 4] {
                let label =
                    format!("seed {seed} [policy={policy:?} sched={sched:?} shards={shards}]");
                match run_sharded(&spec, policy, sched, shards) {
                    Err(e) => failures.push(format!("{label}: {e}")),
                    Ok(outputs) => check_outputs(&spec, &outputs, &label, &mut failures),
                }
            }
        }
    }
    // Tiered-join cells: every join spec reruns with the join state
    // compacting aged rows into columnar runs — once never spilling
    // (unbounded) and once spilling every run (budget 0, an aggressive
    // hot fraction so compaction fires constantly). Output must stay
    // byte-identical to the untiered cells above; the oracle check pins
    // that.
    if spec.comps.iter().any(|c| c.join.is_some()) {
        for (label_budget, budget) in [("unbounded", u64::MAX), ("tiny", 0)] {
            let tier = TierConfig {
                budget,
                hot_fraction: 0.25,
                min_run_rows: 4,
            };
            let label = format!("seed {seed} [tier={label_budget}]");
            match run_serial(&spec, EtsPolicy::None, SchedPolicy::DepthFirst, Some(tier)) {
                Err(e) => failures.push(format!("{label}: {e}")),
                Ok(outputs) => check_outputs(&spec, &outputs, &label, &mut failures),
            }
        }
    }
    failures
}

/// Aggregate result of a fuzz campaign.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds exercised.
    pub seeds: u64,
    /// Engine runs executed (matrix cells across all seeds).
    pub runs: u64,
    /// Failure descriptions, each prefixed with its seed and matrix cell.
    pub failures: Vec<String>,
}

/// Fuzzes `count` consecutive seeds starting at `base`.
pub fn fuzz_range(base: u64, count: u64) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for seed in base..base.saturating_add(count) {
        let spec = gen_spec(seed);
        // policies × scheds × (workers {1, 4} + shards {1, 2, 4}), plus
        // the two tiered-join cells for join specs (unbounded and
        // always-spill budgets).
        let mut cells = if spec.any_unordered() { 10 } else { 20 };
        if spec.comps.iter().any(|c| c.join.is_some()) {
            cells += 2;
        }
        summary.seeds += 1;
        summary.runs += cells;
        summary.failures.extend(fuzz_seed(seed));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = format!("{:?}", gen_spec(42));
        let b = format!("{:?}", gen_spec(42));
        assert_eq!(a, b);
        assert_ne!(a, format!("{:?}", gen_spec(43)), "seeds diverge");
        assert_eq!(describe_seed(42), describe_seed(42));
    }

    #[test]
    fn heartbeats_are_valid_by_construction() {
        for seed in 0..64 {
            for comp in gen_spec(seed).comps {
                for s in comp.sources {
                    for (i, ev) in s.events.iter().enumerate() {
                        if let Ev::Heartbeat { ts, .. } = *ev {
                            let min_future = s.events[i + 1..]
                                .iter()
                                .filter_map(|e| match *e {
                                    Ev::Data { ts, .. } => Some(ts),
                                    Ev::Heartbeat { .. } => None,
                                })
                                .min();
                            assert!(
                                min_future.is_none_or(|m| m >= ts),
                                "seed {seed}: heartbeat at {ts} overtakes future data"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_seed_range_is_clean() {
        for seed in 0..8 {
            let failures = fuzz_seed(seed);
            assert!(failures.is_empty(), "{}", failures.join("\n"));
        }
    }

    /// Both join-component kinds must actually be exercised: the first
    /// keyed and the first conditioned join seed each run the full matrix
    /// clean (serial, parallel, and key-sharded cells against the
    /// combination oracle).
    #[test]
    fn join_components_are_generated_and_clean() {
        let find = |kind: JoinKind| {
            (0..64).find(|&seed| {
                gen_spec(seed)
                    .comps
                    .iter()
                    .any(|c| c.join.is_some_and(|(k, _)| k == kind))
            })
        };
        for kind in [JoinKind::Keyed, JoinKind::Conditioned] {
            let Some(seed) = find(kind) else {
                panic!("no {kind:?} join component in the first 64 seeds")
            };
            assert!(describe_seed(seed).contains("join3"));
            let failures = fuzz_seed(seed);
            assert!(failures.is_empty(), "{}", failures.join("\n"));
        }
    }

    /// The spill representation must actually be exercised: some seed in
    /// the default sweep generates a wide source, and the first such seed
    /// runs the full matrix clean.
    #[test]
    fn wide_row_sources_are_generated_and_clean() {
        let wide_seed = (0..64).find(|&seed| {
            gen_spec(seed)
                .comps
                .iter()
                .any(|c| c.sources.iter().any(|s| s.wide))
        });
        let Some(seed) = wide_seed else {
            panic!("no wide source in the first 64 seeds — spill path untested")
        };
        assert!(describe_seed(seed).contains("wide"));
        let failures = fuzz_seed(seed);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
