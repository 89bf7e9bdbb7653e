//! Layer cells: small fixed-work measurements of one crate's public
//! functions each, run in every traced run. They do not depend on the
//! traced workload; each is the median of a few repetitions.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use millstream_buffer::Buffer;
use millstream_core::QueryRunner;
use millstream_exec::{
    CostModel, EtsPolicy, ParallelConfig, ParallelExecutor, ShardedConfig, ShardedExecutor,
};
use millstream_metrics::LatencyRecorder;
use millstream_net::{ClientConfig, Frame, Server, ServerConfig, StreamClient};
use millstream_ops::{Filter, JoinState, OpContext, Operator, TierConfig, Union};
use millstream_query::{parse_program, plan_program, plan_query, shard_keys, Catalog};
use millstream_sim::{run_union_experiment, Strategy, UnionExperiment};
use millstream_types::{DataType, Expr, Field, Schema, TimeDelta, Timestamp, Tuple, Value};

use crate::engine::{CheckSink, JOIN_PROGRAM, UNION_PROGRAM};
use crate::report::Metrics;
use crate::schedule::{Rng, Zipf, UNION_PASS_BELOW};
use crate::stats;

/// Repetitions each cell takes the median of (one in a smoke run).
pub const REPS: usize = 5;

/// Median over `reps` runs of `f` (which performs `ops` operations) of the
/// time per operation in nanoseconds. `f` gets the repetition index.
fn ns_per_op(reps: usize, ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|rep| {
            let t0 = Instant::now();
            f(rep);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&times).expect("repetitions ran")
}

fn schema2() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

fn row(ts: u64, a: i64, b: i64) -> Tuple {
    Tuple::data(Timestamp::from_micros(ts), [Value::Int(a), Value::Int(b)])
}

fn pass_predicate() -> Expr {
    Expr::col(1).lt(Expr::lit(UNION_PASS_BELOW))
}

fn types_cells(m: &mut Metrics, reps: usize) {
    const N: usize = 200_000;
    m.put_n(
        "types.tuple_build_ns",
        ns_per_op(reps, N, |_| {
            for i in 0..N as u64 {
                black_box(row(black_box(i), i as i64, 7));
            }
        }),
        N,
    );
    let pred = pass_predicate();
    let rows: Vec<[Value; 2]> = (0..1000)
        .map(|i| [Value::Int(i), Value::Int(i % 1000)])
        .collect();
    m.put_n(
        "types.predicate_eval_ns",
        ns_per_op(reps, N, |_| {
            for i in 0..N {
                black_box(
                    pred.eval_predicate(black_box(&rows[i % 1000]))
                        .expect("eval"),
                );
            }
        }),
        N,
    );
}

fn buffer_cell(m: &mut Metrics, reps: usize) {
    const BATCH: usize = 250;
    const BATCHES: usize = 400;
    let mut ts = 0u64;
    let mut buf = Buffer::new("cell");
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        // Building the batches is not what this cell measures.
        let batches: Vec<Vec<Tuple>> = (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        ts += 1;
                        row(ts, ts as i64, 1)
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        for batch in batches {
            buf.push_batch(batch).expect("ordered push");
            let block = buf.drain_front(BATCH);
            black_box(block.len());
            buf.recycle(block);
        }
        times.push(t0.elapsed().as_nanos() as f64 / (BATCH * BATCHES) as f64);
    }
    m.put_n(
        "buffer.push_drain_ns_per_tuple",
        stats::median(&times).expect("reps"),
        BATCH * BATCHES,
    );
}

/// Steps `op` directly (no scheduler) until it starves, draining its output.
fn step_dry(op: &mut dyn Operator, inputs: &[&RefCell<Buffer>], out: &RefCell<Buffer>) {
    let outputs = [out];
    let ctx = OpContext::new(inputs, &outputs, Timestamp::ZERO);
    while op.poll(&ctx).is_ready() {
        op.step(&ctx).expect("operator step");
        if out.borrow().len() >= 256 {
            out.borrow_mut().clear();
        }
    }
    out.borrow_mut().clear();
}

fn ops_stateless_cells(m: &mut Metrics, reps: usize) {
    const N: usize = 100_000;
    let mut base = 0u64;
    let filter_ns = ns_per_op(reps, N, |_| {
        let input = RefCell::new(Buffer::new("in"));
        let out = RefCell::new(Buffer::new("out"));
        for i in 0..N as u64 {
            input
                .borrow_mut()
                .push(row(base + i + 1, i as i64, (i % 1000) as i64))
                .expect("push");
        }
        base += N as u64;
        let mut filter = Filter::new("σ", schema2(), pass_predicate());
        step_dry(&mut filter, &[&input], &out);
    });
    // The timed closure above also fills the buffer; measure that alone
    // and subtract it, so the figure is the operator's.
    let fill_ns = ns_per_op(reps, N, |_| {
        let input = RefCell::new(Buffer::new("in"));
        for i in 0..N as u64 {
            input
                .borrow_mut()
                .push(row(base + i + 1, i as i64, (i % 1000) as i64))
                .expect("push");
        }
        base += N as u64;
        black_box(input.borrow().len());
    });
    m.put_n("ops.filter_ns_per_tuple", (filter_ns - fill_ns).max(0.0), N);

    let union_ns = ns_per_op(reps, N, |_| {
        let a = RefCell::new(Buffer::new("a"));
        let b = RefCell::new(Buffer::new("b"));
        let out = RefCell::new(Buffer::new("out"));
        for i in 0..(N / 2) as u64 {
            a.borrow_mut()
                .push(row(2 * i + 2, i as i64, 1))
                .expect("push");
            b.borrow_mut()
                .push(row(2 * i + 3, i as i64, 2))
                .expect("push");
        }
        let mut union = Union::new("∪", schema2(), 2);
        step_dry(&mut union, &[&a, &b], &out);
    });
    m.put_n("ops.union_ns_per_tuple", (union_ns - fill_ns).max(0.0), N);
}

fn join_state_cells(m: &mut Metrics, seed: u64, reps: usize) {
    const N: usize = 200_000;
    let zipf = Zipf::new(70_000, 0.5);
    let mut rng = Rng::new(seed);
    let keys: Vec<i64> = (0..N).map(|_| zipf.sample(&mut rng)).collect();
    let window = TimeDelta::from_micros(10 * N as u64);
    let mut insert = Vec::new();
    let mut probe = Vec::new();
    let mut purge = Vec::new();
    for _ in 0..reps {
        let mut state = JoinState::new(window, Some(0));
        let tuples: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| row(i as u64 + 1, k, i as i64))
            .collect();
        let t0 = Instant::now();
        for t in tuples {
            state.insert(t);
        }
        insert.push(t0.elapsed().as_nanos() as f64 / N as f64);
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        let mut matched = 0usize;
        for &k in &keys {
            matched += state
                .probe(Some(&Value::Int(k)), &mut scratch)
                .expect("probe")
                .count();
        }
        probe.push(t0.elapsed().as_nanos() as f64 / N as f64);
        black_box(matched);
        let held = state.len();
        let t0 = Instant::now();
        state.purge(Timestamp::from_micros(12 * N as u64));
        purge.push(t0.elapsed().as_nanos() as f64 / (held - state.len()).max(1) as f64);
    }
    m.put_n(
        "ops.join_state.insert_ns",
        stats::median(&insert).expect("reps"),
        N,
    );
    m.put_n(
        "ops.join_state.probe_ns",
        stats::median(&probe).expect("reps"),
        N,
    );
    m.put_n(
        "ops.join_state.purge_ns_per_expired",
        stats::median(&purge).expect("reps"),
        N,
    );
}

/// The join state at a 4 KiB resident budget: nearly every compacted run
/// spills, so probes rehydrate from the state's temp file.
fn spill_cells(m: &mut Metrics, seed: u64) {
    const N: usize = 60_000;
    const PROBES: usize = 2_000;
    let zipf = Zipf::new(5_000, 0.5);
    let mut rng = Rng::new(seed ^ 0x5B11);
    let window = TimeDelta::from_micros(N as u64);
    let mut state = JoinState::with_tier(window, Some(0), Some(TierConfig::with_budget(4096)));
    for i in 0..N as u64 {
        let ts = Timestamp::from_micros(i + 1);
        state.advance(ts);
        state.insert(row(i + 1, zipf.sample(&mut rng), i as i64));
    }
    let mut out = Vec::new();
    let t0 = Instant::now();
    let mut rows = 0;
    for _ in 0..PROBES {
        out.clear();
        rows += state
            .probe_cold(Some(&Value::Int(zipf.sample(&mut rng))), &mut out)
            .expect("cold probe");
    }
    black_box(rows);
    m.put_n(
        "ops.spill.cold_probe_ns",
        t0.elapsed().as_nanos() as f64 / PROBES as f64,
        PROBES,
    );
    // Everything expires: whole runs retire by header comparison.
    state.purge(Timestamp::from_micros(3 * N as u64));
    let s = state.spill_stats();
    m.put("ops.spill.spilled_bytes", s.spilled_bytes as f64);
    m.put("ops.spill.run_drops", s.run_drops as f64);
}

fn exec_parallel_cell(m: &mut Metrics, reps: usize) {
    const ROUNDS: u64 = 400;
    const BATCH: u64 = 250;
    let per_tuple = ns_per_op(reps, (ROUNDS * BATCH) as usize, |_| {
        let sink = CheckSink::default();
        let planned = plan_program(UNION_PROGRAM, sink.clone()).expect("plan");
        let (fast, slow) = (planned.sources[0].id, planned.sources[1].id);
        // One worker, no ETS policy, free cost model: what `Server` embeds.
        let pex = ParallelExecutor::new(
            planned.graph,
            ParallelConfig::new(CostModel::free(), EtsPolicy::None, 1),
        );
        let mut id = 0u64;
        for _ in 0..ROUNDS {
            let batch: Vec<Tuple> = (0..BATCH)
                .map(|_| {
                    id += 1;
                    row(2 * id, id as i64, (id % 1000) as i64)
                })
                .collect();
            let at = Timestamp::from_micros(2 * id + 1);
            pex.ingest_batch(fast, batch).expect("ingest");
            pex.ingest_heartbeat(slow, at).expect("heartbeat");
            pex.advance_to(at).expect("advance");
            pex.run_until_quiescent(100_000_000).expect("run");
        }
        black_box(sink.got());
    });
    m.put_n(
        "exec.parallel.run_ns_per_tuple",
        per_tuple,
        (ROUNDS * BATCH) as usize,
    );
}

fn exec_sharded_cell(m: &mut Metrics, seed: u64, reps: usize) {
    const ROUNDS: u64 = 200;
    const BATCH: u64 = 250;
    let zipf = Zipf::new(20_000, 0.5);
    let stmts = parse_program(JOIN_PROGRAM).expect("parse");
    let mut catalog = Catalog::new();
    let query = catalog.apply(stmts).expect("catalog").pop().expect("query");
    let keys = shard_keys(&catalog, &query)
        .expect("shard analysis")
        .expect("an equi-join is shardable");
    let probe = plan_query(&catalog, &query, CheckSink::default()).expect("plan");
    let sources = [probe.sources[0].id, probe.sources[1].id];
    let per_tuple = ns_per_op(reps, (ROUNDS * BATCH) as usize, |rep| {
        let mut rng = Rng::new(seed + rep as u64);
        let sink = CheckSink::default();
        let mut sx = ShardedExecutor::new(
            |_, out| plan_query(&catalog, &query, out).map(|p| p.graph),
            probe.output_schema.clone(),
            Box::new(sink.clone()),
            ShardedConfig::new(CostModel::free(), EtsPolicy::None, 2).with_keys(keys.clone()),
        )
        .expect("sharded executor");
        let mut n = 0u64;
        for _ in 0..ROUNDS {
            for _ in 0..BATCH {
                n += 1;
                let t = row(n, zipf.sample(&mut rng), (n / 2) as i64);
                sx.ingest(sources[(n % 2) as usize], t).expect("ingest");
            }
            sx.advance_to(Timestamp::from_micros(n)).expect("advance");
            sx.run_until_quiescent(100_000_000).expect("run");
        }
        black_box(sink.got());
    });
    m.put_n(
        "exec.sharded.run_ns_per_tuple",
        per_tuple,
        (ROUNDS * BATCH) as usize,
    );
    // Every ingested row crosses the exchange edge exactly once.
    m.put("exec.sharded.exchange_rows", (ROUNDS * BATCH) as f64);
}

fn query_cell(m: &mut Metrics) {
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            black_box(plan_program(UNION_PROGRAM, CheckSink::default()).expect("plan"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put_n("query.plan_ms", stats::median(&times).expect("reps"), 21);
}

fn net_codec_cells(m: &mut Metrics, reps: usize) {
    const N: usize = 100_000;
    m.put_n(
        "net.frame_encode_ns",
        ns_per_op(reps, N, |_| {
            for i in 0..N as u64 {
                let f = Frame::Data {
                    seq: i,
                    tuple: row(i, i as i64, 7),
                };
                black_box(f.encode().expect("encode"));
            }
        }),
        N,
    );
    let bytes = Frame::Data {
        seq: 9,
        tuple: row(1234, 77, 7),
    }
    .encode()
    .expect("encode");
    m.put_n(
        "net.frame_decode_ns",
        ns_per_op(reps, N, |_| {
            for _ in 0..N {
                black_box(Frame::decode(black_box(&bytes[4..])).expect("decode"));
            }
        }),
        N,
    );
    m.put_n(
        "net.output_encode_ns",
        ns_per_op(reps, N, |_| {
            for i in 0..N as u64 {
                let f = Frame::Output {
                    tuple: row(i, i as i64, 7),
                };
                black_box(f.encode().expect("encode"));
            }
        }),
        N,
    );
}

/// `StreamClient::send` at two ack windows — the `msq send` user's cost.
/// The generator bypasses the client, so this moves no end-to-end metric.
fn net_client_cells(m: &mut Metrics) {
    const N: u64 = 20_000;
    for (name, window) in [
        ("net.client_send_ns_w32", 32),
        ("net.client_send_ns_w4096", 4096),
    ] {
        let mut cfg = ServerConfig::new(UNION_PROGRAM);
        cfg.workers = 1;
        cfg.io_threads = 1;
        cfg.feedback = None;
        let server = Server::start(cfg).expect("server");
        let mut cc = ClientConfig::new(server.addr().to_string(), "fast");
        cc.ack_window = window;
        let mut client = StreamClient::connect(cc).expect("client");
        let t0 = Instant::now();
        for i in 0..N {
            client.send(row(2 * (i + 1), i as i64, 1)).expect("send");
        }
        client.flush().expect("flush");
        m.put_n(name, t0.elapsed().as_nanos() as f64 / N as f64, N as usize);
        client.close().expect("close");
        server.shutdown().expect("shutdown");
    }
}

fn metrics_cells(m: &mut Metrics, reps: usize) {
    const N: usize = 1_000_000;
    let mut rec = LatencyRecorder::new();
    m.put_n(
        "metrics.latency_record_ns",
        ns_per_op(reps, N, |_| {
            for i in 0..N as u64 {
                rec.record(TimeDelta::from_micros(black_box(100 + i % 50_000)));
            }
        }),
        N,
    );
    // Worst relative error of the histogram's quantiles against the exact
    // ones, on log-spaced latencies from 100 µs to 100 ms.
    let mut rec = LatencyRecorder::new();
    let mut exact: Vec<f64> = (0..10_000)
        .map(|i| 100.0 * 1000f64.powf(i as f64 / 10_000.0))
        .collect();
    for &v in &exact {
        rec.record(TimeDelta::from_micros(v as u64));
    }
    let qs = [0.5, 0.9, 0.95, 0.99];
    let want = stats::percentiles(&mut exact, &qs).expect("samples");
    let worst = qs
        .iter()
        .zip(&want)
        .map(|(&q, &w)| {
            let got = rec.quantile(q).expect("recorded").as_micros() as f64;
            (got - w).abs() / w
        })
        .fold(0.0, f64::max);
    m.put_n("metrics.latency_bucket_rel_err", worst, qs.len());
}

/// The paper's Fig. 7/8 shape on the virtual timeline. Exact-repeat for a
/// seed; a change to these numbers is a change of semantics, not of speed.
/// Returns false if the ordering on-demand < periodic < none is violated.
fn sim_cells(m: &mut Metrics, seed: u64) -> bool {
    let run = |strategy| {
        let cfg = UnionExperiment {
            strategy,
            duration: TimeDelta::from_secs(200),
            seed,
            ..UnionExperiment::default()
        };
        let t0 = Instant::now();
        let r = run_union_experiment(&cfg).expect("simulation");
        (r, t0.elapsed().as_secs_f64())
    };
    let (on_demand, wall) = run(Strategy::OnDemand);
    let (periodic, _) = run(Strategy::Periodic { rate_hz: 10.0 });
    let (none, _) = run(Strategy::NoEts);
    let events: u64 = on_demand.ingested_per_stream.iter().sum::<u64>()
        + on_demand.ets_per_stream.iter().sum::<u64>();
    m.put_n("sim.events_per_s", events as f64 / wall, events as usize);
    let (c, b, a) = (
        on_demand.metrics.latency.mean_ms,
        periodic.metrics.latency.mean_ms,
        none.metrics.latency.mean_ms,
    );
    m.put("sim.fig7_ondemand_mean_ms", c);
    m.put("sim.fig7_periodic10_mean_ms", b);
    m.put("sim.fig7_noets_mean_ms", a);
    m.put(
        "sim.fig8_ondemand_peak_queue",
        on_demand.metrics.peak_queue_tuples as f64,
    );
    c < b && b < a
}

fn core_cells(m: &mut Metrics) {
    const N: u64 = 50_000;
    let mut runner = QueryRunner::new_serial(UNION_PROGRAM).expect("runner");
    let mut delivered = 0usize;
    let t0 = Instant::now();
    for i in 0..N {
        runner
            .push(
                "fast",
                2 * (i + 1),
                vec![Value::Int(i as i64), Value::Int(1)],
            )
            .expect("push");
        if (i + 1) % 250 == 0 {
            runner.advance_time(2 * (i + 1) + 1).expect("advance");
            delivered += runner.drain().len();
        }
    }
    m.put_n(
        "core.push_ns_per_tuple",
        t0.elapsed().as_nanos() as f64 / N as f64,
        N as usize,
    );
    // `drain()` hands out copies and never truncates what it copied from:
    // `finish()` still returns every row ever delivered.
    let retained = runner.finish().expect("finish").len();
    m.put(
        "core.runner_retained_per_delivered",
        retained as f64 / delivered.max(1) as f64,
    );
}

/// Runs every cell, each as the median of `reps` repetitions. Returns
/// false if the paper-shape guard failed.
pub fn run_all(m: &mut Metrics, seed: u64, reps: usize) -> bool {
    types_cells(m, reps);
    buffer_cell(m, reps);
    ops_stateless_cells(m, reps);
    join_state_cells(m, seed, reps);
    spill_cells(m, seed);
    exec_parallel_cell(m, reps);
    exec_sharded_cell(m, seed, reps);
    query_cell(m);
    net_codec_cells(m, reps);
    net_client_cells(m);
    metrics_cells(m, reps);
    core_cells(m);
    sim_cells(m, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_shape_guard_holds_and_repeats_exactly() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        assert!(sim_cells(&mut a, 1));
        assert!(sim_cells(&mut b, 1));
        for name in [
            "sim.fig7_ondemand_mean_ms",
            "sim.fig7_periodic10_mean_ms",
            "sim.fig7_noets_mean_ms",
            "sim.fig8_ondemand_peak_queue",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }
}
