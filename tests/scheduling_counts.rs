//! Pins the exact scheduling work of the paper's Fig. 4 query.
//!
//! The benchmark's `engine_union_ets` workload (σ → π → ∪ ← π ← σ → sink,
//! planned from the text of `benchmark/queries/union.msq`) is driven here
//! in the same shape — 250-tuple rounds on the busy stream, one tuple on
//! the sparse stream every 200 rounds, on-demand ETS — but under the
//! default [`CostModel`], so the virtual clock moves with every step,
//! backtrack and ETS. Every count the scheduler produces is asserted
//! exactly: a change that makes a scheduling decision cheaper must leave
//! each of these numbers where it is.

use std::sync::{Arc, Mutex};

use millstream_core::prelude::*;
use millstream_query::plan_program;

/// The text of `benchmark/queries/union.msq`.
const UNION_PROGRAM: &str = "
CREATE STREAM fast (id INT, v INT);
CREATE STREAM slow (id INT, v INT);

SELECT id, v FROM fast WHERE v < 950
UNION
SELECT id, v FROM slow WHERE v < 950;
";

const ROUNDS: u64 = 400;
const ROUND_TUPLES: u64 = 250;
const SLOW_EVERY_ROUNDS: u64 = 200;

/// SplitMix64, the benchmark generator's RNG.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as i64
    }
}

/// Delivered rows, a rolling checksum over them, and timestamp order.
#[derive(Debug, Default, PartialEq, Eq)]
struct Delivered {
    rows: u64,
    hash: u64,
    out_of_order: u64,
    last_ts: u64,
}

#[derive(Clone, Default)]
struct Out(Arc<Mutex<Delivered>>);

impl SinkCollector for Out {
    fn deliver(&mut self, tuple: Tuple, _now: Timestamp) {
        let mut d = self.0.lock().unwrap();
        let ts = tuple.ts.as_micros();
        if ts < d.last_ts {
            d.out_of_order += 1;
        }
        d.last_ts = ts;
        d.rows += 1;
        let mut h = d.hash ^ ts;
        for v in tuple.values().unwrap_or(&[]) {
            if let Value::Int(i) = v {
                h = h.rotate_left(7) ^ (*i as u64);
            }
        }
        d.hash = h.wrapping_mul(0x100_0000_01B3);
    }
}

/// Everything the scheduler decided, in one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    stats: ExecStats,
    clock: u64,
    peak: usize,
    punctuation_enqueued: u64,
    coalesced: u64,
    profile: Vec<OpProfile>,
}

fn drive() -> (Observation, Delivered) {
    let out = Out::default();
    let planned = plan_program(UNION_PROGRAM, out.clone()).unwrap();
    let (fast, slow) = (planned.sources[0].id, planned.sources[1].id);
    let mut exec = Executor::new(
        planned.graph,
        VirtualClock::shared(),
        CostModel::default(),
        EtsPolicy::on_demand(),
    );
    let mut rng = Rng(7);
    let mut id = 0i64;
    for round in 1..=ROUNDS {
        // Internal timestamps come from the clock, which the cost model
        // moves past the previous round's last tuple.
        let base = exec.clock().now().as_micros();
        let batch: Vec<Tuple> = (1..=ROUND_TUPLES)
            .map(|i| {
                id += 1;
                let v = rng.below(1000);
                Tuple::data(
                    Timestamp::from_micros(base + 2 * i),
                    vec![Value::Int(id), Value::Int(v)],
                )
            })
            .collect();
        let last = base + 2 * ROUND_TUPLES;
        exec.clock().advance_to(Timestamp::from_micros(last));
        exec.ingest_batch(fast, batch).unwrap();
        exec.ingest_batch(slow, Vec::new()).unwrap();
        if round % SLOW_EVERY_ROUNDS == 0 {
            let v = rng.below(1000);
            let t = Tuple::data(
                Timestamp::from_micros(last - ROUND_TUPLES - 1),
                vec![Value::Int(-id), Value::Int(v)],
            );
            exec.ingest(slow, t).unwrap();
        }
        exec.run_until_quiescent(u64::MAX).unwrap();
    }
    exec.close_source(fast).unwrap();
    exec.close_source(slow).unwrap();
    exec.run_until_quiescent(u64::MAX).unwrap();
    let tracker = exec.graph().tracker();
    let observed = Observation {
        stats: exec.stats(),
        clock: exec.clock().now().as_micros(),
        peak: tracker.peak(),
        punctuation_enqueued: tracker.punctuation_enqueued(),
        coalesced: tracker.coalesced(),
        profile: exec.profile().to_vec(),
    };
    let delivered = std::mem::take(&mut *out.0.lock().unwrap());
    (observed, delivered)
}

fn op(name: &str, steps: u64, consumed: u64, produced: u64, busy_micros: u64) -> OpProfile {
    OpProfile {
        name: name.to_string(),
        steps,
        consumed,
        produced,
        busy_micros,
        ..OpProfile::default()
    }
}

#[test]
fn fig4_union_scheduling_counts_are_pinned() {
    let (observed, delivered) = drive();
    let expected = Observation {
        stats: ExecStats {
            steps: 387_954,
            batches: 387_954,
            backtracks: 289_554,
            ets_generated: 800,
            work_units: 675_104,
            ..ExecStats::default()
        },
        clock: 1_652_612,
        peak: 252,
        punctuation_enqueued: 3_207,
        coalesced: 0,
        profile: vec![
            op("σ#1", 100_401, 100_401, 95_315, 396_518),
            op("π#2", 95_315, 95_315, 95_315, 381_260),
            op("σ#3", 403, 403, 402, 1_611),
            op("π#4", 402, 402, 402, 1_608),
            op("∪", 95_717, 95_717, 95_716, 382_867),
            op("sink", 95_716, 95_716, 0, 287_148),
        ],
    };
    assert_eq!(observed, expected);
    assert_eq!(
        delivered,
        Delivered {
            rows: 94_915,
            hash: 8_006_301_451_519_493_591,
            out_of_order: 0,
            last_ts: 1_648_886,
        }
    );
}
