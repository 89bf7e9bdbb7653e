//! Ablation **A2** — punctuation coalescing in buffers.
//!
//! Figure 8(b) shows periodic punctuation at high rates inflating peak
//! memory: punctuation piles up in queues while the CPU is busy with data
//! bursts. Coalescing (a punctuation pushed onto a punctuation tail
//! replaces it) bounds each buffer to at most one trailing punctuation.
//! This bench measures the peak queue size and punctuation traffic with the
//! optimization on and off, across heartbeat rates, on bursty traffic.

use millstream_bench::{print_table, write_results};
use millstream_metrics::Json;
use millstream_sim::{run_union_experiment, Strategy, UnionExperiment};
use millstream_types::TimeDelta;

/// Simulated duration of every run.
const DURATION: TimeDelta = TimeDelta::from_secs(300);

fn run(rate_hz: f64, coalesce: bool) -> (usize, u64) {
    let cfg = UnionExperiment {
        strategy: Strategy::Periodic { rate_hz },
        duration: DURATION,
        seed: 71,
        fast_mean_burst: 64.0,
        coalesce_punctuation: coalesce,
        ..UnionExperiment::default()
    };
    let r = run_union_experiment(&cfg).expect("experiment runs");
    (r.metrics.peak_queue_tuples, r.metrics.punctuation_enqueued)
}

fn main() {
    println!("millstream ablation A2 — punctuation coalescing (bursty traffic, mean burst 64)");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut improvements = Vec::new();
    for &rate in &[100.0, 500.0, 1_000.0, 2_000.0, 5_000.0] {
        let (peak_off, punct_off) = run(rate, false);
        let (peak_on, punct_on) = run(rate, true);
        improvements.push((rate, peak_off, peak_on));
        rows.push(vec![
            format!("{rate}"),
            peak_off.to_string(),
            peak_on.to_string(),
            punct_off.to_string(),
            punct_on.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("punct_rate_hz", Json::Num(rate)),
            ("peak_queue_off", Json::Num(peak_off as f64)),
            ("peak_queue_on", Json::Num(peak_on as f64)),
            ("punct_enqueued_off", Json::Num(punct_off as f64)),
            ("punct_enqueued_on", Json::Num(punct_on as f64)),
        ]));
    }
    print_table(
        "peak queue (tuples) and punctuation enqueued, coalescing off vs on",
        &[
            "punct/s",
            "peak off",
            "peak on",
            "punct enq. off",
            "punct enq. on",
        ],
        &rows,
    );

    let summary = Json::obj([
        ("duration_secs", Json::Num(DURATION.as_secs_f64())),
        ("rows", Json::Arr(json_rows)),
    ]);
    write_results("ablation_coalescing", summary);

    let &(rate, off, on) = improvements.last().expect("rows");
    assert!(
        on <= off,
        "coalescing must not increase the peak (rate {rate}: {off} -> {on})"
    );
    let improved = improvements.iter().any(|&(_, off, on)| off > on + on / 4);
    assert!(
        improved,
        "at some high rate coalescing must visibly cut the peak: {improvements:?}"
    );
    println!("\nshape checks passed: coalescing bounds high-rate punctuation memory");
}
