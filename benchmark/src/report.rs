//! Metric tables, the result line the driver reads, and the stamped result
//! files under `out/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The workloads, in suite order.
pub const WORKLOADS: [&str; 4] = [
    "wire_union_steady",
    "wire_union_flood",
    "engine_union_ets",
    "engine_join_window",
];

/// End-to-end metrics `(name, unit)`: what `--trace 0` prints, in this
/// order. Must match `BENCHMARK.json` (a test checks it).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_tuples_per_s", "tuples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_s_per_mtuple", "CPU-s/Mtuple"),
    ("peak_rss_mb", "MB"),
];

/// Regression bounds of the end-to-end metrics, as shares of the parent's
/// median (the `bound` values of `BENCHMARK.json`).
pub const BOUNDS: [(&str, f64); 6] = [
    ("setup_s", 0.25),
    ("throughput_tuples_per_s", 0.25),
    ("latency_p50_ms", 0.25),
    ("latency_p90_ms", 0.25),
    ("cpu_s_per_mtuple", 0.25),
    ("peak_rss_mb", 0.1),
];

/// Per-layer metrics `(name, unit)`: what `--trace 1` prints. A metric
/// whose layer is not on the traced workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("types.tuple_build_ns", "ns"),
    ("types.predicate_eval_ns", "ns"),
    ("buffer.push_drain_ns_per_tuple", "ns"),
    ("buffer.peak_queue_tuples", "count"),
    ("buffer.punct_enqueued", "count"),
    ("buffer.punct_coalesced", "count"),
    ("ops.filter_ns_per_tuple", "ns"),
    ("ops.union_ns_per_tuple", "ns"),
    ("ops.join_state.insert_ns", "ns"),
    ("ops.join_state.probe_ns", "ns"),
    ("ops.join_state.purge_ns_per_expired", "ns"),
    ("ops.join.results_per_input", "ratio"),
    ("ops.join_state.peak_tuples", "count"),
    ("ops.join_state.resident_bytes_peak", "bytes"),
    ("ops.spill.cold_probe_ns", "ns"),
    ("ops.spill.spilled_bytes", "bytes"),
    ("ops.spill.run_drops", "count"),
    ("exec.ingest_ns_per_tuple", "ns"),
    ("exec.run_ns_per_tuple", "ns"),
    ("exec.steps_per_tuple", "ratio"),
    ("exec.steps_per_batch", "ratio"),
    ("exec.backtracks_per_ktuple", "1/ktuple"),
    ("exec.ets_per_ktuple", "1/ktuple"),
    ("exec.sched_overhead_share", "ratio"),
    ("exec.parallel.run_ns_per_tuple", "ns"),
    ("exec.sharded.run_ns_per_tuple", "ns"),
    ("exec.sharded.exchange_rows", "count"),
    ("query.plan_ms", "ms"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.output_encode_ns", "ns"),
    ("net.frames_per_section", "ratio"),
    ("net.ingest_sections", "count"),
    ("net.sub_peak_queue", "count"),
    ("net.monitor_idle_fraction", "ratio"),
    ("net.server_latency_p50_ms", "ms"),
    ("net.server_latency_p90_ms", "ms"),
    ("net.engine_cpu_share", "ratio"),
    ("net.egress_residual_p50_ms", "ms"),
    ("net.wire_latency_p50_ms", "ms"),
    ("net.wire_latency_p99_ms", "ms"),
    ("net.wire_latency_max_ms", "ms"),
    ("net.ladder_p50_ms_r25k", "ms"),
    ("net.ladder_p50_ms_r100k", "ms"),
    ("net.ladder_p50_ms_r200k", "ms"),
    ("net.knee_rate_tuples_per_s", "tuples/s"),
    ("net.idle_synth_latency_p50_ms", "ms"),
    ("net.client_send_ns_w32", "ns"),
    ("net.client_send_ns_w4096", "ns"),
    ("metrics.latency_record_ns", "ns"),
    ("metrics.latency_bucket_rel_err", "ratio"),
    ("sim.events_per_s", "1/s"),
    ("sim.fig7_ondemand_mean_ms", "ms"),
    ("sim.fig7_periodic10_mean_ms", "ms"),
    ("sim.fig7_noets_mean_ms", "ms"),
    ("sim.fig8_ondemand_peak_queue", "count"),
    ("core.push_ns_per_tuple", "ns"),
    ("core.runner_retained_per_delivered", "ratio"),
    ("harness.gen_lag_p50_ms", "ms"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.failed_share", "ratio"),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, Option<usize>)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value, None));
    }

    /// A value with the number of samples (slices, rounds, frames) it
    /// rests on, printed next to it in the result file.
    pub fn put_n(&mut self, name: &str, value: f64, samples: usize) {
        self.entries.push((name.to_string(), value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn samples(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, _, s)| *s)
    }
}

/// Correctness verdict of a run.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub correct: bool,
    /// Results the reference expected.
    pub attempted: u64,
    /// Missing + duplicated + out-of-order + shed + rejected results.
    pub failed: u64,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The one-line JSON object the driver reads: exactly `correct`,
/// `attempted`, `failed`, `metrics`, with every metric of `table`.
pub fn result_line(table: &[(&str, &str)], metrics: &Metrics, verdict: Verdict) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.correct,
        verdict.attempted.max(1),
        verdict.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = finite(metrics.get(name).unwrap_or(0.0));
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Provenance written at the top of every result file.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub git_rev: String,
    pub nproc: usize,
    pub rustc: String,
    pub slices: usize,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// HEAD of the repository at `root`, read from `.git` directly: the
/// driver's checkout is not a git repository, and `git` itself would walk
/// up out of it looking for one.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(rev) => rev.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find(|l| l.ends_with(name))?
                .split_whitespace()
                .next()?
                .to_string(),
        },
    };
    Some(rev.chars().take(12).collect())
}

impl Stamp {
    pub fn collect(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Stamp {
        Stamp {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            smoke,
            git_rev: git_rev(&bench_dir().join("..")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            slices: 0,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"slices\":{}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.git_rev,
            self.nproc,
            self.rustc,
            self.slices
        )
    }
}

/// The benchmark's own directory (`MBENCH_DIR`, set by `run.sh`; falls
/// back to `benchmark` under the current directory).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("MBENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Writes `out/<workload>-seed<seed>-trace<0|1>.txt`: a stamped header and
/// one `name value unit [n=samples]` line per metric. Returns the path.
pub fn write_result_file(
    table: &[(&str, &str)],
    metrics: &Metrics,
    verdict: Verdict,
    stamp: &Stamp,
    notes: &[String],
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut text = String::new();
    let _ = writeln!(text, "# workload {}", stamp.workload);
    let _ = writeln!(text, "# seed {}", stamp.seed);
    let _ = writeln!(text, "# seconds {}", stamp.seconds);
    let _ = writeln!(text, "# traced {}", stamp.traced);
    if stamp.smoke {
        let _ = writeln!(text, "# smoke true (numbers are NOT comparable)");
    }
    let _ = writeln!(text, "# git_rev {}", stamp.git_rev);
    let _ = writeln!(text, "# nproc {}", stamp.nproc);
    let _ = writeln!(text, "# rustc {}", stamp.rustc);
    let _ = writeln!(text, "# slices {}", stamp.slices);
    let _ = writeln!(
        text,
        "# correct {} attempted {} failed {}",
        verdict.correct, verdict.attempted, verdict.failed
    );
    for note in notes {
        let _ = writeln!(text, "# note {note}");
    }
    for (name, unit) in table {
        let value = finite(metrics.get(name).unwrap_or(0.0));
        match metrics.samples(name) {
            Some(n) => {
                let _ = writeln!(text, "{name} {value} {unit} n={n}");
            }
            None => {
                let _ = writeln!(text, "{name} {value} {unit}");
            }
        }
    }
    let path = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        stamp.workload,
        stamp.seed,
        u8::from(stamp.traced)
    ));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Parses the metric lines of a result file: `(name, value, unit)`.
pub fn read_result_file(path: &Path) -> std::io::Result<Vec<(String, f64, String)>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            let value = it.next()?.parse().ok()?;
            let unit = it.next()?.to_string();
            Some((name, value, unit))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names quoted after `"name":` inside the JSON array called `key`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(json, "per_layer"), layer);
        assert_eq!(names_in(json, "workloads"), WORKLOADS);
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        for (name, bound) in BOUNDS {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect("metric");
            let line = json[at..].lines().next().expect("one metric per line");
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{line}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_stays_finite() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25);
        m.put_n("latency_p50_ms", f64::NAN, 18);
        let line = result_line(
            &END_TO_END,
            &m,
            Verdict {
                correct: true,
                attempted: 0,
                failed: 0,
            },
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,"));
        assert!(!line.contains("NaN"));
    }
}
