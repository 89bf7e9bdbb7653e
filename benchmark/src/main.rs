//! `mbench` — the millstream benchmark harness.
//!
//! ```text
//! mbench run   --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! mbench suite [--repeat N] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `run` measures one workload in this (fresh) process and prints one JSON
//! object as its last line; `suite` runs every workload, each in a fresh
//! process of its own, and prints a table. See `README.md`.

mod cells;
mod engine;
mod proc;
mod report;
mod schedule;
mod stats;
mod suite;
mod trace;
mod wire;

use engine::{EngineKind, EngineOutcome};
use report::{Metrics, Stamp, Verdict, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use wire::{WireKind, WireOutcome};

/// Share of `--seconds` a traced run spends on the traced workload itself;
/// the rest of its time goes to the layer cells.
const TRACED_SHARE: f64 = 0.35;
/// `--smoke`: same code paths, short run, numbers not comparable.
const SMOKE_SECONDS: f64 = 1.0;
/// Rate ladder of the traced `wire_union_steady` run (tuples/s on `fast`).
const LADDER: [(&str, f64); 3] = [
    ("net.ladder_p50_ms_r25k", 25_000.0),
    ("net.ladder_p50_ms_r100k", 100_000.0),
    ("net.ladder_p50_ms_r200k", 200_000.0),
];
/// A ladder rate is sustainable when its p50 stays under this.
const KNEE_P50_LIMIT_MS: f64 = 10.0;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mbench run --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n       mbench suite [--repeat N] [--seed N] [--seconds S] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.as_deref().map(str::parse) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("mbench: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
    };
    let mut repeat = 1usize;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => opts.workload = parse(&flag, args.next()),
            "--seed" => opts.seed = parse(&flag, args.next()),
            "--seconds" => opts.seconds = parse(&flag, args.next()),
            "--trace" => opts.traced = parse::<u8>(&flag, args.next()) != 0,
            "--repeat" => repeat = parse(&flag, args.next()),
            "--smoke" => opts.smoke = true,
            _ => usage(),
        }
    }
    if opts.smoke {
        opts.seconds = SMOKE_SECONDS;
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }
    // The spill tier writes temp files; keep them inside the benchmark's
    // own directory.
    let tmp = report::out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("mbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let code = match mode.as_str() {
        "run" => run_one(&opts),
        "suite" => suite::run(&opts, repeat.max(1)),
        _ => usage(),
    };
    std::process::exit(code);
}

fn slice_metric(m: &mut Metrics, name: &str, per_slice: &[f64]) -> usize {
    match stats::slice_median(per_slice) {
        Some((v, n)) => {
            m.put_n(name, v, n);
            n
        }
        None => 0,
    }
}

fn verdict(expected: schedule::Checksum, got: schedule::Checksum, other_failures: u64) -> Verdict {
    let mut failed = expected.rows.abs_diff(got.rows) + other_failures;
    if failed == 0 && expected.hash != got.hash {
        failed = 1;
    }
    Verdict {
        correct: failed == 0,
        attempted: expected.rows,
        failed,
    }
}

fn engine_end_to_end(m: &mut Metrics, out: &EngineOutcome) -> usize {
    m.put_n("setup_s", out.setup_s, out.setup_reps);
    let slices = slice_metric(m, "throughput_tuples_per_s", &out.thr_plain);
    slice_metric(m, "latency_p50_ms", &out.lat_p50_ms);
    slice_metric(m, "latency_p90_ms", &out.lat_p90_ms);
    m.put("cpu_s_per_mtuple", out.cpu_s_per_mtuple);
    m.put(
        "peak_rss_mb",
        proc::peak_rss_mb(std::process::id()).unwrap_or(0.0),
    );
    slices
}

fn engine_layers(m: &mut Metrics, kind: EngineKind, out: &EngineOutcome) {
    let tuples = out.measured_tuples as f64;
    m.put("buffer.peak_queue_tuples", out.peak_queue_tuples as f64);
    m.put("buffer.punct_enqueued", out.punct_enqueued as f64);
    m.put("buffer.punct_coalesced", out.punct_coalesced as f64);
    m.put("exec.ingest_ns_per_tuple", out.ingest_ns as f64 / tuples);
    m.put("exec.run_ns_per_tuple", out.run_ns as f64 / tuples);
    // Exact counts over the whole run (warm-up and tail included).
    let total = out.total_tuples as f64;
    let s = &out.stats;
    m.put("exec.steps_per_tuple", s.steps as f64 / total);
    m.put(
        "exec.steps_per_batch",
        s.steps as f64 / s.batches.max(1) as f64,
    );
    m.put(
        "exec.backtracks_per_ktuple",
        s.backtracks as f64 / total * 1e3,
    );
    m.put("exec.ets_per_ktuple", s.ets_generated as f64 / total * 1e3);
    if let (Some((plain, _)), Some((traced, _))) = (
        stats::slice_median(&out.thr_plain),
        stats::slice_median(&out.thr_traced),
    ) {
        m.put("harness.trace_overhead_share", 1.0 - traced / plain);
    }
    if kind == EngineKind::JoinWindow {
        // Past the warm-up, i.e. with both windows full.
        m.put(
            "ops.join.results_per_input",
            (out.got.rows - out.warm_rows) as f64 / (out.total_tuples - out.warm_tuples) as f64,
        );
        m.put("ops.join_state.peak_tuples", s.peak_join_state as f64);
        // What `JoinState::resident_bytes` charges a hot row of integers.
        m.put(
            "ops.join_state.resident_bytes_peak",
            (s.peak_join_state as usize * std::mem::size_of::<millstream_types::Tuple>()) as f64,
        );
    }
}

fn wire_end_to_end(m: &mut Metrics, out: &WireOutcome) -> usize {
    m.put_n("setup_s", out.setup_s, out.setup_reps);
    let slices = slice_metric(m, "throughput_tuples_per_s", &out.slice_thr);
    if let Some((v, _)) = stats::slice_median(&out.slice_p50_ms) {
        m.put_n("latency_p50_ms", v, out.min_slice_samples);
    }
    if let Some((v, _)) = stats::slice_median(&out.slice_p90_ms) {
        m.put_n("latency_p90_ms", v, out.min_slice_samples);
    }
    slice_metric(m, "cpu_s_per_mtuple", &out.slice_cpu_s_per_mtuple);
    m.put("peak_rss_mb", out.peak_rss_mb);
    slices
}

fn wire_verdict(out: &WireOutcome) -> Verdict {
    let mut v = verdict(
        out.expected,
        out.got,
        out.out_of_order
            + out.host.rejected
            + out.host.duplicates
            + out.host.shed.max(out.sub_dropped),
    );
    v.correct &= out.error.is_none();
    v
}

fn wire_layers(m: &mut Metrics, out: &WireOutcome) {
    m.put("harness.gen_lag_p50_ms", out.gen_lag_p50_ms);
    m.put("harness.gen_lag_p99_ms", out.gen_lag_p99_ms);
    m.put("net.engine_cpu_share", out.engine_cpu_share);
    let lat = &out.all_lat_ms;
    let p50 = stats::percentile_sorted(lat, 0.5).unwrap_or(0.0);
    m.put_n("net.wire_latency_p50_ms", p50, lat.len());
    m.put_n(
        "net.wire_latency_p99_ms",
        stats::percentile_sorted(lat, 0.99).unwrap_or(0.0),
        lat.len(),
    );
    m.put_n(
        "net.wire_latency_max_ms",
        lat.last().copied().unwrap_or(0.0),
        lat.len(),
    );
    let Some(r) = &out.host.server else { return };
    m.put(
        "net.frames_per_section",
        r.stats.frames_in as f64 / r.stats.ingest_sections.max(1) as f64,
    );
    m.put("net.ingest_sections", r.stats.ingest_sections as f64);
    m.put("net.sub_peak_queue", r.sub_peak_queue as f64);
    m.put(
        "net.monitor_idle_fraction",
        r.monitor_idle_fraction.unwrap_or(0.0),
    );
}

fn run_one(opts: &RunOpts) -> i32 {
    let mut stamp = Stamp::collect(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.traced,
        opts.smoke,
    );
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let measured_for = if opts.traced {
        opts.seconds * TRACED_SHARE
    } else {
        opts.seconds
    };

    let engine_kind = match opts.workload.as_str() {
        "engine_union_ets" => Some(EngineKind::UnionEts),
        "engine_join_window" => Some(EngineKind::JoinWindow),
        "wire_union_steady" | "wire_union_flood" => None,
        _ => usage(),
    };
    let mut v = if let Some(kind) = engine_kind {
        let mut tracer = opts.traced.then(|| Tracer::new(true));
        let reps = if opts.smoke { 1 } else { kind.setup_reps() };
        let out = engine::run(kind, opts.seed, measured_for, reps, tracer.as_mut());
        stamp.slices = if opts.traced {
            engine_layers(&mut m, kind, &out);
            out.thr_plain.len() + out.thr_traced.len()
        } else {
            engine_end_to_end(&mut m, &out)
        };
        tracers.extend(tracer);
        verdict(out.expected, out.got, out.out_of_order)
    } else {
        let kind = if opts.workload == "wire_union_flood" {
            WireKind::Flood
        } else {
            WireKind::Steady {
                fast_hz: wire::STEADY_FAST_HZ,
                all_pass: false,
            }
        };
        match run_wire(opts, kind, measured_for, &mut m, &mut notes, &mut tracers) {
            Ok((v, slices)) => {
                stamp.slices = slices;
                v
            }
            Err(e) => {
                eprintln!("mbench: {}: {e}", opts.workload);
                return 1;
            }
        }
    };

    let table: &[(&str, &str)] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    if opts.traced {
        for t in tracers.iter().filter(|t| !t.is_empty()) {
            // Time inside the outermost spans not covered by a call into
            // millstream: the harness's own share of a traced round.
            let (own, all) = ["round", "tick", "block"]
                .iter()
                .fold((0, 0), |(o, a), n| (o + t.self_ns(n), a + t.total_ns(n)));
            notes.push(format!(
                "trace: {} spans, harness self time {:.1} % of the outermost spans",
                t.len(),
                100.0 * own as f64 / all.max(1) as f64
            ));
        }
        if !cells::run_all(&mut m, opts.seed, if opts.smoke { 1 } else { cells::REPS }) {
            notes
                .push("paper-shape guard FAILED: on-demand < periodic < none does not hold".into());
            v.correct = false;
        }
        if let (Some(run), Some(f), Some(u)) = (
            m.get("exec.run_ns_per_tuple"),
            m.get("ops.filter_ns_per_tuple"),
            m.get("ops.union_ns_per_tuple"),
        ) {
            if engine_kind == Some(EngineKind::UnionEts) && run > 0.0 {
                m.put("exec.sched_overhead_share", (1.0 - (f + u) / run).max(0.0));
            }
        }
        m.put(
            "harness.failed_share",
            v.failed as f64 / v.attempted.max(1) as f64,
        );
        let path = report::out_dir().join(format!("trace-{}.json", opts.workload));
        let json = render_traces(&tracers, &opts.workload, &stamp.to_json());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("mbench: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    match report::write_result_file(table, &m, v, &stamp, &notes) {
        Ok(path) => eprintln!("mbench: wrote {}", path.display()),
        Err(e) => {
            eprintln!("mbench: cannot write the result file: {e}");
            return 1;
        }
    }
    for note in &notes {
        eprintln!("mbench: note: {note}");
    }
    println!("{}", report::result_line(table, &m, v));
    0
}

/// One trace file per run: each thread's spans as its own array entry.
fn render_traces(tracers: &[Tracer], workload: &str, stamp: &str) -> String {
    let parts: Vec<String> = tracers.iter().map(|t| t.to_json(workload, stamp)).collect();
    format!("[{}]\n", parts.join(","))
}

fn run_wire(
    opts: &RunOpts,
    kind: WireKind,
    seconds: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    tracers: &mut Vec<Tracer>,
) -> Result<(Verdict, usize), String> {
    let steady = matches!(kind, WireKind::Steady { .. });
    let reps = if opts.smoke { 2 } else { wire::SETUP_REPS };
    let mut out = wire::run(
        kind,
        opts.seed,
        seconds,
        opts.traced,
        reps,
        opts.traced.then_some(&mut *tracers),
    )?;
    if steady && out.gen_lag_p99_ms > wire::GEN_LAG_LIMIT_MS {
        // The generator did not offer the schedule it claims: rerun once
        // rather than record it.
        notes.push(format!(
            "generator lag p99 {:.3} ms > {} ms: run invalid, rerun",
            out.gen_lag_p99_ms,
            wire::GEN_LAG_LIMIT_MS
        ));
        tracers.clear();
        out = wire::run(
            kind,
            opts.seed,
            seconds,
            opts.traced,
            reps,
            opts.traced.then_some(&mut *tracers),
        )?;
        if out.gen_lag_p99_ms > wire::GEN_LAG_LIMIT_MS {
            notes.push(format!(
                "INVALID: generator lag p99 {:.3} ms again over the limit",
                out.gen_lag_p99_ms
            ));
        }
    }
    notes.push(format!(
        "sent {} tuples; generator lag p50 {:.3} ms p99 {:.3} ms max {:.3} ms; pushed back {:.3} s",
        out.sent_tuples, out.gen_lag_p50_ms, out.gen_lag_p99_ms, out.gen_lag_max_ms, out.pushback_s
    ));
    if let Some(e) = &out.error {
        notes.push(format!("subscriber error: {e}"));
    }
    let v = wire_verdict(&out);
    if !opts.traced {
        return Ok((v, wire_end_to_end(m, &out)));
    }
    wire_layers(m, &out);
    if steady {
        let step = (opts.seconds * 0.1).max(0.5);
        let p50_of = |r: &WireOutcome| {
            stats::percentile_sorted(&r.all_lat_ms, 0.5)
                .or_else(|| stats::median(&r.slice_p50_ms))
                .unwrap_or(0.0)
        };
        // Stage budget. The server attributes sink deliveries to wire
        // arrivals FIFO, which drifts as soon as the query filters a tuple
        // out, so the server-side stage comes from an all-pass companion
        // run at the same rate — and so do the stages it is summed with.
        let fast_hz = wire::STEADY_FAST_HZ;
        let all_pass = WireKind::Steady {
            fast_hz,
            all_pass: true,
        };
        let c = wire::run(all_pass, opts.seed, step, true, 1, None)?;
        if let Some(r) = &c.host.server {
            let n = r.latency.count as usize;
            m.put_n("net.server_latency_p50_ms", r.latency.p50_ms, n);
            m.put_n("net.server_latency_p90_ms", r.latency.p90_ms, n);
            // The frontier wait (0.5 ms mean) sits inside the server
            // figure: it is time spent held by the union after arrival.
            m.put(
                "net.egress_residual_p50_ms",
                p50_of(&c) - c.gen_lag_p50_ms - r.latency.p50_ms,
            );
            notes.push(format!(
                "stage budget (all-pass companion, {step} s): wire p50 {:.3} ms = generator lag {:.3} + server {:.3} + residual {:.3}",
                p50_of(&c),
                c.gen_lag_p50_ms,
                r.latency.p50_ms,
                p50_of(&c) - c.gen_lag_p50_ms - r.latency.p50_ms
            ));
        }
        let mut knee = 0.0;
        for (name, fast_hz) in LADDER {
            let rung = WireKind::Steady {
                fast_hz,
                all_pass: false,
            };
            let r = wire::run(rung, opts.seed, step, true, 1, None)?;
            let p50 = p50_of(&r);
            m.put_n(name, p50, r.all_lat_ms.len());
            if wire_verdict(&r).correct && p50 <= KNEE_P50_LIMIT_MS {
                knee = fast_hz;
            }
        }
        m.put("net.knee_rate_tuples_per_s", knee);
        let idle = WireKind::IdleSynth { fast_hz: 10_000.0 };
        let r = wire::run(idle, opts.seed, step, true, 1, None)?;
        m.put_n(
            "net.idle_synth_latency_p50_ms",
            p50_of(&r),
            r.all_lat_ms.len(),
        );
    }
    Ok((v, out.slice_thr.len()))
}
