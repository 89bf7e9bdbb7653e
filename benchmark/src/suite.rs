//! `mbench suite`: every workload, each run in a fresh process, with an
//! A/A table (`--repeat N`) of min / median / max and the relative spread
//! of each end-to-end metric against its regression bound.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::report::{self, BOUNDS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::RunOpts;

/// Runs `mbench run` for one workload in a child process and returns the
/// metric lines of the result file it wrote.
fn run_child(
    workload: &str,
    opts: &RunOpts,
    traced: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.starts_with("{\"correct\": true") {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(traced),
            last
        ));
    }
    let path = report::out_dir().join(format!(
        "{workload}-seed{}-trace{}.txt",
        opts.seed,
        u8::from(traced)
    ));
    report::read_result_file(&path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(opts: &RunOpts, repeat: usize) -> i32 {
    let mut failures = 0;
    // (workload, metric) → one value per repetition.
    let mut table: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    for rep in 0..repeat {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("mbench: suite run {}/{repeat}: {workload}", rep + 1);
            match run_child(workload, opts, false) {
                Ok(lines) => {
                    for (name, value, _) in lines {
                        table.entry((w, name)).or_default().push(value);
                    }
                }
                Err(e) => {
                    eprintln!("mbench: {e}");
                    failures += 1;
                }
            }
        }
    }
    if opts.smoke {
        println!("# SMOKE RUN: same code paths, numbers are NOT comparable");
    }
    println!(
        "# end-to-end metrics ({repeat} run(s) per workload, seed {})",
        opts.seed
    );
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>14} {:>9} {:>7}  unit",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, unit) in END_TO_END {
            let Some(values) = table.get(&(w, name.to_string())) else {
                continue;
            };
            let med = stats::median(values).unwrap_or(0.0);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // Quartile spread needs a few runs; below that show the range.
            let spread = stats::relative_spread(values)
                .filter(|_| values.len() >= 4)
                .unwrap_or(if med != 0.0 { (max - min) / med } else { 0.0 });
            let bound = BOUNDS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, b)| *b);
            let flag = if repeat > 1 && spread > bound {
                " !"
            } else {
                ""
            };
            println!(
                "{workload:<20} {name:<26} {min:>14.4} {med:>14.4} {max:>14.4} {:>8.2}% {:>6.0}%  {unit}{flag}",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    // One traced run per workload for the per-layer numbers; a smoke run
    // keeps to one wire and one engine workload to stay within its 15 s.
    let traced: &[&str] = if opts.smoke {
        &["wire_union_steady", "engine_join_window"]
    } else {
        &WORKLOADS
    };
    for workload in traced {
        eprintln!("mbench: suite traced run: {workload}");
        match run_child(workload, opts, true) {
            Ok(lines) => {
                println!("# per-layer metrics, traced run of {workload}");
                for (name, value, unit) in lines {
                    if PER_LAYER.iter().any(|(n, _)| *n == name) {
                        println!("{name} {value} {unit}");
                    }
                }
            }
            Err(e) => {
                eprintln!("mbench: {e}");
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}
