//! `msq` at its surface: the run-mode backends must agree on what they
//! print, because they are two constructions feeding one replay.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/data")
        .join(name)
}

fn msq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_msq"))
        .args(args)
        .output()
        .expect("spawn msq")
}

fn stdout_of(query: &Path, trace: &Path, flags: &[&str]) -> String {
    let mut args = vec![query.to_str().unwrap(), trace.to_str().unwrap()];
    args.extend_from_slice(flags);
    let out = msq(&args);
    assert!(
        out.status.success(),
        "msq {flags:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 rows")
}

#[test]
fn audit_example_is_byte_identical_across_backends() {
    let (query, trace) = (example("audit.msq"), example("audit.trace"));
    let serial = stdout_of(&query, &trace, &[]);
    assert_eq!(serial.lines().count(), 4);
    assert_eq!(serial, stdout_of(&query, &trace, &["--shards", "2"]));
    assert_eq!(serial, stdout_of(&query, &trace, &["--batch", "64"]));
}

/// A trace denser than the virtual CPU it costs: the serial clock runs
/// ahead of the arrivals, which the sharded replicas' clocks must not —
/// their on-demand ETS would otherwise overtake the next record's stamp.
#[test]
fn dense_trace_delivers_the_same_rows_serial_and_sharded() {
    let mut text = String::new();
    let mut web = 0;
    for i in 0..4_000 {
        if i % 8 == 7 {
            text.push_str(&format!("{},jobs,{i},1\n", i * 3));
        } else {
            let ms = if web % 4 == 0 { 40 } else { 250 };
            text.push_str(&format!("{},web,{i},{ms}\n", i * 3));
            web += 1;
        }
    }
    let trace = std::env::temp_dir().join(format!("msq-cli-dense-{}.trace", std::process::id()));
    std::fs::write(&trace, text).expect("write trace");
    let query = example("audit.msq");
    let serial = stdout_of(&query, &trace, &[]);
    let sharded = stdout_of(&query, &trace, &["--shards", "2"]);
    let _ = std::fs::remove_file(&trace);

    // Serial timestamps carry virtual queueing delay; the values must not
    // differ.
    let values = |rows: &str| -> Vec<String> {
        rows.lines()
            .map(|row| row.split(" @ ").next().expect("row").to_string())
            .collect()
    };
    assert_eq!(serial.lines().count(), 3_125);
    assert_eq!(values(&serial), values(&sharded));
}

#[test]
fn run_mode_has_no_workers_flag() {
    let (query, trace) = (example("audit.msq"), example("audit.trace"));
    let out = msq(&[
        query.to_str().unwrap(),
        trace.to_str().unwrap(),
        "--workers",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--workers`"), "{stderr}");
    assert!(stderr.contains("usage: msq"), "{stderr}");
}
