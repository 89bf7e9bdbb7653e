//! # millstream-bench
//!
//! Shared infrastructure for the experiment harnesses that regenerate every
//! table and figure of the paper's evaluation (§6). Each harness is a
//! `harness = false` bench target; `cargo bench -p millstream-bench`
//! reproduces the full evaluation and prints paper-style tables.
//!
//! | Bench target | Paper artifact |
//! |---|---|
//! | `fig7_latency` | Fig. 7(a)/(b): average output latency vs. punctuation rate |
//! | `idle_waiting_table` | §6 in-text idle-waiting percentages |
//! | `fig8_memory` | Fig. 8(a)/(b): peak total queue size vs. punctuation rate |
//! | `ablation_*` | design-choice ablations (DESIGN.md §9) |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::PathBuf;

use millstream_metrics::Json;

/// Renders an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{c:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Prints a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

/// Formats a millisecond value with adaptive precision (log-scale friendly).
pub fn fmt_ms(ms: f64) -> String {
    if !ms.is_finite() {
        "n/a".into()
    } else if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    if frac < 0.001 && frac > 0.0 {
        format!("{:.3}%", frac * 100.0)
    } else {
        format!("{:.1}%", frac * 100.0)
    }
}

/// The punctuation-rate sweep shared by Fig. 7 and Fig. 8 (tuples/s
/// injected into the sparse stream for line B).
pub const PERIODIC_RATES: [f64; 8] = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0];

/// Persists a harness's machine-readable results under the workspace's
/// `target/experiments/<name>.json` and reports the path on stdout.
/// Failures to write are reported but never fail the experiment.
pub fn write_results(name: &str, results: Json) {
    // Bench binaries run with the package as cwd; anchor at the workspace
    // root so artifacts land in one place.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, results.render_pretty()) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2000".into()],
            ],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().filter(|l| !l.is_empty()).collect();
        // title, header, rule, two data rows.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn ms_formatting_is_adaptive() {
        assert_eq!(fmt_ms(12345.6), "12346");
        assert_eq!(fmt_ms(12.345), "12.35");
        assert_eq!(fmt_ms(0.12345), "0.1235");
        assert_eq!(fmt_ms(f64::NAN), "n/a");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.99), "99.0%");
        assert_eq!(fmt_pct(0.0005), "0.050%");
        assert_eq!(fmt_pct(0.0), "0.0%");
    }
}
