//! A minimal JSON value/emitter so experiment harnesses can persist
//! machine-readable results without extra dependencies.
//!
//! Only emission is supported — the harnesses write results, they never
//! read them back programmatically.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number; NaN/∞ render as `null` (JSON has no spelling).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into the JSON model.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for crate::LatencySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("mean_ms", Json::Num(self.mean_ms)),
            ("min_ms", Json::Num(self.min_ms)),
            ("max_ms", Json::Num(self.max_ms)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p90_ms", Json::Num(self.p90_ms)),
            ("p95_ms", Json::Num(self.p95_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
        ])
    }
}

impl ToJson for crate::IdleSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("idle_fraction", Json::Num(self.idle_fraction)),
            ("episodes", Json::Num(self.episodes as f64)),
            ("longest_episode_ms", Json::Num(self.longest_episode_ms)),
            ("total_idle_ms", Json::Num(self.total_idle_ms)),
        ])
    }
}

impl ToJson for crate::RunMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("latency", self.latency.to_json()),
            ("idle", self.idle.to_json()),
            (
                "peak_queue_tuples",
                Json::Num(self.peak_queue_tuples as f64),
            ),
            (
                "punctuation_enqueued",
                Json::Num(self.punctuation_enqueued as f64),
            ),
            ("delivered", Json::Num(self.delivered as f64)),
            ("run_seconds", Json::Num(self.run_seconds)),
            ("work_units", Json::Num(self.work_units as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te").render(),
            "\"a\\\"b\\\\c\\nd\\te\""
        );
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::str("uni→code").render(), "\"uni→code\"");
    }

    #[test]
    fn containers_render() {
        let j = Json::obj([
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("name", Json::str("run")),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(j.render(), r#"{"xs":[1,2],"name":"run","empty":[]}"#);
    }

    #[test]
    fn pretty_rendering_nests() {
        let j = Json::obj([("a", Json::Arr(vec![Json::Num(1.0)]))]);
        let pretty = j.render_pretty();
        assert!(pretty.contains("{\n  \"a\": [\n    1\n  ]\n}"));
    }

    #[test]
    fn run_metrics_to_json() {
        use millstream_types::{TimeDelta, Timestamp};
        let mut lat = crate::LatencyRecorder::new();
        lat.record(TimeDelta::from_millis(3));
        let mut idle = crate::IdleTracker::new(Timestamp::ZERO);
        idle.finish(Timestamp::from_secs(1));
        let m = crate::RunMetrics {
            latency: lat.summarize(),
            idle: idle.summarize(Timestamp::from_secs(1)),
            peak_queue_tuples: 7,
            punctuation_enqueued: 9,
            delivered: 11,
            run_seconds: 1.0,
            work_units: 13,
        };
        let rendered = m.to_json().render();
        assert!(rendered.contains("\"peak_queue_tuples\":7"));
        assert!(rendered.contains("\"mean_ms\":3"));
        assert!(rendered.contains("\"delivered\":11"));
    }
}
