//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each crate's public functions; nothing inside millstream is instrumented.
//! They stay in memory until the run ends and are then written as one JSON
//! file (`out/trace-<workload>.json`).

use std::fmt::Write as _;
use std::time::Instant;

/// One span: `{name, start_ns, end_ns, parent, batch}`. `parent` is the
/// index of the enclosing span in the file (−1 at top level); spans of one
/// round/block share `batch`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub batch: u64,
}

/// Spans written to the file at most; the totals are always over all spans.
const MAX_WRITTEN: usize = 50_000;

/// Records spans while enabled; while disabled `open` and `close` do
/// nothing, so the untraced run executes the same code as the traced one.
#[derive(Debug)]
pub struct Tracer {
    zero: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            zero: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.zero.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (`None` at top level) and returns the
    /// handle to close it with and to parent its children on.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(-1, |p| p as i64),
            batch,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened while enabled; a handle from a disabled
    /// `open` is ignored.
    pub fn close(&mut self, idx: usize) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = self.zero.elapsed().as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of spans called `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Renders the trace file: a header object and the span array.
    pub fn to_json(&self, workload: &str, stamp: &str) -> String {
        let written = self.spans.len().min(MAX_WRITTEN);
        let mut out = String::with_capacity(written * 80 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"stamp\":{stamp},\"spans_total\":{},\"spans_written\":{written},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans[..written].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.batch
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("round", None, 0);
        let a = t.open("exec.ingest_batch", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        let b = t.open("exec.run", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(b);
        t.close(root);
        let total = t.total_ns("round");
        let children = t.total_ns("exec.ingest_batch") + t.total_ns("exec.run");
        assert!(total >= children);
        assert_eq!(t.self_ns("round"), total - children);
        let json = t.to_json("w", "{}");
        assert!(json.contains("\"spans_total\":3"));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("round", None, 0);
        t.close(root);
        assert!(t.is_empty());
        t.set_enabled(true);
        let root = t.open("round", None, 1);
        t.set_enabled(false);
        t.close(root); // opened while enabled: still closes
        assert_eq!(t.len(), 1);
    }
}
