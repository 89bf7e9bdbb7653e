//! Tuples — the unit of data flowing through a query graph.
//!
//! Two kinds of tuples flow through millstream buffers (paper §4.2):
//!
//! * **data tuples** carry a row of values plus their stream timestamp, and
//! * **punctuation tuples** carry *only* a timestamp — an Enabling
//!   Time-Stamp — promising that every future tuple on this path has a
//!   timestamp ≥ that value. Punctuation is what reactivates idle-waiting
//!   operators; sinks eliminate it (footnote 3 of the paper).
//!
//! Every tuple additionally records its `entry` time — the instant the
//! originating data entered the DSMS — which is what output-latency
//! measurements subtract from the emission time. For punctuation the entry
//! time equals the generation time.

use std::fmt;

use crate::row::Row;
use crate::timestamp::Timestamp;
use crate::value::Value;

/// The payload of a tuple: either a data row or punctuation.
#[derive(Debug, Clone, PartialEq)]
pub enum TupleBody {
    /// A regular data row ([`Row`]: inline storage for narrow rows,
    /// shared heap storage for wide ones).
    Data(Row),
    /// A punctuation tuple carrying an Enabling Time-Stamp. All future
    /// tuples on the same path have timestamps `>=` the tuple's `ts`.
    Punctuation,
}

/// A timestamped item in a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// The stream timestamp. Streams are ordered by this value.
    pub ts: Timestamp,
    /// The instant the originating data entered the DSMS; used for latency
    /// accounting. For internally timestamped streams this equals `ts` at
    /// the source.
    pub entry: Timestamp,
    /// Row data or punctuation.
    pub body: TupleBody,
}

// Layout pin: a [`Row`] (72 B) plus `ts` and `entry`.
const _: () = assert!(std::mem::size_of::<Tuple>() == 88);

impl Tuple {
    /// Creates a data tuple whose entry time equals its timestamp (the
    /// common case for internally timestamped sources). Accepts anything
    /// convertible to a [`Row`] — a `Vec<Value>`, a value array (which
    /// never allocates for ≤ [`crate::row::INLINE_ROW_CAP`] values), or a
    /// prebuilt `Row`.
    pub fn data(ts: Timestamp, values: impl Into<Row>) -> Self {
        Tuple {
            ts,
            entry: ts,
            body: TupleBody::Data(values.into()),
        }
    }

    /// Creates a data tuple with an explicit entry time (external timestamps
    /// where application time and arrival time differ).
    pub fn data_with_entry(ts: Timestamp, entry: Timestamp, values: impl Into<Row>) -> Self {
        Tuple {
            ts,
            entry,
            body: TupleBody::Data(values.into()),
        }
    }

    /// Creates a punctuation tuple carrying the ETS `ts`.
    pub fn punctuation(ts: Timestamp) -> Self {
        Tuple {
            ts,
            entry: ts,
            body: TupleBody::Punctuation,
        }
    }

    /// True iff this is a punctuation tuple.
    #[inline]
    pub fn is_punctuation(&self) -> bool {
        matches!(self.body, TupleBody::Punctuation)
    }

    /// True iff this is a data tuple.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.body, TupleBody::Data(_))
    }

    /// The row values, or `None` for punctuation.
    #[inline]
    pub fn values(&self) -> Option<&[Value]> {
        match &self.body {
            TupleBody::Data(v) => Some(v),
            TupleBody::Punctuation => None,
        }
    }

    /// The row, or `None` for punctuation. Use this over [`Tuple::values`]
    /// when the row itself is reused (cloning a `Row` is cheaper than
    /// rebuilding one from a slice).
    #[inline]
    pub fn row(&self) -> Option<&Row> {
        match &self.body {
            TupleBody::Data(v) => Some(v),
            TupleBody::Punctuation => None,
        }
    }

    /// The row values, panicking on punctuation. Operators call this only
    /// after checking [`Tuple::is_data`].
    #[inline]
    pub fn values_expect(&self) -> &[Value] {
        self.values()
            .expect("data tuple expected, found punctuation")
    }

    /// Returns a copy of this tuple with a different row but the same
    /// timestamps. Non-IWP operators use this: the paper requires output
    /// tuples to take "their timestamps from the tuple in A".
    pub fn with_values(&self, values: impl Into<Row>) -> Tuple {
        Tuple {
            ts: self.ts,
            entry: self.entry,
            body: TupleBody::Data(values.into()),
        }
    }

    /// Concatenates two data tuples into a join result. The result takes
    /// both its timestamp *and* its entry time from `probe` (the newly
    /// arrived tuple), per the window-join semantics of
    /// Kang/Naughton/Viglas adopted by the paper (Fig. 1): the result can
    /// only exist once the probe arrives, so output latency is measured
    /// from the probe's entry into the DSMS.
    pub fn join(probe: &Tuple, stored: &Tuple) -> Tuple {
        let p = probe.values_expect();
        let s = stored.values_expect();
        let mut row = Row::builder(p.len() + s.len());
        row.extend_from_slice(p);
        row.extend_from_slice(s);
        Tuple {
            ts: probe.ts,
            entry: probe.entry,
            body: TupleBody::Data(row.finish()),
        }
    }

    /// Number of values carried (0 for punctuation). Used by buffer
    /// occupancy accounting.
    pub fn width(&self) -> usize {
        self.values().map_or(0, |v| v.len())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            TupleBody::Punctuation => write!(f, "⟨punct @ {}⟩", self.ts),
            TupleBody::Data(values) => {
                write!(f, "⟨")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, " @ {}⟩", self.ts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ts: u64, v: i64) -> Tuple {
        Tuple::data(Timestamp::from_micros(ts), vec![Value::Int(v)])
    }

    #[test]
    fn constructors() {
        let d = t(5, 42);
        assert!(d.is_data());
        assert!(!d.is_punctuation());
        assert_eq!(d.entry, d.ts);
        assert_eq!(d.values().unwrap(), &[Value::Int(42)]);
        assert_eq!(d.width(), 1);

        let p = Tuple::punctuation(Timestamp::from_micros(9));
        assert!(p.is_punctuation());
        assert_eq!(p.values(), None);
        assert_eq!(p.width(), 0);
    }

    #[test]
    fn explicit_entry_time() {
        let d = Tuple::data_with_entry(
            Timestamp::from_micros(100),
            Timestamp::from_micros(130),
            vec![Value::Int(1)],
        );
        assert_eq!(d.ts.as_micros(), 100);
        assert_eq!(d.entry.as_micros(), 130);
    }

    #[test]
    fn with_values_preserves_time() {
        let d = Tuple::data_with_entry(
            Timestamp::from_micros(10),
            Timestamp::from_micros(12),
            vec![Value::Int(1), Value::Int(2)],
        );
        let m = d.with_values(vec![Value::Int(3)]);
        assert_eq!(m.ts, d.ts);
        assert_eq!(m.entry, d.entry);
        assert_eq!(m.values().unwrap(), &[Value::Int(3)]);
    }

    #[test]
    fn join_takes_probe_ts_and_entry() {
        let probe = Tuple::data_with_entry(
            Timestamp::from_micros(50),
            Timestamp::from_micros(55),
            vec![Value::Int(1)],
        );
        let stored = Tuple::data_with_entry(
            Timestamp::from_micros(20),
            Timestamp::from_micros(21),
            vec![Value::Int(2), Value::Int(3)],
        );
        let j = Tuple::join(&probe, &stored);
        assert_eq!(j.ts.as_micros(), 50);
        assert_eq!(j.entry.as_micros(), 55, "latency measured from the probe");
        assert_eq!(
            j.values().unwrap(),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    #[should_panic(expected = "data tuple expected")]
    fn values_expect_panics_on_punctuation() {
        Tuple::punctuation(Timestamp::ZERO).values_expect();
    }

    #[test]
    fn display_forms() {
        assert_eq!(t(1_000_000, 7).to_string(), "⟨7 @ 1.000000s⟩");
        assert!(Tuple::punctuation(Timestamp::ZERO)
            .to_string()
            .starts_with("⟨punct"));
    }

    #[test]
    fn narrow_clone_is_inline_and_equal() {
        // Narrow rows live inline: a clone copies the values (no heap
        // traffic, nothing to share) and compares equal by value.
        let d = t(1, 9);
        let c = d.clone();
        assert_eq!(d, c);
        if let (TupleBody::Data(a), TupleBody::Data(b)) = (&d.body, &c.body) {
            assert!(!a.is_spilled());
            assert!(!a.shares_storage_with(b));
        } else {
            panic!("expected data bodies");
        }
    }

    #[test]
    fn wide_clone_shares_row_storage() {
        // Wide rows spill to shared storage; clones bump the refcount
        // exactly as the old Arc<[Value]> representation did.
        let wide: Vec<Value> = (0..=crate::row::INLINE_ROW_CAP as i64)
            .map(Value::Int)
            .collect();
        let d = Tuple::data(Timestamp::from_micros(1), wide);
        let c = d.clone();
        if let (TupleBody::Data(a), TupleBody::Data(b)) = (&d.body, &c.body) {
            assert!(a.is_spilled());
            assert!(a.shares_storage_with(b));
        } else {
            panic!("expected data bodies");
        }
    }

    #[test]
    fn join_output_stays_inline_when_narrow() {
        let probe = t(1, 1);
        let stored = t(2, 2);
        let j = Tuple::join(&probe, &stored);
        assert!(!j.row().unwrap().is_spilled());
        let wide = Tuple::data(
            Timestamp::from_micros(3),
            (0..4).map(Value::Int).collect::<Vec<_>>(),
        );
        let jw = Tuple::join(&probe, &wide);
        assert!(jw.row().unwrap().is_spilled());
        assert_eq!(jw.width(), 5);
    }
}
