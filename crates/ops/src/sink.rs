//! Sink — the terminal node of a query path.
//!
//! Sinks hand tuples to an output wrapper (in Stream Mill, a separate
//! process). Two paper-mandated behaviours:
//!
//! * sinks **eliminate punctuation tuples** — "they are only needed
//!   internally" (paper footnote 3);
//! * the operator immediately before a sink is drained eagerly (the
//!   scheduler's special case). Each step pops one tuple; a sink has no
//!   output, so it never yields, and the scheduler's Encore rule runs it
//!   again until its input is empty.
//!
//! The sink reports each delivered data tuple to a [`SinkCollector`]
//! together with the delivery instant, which is where output-latency
//! measurement happens (`latency = now − tuple.entry`).

use millstream_types::{Result, Schema, Timestamp, Tuple};

use crate::context::{OpContext, Operator, Poll, StepOutcome};

/// Receives the tuples a sink delivers.
///
/// Collectors must be [`Send`] because the sink that owns them may run on
/// a worker thread under parallel execution; shared-state collectors
/// should hold `Arc<Mutex<…>>` or atomics rather than `Rc<Cell<…>>`.
pub trait SinkCollector: Send {
    /// Called once per delivered data tuple with the delivery instant.
    fn deliver(&mut self, tuple: Tuple, now: Timestamp);
}

impl SinkCollector for Box<dyn SinkCollector> {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        (**self).deliver(tuple, now);
    }
}

/// A collector that simply stores delivered tuples (tests, examples).
#[derive(Debug, Default)]
pub struct VecCollector {
    /// Delivered tuples with their delivery instants.
    pub delivered: Vec<(Tuple, Timestamp)>,
}

impl SinkCollector for VecCollector {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.delivered.push((tuple, now));
    }
}

/// A collector that drops tuples but counts them (benchmarks).
#[derive(Debug, Default)]
pub struct CountingCollector {
    /// Number of data tuples delivered.
    pub count: u64,
    /// Sum of per-tuple latencies in microseconds (for a cheap mean).
    pub latency_sum_micros: u128,
}

impl SinkCollector for CountingCollector {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.count += 1;
        self.latency_sum_micros += now.duration_since(tuple.entry).as_micros() as u128;
    }
}

/// The sink operator.
pub struct Sink<C: SinkCollector> {
    name: String,
    schema: Schema,
    collector: C,
    punctuation_eliminated: u64,
}

impl<C: SinkCollector> Sink<C> {
    /// Creates a sink delivering to `collector`. `schema` is the schema of
    /// the stream being sunk (reported as the "output" schema).
    pub fn new(name: impl Into<String>, schema: Schema, collector: C) -> Self {
        Sink {
            name: name.into(),
            schema,
            collector,
            punctuation_eliminated: 0,
        }
    }

    /// Borrow the collector.
    pub fn collector(&self) -> &C {
        &self.collector
    }

    /// Number of punctuation tuples eliminated.
    pub fn punctuation_eliminated(&self) -> u64 {
        self.punctuation_eliminated
    }
}

impl<C: SinkCollector> Operator for Sink<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        0
    }

    fn output_schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, ctx: &OpContext<'_>) -> Poll {
        if ctx.input(0).is_empty() {
            Poll::starved_on(0)
        } else {
            Poll::Ready
        }
    }

    fn step(&mut self, ctx: &OpContext<'_>) -> Result<StepOutcome> {
        let Some(tuple) = ctx.input_mut(0).pop() else {
            return Ok(StepOutcome::default());
        };
        if tuple.is_punctuation() {
            self.punctuation_eliminated += 1;
        } else {
            self.collector.deliver(tuple, ctx.now);
        }
        Ok(StepOutcome::consumed_one(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_buffer::Buffer;
    use millstream_types::{DataType, Field, Value};
    use std::cell::RefCell;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", DataType::Int)])
    }

    #[test]
    fn delivers_data_eliminates_punctuation() {
        let mut sink = Sink::new("out", schema(), VecCollector::default());
        let input = RefCell::new(Buffer::new("in"));
        input
            .borrow_mut()
            .push(Tuple::data(Timestamp::from_micros(1), vec![Value::Int(7)]))
            .unwrap();
        input
            .borrow_mut()
            .push(Tuple::punctuation(Timestamp::from_micros(2)))
            .unwrap();
        let inputs = [&input];
        let outputs: [&RefCell<Buffer>; 0] = [];
        let ctx = OpContext::new(&inputs, &outputs, Timestamp::from_micros(10));
        while sink.poll(&ctx).is_ready() {
            sink.step(&ctx).unwrap();
        }
        assert_eq!(sink.collector().delivered.len(), 1);
        assert_eq!(sink.punctuation_eliminated(), 1);
        let (t, at) = &sink.collector().delivered[0];
        assert_eq!(t.values().unwrap()[0], Value::Int(7));
        assert_eq!(at.as_micros(), 10);
    }

    #[test]
    fn counting_collector_accumulates_latency() {
        let mut c = CountingCollector::default();
        let t = Tuple::data_with_entry(
            Timestamp::from_micros(100),
            Timestamp::from_micros(40),
            vec![Value::Int(1)],
        );
        c.deliver(t, Timestamp::from_micros(100));
        assert_eq!(c.count, 1);
        assert_eq!(c.latency_sum_micros, 60);
    }

    #[test]
    fn sink_has_zero_outputs() {
        let sink = Sink::new("out", schema(), VecCollector::default());
        assert_eq!(sink.num_outputs(), 0);
        assert_eq!(sink.num_inputs(), 1);
    }
}
