//! Trace replay: drive a query graph from recorded streams instead of
//! stochastic workloads.
//!
//! Real DSMS evaluations frequently replay captured traces (the paper's
//! lineage system, Gigascope, ran on recorded network traffic). This module
//! provides a minimal trace format — CSV lines of
//! `timestamp_micros,stream,v1,v2,…` — and a deterministic replayer that
//! delivers the trace through any [`Engine`], with the same ETS machinery
//! as the stochastic driver.

use millstream_exec::{Engine, SourceId};
use millstream_types::{DataType, Error, Result, Schema, Timestamp, Tuple, Value};

/// One trace record: arrival instant, stream index, row values.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Arrival time (microseconds on the virtual timeline).
    pub at: Timestamp,
    /// Index into the replayer's stream table.
    pub stream: usize,
    /// Row values (must match the stream's schema).
    pub values: Vec<Value>,
}

/// Parses the trace text format.
///
/// Each non-empty, non-`#` line is `timestamp_micros,stream_name,v1,v2,…`.
/// Values are parsed against the named stream's schema: INT/FLOAT/BOOL
/// literals, anything else as a string; a lone `\N` is NULL.
pub fn parse_trace(text: &str, streams: &[(&str, &Schema)]) -> Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let err = |msg: String| Error::parse(msg, (lineno + 1) as u32, 1);
        let ts: u64 = parts
            .next()
            .ok_or_else(|| err("missing timestamp".into()))?
            .trim()
            .parse()
            .map_err(|e| err(format!("bad timestamp: {e}")))?;
        let name = parts
            .next()
            .ok_or_else(|| err("missing stream name".into()))?
            .trim();
        let (stream, schema) = streams
            .iter()
            .enumerate()
            .find_map(|(i, (n, s))| (*n == name).then_some((i, *s)))
            .ok_or_else(|| err(format!("unknown stream `{name}`")))?;
        let raw: Vec<&str> = parts.map(str::trim).collect();
        if raw.len() != schema.len() {
            return Err(err(format!(
                "stream `{name}` expects {} values, line has {}",
                schema.len(),
                raw.len()
            )));
        }
        let mut values = Vec::with_capacity(raw.len());
        for (cell, field) in raw.iter().zip(schema.fields()) {
            if *cell == "\\N" {
                values.push(Value::Null);
                continue;
            }
            let v = match field.data_type {
                DataType::Int => Value::Int(
                    cell.parse()
                        .map_err(|e| err(format!("bad INT `{cell}`: {e}")))?,
                ),
                DataType::Float => Value::Float(
                    cell.parse()
                        .map_err(|e| err(format!("bad FLOAT `{cell}`: {e}")))?,
                ),
                DataType::Bool => match cell.to_ascii_lowercase().as_str() {
                    "true" | "1" | "t" => Value::Bool(true),
                    "false" | "0" | "f" => Value::Bool(false),
                    other => return Err(err(format!("bad BOOL `{other}`"))),
                },
                DataType::Str => Value::str(*cell),
            };
            values.push(v);
        }
        out.push(TraceRecord {
            at: Timestamp::from_micros(ts),
            stream,
            values,
        });
    }
    // The replayer requires a time-ordered trace (arrival order).
    if !out.windows(2).all(|w| w[0].at <= w[1].at) {
        return Err(Error::config(
            "trace records must be sorted by arrival timestamp",
        ));
    }
    Ok(out)
}

/// Replays a trace through any engine — the one trace-replay loop in the
/// tree. `sources[i]` receives the records with `stream == i`. Records
/// sharing an arrival instant land together before the engine runs — they
/// arrived simultaneously — so the scheduler sees real queues (and Encore
/// batching has runs to fuse); the engine then drains to quiescence once
/// per arrival epoch.
///
/// `stamp` turns a record's arrival instant into its tuple timestamp, and
/// is called after the engine's clock has been advanced to that instant.
/// Whoever built the engine knows the answer: a serial executor charging
/// virtual CPU stamps from its own clock (which the cost of earlier work
/// may have pushed past the arrival), an engine whose clocks only this
/// loop moves passes the arrival through.
pub fn replay<E: Engine + ?Sized>(
    engine: &mut E,
    sources: &[SourceId],
    trace: &[TraceRecord],
    stamp: impl Fn(Timestamp) -> Timestamp,
) -> Result<()> {
    let mut epoch: Option<Timestamp> = None;
    for rec in trace {
        let Some(&source) = sources.get(rec.stream) else {
            return Err(Error::config(format!(
                "trace references stream {} but only {} sources are wired",
                rec.stream,
                sources.len()
            )));
        };
        if epoch.is_some_and(|at| at != rec.at) {
            engine.run_until_quiescent(u64::MAX)?;
        }
        epoch = Some(rec.at);
        engine.advance_to(rec.at)?;
        engine.ingest(source, Tuple::data(stamp(rec.at), rec.values.clone()))?;
    }
    engine.run_until_quiescent(u64::MAX)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SharedLatencyCollector;
    use millstream_exec::{CostModel, EtsPolicy, Executor, GraphBuilder, Input, VirtualClock};
    use millstream_ops::{Sink, Union};
    use millstream_types::{Field, TimestampKind};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("tag", DataType::Str),
        ])
    }

    #[test]
    fn parses_the_trace_format() {
        let s = schema();
        let trace = parse_trace(
            "# comment line\n\
             100,web,1,alpha\n\
             \n\
             250,api,2,\\N\n\
             300,web,3,gamma\n",
            &[("web", &s), ("api", &s)],
        )
        .unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].at.as_micros(), 100);
        assert_eq!(trace[1].stream, 1);
        assert_eq!(trace[1].values[1], Value::Null);
        assert_eq!(trace[2].values[1], Value::str("gamma"));
    }

    #[test]
    fn rejects_malformed_lines() {
        let s = schema();
        let streams = [("web", &s)];
        assert!(parse_trace("abc,web,1,x", &streams).is_err());
        assert!(parse_trace("100,nope,1,x", &streams).is_err());
        assert!(parse_trace("100,web,1", &streams).is_err());
        assert!(parse_trace("100,web,notint,x", &streams).is_err());
        // Out-of-order trace.
        assert!(parse_trace("200,web,1,a\n100,web,2,b", &streams).is_err());
    }

    #[test]
    fn replays_through_a_union() {
        let s = schema();
        let mut b = GraphBuilder::new();
        let s1 = b.source("web", s.clone(), TimestampKind::Internal);
        let s2 = b.source("api", s.clone(), TimestampKind::Internal);
        let u = b
            .operator(
                Box::new(Union::new("∪", s.clone(), 2)),
                vec![Input::Source(s1), Input::Source(s2)],
            )
            .unwrap();
        let collector = SharedLatencyCollector::new();
        b.operator(
            Box::new(Sink::new("sink", s.clone(), collector.clone())),
            vec![Input::Op(u)],
        )
        .unwrap();
        let clock = VirtualClock::shared();
        let mut exec = Executor::new(
            b.build().unwrap(),
            clock.clone(),
            CostModel::default(),
            EtsPolicy::on_demand(),
        );
        let trace = parse_trace(
            "100,web,1,a\n5000,api,2,b\n9000,web,3,c\n",
            &[("web", &s), ("api", &s)],
        )
        .unwrap();
        replay(&mut exec, &[s1, s2], &trace, |_| clock.now()).unwrap();
        assert_eq!(collector.delivered(), 3, "on-demand ETS flushes every wave");
        assert!(exec.stats().ets_generated > 0);
        let mean = collector.recorder().mean().expect("three deliveries");
        assert!(mean.as_millis_f64() < 1.0);
    }
}
