//! The discrete-event simulation driver.
//!
//! Plays the role of the paper's external wrappers and of wall-clock time:
//! it schedules stochastic arrivals (and, for experiment line B, periodic
//! heartbeats), delivers them to the executor's source buffers, and
//! interleaves event delivery with single executor steps so that CPU
//! contention is modelled at microsecond granularity. When the executor is
//! quiescent the virtual clock jumps to the next event — this jump *is* the
//! idle-waiting the paper measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use millstream_exec::{Activity, ExecStats, Executor, NodeId, SourceId};
use millstream_metrics::{LatencyRecorder, RunMetrics};
use millstream_ops::SinkCollector;
use millstream_types::{Result, Schema, TimeDelta, Timestamp, TimestampKind, Tuple};

use crate::events::{Event, EventKind, EventQueue};
use crate::workload::{ArrivalProcess, PayloadGen};

/// Description of one input stream fed by the driver.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream name (matches the graph source).
    pub name: String,
    /// Row schema.
    pub schema: Schema,
    /// Timestamp discipline.
    pub kind: TimestampKind,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Payload generator.
    pub payload: PayloadGen,
    /// If set, periodic heartbeat punctuation is injected into this stream
    /// at the given period (experiment line B).
    pub heartbeat_period: Option<TimeDelta>,
    /// For [`TimestampKind::External`] streams: fixed transfer delay
    /// between the application timestamp and physical arrival at the DSMS.
    pub external_delay: TimeDelta,
    /// For [`TimestampKind::External`] streams: additional *random* delay
    /// sampled uniformly in `[0, external_jitter]` per tuple. A non-zero
    /// jitter produces genuinely out-of-order application timestamps, so
    /// the graph source must be unordered and feed a `Reorder` stage.
    pub external_jitter: TimeDelta,
}

impl StreamSpec {
    /// A minimal internal-timestamped stream.
    pub fn internal(
        name: impl Into<String>,
        schema: Schema,
        process: ArrivalProcess,
        payload: PayloadGen,
    ) -> Self {
        StreamSpec {
            name: name.into(),
            schema,
            kind: TimestampKind::Internal,
            process,
            payload,
            heartbeat_period: None,
            external_delay: TimeDelta::ZERO,
            external_jitter: TimeDelta::ZERO,
        }
    }
}

/// Sink collector that records latency into a shared recorder, usable both
/// by the driver (to read) and the sink (to write).
#[derive(Clone, Default)]
pub struct SharedLatencyCollector {
    recorder: Arc<Mutex<LatencyRecorder>>,
    delivered: Arc<AtomicU64>,
}

impl SharedLatencyCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of data tuples delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorder.
    pub fn recorder(&self) -> LatencyRecorder {
        self.recorder.lock().unwrap().clone()
    }
}

impl SinkCollector for SharedLatencyCollector {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.recorder
            .lock()
            .unwrap()
            .record(now.duration_since(tuple.entry));
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

struct StreamRuntime {
    spec: StreamSpec,
    source: SourceId,
    seq: u64,
    /// Tuples delivered at the pending arrival epoch.
    pending_batch: u32,
    /// Monotonization floor for external application timestamps.
    last_app_ts: Timestamp,
    ingested: u64,
    heartbeats: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The paper-style combined metrics.
    pub metrics: RunMetrics,
    /// Executor counters.
    pub exec: ExecStats,
    /// On-demand ETS generated per source (by stream index).
    pub ets_per_stream: Vec<u64>,
    /// Heartbeats injected per stream (line B).
    pub heartbeats_per_stream: Vec<u64>,
    /// Data tuples ingested per stream.
    pub ingested_per_stream: Vec<u64>,
}

/// Drives an [`Executor`] with stochastic arrivals on a virtual timeline.
pub struct Simulation {
    executor: Executor,
    events: EventQueue,
    rng: SmallRng,
    streams: Vec<StreamRuntime>,
    collector: SharedLatencyCollector,
    monitor: Option<NodeId>,
    end: Timestamp,
}

impl Simulation {
    /// Creates a simulation over a prepared executor.
    ///
    /// * `streams` pairs each graph source with its workload spec;
    /// * `collector` must be the collector installed in the graph's sink;
    /// * `monitor` selects the IWP node whose idle-waiting is tracked.
    pub fn new(
        mut executor: Executor,
        streams: Vec<(SourceId, StreamSpec)>,
        collector: SharedLatencyCollector,
        monitor: Option<NodeId>,
        seed: u64,
    ) -> Result<Self> {
        for (_, spec) in &streams {
            spec.process.validate()?;
        }
        if let Some(node) = monitor {
            executor.monitor_idle(node);
        }
        Ok(Simulation {
            executor,
            events: EventQueue::new(),
            rng: SmallRng::seed_from_u64(seed),
            streams: streams
                .into_iter()
                .map(|(source, spec)| StreamRuntime {
                    spec,
                    source,
                    seq: 0,
                    pending_batch: 1,
                    last_app_ts: Timestamp::ZERO,
                    ingested: 0,
                    heartbeats: 0,
                })
                .collect(),
            collector,
            monitor,
            end: Timestamp::ZERO,
        })
    }

    /// Access to the executor (e.g. for graph inspection after a run).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Runs for `duration` of virtual time and reports the metrics.
    pub fn run(&mut self, duration: TimeDelta) -> Result<SimReport> {
        self.end = self.executor.clock().now() + duration;
        self.schedule_initial();

        loop {
            // Deliver everything due at the current instant.
            let now = self.executor.clock().now();
            while let Some(event) = self.events.pop_due(now) {
                self.handle(event)?;
            }
            if self.executor.step()? == Activity::Quiescent {
                match self.events.peek_time() {
                    Some(t) => self.executor.clock().advance_to(t),
                    None => break,
                }
            }
        }
        self.executor.finish_idle();
        Ok(self.report())
    }

    fn schedule_initial(&mut self) {
        let start = self.executor.clock().now();
        for (i, s) in self.streams.iter_mut().enumerate() {
            let (gap, batch) = s.spec.process.next_arrival(&mut self.rng);
            s.pending_batch = batch;
            let t = start + gap;
            if t <= self.end {
                self.events.push(Event {
                    time: t,
                    kind: EventKind::Arrival { stream: i },
                });
            }
            if let Some(period) = s.spec.heartbeat_period {
                let t = start + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream: i },
                    });
                }
            }
        }
    }

    fn handle(&mut self, event: Event) -> Result<()> {
        match event.kind {
            EventKind::Arrival { stream } => {
                let batch = self.streams[stream].pending_batch;
                for _ in 0..batch {
                    self.ingest_one(stream, event.time)?;
                }
                // Schedule the next epoch relative to this one's nominal
                // time (the arrival process is exogenous to CPU load).
                let (gap, next_batch) = self.streams[stream]
                    .spec
                    .process
                    .next_arrival(&mut self.rng);
                let t = event.time + gap;
                if t <= self.end {
                    self.streams[stream].pending_batch = next_batch;
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Arrival { stream },
                    });
                }
            }
            EventKind::Heartbeat { stream } => {
                // Heartbeats are stamped by the wrapper's clock on entry.
                let now = self.executor.clock().now();
                let source = self.streams[stream].source;
                self.executor.ingest_heartbeat(source, now)?;
                self.streams[stream].heartbeats += 1;
                let period = self.streams[stream]
                    .spec
                    .heartbeat_period
                    .expect("heartbeat event only scheduled with a period");
                let t = event.time + period;
                if t <= self.end {
                    self.events.push(Event {
                        time: t,
                        kind: EventKind::Heartbeat { stream },
                    });
                }
            }
        }
        Ok(())
    }

    fn ingest_one(&mut self, stream: usize, event_time: Timestamp) -> Result<()> {
        let now = self.executor.clock().now();
        let tuple = synthesize_tuple(&mut self.streams[stream], &mut self.rng, event_time, now);
        self.executor.ingest(self.streams[stream].source, tuple)
    }

    fn report(&self) -> SimReport {
        let clock_end = self.executor.clock().now();
        let graph = self.executor.graph();
        let idle = self
            .monitor
            .and_then(|n| self.executor.idle_tracker(n))
            .map(|t| t.summarize(clock_end))
            .unwrap_or(millstream_metrics::IdleSummary {
                idle_fraction: 0.0,
                episodes: 0,
                longest_episode_ms: 0.0,
                total_idle_ms: 0.0,
            });
        let exec = self.executor.stats();
        SimReport {
            metrics: RunMetrics {
                latency: self.collector.recorder().summarize(),
                idle,
                peak_queue_tuples: graph.tracker().peak(),
                punctuation_enqueued: graph.tracker().punctuation_enqueued(),
                delivered: self.collector.delivered(),
                run_seconds: clock_end.as_secs_f64(),
                work_units: exec.work_units,
            },
            exec,
            ets_per_stream: self
                .streams
                .iter()
                .map(|s| graph.source(s.source).ets_generated)
                .collect(),
            heartbeats_per_stream: self.streams.iter().map(|s| s.heartbeats).collect(),
            ingested_per_stream: self.streams.iter().map(|s| s.ingested).collect(),
        }
    }
}

/// Builds the next tuple for `s` arriving nominally at `event_time`, with
/// `now` as the wrapper's entry clock.
fn synthesize_tuple(
    s: &mut StreamRuntime,
    rng: &mut SmallRng,
    event_time: Timestamp,
    now: Timestamp,
) -> Tuple {
    let row = s.spec.payload.generate(rng, s.seq);
    s.seq += 1;
    s.ingested += 1;
    match s.spec.kind {
        // Internal timestamps are assigned from the system clock on
        // entry; entry time equals the timestamp.
        TimestampKind::Internal => Tuple::data(now, row),
        // Latent streams carry no meaningful timestamp yet; stamp the
        // entry clock so ordering bookkeeping stays trivial.
        TimestampKind::Latent => Tuple::data(now, row),
        TimestampKind::External => {
            let jitter = s.spec.external_jitter.as_micros();
            if jitter == 0 {
                // Application timestamp precedes physical arrival by the
                // configured transfer delay; monotonized defensively.
                let app = event_time
                    .saturating_sub(s.spec.external_delay)
                    .max(s.last_app_ts);
                s.last_app_ts = app;
                Tuple::data_with_entry(app, now, row)
            } else {
                // Random per-tuple delay: application timestamps arrive
                // genuinely out of order (bounded by the jitter span);
                // the graph's Reorder stage restores the contract.
                use rand::Rng;
                let extra = TimeDelta::from_micros(rng.gen_range(0..=jitter));
                let app = event_time
                    .saturating_sub(s.spec.external_delay)
                    .saturating_sub(extra);
                Tuple::data_with_entry(app, now, row)
            }
        }
    }
}
