//! Network monitoring: the paper's motivating domain (Gigascope-style).
//!
//! A busy packet stream is joined against a sparse IDS-alert stream: for
//! every alert, report the packets from the same host seen within a 2 s
//! window. The alert stream is rare — exactly the rate skew that makes the
//! join idle-wait without timestamp management. The example builds the
//! graph by hand, drives it with explicit tuples, and contrasts no-ETS
//! against on-demand ETS.
//!
//! ```text
//! cargo run --example network_monitor
//! ```

use std::sync::{Arc, Mutex};

use millstream_core::prelude::*;

/// Collects deliveries while sharing ownership with the sink.
#[derive(Clone, Default)]
struct Collected(Arc<Mutex<Vec<(Tuple, Timestamp)>>>);

impl SinkCollector for Collected {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        self.0.lock().unwrap().push((tuple, now));
    }
}

fn packet_schema() -> Schema {
    Schema::new(vec![
        Field::new("host", DataType::Int),
        Field::new("bytes", DataType::Int),
    ])
}

fn alert_schema() -> Schema {
    Schema::new(vec![
        Field::new("host", DataType::Int),
        Field::new("severity", DataType::Int),
    ])
}

struct Monitor {
    exec: Executor,
    packets: SourceId,
    alerts: SourceId,
    out: Collected,
}

fn build(policy: EtsPolicy) -> Result<Monitor> {
    let mut b = GraphBuilder::new();
    let packets = b.source("packets", packet_schema(), TimestampKind::Internal);
    let alerts = b.source("alerts", alert_schema(), TimestampKind::Internal);

    // Only big packets are interesting.
    let big = b.operator(
        Box::new(Filter::new(
            "σ big",
            packet_schema(),
            Expr::col(1).gt(Expr::lit(1_000)),
        )),
        vec![Input::Source(packets)],
    )?;

    let joined_schema = packet_schema().join(&alert_schema(), "p", "a");
    let join = b.operator(
        Box::new(
            MultiWindowJoin::new(
                "⋈ host",
                &[packet_schema(), alert_schema()],
                vec![TimeDelta::from_secs(2); 2],
                None,
            )
            .with_keys(vec![0, 0]), // host = host
        ),
        vec![Input::Op(big), Input::Source(alerts)],
    )?;
    let out = Collected::default();
    b.operator(
        Box::new(Sink::new("report", joined_schema, out.clone())),
        vec![Input::Op(join)],
    )?;
    let graph = b.build()?;
    let exec = Executor::new(graph, VirtualClock::shared(), CostModel::default(), policy);
    Ok(Monitor {
        exec,
        packets,
        alerts,
        out,
    })
}

/// Replays a fixed trace: packets every 10 ms, one alert at t = 1 s.
fn replay(m: &mut Monitor) -> Result<()> {
    let push = |exec: &mut Executor, src, ts_ms: u64, row: Vec<Value>| -> Result<()> {
        exec.clock().advance_to(Timestamp::from_millis(ts_ms));
        let ts = exec.clock().now();
        exec.ingest(src, Tuple::data(ts, row))?;
        exec.run_until_quiescent(100_000)?;
        Ok(())
    };
    for i in 0..300u64 {
        let host = (i % 5) as i64;
        let bytes = if i % 3 == 0 { 1_500 } else { 200 };
        push(
            &mut m.exec,
            m.packets,
            10 * i,
            vec![Value::Int(host), Value::Int(bytes)],
        )?;
        if i == 100 {
            push(
                &mut m.exec,
                m.alerts,
                10 * i + 1,
                vec![Value::Int(2), Value::Int(9)],
            )?;
        }
    }
    Ok(())
}

fn main() -> Result<()> {
    println!("network monitor — packets ⋈ alerts (2 s window, keyed by host)\n");

    for (label, policy) in [
        ("no ETS (idle-waits on the alert stream)", EtsPolicy::None),
        ("on-demand ETS", EtsPolicy::on_demand()),
    ] {
        let mut m = build(policy)?;
        replay(&mut m)?;
        let delivered = m.out.0.lock().unwrap();
        let worst = delivered
            .iter()
            .map(|(t, at)| at.duration_since(t.entry))
            .max()
            .unwrap_or(TimeDelta::ZERO);
        println!("{label}:");
        println!("  alert reports delivered : {}", delivered.len());
        println!("  worst report latency    : {worst}");
        println!(
            "  stuck in queues at end  : {} tuples",
            m.exec.graph().tracker().data_total()
        );
        for (t, _) in delivered.iter().take(3) {
            println!("  e.g. {t}");
        }
        println!();
    }
    println!("Without ETS, only the reports the alert itself can probe come out; every");
    println!("later packet that matches the alert stays blocked waiting for a second alert");
    println!("that never arrives. On-demand ETS delivers all of them within microseconds.");
    Ok(())
}
