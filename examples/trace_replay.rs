//! Trace replay: run a textual continuous query over a recorded trace —
//! the workflow of evaluating a DSMS on captured traffic (as Gigascope-
//! style systems do) instead of live streams.
//!
//! ```text
//! cargo run --example trace_replay
//! ```

use millstream_exec::{CostModel, EtsPolicy, Executor, VirtualClock};
use millstream_query::plan_program;
use millstream_sim::{parse_trace, replay, SharedLatencyCollector};
use millstream_types::Result;

/// A small recorded trace: web requests and batch-job completions, merged
/// into one audit stream. The job stream is sparse — idle-waiting bait.
const TRACE: &str = "\
# ts_micros,stream,values...
1000,web,101,12
21000,web,102,7
44000,web,103,541
61000,web,104,3
102000,jobs,7,1
121000,web,105,88
142000,web,106,19
191000,web,107,240
202000,jobs,8,0
221000,web,108,64
";

const PROGRAM: &str = "
    CREATE STREAM web (req INT, ms INT);
    CREATE STREAM jobs (job INT, failed INT);

    SELECT req, ms FROM web WHERE ms > 5
    UNION
    SELECT job, failed FROM jobs;
";

fn main() -> Result<()> {
    println!("trace replay — audit union over a recorded trace\n");

    for (label, policy) in [
        ("no ETS", EtsPolicy::None),
        ("on-demand ETS", EtsPolicy::on_demand()),
    ] {
        let collector = SharedLatencyCollector::new();
        let planned = plan_program(PROGRAM, collector.clone())?;
        let clock = VirtualClock::shared();
        let mut executor =
            Executor::new(planned.graph, clock.clone(), CostModel::default(), policy);
        let web = planned.sources[0].clone();
        let jobs = planned.sources[1].clone();
        let trace = parse_trace(TRACE, &[("web", &web.schema), ("jobs", &jobs.schema)])?;
        // Internal timestamps: each record is stamped from the engine's
        // own clock on delivery.
        replay(&mut executor, &[web.id, jobs.id], &trace, |_| clock.now())?;
        let mean = collector.recorder().mean();
        println!("{label}:");
        println!("  records ingested : {}", trace.len());
        println!("  audit rows out   : {}", collector.delivered());
        println!(
            "  mean latency     : {:.3} ms",
            mean.map_or(f64::NAN, |d| d.as_millis_f64())
        );
        println!("  ETS generated    : {}\n", executor.stats().ets_generated);
    }
    println!("Replays are deterministic: rerunning gives identical latencies,");
    println!("which makes recorded traces the regression harness for the engine.");
    Ok(())
}
