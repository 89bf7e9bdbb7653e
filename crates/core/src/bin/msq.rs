//! `msq` — the millstream query runner.
//!
//! Executes a continuous query over a recorded trace and prints the output
//! stream, with optional plan/profile diagnostics:
//!
//! ```text
//! msq <query.msq> <trace.csv> [--no-ets] [--dot] [--profile] [--trace]
//!                              [--batch K] [--shards N]
//!                              [--join-spill-budget B]
//! msq serve <query.msq> [--addr A] [--idle-ms MS] [--strict]
//!                        [--io-threads N]
//! msq send <addr> <stream> <trace.csv> [--window N]
//! msq tail <addr> [--patience-ms MS]
//! msq fuzz [--seeds N] [--base B]
//!
//!   query.msq   CREATE STREAM definitions + one SELECT query
//!   trace.csv   lines of: timestamp_micros,stream_name,v1,v2,…
//!   --no-ets    disable on-demand ETS (observe the idle-waiting)
//!   --dot       print the plan as Graphviz DOT and exit
//!   --profile   print the per-operator profile after the run
//!   --trace     print the last scheduler activities after the run
//!   --batch K   fuse up to K consecutive Encore steps per scheduling
//!               decision (default 1 = per-tuple execution)
//!   --shards N  key-partition the (single-component) plan across N
//!               worker threads behind an exchange edge, with per-worker
//!               frontier summaries driving an order-restoring merge;
//!               partition keys come from the planner's shard-key
//!               analysis (join equi-keys, GROUP BY columns). Queries
//!               the analysis deems unshardable fall back to serial.
//!               With --dot, prints the sharded plan (exchange nodes,
//!               shard replica clusters, ts-merge).
//!   --join-spill-budget B  tiered join state: each join input compacts
//!               aged rows into columnar runs and spills runs beyond B
//!               resident bytes (suffixes k/m/g; `unbounded` = compact
//!               but never spill; `off` = default row-only state). Also
//!               settable as the MILLSTREAM_JOIN_SPILL env var. Output
//!               is byte-identical at any budget — only peak resident
//!               state changes.
//!
//! serve       host the query over TCP (see `millstream_net`): producers
//!             `msq send` into the named streams, subscribers `msq tail`
//!             the sink. The server runs until stdin closes (or a `quit`
//!             line), then drains gracefully — open sources are closed so
//!             the final ETS reaches every subscriber.
//!   --addr A        bind address (default 127.0.0.1:7171; port 0 = OS pick)
//!   --workers N     accepted (a positive integer) and ignored — it never
//!                   had an effect: the query is one component and runs
//!                   on the pump thread. Not in the usage line; kept so
//!                   existing scripts keep working
//!   --idle-ms MS    synthesize a source heartbeat after MS of network
//!                   silence on a producer connection (default: off)
//!   --strict        run with MILLSTREAM_CHECK=strict wire sentinels
//!   --sub-queue N   bounded per-subscriber output queue (default 1024)
//!   --overflow P    what to do with a subscriber stalled past its queue:
//!                   `shed` (default: drop its oldest data, declared via
//!                   cumulative drop-notice feedback frames) or
//!                   `disconnect` (cut it off — after a drop notice, the
//!                   final punctuation mark and a structured error)
//!   --no-feedback   disable producer pacing (no pacing frames; subscriber
//!                   drop notices still flow)
//!   --io-threads N  nonblocking poller threads multiplexing producer and
//!                   subscriber sockets (default 2; each poller owns a
//!                   slice of the connections, no thread-per-connection)
//!   --ingest-shards N  accepted (a positive integer) and ignored: there
//!                   is one ingest queue. Not in the usage line; kept so
//!                   existing scripts keep working
//!
//! send        replay a trace as a producer: lines `ts_micros,stream,v…`,
//!             all for <stream>, data timestamps strictly increasing
//!             (the wire resume contract; equal timestamps dedup
//!             server-side). Retries with exponential backoff and resumes
//!             from the last acked timestamp after a link failure.
//!   --window N      max unacked frames in flight (default 32)
//!
//! tail        subscribe and print output rows until end of stream
//!   --patience-ms MS  give up if nothing arrives in MS (default 30000)
//!
//! fuzz        differential stream fuzzing: generate seeded random query
//!             graphs and disordered workloads, run each across every
//!             EtsPolicy × scheduling policy × serial/parallel/sharded
//!             cell with MILLSTREAM_CHECK=strict semantics, and compare
//!             all outputs against a naive single-queue oracle
//!   --seeds N   number of seeds to run (default 64)
//!   --base B    first seed (default 0)
//! ```
//!
//! Example query file:
//!
//! ```text
//! CREATE STREAM web (host INT, ms INT);
//! CREATE STREAM db  (host INT, ms INT);
//! SELECT host, ms FROM web WHERE ms > 100
//! UNION
//! SELECT host, ms FROM db;
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use millstream_exec::{
    CostModel, Engine, EtsPolicy, ExecOptions, Executor, ShardedConfig, VirtualClock,
};
use millstream_ops::SinkCollector;
use millstream_query::{plan_program, PlannedQuery, PlannedSource};
use millstream_sim::{parse_trace, replay};
use millstream_types::{Error, Result, Schema, Timestamp, Tuple};

struct Options {
    query_path: String,
    trace_path: String,
    ets: bool,
    dot: bool,
    profile: bool,
    trace: bool,
    batch: usize,
    shards: usize,
}

const USAGE: &str = "usage: msq <query.msq> <trace.csv> [--no-ets] [--dot] [--profile] [--trace] [--batch K] [--shards N] [--join-spill-budget B]\n       msq serve <query.msq> [--addr A] [--idle-ms MS] [--strict] [--sub-queue N] [--overflow shed|disconnect] [--no-feedback] [--io-threads N]\n       msq send <addr> <stream> <trace.csv> [--window N]\n       msq tail <addr> [--patience-ms MS]\n       msq fuzz [--seeds N] [--base B]";

fn parse_args(args: &[String]) -> std::result::Result<Options, String> {
    let mut positional = Vec::new();
    let mut ets = true;
    let mut dot = false;
    let mut profile = false;
    let mut trace = false;
    let mut batch = 1usize;
    let mut shards = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-ets" => ets = false,
            "--dot" => dot = true,
            "--profile" => profile = true,
            "--trace" => trace = true,
            "--batch" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--batch requires a value\n{USAGE}"))?;
                batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| {
                        format!("--batch expects a positive integer, got `{value}`\n{USAGE}")
                    })?;
            }
            "--shards" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--shards requires a value\n{USAGE}"))?;
                shards = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=millstream_exec::MAX_SHARDS).contains(&n))
                    .ok_or_else(|| {
                        format!(
                            "--shards expects an integer in 1..={}, got `{value}`\n{USAGE}",
                            millstream_exec::MAX_SHARDS
                        )
                    })?;
            }
            "--join-spill-budget" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--join-spill-budget requires a value\n{USAGE}"))?;
                if !value.eq_ignore_ascii_case("off")
                    && millstream_ops::TierConfig::parse(value).is_none()
                {
                    return Err(format!(
                        "--join-spill-budget expects bytes (k/m/g suffix ok), `unbounded` or `off`, got `{value}`\n{USAGE}"
                    ));
                }
                // The planner reads MILLSTREAM_JOIN_SPILL when it
                // constructs join operators; the flag is the env var's
                // CLI spelling.
                std::env::set_var("MILLSTREAM_JOIN_SPILL", value);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            p => positional.push(p.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected <query.msq> <trace.csv>, got {} positional argument(s)\n{USAGE}",
            positional.len()
        ));
    }
    let mut it = positional.into_iter();
    Ok(Options {
        query_path: it.next().expect("len checked"),
        trace_path: it.next().expect("len checked"),
        ets,
        dot,
        profile,
        trace,
        batch,
        shards,
    })
}

/// Prints each delivered row immediately and keeps latency statistics.
#[derive(Clone, Default)]
struct PrintingCollector {
    count: Arc<AtomicU64>,
    latency_sum_us: Arc<AtomicU64>,
}

impl SinkCollector for PrintingCollector {
    fn deliver(&mut self, tuple: Tuple, now: Timestamp) {
        println!("{tuple}");
        self.count.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(
            now.duration_since(tuple.entry).as_micros(),
            Ordering::Relaxed,
        );
    }
}

fn run(opts: &Options) -> Result<()> {
    let query_text = std::fs::read_to_string(&opts.query_path)
        .map_err(|e| Error::config(format!("{}: {e}", opts.query_path)))?;
    let collector = PrintingCollector::default();
    let policy = if opts.ets {
        EtsPolicy::on_demand()
    } else {
        EtsPolicy::None
    };

    if opts.shards > 1 {
        // The `--shards N` construction: the single-component plan
        // replicated across N key-partitioned shard workers behind an
        // exchange edge, merged back into timestamp order by per-worker
        // frontier summaries. The replicas run cost-free, so the replay's
        // `advance_to(arrival)` is the only thing that moves a replica
        // clock: a record's arrival instant is its timestamp, and an
        // on-demand ETS can never be ahead of the next record's stamp.
        let config = ShardedConfig {
            opts: ExecOptions {
                encore_batch: opts.batch,
            },
            ..ShardedConfig::new(CostModel::free(), policy, opts.shards)
        };
        let sink = Box::new(collector.clone());
        if let Some((mut sx, planned)) = millstream_core::plan_sharded(&query_text, config, sink)? {
            if opts.dot {
                print!("{}", sx.plan_dot());
                return Ok(());
            }
            drive(
                opts,
                &mut sx,
                &planned.sources,
                &planned.output_schema,
                &collector,
                |at| at,
            )?;
            let snap = sx.snapshot()?;
            eprintln!(
                "\n# {} shard(s) behind the exchange: {} frontier advance(s), \
                 {} merge floor heartbeat(s), {} frontier violation(s)",
                sx.num_shards(),
                snap.frontier_advances.iter().sum::<u64>(),
                snap.merge_heartbeats,
                snap.frontier_violations,
            );
            if opts.profile {
                for (j, b) in snap.busy_nanos.iter().enumerate() {
                    eprintln!(
                        "#   shard {j}: {:.3} ms busy, floor {:?}, {} advance(s)",
                        *b as f64 / 1e6,
                        snap.floors[j].map(|t| t.as_micros()),
                        snap.frontier_advances[j],
                    );
                }
            }
            if opts.trace {
                eprintln!("# --trace is per-shard state; not merged under --shards");
            }
            return Ok(());
        }
        eprintln!(
            "# query is unshardable; {}",
            if opts.dot {
                "printing the serial plan"
            } else {
                "running serial"
            }
        );
    }

    let PlannedQuery {
        graph,
        sources,
        output_schema,
        ..
    } = plan_program(&query_text, collector.clone())?;
    if opts.dot {
        print!("{}", graph.to_dot());
        return Ok(());
    }
    // The serial construction stamps each record from its own clock:
    // timestamps are internal, and the virtual CPU the cost model charges
    // for earlier work may have carried the clock past the arrival.
    let clock = VirtualClock::shared();
    let mut executor = Executor::new(graph, clock.clone(), CostModel::default(), policy)
        .with_encore_batch(opts.batch);
    if opts.trace {
        executor.enable_trace(64);
    }
    drive(
        opts,
        &mut executor,
        &sources,
        &output_schema,
        &collector,
        |_| clock.now(),
    )?;
    if opts.trace {
        eprintln!("\n# last scheduler activities");
        for line in executor.render_trace().lines() {
            eprintln!("# {line}");
        }
    }
    Ok(())
}

/// What every backend shares once it is constructed: load the trace
/// against the plan's streams, replay it (rows print as the sink delivers
/// them), then the `# delivered …` summary and the `--profile` table.
fn drive<E: Engine>(
    opts: &Options,
    engine: &mut E,
    sources: &[PlannedSource],
    output_schema: &Schema,
    collector: &PrintingCollector,
    stamp: impl Fn(Timestamp) -> Timestamp,
) -> Result<()> {
    let trace_text = std::fs::read_to_string(&opts.trace_path)
        .map_err(|e| Error::config(format!("{}: {e}", opts.trace_path)))?;
    let streams: Vec<(&str, &Schema)> = sources
        .iter()
        .map(|s| (s.stream.as_str(), &s.schema))
        .collect();
    let trace = parse_trace(&trace_text, &streams)?;
    eprintln!(
        "# {} record(s), {} stream(s), output schema {}",
        trace.len(),
        sources.len(),
        output_schema
    );

    let source_ids: Vec<_> = sources.iter().map(|s| s.id).collect();
    replay(engine, &source_ids, &trace, stamp)?;

    let delivered = collector.count.load(Ordering::Relaxed);
    let mean_ms = if delivered == 0 {
        f64::NAN
    } else {
        collector.latency_sum_us.load(Ordering::Relaxed) as f64 / delivered as f64 / 1_000.0
    };
    eprintln!(
        "# delivered {delivered} row(s); mean latency {mean_ms:.3} ms; on-demand ETS {}",
        engine.stats()?.ets_generated
    );

    if opts.profile {
        eprintln!("\n# per-operator profile");
        eprintln!(
            "# {:<14} {:>8} {:>10} {:>10} {:>12}",
            "operator", "steps", "consumed", "produced", "busy (us)"
        );
        for p in engine.profile()? {
            eprintln!(
                "# {:<14} {:>8} {:>10} {:>10} {:>12}",
                p.name, p.steps, p.consumed, p.produced, p.busy_micros
            );
        }
    }
    Ok(())
}

/// The `msq serve` subcommand: host a query over TCP until stdin closes.
fn run_serve(args: &[String]) -> Result<()> {
    let mut query_path = None;
    let mut cfg_addr = "127.0.0.1:7171".to_string();
    let mut workers = 2usize;
    let mut idle_ms = None;
    let mut strict = false;
    let mut sub_queue = None;
    let mut overflow = None;
    let mut feedback = true;
    let mut io_threads = None;
    let mut ingest_shards = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sub-queue" => {
                sub_queue = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| Error::config("--sub-queue expects a positive integer"))?,
                );
            }
            "--overflow" => {
                overflow = Some(match it.next().map(String::as_str) {
                    Some("shed") => millstream_net::OverflowPolicy::Shed,
                    Some("disconnect") => millstream_net::OverflowPolicy::Disconnect,
                    other => {
                        return Err(Error::config(format!(
                            "--overflow expects `shed` or `disconnect`, got {other:?}"
                        )));
                    }
                });
            }
            "--no-feedback" => feedback = false,
            "--addr" => {
                cfg_addr = it
                    .next()
                    .ok_or_else(|| Error::config("--addr requires a value"))?
                    .clone();
            }
            "--workers" => {
                // Validated and stored, but nothing reads it (see the
                // header): the server has no engine worker threads.
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Error::config("--workers expects a positive integer"))?;
            }
            "--idle-ms" => {
                idle_ms = Some(
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| Error::config("--idle-ms expects a positive integer"))?,
                );
            }
            "--strict" => strict = true,
            "--io-threads" => {
                io_threads = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| Error::config("--io-threads expects a positive integer"))?,
                );
            }
            "--ingest-shards" => {
                // Validated and stored, but nothing reads it (see the
                // header): the server has one ingest queue.
                ingest_shards = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            Error::config("--ingest-shards expects a positive integer")
                        })?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(Error::config(format!("unknown serve flag `{flag}`")));
            }
            p if query_path.is_none() => query_path = Some(p.to_string()),
            p => return Err(Error::config(format!("unexpected serve argument `{p}`"))),
        }
    }
    let query_path =
        query_path.ok_or_else(|| Error::config(format!("serve needs <query.msq>\n{USAGE}")))?;
    let program = std::fs::read_to_string(&query_path)
        .map_err(|e| Error::config(format!("{query_path}: {e}")))?;

    let mut cfg = millstream_net::ServerConfig::new(program);
    cfg.addr = cfg_addr;
    cfg.workers = workers;
    cfg.idle_timeout = idle_ms.map(std::time::Duration::from_millis);
    if strict {
        cfg.check = Some(millstream_buffer::CheckMode::Strict);
    }
    if let Some(n) = sub_queue {
        cfg.subscriber_queue = n;
    }
    if let Some(p) = overflow {
        cfg.overflow = p;
    }
    if !feedback {
        cfg.feedback = None;
    }
    if let Some(n) = io_threads {
        cfg.io_threads = n;
    }
    if let Some(n) = ingest_shards {
        cfg.ingest_shards = n;
    }
    let server = millstream_net::Server::start(cfg)?;
    // Scripts read the first line to learn the resolved port.
    println!("listening on {}", server.addr());
    eprintln!("# serving; close stdin (or type `quit`) for a graceful drain");

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let report = server.shutdown()?;
    let s = &report.stats;
    eprintln!(
        "# served {} connection(s): {} tuple(s) in, {} heartbeat(s), {} synthesized, \
         {} duplicate(s) dropped, {} rejected; {} row(s) delivered",
        s.connections,
        s.tuples_ingested,
        s.heartbeats_in,
        s.synthesized_heartbeats,
        s.duplicates_dropped,
        s.rejected_tuples,
        s.delivered,
    );
    if s.feedback_frames > 0 || s.sub_shed > 0 || s.subscriber_overflows > 0 {
        eprintln!(
            "# feedback: {} pacing frame(s) to producers; {} tuple(s) shed from subscriber \
             queues (declared), {} overflow disconnect(s); peak subscriber queue {}",
            s.feedback_frames, s.sub_shed, s.subscriber_overflows, report.sub_peak_queue,
        );
    }
    for p in &report.ports {
        eprintln!(
            "#   stream {:<12} ingested {:>8}  synthesized {:>4}  idle {:>5.1}%",
            p.stream,
            p.ingested,
            p.synthesized,
            p.idle.idle_fraction * 100.0
        );
    }
    if report.latency.count > 0 {
        let l = &report.latency;
        eprintln!(
            "# wire→sink latency: mean {:.3} ms, p50 {:.3}, p99 {:.3} (n={})",
            l.mean_ms, l.p50_ms, l.p99_ms, l.count
        );
    }
    if let Some(f) = report.monitor_idle_fraction {
        eprintln!("# monitored IWP operator idle-waiting {:.1}%", f * 100.0);
    }
    if report.wire_sentinel_violations > 0 {
        eprintln!(
            "# WARNING: {} wire sentinel violation(s)",
            report.wire_sentinel_violations
        );
    }
    Ok(())
}

/// The `msq send` subcommand: replay a single-stream trace as a producer.
fn run_send(args: &[String]) -> Result<()> {
    let mut positional = Vec::new();
    let mut window = 32usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--window" => {
                window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Error::config("--window expects a positive integer"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(Error::config(format!("unknown send flag `{flag}`")));
            }
            p => positional.push(p.to_string()),
        }
    }
    let [addr, stream, trace_path] = positional.as_slice() else {
        return Err(Error::config(format!(
            "send needs <addr> <stream> <trace.csv>\n{USAGE}"
        )));
    };
    let mut cfg = millstream_net::ClientConfig::new(addr.clone(), stream.clone());
    cfg.ack_window = window;
    let mut client = millstream_net::StreamClient::connect(cfg)?;
    let schema = client
        .schema()
        .cloned()
        .ok_or_else(|| Error::runtime("no schema negotiated"))?;
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| Error::config(format!("{trace_path}: {e}")))?;
    let trace = parse_trace(&trace_text, &[(stream.as_str(), &schema)])?;
    for rec in &trace {
        client.send(Tuple::data(rec.at, rec.values.clone()))?;
    }
    let report = client.close()?;
    eprintln!(
        "# sent {} frame(s), {} acked; {} reconnect(s), {} retransmitted, {} resume-skipped",
        report.sent, report.acked, report.reconnects, report.retransmitted, report.resume_skipped
    );
    Ok(())
}

/// The `msq tail` subcommand: print the sink stream until it ends.
fn run_tail(args: &[String]) -> Result<()> {
    let mut addr = None;
    let mut patience_ms = 30_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--patience-ms" => {
                patience_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Error::config("--patience-ms expects a positive integer"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(Error::config(format!("unknown tail flag `{flag}`")));
            }
            p if addr.is_none() => addr = Some(p.to_string()),
            p => return Err(Error::config(format!("unexpected tail argument `{p}`"))),
        }
    }
    let addr = addr.ok_or_else(|| Error::config(format!("tail needs <addr>\n{USAGE}")))?;
    let mut sub = millstream_net::Subscription::connect(&addr)?;
    eprintln!("# output schema {}", sub.schema());
    let patience = std::time::Duration::from_millis(patience_ms);
    let mut rows = 0u64;
    while let Some(tuple) = sub.next(patience)? {
        if tuple.is_data() {
            println!("{tuple}");
            rows += 1;
        }
    }
    eprintln!("# end of stream after {rows} row(s)");
    Ok(())
}

/// The `msq fuzz` subcommand: a differential fuzzing sweep over seeded
/// random graphs and workloads (see `millstream_sim::fuzz_range`).
fn run_fuzz(args: &[String]) -> ExitCode {
    let mut seeds = 64u64;
    let mut base = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parse_u64 = |flag: &str, value: Option<&String>| {
            value
                .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))?
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer\n{USAGE}"))
        };
        let parsed = match a.as_str() {
            "--seeds" => parse_u64("--seeds", it.next()).map(|n| seeds = n),
            "--base" => parse_u64("--base", it.next()).map(|n| base = n),
            "--help" | "-h" => Err(USAGE.to_string()),
            flag => Err(format!("unknown fuzz argument `{flag}`\n{USAGE}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    let summary = millstream_sim::fuzz_range(base, seeds);
    eprintln!(
        "# fuzz: {} seed(s) from {base}, {} differential run(s), {} failure(s)",
        summary.seeds,
        summary.runs,
        summary.failures.len()
    );
    if summary.failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for failure in &summary.failures {
        eprintln!("FAIL {failure}");
    }
    // Reprint the specs of the failing seeds so a regression seed can be
    // dropped into fuzz-corpus/ without re-deriving it.
    let mut reported = std::collections::BTreeSet::new();
    for failure in &summary.failures {
        if let Some(seed) = failure
            .strip_prefix("seed ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|s| s.parse::<u64>().ok())
        {
            if reported.insert(seed) {
                eprintln!("{}", millstream_sim::describe_seed(seed));
            }
        }
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        return run_fuzz(&args[1..]);
    }
    if let Some(net) = args.first().and_then(|a| match a.as_str() {
        "serve" => Some(run_serve as fn(&[String]) -> Result<()>),
        "send" => Some(run_send as fn(&[String]) -> Result<()>),
        "tail" => Some(run_tail as fn(&[String]) -> Result<()>),
        _ => None,
    }) {
        return match net(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("msq: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("msq: {e}");
            ExitCode::FAILURE
        }
    }
}
