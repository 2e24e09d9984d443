//! perfbench — the wire-level benchmark of the RoundTripRank serving
//! stack.
//!
//! One process starts a `ServeEngine` behind a `NetServer` on loopback
//! and drives it through `NetClient`, replaying one seeded workload:
//!
//! ```text
//! perfbench --workload <hot|mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: an open-loop phase at a
//! fixed rate (latency timed from each request's scheduled send), a
//! closed-loop capacity phase and repeated set-ups, interleaved.
//! `--trace 1` runs the open-loop phase untraced and, interleaved with
//! it, a traced pass, and reports the per-layer metrics. Either way every
//! answer is checked against the serial reference (`run_serial_requests`)
//! before any number is printed; the last line of standard output is one
//! JSON object with the result. See `perfbench/README.md` for the
//! workloads and the metric map.

mod alloc;
mod drive;
mod env;
mod layers;
mod report;
mod spans;
mod stats;
mod workload;

use drive::{closed_loop, open_loop, Call, Samples, Tally, CONNECTIONS};
use report::{result_line, Values, END_TO_END, PER_LAYER};
use rtr_datagen::QLog;
use rtr_graph::{Graph, NodeId};
use rtr_net::{NetServer, NetServerConfig};
use rtr_serve::CacheStats;
use rtr_serve::{run_serial_requests, QueryRequest, ServeConfig, ServeEngine};
use rtr_topk::TopKResult;
use spans::Spans;
use stats::{highest_supported, median, percentile, poisson_schedule, sorted, supported};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{chunk, measure_label, Plan, Settings, Workload, ROUNDS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// A send more than this late (p99 over a phase) means the generator
/// could not keep to its schedule, so the offered rate was not the one
/// named and the run is invalid.
const MAX_LATE_MS: f64 = 20.0;

/// Seed of every workload's graph. The graph is the fixed data set;
/// `--seed` draws the requests and their arrival times.
const GRAPH_SEED: u64 = 2013;

/// Most requests a traced pass sends: enough for every per-layer
/// percentile, while the span dump stays tens of megabytes on `hot`.
const TRACED_MAX: usize = 100_000;

/// Server write-queue depth: deep enough that the fixed open-loop rates
/// never meet backpressure (a rejection would count as a failure).
const WRITE_QUEUE_DEPTH: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!("usage: perfbench --workload <hot|mixed> --seed N --seconds S --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// The system under test, started.
struct Stack {
    graph: Arc<Graph>,
    phrases: Vec<NodeId>,
    engine: Arc<ServeEngine>,
    server: NetServer,
}

impl Stack {
    /// Generate the graph and start the engine and the server. Returns
    /// the stack, the whole set-up time and the graph-build part of it.
    fn start(settings: &Settings) -> (Stack, Duration, Duration) {
        let t0 = Instant::now();
        let log = QLog::generate(&settings.qlog_config(), GRAPH_SEED);
        let built = t0.elapsed();
        let QLog { graph, phrases, .. } = log;
        let graph = Arc::new(graph);
        let engine = Arc::new(ServeEngine::start(
            Arc::clone(&graph),
            settings.serve_config(),
        ));
        let server = NetServer::start(
            Arc::clone(&engine),
            NetServerConfig::default().with_queue_depths(WRITE_QUEUE_DEPTH, 64),
        )
        .unwrap_or_else(|e| {
            eprintln!("perfbench: server start: {e}");
            std::process::exit(2);
        });
        let total = t0.elapsed();
        (
            Stack {
                graph,
                phrases,
                engine,
                server,
            },
            total,
            built,
        )
    }

    fn stop(self) {
        self.server.shutdown();
        // The server held the only other handle; dropping ours joins the
        // engine's workers.
        drop(self.engine);
    }
}

/// Set-ups timed before the first round (the last one is kept and
/// measured).
const SETUP_FIRST: usize = 31;
/// Set-ups timed after each round of a timed run, started and stopped
/// again: spread over the whole run, so `setup_s` samples the machine as
/// long as the latency and capacity do. One set-up takes about 2 ms.
const SETUP_PER_ROUND: usize = 27;

/// Set-up and graph-build times, seconds.
#[derive(Default)]
struct SetUps {
    totals: Vec<f64>,
    builds: Vec<f64>,
}

impl SetUps {
    fn record(&mut self, settings: &Settings) -> Stack {
        let (stack, total, built) = Stack::start(settings);
        self.totals.push(total.as_secs_f64());
        self.builds.push(built.as_secs_f64());
        stack
    }

    /// Set up `n` times, stopping each stack but the last, which is
    /// returned.
    fn keep_last(&mut self, settings: &Settings, n: usize) -> Stack {
        for _ in 1..n {
            Stack::stop(self.record(settings));
        }
        self.record(settings)
    }

    /// Set up and stop again `n` times.
    fn discard(&mut self, settings: &Settings, n: usize) {
        for _ in 0..n {
            Stack::stop(self.record(settings));
        }
    }

    /// Median set-up and graph-build times.
    fn medians(&self) -> (f64, f64) {
        (median(&self.totals), median(&self.builds))
    }
}

/// Reference answers (`run_serial_requests`, split across two threads)
/// for every slot some tally received an answer for.
fn reference(
    graph: &Graph,
    config: &ServeConfig,
    table: &[QueryRequest],
    tallies: &[&Tally],
) -> Vec<Option<Arc<TopKResult>>> {
    let mut wanted = vec![false; table.len()];
    for t in tallies {
        for slot in t.answered_slots() {
            wanted[slot as usize] = true;
        }
    }
    let slots: Vec<usize> = (0..table.len()).filter(|&s| wanted[s]).collect();
    let half = slots.len().div_ceil(2);
    let parts: Vec<Vec<(usize, Option<Arc<TopKResult>>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let requests: Vec<QueryRequest> =
                        chunk.iter().map(|&i| table[i].clone()).collect();
                    run_serial_requests(graph, config, &requests)
                        .into_iter()
                        .zip(chunk)
                        .map(|(r, &slot)| (slot, r.result.ok()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut out = vec![None; table.len()];
    for (slot, answer) in parts.into_iter().flatten() {
        out[slot] = answer;
    }
    out
}

fn fingerprints(reference: &[Option<Arc<TopKResult>>]) -> Vec<u64> {
    reference
        .iter()
        .map(|r| r.as_deref().map_or(0, drive::result_hash))
        .collect()
}

/// Split `stream` round-robin into one stream per connection.
fn deal(stream: &[u32]) -> Vec<Vec<u32>> {
    (0..CONNECTIONS)
        .map(|c| {
            stream
                .iter()
                .copied()
                .skip(c)
                .step_by(CONNECTIONS)
                .collect()
        })
        .collect()
}

/// The windows of one open-loop phase.
struct Phase {
    windows: usize,
    samples: Samples,
    calls: Vec<Call>,
    tally: Tally,
}

impl Phase {
    /// An empty phase over `slots` table entries that will send `stream`,
    /// one [`chunk`] a window.
    fn new(slots: usize, stream: &[u32]) -> Phase {
        let widest = (0..ROUNDS).map(|r| chunk(stream, r).len()).max();
        Phase {
            windows: 0,
            samples: Samples::new(stream.len(), widest.unwrap_or(0)),
            calls: Vec::new(),
            tally: Tally::new(slots),
        }
    }

    /// Send one window of requests on `schedule`.
    fn window(
        &mut self,
        addr: std::net::SocketAddr,
        table: &[QueryRequest],
        stream: &[u32],
        schedule: &[Duration],
        traced: bool,
        origin: Instant,
    ) {
        let run = open_loop(
            addr,
            table,
            stream,
            schedule,
            (traced, origin),
            &mut self.samples,
        );
        self.windows += 1;
        self.calls.extend(run.calls);
        self.tally.merge(&run.tally);
    }

    fn pooled(&self) -> Vec<f64> {
        sorted(
            self.samples
                .latency_ms()
                .iter()
                .map(|&x| f64::from(x))
                .collect(),
        )
    }

    /// Latency percentile `bp` of all windows pooled, ms. Pooling uses
    /// every sample for the median, which repeats from run to run more
    /// closely than the median of the windows' medians did.
    fn latency(&self, bp: u32) -> f64 {
        percentile(&self.pooled(), bp).value
    }

    fn late_p99(&self) -> f64 {
        let late = self
            .samples
            .late_ms()
            .iter()
            .map(|&x| f64::from(x))
            .collect();
        percentile(&sorted(late), 9900).value
    }

    /// Print the phase's median, p90, p99 and the highest percentile
    /// its pooled sample supports, with the count.
    fn report(&self, name: &str) {
        let pooled = self.pooled();
        let top = highest_supported(&pooled);
        println!(
            "# latency {name}: {} windows, n {}; p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms; highest supported p{} = {:.4} ms ({} beyond); send late p99 {:.4} ms",
            self.windows,
            pooled.len(),
            self.latency(5000),
            self.latency(9000),
            self.latency(9900),
            top.map_or(0.0, |p| p.bp as f64 / 100.0),
            top.map_or(0.0, |p| p.value),
            top.map_or(0, |p| p.beyond),
            self.late_p99(),
        );
    }
}

/// Print one phase's check counts.
fn report_check(phase: &str, tally: &Tally, reference: &[u64]) {
    println!(
        "# check {phase}: sent {} checked {} (cache hits {}, misses {}) rejected {} errors {} wrong {}",
        tally.sent,
        tally.checked(),
        tally.hits,
        tally.misses,
        tally.rejects,
        tally.errors,
        tally.wrong(reference)
    );
}

fn add_stats(total: &mut CacheStats, delta: CacheStats) {
    total.hits += delta.hits;
    total.misses += delta.misses;
    total.inserts += delta.inserts;
    total.evictions += delta.evictions;
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let settings = w.settings();
    let light_n = Settings::phase_len(settings.light_qps, args.seconds, settings.split[0]);
    // A traced run sends the open-loop phase untraced, and interleaved
    // with it a traced pass at the same rate.
    let traced_n = if args.trace {
        light_n.min(TRACED_MAX)
    } else {
        0
    };
    if !supported(light_n, 9000) {
        usage(&format!(
            "--seconds {} gives {light_n} open-loop requests on {}; p90 needs at least 100",
            args.seconds,
            w.name()
        ));
    }
    let config = settings.serve_config();
    println!(
        "# env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \"graph_seed\": {GRAPH_SEED}, \"engine\": {{\"workers\": {}, \"scheduler\": \"{:?}\", \"cache_capacity\": {}, \"cache_shards\": {}, \"metrics\": false, \"tracing\": false}}, \"light_qps\": {}, \"connections\": {CONNECTIONS}, \"rounds\": {ROUNDS}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env::machine(),
        config.workers,
        config.scheduler,
        config.cache_capacity,
        config.cache_shards,
        settings.light_qps,
    );

    let mut setups = SetUps::default();
    let stack = setups.keep_last(&settings, SETUP_FIRST);
    let addr = stack.server.local_addr();
    let plan = Plan::build(
        w,
        &stack.graph,
        &stack.phrases,
        args.seed,
        light_n,
        traced_n,
        CONNECTIONS,
    );
    println!(
        "# graph {} nodes {} edges; {} distinct requests",
        stack.graph.node_count(),
        stack.graph.edge_count(),
        plan.table.len(),
    );
    let table = &plan.table;
    let warm = closed_loop(
        addr,
        table,
        &deal(&plan.warmup),
        &[0; CONNECTIONS],
        Duration::MAX,
        false,
    );
    let origin = Instant::now();
    let schedule = |rate: f64, n: usize, tag: u64, r: usize| {
        poisson_schedule(rate, n, args.seed ^ tag ^ ((r as u64) << 16))
    };
    let mut light = Phase::new(table.len(), &plan.light);
    let mut values = Values::default();

    let (attempted, failed, late_p99) = if args.trace {
        let mut traced = Phase::new(table.len(), &plan.traced);
        let mut delta = CacheStats::default();
        for r in 0..ROUNDS {
            let l = chunk(&plan.light, r);
            light.window(
                addr,
                table,
                l,
                &schedule(settings.light_qps, l.len(), 0x4c49, r),
                false,
                origin,
            );
            let t = chunk(&plan.traced, r);
            let before = stack.engine.cache_stats().unwrap_or_default();
            traced.window(
                addr,
                table,
                t,
                &schedule(settings.light_qps, t.len(), 0x5452, r),
                true,
                origin,
            );
            add_stats(
                &mut delta,
                stack
                    .engine
                    .cache_stats()
                    .unwrap_or_default()
                    .since(&before),
            );
        }
        light.report("light");
        traced.report("traced");
        let tallies = [&warm.tally, &light.tally, &traced.tally];
        let answers = reference(&stack.graph, &config, table, &tallies);
        let want = fingerprints(&answers);
        report_check("warm-up", &warm.tally, &want);
        report_check("light", &light.tally, &want);
        report_check("traced", &traced.tally, &want);

        let mut spans = Spans::default();
        layers::wire_spans(&traced.calls, &mut spans, &mut values);
        layers::codec(table, &plan.traced, &traced.calls, &mut values);
        let mut segments: Vec<(&[u32], bool)> = vec![(&plan.warmup, false)];
        for r in 0..ROUNDS {
            segments.push((chunk(&plan.light, r), false));
            segments.push((chunk(&plan.traced, r), true));
        }
        let replay_wrong = layers::replay(
            &stack.graph,
            &config,
            table,
            &segments,
            &answers,
            &mut spans,
            &mut values,
        );

        let attempted: u64 = tallies.iter().map(|t| t.sent).sum();
        let failed: u64 = tallies.iter().map(|t| t.failed(&want)).sum::<u64>() + replay_wrong;
        values.set("cache.hits", delta.hits as f64);
        values.set("cache.misses", delta.misses as f64);
        values.set("cache.inserts", delta.inserts as f64);
        values.set("cache.evictions", delta.evictions as f64);
        values.set("cache.hit_ratio", delta.hit_rate());
        values.set("graph.nodes", stack.graph.node_count() as f64);
        values.set("graph.edges", stack.graph.edge_count() as f64);
        values.set("graph.build_s", setups.medians().1);
        values.set("gen.late_ms.p99", traced.late_p99());
        let mut kinds: Vec<&str> = plan
            .traced
            .iter()
            .map(|&s| measure_label(table[s as usize].measure()))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        values.set("gen.measures", kinds.len() as f64);
        values.set("gen.requests", plan.traced.len() as f64);
        values.set(
            "trace.overhead",
            traced.latency(5000) / light.latency(5000) - 1.0,
        );
        values.set("error_frac", failed as f64 / attempted.max(1) as f64);
        values.set(
            "check.responses",
            tallies.iter().map(|t| t.checked()).sum::<u64>() as f64,
        );
        values.set(
            "check.hits",
            tallies.iter().map(|t| t.hits).sum::<u64>() as f64,
        );
        values.set(
            "check.misses",
            tallies.iter().map(|t| t.misses).sum::<u64>() as f64,
        );
        println!(
            "# traced: measures {kinds:?}; server compute total {:.3} s, direct topk {:.3} s, core {:.3} s",
            layers::layer_total(&spans, spans::Layer::ServeCompute).as_secs_f64(),
            layers::layer_total(&spans, spans::Layer::TopkRun).as_secs_f64(),
            layers::layer_total(&spans, spans::Layer::CoreRun).as_secs_f64(),
        );
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.tsv", w.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_tsv(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        (attempted, failed, light.late_p99().max(traced.late_p99()))
    } else {
        let mut closed = Tally::new(table.len());
        let mut window_qps = Vec::with_capacity(ROUNDS);
        let mut offsets = [0usize; CONNECTIONS];
        let closed_window =
            Duration::from_secs_f64(args.seconds * settings.split[1] / ROUNDS as f64);
        // The peak RSS counts the timed windows of every round: the stack,
        // the warmed cache and the generator's buffers are resident from
        // the start; the set-ups' transient peaks are not counted.
        if !env::reset_peak_rss() {
            println!(
                "# memory: the kernel refused to reset the peak RSS; it counts from process start"
            );
        }
        let resident_mb = env::rss_mb();
        let mut rss_mb: f64 = 0.0;
        for r in 0..ROUNDS {
            let l = chunk(&plan.light, r);
            light.window(
                addr,
                table,
                l,
                &schedule(settings.light_qps, l.len(), 0x4c49, r),
                false,
                origin,
            );
            let run = closed_loop(addr, table, &plan.closed, &offsets, closed_window, true);
            for (offset, n) in offsets.iter_mut().zip(&run.per_connection) {
                *offset += *n as usize;
            }
            window_qps.push(run.qps());
            closed.merge(&run.tally);
            rss_mb = rss_mb.max(env::peak_rss_mb());
            setups.discard(&settings, SETUP_PER_ROUND);
            env::reset_peak_rss();
        }
        let (setup_s, build_s) = setups.medians();
        println!(
            "# set-up {setup_s:.5} s (graph {build_s:.5} s), median of {}",
            setups.totals.len()
        );
        light.report("light");
        println!(
            "# closed loop: {} requests on {CONNECTIONS} connections in {ROUNDS} windows; req/s per window {:?}",
            closed.sent,
            window_qps.iter().map(|q| q.round()).collect::<Vec<_>>()
        );
        let plan_bytes = [&plan.warmup, &plan.light]
            .into_iter()
            .chain(&plan.closed)
            .map(|s| s.len() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + plan.table.len() * std::mem::size_of::<QueryRequest>();
        println!(
            "# memory: resident at the start of the timed phases {resident_mb:.1} MiB, of which the request plan {:.1} MiB; peak over the timed windows {rss_mb:.1} MiB, of which latency samples held by the generator {:.1} MiB",
            plan_bytes as f64 / (1 << 20) as f64,
            light.samples.held_bytes() as f64 / (1 << 20) as f64,
        );
        let tallies = [&warm.tally, &light.tally, &closed];
        let want = fingerprints(&reference(&stack.graph, &config, table, &tallies));
        for (phase, t) in ["warm-up", "light", "closed"].iter().zip(tallies) {
            report_check(phase, t, &want);
        }
        values.set("p50_ms", light.latency(5000));
        values.set("capacity_qps", median(&window_qps));
        values.set("setup_s", setup_s);
        values.set("rss_mb", rss_mb);
        let attempted: u64 = tallies.iter().map(|t| t.sent).sum();
        let failed: u64 = tallies.iter().map(|t| t.failed(&want)).sum();
        (attempted, failed, light.late_p99())
    };
    Stack::stop(stack);

    let on_time = late_p99 <= MAX_LATE_MS;
    if !on_time {
        println!("# INVALID: sends ran {late_p99:.3} ms late at p99 (limit {MAX_LATE_MS} ms)");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = values.render(declared).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(3);
    });
    let correct = failed == 0 && on_time;
    println!(
        "# error_frac {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
