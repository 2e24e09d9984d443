//! The two workloads: fixed engine settings, fixed rates, and the
//! seeded request streams each run replays.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::Measure;
use rtr_datagen::{QLogConfig, Zipf};
use rtr_graph::{Graph, NodeId};
use rtr_serve::{QueryRequest, SchedulerMode, ServeConfig};
use std::collections::HashMap;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf repeats over a 256-phrase pool the cache holds whole.
    Hot,
    /// Zipf over every phrase, crossed with every measure.
    Mixed,
}

/// Everything about a workload that is fixed: the engine, the offered
/// rate, and how `--seconds` is split between the phases.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// Offered rate of the open-loop phase, requests/s.
    pub light_qps: f64,
    /// Shares of `--seconds` for the open-loop and closed-loop phases.
    pub split: [f64; 2],
    /// Requests sent before any phase is measured.
    pub warmup: usize,
}

/// Each phase runs as this many windows, interleaved round by round
/// (open loop, closed loop, a batch of set-ups), so every metric samples
/// the whole run and a passing disturbance of the machine lands in few
/// windows.
pub const ROUNDS: usize = 10;

/// The `r`-th of [`ROUNDS`] consecutive chunks of `stream`: the requests
/// of window `r`.
pub fn chunk<T>(stream: &[T], r: usize) -> &[T] {
    let n = stream.len();
    &stream[r * n / ROUNDS..(r + 1) * n / ROUNDS]
}

/// Phrases in `hot`'s pool.
pub const HOT_POOL: usize = 256;
/// Seed of the fixed popularity ranking of both workloads.
const POPULARITY_SEED: u64 = 2013;
/// Requests per closed-loop connection stream before it wraps. `mixed`
/// gets through about 5000 a connection in a 50-second run, so this
/// leaves it sixfold room before a repeat; longer streams only grow the
/// request table, which is resident during the timed phases and counted
/// in `rss_mb`.
const CLOSED_STREAM: usize = 1 << 15;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Hot, Workload::Mixed];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Mixed => "mixed",
        }
    }

    /// The workload's fixed settings. The rates are constants set against
    /// the closed-loop capacity measured when they were chosen (see
    /// `perfbench/README.md`); they are never derived from a run.
    pub fn settings(self) -> Settings {
        match self {
            Workload::Hot => Settings {
                cache_capacity: 4096,
                light_qps: 60000.0,
                split: [0.6, 0.4],
                warmup: 2 * HOT_POOL,
            },
            Workload::Mixed => Settings {
                cache_capacity: 64,
                light_qps: 200.0,
                split: [0.7, 0.3],
                warmup: 4000,
            },
        }
    }
}

impl Settings {
    /// The engine configuration: one worker (the second core is left to
    /// the network threads and the load generator), the work-stealing
    /// scheduler, 16 cache shards, metrics and tracing off.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(1)
            .with_scheduler(SchedulerMode::WorkStealing)
            .with_cache_capacity(self.cache_capacity)
            .with_cache_shards(16)
            .with_metrics(false)
            .with_tracing(false)
    }

    /// The generator configuration of the workloads' graph.
    pub fn qlog_config(&self) -> QLogConfig {
        QLogConfig::small()
    }

    /// Requests in an open-loop phase at `rate` lasting `share` of
    /// `seconds`.
    pub fn phase_len(rate: f64, seconds: f64, share: f64) -> usize {
        (rate * seconds * share).round() as usize
    }
}

/// A run's requests: a table of distinct requests and, per phase, a
/// stream of indices ("slots") into it. Every response is checked against
/// the serial reference answer of its slot.
pub struct Plan {
    /// Distinct requests.
    pub table: Vec<QueryRequest>,
    /// Sent before measuring.
    pub warmup: Vec<u32>,
    /// The light open-loop phase.
    pub light: Vec<u32>,
    /// The traced pass of `--trace 1` (empty otherwise).
    pub traced: Vec<u32>,
    /// One stream per closed-loop connection; each wraps around at its
    /// end.
    pub closed: Vec<Vec<u32>>,
}

/// Phase tags mixed into the seed, so each phase's stream is independent
/// of the others' lengths.
const TAGS: [u64; 5] = [0x11, 0x22, 0x33, 0x44, 0x55];

impl Plan {
    /// The requests of one run of `workload` over the `phrases` of
    /// `graph`, all drawn from `seed`. `traced` is the length of the
    /// traced pass; `connections` closed-loop streams are made.
    pub fn build(
        workload: Workload,
        graph: &Graph,
        phrases: &[NodeId],
        seed: u64,
        light: usize,
        traced: usize,
        connections: usize,
    ) -> Plan {
        // The phrase order is fixed, part of the data set like the graph:
        // both workloads rank popularity by it. `seed` draws the requests.
        let pool = query_pool(graph, phrases, POPULARITY_SEED);
        let warmup = workload.settings().warmup;
        match workload {
            Workload::Hot => {
                let table = pool[..HOT_POOL.min(pool.len())]
                    .iter()
                    .map(|&v| QueryRequest::node(v))
                    .collect::<Vec<_>>();
                let zipf = Zipf::new(table.len(), 1.0);
                let stream = |tag: u64, n: usize| {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ tag);
                    (0..n)
                        .map(|_| zipf.sample(&mut rng) as u32)
                        .collect::<Vec<u32>>()
                };
                // Warm-up touches every slot first, so the cache holds the
                // whole pool before anything is measured.
                let mut warm: Vec<u32> = (0..table.len() as u32).collect();
                warm.extend(stream(TAGS[0], warmup.saturating_sub(table.len())));
                Plan {
                    warmup: warm,
                    light: stream(TAGS[1], light),
                    traced: stream(TAGS[2], traced),
                    closed: (0..connections)
                        .map(|c| stream(TAGS[3] + c as u64 * 0x100, CLOSED_STREAM))
                        .collect(),
                    table,
                }
            }
            Workload::Mixed => {
                let mut mix = Mixed::new(&pool);
                let warm = mix.stream(seed ^ TAGS[0], warmup);
                let light = mix.stream(seed ^ TAGS[1], light);
                let traced = mix.stream(seed ^ TAGS[2], traced);
                let closed = (0..connections)
                    .map(|c| mix.stream(seed ^ (TAGS[3] + c as u64 * 0x100), CLOSED_STREAM))
                    .collect();
                Plan {
                    table: mix.table,
                    warmup: warm,
                    light,
                    traced,
                    closed,
                }
            }
        }
    }
}

/// Non-dangling phrases in an order drawn from `seed`: the query pool.
fn query_pool(graph: &Graph, phrases: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = phrases
        .iter()
        .copied()
        .filter(|&v| !graph.is_dangling(v))
        .collect();
    assert!(!pool.is_empty(), "the query log has no usable phrases");
    pool.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x9e37));
    pool
}

/// `mixed`'s request generator: Zipf s=1.0 over the whole pool, about
/// 10% two-node queries, F / T / RTR / RTR+(0.3) / RTR+(0.7) uniformly,
/// and k of 5 or 10. Equal requests share a slot.
struct Mixed<'a> {
    pool: &'a [NodeId],
    zipf: Zipf,
    slots: HashMap<(u32, u32, u8, u8), u32>,
    table: Vec<QueryRequest>,
}

impl<'a> Mixed<'a> {
    fn new(pool: &'a [NodeId]) -> Self {
        Mixed {
            pool,
            zipf: Zipf::new(pool.len(), 1.0),
            slots: HashMap::new(),
            table: Vec::new(),
        }
    }

    fn stream(&mut self, seed: u64, n: usize) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    fn sample(&mut self, rng: &mut ChaCha8Rng) -> u32 {
        let node = self.zipf.sample(rng);
        let other = if rng.gen_bool(0.1) {
            self.zipf.sample(rng) as u32
        } else {
            u32::MAX
        };
        let measure = rng.gen_range(0..5u8);
        let k = if rng.gen_bool(0.5) { 5u8 } else { 10 };
        let key = (node as u32, other, measure, k);
        let next = self.table.len() as u32;
        let slot = *self.slots.entry(key).or_insert(next);
        if slot == next {
            let mut request = if other == u32::MAX {
                QueryRequest::node(self.pool[node])
            } else {
                QueryRequest::nodes(&[self.pool[node], self.pool[other as usize]])
            };
            request = match measure {
                0 => request.with_measure(Measure::F),
                1 => request.with_measure(Measure::T),
                2 => request.with_measure(Measure::RtrPlus { beta: 0.3 }),
                3 => request.with_measure(Measure::RtrPlus { beta: 0.7 }),
                _ => request,
            };
            self.table.push(request.with_k(k as usize));
        }
        slot
    }
}

/// Short label of a request's measure, for per-measure counts.
pub fn measure_label(measure: Measure) -> &'static str {
    match measure {
        Measure::F => "F",
        Measure::T => "T",
        Measure::Rtr => "RTR",
        Measure::RtrPlus { beta } if beta < 0.5 => "RTR+0.3",
        Measure::RtrPlus { .. } => "RTR+0.7",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_datagen::QLog;

    fn tiny_log(seed: u64) -> QLog {
        QLog::generate(&QLogConfig::tiny(), seed)
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let log = tiny_log(3);
        for w in Workload::ALL {
            let a = Plan::build(w, &log.graph, &log.phrases, 5, 50, 60, 2);
            let b = Plan::build(w, &log.graph, &log.phrases, 5, 50, 60, 2);
            assert_eq!(a.table, b.table, "{}", w.name());
            assert_eq!((a.light, a.traced, a.closed), (b.light, b.traced, b.closed));
        }
    }

    #[test]
    fn mixed_slots_name_equal_requests() {
        let log = tiny_log(5);
        let plan = Plan::build(Workload::Mixed, &log.graph, &log.phrases, 1, 500, 10, 1);
        let distinct: std::collections::HashSet<u32> = plan.light.iter().copied().collect();
        assert!(distinct.len() < plan.light.len(), "Zipf repeats requests");
        assert!(plan.light.iter().all(|&s| (s as usize) < plan.table.len()));
    }
}
