//! The load generator: open-loop phases on one split connection (one
//! thread sends on a seeded schedule, one receives) and closed-loop
//! phases on one connection per thread. At most two threads, two
//! connections. Every response is tallied per slot for the correctness
//! check against the serial reference.

use rtr_net::{NetClient, NetError, Reject};
use rtr_serve::{QueryRequest, QueryResponse};
use rtr_topk::TopKResult;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Load-generator threads and connections (at most `nproc` on the box
/// the rates were set on).
pub const CONNECTIONS: usize = 2;

/// Stop the process on a transport failure: the run cannot be measured
/// or checked, so it must not print a result.
pub fn fatal(what: &str, err: NetError) -> ! {
    eprintln!("perfbench: {what}: {err}");
    std::process::exit(2);
}

/// A fingerprint of every output the correctness check compares:
/// ranking, bounds (bit patterns), expansions and `converged`. Never 0.
pub fn result_hash(r: &TopKResult) -> u64 {
    let mut h = DefaultHasher::new();
    r.ranking.len().hash(&mut h);
    for v in &r.ranking {
        v.0.hash(&mut h);
    }
    for (lo, hi) in &r.bounds {
        lo.to_bits().hash(&mut h);
        hi.to_bits().hash(&mut h);
    }
    r.expansions.hash(&mut h);
    r.converged.hash(&mut h);
    h.finish() | 1
}

/// Per-slot record of the answers one phase received.
#[derive(Clone, Debug)]
pub struct Tally {
    /// First answer fingerprint seen per slot (0 = none yet).
    first: Vec<u64>,
    /// Answers received per slot.
    count: Vec<u32>,
    /// Answers that differed from an earlier answer to the same slot.
    pub diverged: u64,
    /// Requests sent.
    pub sent: u64,
    /// Refused by the server.
    pub rejects: u64,
    /// Answered with an engine error.
    pub errors: u64,
    /// Answers served from the result cache.
    pub hits: u64,
    /// Answers computed.
    pub misses: u64,
}

impl Tally {
    /// An empty tally over `slots` table entries.
    pub fn new(slots: usize) -> Tally {
        Tally {
            first: vec![0; slots],
            count: vec![0; slots],
            diverged: 0,
            sent: 0,
            rejects: 0,
            errors: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Record one outcome for `slot`.
    pub fn record(&mut self, slot: u32, outcome: &Result<QueryResponse, Reject>) {
        let response = match outcome {
            Ok(r) => r,
            Err(_) => {
                self.rejects += 1;
                return;
            }
        };
        let result = match &response.result {
            Ok(r) => r,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        if response.from_cache {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.note(slot as usize, result_hash(result), 1);
    }

    fn note(&mut self, slot: usize, hash: u64, n: u32) {
        if self.first[slot] == 0 {
            self.first[slot] = hash;
        } else if self.first[slot] != hash {
            self.diverged += u64::from(n);
            return;
        }
        self.count[slot] += n;
    }

    /// Fold `other` (over the same table) into this tally.
    pub fn merge(&mut self, other: &Tally) {
        for slot in 0..other.first.len() {
            if other.first[slot] != 0 {
                self.note(slot, other.first[slot], other.count[slot]);
            }
        }
        self.diverged += other.diverged;
        self.sent += other.sent;
        self.rejects += other.rejects;
        self.errors += other.errors;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Answers whose fingerprint was recorded (hits and misses).
    pub fn checked(&self) -> u64 {
        self.hits + self.misses
    }

    /// Slots that received at least one answer.
    pub fn answered_slots(&self) -> Vec<u32> {
        (0..self.first.len() as u32)
            .filter(|&s| self.first[s as usize] != 0)
            .collect()
    }

    /// Answers that disagree with `reference` (fingerprint per slot,
    /// 0 where no reference was computed), counting divergent repeats.
    pub fn wrong(&self, reference: &[u64]) -> u64 {
        let mismatched: u64 = (0..self.first.len())
            .filter(|&s| self.first[s] != 0 && self.first[s] != reference[s])
            .map(|s| u64::from(self.count[s]))
            .sum();
        mismatched + self.diverged
    }

    /// Requests that failed: refused, engine errors, wrong answers.
    pub fn failed(&self, reference: &[u64]) -> u64 {
        self.rejects + self.errors + self.wrong(reference)
    }
}

/// One request of a traced open-loop pass, as the client saw it.
#[derive(Clone, Debug)]
pub struct Call {
    /// Send start, ns from the pass start.
    pub send: u64,
    /// Response received, ns from the pass start.
    pub recv: u64,
    /// The response, when the request was admitted.
    pub response: Option<QueryResponse>,
}

/// The timings of an open-loop phase. Every buffer is allocated and
/// written once, when the phase is made, so the generator's memory does
/// not grow (or move between allocator arenas) while the peak RSS is
/// measured.
pub struct Samples {
    /// Send instants of the current window.
    sends: Vec<Duration>,
    /// Receive instants of the current window.
    recvs: Vec<Duration>,
    /// Latency of every request so far from its scheduled send, ms.
    latency_ms: Vec<f32>,
    /// How late each send so far started against its schedule, ms.
    late_ms: Vec<f32>,
    /// Requests recorded so far.
    len: usize,
}

impl Samples {
    /// Room for `total` requests in windows of at most `window`.
    pub fn new(total: usize, window: usize) -> Samples {
        // Filled with a non-zero value so every page is written now.
        Samples {
            sends: vec![Duration::MAX; window],
            recvs: vec![Duration::MAX; window],
            latency_ms: vec![f32::MAX; total],
            late_ms: vec![f32::MAX; total],
            len: 0,
        }
    }

    /// Latencies recorded so far, ms.
    pub fn latency_ms(&self) -> &[f32] {
        &self.latency_ms[..self.len]
    }

    /// Send lateness recorded so far, ms.
    pub fn late_ms(&self) -> &[f32] {
        &self.late_ms[..self.len]
    }

    /// Bytes the buffers hold.
    pub fn held_bytes(&self) -> usize {
        (self.sends.len() + self.recvs.len()) * std::mem::size_of::<Duration>()
            + (self.latency_ms.len() + self.late_ms.len()) * std::mem::size_of::<f32>()
    }
}

/// What one open-loop window measured besides its timings.
pub struct OpenRun {
    /// Per-request records (traced passes only).
    pub calls: Vec<Call>,
    /// The answers.
    pub tally: Tally,
}

/// Wait until `due` after `start`: sleep until shortly before it (a
/// woken sleeper is scheduled promptly even when every core is busy),
/// then spin the last stretch. The sending thread's timer slack is cut
/// to 1 ns ([`tighten_timer_slack`]), so a sleep ends within a few µs and
/// the spin stays short: at tens of thousands of sends a second a longer
/// spin would keep a whole core from the server.
fn pace_until(start: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(15);
    let elapsed = start.elapsed();
    if due > elapsed + SPIN {
        std::thread::sleep(due - elapsed - SPIN);
    }
    while start.elapsed() < due {
        std::hint::spin_loop();
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Ask the kernel to end this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs. Best effort: on failure, or
/// off Linux, sleeps just end later and the lateness is measured.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; no memory is
        // passed to the kernel.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Replay `stream` over one split connection, sending request `i` at
/// `schedule[i]` whatever the state of earlier requests, and append its
/// timings to `samples`. Keeps every response when `traced`, with send
/// and receive times taken from `origin`.
pub fn open_loop(
    addr: SocketAddr,
    table: &[QueryRequest],
    stream: &[u32],
    schedule: &[Duration],
    (traced, origin): (bool, Instant),
    samples: &mut Samples,
) -> OpenRun {
    assert_eq!(stream.len(), schedule.len());
    let n = stream.len();
    let (sends, recvs) = (&mut samples.sends[..n], &mut samples.recvs[..n]);
    let client = NetClient::connect(addr).unwrap_or_else(|e| fatal("connect", e.into()));
    let (mut tx, mut rx) = client.split().unwrap_or_else(|e| fatal("split", e.into()));
    let start = Instant::now();
    let (calls, tally) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            tighten_timer_slack();
            for ((&slot, &due), sent) in stream.iter().zip(schedule).zip(sends.iter_mut()) {
                pace_until(start, due);
                *sent = start.elapsed();
                if let Err(e) = tx.send(&table[slot as usize]) {
                    fatal("send", e);
                }
            }
        });
        let receiver = s.spawn(move || {
            let mut tally = Tally::new(table.len());
            let mut calls = Vec::with_capacity(if traced { stream.len() } else { 0 });
            for (&slot, received) in stream.iter().zip(recvs.iter_mut()) {
                let (_, outcome) = rx.recv().unwrap_or_else(|e| fatal("receive", e));
                let at = start.elapsed();
                *received = at;
                tally.sent += 1;
                tally.record(slot, &outcome);
                if traced {
                    calls.push(Call {
                        send: 0,
                        recv: nanos(at),
                        response: outcome.ok(),
                    });
                }
            }
            (calls, tally)
        });
        sender.join().expect("sender thread panicked");
        receiver.join().expect("receiver thread panicked")
    });
    let ms = |at: Duration, due: Duration| (at.saturating_sub(due).as_secs_f64() * 1e3) as f32;
    let at = samples.len;
    let clocks = samples.recvs.iter().zip(&samples.sends).zip(schedule);
    let out = samples.latency_ms[at..at + n]
        .iter_mut()
        .zip(&mut samples.late_ms[at..at + n]);
    for (((&received, &sent), &due), (latency, late)) in clocks.zip(out) {
        *latency = ms(received, due);
        *late = ms(sent, due);
    }
    samples.len += n;
    let base = nanos(start.duration_since(origin));
    let mut calls = calls;
    for (call, &sent) in calls.iter_mut().zip(&samples.sends) {
        call.send = base + nanos(sent);
        call.recv += base;
    }
    OpenRun { calls, tally }
}

/// What one closed-loop phase measured.
pub struct ClosedRun {
    /// Requests completed per connection.
    pub per_connection: Vec<u64>,
    /// Requests completed.
    pub completed: u64,
    /// Longest connection's busy time.
    pub elapsed: Duration,
    /// The answers.
    pub tally: Tally,
}

impl ClosedRun {
    /// Completed requests per second.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One connection per stream, each sending its next request when the
/// previous answer arrives, until `duration` passes or (when `wraps` is
/// false) its stream ends. Connection `c` starts at `offsets[c]` of its
/// stream.
pub fn closed_loop(
    addr: SocketAddr,
    table: &[QueryRequest],
    streams: &[Vec<u32>],
    offsets: &[usize],
    duration: Duration,
    wraps: bool,
) -> ClosedRun {
    let barrier = Barrier::new(streams.len());
    let runs: Vec<(u64, Duration, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(offsets)
            .map(|(stream, &offset)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client =
                        NetClient::connect(addr).unwrap_or_else(|e| fatal("connect", e.into()));
                    let mut tally = Tally::new(table.len());
                    barrier.wait();
                    let start = Instant::now();
                    let mut i = 0usize;
                    let limit = if wraps {
                        usize::MAX
                    } else {
                        stream.len().saturating_sub(offset)
                    };
                    while !stream.is_empty() && i < limit && start.elapsed() < duration {
                        let slot = stream[(offset + i) % stream.len()];
                        let outcome = client
                            .call(&table[slot as usize])
                            .unwrap_or_else(|e| fatal("call", e));
                        tally.sent += 1;
                        tally.record(slot, &outcome);
                        i += 1;
                    }
                    let elapsed = start.elapsed();
                    let _ = client.goodbye();
                    (i as u64, elapsed, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut tally = Tally::new(table.len());
    let mut elapsed = Duration::ZERO;
    for (_, e, t) in &runs {
        elapsed = elapsed.max(*e);
        tally.merge(t);
    }
    let per_connection: Vec<u64> = runs.iter().map(|r| r.0).collect();
    ClosedRun {
        completed: per_connection.iter().sum(),
        per_connection,
        elapsed,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topk::ActiveSetStats;

    fn result(rank: &[u32], expansions: usize) -> TopKResult {
        TopKResult {
            ranking: rank.iter().map(|&v| rtr_graph::NodeId(v)).collect(),
            bounds: rank.iter().map(|&v| (v as f64, v as f64 + 0.5)).collect(),
            expansions,
            converged: true,
            active: ActiveSetStats::default(),
        }
    }

    #[test]
    fn fingerprint_sees_every_compared_field() {
        let a = result(&[1, 2], 3);
        assert_eq!(result_hash(&a), result_hash(&a.clone()));
        assert_ne!(result_hash(&a), result_hash(&result(&[2, 1], 3)));
        assert_ne!(result_hash(&a), result_hash(&result(&[1, 2], 4)));
        let mut b = a.clone();
        b.bounds[1].1 = f64::from_bits(b.bounds[1].1.to_bits() + 1);
        assert_ne!(result_hash(&a), result_hash(&b));
        b = a.clone();
        b.converged = false;
        assert_ne!(result_hash(&a), result_hash(&b));
    }

    #[test]
    fn wrong_answers_are_counted_per_response() {
        let mut t = Tally::new(3);
        t.note(0, 7, 2);
        t.note(1, 9, 1);
        t.note(1, 5, 1); // diverges from its first answer
        let mut u = Tally::new(3);
        u.note(2, 11, 4);
        t.merge(&u);
        assert_eq!(t.answered_slots(), vec![0, 1, 2]);
        assert_eq!(t.wrong(&[7, 9, 11]), 1);
        assert_eq!(t.wrong(&[7, 8, 11]), 2);
        assert_eq!(t.wrong(&[0, 9, 12]), 7);
    }
}
