//! Per-layer metrics from a traced pass: spans around the client's calls
//! with the server-reported queue and compute intervals as children, then
//! an in-process replay of the same request stream through the layers'
//! public functions — `ShardedCache::get`/`insert` on a standalone cache,
//! `ResolvedRequest::run` on every miss, and the wire codec.

use crate::alloc::thread_allocations;
use crate::drive::{result_hash, Call};
use crate::report::Values;
use crate::spans::{Layer, Spans};
use crate::stats::{mean, percentile, sorted};
use bytes::BytesMut;
use rtr_cache::{CacheConfig, ResultCache};
use rtr_core::Measure;
use rtr_graph::Graph;
use rtr_net::{decode_request, decode_response, encode_request, encode_response, HEADER_LEN};
use rtr_serve::{QueryRequest, ServeConfig, ServeWorkspace};
use rtr_topk::{ActiveSetStats, TopKResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `bp` of `values` in the unit they carry; 0
/// for an empty sample (a layer the pass never entered).
fn pct(values: &[f64], bp: u32) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values.to_vec()), bp).value
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Record the client-side spans of a traced pass and set the `net.*`
/// call metrics and the `serve.*` metrics.
pub fn wire_spans(calls: &[Call], spans: &mut Spans, values: &mut Values) {
    for (id, call) in calls.iter().enumerate() {
        let id = id as u32;
        let parent = spans.push(
            id,
            None,
            Layer::NetCall,
            call.send,
            call.recv.max(call.send),
        );
        if let Some(r) = &call.response {
            let compute = r.compute.as_nanos() as u64;
            let queue = r.queue_wait.as_nanos() as u64;
            let compute_start = call.recv.saturating_sub(compute);
            spans.push(
                id,
                Some(parent),
                Layer::ServeQueue,
                compute_start.saturating_sub(queue),
                compute_start,
            );
            spans.push(
                id,
                Some(parent),
                Layer::ServeCompute,
                compute_start,
                call.recv,
            );
        }
    }
    let call_ms: Vec<f64> = spans
        .of(Layer::NetCall)
        .map(|(_, s)| ms(s.duration()))
        .collect();
    let self_ms: Vec<f64> = spans
        .self_times(Layer::NetCall)
        .into_iter()
        .map(ms)
        .collect();
    let responses: Vec<_> = calls.iter().filter_map(|c| c.response.as_ref()).collect();
    let queue_ms: Vec<f64> = responses
        .iter()
        .map(|r| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let compute_ms: Vec<f64> = responses
        .iter()
        .map(|r| r.compute.as_secs_f64() * 1e3)
        .collect();
    let fast = responses.iter().filter(|r| r.worker.is_none()).count();
    values.set("net.call_ms.p50", pct(&call_ms, 5000));
    values.set("net.call_ms.p99", pct(&call_ms, 9900));
    values.set("net.self_ms.p50", pct(&self_ms, 5000));
    values.set("net.self_ms.p99", pct(&self_ms, 9900));
    values.set("net.rejects", (calls.len() - responses.len()) as f64);
    values.set("serve.queue_ms.p50", pct(&queue_ms, 5000));
    values.set("serve.queue_ms.p99", pct(&queue_ms, 9900));
    values.set("serve.compute_ms.p50", pct(&compute_ms, 5000));
    values.set("serve.compute_ms.p99", pct(&compute_ms, 9900));
    values.set(
        "serve.fast_path_frac",
        fast as f64 / responses.len().max(1) as f64,
    );
    values.set(
        "serve.errors",
        responses.iter().filter(|r| r.result.is_err()).count() as f64,
    );
}

/// Frame sizes and codec cost of the traced pass's requests and responses.
pub fn codec(table: &[QueryRequest], stream: &[u32], calls: &[Call], values: &mut Values) {
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for (&slot, call) in stream.iter().zip(calls) {
        let Some(response) = &call.response else {
            continue;
        };
        let request = &table[slot as usize];
        let mut req = BytesMut::new();
        let mut resp = BytesMut::new();
        let t0 = Instant::now();
        encode_request(request, &mut req);
        encode_response(response, &mut resp);
        let t1 = Instant::now();
        let req_back = decode_request(req.as_slice());
        let resp_back = decode_response(resp.as_slice());
        let t2 = Instant::now();
        assert!(
            req_back.is_ok() && resp_back.is_ok(),
            "codec round trip failed"
        );
        req_bytes.push((HEADER_LEN + req.len()) as f64);
        resp_bytes.push((HEADER_LEN + resp.len()) as f64);
        encode_us.push((t1 - t0).as_secs_f64() * 1e6);
        decode_us.push((t2 - t1).as_secs_f64() * 1e6);
    }
    values.set("net.req_bytes", mean(&req_bytes));
    values.set("net.resp_bytes", mean(&resp_bytes));
    values.set("net.encode_us", pct(&encode_us, 5000));
    values.set("net.decode_us", pct(&decode_us, 5000));
}

/// Whether a result came from a bound engine (2SBound / 2SBound+): the
/// exact engines return an empty active set, so the answer itself says
/// which path `ResolvedRequest::run` took.
fn bound_path(result: &TopKResult) -> bool {
    result.active != ActiveSetStats::default()
}

/// Per-call work of one engine path.
#[derive(Default)]
struct PathStats {
    run_ms: Vec<f64>,
    expansions: Vec<f64>,
    active_nodes: Vec<f64>,
    active_edges: Vec<f64>,
    nonconverged: usize,
    allocs: Vec<f64>,
}

/// Replay the cache-key stream against a standalone cache of the engine's
/// size, segment by segment in the order the server saw them. In an
/// untimed segment a miss inserts the reference answer; in a timed one
/// (the traced pass) every request is a timed `get`, and a miss a timed
/// `ResolvedRequest::run` and `insert`. Timed requests are numbered in
/// order, as the traced calls are. Returns the number of direct runs
/// whose answer differed from the reference.
pub fn replay(
    g: &Graph,
    config: &ServeConfig,
    table: &[QueryRequest],
    segments: &[(&[u32], bool)],
    reference: &[Option<Arc<TopKResult>>],
    spans: &mut Spans,
    values: &mut Values,
) -> u64 {
    let cache = ResultCache::new(CacheConfig {
        capacity: config.cache_capacity,
        shards: config.cache_shards,
    });
    let resolved: Vec<_> = table.iter().map(|r| r.resolve(config)).collect();
    let mut ws = ServeWorkspace::new();
    let mut topk = PathStats::default();
    let mut core = PathStats::default();
    let mut iterations = Vec::new();
    let mut wrong = 0;
    let mut id = 0u32;
    let origin = Instant::now();
    let ns = |t: Instant| (t - origin).as_nanos() as u64;
    for &(slots, timed) in segments {
        for &slot in slots {
            let request = &resolved[slot as usize];
            let want = reference[slot as usize].as_ref();
            let k = request.cache_key(g.epoch());
            if !timed {
                if cache.get(&k).is_none() {
                    if let Some(answer) = want {
                        cache.insert(k, Arc::clone(answer));
                    }
                }
                continue;
            }
            let t0 = Instant::now();
            let hit = cache.get(&k);
            let t1 = Instant::now();
            spans.push(id, None, Layer::CacheGet, ns(t0), ns(t1));
            id += 1;
            if hit.is_some() {
                continue;
            }
            let allocs = thread_allocations();
            let t2 = Instant::now();
            let result = request.run(g, &mut ws);
            let t3 = Instant::now();
            let allocs = thread_allocations() - allocs;
            let Ok(result) = result else {
                wrong += 1;
                continue;
            };
            let bound = bound_path(&result);
            let layer = if bound {
                Layer::TopkRun
            } else {
                Layer::CoreRun
            };
            spans.push(id - 1, None, layer, ns(t2), ns(t3));
            if want.map(|w| result_hash(w)) != Some(result_hash(&result)) {
                wrong += 1;
            }
            let path = if bound { &mut topk } else { &mut core };
            path.run_ms.push((t3 - t2).as_secs_f64() * 1e3);
            path.expansions.push(result.expansions as f64);
            path.active_nodes.push(result.active.active_nodes as f64);
            path.active_edges.push(result.active.active_edges as f64);
            path.nonconverged += usize::from(!result.converged);
            path.allocs.push(allocs as f64);
            if matches!(request.measure, Measure::F | Measure::T) {
                iterations.push(result.expansions as f64);
            }
            let t4 = Instant::now();
            cache.insert(k, Arc::new(result));
            let t5 = Instant::now();
            spans.push(id - 1, None, Layer::CacheInsert, ns(t4), ns(t5));
        }
    }
    let op_ns = |layer| {
        let v: Vec<f64> = spans.of(layer).map(|(_, s)| s.duration() as f64).collect();
        pct(&v, 5000)
    };
    values.set("cache.get_ns", op_ns(Layer::CacheGet));
    values.set("cache.insert_ns", op_ns(Layer::CacheInsert));
    values.set("topk.calls", topk.run_ms.len() as f64);
    values.set("topk.run_ms.p50", pct(&topk.run_ms, 5000));
    values.set("topk.run_ms.p99", pct(&topk.run_ms, 9900));
    values.set("topk.expansions", mean(&topk.expansions));
    values.set("topk.active_nodes", mean(&topk.active_nodes));
    values.set("topk.active_edges", mean(&topk.active_edges));
    values.set("topk.nonconverged", topk.nonconverged as f64);
    values.set("topk.allocs", mean(&topk.allocs));
    values.set("core.calls", core.run_ms.len() as f64);
    values.set("core.run_ms.p50", pct(&core.run_ms, 5000));
    values.set("core.run_ms.p99", pct(&core.run_ms, 9900));
    values.set("core.iterations", mean(&iterations));
    values.set("core.allocs", mean(&core.allocs));
    wrong
}

/// Sum of a span layer's durations, for the human summary.
pub fn layer_total(spans: &Spans, layer: Layer) -> Duration {
    Duration::from_nanos(spans.of(layer).map(|(_, s)| s.duration()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_is_read_from_the_result() {
        let mut result = TopKResult {
            ranking: Vec::new(),
            bounds: Vec::new(),
            expansions: 3,
            converged: true,
            active: ActiveSetStats::default(),
        };
        assert!(!bound_path(&result), "exact engines report no active set");
        result.active.active_nodes = 1;
        assert!(bound_path(&result));
    }
}
