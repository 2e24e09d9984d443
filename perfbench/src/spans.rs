//! In-memory spans of the traced pass.
//!
//! Each span is one call into a layer's public function, made or observed
//! by the benchmark: the client's round trip, the server-reported queue
//! and compute intervals inside it, direct engine runs and standalone
//! cache operations. Spans of one request share its id. A span's self
//! time is its duration minus the part of its interval that its children
//! cover, with every child clipped to the parent's interval first.

use std::io::Write;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `NetClient` send to matching receive (the client's call).
    NetCall,
    /// Server-reported wait between submit and the start of compute.
    ServeQueue,
    /// Server-reported compute (a cache hit included).
    ServeCompute,
    /// `ResolvedRequest::run` on a bound (2SBound / 2SBound+) path.
    TopkRun,
    /// `ResolvedRequest::run` on an exact-iteration path.
    CoreRun,
    /// `ShardedCache::get`.
    CacheGet,
    /// `ShardedCache::insert`.
    CacheInsert,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::NetCall => "net.call",
            Layer::ServeQueue => "serve.queue",
            Layer::ServeCompute => "serve.compute",
            Layer::TopkRun => "topk.run",
            Layer::CoreRun => "core.run",
            Layer::CacheGet => "cache.get",
            Layer::CacheInsert => "cache.insert",
        }
    }
}

/// One recorded span; times are nanoseconds from the start of its pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Id of the request the span belongs to.
    pub request: u32,
    /// Index of the parent span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// Layer boundary.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans of one traced pass, in recording order.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Record a span and return its index (for children to name).
    pub fn push(
        &mut self,
        request: u32,
        parent: Option<usize>,
        layer: Layer,
        start: u64,
        end: u64,
    ) -> usize {
        debug_assert!(end >= start);
        self.spans.push(Span {
            request,
            parent,
            layer,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Every span of `layer`.
    pub fn of(&self, layer: Layer) -> impl Iterator<Item = (usize, &Span)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.layer == layer)
    }

    /// Self time in ns of every span of `layer`, in recording order.
    pub fn self_times(&self, layer: Layer) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.of(layer)
            .map(|(i, s)| self_time((s.start, s.end), &children[i]))
            .collect()
    }

    /// Write the spans as tab-separated lines.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "span\trequest\tparent\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.request,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// `parent`'s duration minus the length of the union of `children`, each
/// clipped to `parent` first. Never negative, never above the duration.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inside_the_parent_are_subtracted() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // A child that starts before and ends after the parent covers it all.
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
        // Only the overlap counts.
        assert_eq!(self_time((10, 20), &[(5, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(18, 40)]), 8);
        // Entirely outside: nothing.
        assert_eq!(self_time((10, 20), &[(0, 10), (20, 30)]), 10);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 60), (45, 55)]), 50);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let mut spans = Spans::default();
        let call = spans.push(0, None, Layer::NetCall, 0, 100);
        spans.push(0, Some(call), Layer::ServeQueue, 40, 60);
        spans.push(0, Some(call), Layer::ServeCompute, 60, 130);
        let other = spans.push(1, None, Layer::NetCall, 200, 210);
        assert_eq!(spans.self_times(Layer::NetCall), vec![40, 10]);
        assert_eq!(spans.self_times(Layer::ServeCompute), vec![70]);
        let mut tsv = Vec::new();
        spans.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 5);
        assert_eq!(
            spans.of(Layer::NetCall).map(|(i, _)| i).collect::<Vec<_>>(),
            vec![call, other]
        );
    }
}
