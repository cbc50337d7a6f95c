//! In-memory spans recorded around calls into the program's public
//! surfaces, and the timing [`ParallelAccess`] wrapper that puts a span
//! around every CLI render of the simulator.
//!
//! Spans are only recorded in the benchmark's own code; nothing inside
//! the program is instrumented. They are kept in memory and summarised
//! when the run ends.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mantra_core::aggregate::ParallelAccess;
use mantra_core::CaptureError;
use mantra_net::SimTime;
use mantra_router_cli::TableKind;

use crate::stats::Samples;

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// origin, the span that caused it, the cycle it belongs to, and an item
/// count (bytes for a render).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub cycle: u32,
    pub items: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    /// Opens a span and returns its id; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<usize>, cycle: u32) -> usize {
        let start = self.now();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            cycle,
            items: 0,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize, items: u64) {
        let end = self.now();
        let mut spans = self.spans();
        spans[id].end = end;
        spans[id].items = items;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        cycle: u32,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, parent, cycle);
        let out = f(id);
        self.close(id, 0);
        out
    }

    /// The duration and self time of the spans of the `keep` cycles,
    /// grouped by name and cycle. A span's self time is its duration
    /// minus the part of it that the union of its children's intervals
    /// covers (children may overlap when they run on several threads).
    pub fn layers(&self, keep: &BTreeSet<u32>) -> Layers {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = Layers::new();
        for (i, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| keep.contains(&s.cycle))
        {
            let dur = s.end.saturating_sub(s.start);
            let covered = union_len(&mut children[i], s.start, s.end);
            let e = out.entry(s.name).or_default().entry(s.cycle).or_default();
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
            e.items += s.items;
            e.calls += 1;
        }
        out
    }
}

/// `layer -> cycle -> figures`.
pub type Layers = BTreeMap<&'static str, BTreeMap<u32, LayerCycle>>;

/// One layer's figures within one cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCycle {
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
    pub calls: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-cycle values of one layer as millisecond samples.
pub fn ms_per_cycle(layers: &Layers, name: &str, f: impl Fn(&LayerCycle) -> u64) -> Samples {
    let mut s = Samples::default();
    for c in layers.get(name).into_iter().flat_map(|m| m.values()) {
        s.push(f(c) as f64 / 1e6);
    }
    s
}

/// A layer's per-cycle figure summed over all its cycles.
pub fn sum(layers: &Layers, name: &str, f: impl Fn(&LayerCycle) -> u64) -> u64 {
    layers
        .get(name)
        .into_iter()
        .flat_map(|m| m.values())
        .map(f)
        .sum()
}

/// The simulator behind a span per CLI render: every capture becomes a
/// `router_cli.render` span under the Capture span set in `parent`, with
/// the rendered byte count as its items.
pub struct TimingAccess<'a, P> {
    inner: &'a P,
    pub tracer: &'a Tracer,
    parent: AtomicUsize,
    cycle: AtomicUsize,
}

impl<'a, P> TimingAccess<'a, P> {
    pub fn new(inner: &'a P, tracer: &'a Tracer) -> Self {
        TimingAccess {
            inner,
            tracer,
            parent: AtomicUsize::new(0),
            cycle: AtomicUsize::new(0),
        }
    }

    /// Attributes the following renders to `capture_span` of `cycle`.
    pub fn enter(&self, capture_span: usize, cycle: u32) {
        self.parent.store(capture_span, Ordering::SeqCst);
        self.cycle.store(cycle as usize, Ordering::SeqCst);
    }
}

impl<P: ParallelAccess> ParallelAccess for TimingAccess<'_, P> {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        let parent = self.parent.load(Ordering::SeqCst);
        let cycle = self.cycle.load(Ordering::SeqCst) as u32;
        let id = self.tracer.open("router_cli.render", Some(parent), cycle);
        let out = self.inner.capture(router, table, now);
        let bytes = out.as_ref().map_or(0, |s| s.len() as u64);
        self.tracer.close(id, bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once_toward_self_time() {
        let mut iv = vec![(10, 30), (20, 40), (50, 60), (90, 200)];
        assert_eq!(union_len(&mut iv, 0, 100), 30 + 10 + 10);
    }
}
