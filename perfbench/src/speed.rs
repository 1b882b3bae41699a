//! The host-speed reference: a fixed piece of work that belongs to the
//! benchmark, not to the program, timed next to every measured operation
//! so each time can be scaled to a nominal host speed.
//!
//! On the shared development host the CPU speed a guest gets drifts by
//! up to 1.6× over minutes, in CPU time as well as wall time, while
//! hypervisor steal stays at 0. A register-only loop (the host probe)
//! barely sees that drift; a small Dijkstra over a dense graph held in
//! memory, much like the solvers' own inner loops, tracks it: over eight
//! back-to-back processes the same seed's solve round took 52.7–66.3 ms
//! of CPU time, but 13.6–14.5 times a 40-run batch of this Dijkstra.
//!
//! The reference never changes with the program, so a program that gets
//! slower or faster moves every scaled figure by the same share as the
//! raw one. The raw figures stay in the context line.

use crate::stats::{median, thread_cpu_s, SplitMix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nodes of the reference graph: a complete digraph over random points.
const NODES: usize = 100;
/// Dijkstra sources per batch, and batches per timing (the median
/// batch is reported, so a batch cut by a preemption is left out).
const SOURCES: usize = 8;
const BATCHES: usize = 5;

/// The CPU time of one reference batch on the development host at its
/// usual speed. Scaled times read as on a host where a batch takes this
/// long. Never change it: it rescales every scaled figure.
pub const NOMINAL_MS: f64 = 0.8;

pub struct Reference {
    /// `NODES × NODES` edge weights, row-major.
    weights: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = SplitMix::new(0x5EED);
        let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let points: Vec<(f64, f64)> = (0..NODES)
            .map(|_| (500.0 * unit(), 500.0 * unit()))
            .collect();
        let mut weights = Vec::with_capacity(NODES * NODES);
        for (i, a) in points.iter().enumerate() {
            for (j, b) in points.iter().enumerate() {
                let d2 = (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
                weights.push(d2 + 50.0 * (1 + (i * 7 + j) % 5) as f64);
            }
        }
        Reference { weights }
    }

    /// Shortest-path distances from `source`, summed.
    fn dijkstra(&self, source: usize) -> f64 {
        let mut dist = vec![f64::INFINITY; NODES];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        // Non-negative f64s order like their bit patterns.
        heap.push(Reverse((0.0_f64.to_bits(), source)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue;
            }
            let row = &self.weights[u * NODES..(u + 1) * NODES];
            for (v, w) in row.iter().enumerate() {
                let next = d + w;
                if next < dist[v] {
                    dist[v] = next;
                    heap.push(Reverse((next.to_bits(), v)));
                }
            }
        }
        dist.iter().sum()
    }

    /// CPU milliseconds of one reference batch on this thread, now: the
    /// median of `BATCHES` timed batches.
    pub fn time_ms(&self) -> f64 {
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = thread_cpu_s();
                let total: f64 = (0..SOURCES).map(|s| self.dijkstra(s)).sum();
                std::hint::black_box(total);
                (thread_cpu_s() - start) * 1e3
            })
            .collect();
        median(&batches)
    }
}

/// What a time measured while a reference batch took `reference_ms` is
/// multiplied by to read as on the nominal host.
pub fn factor(reference_ms: f64) -> f64 {
    NOMINAL_MS / reference_ms
}
