//! The mutable-graph benchmark: update-batch splice throughput, precise
//! invalidation + warm re-query, and the byte-capped store under pressure.
//!
//! Workload shape matches `engine_cached_batch` (n = 100 000 items, dense
//! 12 000-degree candidates) so the two groups share a frame of reference:
//! the question here is what *mutation* costs on top of warm serving —
//! splicing a batch into the CSR, dropping exactly the touched bitmaps,
//! and re-packing them on the next query.

use bigraph::{BipartiteGraph, Layer, UpdateBatch};
use cne::engine::EstimationEngine;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_ITEMS: usize = 100_000;
const N_CANDIDATES: u32 = 200;
const CANDIDATE_DEGREE: u32 = 12_000;
const EPSILON: f64 = 2.0;
const SEED: u64 = 0x00CA_C4E6;
const BATCH_EDGES: u32 = 64;

/// Candidates `1..=N_CANDIDATES`, target 0, all with `CANDIDATE_DEGREE`
/// spread-out item neighbors (same coprime-stride shape as
/// `engine_cached_batch`).
fn screening_graph() -> BipartiteGraph {
    let n_upper = (N_CANDIDATES + 1) as usize;
    let mut edges = Vec::with_capacity(n_upper * CANDIDATE_DEGREE as usize);
    for u in 0..n_upper as u32 {
        for k in 0..CANDIDATE_DEGREE {
            edges.push((
                u,
                (u.wrapping_mul(977).wrapping_add(k * 19)) % N_ITEMS as u32,
            ));
        }
    }
    BipartiteGraph::from_edges(n_upper, N_ITEMS, edges).expect("valid edges")
}

/// A batch of `BATCH_EDGES` edge toggles touching `spread` distinct
/// candidates, phase-shifted by `round` so repeated application keeps
/// toggling different edges.
fn update_batch(round: u32, spread: u32) -> UpdateBatch {
    let mut batch = UpdateBatch::with_capacity(BATCH_EDGES as usize);
    for k in 0..BATCH_EDGES {
        let u = 1 + (k % spread);
        let v = (u
            .wrapping_mul(977)
            .wrapping_add((round * BATCH_EDGES + k) * 37))
            % N_ITEMS as u32;
        // Alternate adds and removes; either direction is a single splice.
        if k % 2 == 0 {
            batch.add_edge(u, v);
        } else {
            batch.remove_edge(u, v);
        }
    }
    batch
}

fn bench_streaming_updates(c: &mut Criterion) {
    // Single-threaded for the same reason as engine_cached_batch: the
    // numbers should isolate splice/invalidation cost, not parallelism.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let candidates: Vec<u32> = (1..=N_CANDIDATES).collect();

    let mut group = c.benchmark_group("micro/streaming_updates");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(BATCH_EDGES)));

    // The raw splice: a 64-edge batch into the 2.4M-edge CSR.
    group.bench_function("apply_batch_64_edges", |b| {
        let mut engine = EstimationEngine::from_graph(screening_graph());
        let mut round = 0u32;
        b.iter(|| {
            let applied = engine
                .apply_updates(&update_batch(round, 8))
                .expect("valid batch");
            round = round.wrapping_add(1);
            criterion::black_box(applied.edges_added + applied.edges_removed)
        });
    });

    // The yardstick for the splice: a full copy of the same graph. The
    // in-place splice moves the adjacency past the first touched vertex
    // once; a splice that rebuilt the arrays would cost more than this.
    group.bench_function("clone_graph", |b| {
        let graph = screening_graph();
        b.iter(|| criterion::black_box(graph.clone()).n_edges());
    });

    // Splice + invalidation + warm re-query: the full between-rounds cycle
    // of a streaming service. Only 8 of 200 candidates are touched per
    // batch, so precise invalidation keeps 96% of the cache warm.
    group.throughput(Throughput::Elements(u64::from(N_CANDIDATES)));
    group.bench_function("update_then_requery_warm", |b| {
        let mut engine = EstimationEngine::from_graph(screening_graph());
        engine.warm(Layer::Upper);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut round = 0u32;
        b.iter(|| {
            engine
                .apply_updates(&update_batch(round, 8))
                .expect("valid batch");
            round = round.wrapping_add(1);
            let report = engine
                .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });

    // The same cycle on a byte-capped store sized for half the dense
    // candidates: admission declines + LRU maintenance in the loop.
    group.bench_function("update_then_requery_capped", |b| {
        let words_bytes = N_ITEMS.div_ceil(64) * 8;
        let cap = words_bytes * (N_CANDIDATES as usize / 2);
        let mut engine = EstimationEngine::from_graph_with_cache_budget(screening_graph(), cap);
        engine.warm(Layer::Upper);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut round = 0u32;
        b.iter(|| {
            engine
                .apply_updates(&update_batch(round, 8))
                .expect("valid batch");
            round = round.wrapping_add(1);
            let report = engine
                .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_streaming_updates);
criterion_main!(benches);
