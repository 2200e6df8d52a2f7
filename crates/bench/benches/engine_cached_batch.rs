//! The persistent-engine cache benchmark: cold vs warm [`AdjacencyStore`],
//! single- vs multi-target, against the uncached legacy batch path.
//!
//! Workload: a dense screening pool over an `n = 100_000`-item layer — 200
//! candidates of degree 12 000, i.e. every candidate is far past the packed
//! dispatch threshold (`degree > 2 · ⌈n/64⌉ ≈ 3 126`). On this shape the
//! uncached path re-packs every candidate's adjacency into a fresh
//! 1 563-word bitmap on **every** query, while the warm engine packs each
//! candidate once per graph and then runs pure popcount intersections.
//!
//! Acceptance bar (recorded in `BENCH_micro.json`): the warm multi-target
//! engine must be ≥ 2× faster than the uncached path on this workload.

use bigraph::{BipartiteGraph, Layer};
use cne::batch::BatchSingleSource;
use cne::engine::{EstimationEngine, RoundContext};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_ITEMS: usize = 100_000;
const N_CANDIDATES: u32 = 200;
const N_TARGETS: u32 = 4;
const CANDIDATE_DEGREE: u32 = 12_000;
const EPSILON: f64 = 2.0;
const SEED: u64 = 0x00CA_C4E5;

/// Targets `0..N_TARGETS`, candidates `N_TARGETS..N_TARGETS+N_CANDIDATES`,
/// every vertex with `CANDIDATE_DEGREE` spread-out item neighbors.
fn screening_graph() -> BipartiteGraph {
    let n_upper = (N_TARGETS + N_CANDIDATES) as usize;
    let mut edges = Vec::with_capacity(n_upper * CANDIDATE_DEGREE as usize);
    for u in 0..n_upper as u32 {
        for k in 0..CANDIDATE_DEGREE {
            // A coprime stride keeps neighborhoods overlapping but distinct.
            edges.push((
                u,
                (u.wrapping_mul(977).wrapping_add(k * 19)) % N_ITEMS as u32,
            ));
        }
    }
    BipartiteGraph::from_edges(n_upper, N_ITEMS, edges).expect("valid edges")
}

fn bench_engine_cached_batch(c: &mut Criterion) {
    // Pin every fan-out to one worker: `estimate_many_targets` parallelizes
    // over targets while the uncached reference loops them sequentially, so
    // on a multicore machine rayon alone could fake the ≥2× acceptance
    // ratio with a stone-cold cache. Single-threaded, the warm-vs-uncached
    // comparison measures exactly the adjacency-cache reuse.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let g = screening_graph();
    let candidates: Vec<u32> = (N_TARGETS..N_TARGETS + N_CANDIDATES).collect();
    let targets: Vec<u32> = (0..N_TARGETS).collect();
    let algo = BatchSingleSource::default();

    let mut group = c.benchmark_group("micro/engine_cached_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(N_CANDIDATES)));

    // Legacy path: every call re-packs every dense candidate's adjacency.
    group.bench_function("uncached_single_target", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let report = algo
                .estimate_batch(&g, Layer::Upper, 0, &candidates, EPSILON, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });

    // Cold engine: the store is rebuilt from scratch every call, so this
    // pays the cache-fill cost inside the measurement window.
    group.bench_function("cold_single_target", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let engine = EstimationEngine::new(&g);
            let report = engine
                .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });

    // Warm engine: the steady state of a long-lived service.
    let engine = EstimationEngine::new(&g);
    engine.warm(Layer::Upper);
    group.bench_function("warm_single_target", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let report = engine
                .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });

    group.throughput(Throughput::Elements(u64::from(N_CANDIDATES * N_TARGETS)));
    group.bench_function("uncached_multi_target", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let mut total = 0usize;
            for &t in &targets {
                let report = algo
                    .estimate_batch(&g, Layer::Upper, t, &candidates, EPSILON, &mut rng)
                    .expect("valid batch");
                total += report.estimates.len();
            }
            criterion::black_box(total)
        });
    });

    group.bench_function("warm_multi_target", |b| {
        b.iter(|| {
            let reports = engine
                .estimate_many_targets(Layer::Upper, &targets, &candidates, EPSILON, SEED)
                .expect("valid sharded batch");
            criterion::black_box(reports.iter().map(|r| r.estimates.len()).sum::<usize>())
        });
    });

    group.finish();

    // Lean (default) vs detailed recording on the identical warm workload:
    // the cost of retaining the per-message log and per-charge ledger,
    // i.e. exactly the overhead the lean transcript removes from the hot
    // path. Both runs produce byte-identical estimates and aggregates.
    let mut group = c.benchmark_group("micro/transcript_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(N_CANDIDATES)));
    group.bench_function("warm_single_lean", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let ctx = RoundContext::begin(EPSILON, &mut rng).expect("valid budget");
            let report = algo
                .estimate_batch_in(engine.env(), Layer::Upper, 0, &candidates, ctx)
                .expect("valid batch");
            criterion::black_box(report.transcript.total_bytes())
        });
    });
    group.bench_function("warm_single_detailed", |b| {
        let mut rng = StdRng::seed_from_u64(SEED);
        b.iter(|| {
            let ctx = RoundContext::begin_detailed(EPSILON, &mut rng).expect("valid budget");
            let report = algo
                .estimate_batch_in(engine.env(), Layer::Upper, 0, &candidates, ctx)
                .expect("valid batch");
            criterion::black_box(report.transcript.messages().len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine_cached_batch);
criterion_main!(benches);
