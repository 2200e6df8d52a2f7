//! Micro-benchmarks of the substrate primitives: randomized response,
//! Laplace sampling, exact common-neighbor counting, and graph construction.

use bigraph::{common_neighbors, BipartiteGraph, Layer, PackedSet};
use cne::BatchSingleSource;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::generator;
use ldp::budget::PrivacyBudget;
use ldp::laplace::sample_laplace;
use ldp::randomized_response::RandomizedResponse;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Sparse rows (n = 100k, d = 10) where the geometric skip sampler does
/// `O(d + p·n)` work while the dense reference pays for every one of the
/// `n` slots. bench_check gates packed/dense at both budgets.
fn bench_perturb_sparse_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/perturb_sparse_large");
    let n = 100_000usize;
    let truth: Vec<u32> = (0..10u32).map(|i| i * 9_999).collect(); // d = 10
    for eps in [1.0f64, 4.0] {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).expect("valid"));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("packed", eps), &n, |b, &n| {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            let mut scratch = ldp::PerturbScratch::new();
            b.iter(|| {
                criterion::black_box(
                    rr.perturb_neighbor_list_packed(&truth, None, n, &mut rng, &mut scratch)
                        .len(),
                )
            });
        });
        // The engine steady state: the true adjacency is already bit-packed
        // in the adjacency store, so kept bits OR in word-wise.
        let true_packed = PackedSet::from_sorted(&truth, n);
        group.bench_with_input(BenchmarkId::new("packed_cached", eps), &n, |b, &n| {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            let mut scratch = ldp::PerturbScratch::new();
            b.iter(|| {
                criterion::black_box(
                    rr.perturb_neighbor_list_packed(
                        &truth,
                        Some(&true_packed),
                        n,
                        &mut rng,
                        &mut scratch,
                    )
                    .len(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("dense", eps), &n, |b, &n| {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            b.iter(|| {
                criterion::black_box(rr.perturb_neighbor_list_dense(&truth, n, &mut rng).len())
            });
        });
    }
    group.finish();
}

/// Noisy-list intersection at RR densities: sorted merge vs bit-packed
/// popcount (reusing pre-packed operands, the curator-side steady state).
fn bench_packed_vs_merge_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/noisy_intersection");
    let n = 100_000usize;
    let rr = RandomizedResponse::new(PrivacyBudget::new(1.0).expect("valid"));
    let truth_a: Vec<u32> = (0..20u32).map(|i| i * 4_999).collect();
    let truth_b: Vec<u32> = (0..20u32).map(|i| i * 4_999 + 7).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(6);
    let mut scratch = ldp::PerturbScratch::new();
    // Two ε = 1 noisy rows: ~27k entries each over a 100k universe, plus
    // their id lists for the merge and pack legs.
    let pa = rr.perturb_neighbor_list_packed(&truth_a, None, n, &mut rng, &mut scratch);
    let pb = rr.perturb_neighbor_list_packed(&truth_b, None, n, &mut rng, &mut scratch);
    let (a, b) = (pa.to_sorted_ids(), pb.to_sorted_ids());
    group.throughput(Throughput::Elements((a.len() + b.len()) as u64));
    group.bench_function("sorted_merge", |bench| {
        bench.iter(|| criterion::black_box(common_neighbors::intersection_size(&a, &b)));
    });
    // The unrolled 4×u64 kernel behind `intersection_size` ...
    group.bench_function("packed_popcount", |bench| {
        bench.iter(|| criterion::black_box(pa.intersection_size(&pb)));
    });
    // ... against the retained straight-line scalar reference loop.
    group.bench_function("packed_popcount_scalar", |bench| {
        bench.iter(|| {
            criterion::black_box(bigraph::bitset::popcount_and_scalar(
                pa.as_words(),
                pb.as_words(),
            ))
        });
    });
    group.bench_function("pack_then_popcount", |bench| {
        bench.iter(|| {
            let pa = PackedSet::from_sorted(&a, n);
            criterion::black_box(pa.intersection_size(&pb))
        });
    });
    // The allocation-free variant: pack into a reused scratch word buffer.
    group.bench_function("pack_then_popcount_scratch", |bench| {
        let mut scratch = bigraph::bitset::PackScratch::new();
        bench.iter(|| {
            criterion::black_box(bigraph::bitset::intersection_size_degree_aware_into(
                &a,
                &pb,
                &mut scratch,
            ))
        });
    });
    group.finish();
}

/// The parallel batch engine end to end: one target, many candidates, all
/// cores. Deterministic per-user streams keep the output byte-identical to a
/// single-threaded run.
fn bench_batch_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/batch_engine");
    group.sample_size(10);
    let mut rng = ChaCha12Rng::seed_from_u64(8);
    let g = generator::chung_lu_power_law(4_000, 30_000, 120_000, 2.1, &mut rng);
    let candidates: Vec<u32> = (1..2_001u32).collect();
    let algo = BatchSingleSource::default();
    group.throughput(Throughput::Elements(candidates.len() as u64));
    group.bench_function("estimate_batch_2000_candidates", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        b.iter(|| {
            let report = algo
                .estimate_batch(&g, Layer::Upper, 0, &candidates, 2.0, &mut rng)
                .expect("valid batch");
            criterion::black_box(report.estimates.len())
        });
    });
    group.finish();
}

fn bench_laplace(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/laplace");
    group.throughput(Throughput::Elements(1));
    group.bench_function("sample", |b| {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        b.iter(|| criterion::black_box(sample_laplace(1.5, &mut rng)));
    });
    group.finish();
}

/// The runtime-dispatched popcount tiers against the retained scalar
/// reference, at the engine's row width (100k-bit rows = 1563 words), plus
/// the tiled multi-row kernel against four separate dispatched passes.
/// The dispatched/scalar ratio is gated hardware-neutrally in bench_check:
/// whatever tier the CPU selects must never lose to the scalar loop.
fn bench_popcount_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/popcount_kernels");
    let words = 100_000usize.div_ceil(64);
    let mix = |salt: u64, i: u64| {
        let mut z = salt
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let a: Vec<u64> = (0..words as u64).map(|i| mix(11, i)).collect();
    let rows: Vec<Vec<u64>> = (0..4u64)
        .map(|r| (0..words as u64).map(|i| mix(100 + r, i)).collect())
        .collect();
    group.throughput(Throughput::Elements(words as u64));
    group.bench_function("dispatched", |b| {
        b.iter(|| criterion::black_box(bigraph::bitset::popcount_and(&a, &rows[0])));
    });
    group.bench_function("scalar", |b| {
        b.iter(|| criterion::black_box(bigraph::bitset::popcount_and_scalar(&a, &rows[0])));
    });
    let row_refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
    group.throughput(Throughput::Elements(4 * words as u64));
    group.bench_function("multi_4rows", |b| {
        let mut out = [0u64; 4];
        b.iter(|| {
            bigraph::bitset::popcount_and_multi(&a, &row_refs, &mut out);
            criterion::black_box(out[3])
        });
    });
    group.bench_function("per_row_4rows", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for row in &row_refs {
                acc = acc.wrapping_add(bigraph::bitset::popcount_and(&a, row));
            }
            criterion::black_box(acc)
        });
    });
    group.finish();
}

/// Batched per-user stream setup (`StdRng::seed_batch_from_u64`, the
/// interleaved-SplitMix64 path under the fused round 2) against one
/// `seed_from_u64` per user — state-identical, gated in bench_check.
fn bench_rng_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/rng_setup");
    let n = 256usize;
    let seeds: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("batched_256", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            rand::rngs::StdRng::seed_batch_from_u64(&seeds, &mut out);
            criterion::black_box(out.len())
        });
    });
    group.bench_function("scalar_256", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            out.extend(seeds.iter().map(|&s| rand::rngs::StdRng::seed_from_u64(s)));
            criterion::black_box(out.len())
        });
    });
    group.finish();
}

fn bench_exact_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/exact_c2");
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let g = generator::chung_lu_power_law(5_000, 20_000, 100_000, 2.1, &mut rng);
    group.bench_function("count_highest_degree_pair", |b| {
        // Exercise the merge/galloping intersection on the heaviest vertices.
        let mut by_degree: Vec<u32> = (0..g.n_upper() as u32).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(Layer::Upper, v)));
        let (u, w) = (by_degree[0], by_degree[1]);
        b.iter(|| criterion::black_box(common_neighbors::count(&g, Layer::Upper, u, w).unwrap()));
    });
    group.bench_function("jaccard_random_pair", |b| {
        b.iter(|| {
            criterion::black_box(common_neighbors::jaccard(&g, Layer::Upper, 10, 20).unwrap())
        });
    });
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/graph_build");
    group.sample_size(10);
    let mut rng = ChaCha12Rng::seed_from_u64(4);
    let g = generator::uniform_gnm(10_000, 10_000, 200_000, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("csr_build_200k_edges", |b| {
        b.iter(|| {
            criterion::black_box(
                BipartiteGraph::from_edges(10_000, 10_000, edges.iter().copied())
                    .expect("valid edges")
                    .n_edges(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_perturb_sparse_large,
    bench_packed_vs_merge_intersection,
    bench_batch_engine,
    bench_laplace,
    bench_popcount_kernels,
    bench_rng_setup,
    bench_exact_counting,
    bench_graph_build
);
criterion_main!(benches);
