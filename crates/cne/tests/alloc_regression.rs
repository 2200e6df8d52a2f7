//! Allocation-count regression test for the warm batch hot path.
//!
//! The contract (ISSUE 3 tentpole, `cne::engine` module docs): after
//! warmup, the inner candidate loop of `estimate_batch` performs **zero
//! heap allocations per candidate** — lean transcript/ledger accounting is
//! pure counter arithmetic, interned labels are never rendered, and any
//! per-candidate packing reuses the worker's scratch arena. The test pins
//! that down with a counting global allocator: the total allocation count
//! of a warm batch call must not depend on the number of candidates.
//!
//! Run in release mode in CI (`cargo test --release -p cne --test
//! alloc_regression`) so the count reflects the optimized hot path.

use bigraph::{BipartiteGraph, Layer};
use cne::batch::BatchSingleSource;
use cne::EstimationEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// How many times [`allocations_during`] repeats each measured call.
const REPEATS: usize = 5;

/// The fewest allocations counted across [`REPEATS`] runs of `f`, plus the
/// last result. The counter is process-wide, so another thread (the
/// serving writer settling in, the test harness) can only *add* to a
/// reading; the minimum is the call's own count once one run goes clean.
fn allocations_during<R>(mut f: impl FnMut() -> R) -> (usize, R) {
    let mut fewest = usize::MAX;
    let mut result = None;
    for _ in 0..REPEATS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let r = f();
        fewest = fewest.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
        result = Some(r);
    }
    (fewest, result.expect("REPEATS > 0"))
}

/// 120 upper vertices over 4 096 items (64 packed words): every candidate
/// has degree 400 > 2·64 = 128, i.e. all of them take the dense packed
/// dispatch — the branch that used to allocate a fresh bitmap per
/// candidate on the uncached path.
fn dense_screening_graph() -> BipartiteGraph {
    const N_ITEMS: u32 = 4_096;
    const DEGREE: u32 = 400;
    let n_upper = 121u32;
    let mut edges = Vec::with_capacity((n_upper * DEGREE) as usize);
    for u in 0..n_upper {
        for k in 0..DEGREE {
            edges.push((u, (u.wrapping_mul(389).wrapping_add(k * 7)) % N_ITEMS));
        }
    }
    BipartiteGraph::from_edges(n_upper as usize, N_ITEMS as usize, edges).expect("valid edges")
}

/// The warm engine: candidates come from the adjacency cache. The count
/// must not depend on the number of candidates, and the per-call constant
/// stays a handful of buffers (noisy list, packed target, report vectors)
/// — catch regressions that stay O(1) but balloon.
fn check_warm_engine(g: &BipartiteGraph, small: &[u32], large: &[u32], threads: &str) {
    let engine = EstimationEngine::new(g);
    engine.warm(Layer::Upper);
    // Warmup: grow the thread-local scratch and any lazy cache slots.
    for _ in 0..2 {
        engine
            .estimate_batch(Layer::Upper, 0, large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch");
    }

    // Identical seeds: round 1 (the only RNG-dependent allocation site)
    // draws the same noisy target list in both runs, so any difference in
    // allocation count is attributable to the per-candidate loop.
    let (allocs_small, report_small) = allocations_during(|| {
        engine
            .estimate_batch(Layer::Upper, 0, small, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    let (allocs_large, report_large) = allocations_during(|| {
        engine
            .estimate_batch(Layer::Upper, 0, large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    assert_eq!(report_small.estimates.len(), small.len());
    assert_eq!(report_large.estimates.len(), large.len());
    assert_eq!(
        allocs_small,
        allocs_large,
        "warm estimate_batch at {threads} thread(s) allocated per candidate: {allocs_small} \
         allocations for {} candidates vs {allocs_large} for {}",
        small.len(),
        large.len()
    );
    assert!(
        allocs_large < 40,
        "warm estimate_batch at {threads} thread(s) should allocate only a few per-call \
         buffers, got {allocs_large}"
    );
}

/// The serving path: pin a snapshot, query through it. The epoch-pinned
/// snapshot must add zero allocations on the warm path: pinning is a slot
/// CAS plus an uncontended read guard, and the query runs the same engine
/// code as [`check_warm_engine`]. A long poll interval parks the writer
/// thread between cycles, but its start-up allocations can still land
/// inside a measured window; the minimum over repeats in
/// `allocations_during` filters them out.
fn check_serving(g: &BipartiteGraph, small: &[u32], large: &[u32], threads: &str) {
    let serving = cne::serving::ServingEngine::with_config(
        g.clone(),
        cne::serving::ServingConfig {
            warm_layer: Some(Layer::Upper),
            poll_interval: std::time::Duration::from_secs(30),
            ..cne::serving::ServingConfig::default()
        },
    );
    for _ in 0..2 {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch");
    }
    let (allocs_pin, _) = allocations_during(|| serving.snapshot());
    assert_eq!(
        allocs_pin, 0,
        "pinning a snapshot must not allocate, got {allocs_pin}"
    );
    let (allocs_small, _) = allocations_during(|| {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, small, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    let (allocs_large, _) = allocations_during(|| {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    assert_eq!(
        allocs_small,
        allocs_large,
        "serving snapshot estimate_batch at {threads} thread(s) allocated per candidate: \
         {allocs_small} for {} vs {allocs_large} for {}",
        small.len(),
        large.len()
    );
    assert!(
        allocs_large < 40,
        "serving snapshot batch at {threads} thread(s) should match the warm engine's \
         per-call constant, got {allocs_large}"
    );
}

/// One test function (not several) so no concurrent test thread can
/// perturb the global allocation counter mid-measurement.
#[test]
fn warm_batch_inner_loop_is_allocation_free_per_candidate() {
    // One thread first: every chunk runs on the calling thread, whose
    // scratch arena persists across calls, which is the steady state a
    // long-lived single-shard service sees. The two-thread leg below
    // repeats the warm and serving paths on the rayon pool, whose workers
    // keep their own arenas warm across calls.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let g = dense_screening_graph();
    let small: Vec<u32> = (1..=30).collect();
    let large: Vec<u32> = (1..=120).collect();
    let algo = BatchSingleSource::default();

    check_warm_engine(&g, &small, &large, "1");

    // --- Uncached path: packing reuses the worker's scratch arena. ------
    for _ in 0..2 {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &large,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch");
    }
    let (allocs_small, _) = allocations_during(|| {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &small,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch")
    });
    let (allocs_large, _) = allocations_during(|| {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &large,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch")
    });
    assert_eq!(
        allocs_small, allocs_large,
        "uncached estimate_batch allocated per candidate: {allocs_small} for 30 vs \
         {allocs_large} for 120"
    );

    check_serving(&g, &small, &large, "1");

    // Two threads, set explicitly so the leg does not depend on the host's
    // core count: the same warm and serving paths on the pool.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    check_warm_engine(&g, &small, &large, "2");
    check_serving(&g, &small, &large, "2");

    std::env::remove_var("RAYON_NUM_THREADS");
}
