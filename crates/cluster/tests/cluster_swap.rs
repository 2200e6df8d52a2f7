//! Swap-correctness suite for the multi-process sharded serving tier
//! (ISSUE 8 tentpole): reports concatenated across **real spawned worker
//! processes** must be byte-identical — estimates, budget ledger, and
//! transcript — to a single unsharded engine over the same graph state,
//! for arbitrary contiguous vertex-range partitions into 1/2/4 shards,
//! before and after a replicated update stream. Plus the robustness
//! contract: killing a worker turns the next fan-out into a typed
//! partial-result error within the coordinator's timeout budget, never a
//! hang.
//!
//! The suite runs under the `RAYON_NUM_THREADS=1/4/8` determinism matrix
//! and the `CNE_FORCE_PORTABLE_KERNELS=1` leg in CI — worker processes
//! inherit both variables, so the cross-process comparison also pins
//! thread-count and kernel-dispatch independence across the process
//! boundary.

use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, GraphDelta, Layer};
use cluster::{ClusterConfig, ClusterError, Coordinator};
use cne::EstimationEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const N_UPPER: usize = 12;
const N_LOWER: usize = 96; // ≥ 64 so some vertices cross the dense threshold
const EPSILON: f64 = 2.0;

/// Same base graph as `cne`'s serving suite: dense enough that several
/// upper vertices take the packed (cache-hitting) dispatch.
fn base_graph() -> BipartiteGraph {
    let mut edges = Vec::new();
    for u in 0..N_UPPER as u32 {
        let degree = 3 + (u * 7) % 40;
        for k in 0..degree {
            edges.push((u, (u * 31 + k * 5) % N_LOWER as u32));
        }
    }
    BipartiteGraph::from_edges(N_UPPER, N_LOWER, edges).unwrap()
}

/// A fresh socket directory per coordinator, so parallel tests never
/// collide on socket paths.
fn socket_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cne-cluster-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_shard-worker"))
}

/// An even `n`-way cluster over `graph`, spawned from its sequence-0
/// snapshot with the `shard-worker` binary.
fn spawn_even(graph: &BipartiteGraph, n: usize, dir: &Path, config: ClusterConfig) -> Coordinator {
    Coordinator::spawn_program_from_snapshot(
        &GraphSnapshot::capture(graph, 0),
        Layer::Upper,
        n,
        dir,
        config,
        &worker_bin(),
    )
    .unwrap()
}

/// A random contiguous partition of the upper layer into `shards` ranges
/// (cut points drawn from `rng`), honoring the cover contract.
fn random_partition(rng: &mut StdRng, shards: usize) -> Vec<std::ops::Range<u32>> {
    let mut cuts: Vec<u32> = Vec::new();
    while cuts.len() < shards - 1 {
        let c = rng.gen_range(0..=N_UPPER as u32);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0u32;
    for c in cuts {
        ranges.push(lo..c);
        lo = c;
    }
    ranges.push(lo..u32::MAX);
    ranges
}

/// A deterministic mixed update stream: edge churn on both existing and
/// freshly appended vertices, exercising the broadcast (`AddVertex`) and
/// routed (edge) replication paths together.
fn update_stream(seed: u64) -> Vec<GraphDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n_upper = N_UPPER as u32;
    let mut n_lower = N_LOWER as u32;
    let mut stream = Vec::new();
    for i in 0..400 {
        match i % 10 {
            0 => {
                stream.push(GraphDelta::AddVertex {
                    layer: Layer::Upper,
                });
                n_upper += 1;
            }
            5 => {
                stream.push(GraphDelta::AddVertex {
                    layer: Layer::Lower,
                });
                n_lower += 1;
            }
            _ => {
                let upper = rng.gen_range(0..n_upper);
                let lower = rng.gen_range(0..n_lower);
                if rng.gen_range(0..4) < 3 {
                    stream.push(GraphDelta::AddEdge { upper, lower });
                } else {
                    stream.push(GraphDelta::RemoveEdge { upper, lower });
                }
            }
        }
    }
    stream
}

/// Full-precision fingerprint comparison of two batch reports: estimate
/// bits, budget ledger, transcript, and the serialized form.
fn assert_reports_identical(sharded: &cne::BatchReport, reference: &cne::BatchReport) {
    let bits = |r: &cne::BatchReport| -> Vec<u64> {
        r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
    };
    assert_eq!(bits(sharded), bits(reference));
    assert_eq!(sharded.budget, reference.budget);
    assert_eq!(sharded.transcript, reference.transcript);
    assert_eq!(
        serde_json::to_string(sharded).unwrap(),
        serde_json::to_string(reference).unwrap()
    );
}

/// The headline contract: for random 1/2/4-shard partitions, reports
/// concatenated across worker processes equal an unsharded engine's byte
/// for byte — at the bootstrap state AND after a replicated update
/// stream with vertex growth.
#[test]
fn sharded_reports_match_unsharded_engine_byte_for_byte() {
    let graph = base_graph();
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let mut partition_rng = StdRng::seed_from_u64(0xC1A5);
    for shards in [1usize, 2, 4] {
        let ranges = random_partition(&mut partition_rng, shards);
        let dir = socket_dir(&format!("swap{shards}"));
        let mut coordinator = Coordinator::spawn_partitioned_from_snapshot(
            &snapshot,
            Layer::Upper,
            ranges.clone(),
            &dir,
            ClusterConfig::default(),
            |spec| cluster::worker_command(&worker_bin(), spec).spawn(),
        )
        .unwrap_or_else(|e| panic!("spawn {shards} shards {ranges:?}: {e}"));

        // Reference: one unsharded engine over the identical state.
        let mut reference = EstimationEngine::from_graph(graph.clone());

        for (target, seed) in [(0u32, 7u64), (3, 8), (9, 9)] {
            let candidates: Vec<u32> = (0..N_UPPER as u32).filter(|&w| w != target).collect();
            let from_cluster = coordinator
                .estimate_batch(Layer::Upper, target, &candidates, EPSILON, seed)
                .unwrap();
            let from_engine = reference
                .estimate_batch(
                    Layer::Upper,
                    target,
                    &candidates,
                    EPSILON,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            assert_reports_identical(&from_cluster, &from_engine);
        }

        // Replicate a mixed update stream (routed edges + broadcast
        // vertex growth) and re-compare on the post-update state.
        let stream = update_stream(41);
        coordinator.extend(stream.iter().copied());
        coordinator.flush().unwrap();
        let batch: bigraph::UpdateBatch = stream.into_iter().collect();
        reference.apply_updates(&batch).unwrap();

        // Candidates include a vertex appended by the stream (owned by
        // the open-ended last range on every partition).
        let grown = reference.graph().n_upper() as u32 - 1;
        for (target, seed) in [(0u32, 17u64), (grown, 23)] {
            let candidates: Vec<u32> = (0..N_UPPER as u32)
                .chain([grown])
                .filter(|&w| w != target)
                .collect();
            let from_cluster = coordinator
                .estimate_batch(Layer::Upper, target, &candidates[..], EPSILON, seed)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let from_engine = reference
                .estimate_batch(Layer::Upper, target, &candidates[..], EPSILON, &mut rng)
                .unwrap();
            assert_reports_identical(&from_cluster, &from_engine);
        }
        // Sanity on the roll-up while everything is still healthy.
        let stats = coordinator.stats();
        assert_eq!(stats.healthy_workers, shards);
        assert_eq!(stats.max_ingest_lag, 0, "flush drained every worker");
        drop(coordinator);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Worker-reported query errors surface as typed remote errors, not
/// protocol failures: validation runs on the shard that owns the target.
#[test]
fn invalid_queries_surface_as_remote_errors() {
    let graph = base_graph();
    let dir = socket_dir("invalid");
    let mut coordinator = spawn_even(&graph, 2, &dir, ClusterConfig::default());
    // Duplicate candidate: rejected by round-1 validation on the owner.
    let err = coordinator
        .estimate_batch(Layer::Upper, 0, &[1, 2, 1], EPSILON, 5)
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Remote { code: 2, .. }),
        "got {err:?}"
    );
    // Wrong layer: rejected coordinator-side before any fan-out.
    let err = coordinator
        .estimate_batch(Layer::Lower, 0, &[1, 2], EPSILON, 5)
        .unwrap_err();
    assert!(matches!(err, ClusterError::Query(_)), "got {err:?}");
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing a worker must convert the next fan-out touching its shard
/// into [`ClusterError::PartialResult`] naming the dead worker, within
/// the coordinator's (short) timeout budget — never a hang.
#[test]
fn killed_worker_yields_typed_partial_result_within_timeout() {
    let graph = base_graph();
    let dir = socket_dir("kill");
    let config = ClusterConfig {
        retry: cluster::RetryPolicy {
            connect_timeout: Duration::from_millis(400),
            backoff_base: Duration::from_millis(10),
            io_timeout: Duration::from_millis(1500),
            ..cluster::RetryPolicy::baseline()
        },
        ..ClusterConfig::default()
    };
    let mut coordinator = spawn_even(&graph, 2, &dir, config);
    let candidates: Vec<u32> = (1..N_UPPER as u32).collect();
    // Healthy first: both shards answer.
    coordinator
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 1)
        .unwrap();

    coordinator.kill_worker(1).unwrap();

    // Target owned by worker 0 (alive) ⇒ round 1 succeeds, round 2 is
    // missing worker 1's slice.
    let start = Instant::now();
    let err = coordinator
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 2)
        .unwrap_err();
    let elapsed = start.elapsed();
    match err {
        ClusterError::PartialResult { missing, context } => {
            assert_eq!(missing, vec![1]);
            assert_eq!(context, "round 2");
        }
        other => panic!("expected PartialResult, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "partial-result error took {elapsed:?}, coordinator hung past its timeouts"
    );

    // Target owned by the dead worker ⇒ round 1 itself reports partial.
    let dead_target = (N_UPPER - 1) as u32;
    let err = coordinator
        .estimate_batch(Layer::Upper, dead_target, &[0, 1], EPSILON, 3)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::PartialResult { ref missing, context: "round 1" } if missing == &[1]
        ),
        "got {err:?}"
    );

    // The roll-up reports the dead worker unhealthy instead of failing.
    let stats = coordinator.stats();
    assert_eq!(stats.healthy_workers, 1);
    assert!(!stats.workers[1].healthy);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery contract: a cluster rebuilds a killed worker from its
/// shard snapshot — respawn, snapshot re-bootstrap, drained-tail replay
/// (non-idempotent `AddVertex` included), flush — and both pre-kill and
/// post-recovery reports stay byte-identical to an unsharded engine over
/// the same stream.
#[test]
fn killed_worker_is_rebuilt_from_snapshot_with_byte_identical_reports() {
    let graph = base_graph();
    let dir = socket_dir("supervise");
    let mut coordinator = spawn_even(&graph, 3, &dir, ClusterConfig::default());
    let mut reference = EstimationEngine::from_graph(graph.clone());

    // Snapshot bootstrap itself must be invisible to the protocol.
    let candidates: Vec<u32> = (1..N_UPPER as u32).collect();
    let from_cluster = coordinator
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 3)
        .unwrap();
    let from_engine = reference
        .estimate_batch(
            Layer::Upper,
            0,
            &candidates,
            EPSILON,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
    assert_reports_identical(&from_cluster, &from_engine);

    // Replicate and drain a stream prefix, so the rebuild has a real
    // retained tail to replay on top of the sequence-0 snapshot.
    let stream = update_stream(77);
    let (head, rest) = stream.split_at(300);
    coordinator.extend(head.iter().copied());
    coordinator.flush().unwrap();

    // Kill the middle worker; one supervision pass must rebuild exactly
    // it, and a second pass must find nothing to do.
    coordinator.kill_worker(1).unwrap();
    assert_eq!(coordinator.supervise().unwrap(), vec![1]);
    assert!(
        coordinator.supervise().unwrap().is_empty(),
        "healthy cluster has nothing to rebuild"
    );

    // Deltas appended after recovery reach the rebuilt worker through
    // the normal pump, like every other worker.
    coordinator.extend(rest.iter().copied());
    coordinator.flush().unwrap();
    let batch: bigraph::UpdateBatch = stream.iter().copied().collect();
    reference.apply_updates(&batch).unwrap();

    // Target 5 is owned by the rebuilt middle shard (even split of 12
    // into 3: ranges 0..4, 4..8, 8..MAX); `grown` by the open-ended one.
    let grown = reference.graph().n_upper() as u32 - 1;
    for (target, seed) in [(0u32, 31u64), (5, 37), (grown, 41)] {
        let candidates: Vec<u32> = (0..N_UPPER as u32)
            .chain([grown])
            .filter(|&w| w != target)
            .collect();
        let from_cluster = coordinator
            .estimate_batch(Layer::Upper, target, &candidates, EPSILON, seed)
            .unwrap();
        let from_engine = reference
            .estimate_batch(
                Layer::Upper,
                target,
                &candidates,
                EPSILON,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        assert_reports_identical(&from_cluster, &from_engine);
    }
    let stats = coordinator.stats();
    assert_eq!(stats.healthy_workers, 3);
    assert_eq!(stats.max_ingest_lag, 0);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster restart into the same directory reuses the on-disk shard
/// files (the manifest matches, so no shard is re-derived) and serves
/// byte-identically; a spawn whose parameters differ (another partition
/// width) invalidates the manifest and rewrites instead of adopting
/// wrong-shard files.
#[test]
fn cluster_restart_reuses_shard_files_behind_the_manifest() {
    let graph = base_graph();
    let dir = socket_dir("reuse");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let spawn = |dir: &std::path::Path, n: usize| {
        Coordinator::spawn_program_from_snapshot(
            &snapshot,
            Layer::Upper,
            n,
            dir,
            ClusterConfig::default(),
            &worker_bin(),
        )
        .unwrap()
    };
    let shard_mtime = |i: usize| {
        std::fs::metadata(dir.join(format!("shard-{i}.snap")))
            .unwrap()
            .modified()
            .unwrap()
    };
    let candidates: Vec<u32> = (1..N_UPPER as u32).collect();
    let mut first = spawn(&dir, 3);
    let before = first
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 3)
        .unwrap();
    drop(first);
    let stamps: Vec<_> = (0..3).map(shard_mtime).collect();

    // Same parameters: the files are adopted as-is, reports unchanged.
    let mut again = spawn(&dir, 3);
    assert_eq!(
        (0..3).map(shard_mtime).collect::<Vec<_>>(),
        stamps,
        "matching manifest must reuse the shard files, not rewrite them"
    );
    let after = again
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 3)
        .unwrap();
    assert_reports_identical(&before, &after);
    drop(again);

    // A different partition invalidates the manifest: shard files are
    // re-derived for the new cuts and the cluster still answers right.
    let mut repartitioned = spawn(&dir, 2);
    assert_ne!(
        shard_mtime(0),
        stamps[0],
        "a different partition must rewrite the shard files"
    );
    // The 3-worker layout's third file is now unreferenced by the
    // manifest; the respawn must have swept it rather than letting
    // orphans accumulate per layout change.
    assert!(
        !dir.join("shard-2.snap").exists(),
        "a shard file the manifest no longer names must be GC'd"
    );
    let split = repartitioned
        .estimate_batch(Layer::Upper, 0, &candidates, EPSILON, 3)
        .unwrap();
    assert_reports_identical(&before, &split);
    drop(repartitioned);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`Coordinator::stats`] sums every worker's serving counters: after a
/// flushed stream, each edge delta is counted once (on its owner) and
/// each broadcast `AddVertex` once per worker, with nothing left in
/// flight and nothing rejected.
#[test]
fn stats_rollup_aggregates_worker_counters() {
    let graph = base_graph();
    let dir = socket_dir("stats");
    let mut coordinator = spawn_even(&graph, 2, &dir, ClusterConfig::default());
    let stream = update_stream(99);
    let n_deltas = stream.len() as u64;
    let broadcasts = stream
        .iter()
        .filter(|d| matches!(d, GraphDelta::AddVertex { .. }))
        .count() as u64;
    coordinator.extend(stream);
    coordinator.flush().unwrap();
    let stats = coordinator.stats();
    assert_eq!(stats.healthy_workers, 2);
    // Edge deltas land on exactly one worker; AddVertex on both.
    assert_eq!(stats.appended, n_deltas + broadcasts);
    assert_eq!(stats.published, stats.appended);
    assert_eq!(stats.max_ingest_lag, 0);
    assert_eq!(stats.rejected, 0);
    assert!(stats.min_epoch >= 1, "every worker published at least once");
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spawn whose second launch fails returns the typed spawn error and
/// leaves no process behind: the worker that did start is killed and
/// reaped before the error surfaces.
#[test]
fn failed_spawn_reaps_the_workers_it_started() {
    let graph = base_graph();
    let dir = socket_dir("failed-spawn");
    let started = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let record = std::sync::Arc::clone(&started);
    let err = Coordinator::spawn_partitioned_from_snapshot(
        &GraphSnapshot::capture(&graph, 0),
        Layer::Upper,
        vec![0..6, 6..u32::MAX],
        &dir,
        ClusterConfig::default(),
        move |spec| {
            if spec.index == 1 {
                return Err(std::io::Error::other("injected launch failure"));
            }
            let child = cluster::worker_command(&worker_bin(), spec).spawn()?;
            record.lock().unwrap().push(child.id());
            Ok(child)
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::Spawn { worker: 1, .. }),
        "got {err:?}"
    );
    let pids = started.lock().unwrap().clone();
    assert_eq!(pids.len(), 1);
    assert!(
        !Path::new(&format!("/proc/{}", pids[0])).exists(),
        "worker 0 must be killed and reaped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
