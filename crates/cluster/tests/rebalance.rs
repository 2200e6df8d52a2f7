//! Live shard rebalancing under deterministic fault injection (ISSUE 10
//! tentpole): splitting and merging contiguous vertex ranges without a
//! full respawn must keep reports **byte-identical** to an unsharded
//! engine, with **zero failed queries** on the clean path — before,
//! between, and after every step of the rebalance state machine. Under
//! injected faults (worker kills at any step, torn shard files,
//! corrupted/dropped frames, stalled sockets) the coordinator must never
//! hang past its deadline budget: it either rolls back to the old
//! topology (still serving, zero divergence) or completes via
//! supervision, and recovery is reproducible from the fault plan's
//! printed seed.
//!
//! The clean-path tests pin an inert fault injector and scrub
//! `CNE_FAULT_PLAN` from worker environments, so they hold even when a
//! chaos leg armed the variable globally. The `chaos_` tests arm plans
//! programmatically; `chaos_env_fault_plan_leg` is the CI matrix entry
//! point and reads whatever plan the job exported.

use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, GraphDelta, Layer};
use cluster::{
    ClusterConfig, ClusterError, Coordinator, FaultInjector, FaultPlan, RebalanceStatus,
    RetryPolicy, FAULT_PLAN_ENV,
};
use cne::EstimationEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N_UPPER: usize = 12;
const N_LOWER: usize = 96; // ≥ 64 so some vertices cross the dense threshold
const EPSILON: f64 = 2.0;

/// Same base graph as the swap suite: dense enough that several upper
/// vertices take the packed (cache-hitting) dispatch.
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
        "cne-rebalance-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_shard-worker"))
}

/// Test tuning: short enough deadlines that a dead worker is detected in
/// well under a second, generous enough that a loaded CI host never
/// false-positives. Chaos legs rely on these bounds to prove "never
/// hangs".
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(400),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        io_timeout: Duration::from_millis(1500),
        teardown_deadline: Duration::from_secs(2),
    }
}

fn config_with(faults: std::sync::Arc<FaultInjector>) -> ClusterConfig {
    ClusterConfig {
        retry: test_retry(),
        pump_chunk: 64, // small chunks: replication/replay cross frame boundaries
        faults,
    }
}

/// A config whose injector is explicitly inert, immune to any
/// `CNE_FAULT_PLAN` in the test process's environment.
fn inert_config() -> ClusterConfig {
    config_with(FaultInjector::from_plan(FaultPlan::default()))
}

/// Spawns a snapshot-bootstrapped cluster whose workers have
/// `CNE_FAULT_PLAN` scrubbed — fully hermetic regardless of the outer
/// environment.
fn spawn_hermetic(
    snapshot: &GraphSnapshot,
    ranges: Vec<Range<u32>>,
    dir: &std::path::Path,
    config: ClusterConfig,
) -> Coordinator {
    Coordinator::spawn_partitioned_from_snapshot(snapshot, Layer::Upper, ranges, dir, config, {
        let bin = worker_bin();
        move |spec| {
            let mut cmd = cluster::worker_command(&bin, spec);
            cmd.env_remove(FAULT_PLAN_ENV);
            cmd.spawn()
        }
    })
    .unwrap()
}

/// A deterministic mixed update stream: edge churn plus vertex growth on
/// both layers, exercising the routed and broadcast replication paths.
fn update_stream(seed: u64, len: usize, n_upper: &mut u32, n_lower: &mut u32) -> Vec<GraphDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    for i in 0..len {
        match i % 10 {
            0 => {
                stream.push(GraphDelta::AddVertex {
                    layer: Layer::Upper,
                });
                *n_upper += 1;
            }
            5 => {
                stream.push(GraphDelta::AddVertex {
                    layer: Layer::Lower,
                });
                *n_lower += 1;
            }
            _ => {
                let upper = rng.gen_range(0..*n_upper);
                let lower = rng.gen_range(0..*n_lower);
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

/// Full-precision fingerprint comparison of two batch reports.
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

/// Queries the cluster and the reference engine with the same inputs and
/// asserts byte-identity. Any `Err` from the cluster counts as a failed
/// query — the clean-path contract is that there are none, ever.
fn assert_query_identical(
    coordinator: &mut Coordinator,
    reference: &mut EstimationEngine,
    seed: u64,
) {
    let n_upper = reference.graph().n_upper() as u32;
    let target = seed as u32 % n_upper;
    let candidates: Vec<u32> = (0..n_upper).filter(|&w| w != target).collect();
    let from_cluster = coordinator
        .estimate_batch(Layer::Upper, target, &candidates, EPSILON, seed)
        .unwrap_or_else(|e| panic!("query (seed {seed}) failed: {e}"));
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

/// Feeds `stream` to both sides and barriers the cluster.
fn feed(coordinator: &mut Coordinator, reference: &mut EstimationEngine, stream: Vec<GraphDelta>) {
    coordinator.extend(stream.iter().copied());
    coordinator.flush().unwrap();
    let batch: bigraph::UpdateBatch = stream.into_iter().collect();
    reference.apply_updates(&batch).unwrap();
}

/// The headline clean-path contract: split 2→4 and merge 4→2 (with a
/// shifted cut) **live**, under an update stream, with queries
/// interleaved between every step of both rebalances — every query
/// succeeds and every report is byte-identical to the unsharded engine.
#[test]
fn live_split_and_merge_are_byte_identical_with_zero_failed_queries() {
    let graph = base_graph();
    let dir = socket_dir("clean");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let mut coordinator = spawn_hermetic(&snapshot, vec![0..6, 6..u32::MAX], &dir, inert_config());
    let mut reference = EstimationEngine::from_graph(graph);
    let (mut n_upper, mut n_lower) = (N_UPPER as u32, N_LOWER as u32);

    assert_query_identical(&mut coordinator, &mut reference, 1);
    feed(
        &mut coordinator,
        &mut reference,
        update_stream(11, 120, &mut n_upper, &mut n_lower),
    );
    assert_query_identical(&mut coordinator, &mut reference, 2);

    // Split 2→4, stepping the machine by hand with live traffic —
    // updates and a query — between every pair of steps.
    coordinator
        .begin_rebalance(vec![0..3, 3..6, 6..9, 9..u32::MAX])
        .unwrap();
    let mut step_seed = 100u64;
    while let Some(step) = coordinator.rebalance_in_flight() {
        feed(
            &mut coordinator,
            &mut reference,
            update_stream(step_seed, 30, &mut n_upper, &mut n_lower),
        );
        assert_query_identical(&mut coordinator, &mut reference, step_seed);
        let status = coordinator
            .rebalance_step()
            .unwrap_or_else(|e| panic!("clean-path step {} failed: {e}", step.name()));
        if status == RebalanceStatus::Complete {
            break;
        }
        step_seed += 1;
    }
    assert_eq!(coordinator.n_workers(), 4);
    assert_eq!(coordinator.generation(), 1);
    assert!(coordinator.rebalance_in_flight().is_none());
    assert_query_identical(&mut coordinator, &mut reference, 3);

    // More churn on the 4-way topology, then merge 4→2 with a *shifted*
    // cut (7, not the original 6) through the one-call driver.
    feed(
        &mut coordinator,
        &mut reference,
        update_stream(13, 120, &mut n_upper, &mut n_lower),
    );
    coordinator.rebalance(vec![0..7, 7..u32::MAX]).unwrap();
    assert_eq!(coordinator.n_workers(), 2);
    assert_eq!(coordinator.generation(), 2);
    assert_query_identical(&mut coordinator, &mut reference, 4);

    // And an even-split driver pass for good measure (2→3 over the
    // grown layer), proving repeated rebalances compose.
    coordinator.rebalance_to(3).unwrap();
    assert_eq!(coordinator.n_workers(), 3);
    assert_query_identical(&mut coordinator, &mut reference, 5);

    // A dead worker *after* everything is an ordinary supervision case:
    // the post-rebalance snapshot source must rebuild it good as new.
    coordinator.kill_worker(0).unwrap();
    assert_eq!(coordinator.supervise().unwrap(), vec![0]);
    assert_query_identical(&mut coordinator, &mut reference, 6);

    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Misuse is typed, not a panic or a hang: a double begin surfaces
/// [`ClusterError::Rebalance`] at step `"begin"` with `rolled_back:
/// true`, leaving the cluster serving exactly as before.
#[test]
fn rebalance_misuse_is_a_typed_begin_error() {
    let graph = base_graph();

    // Double-begin: the second begin is rejected, the first stays armed
    // and still drives to completion.
    let dir = socket_dir("misuse-double");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let mut coordinator = spawn_hermetic(&snapshot, vec![0..6, 6..u32::MAX], &dir, inert_config());
    coordinator
        .begin_rebalance(vec![0..4, 4..u32::MAX])
        .unwrap();
    let err = coordinator
        .begin_rebalance(vec![0..5, 5..u32::MAX])
        .unwrap_err();
    match err {
        ClusterError::Rebalance {
            step: "begin",
            rolled_back: true,
            ..
        } => {}
        other => panic!("expected typed begin error, got {other:?}"),
    }
    while coordinator.rebalance_step().unwrap() != RebalanceStatus::Complete {}
    assert_eq!(coordinator.ranges(), &[0..4, 4..u32::MAX][..]);
    // Stepping with nothing in flight is the same typed misuse.
    assert!(matches!(
        coordinator.rebalance_step().unwrap_err(),
        ClusterError::Rebalance { step: "begin", .. }
    ));
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed partition is a typed error at both entry points that
/// take one, checked before anything is launched or staged: spawn
/// returns an invalid-parameter error without starting a worker, and
/// `begin_rebalance` returns the typed `"begin"` misuse error while the
/// old topology keeps answering.
#[test]
#[allow(clippy::single_range_in_vec_init)]
fn malformed_partitions_are_typed_errors() {
    let graph = base_graph();
    let dir = socket_dir("malformed");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let mut reference = EstimationEngine::from_graph(graph.clone());
    let no_launch = |_: &cluster::WorkerSpec| -> std::io::Result<std::process::Child> {
        panic!("a malformed spawn must fail before launching any worker")
    };

    // Spawn: a gap, a missing open end, no ranges at all, and a snapshot
    // pinned past sequence 0 are all rejected up front.
    for ranges in [vec![0..5, 6..u32::MAX], vec![0..5], Vec::new()] {
        let err = Coordinator::spawn_partitioned_from_snapshot(
            &snapshot,
            Layer::Upper,
            ranges.clone(),
            &dir,
            inert_config(),
            no_launch,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::Query(cne::CneError::InvalidParameter { name: "ranges", .. })
            ),
            "{ranges:?}: got {err:?}"
        );
    }
    let pinned = GraphSnapshot::capture(&graph, 7);
    let err = Coordinator::spawn_partitioned_from_snapshot(
        &pinned,
        Layer::Upper,
        vec![0..u32::MAX],
        &dir,
        inert_config(),
        no_launch,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Query(cne::CneError::InvalidParameter {
                name: "snapshot",
                ..
            })
        ),
        "got {err:?}"
    );

    // Rebalance: a gap between 5 and 6 is the typed begin error, nothing
    // is armed, and the old topology still answers byte-identically.
    let mut coordinator = spawn_hermetic(&snapshot, vec![0..6, 6..u32::MAX], &dir, inert_config());
    let err = coordinator
        .begin_rebalance(vec![0..5, 6..u32::MAX])
        .unwrap_err();
    match err {
        ClusterError::Rebalance {
            step: "begin",
            rolled_back: true,
            ..
        } => {}
        other => panic!("expected typed begin error, got {other:?}"),
    }
    assert!(coordinator.rebalance_in_flight().is_none());
    assert_eq!(coordinator.generation(), 0);
    assert!(matches!(
        coordinator.rebalance_to(0).unwrap_err(),
        ClusterError::Rebalance { step: "begin", .. }
    ));
    assert_eq!(coordinator.ranges(), &[0..6, 6..u32::MAX][..]);
    assert_query_identical(&mut coordinator, &mut reference, 9);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized rebalance plans: random contiguous partitions into
    /// 1/2/4 shards, chained (so splits, merges, and shifted cuts all
    /// occur), interleaved with update batches — byte-identity and the
    /// zero-failure contract hold at every stage. Runs under the
    /// `RAYON_NUM_THREADS=1/4/8` and `CNE_FORCE_PORTABLE_KERNELS=1` CI
    /// matrix like the swap suite.
    #[test]
    fn random_rebalance_plans_preserve_byte_identity(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = base_graph();
        let dir = socket_dir(&format!("prop{seed}"));
        let snapshot = GraphSnapshot::capture(&graph, 0);
        let random_partition = |rng: &mut StdRng| {
            let shards = [1usize, 2, 4][rng.gen_range(0..3usize)];
            let mut cuts: Vec<u32> = Vec::new();
            while cuts.len() < shards - 1 {
                let c = rng.gen_range(1..N_UPPER as u32);
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
        };
        let initial = random_partition(&mut rng);
        let mut coordinator = spawn_hermetic(&snapshot, initial, &dir, inert_config());
        let mut reference = EstimationEngine::from_graph(graph);
        let (mut n_upper, mut n_lower) = (N_UPPER as u32, N_LOWER as u32);
        for round in 0..2u64 {
            feed(
                &mut coordinator,
                &mut reference,
                update_stream(seed ^ round, 60, &mut n_upper, &mut n_lower),
            );
            assert_query_identical(&mut coordinator, &mut reference, seed ^ (round * 31 + 7));
            let next = random_partition(&mut rng);
            coordinator.rebalance(next.clone()).unwrap();
            prop_assert_eq!(coordinator.ranges(), &next[..]);
            assert_query_identical(&mut coordinator, &mut reference, seed ^ (round * 31 + 13));
        }
        drop(coordinator);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --------------------------------------------------------------- chaos

/// Harness shared by the programmatic chaos legs: spawn 2 workers from a
/// snapshot with `plan` armed coordinator-side, churn, then return
/// everything needed to attempt a rebalance and verify recovery.
fn chaos_setup(
    tag: &str,
    plan: &str,
) -> (
    Coordinator,
    EstimationEngine<'static>,
    PathBuf,
    std::sync::Arc<FaultInjector>,
) {
    let graph = base_graph();
    let dir = socket_dir(tag);
    let snapshot = GraphSnapshot::capture(&graph, 0);
    let faults = FaultInjector::from_plan(FaultPlan::parse(plan).unwrap());
    let mut coordinator = spawn_hermetic(
        &snapshot,
        vec![0..6, 6..u32::MAX],
        &dir,
        config_with(std::sync::Arc::clone(&faults)),
    );
    let mut reference = EstimationEngine::from_graph(graph);
    let (mut n_upper, mut n_lower) = (N_UPPER as u32, N_LOWER as u32);
    feed(
        &mut coordinator,
        &mut reference,
        update_stream(0xC4A05, 100, &mut n_upper, &mut n_lower),
    );
    (coordinator, reference, dir, faults)
}

/// An old worker crashes the instant the rebalance starts quiescing: the
/// step fails, the rebalance rolls back (typed, `rolled_back: true`),
/// supervision rebuilds the dead worker from the *old* snapshot source,
/// and the retried rebalance — the kill directive is one-shot — lands.
/// Byte-identity holds at every stage. Reproduce with
/// `CNE_FAULT_PLAN='seed=101;kill=quiesce:old0'`.
#[test]
fn chaos_kill_old_worker_at_quiesce_rolls_back_then_retry_succeeds() {
    let (mut coordinator, mut reference, dir, _faults) =
        chaos_setup("kill-old", "seed=101;kill=quiesce:old0");
    let started = Instant::now();
    let err = coordinator.rebalance_to(4).unwrap_err();
    match err {
        ClusterError::Rebalance {
            step: "quiesce",
            rolled_back: true,
            ..
        } => {}
        other => panic!("expected rolled-back quiesce failure, got {other:?}"),
    }
    // Bounded: two exchange attempts × (connect retry budget + IO
    // deadline) with margin, never a hang.
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "failure detection must be deadline-bounded, took {:?}",
        started.elapsed()
    );
    // Old topology, one dead worker: supervision rebuilds it, after
    // which the cluster serves byte-identically.
    assert_eq!(coordinator.n_workers(), 2, "old topology retained");
    assert_eq!(coordinator.supervise().unwrap(), vec![0]);
    assert_query_identical(&mut coordinator, &mut reference, 31);
    // One-shot directive: the retry goes clean.
    coordinator.rebalance_to(4).unwrap();
    assert_eq!(coordinator.n_workers(), 4);
    assert_query_identical(&mut coordinator, &mut reference, 32);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An incoming worker dies right as bootstrap begins: rollback kills the
/// staged generation, the old workers never stopped serving (no
/// supervision needed), and the retry lands. Reproduce with
/// `CNE_FAULT_PLAN='seed=102;kill=bootstrap:new0'`.
#[test]
fn chaos_kill_new_worker_mid_bootstrap_rolls_back_without_downtime() {
    let (mut coordinator, mut reference, dir, _faults) =
        chaos_setup("kill-new", "seed=102;kill=bootstrap:new0");
    let err = coordinator.rebalance_to(4).unwrap_err();
    match err {
        ClusterError::Rebalance {
            step: "bootstrap",
            rolled_back: true,
            ..
        } => {}
        other => panic!("expected rolled-back bootstrap failure, got {other:?}"),
    }
    // The old generation was never touched: queries succeed immediately,
    // and supervision finds nothing to rebuild.
    assert_eq!(coordinator.n_workers(), 2);
    assert_query_identical(&mut coordinator, &mut reference, 41);
    assert!(coordinator.supervise().unwrap().is_empty());
    coordinator.rebalance_to(4).unwrap();
    assert_query_identical(&mut coordinator, &mut reference, 42);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn shard-file write (crash between write and fsync, modeled as a
/// seed-chosen strict prefix) is caught by the adopting worker's
/// checksum validation at bootstrap — rollback, no divergence, retry
/// lands. Reproduce with `CNE_FAULT_PLAN='seed=104;torn=2'`.
#[test]
fn chaos_torn_shard_file_rolls_back_then_retry_succeeds() {
    let (mut coordinator, mut reference, dir, _faults) = chaos_setup("torn", "seed=104;torn=2");
    let err = coordinator.rebalance_to(4).unwrap_err();
    match err {
        ClusterError::Rebalance {
            step: "bootstrap",
            rolled_back: true,
            ..
        } => {}
        other => panic!("expected rolled-back bootstrap failure, got {other:?}"),
    }
    assert_query_identical(&mut coordinator, &mut reference, 51);
    // Rollback must have deleted the staged generation's files.
    let staged: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("shard-g1-"))
        .collect();
    assert!(
        staged.is_empty(),
        "staged files must be rolled back: {staged:?}"
    );
    coordinator.rebalance_to(4).unwrap();
    assert_query_identical(&mut coordinator, &mut reference, 52);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted request frame is *detected* (frame checksum) and
/// transparently retried via reconnect-and-resend — the full flow,
/// including a live rebalance, completes with byte-identity intact and
/// zero surfaced errors. Reproduce with
/// `CNE_FAULT_PLAN='seed=103;corrupt=4'`.
#[test]
fn chaos_corrupt_frame_is_detected_and_transparently_retried() {
    let (mut coordinator, mut reference, dir, faults) =
        chaos_setup("corrupt", "seed=103;corrupt=4");
    // Frame 4 is a replication `Update` (kind 0x20) sent by the setup's
    // flush, before any query.
    assert_eq!(faults.corrupted_kind(), Some(0x20));
    assert_query_identical(&mut coordinator, &mut reference, 61);
    coordinator.rebalance_to(4).unwrap();
    assert_query_identical(&mut coordinator, &mut reference, 62);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted *row-carrying* frame: frame 10 is the first query's
/// `Round2Req` (kind 0x50) to worker 0, carrying the noisy target row.
/// The worker rejects it on its checksum and drops the connection, the
/// fan-out reads the other worker first, then reconnects and resends —
/// and the answer is byte-identical to the unsharded engine's, as is
/// the next one. Reproduce with `CNE_FAULT_PLAN='seed=107;corrupt=10'`.
#[test]
fn chaos_corrupt_round2_frame_is_resent_mid_query() {
    let (mut coordinator, mut reference, dir, faults) =
        chaos_setup("corrupt-row", "seed=107;corrupt=10");
    assert_eq!(faults.corrupted_kind(), None, "fires during the query");
    assert_query_identical(&mut coordinator, &mut reference, 63);
    assert_eq!(faults.corrupted_kind(), Some(0x50));
    assert_query_identical(&mut coordinator, &mut reference, 64);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped request frame (swallowed before the socket) forces the read
/// to hit the IO deadline; the reconnect-and-resend retry recovers and
/// the flow completes clean. Reproduce with
/// `CNE_FAULT_PLAN='seed=106;drop=3'`.
#[test]
fn chaos_dropped_frame_recovers_at_the_io_deadline() {
    let (mut coordinator, mut reference, dir, _faults) = chaos_setup("drop", "seed=106;drop=3");
    let started = Instant::now();
    assert_query_identical(&mut coordinator, &mut reference, 71);
    coordinator.rebalance_to(4).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "drop recovery must be deadline-bounded, took {:?}",
        started.elapsed()
    );
    assert_query_identical(&mut coordinator, &mut reference, 72);
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker stalls one response past the coordinator's IO deadline (the
/// stalled-socket leg, armed worker-side through the inherited
/// environment): the coordinator times out, reconnects, resends, and the
/// flow completes clean — never a hang. Reproduce with
/// `CNE_FAULT_PLAN='seed=105;stall=3:2500'`.
#[test]
fn chaos_stalled_socket_recovers_within_the_deadline_budget() {
    let graph = base_graph();
    let dir = socket_dir("stall");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    // Coordinator-side inert; the plan reaches only the *workers*, via
    // an explicit per-child env (not the test process's environment).
    let plan = "seed=105;stall=3:2500";
    let mut coordinator = Coordinator::spawn_partitioned_from_snapshot(
        &snapshot,
        Layer::Upper,
        vec![0..6, 6..u32::MAX],
        &dir,
        inert_config(),
        {
            let bin = worker_bin();
            move |spec| {
                let mut cmd = cluster::worker_command(&bin, spec);
                cmd.env(FAULT_PLAN_ENV, plan);
                cmd.spawn()
            }
        },
    )
    .unwrap();
    let mut reference = EstimationEngine::from_graph(graph);
    let (mut n_upper, mut n_lower) = (N_UPPER as u32, N_LOWER as u32);
    let started = Instant::now();
    feed(
        &mut coordinator,
        &mut reference,
        update_stream(0x57A11, 100, &mut n_upper, &mut n_lower),
    );
    assert_query_identical(&mut coordinator, &mut reference, 81);
    coordinator.rebalance_to(4).unwrap();
    assert_query_identical(&mut coordinator, &mut reference, 82);
    // Both workers stall their 3rd response for 2.5s against a 1.5s IO
    // deadline; each recovery costs one deadline + one resend. Anything
    // near a hang blows this budget.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "stall recovery must be deadline-bounded, took {:?}",
        started.elapsed()
    );
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI chaos-matrix entry point: reads `CNE_FAULT_PLAN` from the
/// environment (skips when unset) and drives the full scenario — spawn,
/// churn, rebalance 2→4 with queries between steps, recover, verify.
/// Whatever the leg injects, the contract is the same: no hang past the
/// deadline budget, a typed rolled-back error or clean completion, a
/// recovery path that converges, and byte-identity at the end —
/// reproducible from the plan echoed on stderr.
#[test]
fn chaos_env_fault_plan_leg() {
    let Ok(plan) = std::env::var(FAULT_PLAN_ENV) else {
        eprintln!("chaos_env_fault_plan_leg: {FAULT_PLAN_ENV} unset, skipping");
        return;
    };
    let started = Instant::now();
    let graph = base_graph();
    let dir = socket_dir("env-leg");
    let snapshot = GraphSnapshot::capture(&graph, 0);
    // ClusterConfig::default() arms the env plan coordinator-side and
    // honors the job's CNE_CLUSTER_*_MS deadline overrides; workers
    // inherit the env (and with it the worker-side directives).
    let mut coordinator = Coordinator::spawn_program_from_snapshot(
        &snapshot,
        Layer::Upper,
        2,
        &dir,
        ClusterConfig::default(),
        &worker_bin(),
    )
    .unwrap();
    let mut reference = EstimationEngine::from_graph(graph);
    let (mut n_upper, mut n_lower) = (N_UPPER as u32, N_LOWER as u32);
    feed(
        &mut coordinator,
        &mut reference,
        update_stream(0xE41, 100, &mut n_upper, &mut n_lower),
    );

    // Attempt the rebalance; a fault may abort it mid-flight. The
    // contract on failure: typed, named step, rolled back, old topology
    // still serving (possibly minus a killed worker, which supervision
    // rebuilds). Retry until it lands — every directive is one-shot, so
    // the second attempt at the latest goes clean.
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 3, "rebalance did not converge in 3 attempts");
        match coordinator.rebalance_to(4) {
            Ok(()) => break,
            Err(ClusterError::Rebalance {
                step,
                rolled_back,
                source,
            }) => {
                assert!(
                    rolled_back,
                    "pre-commit failure at `{step}` must roll back ({source})"
                );
                // Rebuild whatever the fault killed, then retry.
                coordinator.supervise().unwrap();
            }
            Err(other) => panic!("expected a typed rebalance error, got {other}"),
        }
    }
    assert_eq!(coordinator.n_workers(), 4);
    assert_query_identical(&mut coordinator, &mut reference, 91);
    // Absolute anti-hang budget for the whole leg, deadline overrides
    // included: generous for CI, fatal for an actual hang.
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "chaos leg must stay inside its deadline budget, took {:?}",
        started.elapsed()
    );
    eprintln!(
        "chaos_env_fault_plan_leg: plan `{plan}` converged in {attempts} attempt(s), {:?}",
        started.elapsed()
    );
    drop(coordinator);
    let _ = std::fs::remove_dir_all(&dir);
}
