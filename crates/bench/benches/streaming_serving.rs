//! The serving-tier benchmark (ISSUE 7): sustained query throughput under
//! a continuous zipf edge stream, double-buffered vs. stop-the-world.
//!
//! Both modes consume the **identical** pre-generated delta stream —
//! `BATCHES_PER_CYCLE` 64-edge batches arrive per query round, so writes
//! outpace queries the way a live ingest tier does — and run the identical
//! warm screening query per cycle (target 0 against 200 dense candidates,
//! same shape as `engine_cached_batch` / `streaming_updates`). The
//! difference is purely architectural:
//!
//! * **stop-the-world** — the single-engine serving mode: every arriving
//!   batch is spliced synchronously (`apply_updates`) the moment it lands
//!   (the engine has no update log, so ingestion must finish before
//!   control returns to serving), and each splice pays its fixed memmove
//!   and offset-shift cost regardless of batch size.
//! * **double-buffered** — a `ServingEngine`: producers append to the
//!   `UpdateLog`, readers query epoch-pinned snapshots, and the writer
//!   thread coalesces everything pending into one splice per publish.
//!
//! The host is effectively single-core, which keeps the accounting
//! honest: every cycle the writer thread steals from readers shows up in
//! the measured reader wall-times. The double-buffered *sustained* figure
//! additionally folds in the end-of-run drain (`flush` plus writer
//! teardown, which replays the spare buffer's backlog), so **all**
//! deferred ingestion work lands inside the measured window and both
//! modes end fully caught up. The *worst window* excludes that teardown —
//! it measures what a reader can observe mid-stream, and the whole point
//! is that a reader's worst cycle is bounded by query cost plus scheduler
//! noise, never by a splice.
//!
//! **Multi-process legs (ISSUE 8).** The same cycle loop also runs
//! against real shard-worker processes behind a [`cluster::Coordinator`]
//! (the bench binary re-executes itself as each worker — see
//! [`cluster::maybe_run_worker_from_env`] — and every cluster is spawned
//! from a sequence-0 snapshot of the screening graph), in three
//! deployments:
//!
//! * `cluster_1worker` — one front, one worker owning the whole graph:
//!   the single-process serving tier plus the process boundary.
//! * `cluster_4worker_sharded` — one front, four shard workers: the
//!   update stream is partitioned, so each worker splices ~¼ of the
//!   deltas into a ~¼-size shard graph and total splice work stays
//!   constant as workers are added.
//! * `cluster_4worker_replicated` — the naive alternative that lacks the
//!   placement-independence theorem: four full replicas, every one
//!   ingesting the **entire** stream into a **full** graph (queries
//!   round-robin). Replication scales query capacity but multiplies
//!   splice work by the replica count; sharding is what makes ingest
//!   scale too.
//!
//! Hand-rolled harness (no criterion stub): the gated ratios need a
//! tail window — the 95th-percentile cycle, a p99-style stand-in that is
//! stable enough to gate (the absolute max is scheduler-noise jitter on
//! a loaded core) — alongside the mean, and the stub only reports means.
//! Output lines use the same `bench: <id> <t> <unit>/iter` grammar
//! `bench_check` parses.
//!
//! **Persistence leg.** In-process fast-restart cost:
//! `cold_text_build` vs `snapshot_load` — rebuilding a warm engine from
//! the text edge list (read + parse + CSR build + warm passes over both
//! layers) against adopting a binary [`bigraph::snapshot`] (read +
//! validate + install pre-packed bitmaps straight into the adjacency
//! store — the same end state). Cluster spawn cost is measured end to
//! end by the repo benchmark (`cluster.coordinator.spawn_s`).
//!
//! **Rebalance leg (ISSUE 10).** A 2-shard cluster keeps answering the
//! screening query while it splits live to 4 shards and merges back,
//! stepping the rebalance state machine by hand with a query between
//! every step. `rebalance_steady_query` is the query mean outside any
//! rebalance window, `rebalance_worst_query` the worst single query
//! inside one, and `rebalance_failed_queries` the count of queries that
//! errored (reported as a raw `ns` value so `bench_check` can gate it to
//! **exactly zero** — the clean-path contract is that a live rebalance
//! is invisible to readers).
//!
//! Gated ratios (hardware-neutral, see `BENCH_micro.json`):
//! `sustained_double_buffered / sustained_stop_the_world`,
//! `worst_window_double_buffered / worst_window_stop_the_world`,
//! `sustained_cluster_4worker_sharded / sustained_cluster_4worker_replicated`
//! (the ingest-scaling edge),
//! `sustained_cluster_4worker_sharded / sustained_cluster_1worker`
//! (fan-out overhead must stay bounded),
//! `snapshot_load / cold_text_build` (the fast-restart edge), and
//! `rebalance_worst_query / rebalance_steady_query` (a mid-rebalance
//! query must stay bounded by query cost, never pay a splice or a
//! snapshot cut).

use bigraph::snapshot::{read_snapshot, GraphSnapshot};
use bigraph::{BipartiteGraph, GraphDelta, Layer};
use cluster::{ClusterConfig, Coordinator};
use cne::engine::EstimationEngine;
use cne::serving::{ServingConfig, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N_ITEMS: usize = 100_000;
const N_CANDIDATES: u32 = 200;
const CANDIDATE_DEGREE: u32 = 12_000;
const EPSILON: f64 = 2.0;
const SEED: u64 = 0x00CA_C4E7;
const BATCH_EDGES: usize = 64;
/// Write pressure: batches arriving per query round. At 6, the write
/// stream outpaces the query loop — the regime where splice coalescing
/// pays (a stop-the-world server pays six fixed-cost splices per cycle,
/// the writer thread one per publish).
const BATCHES_PER_CYCLE: usize = 6;
/// Reader duty cycle: screening rounds answered per cycle. Several
/// rounds per cycle is the serving regime (readers query top-k
/// continuously); it also gives the writer thread wall-time to
/// interleave its coalesced splices on a loaded core instead of
/// deferring the whole stream to the end-of-run drain.
const QUERY_ROUNDS_PER_CYCLE: usize = 4;

/// Same 2.4M-edge screening graph as `streaming_updates`.
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

/// The continuous write stream: per cycle, `BATCHES_PER_CYCLE` batches of
/// `BATCH_EDGES` edge toggles whose item endpoints follow a zipf-like
/// skew (u³-shaped, so a few hot items absorb most traffic — the regime
/// real streams live in).
fn zipf_stream(cycles: usize) -> Vec<Vec<Vec<GraphDelta>>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut next = move || {
        // Two 32-bit halves of one draw: upper picks the candidate,
        // lower shapes the zipf-ish item.
        let draw = rand::RngCore::next_u64(&mut rng);
        let upper = 1 + (draw >> 32) as u32 % N_CANDIDATES;
        let unit = (draw & 0xFFFF_FFFF) as f64 / f64::from(u32::MAX);
        let lower = ((unit * unit * unit) * (N_ITEMS as f64 - 1.0)) as u32;
        (upper, lower)
    };
    (0..cycles)
        .map(|_| {
            (0..BATCHES_PER_CYCLE)
                .map(|_| {
                    (0..BATCH_EDGES)
                        .map(|k| {
                            let (upper, lower) = next();
                            if k % 2 == 0 {
                                GraphDelta::AddEdge { upper, lower }
                            } else {
                                GraphDelta::RemoveEdge { upper, lower }
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Mean (including any deferred drain) + 95th-percentile cycle.
#[derive(Clone, Copy)]
struct Windows {
    mean: Duration,
    worst: Duration,
}

fn summarize(cycle_times: &[Duration], deferred: Duration) -> Windows {
    let total: Duration = cycle_times.iter().sum();
    let mut sorted = cycle_times.to_vec();
    sorted.sort_unstable();
    // 95th-percentile window: the top few cycles are scheduler-noise
    // outliers on a loaded single core; the p95 cycle still captures a
    // stop-the-world splice stall (every one of its cycles pays one),
    // while being stable enough to gate run-to-run.
    let p95 = (sorted.len() * 95).div_ceil(100).max(1) - 1;
    Windows {
        mean: (total + deferred) / cycle_times.len() as u32,
        worst: sorted[p95],
    }
}

fn print_bench(id: &str, d: Duration) {
    let ms = d.as_secs_f64() * 1e3;
    println!("bench: micro/streaming_serving/{id:<37} {ms:>10.3} ms/iter");
}

/// Stop-the-world serving: splice each arriving batch synchronously, then
/// answer the query round. Returns per-cycle times.
fn run_stop_the_world(stream: &[Vec<Vec<GraphDelta>>], candidates: &[u32]) -> Vec<Duration> {
    let mut engine = EstimationEngine::from_graph(screening_graph());
    engine.warm(Layer::Upper);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut times = Vec::with_capacity(stream.len());
    for arrivals in stream {
        let start = Instant::now();
        for batch in arrivals {
            engine
                .apply_updates(&batch.iter().copied().collect())
                .expect("valid batch");
        }
        for _ in 0..QUERY_ROUNDS_PER_CYCLE {
            let report = engine
                .estimate_batch(Layer::Upper, 0, candidates, EPSILON, &mut rng)
                .expect("valid batch");
            assert_eq!(report.estimates.len(), candidates.len());
        }
        times.push(start.elapsed());
    }
    times
}

/// Double-buffered serving: append the arrivals, query an epoch-pinned
/// snapshot; the writer splices concurrently and coalesces. Returns
/// per-cycle times, the end-of-run drain time (flush + writer teardown,
/// charged to the sustained mean), and the worst observed ingest lag.
fn run_double_buffered(
    stream: &[Vec<Vec<GraphDelta>>],
    candidates: &[u32],
) -> (Vec<Duration>, Duration, u64) {
    let serving = ServingEngine::with_config(
        screening_graph(),
        ServingConfig {
            warm_layer: Some(Layer::Upper),
            // The coalescing knob: long enough that one publish absorbs
            // several cycles' worth of arrivals, short enough that the
            // live buffer trails the stream by only a few milliseconds.
            poll_interval: Duration::from_millis(2),
            // Let every drain coalesce the whole pending backlog into a
            // single splice; the default cap is sized for bounded
            // latency, not a saturating benchmark stream.
            max_deltas_per_cycle: 16 * 1024,
            ..ServingConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut times = Vec::with_capacity(stream.len());
    let mut max_lag = 0u64;
    for arrivals in stream {
        let start = Instant::now();
        for batch in arrivals {
            serving.extend(batch.iter().copied());
        }
        for _ in 0..QUERY_ROUNDS_PER_CYCLE {
            // A fresh pin per round: pins are brief, so the writer's
            // wait-for-pins never stalls a full publish cycle behind a
            // long-lived reader.
            let snap = serving.snapshot();
            let report = snap
                .estimate_batch(Layer::Upper, 0, candidates, EPSILON, &mut rng)
                .expect("valid batch");
            assert_eq!(report.estimates.len(), candidates.len());
        }
        times.push(start.elapsed());
        max_lag = max_lag.max(serving.stats().ingest_lag);
    }
    // Account the deferred ingestion inside the measured window: the
    // drain-to-empty (flush) plus the writer teardown, which replays the
    // spare buffer's backlog before joining.
    let start = Instant::now();
    serving.flush();
    drop(serving);
    (times, start.elapsed(), max_lag)
}

/// Spawns a cluster deployment: `n_fronts` coordinators, each fronting
/// `shards_per_front` shard workers over the Upper layer of `graph`,
/// bootstrapped from one shared sequence-0 snapshot. The workers are
/// this very binary re-executed (`current_exe`), so `cargo bench` needs
/// no other crate's binaries built. Returns the fronts plus the socket
/// directory to remove after teardown.
fn spawn_fronts(
    graph: &BipartiteGraph,
    shards_per_front: usize,
    n_fronts: usize,
    tag: &str,
) -> (Vec<Coordinator>, PathBuf) {
    let exe = std::env::current_exe().expect("bench exe");
    let dir = std::env::temp_dir().join(format!("cne-serving-bench-{}-{tag}", std::process::id()));
    let snapshot = GraphSnapshot::capture(graph, 0);
    let fronts = (0..n_fronts)
        .map(|i| {
            let front_dir = dir.join(format!("front-{i}"));
            std::fs::create_dir_all(&front_dir).expect("socket dir");
            Coordinator::spawn_program_from_snapshot(
                &snapshot,
                Layer::Upper,
                shards_per_front,
                &front_dir,
                ClusterConfig::default(),
                &exe,
            )
            .expect("spawn shard workers")
        })
        .collect();
    (fronts, dir)
}

/// The cluster cycle loop: ship each cycle's arrivals to every front's
/// replication log, answer the query rounds round-robin over the fronts
/// (with one front that is plain fan-out; with four replicas it is the
/// replica load-balancing that motivates replication in the first
/// place), then `flush` — a bounded-staleness contract: every cycle's
/// deltas are published cluster-wide before the cycle ends.
///
/// The flush is what makes the gated ratios stable *and* honest. Without
/// it the workers' writer threads coalesce at the scheduler's whim, so a
/// replica could defer the whole run into one giant splice and hide the
/// 4× splice-work multiplier replication actually costs; with it, every
/// worker pays one splice per cycle — the sharded deployment four splices
/// of ~¼-size graphs, the replicated one four splices of the *full*
/// graph. Queries still read epoch-pinned snapshots and never wait on a
/// splice mid-cycle. Returns per-cycle times.
fn run_cluster(
    stream: &[Vec<Vec<GraphDelta>>],
    candidates: &[u32],
    shards_per_front: usize,
    n_fronts: usize,
    tag: &str,
) -> Vec<Duration> {
    let graph = screening_graph();
    let (mut fronts, dir) = spawn_fronts(&graph, shards_per_front, n_fronts, tag);
    let mut seed = SEED;
    let mut round_robin = 0usize;
    let mut times = Vec::with_capacity(stream.len());
    for arrivals in stream {
        let start = Instant::now();
        for batch in arrivals {
            // A replicated deployment pays this fan-in once per replica —
            // that duplication is the cost under test, not an artifact.
            for front in &fronts {
                front.extend(batch.iter().copied());
            }
        }
        for _ in 0..QUERY_ROUNDS_PER_CYCLE {
            seed += 1;
            let front = &mut fronts[round_robin % n_fronts];
            round_robin += 1;
            let report = front
                .estimate_batch(Layer::Upper, 0, candidates, EPSILON, seed)
                .expect("cluster batch");
            assert_eq!(report.estimates.len(), candidates.len());
        }
        for front in &mut fronts {
            front.flush().expect("bounded-staleness flush");
        }
        times.push(start.elapsed());
    }
    drop(fronts);
    let _ = std::fs::remove_dir_all(&dir);
    times
}

/// Parses the `n_upper n_lower` + `u v` fixture grammar (the same one
/// `snapshot-tool write` consumes) — the text half of the restart race.
fn parse_edge_file(text: &str) -> BipartiteGraph {
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let mut header = lines.next().expect("header line").split_whitespace();
    let n_upper: usize = header.next().unwrap().parse().unwrap();
    let n_lower: usize = header.next().unwrap().parse().unwrap();
    let edges: Vec<(u32, u32)> = lines
        .map(|l| {
            let mut it = l.split_whitespace();
            let u: u32 = it.next().unwrap().parse().unwrap();
            let v: u32 = it.next().unwrap().parse().unwrap();
            (u, v)
        })
        .collect();
    BipartiteGraph::from_edges(n_upper, n_lower, edges).expect("valid edge file")
}

/// The persistence leg: in-process restart, text rebuild vs snapshot
/// adoption, each best-of-`reps`. Returns `[cold_text_build,
/// snapshot_load]`.
fn run_bootstrap_legs(graph: &BipartiteGraph, reps: usize) -> [Duration; 2] {
    let dir = std::env::temp_dir().join(format!("cne-serving-bench-{}-boot", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bootstrap scratch dir");
    // Untimed setup: materialize both restart sources once.
    let edges_path = dir.join("screening.edges");
    let mut text = format!("{} {}\n", graph.n_upper(), graph.n_lower());
    for (u, l) in graph.edges() {
        use std::fmt::Write;
        writeln!(text, "{u} {l}").unwrap();
    }
    std::fs::write(&edges_path, &text).expect("write edge file");
    let snap_path = dir.join("screening.snap");
    GraphSnapshot::capture(graph, 0)
        .write_to(&snap_path)
        .expect("write snapshot");

    let mut best = [Duration::MAX; 2];
    for _ in 0..reps {
        // Cold restart from text: read + parse + CSR build + warm passes.
        // Both layers are warmed because that is the state a snapshot
        // restores — adoption pre-populates every dense vertex of both
        // layers, so the cold competitor must reach the same warm state.
        let start = Instant::now();
        let parsed = parse_edge_file(&std::fs::read_to_string(&edges_path).expect("read edges"));
        let engine = EstimationEngine::from_graph(parsed);
        engine.warm(Layer::Upper);
        engine.warm(Layer::Lower);
        best[0] = best[0].min(start.elapsed());
        assert_eq!(engine.graph().n_edges(), graph.n_edges());
        drop(engine);

        // Snapshot restart: read + validate + adopt pre-packed bitmaps.
        let start = Instant::now();
        let snap = read_snapshot(&snap_path).expect("read snapshot");
        let engine = EstimationEngine::from_snapshot(&snap);
        best[1] = best[1].min(start.elapsed());
        assert_eq!(engine.graph().n_edges(), graph.n_edges());
        drop((engine, snap));
    }
    let _ = std::fs::remove_dir_all(&dir);
    best
}

/// One timed screening query against the cluster front; an `Err` counts
/// as a failed query (the gated count — zero on the clean path).
fn timed_query(
    front: &mut Coordinator,
    candidates: &[u32],
    seed: u64,
    failed: &mut usize,
) -> Duration {
    let start = Instant::now();
    match front.estimate_batch(Layer::Upper, 0, candidates, EPSILON, seed) {
        Ok(report) => assert_eq!(report.estimates.len(), candidates.len()),
        Err(_) => *failed += 1,
    }
    start.elapsed()
}

/// The live-rebalance leg (ISSUE 10): split 2→4, merge 4→2, querying
/// between every state-machine step while update pressure keeps arriving.
/// Best-of-`reps` on the timing figures (the worst-query sample is a
/// single observation per rep, so one scheduler hiccup would otherwise
/// poison the gated ratio); the failed-query count accumulates across
/// every rep — a failure anywhere is a contract breach, not noise.
/// Returns `(steady query mean, worst mid-rebalance query, failed query
/// count)`.
fn run_rebalance_leg(candidates: &[u32], reps: usize) -> (Duration, Duration, usize) {
    let graph = screening_graph();
    let snap = GraphSnapshot::capture(&graph, 0);
    drop(graph);
    let exe = std::env::current_exe().expect("bench exe");
    let mut best_steady = Duration::MAX;
    let mut best_worst = Duration::MAX;
    let mut failed = 0usize;
    for rep in 0..reps {
        let (steady, worst) = rebalance_rep(&snap, candidates, rep, &exe, &mut failed);
        best_steady = best_steady.min(steady);
        best_worst = best_worst.min(worst);
    }
    (best_steady, best_worst, failed)
}

/// One repetition of the rebalance leg: fresh cluster, fresh socket dir.
fn rebalance_rep(
    snap: &GraphSnapshot,
    candidates: &[u32],
    rep: usize,
    exe: &std::path::Path,
    failed: &mut usize,
) -> (Duration, Duration) {
    let dir = std::env::temp_dir().join(format!(
        "cne-serving-bench-{}-rebal-{rep}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let mut front = Coordinator::spawn_program_from_snapshot(
        snap,
        Layer::Upper,
        2,
        &dir,
        ClusterConfig::default(),
        exe,
    )
    .expect("rebalance-leg spawn");

    // Continuous write pressure: one 64-edge batch lands before every
    // query, so the cutover's tail replay and the steady pumps both have
    // real work.
    let pressure: Vec<Vec<GraphDelta>> = zipf_stream(8).into_iter().flatten().collect();
    let mut next_batch = 0usize;
    let mut push = |front: &Coordinator| {
        front.extend(pressure[next_batch % pressure.len()].iter().copied());
        next_batch += 1;
    };

    let mut steady = Vec::new();
    let mut worst = Duration::ZERO;
    let mut seed = SEED + ((rep as u64) << 16);

    // Steady-state window on the 2-shard topology.
    for _ in 0..6 {
        push(&front);
        front.flush().expect("steady flush");
        seed += 1;
        steady.push(timed_query(&mut front, candidates, seed, failed));
    }
    // Live split 2→4 and merge 4→2 (shifted cut), a query between every
    // step of both. Updates keep arriving un-flushed: the cutover replay
    // and the post-commit pumps absorb them.
    let n_upper = (N_CANDIDATES + 1) / 4;
    let plans: [Vec<std::ops::Range<u32>>; 2] = [
        (0..4)
            .map(|i| {
                let lo = i * n_upper;
                let hi = if i == 3 { u32::MAX } else { (i + 1) * n_upper };
                lo..hi
            })
            .collect(),
        vec![
            0..N_CANDIDATES.div_ceil(2) + 1,
            N_CANDIDATES.div_ceil(2) + 1..u32::MAX,
        ],
    ];
    for plan in plans {
        front.begin_rebalance(plan).expect("begin rebalance");
        while front.rebalance_in_flight().is_some() {
            push(&front);
            seed += 1;
            worst = worst.max(timed_query(&mut front, candidates, seed, failed));
            front.rebalance_step().expect("clean-path rebalance step");
        }
    }
    // Steady-state window again on the merged topology.
    for _ in 0..6 {
        push(&front);
        front.flush().expect("steady flush");
        seed += 1;
        steady.push(timed_query(&mut front, candidates, seed, failed));
    }
    drop(front);
    let _ = std::fs::remove_dir_all(&dir);
    let mean = steady.iter().sum::<Duration>() / steady.len() as u32;
    (mean, worst)
}

fn main() {
    // The bench binary doubles as the shard-worker executable: when the
    // worker env vars are set, this process IS a worker — serve and exit.
    if cluster::maybe_run_worker_from_env() {
        return;
    }
    // Single-threaded queries, same rationale as the other gated groups:
    // the ratios isolate serving architecture, not rayon parallelism.
    // (Worker processes spawn later and inherit this.)
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let cycles: usize = std::env::var("STREAMING_SERVING_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let candidates: Vec<u32> = (1..=N_CANDIDATES).collect();
    let stream = zipf_stream(cycles);

    // Best-of-two interleaved repetitions per mode: one slow repetition
    // (page-cache churn, a background daemon waking up) is discarded
    // instead of poisoning the gated ratio, and interleaving keeps any
    // slow phase of the host from landing entirely on one mode.
    let mut stop = Windows {
        mean: Duration::MAX,
        worst: Duration::MAX,
    };
    let mut dbuf = stop;
    let mut max_lag = 0u64;
    let mut drain = Duration::ZERO;
    for _ in 0..2 {
        let rep = summarize(&run_stop_the_world(&stream, &candidates), Duration::ZERO);
        stop.mean = stop.mean.min(rep.mean);
        stop.worst = stop.worst.min(rep.worst);
        let (times, rep_drain, rep_lag) = run_double_buffered(&stream, &candidates);
        let rep = summarize(&times, rep_drain);
        if rep.mean < dbuf.mean {
            drain = rep_drain;
        }
        dbuf.mean = dbuf.mean.min(rep.mean);
        dbuf.worst = dbuf.worst.min(rep.worst);
        max_lag = max_lag.max(rep_lag);
    }

    // The multi-process legs: a shorter stream (spawn + bootstrap of real
    // worker processes is the fixed cost here, not the per-cycle loop),
    // same arrivals-per-cycle pressure, same screening query.
    let cluster_cycles: usize = std::env::var("CLUSTER_SERVING_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cycles.min(40));
    let cluster_stream = zipf_stream(cluster_cycles);
    // (shards per front, fronts, bench id)
    let deployments: [(usize, usize, &str); 3] = [
        (1, 1, "cluster_1worker"),
        (4, 1, "cluster_4worker_sharded"),
        (1, 4, "cluster_4worker_replicated"),
    ];
    let mut cluster = [Windows {
        mean: Duration::MAX,
        worst: Duration::MAX,
    }; 3];
    for rep in 0..2 {
        for (leg, &(shards, fronts, id)) in deployments.iter().enumerate() {
            let tag = format!("{id}-{rep}");
            let times = run_cluster(&cluster_stream, &candidates, shards, fronts, &tag);
            let w = summarize(&times, Duration::ZERO);
            cluster[leg].mean = cluster[leg].mean.min(w.mean);
            cluster[leg].worst = cluster[leg].worst.min(w.worst);
        }
    }

    // The persistence leg: one "iter" is one full engine restart, best
    // of three.
    let graph = screening_graph();
    let [cold_text, snap_load] = run_bootstrap_legs(&graph, 3);
    drop(graph);

    // The live-rebalance leg: one "iter" is one screening query; the
    // failed-query count rides the same line grammar as a raw ns value
    // so `bench_check` can gate it to exactly zero.
    let (rebal_steady, rebal_worst, rebal_failed) = run_rebalance_leg(&candidates, 2);

    // One "iter" is one cycle: ingest BATCHES_PER_CYCLE 64-edge batches +
    // one 200-candidate screening round. Sustained QPS is the reciprocal
    // of the mean (deferred drain included for the double-buffered mode).
    print_bench("sustained_stop_the_world", stop.mean);
    print_bench("sustained_double_buffered", dbuf.mean);
    print_bench("worst_window_stop_the_world", stop.worst);
    print_bench("worst_window_double_buffered", dbuf.worst);
    for (leg, &(_, _, id)) in deployments.iter().enumerate() {
        print_bench(&format!("sustained_{id}"), cluster[leg].mean);
    }
    print_bench("cold_text_build", cold_text);
    print_bench("snapshot_load", snap_load);
    print_bench("rebalance_steady_query", rebal_steady);
    print_bench("rebalance_worst_query", rebal_worst);
    println!(
        "bench: micro/streaming_serving/{:<37} {rebal_failed:>10} ns/iter",
        "rebalance_failed_queries"
    );

    let qps = |w: &Windows| 1.0 / w.mean.as_secs_f64();
    println!(
        "info: streaming_serving cycles={cycles} qps_stop={:.1} qps_double={:.1} \
         speedup={:.2}x worst_ratio={:.2}x max_ingest_lag={max_lag} drain_ms={:.1}",
        qps(&stop),
        qps(&dbuf),
        qps(&dbuf) / qps(&stop),
        stop.worst.as_secs_f64() / dbuf.worst.as_secs_f64(),
        drain.as_secs_f64() * 1e3,
    );
    println!(
        "info: streaming_serving cluster cycles={cluster_cycles} qps_1w={:.1} \
         qps_4w_sharded={:.1} qps_4w_replicated={:.1} shard_vs_replicated={:.2}x \
         fanout_overhead_4w_vs_1w={:.2}x",
        qps(&cluster[0]),
        qps(&cluster[1]),
        qps(&cluster[2]),
        qps(&cluster[1]) / qps(&cluster[2]),
        cluster[1].mean.as_secs_f64() / cluster[0].mean.as_secs_f64(),
    );
    println!(
        "info: streaming_serving rebalance steady_query_ms={:.2} worst_query_ms={:.2} \
         mid_rebalance_tax={:.2}x failed_queries={rebal_failed}",
        rebal_steady.as_secs_f64() * 1e3,
        rebal_worst.as_secs_f64() * 1e3,
        rebal_worst.as_secs_f64() / rebal_steady.as_secs_f64(),
    );
    println!(
        "info: streaming_serving bootstrap cold_text_ms={:.1} snapshot_load_ms={:.1} \
         restart_speedup={:.2}x",
        cold_text.as_secs_f64() * 1e3,
        snap_load.as_secs_f64() * 1e3,
        cold_text.as_secs_f64() / snap_load.as_secs_f64(),
    );
}
