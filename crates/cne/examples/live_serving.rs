//! Live serving: queries never wait on a splice.
//!
//! [`streaming_recommendation`](../examples/streaming_recommendation.rs)
//! interleaves ingestion and queries on one thread — between rounds, the
//! world stops while `apply_updates` splices the CSR. This example runs
//! the same workload through a [`ServingEngine`]: producer threads append
//! edge events to the engine's sharded update log *while* reader threads
//! screen candidates through epoch-pinned snapshots, and a dedicated
//! writer thread coalesces everything pending into one splice per
//! publish.
//!
//! What to watch in the output:
//!
//! * readers report **QPS** — no query round ever blocks on a splice, so
//!   throughput stays flat whether or not the stream is bursting;
//! * readers report **snapshot lag** — how many appended deltas were not
//!   yet visible at the pinned epoch. Lag is bounded by the writer's
//!   cadence (and drains to zero at `flush`), which is the freshness ↔
//!   throughput trade the serving tier makes explicit;
//! * the final stats line shows epochs published vs deltas appended: the
//!   writer published far fewer times than it ingested batches, because a
//!   publish coalesces every delta that arrived since the last one.
//!
//! Run with `cargo run --release --example live_serving`.

use bigraph::{GraphDelta, Layer};
use cne::serving::{ServingConfig, ServingEngine};
use datasets::{Catalog, DatasetCode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::thread;
use std::time::{Duration, Instant};

const EPSILON: f64 = 2.0;
const PRODUCERS: usize = 2;
const READERS: usize = 2;
const EVENTS_PER_PRODUCER: usize = 6_000;
const BURST: usize = 100;
const QUERY_ROUNDS_PER_READER: usize = 120;

fn main() {
    // A synthetic Movielens-like user–movie graph as the starting state.
    let catalog = Catalog::scaled(50_000);
    let dataset = catalog
        .generate(DatasetCode::ML, 7)
        .expect("ML profile exists");
    let n_upper = dataset.graph.n_upper();
    let n_lower = dataset.graph.n_lower();
    println!(
        "Dataset {}: |U|={}, |L|={}, |E|={}",
        dataset.code,
        n_upper,
        n_lower,
        dataset.graph.n_edges()
    );

    let target = (0..n_upper as u32)
        .max_by_key(|&u| dataset.graph.degree(Layer::Upper, u))
        .expect("non-empty layer");
    let candidates: Vec<u32> = (0..n_upper as u32)
        .filter(|&u| u != target && dataset.graph.degree(Layer::Upper, u) > 0)
        .collect();

    let serving = ServingEngine::with_config(
        dataset.graph,
        ServingConfig {
            warm_layer: Some(Layer::Upper),
            poll_interval: Duration::from_millis(2),
            ..ServingConfig::default()
        },
    );
    let start = Instant::now();
    let (queries, lag_sum, lag_max) = thread::scope(|s| {
        // --- Producers: a continuous 3:1 add/retire edge stream. --------
        for p in 0..PRODUCERS {
            let serving = &serving;
            s.spawn(move || {
                let mut traffic = ChaCha8Rng::seed_from_u64(404 + p as u64);
                for burst in 0..EVENTS_PER_PRODUCER / BURST {
                    serving.extend((0..BURST).map(|_| {
                        let upper = traffic.gen_range(0..n_upper as u32);
                        let lower = traffic.gen_range(0..n_lower as u32);
                        if traffic.gen_range(0..4) < 3 {
                            GraphDelta::AddEdge { upper, lower }
                        } else {
                            GraphDelta::RemoveEdge { upper, lower }
                        }
                    }));
                    // Pace the stream so it overlaps the query window.
                    if burst % 8 == 7 {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }

        // --- Readers: screen the candidate set via pinned snapshots. ----
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let serving = &serving;
                let candidates = &candidates;
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(99 + r as u64);
                    let mut lag_sum = 0u64;
                    let mut lag_max = 0u64;
                    let t0 = Instant::now();
                    for round in 0..QUERY_ROUNDS_PER_READER {
                        let snap = serving.snapshot();
                        let report = snap
                            .estimate_batch(Layer::Upper, target, candidates, EPSILON, &mut rng)
                            .expect("serving snapshot is always current");
                        let lag = serving.stats().ingest_lag;
                        lag_sum += lag;
                        lag_max = lag_max.max(lag);
                        if r == 0 && round % 30 == 0 {
                            let best = report.ranked()[0];
                            println!(
                                "  reader0 round {round:>2}: epoch {} gen {} lag {lag:>5} \
                                 | best match u{} (C2 ≈ {:.1})",
                                snap.epoch(),
                                snap.generation(),
                                best.candidate,
                                best.estimate,
                            );
                        }
                    }
                    let elapsed = t0.elapsed();
                    (QUERY_ROUNDS_PER_READER, elapsed, lag_sum, lag_max)
                })
            })
            .collect();

        let mut queries = 0usize;
        let mut lag_sum = 0u64;
        let mut lag_max = 0u64;
        for handle in readers {
            let (rounds, elapsed, sum, max) = handle.join().expect("reader thread");
            println!(
                "reader finished: {rounds} rounds in {elapsed:.2?} \
                 ({:.1} queries/s, never blocked on a splice)",
                rounds as f64 / elapsed.as_secs_f64()
            );
            queries += rounds;
            lag_sum += sum;
            lag_max = lag_max.max(max);
        }
        (queries, lag_sum, lag_max)
    });
    let serve_window = start.elapsed();

    // Drain what the stream left behind; the live buffer is now current.
    serving.flush();
    let stats = serving.stats();
    println!(
        "\nServed {queries} query rounds in {serve_window:.2?} ({:.1} QPS aggregate) \
         while ingesting {} deltas",
        queries as f64 / serve_window.as_secs_f64(),
        stats.appended,
    );
    println!(
        "Snapshot lag: mean {:.0} deltas, p50 {} / p95 {} (log2 buckets over {} snapshots), \
         max {lag_max} (0 after flush: published={})",
        lag_sum as f64 / queries as f64,
        stats.lag_p50,
        stats.lag_p95,
        stats.snapshots,
        stats.published,
    );
    println!(
        "Writer: {} epochs published for {} appended deltas ({} rejected) — \
         one coalesced splice per publish",
        stats.epoch, stats.appended, stats.rejected,
    );

    // Hand the graph back to single-owner workflows (checkpointing etc.).
    let engine = serving.into_engine();
    println!(
        "Final graph after teardown: |E|={} at generation {}",
        engine.graph().n_edges(),
        engine.generation()
    );
}
