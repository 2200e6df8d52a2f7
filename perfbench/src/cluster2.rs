//! `screen_cluster2_bx`: the `screen_serve_bx` arrival schedule through a
//! `Coordinator` over 2 shard workers, flushing after each write arrival
//! (the bounded-staleness mode), so a write is visible when its covering
//! `flush()` returns. It is the only workload that crosses `cluster::wire`
//! and the coordinator.
//!
//! After the run, a seeded sample of the answered queries is re-run on an
//! in-process engine at the same flushed log position and must match the
//! cluster's reports byte for byte, the cluster's standing contract. The
//! traced run times the coordinator calls from outside and derives the
//! in-process share of each query by replaying its round 1, round 2 and
//! assembly on that engine, plus the wire codec on the frames it sends.

use crate::gen::{self, Op};
use crate::openloop::{run_phase, Server};
use crate::replay::{self, Answer, Sample, Samples};
use crate::report::{self, ms, Outcome, EPSILON, SETUP_REPS};
use crate::serve::{self, RATES, WARMUP_QUERIES};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, GraphDelta, Layer, VertexId};
use cluster::wire::{Message, WireRound1};
use cluster::{worker_command, ClusterConfig, Coordinator};
use cne::{BatchReport, BatchSingleSource};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shard workers of the cluster.
pub const WORKERS: u32 = 2;

/// An even split of the user layer, the last range open-ended.
fn shard_ranges(n_upper: usize) -> Vec<Range<u32>> {
    let cut = (n_upper as u64 / u64::from(WORKERS)) as u32;
    vec![0..cut, cut..u32::MAX]
}

struct Cluster {
    coordinator: Coordinator,
    worker_pids: Vec<u32>,
    spawn_s: f64,
}

/// Captures a snapshot of `g`, spawns the workers from it (this binary
/// re-executed) and sends the warm-up queries. Returns the cluster and the
/// total set-up time in seconds.
fn build(g: &BipartiteGraph, dir: &Path, warmup: &[Op]) -> (Cluster, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the cluster directory");
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let pids = Arc::new(Mutex::new(Vec::new()));
    let launched = Arc::clone(&pids);
    let t0 = Instant::now();
    let snapshot = GraphSnapshot::capture(g, 0);
    let t1 = Instant::now();
    let mut coordinator = Coordinator::spawn_partitioned_from_snapshot(
        &snapshot,
        Layer::Upper,
        shard_ranges(g.n_upper()),
        dir,
        ClusterConfig::default(),
        move |spec| {
            let child = worker_command(&exe, spec).spawn()?;
            launched.lock().expect("pid list").push(child.id());
            Ok(child)
        },
    )
    .expect("spawn the shard workers");
    let spawn_s = t1.elapsed().as_secs_f64();
    for op in warmup {
        if let Op::Query {
            target,
            candidates,
            seed,
        } = op
        {
            let _ = coordinator.estimate_batch(Layer::Upper, *target, candidates, EPSILON, *seed);
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let worker_pids = pids.lock().expect("pid list").clone();
    (
        Cluster {
            coordinator,
            worker_pids,
            spawn_s,
        },
        setup_s,
    )
}

struct ClusterTarget<'a> {
    coordinator: &'a mut Coordinator,
    writes_done: usize,
    samples: Samples,
}

impl Server for ClusterTarget<'_> {
    fn query(
        &mut self,
        target: VertexId,
        candidates: &[VertexId],
        seed: u64,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<BatchReport, String> {
        let call =
            |c: &mut Coordinator| c.estimate_batch(Layer::Upper, target, candidates, EPSILON, seed);
        match tracer {
            None => call(self.coordinator),
            Some((tr, root)) => tr.time("cluster.coordinator.estimate_batch", root, || {
                call(self.coordinator)
            }),
        }
        .map_err(|e| e.to_string())
    }

    fn write(
        &mut self,
        deltas: &[GraphDelta],
        due: Instant,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<Option<f64>, String> {
        let c = &mut *self.coordinator;
        match tracer {
            None => {
                c.extend(deltas.iter().copied());
                c.flush().map_err(|e| e.to_string())?;
            }
            Some((tr, root)) => {
                tr.time("cluster.coordinator.extend", root, || {
                    c.extend(deltas.iter().copied())
                });
                tr.time("cluster.coordinator.pump", root, || c.pump())
                    .map_err(|e| e.to_string())?;
                tr.time("cluster.coordinator.flush", root, || c.flush())
                    .map_err(|e| e.to_string())?;
            }
        }
        self.writes_done += 1;
        Ok(Some(ms(due.elapsed())))
    }

    fn poll(&mut self, _visible: &mut Vec<f64>) -> usize {
        0
    }

    fn keep(&mut self, answer: Answer<'_>) {
        // Every write is flushed before the next operation is sent.
        self.samples.offer(Some(self.writes_done), answer);
    }
}

/// What the wire codec measured on the traced answers' frames.
#[derive(Default)]
struct Codec {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    frame_bytes: Vec<f64>,
}

/// The frames one screening query puts on the wire: the round-1 request
/// and response at the target's owner, and one round-2 request and
/// response per worker owning candidates.
fn query_frames(
    ranges: &[Range<u32>],
    s: &Sample,
    round1: &cne::BatchRound1,
    algo: &BatchSingleSource,
) -> Vec<Message> {
    let set = round1.noisy_target.set();
    let wire = WireRound1 {
        epsilon: round1.epsilon,
        flip_probability: round1.flip_probability,
        eps2: round1.eps2.value(),
        rr_epsilon: round1.noisy_target.epsilon,
        base_seed: round1.base_seed,
        universe: set.universe() as u64,
        words: set.as_words().to_vec(),
    };
    let mut frames = vec![
        Message::Round1Req {
            layer: Layer::Upper,
            target: s.target,
            epsilon: EPSILON,
            eps1_fraction: algo.epsilon1_fraction,
            seed: s.seed,
            candidates: s.candidates.clone(),
        },
        Message::Round1Resp(wire.clone()),
    ];
    for range in ranges {
        let owned: Vec<_> = s
            .report
            .estimates
            .iter()
            .filter(|e| range.contains(&e.candidate))
            .collect();
        if owned.is_empty() {
            continue;
        }
        frames.push(Message::Round2Req {
            layer: Layer::Upper,
            owner: s.target,
            round1: wire.clone(),
            candidates: owned.iter().map(|e| e.candidate).collect(),
        });
        frames.push(Message::Round2Resp {
            estimates: owned
                .iter()
                .map(|e| (e.candidate, e.estimate.to_bits()))
                .collect(),
        });
    }
    frames
}

impl Codec {
    /// Encodes and decodes the frames of one traced answer, timing both;
    /// every frame must survive the round trip unchanged.
    fn round_trip(
        &mut self,
        ranges: &[Range<u32>],
        s: &Sample,
        round1: &cne::BatchRound1,
    ) -> Result<(), String> {
        let frames = query_frames(ranges, s, round1, &BatchSingleSource::default());
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(Message::to_frame_bytes).collect();
        self.encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let decoded: Vec<_> = encoded
            .iter()
            .map(|bytes| Message::read_from(&mut bytes.as_slice()))
            .collect();
        self.decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.frame_bytes
            .push(encoded.iter().map(Vec::len).sum::<usize>() as f64);
        let same = decoded
            .iter()
            .zip(&frames)
            .all(|(d, f)| d.as_ref().is_ok_and(|d| d == f));
        if same {
            Ok(())
        } else {
            Err("a query frame did not survive encode and decode".into())
        }
    }
}

/// Runs `screen_cluster2_bx` for `seconds`; with `trace`, every other
/// operation is traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let g = gen::bx_graph();
    let events = gen::open_loop_schedule(&g, seed, seconds, RATES);
    let warmup = gen::warmup_queries(&g, WARMUP_QUERIES);
    let dir: PathBuf = report::out_dir().join(format!("cluster-{}", std::process::id()));
    let (mut setups, mut spawns) = (Vec::new(), Vec::new());
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        drop(cluster.take());
        let (c, secs) = build(&g, &dir, &warmup);
        setups.push(secs);
        spawns.push(c.spawn_s);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one setup");
    let setup_s = median(&setups);
    println!(
        "screen_cluster2_bx: {WORKERS} shard workers, {} q/s x {} candidates, {} write batches/s x {} deltas (flush per write), eps={EPSILON}, setup {setup_s:.4} s",
        RATES.query_per_s,
        gen::CANDIDATES,
        RATES.write_per_s,
        gen::BATCH_DELTAS
    );
    let mut tr = Tracer::new();
    let mut target = ClusterTarget {
        coordinator: &mut cluster.coordinator,
        writes_done: 0,
        samples: Samples::default(),
    };
    let phase = run_phase(&mut target, &events, &mut out, trace.then_some(&mut tr));
    let samples = target.samples.kept;
    let rss = crate::host::own_peak_rss_mb()
        + cluster
            .worker_pids
            .iter()
            .filter_map(|&pid| crate::host::peak_rss_mb(pid))
            .sum::<f64>();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    let writes = gen::write_batches(&events);
    let ranges = shard_ranges(g.n_upper());
    let mut codec = Codec::default();
    let r = replay::replay(&g, &writes, &samples, &mut out, |s, round1| {
        codec.round_trip(&ranges, s, round1)
    });
    serve::report_phase(&mut out, &phase, setup_s, mean(&r.abs_err), rss);
    if !trace {
        return out;
    }

    let us = |name: &str| tr.durations_us(name);
    let est_ms: Vec<f64> = us("cluster.coordinator.estimate_batch")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    let phase_us = |name: &str| median(&r.phases.durations_us(name));
    let (round1_us, round2_us, assemble_us) = (
        phase_us("cne.batch.round1"),
        phase_us("cne.batch.round2"),
        phase_us("cne.batch.assemble"),
    );
    out.set("cne.batch.round1_us_p50", round1_us);
    out.set(
        "cne.batch.round2_us_per_candidate",
        round2_us / gen::CANDIDATES as f64,
    );
    out.set("cne.batch.assemble_us_p50", assemble_us);
    out.set("cne.engine.dense_candidate_share", median(&r.dense));
    out.set("bigraph.delta.splice_ms_p50", median(&r.splice_ms));
    out.set("bigraph.delta.deltas_per_splice", gen::BATCH_DELTAS as f64);
    out.set("cluster.wire.encode_us_p50", median(&codec.encode_us));
    out.set("cluster.wire.decode_us_p50", median(&codec.decode_us));
    out.set("cluster.wire.bytes_per_query", median(&codec.frame_bytes));
    out.set(
        "cluster.coordinator.query_overhead_ms_p50",
        median(&r.overhead_ms),
    );
    out.set("cluster.coordinator.estimate_batch_ms_p50", median(&est_ms));
    out.set(
        "cluster.coordinator.pump_ms_p50",
        median(&us("cluster.coordinator.pump")) / 1e3,
    );
    out.set(
        "cluster.coordinator.flush_ms_p50",
        median(&us("cluster.coordinator.flush")) / 1e3,
    );
    out.set("cluster.coordinator.spawn_s", median(&spawns));
    let count = |name: &str| tr.spans().iter().filter(|s| s.name == name).count();
    crate::tracefile::finish(
        "screen_cluster2_bx",
        seed,
        &tr,
        &[
            (
                "bench.query",
                mean(&phase.untraced_service),
                count("bench.query"),
            ),
            (
                "bench.ingest",
                mean(&phase.untraced_submit),
                count("bench.ingest"),
            ),
        ],
        &[
            ("in_process.round1_us_p50", round1_us, "us"),
            ("in_process.round2_us_p50", round2_us, "us"),
            ("in_process.assemble_us_p50", assemble_us, "us"),
            ("wire.encode_us_p50", median(&codec.encode_us), "us"),
            ("wire.decode_us_p50", median(&codec.decode_us), "us"),
            ("wire.bytes_per_query", median(&codec.frame_bytes), "B"),
            ("coordinator.estimate_batch_ms_p50", median(&est_ms), "ms"),
            (
                "coordinator.query_overhead_ms_p50_derived",
                median(&r.overhead_ms),
                "ms",
            ),
        ],
        &mut out,
    );
    out
}
