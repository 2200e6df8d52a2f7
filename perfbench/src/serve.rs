//! `screen_serve_bx`: an open loop against a `ServingEngine` on the BX
//! graph. Screening queries (one target × 256 degree-weighted candidates)
//! arrive at a fixed rate beside a fixed-rate stream of 64-edge write
//! batches. A write is visible once `stats().published` reaches its
//! `extend` sequence number, as the client observes between operations.
//!
//! Answers served while every earlier write was visible come from a known
//! graph state; a sample of them is re-run and scored after the run (see
//! [`crate::replay`]). The traced run pins a snapshot and calls
//! `round1_in`, `batch_round2` and `assemble_report` on its `env()` in
//! place of `estimate_batch`, then replays the writes on a replica engine
//! at the coalescing size the writer thread was observed to use, timing
//! `apply_updates` and `warm_touched`.

use crate::gen::{self, Op, Rates};
use crate::openloop::{run_phase, Phase, Server};
use crate::replay::{self, decompose, Answer, Samples};
use crate::report::{self, batch_ok, ms, report_bytes, Outcome, EPSILON, SETUP_REPS};
use crate::stats::{mean, median, summarize};
use crate::trace::Tracer;
use bigraph::{BipartiteGraph, GraphDelta, Layer, UpdateBatch, VertexId};
use cne::engine::EstimationEngine;
use cne::{BatchReport, ServingConfig, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

/// Arrival rates of both screening workloads: 40% of the mix one client
/// saturates through the 2-worker cluster on a 2-core host (about 200
/// queries and 40 flushed writes per second). Four frames in five keep
/// their queries 25 ms clear of the write, past a cluster flush up to twice
/// its median; every fifth sends its queries right behind the write. Those
/// reads meet the write in progress (the serving writer's splices, the
/// cluster's flush) and set the query tail of both paths.
pub const RATES: Rates = Rates {
    query_per_s: 80.0,
    write_per_s: 16.0,
    quiet_s: 0.025,
    burst_every: 5,
    burst_gap_s: 0.0045,
};
/// Screening queries that warm each set-up before timing.
pub const WARMUP_QUERIES: usize = 16;
/// Coalesced splices the traced run replays.
const SPLICE_REPLAYS: usize = 48;

/// Builds the serving tier: both buffers warmed on the user layer, then
/// warm-up queries. Returns the tier and the build time in seconds.
fn build(g: &BipartiteGraph, warmup: &[Op]) -> (ServingEngine, f64) {
    let graph = g.clone();
    let t0 = Instant::now();
    let serving = ServingEngine::with_config(
        graph,
        ServingConfig {
            warm_layer: Some(Layer::Upper),
            ..ServingConfig::default()
        },
    );
    for op in warmup {
        if let Op::Query {
            target,
            candidates,
            seed,
        } = op
        {
            let mut rng = StdRng::seed_from_u64(*seed);
            let _ = serving.estimate_batch(Layer::Upper, *target, candidates, EPSILON, &mut rng);
        }
    }
    (serving, t0.elapsed().as_secs_f64())
}

struct ServeTarget<'a> {
    serving: &'a ServingEngine,
    pending: VecDeque<(u64, Instant)>,
    writes_done: usize,
    samples: Samples,
    extend_us: Vec<f64>,
}

impl Server for ServeTarget<'_> {
    fn query(
        &mut self,
        target: VertexId,
        candidates: &[VertexId],
        seed: u64,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<BatchReport, String> {
        let Some((tr, root)) = tracer else {
            let mut rng = StdRng::seed_from_u64(seed);
            return self
                .serving
                .estimate_batch(Layer::Upper, target, candidates, EPSILON, &mut rng)
                .map_err(|e| e.to_string());
        };
        let snap = tr.time("cne.serving.pin", root, || self.serving.snapshot());
        decompose(snap.env(), target, candidates, seed, Some((tr, root))).map(|(_, report)| report)
    }

    fn write(
        &mut self,
        deltas: &[GraphDelta],
        due: Instant,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<Option<f64>, String> {
        let t0 = Instant::now();
        let seq = match tracer {
            None => self.serving.extend(deltas.iter().copied()),
            Some((tr, root)) => tr.time("cne.serving.extend", root, || {
                self.serving.extend(deltas.iter().copied())
            }),
        };
        self.extend_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.pending.push_back((seq, due));
        self.writes_done += 1;
        Ok(None)
    }

    fn poll(&mut self, visible: &mut Vec<f64>) -> usize {
        if let Some(&(oldest, _)) = self.pending.front() {
            let published = self.serving.stats().published;
            if published >= oldest {
                let now = Instant::now();
                while let Some(&(seq, due)) = self.pending.front() {
                    if seq > published {
                        break;
                    }
                    visible.push(ms(now - due));
                    self.pending.pop_front();
                }
            }
        }
        self.pending.len()
    }

    fn keep(&mut self, answer: Answer<'_>) {
        // No write arrives between the poll before a query and this call,
        // so with nothing pending the answer saw every write sent so far.
        let visible = self.pending.is_empty().then_some(self.writes_done);
        self.samples.offer(visible, answer);
    }
}

/// Checks on warm-up queries that the traced decomposition answers
/// byte-identically to `estimate_batch` on the same pinned snapshot.
pub fn check_decomposition(serving: &ServingEngine, warmup: &[Op], out: &mut Outcome) {
    for op in warmup.iter().take(4) {
        let Op::Query {
            target,
            candidates,
            seed,
        } = op
        else {
            continue;
        };
        let snap = serving.snapshot();
        let whole = snap.estimate_batch(
            Layer::Upper,
            *target,
            candidates,
            EPSILON,
            &mut StdRng::seed_from_u64(*seed),
        );
        let parts = decompose(snap.env(), *target, candidates, *seed, None);
        let same = match (whole, parts) {
            (Ok(a), Ok((_, b))) => report_bytes(&a) == report_bytes(&b) && batch_ok(&a, candidates),
            _ => false,
        };
        if same {
            out.check(true);
        } else {
            out.fail("the traced decomposition differs from estimate_batch");
        }
    }
}

/// Replays `writes` on a fresh engine over `g`, coalesced `per_splice`
/// batches at a time, timing each splice and the re-warm after it.
/// Returns (splice ms, warm ms, deltas per splice).
pub fn replay_splices(
    g: &BipartiteGraph,
    writes: &[&[GraphDelta]],
    per_splice: usize,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, f64) {
    let mut replica = EstimationEngine::from_graph(g.clone());
    replica.warm(Layer::Upper);
    let (mut splice, mut warm, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for group in writes.chunks(per_splice.max(1)).take(SPLICE_REPLAYS) {
        let batch: UpdateBatch = group.iter().flat_map(|d| d.iter().copied()).collect();
        sizes.push(batch.len() as f64);
        let t0 = Instant::now();
        let applied = replica.apply_updates(&batch);
        splice.push(ms(t0.elapsed()));
        match applied {
            Ok(applied) => {
                let t0 = Instant::now();
                replica.warm_touched(&applied);
                warm.push(ms(t0.elapsed()));
                out.check(true);
            }
            Err(e) => {
                out.check(false);
                eprintln!("replayed splice failed: {e}");
            }
        }
    }
    let per_splice = mean(&sizes);
    (splice, warm, per_splice)
}

/// Sets the open-loop end-to-end metrics shared by both screening
/// workloads and prints their summaries.
pub fn report_phase(out: &mut Outcome, phase: &Phase, setup_s: f64, mae: f64, rss_mb: f64) {
    let q = summarize(&phase.latency);
    let v = summarize(&phase.visible);
    let late = summarize(&phase.late);
    report::print_summary("query_ms", "ms", &q);
    report::print_summary("query_service_ms", "ms", &summarize(&phase.service));
    report::print_summary("ingest_visible_ms", "ms", &v);
    report::print_summary("gen_late_ms", "ms", &late);
    out.set("setup_s", setup_s);
    out.set("query_ms_p50", q.p50);
    out.set("query_ms_p99", q.tail);
    out.set("throughput_qps", phase.throughput());
    out.set("ingest_visible_ms_p50", v.p50);
    out.set("ingest_visible_ms_p99", v.tail);
    out.set("mae", mae);
    out.set("comm_kb_per_query", mean(&phase.comm_bytes) / 1024.0);
    out.set("peak_rss_mb", rss_mb);
    out.set("bench.gen_late_ms_p99", late.tail);
    out.set("bench.query_samples", q.n as f64);
}

/// Runs `screen_serve_bx` for `seconds`; with `trace`, every other
/// operation is traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let g = gen::bx_graph();
    let events = gen::open_loop_schedule(&g, seed, seconds, RATES);
    let warmup = gen::warmup_queries(&g, WARMUP_QUERIES);
    let mut setups = Vec::new();
    let mut serving = None;
    for _ in 0..SETUP_REPS {
        drop(serving.take());
        let (s, secs) = build(&g, &warmup);
        setups.push(secs);
        serving = Some(s);
    }
    let serving = serving.expect("at least one setup");
    let setup_s = median(&setups);
    println!(
        "screen_serve_bx: {} q/s x {} candidates, {} write batches/s x {} deltas, eps={EPSILON}, setup {setup_s:.4} s",
        RATES.query_per_s,
        gen::CANDIDATES,
        RATES.write_per_s,
        gen::BATCH_DELTAS
    );
    let mut target = ServeTarget {
        serving: &serving,
        pending: VecDeque::new(),
        writes_done: 0,
        samples: Samples::default(),
        extend_us: Vec::new(),
    };
    let mut tr = Tracer::new();
    if trace {
        check_decomposition(&serving, &warmup, &mut out);
    }
    let phase = run_phase(&mut target, &events, &mut out, trace.then_some(&mut tr));
    let rss = crate::host::own_peak_rss_mb();
    let stats = serving.stats();
    let (samples, extend_us) = (target.samples.kept, target.extend_us);
    // The writer thread stops before the replay competes with it.
    drop(serving);
    let writes = gen::write_batches(&events);
    let r = replay::replay(&g, &writes, &samples, &mut out, |_, _| Ok(()));
    report_phase(&mut out, &phase, setup_s, mean(&r.abs_err), rss);
    if !trace {
        return out;
    }

    let per_publish = stats.published as f64 / stats.epoch.max(1) as f64;
    let batches_per_splice = (per_publish / gen::BATCH_DELTAS as f64).round().max(1.0) as usize;
    let (splice, warm, per_splice) = replay_splices(&g, &writes, batches_per_splice, &mut out);

    let us = |name: &str| tr.durations_us(name);
    out.set("cne.batch.round1_us_p50", median(&us("cne.batch.round1")));
    out.set(
        "cne.batch.round2_us_per_candidate",
        median(&us("cne.batch.round2")) / gen::CANDIDATES as f64,
    );
    out.set(
        "cne.batch.assemble_us_p50",
        median(&us("cne.batch.assemble")),
    );
    out.set(
        "cne.serving.pin_us_p99",
        summarize(&us("cne.serving.pin")).tail,
    );
    out.set("cne.serving.extend_us_p50", median(&extend_us));
    out.set("cne.serving.deltas_per_publish", per_publish);
    out.set("cne.serving.lag_p95", stats.lag_p95 as f64);
    out.set("cne.engine.dense_candidate_share", median(&r.dense));
    out.set("cne.engine.warm_touched_ms_p50", median(&warm));
    out.set("bigraph.delta.splice_ms_p50", median(&splice));
    out.set("bigraph.delta.deltas_per_splice", per_splice);
    let count = |name: &str| tr.spans().iter().filter(|s| s.name == name).count();
    crate::tracefile::finish(
        "screen_serve_bx",
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
            ("writer.deltas_per_publish", per_publish, "count"),
            ("writer.splice_ms_p50_replayed", median(&splice), "ms"),
            ("writer.warm_touched_ms_p50_replayed", median(&warm), "ms"),
        ],
        &mut out,
    );
    out
}
