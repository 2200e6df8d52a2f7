//! `pairs_bx`: the paper's evaluation protocol as a closed loop with one
//! client and no concurrent writes. Each pair of the seeded pair set runs
//! through MultiR-SS, MultiR-DS, MultiR-DS* and OneR via
//! `EstimationEngine::estimate`, pass after pass, until the run's time is
//! up. Every 500 queries, a stop-the-world ingest path applies write batches
//! (`apply_updates` then `warm_touched`) to a second engine over the same
//! graph, which gives the in-process engine path its ingest-to-visible
//! figure without letting any write reach a timed query.
//!
//! The traced run replays each algorithm from the public functions of its
//! layers (`ldp` Laplace and randomized response, `cne::optimizer`,
//! `cne::single_source`) in the order the estimator calls them, and
//! requires the replay's estimate to be bit-identical to the engine's. The
//! degree round's per-layer figure is derived from the engine's own
//! timings instead: MultiR-DS minus MultiR-DS* on the same pair.

use crate::gen::{self, mix};
use crate::report::{self, ms, Outcome, EPSILON, SETUP_REPS};
use crate::stats::{mean, median, summarize};
use crate::trace::Tracer;
use bigraph::{BipartiteGraph, Layer, UpdateBatch, VertexId};
use cne::engine::{EstimationEngine, ProtocolEnv, RoundContext};
use cne::optimizer::optimize_double_source;
use cne::protocol::randomized_response_round_packed;
use cne::single_source::{single_source_laplace, single_source_value_scratch};
use cne::{AlgorithmKind, MultiRDS, MultiRSS, OneR, Query};
use ldp::budget::Composition;
use ldp::noisy_graph::NoisyGraphViewPacked;
use ldp::{Direction, LaplaceMechanism, PrivacyBudget, Sensitivity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Uniform pairs per pass.
pub const UNIFORM_PAIRS: usize = 500;
/// Imbalanced pairs per pass.
pub const IMBALANCED_PAIRS: usize = 500;
/// Degree-imbalance threshold κ of the imbalanced pairs (Fig. 9).
pub const KAPPA: f64 = 10.0;
/// The four estimators every pair runs through, in this order.
pub const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::MultiRSS,
    AlgorithmKind::MultiRDS,
    AlgorithmKind::MultiRDSStar,
    AlgorithmKind::OneR,
];
/// Write batches of the ingest path (every other one traced in a traced
/// run).
pub const INGEST_BATCHES: usize = 400;
/// Queries between two slices of the ingest path.
const INGEST_EVERY: usize = 500;
/// Write batches per slice of the ingest path.
const INGEST_SLICE: usize = 10;
/// Pairs whose queries warm the engine during set-up.
const WARMUP_PAIRS: usize = 16;
/// Pass-0 queries re-run at the end to check determinism in-process.
const RECHECK_QUERIES: usize = 64;

/// Seed of query `index` in pass `pass`. Pass 0's seeds fix the run's
/// estimates, and with them `mae` and the fingerprint.
fn query_seed(seed: u64, pass: u64, index: usize) -> u64 {
    mix(mix(seed, 100 + pass), index as u64)
}

struct Setup {
    engine: EstimationEngine<'static>,
    setup_s: f64,
    build_s: f64,
    warm_s: f64,
}

/// Builds and warms the engine `SETUP_REPS` times; keeps the last.
fn setup(g: &BipartiteGraph) -> Setup {
    let pairs = gen::pair_set(g, gen::WARMUP_SEED, WARMUP_PAIRS, 0, KAPPA);
    let (mut total, mut build, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let graph = g.clone();
        let t0 = Instant::now();
        let e = EstimationEngine::from_graph(graph);
        let t1 = Instant::now();
        e.warm(Layer::Upper);
        let t2 = Instant::now();
        let mut rng = StdRng::seed_from_u64(gen::WARMUP_SEED);
        for p in &pairs {
            for kind in ALGORITHMS {
                let q = Query::new(p.layer, p.u, p.w);
                let _ = e.estimate(&q, kind, EPSILON, &mut rng);
            }
        }
        total.push((Instant::now() - t0).as_secs_f64());
        build.push((t1 - t0).as_secs_f64());
        warm.push((t2 - t1).as_secs_f64());
        engine = Some(e);
    }
    Setup {
        engine: engine.expect("at least one setup"),
        setup_s: median(&total),
        build_s: median(&build),
        warm_s: median(&warm),
    }
}

/// One closed-loop query result of pass 0.
struct Pass0 {
    bits: Vec<u64>,
    comm_bytes: Vec<f64>,
    abs_err_ds: Vec<f64>,
}

/// The untraced closed loop. `pause` runs after every block of
/// [`INGEST_EVERY`] queries, off the clock. Returns per-query service
/// times (ms) and each block's throughput (queries/s); the run reports the
/// median block, so a host stall inside one block does not move it.
fn closed_loop(
    engine: &EstimationEngine<'static>,
    queries: &[(Query, u64)],
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    pass0: &mut Pass0,
    pause: &mut dyn FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let mut lat = Vec::new();
    let mut block_qps = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut block_start = Instant::now();
    let mut pass = 0u64;
    'outer: loop {
        for (i, (q, exact)) in queries.iter().enumerate() {
            let kind = ALGORITHMS[i % ALGORITHMS.len()];
            let mut rng = StdRng::seed_from_u64(query_seed(seed, pass, i));
            let t0 = Instant::now();
            let result = engine.estimate(q, kind, EPSILON, &mut rng);
            lat.push(ms(t0.elapsed()));
            let ok = match &result {
                Ok(r) => r.estimate.is_finite() && (r.budget.consumed() - EPSILON).abs() < 1e-9,
                Err(_) => false,
            };
            out.check(ok);
            if pass == 0 {
                let r = result.as_ref().ok();
                pass0.bits.push(r.map_or(0, |r| r.estimate.to_bits()));
                pass0
                    .comm_bytes
                    .push(r.map_or(0.0, |r| r.communication_bytes() as f64));
                if kind == AlgorithmKind::MultiRDS {
                    if let Some(r) = r {
                        pass0.abs_err_ds.push((r.estimate - *exact as f64).abs());
                    }
                }
            }
            if pass > 0 && Instant::now() >= deadline {
                break 'outer;
            }
            if lat.len().is_multiple_of(INGEST_EVERY) {
                block_qps.push(INGEST_EVERY as f64 / block_start.elapsed().as_secs_f64());
                pause();
                block_start = Instant::now();
            }
        }
        pass += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    (lat, block_qps)
}

/// One applied write batch of the ingest path.
struct Applied {
    /// Time until the batch was visible, ms.
    ms: f64,
    traced: bool,
    ok: bool,
}

/// Stop-the-world ingest: each batch is visible once `apply_updates` and
/// `warm_touched` return. With a tracer, every other batch is one
/// `bench.ingest` root with `bigraph.delta.splice` and
/// `cne.engine.warm_touched` children.
fn ingest_phase(
    engine: &mut EstimationEngine<'static>,
    batches: &[Vec<bigraph::GraphDelta>],
    mut tracer: Option<&mut Tracer>,
) -> Vec<Applied> {
    let mut applied_all = Vec::with_capacity(batches.len());
    for (k, deltas) in batches.iter().enumerate() {
        let batch: UpdateBatch = deltas.iter().copied().collect();
        let t0 = Instant::now();
        let traced = tracer.as_deref_mut().filter(|_| k % 2 == 0);
        let is_traced = traced.is_some();
        let ok = match traced {
            None => match engine.apply_updates(&batch) {
                Ok(applied) => {
                    engine.warm_touched(&applied);
                    true
                }
                Err(_) => false,
            },
            Some(tr) => {
                let root = tr.begin("bench.ingest", None);
                let applied = tr.time("bigraph.delta.splice", root, || {
                    engine.apply_updates(&batch)
                });
                let ok = match applied {
                    Ok(applied) => {
                        tr.time("cne.engine.warm_touched", root, || {
                            engine.warm_touched(&applied);
                        });
                        true
                    }
                    Err(_) => false,
                };
                tr.end(root);
                ok
            }
        };
        applied_all.push(Applied {
            ms: ms(t0.elapsed()),
            traced: is_traced,
            ok,
        });
    }
    applied_all
}

/// Noisy-row statistics the traced replay collects.
#[derive(Default)]
struct RowStats {
    bits: Vec<f64>,
}

/// MultiR-DS, replayed layer by layer (same calls, same order, same RNG
/// consumption as `MultiRDS::estimate_in`).
fn replay_ds(
    env: ProtocolEnv<'_>,
    q: &Query,
    rng: &mut StdRng,
    tr: &mut Tracer,
    root: u32,
    rows: &mut RowStats,
) -> cne::Result<f64> {
    let mut ctx = RoundContext::begin(EPSILON, rng)?;
    let (eps0, eps_rest) = ctx
        .total()
        .split_fraction(MultiRDS::default().epsilon0_fraction)?;
    ctx.charge("round1:laplace(degrees)", eps0, Composition::Sequential)?;
    let layer_size = env.graph.layer_size(q.layer);
    let (noisy_sum, mut du, mut dw) = tr.time("ldp.laplace.degree_round", root, || {
        let laplace = LaplaceMechanism::new(eps0, Sensitivity::one());
        let (mut sum, mut du, mut dw) = (0.0, 0.0, 0.0);
        for v in 0..layer_size as VertexId {
            let noisy = laplace.perturb(env.graph.degree(q.layer, v) as f64, ctx.rng());
            sum += noisy;
            if v == q.u {
                du = noisy;
            }
            if v == q.w {
                dw = noisy;
            }
        }
        (sum, du, dw)
    });
    ctx.record(1, Direction::Upload, "noisy-degrees(layer)", layer_size * 8);
    let avg = (noisy_sum / layer_size.max(1) as f64).max(1.0);
    if du <= 0.0 {
        du = avg;
    }
    if dw <= 0.0 {
        dw = avg;
    }
    let alloc = tr.time("cne.optimizer.optimize", root, || {
        optimize_double_source(du, dw, eps_rest.value())
    });
    let (f_u, f_w) = replay_double_source_rounds(
        env,
        q,
        PrivacyBudget::new(alloc.epsilon1)?,
        PrivacyBudget::new(alloc.epsilon2)?,
        2,
        &mut ctx,
        tr,
        root,
        rows,
    )?;
    let _ = ctx.finish();
    Ok(alloc.alpha * f_u + (1.0 - alloc.alpha) * f_w)
}

/// MultiR-DS*, replayed: public degrees, no degree round.
fn replay_ds_star(
    env: ProtocolEnv<'_>,
    q: &Query,
    rng: &mut StdRng,
    tr: &mut Tracer,
    root: u32,
    rows: &mut RowStats,
) -> cne::Result<f64> {
    let mut ctx = RoundContext::begin(EPSILON, rng)?;
    let du = env.graph.degree(q.layer, q.u) as f64;
    let dw = env.graph.degree(q.layer, q.w) as f64;
    let total = ctx.epsilon();
    let alloc = tr.time("cne.optimizer.optimize", root, || {
        optimize_double_source(du.max(1e-9), dw.max(1e-9), total)
    });
    let (f_u, f_w) = replay_double_source_rounds(
        env,
        q,
        PrivacyBudget::new(alloc.epsilon1)?,
        PrivacyBudget::new(alloc.epsilon2)?,
        1,
        &mut ctx,
        tr,
        root,
        rows,
    )?;
    let _ = ctx.finish();
    Ok(alloc.alpha * f_u + (1.0 - alloc.alpha) * f_w)
}

/// The randomized-response round and both single-source releases shared
/// by MultiR-DS and MultiR-DS*.
#[allow(clippy::too_many_arguments)]
fn replay_double_source_rounds(
    env: ProtocolEnv<'_>,
    q: &Query,
    eps1: PrivacyBudget,
    eps2: PrivacyBudget,
    first_round: u32,
    ctx: &mut RoundContext<'_>,
    tr: &mut Tracer,
    root: u32,
    rows: &mut RowStats,
) -> cne::Result<(f64, f64)> {
    let rr = tr.time("ldp.rr.perturb", root, || {
        randomized_response_round_packed(env, q.layer, &[q.u, q.w], eps1, first_round, ctx)
    })?;
    let p = rr.flip_probability;
    let mut noisy = rr.noisy.into_iter();
    let noisy_u = noisy.next().expect("two rows requested");
    let noisy_w = noisy.next().expect("two rows requested");
    rows.bits.push(noisy_u.degree() as f64);
    rows.bits.push(noisy_w.degree() as f64);
    let round = first_round + 1;
    ctx.record_download_packed(round, "noisy-edges(w) -> u", &noisy_w);
    ctx.record_download_packed(round, "noisy-edges(u) -> w", &noisy_u);
    let laplace = single_source_laplace(p, eps2)?;
    ctx.charge("laplace(f_u)", eps2, Composition::Sequential)?;
    ctx.charge("laplace(f_w)", eps2, Composition::Parallel)?;
    let raw_u = tr.time("cne.single_source.value", root, || {
        single_source_value_scratch(env, q.layer, q.u, noisy_w.set(), p, ctx.scratch())
    });
    let raw_w = tr.time("cne.single_source.value", root, || {
        single_source_value_scratch(env, q.layer, q.w, noisy_u.set(), p, ctx.scratch())
    });
    let (f_u, f_w) = tr.time("ldp.laplace.release", root, || {
        (
            laplace.perturb(raw_u, ctx.rng()),
            laplace.perturb(raw_w, ctx.rng()),
        )
    });
    ctx.record_scalar_upload(round, "estimator(f_u)");
    ctx.record_scalar_upload(round, "estimator(f_w)");
    Ok((f_u, f_w))
}

/// MultiR-SS, replayed.
fn replay_ss(
    env: ProtocolEnv<'_>,
    q: &Query,
    rng: &mut StdRng,
    tr: &mut Tracer,
    root: u32,
    rows: &mut RowStats,
) -> cne::Result<f64> {
    let mut ctx = RoundContext::begin(EPSILON, rng)?;
    let (eps1, eps2) = ctx
        .total()
        .split_fraction(MultiRSS::default().epsilon1_fraction)?;
    let rr = tr.time("ldp.rr.perturb", root, || {
        randomized_response_round_packed(env, q.layer, &[q.w], eps1, 1, &mut ctx)
    })?;
    let p = rr.flip_probability;
    let noisy_w = rr.noisy.into_iter().next().expect("one row requested");
    rows.bits.push(noisy_w.degree() as f64);
    ctx.record_download_packed(2, "noisy-edges(w) -> u", &noisy_w);
    let raw = tr.time("cne.single_source.value", root, || {
        single_source_value_scratch(env, q.layer, q.u, noisy_w.set(), p, ctx.scratch())
    });
    ctx.charge("round2:laplace(f_u)", eps2, Composition::Sequential)?;
    let laplace = single_source_laplace(p, eps2)?;
    let estimate = tr.time("ldp.laplace.release", root, || {
        laplace.perturb(raw, ctx.rng())
    });
    ctx.record_scalar_upload(2, "estimator(f_u)");
    let _ = ctx.finish();
    Ok(estimate)
}

/// OneR, replayed: one RR round at the full budget, then the closed form.
fn replay_one_r(
    env: ProtocolEnv<'_>,
    q: &Query,
    rng: &mut StdRng,
    tr: &mut Tracer,
    root: u32,
    rows: &mut RowStats,
) -> cne::Result<f64> {
    let mut ctx = RoundContext::begin(EPSILON, rng)?;
    let total = ctx.total();
    let rr = tr.time("ldp.rr.perturb", root, || {
        randomized_response_round_packed(env, q.layer, &[q.u, q.w], total, 1, &mut ctx)
    })?;
    let p = rr.flip_probability;
    let mut noisy = rr.noisy.into_iter();
    let view = NoisyGraphViewPacked::new(
        noisy.next().expect("two rows requested"),
        noisy.next().expect("two rows requested"),
    );
    rows.bits.push(view.u.degree() as f64);
    rows.bits.push(view.w.degree() as f64);
    let estimate = tr.time("cne.one_round.closed_form", root, || {
        let (n1, n2) = view.noisy_counts();
        OneR::closed_form(n1, n2, view.opposite_size(), p)
    });
    let _ = ctx.finish();
    Ok(estimate)
}

/// The traced closed loop over pass-0 seeds. Pairs alternate between the
/// traced replay and the untraced engine call, so both cover the same
/// stretch of time and the same algorithm mix. Every estimate must equal
/// the engine's pass-0 estimate bit for bit. Returns the untraced service
/// times (ms) and, for each untraced pair, the engine's MultiR-DS time
/// minus its MultiR-DS* time (µs): the cost of the degree round, which is
/// the one step MultiR-DS* skips.
#[allow(clippy::too_many_arguments)]
fn traced_loop(
    engine: &EstimationEngine<'static>,
    queries: &[(Query, u64)],
    seed: u64,
    seconds: f64,
    pass0_bits: &[u64],
    out: &mut Outcome,
    tr: &mut Tracer,
    rows: &mut RowStats,
) -> (Vec<f64>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let env = engine.env();
    let mut untraced = Vec::new();
    let (mut degree_round_us, mut ds_ms) = (Vec::new(), None);
    'outer: loop {
        for (i, (q, _)) in queries.iter().enumerate() {
            let kind = ALGORITHMS[i % ALGORITHMS.len()];
            let mut rng = StdRng::seed_from_u64(query_seed(seed, 0, i));
            let estimate = if (i / ALGORITHMS.len()).is_multiple_of(2) {
                let root = tr.begin("bench.query", None);
                let estimate = match kind {
                    AlgorithmKind::MultiRSS => replay_ss(env, q, &mut rng, tr, root, rows),
                    AlgorithmKind::MultiRDS => replay_ds(env, q, &mut rng, tr, root, rows),
                    AlgorithmKind::MultiRDSStar => replay_ds_star(env, q, &mut rng, tr, root, rows),
                    _ => replay_one_r(env, q, &mut rng, tr, root, rows),
                };
                tr.end(root);
                estimate
            } else {
                let t0 = Instant::now();
                let report = engine.estimate(q, kind, EPSILON, &mut rng);
                let took = ms(t0.elapsed());
                untraced.push(took);
                match kind {
                    AlgorithmKind::MultiRDS => ds_ms = Some(took),
                    AlgorithmKind::MultiRDSStar => {
                        if let Some(ds) = ds_ms.take() {
                            degree_round_us.push((ds - took) * 1e3);
                        }
                    }
                    _ => {}
                }
                report.map(|r| r.estimate)
            };
            let same = estimate.is_ok_and(|e| e.to_bits() == pass0_bits[i]);
            if same {
                out.check(true);
            } else {
                out.fail(&format!(
                    "query {i} ({kind:?}) differs from the engine's pass 0"
                ));
            }
            if Instant::now() >= deadline {
                break 'outer;
            }
        }
    }
    (untraced, degree_round_us)
}

/// Runs `pairs_bx` for `seconds`; with `trace`, adds the traced replay.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let g = gen::bx_graph();
    let pairs = gen::pair_set(&g, seed, UNIFORM_PAIRS, IMBALANCED_PAIRS, KAPPA);
    // Pair i runs algorithm i mod 4: one query per (pair, algorithm).
    let queries: Vec<(Query, u64)> = pairs
        .iter()
        .flat_map(|p| std::iter::repeat_n(Query::new(p.layer, p.u, p.w), ALGORITHMS.len()))
        .map(|q| {
            let exact = q.exact_count(&g).expect("sampled pairs are valid");
            (q, exact)
        })
        .collect();
    let mut writes = gen::WriteStream::new(&g, seed);
    let batches: Vec<_> = (0..INGEST_BATCHES).map(|_| writes.next_batch()).collect();
    let st = setup(&g);
    let mut engine = st.engine;
    println!(
        "pairs_bx: {} pairs ({UNIFORM_PAIRS} uniform + {} imbalanced at kappa={KAPPA}) x {} algorithms, eps={EPSILON}, setup {:.4} s",
        pairs.len(),
        pairs.len() - UNIFORM_PAIRS,
        ALGORITHMS.len(),
        st.setup_s
    );

    let mut pass0 = Pass0 {
        bits: Vec::new(),
        comm_bytes: Vec::new(),
        abs_err_ds: Vec::new(),
    };
    // The ingest path runs on an engine of its own, a slice of batches
    // every few hundred queries, so its samples span the run like the
    // queries' do (ingest run in one piece at the end rests on a few
    // seconds of the host's speed, and its median moved by 0.30 of itself
    // across seeds) and no write reaches a timed query. A traced run needs
    // only pass 0's estimates from this loop.
    let mut replica = EstimationEngine::from_graph(g.clone());
    replica.warm(Layer::Upper);
    let mut ingested = Vec::new();
    let mut ingest = |n: usize| {
        let from = ingested.len();
        let to = (from + n).min(batches.len());
        ingested.extend(ingest_phase(&mut replica, &batches[from..to], None));
    };
    let loop_seconds = if trace { 0.0 } else { seconds };
    let (lat, block_qps) = closed_loop(
        &engine,
        &queries,
        seed,
        loop_seconds,
        &mut out,
        &mut pass0,
        &mut || {
            if !trace {
                ingest(INGEST_SLICE);
            }
        },
    );
    // Determinism: pass 0 re-run in-process, and against the fingerprint a
    // previous run with this seed left behind.
    for (i, (q, _)) in queries.iter().enumerate().take(RECHECK_QUERIES) {
        let kind = ALGORITHMS[i % ALGORITHMS.len()];
        let mut rng = StdRng::seed_from_u64(query_seed(seed, 0, i));
        let again = engine.estimate(q, kind, EPSILON, &mut rng);
        let same = again.is_ok_and(|r| r.estimate.to_bits() == pass0.bits[i]);
        if same {
            out.check(true);
        } else {
            out.fail(&format!("query {i} is not reproducible in-process"));
        }
    }
    // The record is keyed by the inputs as well as the seed, so a change to
    // the benchmark's inputs starts a new record instead of failing.
    let inputs = report::fingerprint(
        queries
            .iter()
            .map(|(q, _)| u64::from(q.u) << 32 | u64::from(q.w))
            .chain([EPSILON.to_bits(), ALGORITHMS.len() as u64]),
    );
    let fp = report::fingerprint(pass0.bits.iter().copied());
    let fp_path = report::out_dir().join(format!(
        "pairs_bx-seed{seed}-inputs{inputs:016x}.fingerprint"
    ));
    match std::fs::read_to_string(&fp_path) {
        Ok(prev) if prev.trim() != format!("{fp:016x}") => {
            out.fail(&format!(
                "fingerprint {fp:016x} differs from a previous run's {}",
                prev.trim()
            ));
        }
        Ok(_) => {}
        Err(_) => std::fs::write(&fp_path, format!("{fp:016x}\n")).expect("write fingerprint"),
    }

    let mae = mean(&pass0.abs_err_ds);
    let comm_kb = mean(&pass0.comm_bytes) / 1024.0;
    let q = summarize(&lat);
    let throughput = median(&block_qps);
    println!(
        "  estimate fingerprint {fp:016x} (pass 0, {} queries)",
        pass0.bits.len()
    );
    report::print_summary("query_ms", "ms", &q);

    if !trace {
        ingest(batches.len());
        for a in &ingested {
            out.check(a.ok);
        }
        let v = summarize(&ingested.iter().map(|a| a.ms).collect::<Vec<_>>());
        report::print_summary("ingest_visible_ms", "ms", &v);
        out.set("setup_s", st.setup_s);
        out.set("query_ms_p50", q.p50);
        out.set("query_ms_p99", q.tail);
        out.set("throughput_qps", throughput);
        out.set("ingest_visible_ms_p50", v.p50);
        out.set("ingest_visible_ms_p99", v.tail);
        out.set("mae", mae);
        out.set("comm_kb_per_query", comm_kb);
        out.set("peak_rss_mb", crate::host::own_peak_rss_mb());
        return out;
    }

    // Traced run: the same queries replayed layer by layer, alternating
    // with untraced engine calls, then the ingest phase likewise.
    let mut tr = Tracer::new();
    let mut rows = RowStats::default();
    let (untraced_query, degree_round_us) = traced_loop(
        &engine,
        &queries,
        seed,
        seconds,
        &pass0.bits,
        &mut out,
        &mut tr,
        &mut rows,
    );
    let applied = ingest_phase(&mut engine, &batches, Some(&mut tr));
    for a in &applied {
        out.check(a.ok);
    }
    let untraced_ingest: Vec<f64> = applied.iter().filter(|a| !a.traced).map(|a| a.ms).collect();
    let count = |name: &str| tr.spans().iter().filter(|s| s.name == name).count();
    let dense = queries
        .iter()
        .flat_map(|(q, _)| [q.u, q.w])
        .filter(|&v| engine.store().cached(Layer::Upper, v).is_some())
        .count() as f64
        / (2 * queries.len()) as f64;
    let p50 = |name: &str| median(&tr.durations_us(name));
    out.set("ldp.rr.perturb_us_p50", p50("ldp.rr.perturb"));
    out.set("ldp.rr.noisy_row_bits_mean", mean(&rows.bits));
    let degree_round = median(&degree_round_us);
    out.set("ldp.laplace.degree_round_us_p50", degree_round);
    out.set("cne.optimizer.us_p50", p50("cne.optimizer.optimize"));
    out.set(
        "cne.single_source.value_us_p50",
        p50("cne.single_source.value"),
    );
    out.set("cne.engine.dense_candidate_share", dense);
    out.set(
        "cne.engine.warm_touched_ms_p50",
        p50("cne.engine.warm_touched") / 1e3,
    );
    out.set("cne.engine.build_s", st.build_s);
    out.set("cne.engine.warm_s", st.warm_s);
    out.set(
        "bigraph.delta.splice_ms_p50",
        p50("bigraph.delta.splice") / 1e3,
    );
    out.set("bigraph.delta.deltas_per_splice", gen::BATCH_DELTAS as f64);
    crate::tracefile::finish(
        "pairs_bx",
        seed,
        &tr,
        &[
            ("bench.query", mean(&untraced_query), count("bench.query")),
            (
                "bench.ingest",
                mean(&untraced_ingest),
                count("bench.ingest"),
            ),
        ],
        &[
            (
                "ldp.laplace.degree_round_us_p50_derived",
                degree_round,
                "us",
            ),
            (
                "ldp.laplace.degree_round_us_p50_replayed",
                p50("ldp.laplace.degree_round"),
                "us",
            ),
        ],
        &mut out,
    );
    out
}
