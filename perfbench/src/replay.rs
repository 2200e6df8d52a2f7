//! Answers kept for checking after the run, and the split of
//! `estimate_batch` into its public phases that the traced runs and the
//! checks share.
//!
//! An open-loop server hands every answer back once its latency is
//! recorded. A sample of them is kept together with the number of writes
//! that were visible when it was served, and after the run each kept answer
//! is re-run on an in-process engine advanced through the same writes. The
//! replay must match byte for byte, and it is where answers are scored
//! against exact counts, so no scoring runs while the clock does.

use crate::report::{ms, report_bytes, Outcome, EPSILON};
use crate::trace::Tracer;
use bigraph::{BipartiteGraph, GraphDelta, Layer, UpdateBatch, VertexId};
use cne::engine::{EstimationEngine, ProtocolEnv};
use cne::{batch_round2, BatchReport, BatchRound1, BatchSingleSource, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Every `KEEP_EVERY`-th settled answer is kept, and scored unless traced;
/// every settled traced answer is kept.
pub const KEEP_EVERY: usize = 4;

/// An answered screening query, handed back by the open loop after its
/// latency is recorded.
pub struct Answer<'a> {
    /// The target user.
    pub target: VertexId,
    /// The candidates, in the order sent.
    pub candidates: &'a [VertexId],
    /// Seed of the query's protocol randomness.
    pub seed: u64,
    /// The server's report.
    pub report: BatchReport,
    /// Whether the query ran traced.
    pub traced: bool,
    /// Time the server's query call took, ms.
    pub service_ms: f64,
}

/// A kept answer and the number of writes visible when it was served.
pub struct Sample {
    /// Write batches applied to the state that answered.
    pub writes_before: usize,
    /// The target user.
    pub target: VertexId,
    /// The candidates, in the order sent.
    pub candidates: Vec<VertexId>,
    /// Seed of the query's protocol randomness.
    pub seed: u64,
    /// The server's report.
    pub report: BatchReport,
    /// Whether the query ran traced.
    pub traced: bool,
    /// Time the server's query call took, ms.
    pub service_ms: f64,
}

/// Chooses which answers to keep.
#[derive(Default)]
pub struct Samples {
    settled: usize,
    /// The kept answers, in arrival order.
    pub kept: Vec<Sample>,
}

impl Samples {
    /// Offers `answer`, served from the state after `writes_visible` write
    /// batches, or from an unknown state (`None`), which is never kept.
    pub fn offer(&mut self, writes_visible: Option<usize>, answer: Answer<'_>) {
        let Some(writes_before) = writes_visible else {
            return;
        };
        self.settled += 1;
        if answer.traced || self.settled.is_multiple_of(KEEP_EVERY) {
            self.kept.push(Sample {
                writes_before,
                target: answer.target,
                candidates: answer.candidates.to_vec(),
                seed: answer.seed,
                report: answer.report,
                traced: answer.traced,
                service_ms: answer.service_ms,
            });
        }
    }
}

/// Runs `f`, inside a child span of the tracer's root when there is one.
fn phase<R>(
    tracer: &mut Option<(&mut Tracer, u32)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some((tr, root)) => tr.time(name, *root, f),
        None => f(),
    }
}

/// `estimate_batch` as its three public phases on `env`: `round1_in`,
/// `batch_round2` and `assemble_report`, with the query's seed. With a
/// tracer, each phase is a child span (`cne.batch.round1`, `.round2`,
/// `.assemble`) of the given root.
pub fn decompose(
    env: ProtocolEnv<'_>,
    target: VertexId,
    candidates: &[VertexId],
    seed: u64,
    mut tracer: Option<(&mut Tracer, u32)>,
) -> Result<(BatchRound1, BatchReport), String> {
    let algo = BatchSingleSource::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let round1 = phase(&mut tracer, "cne.batch.round1", || {
        algo.round1_in(env, Layer::Upper, target, candidates, EPSILON, &mut rng)
    })
    .map_err(|e| e.to_string())?;
    let estimates = phase(&mut tracer, "cne.batch.round2", || {
        batch_round2(env, Layer::Upper, candidates, &round1)
    })
    .map_err(|e| e.to_string())?;
    let report = phase(&mut tracer, "cne.batch.assemble", || {
        algo.assemble_report(Layer::Upper, target, &round1, estimates)
    })
    .map_err(|e| e.to_string())?;
    Ok((round1, report))
}

/// Absolute errors of a report's estimates against exact common-neighbor
/// counts on `g`.
pub fn abs_errors<'a>(
    g: &'a BipartiteGraph,
    report: &'a BatchReport,
) -> impl Iterator<Item = f64> + 'a {
    let target = report.target;
    report.estimates.iter().map(move |e| {
        let exact = Query::new(Layer::Upper, target, e.candidate)
            .exact_count(g)
            .expect("valid pair");
        (e.estimate - exact as f64).abs()
    })
}

/// What re-running the kept answers found.
#[derive(Default)]
pub struct Replayed {
    /// Absolute errors of the untraced answers' estimates.
    pub abs_err: Vec<f64>,
    /// `apply_updates` time of each replayed write batch, ms.
    pub splice_ms: Vec<f64>,
    /// Share of each traced answer's candidates with a cached bitmap.
    pub dense: Vec<f64>,
    /// Each traced answer's server call time minus its in-process replay, ms.
    pub overhead_ms: Vec<f64>,
    /// The traced answers' replays: one `replay` root each, with the phase
    /// spans of [`decompose`] under it.
    pub phases: Tracer,
}

/// Re-runs every kept answer on an in-process engine over `g`, advanced
/// through the same write batches, and requires a byte-identical report.
/// Untraced answers are scored against exact counts; traced ones have their
/// replay timed phase by phase and are passed to `on_traced` with their
/// round 1, whose error counts as a failed check.
pub fn replay(
    g: &BipartiteGraph,
    writes: &[&[GraphDelta]],
    samples: &[Sample],
    out: &mut Outcome,
    mut on_traced: impl FnMut(&Sample, &BatchRound1) -> Result<(), String>,
) -> Replayed {
    let mut r = Replayed::default();
    let mut engine = EstimationEngine::from_graph(g.clone());
    engine.warm(Layer::Upper);
    let mut applied = 0;
    for s in samples {
        while applied < s.writes_before {
            let batch: UpdateBatch = writes[applied].iter().copied().collect();
            let t0 = Instant::now();
            match engine.apply_updates(&batch) {
                Ok(a) => {
                    r.splice_ms.push(ms(t0.elapsed()));
                    engine.warm_touched(&a);
                }
                Err(e) => out.fail(&format!("replayed write failed: {e}")),
            }
            applied += 1;
        }
        let root = s.traced.then(|| r.phases.begin("replay", None));
        let traced = root.map(|root| (&mut r.phases, root));
        let rebuilt = decompose(engine.env(), s.target, &s.candidates, s.seed, traced);
        if let Some(root) = root {
            r.phases.end(root);
        }
        let same = rebuilt
            .as_ref()
            .is_ok_and(|(_, report)| report_bytes(report) == report_bytes(&s.report));
        if same {
            out.check(true);
        } else {
            out.fail(&format!(
                "the report for target {} differs from the in-process engine's",
                s.target
            ));
        }
        if !s.traced {
            r.abs_err.extend(abs_errors(engine.graph(), &s.report));
            continue;
        }
        let Ok((round1, _)) = rebuilt else {
            continue;
        };
        if let Some(root) = root {
            let in_process_ms = r.phases.spans()[root as usize].duration() as f64 / 1e6;
            r.overhead_ms.push(s.service_ms - in_process_ms);
        }
        let cached = s
            .candidates
            .iter()
            .filter(|&&w| engine.store().cached(Layer::Upper, w).is_some())
            .count();
        r.dense.push(cached as f64 / s.candidates.len() as f64);
        match on_traced(s, &round1) {
            Ok(()) => out.check(true),
            Err(e) => out.fail(&e),
        }
    }
    r
}
