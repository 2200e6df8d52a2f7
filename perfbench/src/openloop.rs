//! The open-loop load generator shared by the screening workloads: one client
//! thread sends each scheduled operation at its due time, whether or not
//! earlier ones have finished, and times every request from when it was
//! due, so a stall is charged to every request it delays.

use crate::gen::{Event, Op};
use crate::replay::Answer;
use crate::report::{batch_ok, ms, wait_until, Outcome};
use crate::trace::Tracer;
use bigraph::{GraphDelta, VertexId};
use cne::BatchReport;
use std::time::{Duration, Instant};

/// Longest a run waits after its last arrival for writes to become visible.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// A serving path the open loop drives.
pub trait Server {
    /// Answers one screening query. With a tracer, the call runs inside the
    /// operation's root span `root`.
    fn query(
        &mut self,
        target: VertexId,
        candidates: &[VertexId],
        seed: u64,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<BatchReport, String>;

    /// Submits one write batch that was due at `due`. Returns its
    /// ingest-to-visible time (ms) when visibility is known on return.
    fn write(
        &mut self,
        deltas: &[GraphDelta],
        due: Instant,
        tracer: Option<(&mut Tracer, u32)>,
    ) -> Result<Option<f64>, String>;

    /// Moves writes that became visible since the last call into
    /// `visible` (ms from due time); returns how many are still pending.
    fn poll(&mut self, visible: &mut Vec<f64>) -> usize;

    /// Takes back an answer once its latency is recorded, so the server
    /// can keep it for the checks made once the run ends, off the clock.
    fn keep(&mut self, answer: Answer<'_>);
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Query latency from due time to completion, ms.
    pub latency: Vec<f64>,
    /// Query service time from send to completion, ms.
    pub service: Vec<f64>,
    /// Write ingest-to-visible time from due time, ms.
    pub visible: Vec<f64>,
    /// How late the generator sent each operation, ms.
    pub late: Vec<f64>,
    /// Transcript bytes of each answered query.
    pub comm_bytes: Vec<f64>,
    /// Service times (ms) of the queries a traced phase left untraced.
    pub untraced_service: Vec<f64>,
    /// Submission times (ms) of the writes a traced phase left untraced.
    pub untraced_submit: Vec<f64>,
    /// Wall time from the first due time to the last completion.
    pub elapsed: Duration,
}

impl Phase {
    /// Achieved query completions per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.latency.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Replays `events` against `server` in real time. With a tracer, every
/// other operation of each kind is traced as one root span (`bench.query`
/// or `bench.ingest`) and the rest run untraced, so the tracing overhead is
/// measured against operations from the same stretch of time.
pub fn run_phase(
    server: &mut dyn Server,
    events: &[Event],
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let base = events.first().map_or(0, |e| e.due_ns);
    let start = Instant::now() + Duration::from_millis(2);
    let mut pending = 0usize;
    let mut last_query_done = start;
    let (mut n_queries, mut n_writes) = (0usize, 0usize);
    for ev in events {
        let due = start + Duration::from_nanos(ev.due_ns - base);
        wait_until(due, || pending = server.poll(&mut phase.visible));
        let began = Instant::now();
        phase.late.push(ms(began - due));
        match &ev.op {
            Op::Query {
                target,
                candidates,
                seed,
            } => {
                n_queries += 1;
                let mut tracer = tracer.as_deref_mut().filter(|_| n_queries % 2 == 0);
                let root = tracer.as_deref_mut().map(|t| t.begin("bench.query", None));
                let traced = tracer.as_deref_mut().zip(root);
                let result = server.query(*target, candidates, *seed, traced);
                if let (Some(t), Some(r)) = (tracer, root) {
                    t.end(r);
                }
                let done = Instant::now();
                last_query_done = done;
                phase.latency.push(ms(done - due));
                phase.service.push(ms(done - began));
                if root.is_none() {
                    phase.untraced_service.push(ms(done - began));
                }
                match result {
                    Ok(report) => {
                        let ok = batch_ok(&report, candidates);
                        out.check(ok);
                        if !ok {
                            eprintln!("check failed: a screening answer failed its checks");
                        }
                        phase.comm_bytes.push(report.communication_bytes() as f64);
                        server.keep(Answer {
                            target: *target,
                            candidates,
                            seed: *seed,
                            report,
                            traced: root.is_some(),
                            service_ms: ms(done - began),
                        });
                    }
                    Err(e) => {
                        out.check(false);
                        eprintln!("query failed: {e}");
                    }
                }
            }
            Op::Write { deltas } => {
                n_writes += 1;
                let mut tracer = tracer.as_deref_mut().filter(|_| n_writes % 2 == 0);
                let root = tracer.as_deref_mut().map(|t| t.begin("bench.ingest", None));
                let traced = tracer.as_deref_mut().zip(root);
                let result = server.write(deltas, due, traced);
                if let (Some(t), Some(r)) = (tracer, root) {
                    t.end(r);
                }
                if root.is_none() {
                    phase.untraced_submit.push(ms(began.elapsed()));
                }
                match result {
                    Ok(Some(v)) => {
                        phase.visible.push(v);
                        out.check(true);
                    }
                    Ok(None) => out.check(true),
                    Err(e) => {
                        out.check(false);
                        eprintln!("write failed: {e}");
                    }
                }
            }
        }
        pending = server.poll(&mut phase.visible);
    }
    let drain_deadline = Instant::now() + DRAIN_DEADLINE;
    while pending > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_micros(100));
        pending = server.poll(&mut phase.visible);
    }
    if pending > 0 {
        out.fail(&format!("{pending} writes never became visible"));
    }
    phase.elapsed = last_query_done.saturating_duration_since(start);
    phase
}
