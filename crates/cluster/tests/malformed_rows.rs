//! A noisy row that reaches a process malformed is refused, never
//! panicked on. Each test puts a relay between the coordinator and a real
//! shard worker that rewrites one row-carrying frame — re-encoded, so its
//! checksum is valid — and then checks two things:
//!
//! * the query that carried it fails with a typed error, or is retried
//!   transparently (a frame that fails to decode drops the connection,
//!   and the coordinator reconnects and resends it);
//! * the next query is byte-identical to an unsharded engine's, so no
//!   process died on the way.
//!
//! The three row faults are a word count that does not match the
//! universe, a bit set past the universe, and a universe that is not the
//! opposite layer's size. A fourth fault leaves the row intact and names a
//! round-2 candidate past the end of its layer.

use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, Layer};
use cluster::wire::{err_code, Message, WireRound1};
use cluster::{
    ClusterConfig, ClusterError, Coordinator, FaultInjector, FaultPlan, RetryPolicy, WorkerSpec,
    FAULT_PLAN_ENV,
};
use cne::EstimationEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const N_UPPER: usize = 12;
const N_LOWER: usize = 96; // ≥ 64 so several upper vertices are dense
const EPSILON: f64 = 2.0;

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

/// Which frame the relay rewrites (the first one of that kind only).
#[derive(Clone, Copy)]
enum Direction {
    /// The owner's `Round1Resp`, on its way to the coordinator.
    Round1Resp,
    /// The coordinator's `Round2Req`, on its way to the worker.
    Round2Req,
}

/// How the row is broken.
#[derive(Clone, Copy)]
enum Fault {
    /// One word short of `⌈universe/64⌉`.
    ShortRow,
    /// A bit set past the universe in the tail word.
    BitPastUniverse,
    /// A well-formed row over 64 more vertices than the opposite layer.
    WrongUniverse,
    /// A well-formed row, but the last round-2 candidate is the first id
    /// past the end of the query layer.
    CandidatePastLayer,
}

impl Fault {
    fn apply(self, row: &mut WireRound1, candidates: Option<&mut Vec<u32>>) {
        match self {
            Fault::ShortRow => {
                row.words.pop();
            }
            Fault::BitPastUniverse => {
                assert_ne!(row.universe % 64, 0, "the tail word must have spare bits");
                *row.words.last_mut().unwrap() |= 1 << 63;
            }
            Fault::WrongUniverse => {
                row.universe += 64;
                row.words.push(0);
            }
            Fault::CandidatePastLayer => {
                let candidates = candidates.expect("only Round2Req carries candidates");
                *candidates.last_mut().unwrap() = N_UPPER as u32;
            }
        }
    }
}

/// Relays frames between one coordinator connection at a time and the
/// real worker at `upstream`, rewriting the first frame `direction` names
/// with `fault`. Exits after relaying an orderly shutdown.
fn relay(
    listener: UnixListener,
    upstream: PathBuf,
    direction: Direction,
    fault: Fault,
    fired: Arc<AtomicUsize>,
) {
    let tamper = |msg: &mut Message| {
        let (row, candidates) = match (direction, msg) {
            (Direction::Round1Resp, Message::Round1Resp(row)) => (row, None),
            (
                Direction::Round2Req,
                Message::Round2Req {
                    round1: row,
                    candidates,
                    ..
                },
            ) => (row, Some(candidates)),
            _ => return,
        };
        if fired.fetch_add(1, Ordering::SeqCst) == 0 {
            fault.apply(row, candidates);
        }
    };
    for down in listener.incoming() {
        let Ok(mut down) = down else { return };
        let Some(mut up) = connect(&upstream) else {
            continue;
        };
        while let Ok(mut request) = Message::read_from(&mut down) {
            let shutdown = matches!(request, Message::Shutdown);
            tamper(&mut request);
            if request.write_to(&mut up).is_err() {
                break;
            }
            let Ok(mut response) = Message::read_from(&mut up) else {
                break;
            };
            tamper(&mut response);
            if response.write_to(&mut down).is_err() {
                break;
            }
            if shutdown {
                return;
            }
        }
    }
}

/// Connects to the worker's socket, waiting up to two seconds for it to
/// bind.
fn connect(path: &Path) -> Option<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Some(stream),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => return None,
        }
    }
}

/// The relay threads a cluster started; each exits once it has relayed
/// the coordinator's shutdown.
type Relays = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A one-worker cluster whose only worker sits behind a tampering relay;
/// also returns how many frames of the targeted kind the relay saw.
fn spawn_relayed(
    tag: &str,
    direction: Direction,
    fault: Fault,
) -> (Coordinator, PathBuf, Arc<AtomicUsize>, Relays) {
    let dir = std::env::temp_dir().join(format!("cne-malformed-rows-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let relays = Relays::default();
    let config = ClusterConfig {
        retry: RetryPolicy {
            connect_timeout: Duration::from_millis(400),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            io_timeout: Duration::from_millis(1500),
            teardown_deadline: Duration::from_secs(2),
        },
        pump_chunk: 64,
        faults: FaultInjector::from_plan(FaultPlan::default()),
    };
    let launch = {
        let fired = Arc::clone(&fired);
        let relays = Arc::clone(&relays);
        let bin = PathBuf::from(env!("CARGO_BIN_EXE_shard-worker"));
        move |spec: &WorkerSpec| {
            let real = WorkerSpec {
                socket: spec.socket.with_extension("real"),
                ..spec.clone()
            };
            let _ = std::fs::remove_file(&real.socket);
            let child = cluster::worker_command(&bin, &real)
                .env_remove(FAULT_PLAN_ENV)
                .spawn()?;
            let listener = UnixListener::bind(&spec.socket)?;
            let fired = Arc::clone(&fired);
            let handle =
                std::thread::spawn(move || relay(listener, real.socket, direction, fault, fired));
            relays.lock().expect("relay list").push(handle);
            Ok(child)
        }
    };
    let snapshot = GraphSnapshot::capture(&base_graph(), 0);
    let coordinator = Coordinator::spawn_partitioned_from_snapshot(
        &snapshot,
        Layer::Upper,
        std::iter::once(0..u32::MAX).collect(), // one worker owns every vertex
        &dir,
        config,
        launch,
    )
    .unwrap();
    (coordinator, dir, fired, relays)
}

/// One screening query through the cluster, and the unsharded engine's
/// answer to it.
fn query(
    coordinator: &mut Coordinator,
    seed: u64,
) -> (Result<cne::BatchReport, ClusterError>, cne::BatchReport) {
    let target = seed as u32 % N_UPPER as u32;
    let candidates: Vec<u32> = (0..N_UPPER as u32).filter(|&w| w != target).collect();
    let from_cluster = coordinator.estimate_batch(Layer::Upper, target, &candidates, EPSILON, seed);
    let reference = EstimationEngine::from_graph(base_graph())
        .estimate_batch(
            Layer::Upper,
            target,
            &candidates,
            EPSILON,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
    (from_cluster, reference)
}

fn assert_identical(from_cluster: &cne::BatchReport, reference: &cne::BatchReport) {
    assert_eq!(
        serde_json::to_string(from_cluster).unwrap(),
        serde_json::to_string(reference).unwrap()
    );
}

/// What the query carrying the broken row must do.
enum Expect {
    /// Decode fails, the frame is resent clean: the answer is exact.
    Retried,
    /// The coordinator refuses the row itself.
    CoordinatorRefuses,
    /// The worker answers `Err` with the protocol code and a message
    /// naming this.
    WorkerRefuses(&'static str),
}

fn run(tag: &str, direction: Direction, fault: Fault, expect: Expect) {
    let (mut coordinator, dir, fired, relays) = spawn_relayed(tag, direction, fault);
    let (first, reference) = query(&mut coordinator, 5);
    match (expect, first) {
        (Expect::Retried, Ok(report)) => assert_identical(&report, &reference),
        (Expect::CoordinatorRefuses, Err(ClusterError::Protocol { worker: 0, detail })) => {
            assert!(detail.contains("noisy row"), "{detail}");
        }
        (
            Expect::WorkerRefuses(names),
            Err(ClusterError::Remote {
                worker: 0,
                code,
                message,
            }),
        ) => {
            assert_eq!(code, err_code::PROTOCOL, "{message}");
            assert!(message.contains(names), "{message}");
        }
        (_, other) => panic!("{tag}: unexpected outcome {:?}", other.map(|_| "Ok")),
    }
    assert!(
        fired.load(Ordering::SeqCst) >= 1,
        "{tag}: the relay never saw the frame"
    );
    // The worker is alive and serves the next query exactly.
    let (next, reference) = query(&mut coordinator, 6);
    assert_identical(&next.unwrap(), &reference);
    drop(coordinator);
    for relay in relays.lock().expect("relay list").drain(..) {
        relay.join().expect("relay thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round1_resp_with_a_short_row_is_resent() {
    run(
        "r1-short",
        Direction::Round1Resp,
        Fault::ShortRow,
        Expect::Retried,
    );
}

#[test]
fn round1_resp_with_a_bit_past_the_universe_is_resent() {
    run(
        "r1-tail",
        Direction::Round1Resp,
        Fault::BitPastUniverse,
        Expect::Retried,
    );
}

#[test]
fn round1_resp_over_the_wrong_universe_is_a_typed_error() {
    run(
        "r1-universe",
        Direction::Round1Resp,
        Fault::WrongUniverse,
        Expect::CoordinatorRefuses,
    );
}

#[test]
fn round2_req_with_a_short_row_is_resent() {
    run(
        "r2-short",
        Direction::Round2Req,
        Fault::ShortRow,
        Expect::Retried,
    );
}

#[test]
fn round2_req_with_a_bit_past_the_universe_is_resent() {
    run(
        "r2-tail",
        Direction::Round2Req,
        Fault::BitPastUniverse,
        Expect::Retried,
    );
}

#[test]
fn round2_req_over_the_wrong_universe_is_refused_by_the_worker() {
    run(
        "r2-universe",
        Direction::Round2Req,
        Fault::WrongUniverse,
        Expect::WorkerRefuses("noisy row"),
    );
}

#[test]
fn round2_req_with_a_candidate_past_the_layer_is_refused_by_the_worker() {
    run(
        "r2-candidate",
        Direction::Round2Req,
        Fault::CandidatePastLayer,
        Expect::WorkerRefuses("candidate"),
    );
}
