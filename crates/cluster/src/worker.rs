//! The shard-worker side: one process, one [`ServingEngine`], one shard.
//!
//! A worker is spawned with a Unix-socket path and a contiguous
//! shard-layer vertex range (see [`crate`] docs for the assignment
//! rules), binds a listener, and serves one coordinator connection at a
//! time in strict request→response order. It starts **empty**: the
//! coordinator's `BootstrapSnapshot` message points it at a versioned
//! binary snapshot file (`bigraph::snapshot`) holding its shard. The
//! worker loads and validates the file, checks the epoch stamp, restricts
//! it to its own shard range, and serves from the restricted engine —
//! warm store included, since the snapshot's packed bitmaps of owned
//! vertices adopt directly. Only the path crosses the socket.
//!
//! After bootstrap, `Update` frames stream the shard's slice of the delta
//! log into the worker's own [`ServingEngine`] — the same epoch-pinned
//! double-buffered tier a single-process deployment uses, so queries on
//! the worker never wait on a splice either. A re-bootstrap (supervision
//! or rebalance) is followed by the coordinator replaying its retained
//! update-log tail past the snapshot's pinned sequence, so the worker
//! ends in the same state as one that never restarted.
//!
//! A dropped connection is not fatal: the worker keeps its state and
//! accepts the coordinator's reconnect (that is what makes the
//! coordinator's bounded retry meaningful). `Shutdown` exits the process.

use crate::wire::{err_code, Message, WireRound1};
use bigraph::bitset::PackedSet;
use cne::batch::{batch_round2, BatchRound1, BatchSingleSource};
use cne::serving::{ServingConfig, ServingEngine, ServingStats};
use ldp::budget::PrivacyBudget;
use ldp::noisy_graph::NoisyNeighborsPacked;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Env var carrying the socket path when a binary re-executes itself as a
/// worker (the bench harness does this; the dedicated `shard-worker`
/// binary reads the same variables).
pub const SOCKET_ENV: &str = "CNE_SHARD_WORKER_SOCKET";
/// Env var carrying the shard range's inclusive lower bound.
pub const SHARD_LO_ENV: &str = "CNE_SHARD_WORKER_LO";
/// Env var carrying the shard range's exclusive upper bound.
pub const SHARD_HI_ENV: &str = "CNE_SHARD_WORKER_HI";

/// A worker's spawn-time assignment.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The Unix socket to listen on (an existing file is replaced).
    pub socket: PathBuf,
    /// First shard-layer vertex this worker owns.
    pub shard_lo: u32,
    /// One past the last owned vertex (`u32::MAX` = open-ended, so the
    /// last shard also owns vertices appended after spawn).
    pub shard_hi: u32,
    /// Serving-tier tuning for the worker's engine.
    pub serving: ServingConfig,
}

impl WorkerConfig {
    /// Reads the assignment from [`SOCKET_ENV`] / [`SHARD_LO_ENV`] /
    /// [`SHARD_HI_ENV`]. `None` when the socket variable is unset (the
    /// process is not meant to be a worker).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let socket = std::env::var_os(SOCKET_ENV)?;
        let parse = |var: &str, default: u32| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Some(Self {
            socket: PathBuf::from(socket),
            shard_lo: parse(SHARD_LO_ENV, 0),
            shard_hi: parse(SHARD_HI_ENV, u32::MAX),
            serving: ServingConfig::default(),
        })
    }
}

/// If the environment says this process is a shard worker, run the worker
/// loop and return `true` once it exits; otherwise return `false`
/// immediately. Call this first thing in `main` of any binary that spawns
/// workers by re-executing itself.
pub fn maybe_run_worker_from_env() -> bool {
    match WorkerConfig::from_env() {
        Some(config) => {
            run(&config).expect("shard worker failed");
            true
        }
        None => false,
    }
}

/// What a finished connection means for the accept loop.
enum ConnExit {
    /// Coordinator went away; keep state and wait for a reconnect.
    Disconnected,
    /// Orderly shutdown was requested; exit the process.
    Shutdown,
}

/// Binds the worker's socket and serves coordinator connections until an
/// orderly `Shutdown`.
///
/// # Errors
///
/// Propagates socket bind/accept failures. Per-request failures are
/// reported to the coordinator as [`Message::Err`] frames instead.
pub fn run(config: &WorkerConfig) -> io::Result<()> {
    // A stale socket file from a previous (killed) worker would make bind
    // fail with AddrInUse; replacing it is what lets a restarted worker
    // come back on the same path.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    let mut serving: Option<ServingEngine> = None;
    let mut dedup = UpdateDedup::default();
    loop {
        let (stream, _) = listener.accept()?;
        match serve_connection(stream, &mut serving, &mut dedup, config) {
            ConnExit::Disconnected => {}
            ConnExit::Shutdown => {
                let _ = std::fs::remove_file(&config.socket);
                return Ok(());
            }
        }
    }
}

/// The worker's `Update` idempotency mark, kept across reconnects (that
/// is the point: a reconnect is exactly when the coordinator re-sends a
/// frame whose ack it never saw). Reset on (re)bootstrap, when the
/// coordinator's per-worker counter starts over.
#[derive(Debug, Default)]
struct UpdateDedup {
    /// Highest `batch_seq` already ingested.
    last_batch: u64,
    /// The ack that batch got, replayed verbatim for a duplicate.
    last_appended: u64,
}

/// Serves one coordinator connection in strict request→response order.
fn serve_connection(
    mut stream: UnixStream,
    serving: &mut Option<ServingEngine>,
    dedup: &mut UpdateDedup,
    config: &WorkerConfig,
) -> ConnExit {
    loop {
        let request = match Message::read_from(&mut stream) {
            Ok(msg) => msg,
            // EOF or a torn frame: the coordinator is gone (or restarting);
            // drop the connection but keep every byte of state.
            Err(_) => return ConnExit::Disconnected,
        };
        let shutdown = matches!(request, Message::Shutdown);
        let response = handle(request, serving, dedup, config);
        // Fault injection: an armed `stall` directive (inherited via
        // `CNE_FAULT_PLAN`) holds this response past the coordinator's
        // IO deadline — the stalled-socket chaos leg. Inert otherwise.
        crate::fault::worker_injector().stall_before_response();
        if stream.write_msg(&response).is_err() {
            return ConnExit::Disconnected;
        }
        if shutdown {
            return ConnExit::Shutdown;
        }
    }
}

/// Tiny extension so send sites read naturally.
trait WriteMsg {
    fn write_msg(&mut self, msg: &Message) -> io::Result<()>;
}

impl WriteMsg for UnixStream {
    fn write_msg(&mut self, msg: &Message) -> io::Result<()> {
        msg.write_to(self)
    }
}

fn err(code: u16, message: impl Into<String>) -> Message {
    Message::Err {
        code,
        message: message.into(),
    }
}

/// Computes the response for one request.
fn handle(
    request: Message,
    serving: &mut Option<ServingEngine>,
    dedup: &mut UpdateDedup,
    config: &WorkerConfig,
) -> Message {
    match request {
        Message::Hello => Message::HelloAck {
            shard_lo: config.shard_lo,
            shard_hi: config.shard_hi,
        },
        Message::BootstrapSnapshot {
            epoch,
            shard_layer,
            shard_lo,
            shard_hi,
            path,
        } => {
            // The range in the message is the coordinator's view of this
            // worker's assignment; a disagreement means frames are being
            // routed to the wrong worker — refuse rather than serve a
            // shard we were not spawned for.
            if (shard_lo, shard_hi) != (config.shard_lo, config.shard_hi) {
                return err(
                    err_code::PROTOCOL,
                    format!(
                        "snapshot bootstrap for shard {shard_lo}..{shard_hi}, \
                         but this worker owns {}..{}",
                        config.shard_lo, config.shard_hi
                    ),
                );
            }
            let snap = match bigraph::read_snapshot(std::path::Path::new(&path)) {
                Ok(s) => s,
                Err(e) => return err(err_code::PROTOCOL, format!("snapshot {path}: {e}")),
            };
            if snap.epoch() != epoch {
                return err(
                    err_code::PROTOCOL,
                    format!(
                        "snapshot {path} is stamped epoch {}, expected {epoch}",
                        snap.epoch()
                    ),
                );
            }
            let restricted = snap.restrict_to_shard(shard_layer, shard_lo, shard_hi);
            // Re-bootstrap replaces state wholesale: tear down any
            // previous engine before adopting the new one.
            if let Some(old) = serving.take() {
                drop(old.into_engine());
            }
            *serving = Some(ServingEngine::bootstrap_from_snapshot(
                &restricted,
                config.serving.clone(),
            ));
            *dedup = UpdateDedup::default();
            Message::BootstrapAck
        }
        Message::Update { batch_seq, deltas } => match serving {
            Some(engine) => {
                // A batch at or below the high-water mark is a resend of
                // a frame whose ack the coordinator never saw (its read
                // timed out and it reconnected): the deltas are already
                // in, so applying again would diverge — re-ack instead.
                if batch_seq != 0 && batch_seq <= dedup.last_batch {
                    return Message::UpdateAck {
                        appended: dedup.last_appended,
                    };
                }
                let appended = engine.extend(deltas);
                dedup.last_batch = batch_seq;
                dedup.last_appended = appended;
                Message::UpdateAck { appended }
            }
            None => err(err_code::NOT_BOOTSTRAPPED, "update before bootstrap"),
        },
        Message::Flush => match serving {
            Some(engine) => {
                engine.flush();
                Message::FlushAck {
                    published: engine.stats().published,
                }
            }
            None => err(err_code::NOT_BOOTSTRAPPED, "flush before bootstrap"),
        },
        Message::Round1Req {
            layer,
            target,
            epsilon,
            eps1_fraction,
            seed,
            candidates,
        } => {
            let Some(engine) = serving.as_ref() else {
                return err(err_code::NOT_BOOTSTRAPPED, "query before bootstrap");
            };
            let algo = BatchSingleSource {
                epsilon1_fraction: eps1_fraction,
            };
            let snap = engine.snapshot();
            let mut rng = StdRng::seed_from_u64(seed);
            match algo.round1_in(
                snap.engine().env(),
                layer,
                target,
                &candidates,
                epsilon,
                &mut rng,
            ) {
                Ok(r1) => Message::Round1Resp(WireRound1 {
                    epsilon: r1.epsilon,
                    flip_probability: r1.flip_probability,
                    eps2: r1.eps2.value(),
                    rr_epsilon: r1.noisy_target.epsilon,
                    base_seed: r1.base_seed,
                    universe: r1.noisy_target.set().universe() as u64,
                    words: r1.noisy_target.set().as_words().to_vec(),
                }),
                Err(e) => err(err_code::QUERY, e.to_string()),
            }
        }
        Message::Round2Req {
            layer,
            owner,
            round1,
            candidates,
        } => {
            let Some(engine) = serving.as_ref() else {
                return err(err_code::NOT_BOOTSTRAPPED, "query before bootstrap");
            };
            let eps2 = match PrivacyBudget::new(round1.eps2) {
                Ok(b) => b,
                Err(e) => return err(err_code::PROTOCOL, format!("bad eps2: {e}")),
            };
            // The row must span this worker's opposite layer: intersecting
            // it with a bitmap over a different universe is undefined.
            let snap = engine.snapshot();
            let opposite = snap.engine().graph().layer_size(layer.opposite());
            if round1.universe != opposite as u64 {
                return err(
                    err_code::PROTOCOL,
                    format!(
                        "noisy row spans {} vertices, but this worker's {:?} layer has {opposite}",
                        round1.universe,
                        layer.opposite()
                    ),
                );
            }
            // Every candidate must be a vertex of the query layer: round 2
            // reads its adjacency by index.
            let n = snap.engine().graph().layer_size(layer);
            if let Some(&w) = candidates.iter().find(|&&w| w as usize >= n) {
                return err(
                    err_code::PROTOCOL,
                    format!("candidate {w} is outside this worker's {layer:?} layer of {n}"),
                );
            }
            let rebuilt = BatchRound1 {
                epsilon: round1.epsilon,
                flip_probability: round1.flip_probability,
                eps2,
                base_seed: round1.base_seed,
                noisy_target: NoisyNeighborsPacked::from_parts(
                    owner,
                    layer,
                    round1.rr_epsilon,
                    PackedSet::from_words(round1.words, opposite),
                ),
            };
            match batch_round2(snap.engine().env(), layer, &candidates, &rebuilt) {
                Ok(estimates) => Message::Round2Resp {
                    estimates: estimates
                        .iter()
                        .map(|e| (e.candidate, e.estimate.to_bits()))
                        .collect(),
                },
                Err(e) => err(err_code::QUERY, e.to_string()),
            }
        }
        Message::StatsReq => Message::StatsResp(
            serving
                .as_ref()
                .map_or_else(ServingStats::default, ServingEngine::stats),
        ),
        Message::Shutdown => Message::ShutdownAck,
        other => err(
            err_code::PROTOCOL,
            format!("unexpected request on worker: {other:?}"),
        ),
    }
}
