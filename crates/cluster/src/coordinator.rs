//! The coordinator: spawns shard workers, replicates the update stream,
//! fans queries out, and concatenates per-worker reports.
//!
//! See the [crate docs](crate) for the shard-assignment rules and the
//! concatenation proof sketch. Mechanically, a batch query runs as:
//!
//! 1. **Round 1 at the target's owner.** The owner validates the full
//!    candidate list (validation only reads global layer sizes, which
//!    every shard graph carries) and runs the target's randomized
//!    response, returning the noisy row + the per-candidate stream base
//!    seed.
//! 2. **Round 2 at each candidate's owner.** The coordinator groups
//!    candidates by owning range and ships the round-1 artifact to each
//!    owner, which computes its slice of estimates against its own
//!    (complete) adjacency. All requests are written before any response
//!    is read, so the owners work at once without a thread per worker.
//! 3. **Concatenate + replay.** Estimates come back bit-exact and are
//!    placed at their original indices; the coordinator replays the
//!    budget/transcript accounting locally (replay never draws
//!    randomness), yielding a [`BatchReport`] byte-identical to an
//!    unsharded engine's.
//!
//! Robustness: connects have a bounded retry budget, reads carry
//! timeouts, and one reconnect-and-resend is attempted per request — a
//! worker that is merely restarting is picked back up, while a dead one
//! gets marked unhealthy and the fan-out returns
//! [`ClusterError::PartialResult`] instead of hanging.

use crate::error::{ClusterError, Result};
use crate::fault::{FaultInjector, FrameFate, KillTarget};
use crate::wire::{Message, WireRound1};
use crate::worker::{SHARD_HI_ENV, SHARD_LO_ENV, SOCKET_ENV};
use bigraph::delta::{GraphDelta, UpdateLog};
use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, Layer, VertexId};
use cne::batch::{BatchEstimate, BatchReport, BatchRound1, BatchSingleSource};
use cne::serving::ServingStats;
use cne::CneError;
use ldp::budget::PrivacyBudget;
use ldp::noisy_graph::NoisyNeighborsPacked;
use std::io;
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every timeout, deadline, and backoff the coordinator applies to a
/// worker, in one place. Retries sleep a **jitter-free exponential**
/// sequence — `backoff_base * 2^attempt`, capped at `backoff_cap` — so a
/// retry schedule is exactly reproducible run to run (the property the
/// fault-injection harness pins its legs on), while still spreading a
/// slow worker's restart over geometrically fewer probes than the old
/// fixed sleep did.
///
/// [`RetryPolicy::from_env`] (which [`Default`] delegates to) lets every
/// knob be overridden per process without a code change:
///
/// | field | env var | default |
/// |---|---|---|
/// | `connect_timeout` | `CNE_CLUSTER_CONNECT_TIMEOUT_MS` | 5000 |
/// | `backoff_base` | `CNE_CLUSTER_BACKOFF_BASE_MS` | 10 |
/// | `backoff_cap` | `CNE_CLUSTER_BACKOFF_CAP_MS` | 160 |
/// | `io_timeout` | `CNE_CLUSTER_IO_TIMEOUT_MS` | 10000 |
/// | `teardown_deadline` | `CNE_CLUSTER_TEARDOWN_MS` | 2000 |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total time budget for (re)connecting to one worker's socket,
    /// with [`backoff`](Self::backoff) sleeps between attempts.
    pub connect_timeout: Duration,
    /// First retry sleep; attempt `n` sleeps `backoff_base * 2^n`.
    pub backoff_base: Duration,
    /// Ceiling on any single retry sleep.
    pub backoff_cap: Duration,
    /// Read/write timeout on every worker socket: the bound that turns a
    /// hung worker into a typed error instead of a hung coordinator.
    pub io_timeout: Duration,
    /// How long an orderly teardown waits for a worker to exit on its
    /// own (polled with [`backoff`](Self::backoff)) before killing it.
    pub teardown_deadline: Duration,
}

impl RetryPolicy {
    /// The compiled-in baseline (the table in the type docs), with no
    /// environment consulted.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(160),
            io_timeout: Duration::from_secs(10),
            teardown_deadline: Duration::from_secs(2),
        }
    }

    /// [`baseline`](Self::baseline) with any of the documented
    /// `CNE_CLUSTER_*_MS` environment overrides applied (unparsable
    /// values are ignored). This is what [`Default`] returns, so CI legs
    /// and operators tune deadlines without touching call sites.
    #[must_use]
    pub fn from_env() -> Self {
        let ms = |var: &str, fallback: Duration| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(fallback, Duration::from_millis)
        };
        let base = Self::baseline();
        Self {
            connect_timeout: ms("CNE_CLUSTER_CONNECT_TIMEOUT_MS", base.connect_timeout),
            backoff_base: ms("CNE_CLUSTER_BACKOFF_BASE_MS", base.backoff_base),
            backoff_cap: ms("CNE_CLUSTER_BACKOFF_CAP_MS", base.backoff_cap),
            io_timeout: ms("CNE_CLUSTER_IO_TIMEOUT_MS", base.io_timeout),
            teardown_deadline: ms("CNE_CLUSTER_TEARDOWN_MS", base.teardown_deadline),
        }
    }

    /// The deterministic sleep before retry `attempt` (0-based):
    /// `min(backoff_base * 2^attempt, backoff_cap)`. No jitter — two runs
    /// of the same schedule probe at the same offsets.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_cap, |d| d.min(self.backoff_cap))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Coordinator-side tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Timeouts, deadlines, and retry backoff (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Deltas drained from the coordinator log per replication pump.
    pub pump_chunk: usize,
    /// The fault-injection harness consulted on every outbound frame,
    /// shard-file write, and rebalance step. The default arms whatever
    /// [`FAULT_PLAN_ENV`](crate::FAULT_PLAN_ENV) holds — unset, an inert
    /// injector that costs one atomic-free boolean check per site.
    pub faults: Arc<FaultInjector>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::from_env(),
            pump_chunk: 4096,
            faults: FaultInjector::from_env(),
        }
    }
}

/// A worker's spawn-time identity, handed to the launch closure.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Index in the coordinator's worker table.
    pub index: usize,
    /// The socket the worker must listen on.
    pub socket: PathBuf,
    /// First owned shard-layer vertex.
    pub shard_lo: u32,
    /// One past the last owned vertex.
    pub shard_hi: u32,
}

/// A [`Command`] that runs `program` as the shard worker described by
/// `spec` (socket + range via the worker env vars). The standard launch
/// closure for both the dedicated `shard-worker` binary and self-exec
/// harnesses.
#[must_use]
pub fn worker_command(program: &Path, spec: &WorkerSpec) -> Command {
    let mut cmd = Command::new(program);
    cmd.env(SOCKET_ENV, &spec.socket)
        .env(SHARD_LO_ENV, spec.shard_lo.to_string())
        .env(SHARD_HI_ENV, spec.shard_hi.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

/// Coordinator-side state for one worker process.
struct Worker {
    spec: WorkerSpec,
    child: Option<Child>,
    conn: Option<UnixStream>,
    healthy: bool,
    /// Idempotency counter for `Update` exchanges: bumped once per
    /// logical batch, so the retry inside [`exchange`] re-sends the same
    /// `batch_seq` and the worker can drop a batch it already ingested
    /// instead of double-applying it (`AddVertex` is not idempotent).
    update_batches: u64,
}

/// One worker's entry in a [`ClusterStats`] roll-up.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// Worker index.
    pub index: usize,
    /// Owned shard range.
    pub shard: Range<u32>,
    /// Whether the last exchange with this worker succeeded.
    pub healthy: bool,
    /// The worker's serving counters (`None` if unreachable).
    pub stats: Option<ServingStats>,
}

/// The coordinator's roll-up of every worker's [`ServingStats`].
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-worker detail, in shard order.
    pub workers: Vec<WorkerStatus>,
    /// Workers that answered the stats request.
    pub healthy_workers: usize,
    /// Sum of per-worker appended deltas.
    pub appended: u64,
    /// Sum of per-worker published deltas.
    pub published: u64,
    /// Sum of per-worker rejected deltas.
    pub rejected: u64,
    /// Worst current ingest lag across workers.
    pub max_ingest_lag: u64,
    /// Worst p50 snapshot lag across workers.
    pub max_lag_p50: u64,
    /// Worst p95 snapshot lag across workers.
    pub max_lag_p95: u64,
    /// Slowest worker's published epoch.
    pub min_epoch: u64,
    /// Fastest worker's published epoch.
    pub max_epoch: u64,
}

/// The retained worker-launch closure: maps a [`WorkerSpec`] to a spawned
/// child process, both at initial spawn and when [`Coordinator::supervise`]
/// respawns a dead worker.
type LaunchFn = Box<dyn FnMut(&WorkerSpec) -> io::Result<Child> + Send>;

/// The multi-process serving front end: owns the worker processes, the
/// replication log, and the query fan-out.
pub struct Coordinator {
    config: ClusterConfig,
    shard_layer: Layer,
    ranges: Vec<Range<u32>>,
    /// Interior cut points of `ranges` (`ranges[i].start` for `i >= 1`),
    /// cached so [`owner_of`](Self::owner_of) — which runs once per
    /// candidate on every batch query — is a binary search instead of a
    /// linear scan over the partition.
    cuts: Vec<u32>,
    workers: Vec<Worker>,
    log: UpdateLog,
    algo: BatchSingleSource,
    /// The launch closure, retained so [`supervise`](Self::supervise) can
    /// respawn a dead worker with the same command the original used.
    launch: LaunchFn,
    /// Where workers (re)bootstrap from: the current generation's shard
    /// files.
    snapshot: SnapshotSource,
    /// The artifact directory (sockets, shard files, manifest), retained
    /// so rebalancing can stage a new generation of files next to the
    /// live ones.
    dir: PathBuf,
    /// Topology generation, bumped by every [`begin_rebalance`]
    /// (`Coordinator::begin_rebalance`). Generation-`g` artifacts carry a
    /// `-g{g}-` infix so a staged topology never collides with the one
    /// still serving.
    generation: u64,
    /// The coordinator's own copy of the graph, kept current lazily:
    /// `graph` is the source snapshot's state with every drained delta
    /// through `seq` applied. Rebalancing folds the drained tail in at
    /// its quiet point to cut fresh shard files without asking any worker
    /// to serialize state back.
    base: BaseGraph,
    /// The in-flight rebalance, if any (see [`RebalanceStep`] for the
    /// step sequence). `Some` only between a failed/paused step and the
    /// next [`rebalance_step`](Coordinator::rebalance_step) call;
    /// completed or rolled-back rebalances clear it.
    rebalance: Option<RebalanceState>,
}

/// The coordinator-held graph replica rebalancing cuts shard files from.
struct BaseGraph {
    /// Source-snapshot state plus all drained deltas through `seq`.
    graph: BipartiteGraph,
    /// Last drained log sequence folded into `graph`.
    seq: u64,
}

/// The on-disk snapshots a cluster rebuilds workers from: one shard-restricted file per worker, so a (re)bootstrapping
/// worker reads and validates only its own shard's bytes instead of the
/// full graph image.
struct SnapshotSource {
    /// Per-worker shard snapshot paths; must stay readable for the
    /// cluster's lifetime.
    paths: Vec<PathBuf>,
    /// Coordinator-log sequence the snapshots cover; tail replay starts
    /// strictly after it.
    seq: u64,
    /// Graph epoch stamped into the files (workers cross-check it before
    /// adopting).
    epoch: u64,
}

/// The steps of a live rebalance, in order. Each step is atomic from the
/// caller's perspective: a failure inside any of them rolls the
/// coordinator back to the previous topology (still serving, zero
/// divergence) before the error surfaces. The **commit point** is inside
/// [`CutOver`](Self::CutOver) — every fallible action precedes it, so a
/// surfaced [`ClusterError::Rebalance`] always has `rolled_back: true`;
/// anything that dies *after* commit (a fresh worker crashing on its
/// first query) is ordinary supervision work, finished by
/// [`Coordinator::supervise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RebalanceStep {
    /// Drain the replication log and barrier every worker: after this,
    /// worker state == base state + drained tail, with nothing in flight.
    Quiesce,
    /// Fold the drained tail into the coordinator's base graph and pin a
    /// quiet-point [`GraphSnapshot`] at the current drained sequence.
    Capture,
    /// Cut one shard-restricted snapshot file per **new** range, named
    /// with the new generation so the staged files never collide with
    /// the serving ones.
    Cut,
    /// Launch the new generation's worker processes on fresh sockets.
    Spawn,
    /// Handshake each new worker and ship its snapshot-bootstrap frame.
    Bootstrap,
    /// Catch the new workers up past the pinned sequence, barrier them,
    /// then **commit**: swap the coordinator's range table, cut-point
    /// cache, worker table, and snapshot source in one motion. Queries
    /// issued before this step complete against the old topology; the
    /// first query after it runs against the new one.
    CutOver,
    /// Shut down the retired workers and sweep shard files no longer
    /// named by the manifest. Purely janitorial — the new topology is
    /// already serving, so failures here degrade to best-effort cleanup.
    Retire,
}

impl RebalanceStep {
    /// Lower-case step name — the spelling [`FaultPlan`] `kill=` targets
    /// and [`ClusterError::Rebalance::step`] use.
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    /// [`ClusterError::Rebalance::step`]: crate::ClusterError::Rebalance
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RebalanceStep::Quiesce => "quiesce",
            RebalanceStep::Capture => "capture",
            RebalanceStep::Cut => "cut",
            RebalanceStep::Spawn => "spawn",
            RebalanceStep::Bootstrap => "bootstrap",
            RebalanceStep::CutOver => "cutover",
            RebalanceStep::Retire => "retire",
        }
    }

    /// The step after this one (`None` after [`Retire`](Self::Retire)).
    #[must_use]
    pub fn next(self) -> Option<Self> {
        match self {
            RebalanceStep::Quiesce => Some(RebalanceStep::Capture),
            RebalanceStep::Capture => Some(RebalanceStep::Cut),
            RebalanceStep::Cut => Some(RebalanceStep::Spawn),
            RebalanceStep::Spawn => Some(RebalanceStep::Bootstrap),
            RebalanceStep::Bootstrap => Some(RebalanceStep::CutOver),
            RebalanceStep::CutOver => Some(RebalanceStep::Retire),
            RebalanceStep::Retire => None,
        }
    }
}

/// What one [`Coordinator::rebalance_step`] call left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceStatus {
    /// The named step completed; call `rebalance_step` again to run it.
    InProgress(RebalanceStep),
    /// The rebalance is done and the new topology is serving.
    Complete,
}

/// Everything an in-flight rebalance has staged, kept in one bundle so
/// rollback is "drop the bundle" and commit is "swap the bundle in".
struct RebalanceState {
    /// The step to run next.
    step: RebalanceStep,
    /// Target partition (validated contiguous cover at `begin`).
    new_ranges: Vec<Range<u32>>,
    /// The generation these staged artifacts belong to.
    generation: u64,
    /// The quiet-point snapshot pinned by [`RebalanceStep::Capture`];
    /// dropped once [`RebalanceStep::Cut`] has serialized it.
    snapshot: Option<GraphSnapshot>,
    /// Drained log sequence the pinned snapshot covers.
    pinned_seq: u64,
    /// Graph epoch stamped into the staged shard files.
    epoch: u64,
    /// Manifest bytes describing the staged files (written at commit).
    manifest: Vec<u8>,
    /// Staged shard-file paths. Cleared at commit — rollback deletes
    /// whatever is still listed here, so a path present means "safe to
    /// remove".
    paths: Vec<PathBuf>,
    /// The new generation's workers, in new-range order. Swapped into
    /// the coordinator at commit.
    new_workers: Vec<Worker>,
    /// The old generation's workers, moved here at commit and shut down
    /// by [`RebalanceStep::Retire`].
    retired: Vec<Worker>,
}

/// The index of the range owning `v` in a contiguous partition whose
/// interior cut points are `cuts` (`cuts[i]` = start of range `i + 1`):
/// the number of cut points at or below `v`.
fn owner_index(cuts: &[u32], v: VertexId) -> usize {
    cuts.partition_point(|&cut| cut <= v)
}

/// Shard-manifest magic: `"CNEM"` read as a little-endian u32.
const MANIFEST_MAGIC: u32 = 0x4D454E43;
/// Shard-manifest format version.
const MANIFEST_VERSION: u16 = 1;

/// The manifest a cluster writes next to its shard files, recording every parameter that shaped them. A later spawn into
/// the same directory reuses the existing files iff its own manifest
/// bytes are identical — same source epoch and pinned sequence, same
/// graph shape, same shard layer, same ranges — which is what makes a
/// cluster *restart* skip shard derivation entirely. Reuse trusts the
/// directory to be this cluster's own artifact store (the same trust
/// supervision already places in it between spawn and respawn); payload
/// corruption is still caught by the snapshot section checksums when a
/// worker adopts its file.
fn shard_manifest(snapshot: &GraphSnapshot, shard_layer: Layer, ranges: &[Range<u32>]) -> Vec<u8> {
    let g = snapshot.graph();
    let mut out = Vec::with_capacity(56 + ranges.len() * 8);
    out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&[
        match shard_layer {
            Layer::Upper => 0u8,
            Layer::Lower => 1,
        },
        0,
    ]);
    out.extend_from_slice(&snapshot.epoch().to_le_bytes());
    out.extend_from_slice(&snapshot.log_seq().to_le_bytes());
    out.extend_from_slice(&(g.n_upper() as u64).to_le_bytes());
    out.extend_from_slice(&(g.n_lower() as u64).to_le_bytes());
    out.extend_from_slice(&(g.n_edges() as u64).to_le_bytes());
    out.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    for r in ranges {
        out.extend_from_slice(&r.start.to_le_bytes());
        out.extend_from_slice(&r.end.to_le_bytes());
    }
    out
}

/// Contiguous shard ranges: an even split of `[0, n)` into `k` parts,
/// with the last part open-ended (`hi = u32::MAX`) so vertices appended
/// after spawn have an owner. Empty for `k == 0`, which
/// [`check_contiguous_cover`] then rejects.
fn shard_ranges(n: usize, k: usize) -> Vec<Range<u32>> {
    let n = n as u64;
    let k64 = k as u64;
    (0..k)
        .map(|i| {
            let lo = (n * i as u64 / k64) as u32;
            let hi = if i == k - 1 {
                u32::MAX
            } else {
                (n * (i as u64 + 1) / k64) as u32
            };
            lo..hi
        })
        .collect()
}

/// A [`ClusterError::Rebalance`] for misuse caught before any step ran
/// (step `"begin"`): a rebalance already in flight, none in flight to
/// step, or a malformed target partition. Always `rolled_back: true` —
/// nothing was staged, so the previous topology is trivially intact.
fn rebalance_misuse(reason: String) -> ClusterError {
    ClusterError::Rebalance {
        step: "begin",
        rolled_back: true,
        source: Box::new(ClusterError::Query(CneError::InvalidParameter {
            name: "rebalance",
            reason,
        })),
    }
}

/// Checks that `ranges` is a contiguous ascending cover of
/// `0..u32::MAX` — the shared validity rule for spawn partitions and
/// rebalance targets. The `Err` says which part of the rule failed.
fn check_contiguous_cover(ranges: &[Range<u32>]) -> std::result::Result<(), String> {
    let (Some(first), Some(last)) = (ranges.first(), ranges.last()) else {
        return Err("at least one shard range is required".into());
    };
    if first.start != 0 {
        return Err(format!(
            "first range must start at vertex 0, not {}",
            first.start
        ));
    }
    if last.end != u32::MAX {
        return Err(format!(
            "last range must be open-ended, not end at {}",
            last.end
        ));
    }
    if let Some(p) = ranges.windows(2).find(|p| p[0].end != p[1].start) {
        return Err(format!(
            "ranges must be contiguous: {:?} is followed by {:?}",
            p[0], p[1]
        ));
    }
    match ranges.iter().find(|r| r.start > r.end) {
        Some(r) => Err(format!("ranges must be ascending: {r:?} is inverted")),
        None => Ok(()),
    }
}

/// Sweeps `dir` of shard snapshot files (`shard-*.snap`) that are not in
/// `keep`. Best-effort janitor: a cluster restart with fewer workers, or
/// a completed rebalance, orphans the previous layout's files, and
/// nothing can ever bootstrap from a file the manifest no longer names.
/// The manifest itself and unrelated files (including full-graph
/// snapshots like `screening.snap` that don't match the `shard-` prefix)
/// are untouched.
fn gc_stale_shard_files(dir: &Path, keep: &[PathBuf]) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("shard-") && name.ends_with(".snap") && !keep.contains(&path) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Orderly shutdown of one worker: best-effort `Shutdown` request, a
/// bounded grace period ([`RetryPolicy::teardown_deadline`], polled with
/// the policy's deterministic backoff), then a kill if it overstays, and
/// finally socket removal. Shared by [`Coordinator`]'s `Drop` teardown
/// and the rebalance [`Retire`](RebalanceStep::Retire) step; safe to
/// call on a worker that is already dead or half-gone.
fn retire_worker(config: &ClusterConfig, worker: &mut Worker) {
    if worker.child.is_some() {
        // Best effort: a dead worker just gets killed below.
        let _ = exchange(config, worker, &Message::Shutdown, "shutdown");
        worker.conn = None;
        if let Some(mut child) = worker.child.take() {
            let deadline = Instant::now() + config.retry.teardown_deadline;
            let mut attempt = 0u32;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(config.retry.backoff(attempt));
                        attempt += 1;
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(&worker.spec.socket);
}

/// Replays the drained-delta tail strictly after `after_seq` to one
/// worker, filtered to `range` by the same routing rule replication uses
/// ([`GraphDelta::shard_vertex`]: edge deltas to their shard-layer
/// endpoint's owner, `AddVertex` broadcast), in chunks of
/// [`pump_chunk`](ClusterConfig::pump_chunk). A free function so both
/// supervision (rebuilding into `Coordinator::workers`) and rebalancing
/// (catching up workers not yet in the table) can drive it.
fn replay_drained_tail(
    config: &ClusterConfig,
    log: &UpdateLog,
    shard_layer: Layer,
    worker: &mut Worker,
    range: &Range<u32>,
    after_seq: u64,
) -> Result<()> {
    let tail = log
        .replay_from(after_seq)
        .expect("cluster logs retain drained deltas");
    let part: Vec<GraphDelta> = tail
        .deltas()
        .iter()
        .copied()
        .filter(|d| match d.shard_vertex(shard_layer) {
            Some(v) => range.contains(&v),
            None => true, // AddVertex: broadcast, every shard replays it.
        })
        .collect();
    for chunk in part.chunks(config.pump_chunk.max(1)) {
        worker.update_batches += 1;
        let update = Message::Update {
            batch_seq: worker.update_batches,
            deltas: chunk.to_vec(),
        };
        match exchange(config, worker, &update, "tail replay")? {
            Message::UpdateAck { .. } => {}
            other => {
                return Err(ClusterError::Protocol {
                    worker: worker.spec.index,
                    detail: format!("unexpected response during tail replay: {other:?}"),
                })
            }
        }
    }
    Ok(())
}

/// One request→response exchange with bounded retry: on an I/O failure
/// the connection is dropped, re-established (fresh handshake included),
/// and the request re-sent once. A second failure marks the worker
/// unhealthy and surfaces [`ClusterError::WorkerDown`].
///
/// A free function over one worker's state (not a `Coordinator` method)
/// so supervision and rebalancing can drive workers that are not in the
/// table yet, or no longer.
fn exchange(
    config: &ClusterConfig,
    worker: &mut Worker,
    msg: &Message,
    context: &'static str,
) -> Result<Message> {
    let first = try_exchange(config, worker, msg);
    settle(config, worker, msg, context, first)
}

/// Finishes an exchange whose first attempt gave `first`: a success
/// marks the worker healthy; a failure gets [`exchange`]'s
/// reconnect-and-resend-once.
fn settle(
    config: &ClusterConfig,
    worker: &mut Worker,
    msg: &Message,
    context: &'static str,
    first: io::Result<Message>,
) -> Result<Message> {
    let outcome = first.or_else(|_| {
        // The worker may be restarting: reconnect and resend once.
        worker.conn = None;
        try_exchange(config, worker, msg)
    });
    match outcome {
        Ok(resp) => {
            worker.healthy = true;
            Ok(resp)
        }
        Err(source) => {
            worker.conn = None;
            worker.healthy = false;
            Err(ClusterError::WorkerDown {
                worker: worker.spec.index,
                context,
                source,
            })
        }
    }
}

/// Sends `msg` on the worker's connection (establishing it first if
/// needed) and reads one response frame.
fn try_exchange(config: &ClusterConfig, worker: &mut Worker, msg: &Message) -> io::Result<Message> {
    try_send(config, worker, msg)?;
    try_recv(worker)
}

/// Sends `msg` on the worker's connection, establishing it first if
/// needed.
fn try_send(config: &ClusterConfig, worker: &mut Worker, msg: &Message) -> io::Result<()> {
    ensure_connected(config, worker)?;
    let conn = worker.conn.as_mut().expect("just connected");
    send_with_faults(&config.faults, conn, msg)
}

/// Reads one response frame from the connection a successful
/// [`try_send`] left up.
fn try_recv(worker: &mut Worker) -> io::Result<Message> {
    let conn = worker
        .conn
        .as_mut()
        .expect("a successful send leaves the connection up");
    Message::read_from(conn)
}

/// Writes one request frame through the fault injector. With no plan
/// armed this is exactly [`Message::write_to`]; with one, the frame is
/// counted and may be delayed, corrupted, or dropped. A *dropped* frame
/// is swallowed here (nothing hits the socket), so the caller's read
/// times out at the I/O deadline and [`exchange`]'s reconnect-and-resend
/// retry fires — the counter has already advanced, so the resend goes
/// through clean. Handshake frames bypass this path on purpose: frame
/// indices stay stable across reconnects.
fn send_with_faults(
    faults: &FaultInjector,
    conn: &mut UnixStream,
    msg: &Message,
) -> io::Result<()> {
    use std::io::Write;
    if !faults.is_active() {
        return msg.write_to(conn);
    }
    let mut frame = msg.to_frame_bytes();
    match faults.outbound_frame(&mut frame) {
        FrameFate::Send => {
            conn.write_all(&frame)?;
            conn.flush()
        }
        FrameFate::Drop => Ok(()),
    }
}

/// Connects (with [`RetryPolicy::backoff`] sleeps up to
/// `connect_timeout`) and runs the versioned handshake. No-op when a
/// connection is already up.
fn ensure_connected(config: &ClusterConfig, worker: &mut Worker) -> io::Result<()> {
    if worker.conn.is_some() {
        return Ok(());
    }
    let retry = &config.retry;
    let deadline = Instant::now() + retry.connect_timeout;
    let mut attempt = 0u32;
    let mut stream = loop {
        match UnixStream::connect(&worker.spec.socket) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
            }
        }
    };
    stream.set_read_timeout(Some(retry.io_timeout))?;
    stream.set_write_timeout(Some(retry.io_timeout))?;
    Message::Hello.write_to(&mut stream)?;
    match Message::read_from(&mut stream)? {
        Message::HelloAck { shard_lo, shard_hi } => {
            let spec = &worker.spec;
            if shard_lo != spec.shard_lo || shard_hi != spec.shard_hi {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "worker {} reports shard {shard_lo}..{shard_hi}, expected {}..{}",
                        spec.index, spec.shard_lo, spec.shard_hi
                    ),
                ));
            }
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake got {other:?}"),
            ))
        }
    }
    worker.conn = Some(stream);
    Ok(())
}

/// Rebuilds the typed round-1 artifact from its wire image.
fn round1_from_wire(
    owner: VertexId,
    layer: Layer,
    wire: WireRound1,
) -> std::result::Result<BatchRound1, String> {
    let eps2 = PrivacyBudget::new(wire.eps2).map_err(|e| format!("bad eps2: {e}"))?;
    Ok(BatchRound1 {
        epsilon: wire.epsilon,
        flip_probability: wire.flip_probability,
        eps2,
        base_seed: wire.base_seed,
        noisy_target: NoisyNeighborsPacked::from_parts(
            owner,
            layer,
            wire.rr_epsilon,
            bigraph::bitset::PackedSet::from_words(wire.words, wire.universe as usize),
        ),
    })
}

/// Kills a worker's process without a shutdown handshake, reaps it, and
/// removes its socket. Safe to call on a worker that is already gone.
fn reap(worker: &mut Worker) {
    worker.conn = None;
    worker.healthy = false;
    if let Some(mut child) = worker.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_file(&worker.spec.socket);
}

/// Launches one worker per range with `launch`, worker `index` listening
/// on `socket(index)`. If a launch fails, the workers already started are
/// reaped before the error returns, so no process outlives it.
fn launch_workers(
    launch: &mut LaunchFn,
    ranges: &[Range<u32>],
    socket: impl Fn(usize) -> PathBuf,
) -> Result<Vec<Worker>> {
    let mut workers = Vec::with_capacity(ranges.len());
    for (index, range) in ranges.iter().enumerate() {
        let spec = WorkerSpec {
            index,
            socket: socket(index),
            shard_lo: range.start,
            shard_hi: range.end,
        };
        // A stale socket from a previous run must not satisfy our
        // connect retry before the new worker binds.
        let _ = std::fs::remove_file(&spec.socket);
        match launch(&spec) {
            Ok(child) => workers.push(Worker {
                spec,
                child: Some(child),
                conn: None,
                healthy: true,
                update_batches: 0,
            }),
            Err(source) => {
                workers.iter_mut().for_each(reap);
                return Err(ClusterError::Spawn {
                    worker: index,
                    source,
                });
            }
        }
    }
    Ok(workers)
}

/// Writes one shard-restricted snapshot file per range to `paths`, plus
/// the manifest describing them — or, when the manifest already in `dir`
/// matches and every file exists, reuses the files as they are (see
/// [`shard_manifest`]). Then sweeps shard files the manifest no longer
/// names.
fn write_shard_files(
    snapshot: &GraphSnapshot,
    shard_layer: Layer,
    ranges: &[Range<u32>],
    dir: &Path,
    paths: &[PathBuf],
) -> Result<()> {
    let manifest_path = dir.join("shards.manifest");
    let manifest = shard_manifest(snapshot, shard_layer, ranges);
    let reusable = std::fs::read(&manifest_path).is_ok_and(|found| found == manifest)
        && paths.iter().all(|p| p.exists());
    if !reusable {
        // Invalidate first so a crash mid-rewrite never leaves a
        // manifest vouching for half-rewritten files.
        let _ = std::fs::remove_file(&manifest_path);
        for (index, (range, path)) in ranges.iter().zip(paths).enumerate() {
            // Plain writes, not `write_to`'s durable tmp + rename +
            // fsync dance: shard files are scratch bootstrap artifacts
            // re-derived from the source snapshot on demand, and a torn
            // file is caught by section checksums on read. Durability is
            // the *source* snapshot's concern.
            let bytes = snapshot
                .restrict_to_shard(shard_layer, range.start, range.end)
                .to_bytes();
            std::fs::write(path, bytes).map_err(|source| ClusterError::Spawn {
                worker: index,
                source,
            })?;
        }
        std::fs::write(&manifest_path, &manifest)
            .map_err(|source| ClusterError::Spawn { worker: 0, source })?;
    }
    // A previous run with a different worker count (or an aborted
    // rebalance generation) may have left shard files the manifest no
    // longer names; sweep them so the directory only ever holds
    // artifacts something can still bootstrap from.
    gc_stale_shard_files(dir, paths);
    Ok(())
}

impl Coordinator {
    /// Spawns one shard worker per range of `ranges`, sharded along
    /// `shard_layer`, and bootstraps every worker from **binary
    /// snapshots**. This is the one way a cluster starts; sockets and
    /// shard files live under `dir`, and `launch` starts each worker
    /// process (see [`worker_command`]; [`spawn_program_from_snapshot`]
    /// is the even-split shorthand).
    ///
    /// `ranges` must start at 0, be contiguous and ascending, and end at
    /// `u32::MAX`. Placement independence means any such partition serves
    /// byte-identical reports. `snapshot` (an already-captured
    /// [`bigraph::snapshot`] image, e.g. `GraphSnapshot::capture(&graph,
    /// 0)` or the serving tier's quiet-point artifact) must be pinned at
    /// log sequence 0: its state precedes this coordinator's fresh update
    /// stream. It is restricted per shard and written as one
    /// `shard-<index>.snap` file per worker. Each worker receives a
    /// [`BootstrapSnapshot`](Message::BootstrapSnapshot) frame naming its
    /// own file — it reads, validates, and adopts only its shard's bytes,
    /// with just paths crossing the sockets.
    ///
    /// Shard files persist in `dir` alongside a manifest of the
    /// parameters that shaped them; spawning again into the same
    /// directory from the same source **reuses** them — a cluster
    /// restart skips shard derivation and pays only worker adoption.
    /// Reuse is gated on an exact manifest match (source epoch and
    /// pinned sequence, graph shape, shard layer, ranges); the directory
    /// is trusted to be this cluster's own artifact store, and payload
    /// corruption is still caught by section checksums at adoption.
    ///
    /// The shard files are the cluster's **recovery source**, the
    /// snapshot's graph is its base for rebalancing, and the log retains
    /// drained deltas ([`UpdateLog::with_retention`]). That is what lets
    /// [`Coordinator::supervise`] rebuild a dead worker (respawn →
    /// snapshot bootstrap → tail replay) and
    /// [`Coordinator::rebalance`] cut new shard files live.
    ///
    /// [`spawn_program_from_snapshot`]: Coordinator::spawn_program_from_snapshot
    ///
    /// # Errors
    ///
    /// [`ClusterError::Query`] with an
    /// [`InvalidParameter`](CneError::InvalidParameter) error, before any
    /// process starts, if `ranges` is not a contiguous cover of
    /// `0..u32::MAX` or `snapshot` is pinned at a nonzero log sequence;
    /// [`ClusterError::Spawn`] if writing a shard snapshot or starting,
    /// connecting, or bootstrapping any worker fails.
    pub fn spawn_partitioned_from_snapshot<F>(
        snapshot: &GraphSnapshot,
        shard_layer: Layer,
        ranges: Vec<Range<u32>>,
        dir: &Path,
        config: ClusterConfig,
        launch: F,
    ) -> Result<Self>
    where
        F: FnMut(&WorkerSpec) -> io::Result<Child> + Send + 'static,
    {
        check_contiguous_cover(&ranges).map_err(|reason| {
            ClusterError::Query(CneError::InvalidParameter {
                name: "ranges",
                reason,
            })
        })?;
        if snapshot.log_seq() != 0 {
            return Err(ClusterError::Query(CneError::InvalidParameter {
                name: "snapshot",
                reason: format!(
                    "a cluster bootstrap snapshot must be pinned at sequence 0, not {} — \
                     its state precedes this coordinator's update stream",
                    snapshot.log_seq()
                ),
            }));
        }
        let mut launch: LaunchFn = Box::new(launch);
        // Launch the workers first so their process startup overlaps the
        // shard-file writes below.
        let mut workers = launch_workers(&mut launch, &ranges, |index| {
            dir.join(format!("shard-worker-{index}.sock"))
        })?;
        let paths: Vec<PathBuf> = (0..ranges.len())
            .map(|index| dir.join(format!("shard-{index}.snap")))
            .collect();
        if let Err(e) = write_shard_files(snapshot, shard_layer, &ranges, dir, &paths) {
            workers.iter_mut().for_each(reap);
            return Err(e);
        }
        let cuts = ranges[1..].iter().map(|r| r.start).collect();
        // From here on `Drop` reaps the workers if a bootstrap fails.
        let mut coordinator = Self {
            config,
            shard_layer,
            ranges,
            cuts,
            workers,
            log: UpdateLog::with_retention(),
            algo: BatchSingleSource::default(),
            launch,
            snapshot: SnapshotSource {
                paths,
                seq: 0,
                epoch: snapshot.epoch(),
            },
            dir: dir.to_path_buf(),
            generation: 0,
            // Cloned only after the shard files are written, so this copy
            // and the per-shard write buffers are never resident at once.
            base: BaseGraph {
                graph: snapshot.graph().clone(),
                seq: 0,
            },
            rebalance: None,
        };
        for index in 0..coordinator.workers.len() {
            coordinator
                .bootstrap_from_snapshot(index)
                .map_err(|e| match e {
                    ClusterError::WorkerDown { worker, source, .. } => {
                        ClusterError::Spawn { worker, source }
                    }
                    other => other,
                })?;
        }
        Ok(coordinator)
    }

    /// [`Coordinator::spawn_partitioned_from_snapshot`] over an even split
    /// into `n_workers` ranges, running `program` as each worker via
    /// [`worker_command`]. Tests pass `env!("CARGO_BIN_EXE_shard-worker")`;
    /// self-exec harnesses pass `std::env::current_exe()?`.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::spawn_partitioned_from_snapshot`]; `n_workers ==
    /// 0` is rejected like any other malformed partition.
    pub fn spawn_program_from_snapshot(
        snapshot: &GraphSnapshot,
        shard_layer: Layer,
        n_workers: usize,
        dir: &Path,
        config: ClusterConfig,
        program: &Path,
    ) -> Result<Self> {
        let layer_size = match shard_layer {
            Layer::Upper => snapshot.graph().n_upper(),
            Layer::Lower => snapshot.graph().n_lower(),
        };
        let ranges = shard_ranges(layer_size, n_workers);
        let program = program.to_path_buf();
        Self::spawn_partitioned_from_snapshot(
            snapshot,
            shard_layer,
            ranges,
            dir,
            config,
            move |spec| worker_command(&program, spec).spawn(),
        )
    }

    /// Ships the snapshot-bootstrap frame to worker `index` (naming its
    /// own shard file) and waits for its ack.
    fn bootstrap_from_snapshot(&mut self, index: usize) -> Result<()> {
        let spec = &self.workers[index].spec;
        let msg = Message::BootstrapSnapshot {
            epoch: self.snapshot.epoch,
            shard_layer: self.shard_layer,
            shard_lo: spec.shard_lo,
            shard_hi: spec.shard_hi,
            path: self.snapshot.paths[index].to_string_lossy().into_owned(),
        };
        match self.request(index, &msg, "snapshot bootstrap")? {
            Message::BootstrapAck => Ok(()),
            other => Err(self.unexpected(index, "snapshot bootstrap", &other)),
        }
    }

    /// Number of shard workers.
    #[must_use]
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The contiguous shard ranges, in worker order.
    #[must_use]
    pub fn ranges(&self) -> &[Range<u32>] {
        &self.ranges
    }

    /// The worker index owning shard-layer vertex `v`: a binary search
    /// over the cached interior cut points of the partition.
    #[must_use]
    pub fn owner_of(&self, v: VertexId) -> usize {
        owner_index(&self.cuts, v)
    }

    // ------------------------------------------------------- replication

    /// Appends one delta to the coordinator's replication log.
    pub fn append(&self, delta: GraphDelta) -> u64 {
        self.log.append(delta)
    }

    /// Appends many deltas to the replication log.
    pub fn extend<I: IntoIterator<Item = GraphDelta>>(&self, deltas: I) -> u64 {
        self.log.extend(deltas)
    }

    /// Drains one chunk of the replication log, partitions it by shard
    /// range ([`UpdateLog::drain_partitioned`]), and ships each worker its
    /// slice. Returns the number of deltas replicated (0 = log empty).
    ///
    /// # Errors
    ///
    /// [`ClusterError::PartialResult`] naming the workers whose slice
    /// could not be delivered.
    pub fn pump(&mut self) -> Result<usize> {
        let Some(parts) =
            self.log
                .drain_partitioned(self.config.pump_chunk, self.shard_layer, &self.ranges)
        else {
            return Ok(0);
        };
        let total: usize = parts.iter().map(bigraph::UpdateBatch::len).sum();
        let mut missing = Vec::new();
        for (index, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            self.workers[index].update_batches += 1;
            let update = Message::Update {
                batch_seq: self.workers[index].update_batches,
                deltas: part.deltas().to_vec(),
            };
            match self.request(index, &update, "update replication") {
                Ok(Message::UpdateAck { .. }) => {}
                Ok(other) => return Err(self.unexpected(index, "update replication", &other)),
                Err(_) => missing.push(index),
            }
        }
        if missing.is_empty() {
            Ok(total)
        } else {
            Err(ClusterError::PartialResult {
                missing,
                context: "update replication",
            })
        }
    }

    /// Replicates the whole pending log and blocks until every worker has
    /// published everything it ingested (a cluster-wide barrier; for
    /// tests and orderly teardown, like [`ServingEngine::flush`]).
    ///
    /// [`ServingEngine::flush`]: cne::serving::ServingEngine::flush
    ///
    /// # Errors
    ///
    /// [`ClusterError::PartialResult`] naming unreachable workers.
    pub fn flush(&mut self) -> Result<()> {
        while self.pump()? > 0 {}
        let mut missing = Vec::new();
        for index in 0..self.workers.len() {
            match self.request(index, &Message::Flush, "flush") {
                Ok(Message::FlushAck { .. }) => {}
                Ok(other) => return Err(self.unexpected(index, "flush", &other)),
                Err(_) => missing.push(index),
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::PartialResult {
                missing,
                context: "flush",
            })
        }
    }

    // ------------------------------------------------------------ query

    /// Runs a batch query across the cluster and concatenates the
    /// per-worker reports into one [`BatchReport`] **byte-identical** to
    /// `EstimationEngine::estimate_batch(layer, target, candidates,
    /// epsilon, &mut StdRng::seed_from_u64(seed))` on an unsharded engine
    /// holding the same graph state.
    ///
    /// # Errors
    ///
    /// [`ClusterError::PartialResult`] when a shard's slice is missing
    /// (dead worker), [`ClusterError::Remote`] for worker-reported query
    /// errors (invalid target, duplicate candidates, a noisy row over the
    /// wrong universe, …), [`ClusterError::Protocol`] when the owner's
    /// noisy row cannot span the opposite layer, and
    /// [`ClusterError::Query`] for coordinator-side assembly failures.
    pub fn estimate_batch(
        &mut self,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        seed: u64,
    ) -> Result<BatchReport> {
        if layer != self.shard_layer {
            return Err(ClusterError::Query(CneError::InvalidParameter {
                name: "layer",
                reason: format!(
                    "cluster is sharded along {:?}; queries must target that layer",
                    self.shard_layer
                ),
            }));
        }
        // Round 1 at the target's owner (validates the full batch).
        let owner = self.owner_of(target);
        let round1_req = Message::Round1Req {
            layer,
            target,
            epsilon,
            eps1_fraction: self.algo.epsilon1_fraction,
            seed,
            candidates: candidates.to_vec(),
        };
        let wire_round1 = match self.request(owner, &round1_req, "round 1") {
            Ok(Message::Round1Resp(r)) => r,
            Ok(Message::Err { code, message }) => {
                return Err(ClusterError::Remote {
                    worker: owner,
                    code,
                    message,
                })
            }
            Ok(other) => return Err(self.unexpected(owner, "round 1", &other)),
            Err(_) => {
                return Err(ClusterError::PartialResult {
                    missing: vec![owner],
                    context: "round 1",
                })
            }
        };
        self.check_row_universe(owner, layer, wire_round1.universe)?;

        // Group candidates by owning worker, preserving relative order.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); self.workers.len()];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for (at, &w) in candidates.iter().enumerate() {
            let idx = self.owner_of(w);
            groups[idx].push(w);
            positions[idx].push(at);
        }

        // Round 2 at each involved owner, as one scatter-gather on this
        // thread: every request is written before any response is read, so
        // all owners compute their slices at once, for any worker count.
        // Responses are read in worker order. A worker whose send or read
        // failed gets `exchange`'s reconnect-and-resend-once only after the
        // others are read, so one faulty worker costs what it costs alone.
        // Estimates land at their original index either way.
        let involved: Vec<usize> = (0..self.workers.len())
            .filter(|&index| !groups[index].is_empty())
            .collect();
        let requests: Vec<Message> = involved
            .iter()
            .map(|&index| Message::Round2Req {
                layer,
                owner: target,
                round1: wire_round1.clone(),
                candidates: std::mem::take(&mut groups[index]),
            })
            .collect();
        let sent: Vec<io::Result<()>> = involved
            .iter()
            .zip(&requests)
            .map(|(&index, req)| try_send(&self.config, &mut self.workers[index], req))
            .collect();
        let first: Vec<io::Result<Message>> = involved
            .iter()
            .zip(sent)
            .map(|(&index, sent)| sent.and_then(|()| try_recv(&mut self.workers[index])))
            .collect();
        let responses: Vec<(usize, Result<Message>)> = involved
            .iter()
            .zip(&requests)
            .zip(first)
            .map(|((&index, req), first)| {
                let worker = &mut self.workers[index];
                (index, settle(&self.config, worker, req, "round 2", first))
            })
            .collect();
        let mut slots: Vec<Option<BatchEstimate>> = vec![None; candidates.len()];
        let mut missing = Vec::new();
        for (index, response) in responses {
            match response {
                Ok(Message::Round2Resp { estimates }) => {
                    if estimates.len() != positions[index].len() {
                        return Err(ClusterError::Protocol {
                            worker: index,
                            detail: format!(
                                "round 2 returned {} estimates for {} candidates",
                                estimates.len(),
                                positions[index].len()
                            ),
                        });
                    }
                    for (&at, &(candidate, bits)) in positions[index].iter().zip(&estimates) {
                        slots[at] = Some(BatchEstimate {
                            candidate,
                            estimate: f64::from_bits(bits),
                        });
                    }
                }
                Ok(Message::Err { code, message }) => {
                    return Err(ClusterError::Remote {
                        worker: index,
                        code,
                        message,
                    })
                }
                Ok(other) => return Err(self.unexpected(index, "round 2", &other)),
                Err(_) => missing.push(index),
            }
        }
        if !missing.is_empty() {
            return Err(ClusterError::PartialResult {
                missing,
                context: "round 2",
            });
        }
        let estimates: Vec<BatchEstimate> = slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .expect("every candidate slot filled by its owner");

        // Replay the accounting locally and emit the concatenated report.
        let round1 = round1_from_wire(target, layer, wire_round1).map_err(|detail| {
            ClusterError::Protocol {
                worker: owner,
                detail,
            }
        })?;
        self.algo
            .assemble_report(layer, target, &round1, estimates)
            .map_err(ClusterError::Query)
    }

    /// Rejects a round-1 row whose universe cannot be the opposite layer's
    /// size on any worker, before it is fanned out. Workers check the
    /// universe exactly against their own layer; this replica is folded
    /// lazily, so it can only bound it: no smaller than the replica's
    /// layer (every worker started from it or from a later state, and
    /// vertices are never removed) and no larger than that plus one vertex
    /// per delta logged since.
    fn check_row_universe(&self, owner: usize, layer: Layer, universe: u64) -> Result<()> {
        let known = self.base.graph.layer_size(layer.opposite()) as u64;
        let growth = self.log.appended().saturating_sub(self.base.seq);
        if (known..=known + growth).contains(&universe) {
            return Ok(());
        }
        Err(ClusterError::Protocol {
            worker: owner,
            detail: format!(
                "round 1 returned a noisy row over {universe} vertices; the {:?} layer \
                 has between {known} and {} of them",
                layer.opposite(),
                known + growth
            ),
        })
    }

    // ------------------------------------------------------------ stats

    /// Collects every worker's serving counters and rolls them up. A
    /// worker that cannot be reached is reported unhealthy with `stats:
    /// None` rather than failing the roll-up.
    pub fn stats(&mut self) -> ClusterStats {
        let mut workers = Vec::with_capacity(self.workers.len());
        for index in 0..self.workers.len() {
            let stats = match self.request(index, &Message::StatsReq, "stats") {
                Ok(Message::StatsResp(s)) => Some(s),
                _ => None,
            };
            workers.push(WorkerStatus {
                index,
                shard: self.workers[index].spec.shard_lo..self.workers[index].spec.shard_hi,
                healthy: self.workers[index].healthy,
                stats,
            });
        }
        let answering: Vec<ServingStats> = workers.iter().filter_map(|w| w.stats).collect();
        ClusterStats {
            healthy_workers: answering.len(),
            appended: answering.iter().map(|s| s.appended).sum(),
            published: answering.iter().map(|s| s.published).sum(),
            rejected: answering.iter().map(|s| s.rejected).sum(),
            max_ingest_lag: answering.iter().map(|s| s.ingest_lag).max().unwrap_or(0),
            max_lag_p50: answering.iter().map(|s| s.lag_p50).max().unwrap_or(0),
            max_lag_p95: answering.iter().map(|s| s.lag_p95).max().unwrap_or(0),
            min_epoch: answering.iter().map(|s| s.epoch).min().unwrap_or(0),
            max_epoch: answering.iter().map(|s| s.epoch).max().unwrap_or(0),
            workers,
        }
    }

    /// Kills worker `worker`'s process outright (no shutdown handshake).
    /// For fault-injection tests: the next fan-out touching its shard
    /// reports a typed partial-result error.
    ///
    /// # Errors
    ///
    /// Propagates the kill/wait failure.
    pub fn kill_worker(&mut self, worker: usize) -> io::Result<()> {
        let w = &mut self.workers[worker];
        w.conn = None;
        w.healthy = false;
        if let Some(child) = w.child.as_mut() {
            child.kill()?;
            child.wait()?;
            w.child = None;
        }
        Ok(())
    }

    // ----------------------------------------------------- supervision

    /// One supervision pass: finds workers that are dead (process
    /// exited, or marked unhealthy by an exhausted retry) and rebuilds
    /// each one — respawn via the retained launch closure, re-bootstrap
    /// from the cluster's snapshot, replay the drained-delta tail past
    /// the snapshot's pinned sequence, and flush so the rebuilt worker
    /// has published everything before it is marked healthy again.
    /// Returns the indices that were rebuilt (empty = cluster healthy).
    /// Call it whenever a fan-out reports
    /// [`ClusterError::PartialResult`], or periodically from a serving
    /// loop.
    ///
    /// Deltas still *pending* in the coordinator log are not replayed
    /// here — they reach the rebuilt worker through the normal
    /// [`pump`](Self::pump) like every other worker. The drained tail is
    /// replayed exactly once because the worker restarts from snapshot
    /// state (`AddVertex` is not idempotent, so exactly-once matters).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Spawn`] / [`ClusterError::WorkerDown`] when the
    /// rebuild itself fails — the worker stays unhealthy and a
    /// later pass retries.
    pub fn supervise(&mut self) -> Result<Vec<usize>> {
        let mut rebuilt = Vec::new();
        for index in 0..self.workers.len() {
            if self.worker_is_live(index) {
                continue;
            }
            self.respawn(index)?;
            self.bootstrap_from_snapshot(index)?;
            self.replay_tail(index)?;
            match self.request(index, &Message::Flush, "supervision flush")? {
                Message::FlushAck { .. } => {}
                other => return Err(self.unexpected(index, "supervision flush", &other)),
            }
            self.workers[index].healthy = true;
            rebuilt.push(index);
        }
        Ok(rebuilt)
    }

    /// Whether worker `index` looks alive: marked healthy and its
    /// process (if owned) has not exited. The `try_wait` probe catches
    /// crashes the request path has not tripped over yet.
    fn worker_is_live(&mut self, index: usize) -> bool {
        let w = &mut self.workers[index];
        if !w.healthy {
            return false;
        }
        match w.child.as_mut() {
            Some(child) => matches!(child.try_wait(), Ok(None)),
            None => false,
        }
    }

    /// Kills whatever is left of worker `index`'s process and launches a
    /// fresh one on the same socket with the retained closure.
    fn respawn(&mut self, index: usize) -> Result<()> {
        let w = &mut self.workers[index];
        reap(w);
        let child = (self.launch)(&w.spec).map_err(|source| ClusterError::Spawn {
            worker: index,
            source,
        })?;
        w.child = Some(child);
        Ok(())
    }

    /// Replays the drained-delta tail past the snapshot's pinned
    /// sequence to a freshly re-bootstrapped worker (see
    /// [`replay_drained_tail`]).
    fn replay_tail(&mut self, index: usize) -> Result<()> {
        let seq = self.snapshot.seq;
        let range = self.ranges[index].clone();
        replay_drained_tail(
            &self.config,
            &self.log,
            self.shard_layer,
            &mut self.workers[index],
            &range,
            seq,
        )
    }

    // ----------------------------------------------------- rebalancing

    /// Runs a full live rebalance to `new_ranges`: every step of the
    /// state machine in order (see [`RebalanceStep`]), with queries and
    /// update pumps still valid between any two steps. On success the
    /// cluster serves the new partition with byte-identical reports; on
    /// failure ([`ClusterError::Rebalance`] with `rolled_back: true`)
    /// the old partition is still serving and a retry may succeed.
    ///
    /// This is [`begin_rebalance`](Self::begin_rebalance) +
    /// [`rebalance_step`](Self::rebalance_step)-until-complete; drive
    /// the steps yourself to interleave traffic.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rebalance`] naming the failed step (`"begin"` for
    /// a malformed `new_ranges`; see
    /// [`begin_rebalance`](Self::begin_rebalance)).
    pub fn rebalance(&mut self, new_ranges: Vec<Range<u32>>) -> Result<()> {
        self.begin_rebalance(new_ranges)?;
        loop {
            if let RebalanceStatus::Complete = self.rebalance_step()? {
                return Ok(());
            }
        }
    }

    /// [`rebalance`](Self::rebalance) to an even split into `n_workers`
    /// ranges over the base graph's shard layer — the split/merge entry
    /// point (2→4, 4→2, …).
    ///
    /// # Errors
    ///
    /// See [`rebalance`](Self::rebalance).
    pub fn rebalance_to(&mut self, n_workers: usize) -> Result<()> {
        let layer_size = match self.shard_layer {
            Layer::Upper => self.base.graph.n_upper(),
            Layer::Lower => self.base.graph.n_lower(),
        };
        self.rebalance(shard_ranges(layer_size, n_workers))
    }

    /// Arms a rebalance to `new_ranges` without running any step: bumps
    /// the topology generation and stages an empty rebalance state at
    /// the `quiesce` step. Drive it with
    /// [`rebalance_step`](Self::rebalance_step).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rebalance`] at step `"begin"` with `rolled_back:
    /// true` when a rebalance is already in flight or `new_ranges` is not
    /// a contiguous cover of `0..u32::MAX`. Both leave the cluster
    /// serving exactly as before.
    pub fn begin_rebalance(&mut self, new_ranges: Vec<Range<u32>>) -> Result<()> {
        if let Some(st) = &self.rebalance {
            return Err(rebalance_misuse(format!(
                "a rebalance is already in flight (next step: {})",
                st.step.name()
            )));
        }
        check_contiguous_cover(&new_ranges).map_err(rebalance_misuse)?;
        self.generation += 1;
        self.rebalance = Some(RebalanceState {
            step: RebalanceStep::Quiesce,
            new_ranges,
            generation: self.generation,
            snapshot: None,
            pinned_seq: 0,
            epoch: 0,
            manifest: Vec::new(),
            paths: Vec::new(),
            new_workers: Vec::new(),
            retired: Vec::new(),
        });
        Ok(())
    }

    /// Runs the next step of the in-flight rebalance. Between calls the
    /// cluster is fully serviceable — queries, pumps, and stats all run
    /// against whichever topology is current (the old one until
    /// [`RebalanceStep::CutOver`] commits, the new one after).
    ///
    /// Any armed [`FaultPlan`](crate::FaultPlan) `kill=` directives
    /// scheduled for this step fire at its entry, before the step's own
    /// work — "the worker died just as the coordinator got here".
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rebalance`] naming the failed step, always with
    /// `rolled_back: true`: every fallible action precedes the commit
    /// point, so a failure tears down the staged generation and the old
    /// topology keeps serving with zero divergence. (Post-commit the
    /// remaining work is infallible-or-best-effort; a new worker dying
    /// *after* commit surfaces later as an ordinary
    /// [`ClusterError::PartialResult`] and is rebuilt by
    /// [`supervise`](Self::supervise).)
    pub fn rebalance_step(&mut self) -> Result<RebalanceStatus> {
        let Some(mut st) = self.rebalance.take() else {
            return Err(rebalance_misuse(
                "no rebalance in flight; call begin_rebalance first".to_string(),
            ));
        };
        let step = st.step;
        // Scheduled crashes land at step entry: old workers through the
        // normal kill path, staged new workers directly.
        let faults = Arc::clone(&self.config.faults);
        for target in faults.kills_due(step.name()) {
            match target {
                KillTarget::Old(i) => {
                    if i < self.workers.len() {
                        let _ = self.kill_worker(i);
                    }
                }
                KillTarget::New(i) => {
                    if let Some(w) = st.new_workers.get_mut(i) {
                        reap(w);
                    }
                }
            }
        }
        let result = match step {
            RebalanceStep::Quiesce => self.rb_quiesce(),
            RebalanceStep::Capture => self.rb_capture(&mut st),
            RebalanceStep::Cut => self.rb_cut(&mut st),
            RebalanceStep::Spawn => self.rb_spawn(&mut st),
            RebalanceStep::Bootstrap => self.rb_bootstrap(&mut st),
            RebalanceStep::CutOver => self.rb_cutover(&mut st),
            RebalanceStep::Retire => self.rb_retire(&mut st),
        };
        match result {
            Ok(()) => match step.next() {
                Some(next) => {
                    st.step = next;
                    self.rebalance = Some(st);
                    Ok(RebalanceStatus::InProgress(next))
                }
                None => Ok(RebalanceStatus::Complete),
            },
            Err(source) => {
                self.rollback_rebalance(st);
                Err(ClusterError::Rebalance {
                    step: step.name(),
                    rolled_back: true,
                    source: Box::new(source),
                })
            }
        }
    }

    /// The next step the in-flight rebalance will run, or `None` when
    /// none is in flight.
    #[must_use]
    pub fn rebalance_in_flight(&self) -> Option<RebalanceStep> {
        self.rebalance.as_ref().map(|st| st.step)
    }

    /// The current topology generation (0 until the first
    /// [`begin_rebalance`](Self::begin_rebalance)).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// [`RebalanceStep::Quiesce`]: drain the log and barrier every
    /// worker, so worker state == base state + drained tail.
    fn rb_quiesce(&mut self) -> Result<()> {
        self.flush()
    }

    /// [`RebalanceStep::Capture`]: fold the drained tail into the base
    /// graph and pin the quiet-point snapshot. (An advanced `base.seq`
    /// survives rollback harmlessly: the serving [`SnapshotSource`] is
    /// untouched, and the fold is idempotent because `replay_from` is
    /// strictly-after.)
    fn rb_capture(&mut self, st: &mut RebalanceState) -> Result<()> {
        let base = &mut self.base;
        let tail = self
            .log
            .replay_from(base.seq)
            .expect("cluster logs retain drained deltas");
        if !tail.is_empty() {
            base.graph
                .apply_update_batch(&tail)
                .map_err(|e| ClusterError::Query(CneError::Graph(e)))?;
        }
        // Quiesce drained everything, so the drained watermark is the
        // quiet point: all of it is folded in, none of it is in flight.
        base.seq = self.log.drained();
        st.pinned_seq = base.seq;
        st.snapshot = Some(GraphSnapshot::capture(&base.graph, st.pinned_seq));
        st.epoch = st.snapshot.as_ref().expect("just captured").epoch();
        Ok(())
    }

    /// [`RebalanceStep::Cut`]: write one generation-named shard file per
    /// new range and precompute the manifest bytes. The pinned snapshot
    /// is dropped afterwards — the files are now the staged state.
    fn rb_cut(&mut self, st: &mut RebalanceState) -> Result<()> {
        let snapshot = st.snapshot.as_ref().expect("capture ran");
        st.manifest = shard_manifest(snapshot, self.shard_layer, &st.new_ranges);
        for (index, range) in st.new_ranges.iter().enumerate() {
            let path = self
                .dir
                .join(format!("shard-g{}-{index}.snap", st.generation));
            // Plain writes for the same reason the spawn path uses them:
            // shard files are scratch artifacts, re-derived on demand,
            // and a torn file is caught by section checksums at adoption.
            let mut bytes = snapshot
                .restrict_to_shard(self.shard_layer, range.start, range.end)
                .to_bytes();
            if let Some(keep) = self.config.faults.torn_write(bytes.len()) {
                bytes.truncate(keep);
            }
            std::fs::write(&path, &bytes).map_err(|source| ClusterError::Spawn {
                worker: index,
                source,
            })?;
            st.paths.push(path);
        }
        st.snapshot = None;
        Ok(())
    }

    /// [`RebalanceStep::Spawn`]: launch the new generation's workers on
    /// generation-named sockets (the old generation still owns its own).
    fn rb_spawn(&mut self, st: &mut RebalanceState) -> Result<()> {
        let generation = st.generation;
        st.new_workers = launch_workers(&mut self.launch, &st.new_ranges, |index| {
            self.dir
                .join(format!("shard-worker-g{generation}-{index}.sock"))
        })?;
        Ok(())
    }

    /// [`RebalanceStep::Bootstrap`]: handshake each new worker and ship
    /// its snapshot-bootstrap frame. A torn shard file fails here — the
    /// worker's section checksums reject it and the error rolls the
    /// rebalance back.
    fn rb_bootstrap(&mut self, st: &mut RebalanceState) -> Result<()> {
        for index in 0..st.new_workers.len() {
            let spec = &st.new_workers[index].spec;
            let msg = Message::BootstrapSnapshot {
                epoch: st.epoch,
                shard_layer: self.shard_layer,
                shard_lo: spec.shard_lo,
                shard_hi: spec.shard_hi,
                path: st.paths[index].to_string_lossy().into_owned(),
            };
            match exchange(
                &self.config,
                &mut st.new_workers[index],
                &msg,
                "rebalance bootstrap",
            )? {
                Message::BootstrapAck => {}
                Message::Err { code, message } => {
                    return Err(ClusterError::Remote {
                        worker: index,
                        code,
                        message,
                    })
                }
                other => {
                    return Err(ClusterError::Protocol {
                        worker: index,
                        detail: format!(
                            "unexpected response during rebalance bootstrap: {other:?}"
                        ),
                    })
                }
            }
        }
        Ok(())
    }

    /// [`RebalanceStep::CutOver`]: catch the new workers up past the
    /// pinned sequence and barrier them — then **commit**. Everything
    /// before the marked line can fail (and rolls back); everything
    /// after it is plain state swapping.
    fn rb_cutover(&mut self, st: &mut RebalanceState) -> Result<()> {
        for (index, range) in st.new_ranges.clone().iter().enumerate() {
            replay_drained_tail(
                &self.config,
                &self.log,
                self.shard_layer,
                &mut st.new_workers[index],
                range,
                st.pinned_seq,
            )?;
            match exchange(
                &self.config,
                &mut st.new_workers[index],
                &Message::Flush,
                "rebalance flush",
            )? {
                Message::FlushAck { .. } => {}
                other => {
                    return Err(ClusterError::Protocol {
                        worker: index,
                        detail: format!("unexpected response during rebalance flush: {other:?}"),
                    })
                }
            }
        }
        // ---- commit point: nothing below returns Err. ----
        // Invalidate the manifest first (crash-safe ordering: a manifest
        // must never vouch for files that don't match it), swap the
        // topology, then write the manifest describing the new files.
        let manifest_path = self.dir.join("shards.manifest");
        let _ = std::fs::remove_file(&manifest_path);
        st.retired = std::mem::replace(&mut self.workers, std::mem::take(&mut st.new_workers));
        self.ranges = st.new_ranges.clone();
        self.cuts = self.ranges[1..].iter().map(|r| r.start).collect();
        // `paths` is *moved* into the snapshot source (not copied) so a
        // later rollback — teardown mid-Retire — can never mistake the
        // serving files for staged ones and delete them.
        self.snapshot = SnapshotSource {
            paths: std::mem::take(&mut st.paths),
            seq: st.pinned_seq,
            epoch: st.epoch,
        };
        let _ = std::fs::write(&manifest_path, &st.manifest);
        // The new snapshot source re-pins recovery at the quiet point;
        // history before it can never be replayed again.
        self.log.truncate_history_through(st.pinned_seq);
        Ok(())
    }

    /// [`RebalanceStep::Retire`]: shut down the old generation and sweep
    /// shard files the manifest no longer names. Purely janitorial; the
    /// new topology has been serving since commit.
    fn rb_retire(&mut self, st: &mut RebalanceState) -> Result<()> {
        for worker in &mut st.retired {
            retire_worker(&self.config, worker);
        }
        gc_stale_shard_files(&self.dir, &self.snapshot.paths);
        Ok(())
    }

    /// Tears down whatever a failed (or abandoned) rebalance staged: the
    /// new generation's processes and sockets, plus any shard files
    /// still listed in `state.paths` — cleared at commit, so everything
    /// listed is provably not the serving snapshot source. The serving
    /// topology is untouched.
    fn rollback_rebalance(&mut self, mut state: RebalanceState) {
        state
            .new_workers
            .iter_mut()
            .chain(state.retired.iter_mut())
            .for_each(reap);
        for path in &state.paths {
            let _ = std::fs::remove_file(path);
        }
    }

    // ------------------------------------------------------- transport

    /// One request→response exchange with the worker at `index` (see
    /// [`exchange`]).
    fn request(&mut self, index: usize, msg: &Message, context: &'static str) -> Result<Message> {
        exchange(&self.config, &mut self.workers[index], msg, context)
    }

    /// A [`ClusterError::Protocol`] for a response of the wrong kind
    /// (folding worker-reported errors into [`ClusterError::Remote`]).
    fn unexpected(&self, index: usize, context: &str, got: &Message) -> ClusterError {
        if let Message::Err { code, message } = got {
            return ClusterError::Remote {
                worker: index,
                code: *code,
                message: message.clone(),
            };
        }
        ClusterError::Protocol {
            worker: index,
            detail: format!("unexpected response during {context}: {got:?}"),
        }
    }

    /// Orderly teardown: roll back any in-flight rebalance (its staged
    /// workers and files must not outlive the coordinator), then ask
    /// every worker to shut down and reap (or kill) the processes.
    /// Called from `Drop`; safe to call twice.
    fn teardown(&mut self) {
        if let Some(state) = self.rebalance.take() {
            self.rollback_rebalance(state);
        }
        for index in 0..self.workers.len() {
            if self.workers[index].child.is_none() {
                // Already reaped (or never owned): just clear the socket.
                let _ = std::fs::remove_file(&self.workers[index].spec.socket);
                continue;
            }
            retire_worker(&self.config, &mut self.workers[index]);
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("shard_layer", &self.shard_layer)
            .field("ranges", &self.ranges)
            .field("pending_deltas", &self.log.pending())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_are_contiguous_and_open_ended() {
        let r = shard_ranges(10, 4);
        assert_eq!(r, vec![0..2, 2..5, 5..7, 7..u32::MAX]);
        for pair in r.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(shard_ranges(10, 1), vec![0..u32::MAX]);
        // More workers than vertices: early ranges are empty but valid.
        let tiny = shard_ranges(2, 4);
        assert_eq!(tiny.last().unwrap().end, u32::MAX);
        assert_eq!(tiny.iter().filter(|r| r.is_empty()).count(), 2);
        // Zero workers: no ranges, which the cover check turns into a
        // typed error instead of a panic.
        assert!(shard_ranges(10, 0).is_empty());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn cover_check_names_the_broken_rule() {
        assert!(check_contiguous_cover(&shard_ranges(10, 3)).is_ok());
        let reason = |ranges: &[Range<u32>]| check_contiguous_cover(ranges).unwrap_err();
        assert!(reason(&[]).contains("at least one"));
        assert!(reason(&[1..u32::MAX]).contains("vertex 0"));
        assert!(reason(&[0..5, 5..9]).contains("open-ended"));
        assert!(reason(&[0..5, 6..u32::MAX]).contains("contiguous"));
        let inverted = Range { start: 5, end: 3 };
        assert!(reason(&[0..5, inverted, 3..u32::MAX]).contains("ascending"));
    }

    #[test]
    fn owner_lookup_matches_linear_scan() {
        let ranges = shard_ranges(1000, 7);
        let cuts: Vec<u32> = ranges[1..].iter().map(|r| r.start).collect();
        for v in (0..1100u32).chain([u32::MAX / 2, u32::MAX - 1]) {
            let linear = ranges
                .iter()
                .position(|r| r.contains(&v))
                .expect("ranges cover the id space");
            assert_eq!(owner_index(&cuts, v), linear, "v = {v}");
        }
        // A single open-ended range has no interior cuts: everything is 0.
        assert_eq!(owner_index(&[], 12345), 0);
    }
}
