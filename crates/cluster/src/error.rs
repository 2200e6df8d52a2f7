//! Typed failures of the multi-process serving tier.

use std::fmt;
use std::io;

/// Convenience alias for cluster results.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Everything that can go wrong between coordinator and workers.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// Spawning or bootstrapping a worker process failed.
    Spawn {
        /// The worker index that failed to come up.
        worker: usize,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// A worker's connection died and reconnect/retry was exhausted. The
    /// coordinator has marked it unhealthy; subsequent fan-outs fail fast
    /// with [`ClusterError::PartialResult`] until it is replaced.
    WorkerDown {
        /// The dead worker's index.
        worker: usize,
        /// What the coordinator was doing when the worker vanished.
        context: &'static str,
        /// The final I/O failure.
        source: io::Error,
    },
    /// A fan-out could not cover every shard: the listed workers are dead
    /// or returned errors, so no full report can be concatenated. This is
    /// the typed partial-result error the coordinator returns **instead of
    /// hanging** on a dead worker.
    PartialResult {
        /// Indices of the workers whose shard results are missing.
        missing: Vec<usize>,
        /// What the fan-out was computing.
        context: &'static str,
    },
    /// A worker sent a frame that violates the wire protocol.
    Protocol {
        /// The offending worker's index.
        worker: usize,
        /// What was malformed.
        detail: String,
    },
    /// A worker reported a request-level error ([`wire::Message::Err`]).
    ///
    /// [`wire::Message::Err`]: crate::wire::Message::Err
    Remote {
        /// The reporting worker's index.
        worker: usize,
        /// One of [`wire::err_code`](crate::wire::err_code)'s constants.
        code: u16,
        /// The worker's message.
        message: String,
    },
    /// A coordinator-side query step failed (validation, assembly).
    Query(cne::CneError),
    /// A live rebalance failed at the named step. `rolled_back: true`
    /// means the coordinator restored the previous topology before
    /// returning — the old workers are still serving and a retry may
    /// succeed; `false` means the new topology had already committed and
    /// whatever is left (a dead incoming worker, unretired old workers)
    /// is [`Coordinator::supervise`]'s to finish.
    ///
    /// [`Coordinator::supervise`]: crate::coordinator::Coordinator::supervise
    Rebalance {
        /// Lower-case name of the [`RebalanceStep`](crate::RebalanceStep)
        /// that failed.
        step: &'static str,
        /// Whether the previous topology was restored.
        rolled_back: bool,
        /// The failure that aborted the step.
        source: Box<ClusterError>,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Spawn { worker, source } => {
                write!(f, "worker {worker} failed to start: {source}")
            }
            ClusterError::WorkerDown {
                worker,
                context,
                source,
            } => write!(f, "worker {worker} unreachable during {context}: {source}"),
            ClusterError::PartialResult { missing, context } => write!(
                f,
                "partial result: worker(s) {missing:?} missing from {context} fan-out"
            ),
            ClusterError::Protocol { worker, detail } => {
                write!(f, "protocol violation from worker {worker}: {detail}")
            }
            ClusterError::Remote {
                worker,
                code,
                message,
            } => write!(f, "worker {worker} error (code {code}): {message}"),
            ClusterError::Query(e) => write!(f, "query failed: {e}"),
            ClusterError::Rebalance {
                step,
                rolled_back,
                source,
            } => write!(
                f,
                "rebalance failed at step `{step}` ({}): {source}",
                if *rolled_back {
                    "rolled back to the previous topology"
                } else {
                    "already committed; supervision completes it"
                }
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Spawn { source, .. } | ClusterError::WorkerDown { source, .. } => {
                Some(source)
            }
            ClusterError::Query(e) => Some(e),
            ClusterError::Rebalance { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<cne::CneError> for ClusterError {
    fn from(e: cne::CneError) -> Self {
        ClusterError::Query(e)
    }
}
