//! Error type for the estimation algorithms.

use std::fmt;

/// Convenient result alias for the estimators.
pub type Result<T> = std::result::Result<T, CneError>;

/// Errors produced while running an estimation protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CneError {
    /// The underlying graph query was invalid (missing vertex, same-vertex
    /// pair, wrong layer, ...).
    Graph(bigraph::GraphError),
    /// A privacy mechanism or budget was mis-configured.
    Ldp(ldp::LdpError),
    /// An algorithm parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A generation-checked read
    /// ([`crate::EstimationEngine::estimate_at`],
    /// [`crate::EstimationEngine::estimate_batch_at`],
    /// [`crate::EstimationEngine::check_generation`]) observed an engine
    /// that has applied update batches since the reader's snapshot. The
    /// check runs before any protocol round, so the rejected read consumed
    /// no randomness. The reader should re-derive its state from the
    /// current graph and retry. Readers that query a pinned
    /// [`crate::ServingEngine`] snapshot directly need no cursor, because a
    /// pinned buffer cannot change.
    StaleGeneration {
        /// The generation the reader snapshotted.
        observed: u64,
        /// The engine's current generation.
        current: u64,
    },
}

impl CneError {
    /// For a [`CneError::StaleGeneration`], the engine generation that was
    /// current when the read was rejected — the retry hint: a caller
    /// re-derives its state and re-issues the query with this cursor.
    /// `None` for every other error.
    #[must_use]
    pub fn stale_current(&self) -> Option<u64> {
        match *self {
            CneError::StaleGeneration { current, .. } => Some(current),
            _ => None,
        }
    }
}

impl fmt::Display for CneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CneError::Graph(e) => write!(f, "graph error: {e}"),
            CneError::Ldp(e) => write!(f, "privacy mechanism error: {e}"),
            CneError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CneError::StaleGeneration { observed, current } => write!(
                f,
                "stale generation: reader snapshotted {observed} but the engine is at {current}"
            ),
        }
    }
}

impl std::error::Error for CneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CneError::Graph(e) => Some(e),
            CneError::Ldp(e) => Some(e),
            CneError::InvalidParameter { .. } | CneError::StaleGeneration { .. } => None,
        }
    }
}

impl From<bigraph::GraphError> for CneError {
    fn from(e: bigraph::GraphError) -> Self {
        CneError::Graph(e)
    }
}

impl From<ldp::LdpError> for CneError {
    fn from(e: ldp::LdpError) -> Self {
        CneError::Ldp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_source() {
        let g_err: CneError = bigraph::GraphError::EmptyLayer {
            layer: bigraph::Layer::Upper,
        }
        .into();
        assert!(matches!(g_err, CneError::Graph(_)));
        assert!(std::error::Error::source(&g_err).is_some());

        let l_err: CneError = ldp::LdpError::InvalidBudget { value: -1.0 }.into();
        assert!(matches!(l_err, CneError::Ldp(_)));
        assert!(l_err.to_string().contains("privacy"));

        let p_err = CneError::InvalidParameter {
            name: "epsilon",
            reason: "must be positive".into(),
        };
        assert!(p_err.to_string().contains("epsilon"));
        assert!(std::error::Error::source(&p_err).is_none());
    }

    #[test]
    fn stale_current_extracts_the_retry_hint() {
        let stale = CneError::StaleGeneration {
            observed: 3,
            current: 7,
        };
        assert_eq!(stale.stale_current(), Some(7));
        assert_eq!(
            CneError::InvalidParameter {
                name: "epsilon",
                reason: "must be positive".into(),
            }
            .stale_current(),
            None
        );
    }
}
