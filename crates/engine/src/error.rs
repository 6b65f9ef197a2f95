//! Engine error type.

use clude_lu::LuError;
use std::fmt;

/// Errors raised by the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A numeric factorization or update failed even after a refresh.
    Lu(LuError),
    /// The query's parameters are invalid or incompatible with the engine's
    /// matrix composition.
    InvalidQuery(String),
    /// A time-travel query addressed a snapshot outside the retained ring.
    UnknownSnapshot {
        /// The snapshot id asked for.
        requested: u64,
        /// Oldest id still retained.
        oldest: u64,
        /// Newest (current) id.
        newest: u64,
    },
    /// An edge endpoint lies outside the engine's fixed node universe.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The number of nodes of the universe.
        n_nodes: usize,
    },
    /// The engine was asked to build over a configuration it cannot honor:
    /// zero factor shards, a zero-capacity snapshot ring, or a partition that
    /// does not cover the base graph's node universe.
    InvalidConfig(String),
    /// The durability layer failed: a WAL append, checkpoint write or
    /// recovery step hit an I/O error, a corrupt file, or a format/version
    /// mismatch.  The message carries the failing operation and path.
    Persistence(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lu(e) => write!(f, "factor maintenance failed: {e}"),
            EngineError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            EngineError::UnknownSnapshot {
                requested,
                oldest,
                newest,
            } => write!(
                f,
                "snapshot {requested} outside the retained window [{oldest}, {newest}]"
            ),
            EngineError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node {node} outside the {n_nodes}-node universe")
            }
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Persistence(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LuError> for EngineError {
    fn from(e: LuError) -> Self {
        EngineError::Lu(e)
    }
}

/// Convenience alias.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::UnknownSnapshot {
            requested: 1,
            oldest: 5,
            newest: 9,
        };
        assert!(e.to_string().contains("[5, 9]"));
        assert!(EngineError::InvalidQuery("bad".into())
            .to_string()
            .contains("bad"));
        assert!(EngineError::NodeOutOfRange {
            node: 7,
            n_nodes: 4
        }
        .to_string()
        .contains("7"));
        let lu = EngineError::from(LuError::DimensionMismatch {
            expected: 3,
            actual: 2,
        });
        assert!(matches!(lu, EngineError::Lu(_)));
        assert!(!lu.to_string().is_empty());
    }
}
