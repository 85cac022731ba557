//! Error types for the temporal graph substrate.

use crate::ids::Time;
use std::fmt;

/// Errors produced while building or loading a temporal graph.
#[derive(Debug)]
pub enum GraphError {
    /// A self-loop event `(u, u, t)` was supplied; no motif model in the
    /// paper admits self-loops.
    SelfLoop {
        /// Offending node.
        node: u32,
        /// Event time.
        time: Time,
    },
    /// The graph has no events.
    Empty,
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A binary block (shard file, wire frame) failed validation
    /// while decoding.
    Decode(crate::wire::WireError),
    /// An event referenced a node id beyond the declared node count.
    NodeOutOfRange {
        /// Offending node id.
        node: u32,
        /// Declared number of nodes.
        num_nodes: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node, time } => {
                write!(f, "self-loop event on node {node} at time {time}")
            }
            GraphError::Empty => write!(f, "temporal graph has no events"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Decode(e) => write!(f, "decode error: {e}"),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (num_nodes = {num_nodes})")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl From<crate::wire::WireError> for GraphError {
    fn from(e: crate::wire::WireError) -> Self {
        // A wire-level I/O failure is an I/O failure, not a decode bug.
        match e {
            crate::wire::WireError::Io(io) => GraphError::Io(io),
            other => GraphError::Decode(other),
        }
    }
}

/// Convenience alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GraphError::SelfLoop { node: 3, time: 9 }.to_string(),
            "self-loop event on node 3 at time 9"
        );
        assert_eq!(GraphError::Empty.to_string(), "temporal graph has no events");
        let p = GraphError::Parse { line: 4, message: "bad token".into() };
        assert_eq!(p.to_string(), "parse error on line 4: bad token");
        let o = GraphError::NodeOutOfRange { node: 10, num_nodes: 5 };
        assert!(o.to_string().contains("out of range"));
    }

    #[test]
    fn io_error_source() {
        use std::error::Error;
        let e = GraphError::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
    }
}
