//! The unified error boundary of the public API.
//!
//! Everything a [`ClusterBuilder`](crate::ClusterBuilder) or a
//! [`Cluster`](crate::Cluster) job submission can reject comes back as a
//! typed [`NowError`] instead of the historical mix of `String` errors,
//! front-end [`Diag`]s and panics. Front-end diagnostics nest inside it
//! ([`NowError::Compile`]), so `?` composes a compile + run pipeline end
//! to end. Panics remain reserved for *program* failures (a translated
//! program's runtime error, a job body panic) — those propagate out of
//! [`Cluster::run`](crate::Cluster::run) like any Rust panic.

use std::fmt;

/// A source position (1-based line and column) inside a `.omp` program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Span {
    /// A position at `line:col` (both 1-based).
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A compile-time diagnostic with the source span it refers to, as
/// produced by the `ompc` directive front-end.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Human-readable description of the problem.
    pub msg: String,
    /// Where in the source the problem is.
    pub span: Span,
}

impl Diag {
    /// A diagnostic at `span`.
    pub fn new(span: Span, msg: impl Into<String>) -> Self {
        Diag {
            msg: msg.into(),
            span,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.span, self.msg)
    }
}

impl std::error::Error for Diag {}

/// Every way the public API can reject a configuration or a job.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NowError {
    /// The builder was asked for a cluster of zero workstations.
    ZeroNodes,
    /// The builder was asked for zero application threads per node.
    ZeroThreadsPerNode,
    /// The requested topology exceeds the simulator's bounds (host
    /// threads are real: `nodes × threads_per_node` must stay sane).
    TopologyTooLarge {
        /// Requested workstations.
        nodes: usize,
        /// Requested threads per workstation.
        threads_per_node: usize,
    },
    /// `speeds` lists a factor count different from the node count.
    SpeedsLength {
        /// The configured node count.
        expected: usize,
        /// Factors actually supplied.
        got: usize,
    },
    /// The heterogeneity model is invalid (non-positive/NaN speed factor,
    /// malformed `--load`-style trace spec, bad trace parameters).
    InvalidLoad(String),
    /// A schedule spec (`runtime_schedule`, `OMP_SCHEDULE` string) failed
    /// to parse.
    InvalidSchedule(String),
    /// A DSM cost-model knob is invalid (e.g. a `.tmk(…)` tweak set a
    /// page size that is not a power of two).
    InvalidConfig(String),
    /// A cluster-pool service configuration is invalid (zero/oversized
    /// pool, zero queue bound, bad tenant weight, junk deadline — see
    /// `now-service`'s `ServiceConfig`).
    InvalidService(String),
    /// The `.omp` front-end rejected a program (spanned diagnostic).
    Compile(Diag),
    /// A job was submitted to a cluster that is no longer running (a
    /// previous job panicked, or it was shut down).
    ClusterDown,
}

impl fmt::Display for NowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NowError::ZeroNodes => write!(f, "a cluster needs at least one workstation"),
            NowError::ZeroThreadsPerNode => {
                write!(f, "a workstation needs at least one application thread")
            }
            NowError::TopologyTooLarge {
                nodes,
                threads_per_node,
            } => write!(
                f,
                "topology {nodes}x{threads_per_node} exceeds the simulator's bounds \
                 (each simulated thread is a host thread)"
            ),
            NowError::SpeedsLength { expected, got } => write!(
                f,
                "speeds lists {got} factor(s) for {expected} node(s) — one per workstation"
            ),
            NowError::InvalidLoad(m) => write!(f, "invalid load model: {m}"),
            NowError::InvalidSchedule(m) => write!(f, "invalid schedule: {m}"),
            NowError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            NowError::InvalidService(m) => write!(f, "invalid service configuration: {m}"),
            NowError::Compile(d) => write!(f, "compile error: {d}"),
            NowError::ClusterDown => write!(f, "the cluster is no longer running"),
        }
    }
}

impl std::error::Error for NowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NowError::Compile(d) => Some(d),
            _ => None,
        }
    }
}

impl From<Diag> for NowError {
    fn from(d: Diag) -> Self {
        NowError::Compile(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NowError::SpeedsLength {
            expected: 4,
            got: 2,
        };
        let s = e.to_string();
        assert!(s.contains('4') && s.contains('2'), "{s}");
        assert!(NowError::ZeroNodes.to_string().contains("workstation"));
    }

    #[test]
    fn diag_nests_and_sources() {
        use std::error::Error as _;
        let d = Diag::new(Span::new(3, 7), "shared(local) is not allowed");
        let e: NowError = d.into();
        assert!(matches!(e, NowError::Compile(_)));
        assert!(e.to_string().contains("3:7"), "{e}");
        assert!(e.source().is_some());
    }
}
