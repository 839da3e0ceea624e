//! # nomp — OpenMP on networks of workstations
//!
//! The primary contribution of *"OpenMP on Networks of Workstations"*
//! (Lu, Hu & Zwaenepoel, SC'98), as a Rust library: an OpenMP-style
//! fork-join programming model compiled onto the [`tmk`] software
//! distributed shared memory system, which in turn runs on a simulated
//! workstation network.
//!
//! ## Directive mapping
//!
//! | OpenMP directive | Here |
//! |---|---|
//! | `parallel` / `end parallel` | [`Env::parallel`] / [`omp_parallel!`] |
//! | `parallel do` + `schedule` | [`Env::parallel_for`] / [`omp_parallel_for!`] with [`Schedule`] |
//! | `shared(v)` | `v` is a [`tmk::SharedVec`]/[`tmk::SharedScalar`] handle |
//! | `private(v)` | any plain local inside the region closure (the default — Modification 1) |
//! | `firstprivate(v)` | by-value (`move`) closure capture |
//! | `threadprivate(v)` | [`ThreadPrivate`] |
//! | `reduction(op: v)` | [`Env::parallel_reduce`]; arrays: [`Env::parallel_reduce_vec`] (the paper's extension) |
//! | `critical [(name)]` | [`OmpThread::critical`] / [`omp_critical!`] |
//! | `barrier` | [`OmpThread::barrier`](tmk::Tmk::barrier) / [`omp_barrier!`] |
//! | `master` | [`OmpThread::master`] / [`omp_master!`] |
//! | `task` | [`TaskScope::task`] / [`omp_task!`] within [`Env::task_scope`] |
//! | `taskwait` | [`TaskScope::taskwait`] / [`omp_taskwait!`] |
//! | `single` | [`OmpThread::single`] / [`TaskScope::single`] / [`omp_single!`] |
//! | `flush` | [`tmk::Tmk::flush`] / [`omp_flush!`] — kept for the cost ablation |
//! | *proposed* `sema_wait`/`sema_signal` | [`OmpThread::sema_wait`]/[`sema_signal`](OmpThread::sema_signal) — `n × 1` topologies only (the wait parks holding the node gate) |
//! | *proposed* condition variables | [`OmpThread::cond_wait`]/[`cond_signal`](OmpThread::cond_signal)/[`cond_broadcast`](OmpThread::cond_broadcast) — `cond_wait` is `n × 1` only |
//!
//! Beyond the paper, the runtime adds a distributed **tasking** subsystem
//! ([`Env::task_scope`]): per-node task deques in each node's DSM state
//! with cross-node work stealing and termination by message — the
//! construct
//! that extends the system to irregular workloads (see [`tasking`]'s
//! module docs and `paper_tables tasking`) — and **SMP-cluster
//! execution**: `nodes × threads_per_node` topologies
//! ([`OmpConfig::paper_smp`]) where each workstation hosts a team of
//! threads sharing one DSM process and every synchronization construct
//! is two-level (local sense-reversing barrier with one DSM
//! representative per node, reductions combined in node shared memory
//! with one DSM contribution per node, node-level loop chunks, local
//! task deques preferred before cross-node steals).
//!
//! The paper's two proposed modifications to the standard fall out of the
//! embedding:
//!
//! 1. **Variables default to private.** Rust closures capture exactly what
//!    they name; shared data must be an explicit `Shared*` handle placed
//!    in DSM space. There is no way to share a stack variable by accident.
//! 2. **Semaphores and condition variables replace `flush`.** Both are
//!    first-class here, implemented with a small constant number of
//!    messages, while `flush` (still available) broadcasts to all nodes.
//!
//! ## Example
//!
//! The public way in is the [`Cluster`] session API: one builder, one
//! [`Job`] abstraction (closures and compiled `.omp` programs), one
//! [`RunReport`], with the cluster kept warm across jobs. The one-shot
//! [`run`] remains as a one-job shim.
//!
//! ```
//! use nomp::{Cluster, Env, RedOp, Schedule};
//!
//! # fn main() -> Result<(), nomp::NowError> {
//! let mut cluster = Cluster::builder().nodes(2).fast_test().build()?;
//! let out = cluster.run(|omp: &mut Env| {
//!     let a = omp.malloc_vec::<f64>(1000);
//!     omp.parallel_for_chunks(Schedule::Static, 0..1000, move |t, r| {
//!         t.view_mut(&a, r.clone(), |chunk| {
//!             for (k, x) in chunk.iter_mut().enumerate() { *x = (r.start + k) as f64; }
//!         });
//!     });
//!     omp.parallel_reduce(Schedule::Static, 0..1000, RedOp::Sum, move |t, i, acc: &mut f64| {
//!         *acc += t.read(&a, i);
//!     })
//! })?;
//! assert_eq!(out.result, 499_500.0);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

mod cluster;
mod config;
mod data;
mod env;
mod error;
mod forloop;
mod macros;
mod reduction;
pub mod tasking;
mod thread;

pub use cluster::{Cluster, ClusterBuilder, Job, NowProgram, RunReport};
pub use config::{OmpConfig, Schedule};
pub use error::{Diag, NowError, Span};
// The intra-node (SMP) team-size + cost-model half of `OmpConfig`.
pub use data::ThreadPrivate;
pub use env::{run, Env};
pub use forloop::{LoopCursor, LoopPlan, LoopShared};
pub use reduction::{RedOp, Reduce};
pub use smp::SmpConfig;
pub use tasking::{TaskArgs, TaskScope, TaskScopeConfig};
pub use thread::{critical_id, OmpThread};

// Re-export the substrate types applications touch directly, including
// the heterogeneity model (per-node speeds + seeded load traces).
pub use now_net::{ClusterLoad, LoadSpec, LoadTrace};
pub use tmk::{NetMetricsSnapshot, Shareable, SharedScalar, SharedVec, Tmk, TmkConfig, TmkStats};

// The observability surface: virtual-time event traces and per-job
// profiles (see [`RunReport::trace`] / [`RunReport::profile`] and
// [`ClusterBuilder::trace`]), plus the always-on lifetime metrics
// exported from [`Cluster::metrics`].
pub use now_trace::{validate_chrome_json, EventKind, Profile, Trace, TraceConfig, TraceEvent};
pub use tmk::{
    validate_json as validate_metrics_json, validate_prometheus_text, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, NodeMetricsSnapshot, OpLat, TmkOp,
};
