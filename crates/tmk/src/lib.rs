//! # tmk — a TreadMarks-style software distributed shared memory
//!
//! This crate reimplements the DSM substrate of *"OpenMP on Networks of
//! Workstations"* (Lu, Hu & Zwaenepoel, SC'98): the TreadMarks system
//! (Amza et al.) that the paper's OpenMP compiler targets, running over
//! the simulated workstation network of [`now_net`].
//!
//! ## Protocol
//!
//! * **Lazy release consistency** — shared-memory updates become visible
//!   only along release→acquire chains (lock transfers, barrier
//!   departures, semaphore grants). Execution is split into vector-clocked
//!   *intervals*; acquirers receive *write notices* for intervals they
//!   have not seen and invalidate the named pages.
//! * **Multiple-writer protocol** — on first write to a page in an
//!   interval a *twin* is saved; on demand the twin is compared with the
//!   page to encode a run-length *diff*. A faulting node asks only the
//!   writers whose intervals no other missing one dominates (they applied
//!   and kept the older diffs), and applies the diffs in happens-before
//!   order, so falsely-shared pages never ping-pong.
//! * **Synchronization** — centralized barrier manager; lock managers
//!   statically assigned by id that queue contended acquires and grant
//!   the lock at each release, in virtual-request-time order, with the
//!   notices the acquirer lacks; semaphores (the same manager queue, with
//!   banked signals) and condition variables exactly as §5.3 of the paper
//!   (2 messages per semaphore operation); OpenMP `flush` retained at its
//!   true cost of 2(n−1) messages for the ablation study.
//! * **Diff garbage collection** — at barriers, when cached diff storage
//!   grows past a threshold, page copies are validated by their last
//!   writers and become new base copies.
//! * **Task deques** — the OpenMP tasking runtime's work-stealing deques
//!   live in each node's state, not in DSM pages: a steal sweep is one
//!   chain of requests, each empty victim forwarding it to the next, and
//!   one reply, which carries the task and the notices the thief lacks
//!   ([`Tmk::steal`]). An idle worker parks at node 0 by message
//!   until a push wakes it or every node is parked ([`Tmk::term_idle`]).
//!
//! ## Example
//!
//! ```
//! use tmk::{run_system, TmkConfig};
//!
//! let out = run_system(TmkConfig::fast_test(2), |tmk| {
//!     let v = tmk.malloc_vec::<u64>(128);
//!     tmk.parallel(0, move |t| {
//!         let me = t.proc_id();
//!         t.view_mut(&v, me * 64..(me + 1) * 64, |chunk| {
//!             for (i, x) in chunk.iter_mut().enumerate() { *x = i as u64; }
//!         });
//!     });
//!     tmk.read(&v, 64 + 3)
//! });
//! assert_eq!(out.result, 3);
//! ```

#![warn(missing_docs)]

mod addr;
mod api;
mod config;
mod diff;
mod interval;
mod memory;
mod metrics;
mod page;
mod protocol;
mod service;
mod state;
mod stats;
mod system;
mod tasks;
#[cfg(test)]
mod world;

pub use addr::{AllocTable, PageId, RegionId, RegionInfo};
pub use api::{NodeTransaction, Tmk};
pub use config::TmkConfig;
pub use diff::{Diff, DiffRun};
pub use interval::{IntervalId, IntervalInfo, NoticeBundle, VectorClock};
pub use memory::{Shareable, SharedScalar, SharedVec};
pub use metrics::{MetricsRegistry, MetricsSnapshot, NodeMetrics, NodeMetricsSnapshot, OpLat};
pub use now_metrics::{
    validate_json, validate_prometheus_text, Counter, Gauge, Histogram, HistogramSnapshot,
    NetMetricsSnapshot,
};
pub use now_trace::{EventKind, Profile, Trace, TraceConfig, TraceEvent};
pub use page::PageState;
pub use stats::{TmkOp, TmkStats};
pub use system::{run_system, RunOutcome, System, SystemDown};
pub use tasks::{Taken, Task, TaskCounts};
