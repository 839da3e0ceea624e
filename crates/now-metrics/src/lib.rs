//! Always-on cluster metrics for the NOW runtime.
//!
//! This crate provides the storage and export layers of the metrics
//! subsystem; the domain-specific blocks (`NodeMetrics`,
//! `MetricsRegistry`) live in `tmk`, which owns the instrumented types.
//!
//! Design contract for everything here, matching the recording-path
//! invariants documented in DESIGN.md:
//!
//! - **Lock-free**: recording is a handful of relaxed atomic adds.
//!   There are no mutexes anywhere on the record path.
//! - **No allocation**: counters, gauges and histograms are fixed-size
//!   blocks allocated once at registry construction.
//! - **No clock interaction**: nothing in this crate reads or advances
//!   the simulation's virtual clocks. Callers may feed in durations
//!   they measured themselves; recording them is pure arithmetic.
//! - **Mergeable**: snapshots merge associatively so per-node blocks
//!   can be folded into cluster totals in any order.
//!
//! Relaxed atomics mean a snapshot taken concurrently with recording is
//! *per-cell* consistent (each counter is some value that was current
//! during the snapshot, and never decreases between snapshots) but not
//! a cross-cell linearizable cut — e.g. a histogram's derived count and
//! its sum may disagree by in-flight records. That is the standard
//! metrics trade-off and is documented at the `Cluster::metrics()`
//! surface.

#![warn(missing_docs)]

mod family;
pub mod json;
mod net;
mod prim;
mod prom;

pub use family::{to_json, Family, Labels};
pub use net::{KindTraffic, NetMetrics, NetMetricsSnapshot};
pub use prim::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use prom::{to_prometheus, validate_prometheus_text};

/// Validate that `s` is well-formed JSON (objects, arrays, strings,
/// numbers, booleans, null — the subset every emitter in this workspace
/// produces). Mirrors `validate_chrome_json` in spirit: a hand-rolled
/// checker so CI can gate emitted artifacts without external crates.
pub fn validate_json(s: &str) -> Result<(), String> {
    json::parse(s).map(|_| ())
}
