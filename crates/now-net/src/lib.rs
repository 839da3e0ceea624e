//! # now-net — a simulated network of workstations
//!
//! This crate stands in for the hardware testbed of *"OpenMP on Networks of
//! Workstations"* (Lu, Hu & Zwaenepoel, SC'98): eight Pentium Pro
//! workstations on switched 100 Mbps Ethernet. Each simulated workstation
//! is an OS thread with a private address space; the interconnect is a
//! full mesh of in-process channels.
//!
//! Two things make it a *simulation* rather than a toy:
//!
//! 1. **Virtual time.** Every node has a [`VirtualClock`]. Application
//!    compute advances it by measured per-thread CPU time scaled to the
//!    paper's 200 MHz Pentium Pro ([`NetworkConfig::compute_scale`]);
//!    messages advance it by a calibrated latency/bandwidth/handler model
//!    ([`NetworkConfig`]). Reported run times and speedups are virtual.
//! 2. **Exact traffic accounting.** Every remote message is counted once,
//!    with its modeled payload size, on the network's lifetime
//!    [`NetMetrics`] ([`Endpoint::traffic`]). The difference of two
//!    snapshots gives any window's traffic, reproducing the message and
//!    megabyte columns of the paper's Table 2 by direct measurement.
//!
//! Higher layers — the `tmk` software DSM and the `nowmpi` message-passing
//! library — run their full protocols over this substrate.
//!
//! **Heterogeneous & loaded NOWs.** [`NetworkConfig::load`] attaches a
//! [`hetero::ClusterLoad`] — per-node speed factors plus deterministic,
//! seeded, time-varying background-load traces — and every CPU charge on
//! a node (application compute, protocol handling, modeled protocol
//! costs) is divided by the node's current effective speed. Metered
//! application compute additionally dilates *host* execution pace
//! ([`ComputeMeter::charge`]), so time-shared races (dynamic chunk
//! claims, work stealing) unfold as on a real non-uniform cluster.
//! The same seed reproduces bit-identical load curves.
//!
//! ```
//! use now_net::{Network, NetworkConfig, Wire};
//!
//! struct Hello;
//! impl Wire for Hello {
//!     fn wire_bytes(&self) -> usize { 5 }
//! }
//!
//! let eps = Network::build::<Hello>(NetworkConfig::paper_udp(2));
//! eps[0].send(1, Hello);
//! let d = eps[1].recv();
//! eps[1].charge_rx(&d);
//! assert!(eps[1].clock().now() > 0);
//! ```

#![warn(missing_docs)]

mod config;
mod message;
mod network;
mod pod;
mod time;

pub use config::NetworkConfig;
pub use hetero::{ClusterLoad, LoadSpec, LoadTrace};
pub use message::{Delivered, Envelope, Wire};
pub use network::{Endpoint, Network};
pub use now_metrics::{NetMetrics, NetMetricsSnapshot};
pub use now_trace::{TraceConfig, TraceSink, Tracer};
pub use pod::Pod;
pub use time::{thread_cpu_ns, ComputeMeter, MeterPause, NodeSpeed, ThreadLane, VirtualClock};
