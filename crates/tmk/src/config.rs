//! DSM-level configuration: page size, protocol cost constants, GC policy.

use now_net::{NetworkConfig, TraceConfig};

/// Configuration for one TreadMarks system instance.
#[derive(Debug, Clone)]
pub struct TmkConfig {
    /// The interconnect cost model (also fixes the node count).
    pub net: NetworkConfig,
    /// Shared-memory page size in bytes (power of two). TreadMarks used the
    /// host VM page size, 4096.
    pub page_size: usize,
    /// Modeled CPU cost of creating a twin (one page memcpy on the paper's
    /// 200 MHz Pentium Pro).
    pub twin_ns: u64,
    /// Modeled CPU cost of scanning a page to encode a diff.
    pub diff_create_ns: u64,
    /// Modeled fixed + per-byte CPU cost of applying one diff.
    pub diff_apply_base_ns: u64,
    /// Per-byte component of diff application.
    pub diff_apply_per_byte_ns: u64,
    /// Run diff garbage collection when a node's cached diff storage
    /// exceeds this many bytes (checked at barriers).
    pub gc_threshold_bytes: usize,
    /// Force GC at every barrier (stress testing).
    pub gc_every_barrier: bool,
    /// Modeled payload bytes of a `Tmk_fork` message (region descriptor +
    /// copied-in firstprivate environment).
    pub fork_payload_bytes: usize,
    /// SMP-cluster mode: modeled per-operation cost of an intra-node
    /// shared-memory access (bus/coherence overhead) charged to a local
    /// thread's lane when several application threads share this DSM
    /// process. Irrelevant (never charged) with one thread per node.
    pub smp_access_ns: u64,
    /// Deadline watchdog on the protocol reply channel (**host** time):
    /// an application thread blocked longer than this on a protocol reply
    /// dumps every node's channel/clock/protocol state to stderr and
    /// panics, turning a silent lost-wakeup hang into a diagnosable
    /// failure. `None` (the default) waits forever; the
    /// `NOW_WATCHDOG_SECS` environment variable arms it process-wide
    /// (used by the CI hang-hunt lane).
    pub watchdog: Option<std::time::Duration>,
    /// Event tracing (`now-trace`): `Some` arms per-node ring-buffer
    /// recording of protocol/sync/message events for the job's
    /// Chrome-trace export and `Profile`. `None` (the default) is
    /// zero-overhead: every hook is a single branch, and enabling
    /// tracing never changes virtual results, [`crate::TmkStats`], or
    /// message counts. The `NOW_TRACE_EVENTS` environment variable
    /// (ring capacity per node) arms it process-wide — the CI hang-hunt
    /// lane uses this so a watchdog abort can dump each node's last
    /// recorded events.
    pub trace: Option<TraceConfig>,
}

/// The process-wide watchdog default: `NOW_WATCHDOG_SECS=<secs>` in the
/// environment arms every [`TmkConfig`] built afterwards.
fn watchdog_from_env() -> Option<std::time::Duration> {
    let secs: u64 = std::env::var("NOW_WATCHDOG_SECS").ok()?.parse().ok()?;
    (secs > 0).then(|| std::time::Duration::from_secs(secs))
}

impl TmkConfig {
    /// Paper platform: 8-node defaults, 4 KiB pages, Pentium Pro protocol
    /// costs calibrated so lock/barrier/diff times land in the ranges the
    /// paper reports in §7.
    pub fn paper(nodes: usize) -> Self {
        TmkConfig {
            net: NetworkConfig::paper_udp(nodes),
            page_size: 4096,
            twin_ns: 40_000,
            diff_create_ns: 120_000,
            diff_apply_base_ns: 15_000,
            diff_apply_per_byte_ns: 25,
            gc_threshold_bytes: 16 << 20,
            gc_every_barrier: false,
            fork_payload_bytes: 128,
            smp_access_ns: 120,
            watchdog: watchdog_from_env(),
            trace: TraceConfig::from_env(),
        }
    }

    /// Near-zero-cost variant for functional tests.
    pub fn fast_test(nodes: usize) -> Self {
        TmkConfig {
            net: NetworkConfig::fast_test(nodes),
            page_size: 4096,
            twin_ns: 10,
            diff_create_ns: 10,
            diff_apply_base_ns: 1,
            diff_apply_per_byte_ns: 0,
            gc_threshold_bytes: 16 << 20,
            gc_every_barrier: false,
            fork_payload_bytes: 128,
            smp_access_ns: 1,
            watchdog: watchdog_from_env(),
            trace: TraceConfig::from_env(),
        }
    }

    /// Fast-test variant whose virtual times are deterministic: measured
    /// host compute contributes nothing and per-message CPU costs are
    /// zero, so every timestamp is a pure function of the modeled
    /// protocol costs.
    #[cfg(test)]
    pub(crate) fn deterministic(nodes: usize) -> Self {
        let mut cfg = Self::fast_test(nodes);
        cfg.net.compute_scale = 0.0;
        cfg.net.send_overhead_ns = 0;
        cfg.net.handler_ns = 0;
        cfg.net.local_delivery_ns = 0;
        cfg
    }

    /// Fast-test variant with tiny pages, maximizing false sharing — a
    /// protocol stress configuration.
    pub fn stress_tiny_pages(nodes: usize) -> Self {
        let mut cfg = Self::fast_test(nodes);
        cfg.page_size = 64;
        cfg
    }

    /// Number of nodes (workstations).
    pub fn nodes(&self) -> usize {
        self.net.nodes
    }

    /// log2(page_size), for address arithmetic.
    pub fn page_shift(&self) -> u32 {
        debug_assert!(self.page_size.is_power_of_two());
        self.page_size.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_shift_math() {
        let cfg = TmkConfig::paper(8);
        assert_eq!(cfg.page_shift(), 12);
        assert_eq!(1usize << cfg.page_shift(), cfg.page_size);
    }

    #[test]
    fn stress_config_uses_tiny_pages() {
        let cfg = TmkConfig::stress_tiny_pages(4);
        assert_eq!(cfg.page_size, 64);
        assert_eq!(cfg.nodes(), 4);
    }
}
