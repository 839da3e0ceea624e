//! Cost-model configuration for the simulated network of workstations.
//!
//! The SC'98 paper ran on eight 200 MHz Pentium Pro machines under FreeBSD
//! connected by a switched, full-duplex 100 Mbps Ethernet. TreadMarks used
//! UDP/IP; MPICH used TCP. The platform characteristics quoted in §7 of the
//! paper (small-message round-trip time, lock acquire, 8-processor barrier,
//! diff fetch, maximum bandwidth) are the calibration targets for the
//! constants below.

use hetero::ClusterLoad;

/// Cost model for one simulated interconnect.
///
/// All durations are in **virtual nanoseconds**. A message of `b` payload
/// bytes sent at virtual time `t` on a sender whose per-message CPU cost is
/// `send_overhead_ns` arrives at
///
/// ```text
/// t + send_overhead_ns + latency_ns + (b + header_bytes) * 1e9 / bandwidth_bps
/// ```
///
/// and costs the receiver `handler_ns` of CPU on top. A request/response
/// pair therefore costs one round trip of
/// `2 * (send_overhead + latency + wire + handler)`, which for the UDP
/// preset reproduces the ~300 µs small-message RTT of the paper's platform.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of workstations on the network.
    pub nodes: usize,
    /// Sender-side CPU cost per message (system call + protocol stack).
    pub send_overhead_ns: u64,
    /// One-way wire + switch + stack latency, excluding serialization.
    pub latency_ns: u64,
    /// Link bandwidth in bytes per second (serialization cost).
    pub bandwidth_bps: u64,
    /// Per-message header bytes on the wire (Ethernet + IP + UDP/TCP).
    pub header_bytes: u64,
    /// Receiver-side CPU cost per message (interrupt + demultiplex).
    pub handler_ns: u64,
    /// Cost of a message a node sends to itself (manager-local operation);
    /// such messages never touch the wire and are excluded from statistics.
    pub local_delivery_ns: u64,
    /// Virtual CPU slowdown: measured host CPU nanoseconds are multiplied by
    /// this factor to model the paper's 200 MHz Pentium Pro. The ratio of
    /// compute to communication cost — not the absolute numbers — is what
    /// shapes the speedup curves. The default (240) calibrates the
    /// *sequential model times* of the five applications into the range
    /// the original codes needed on the 200 MHz machines; our from-scratch
    /// kernels execute fewer instructions per cell/element than the
    /// originals, which a pure clock-ratio factor would not account for.
    /// The `scale_sweep` ablation shows the paper's conclusions hold from
    /// 15x to 240x.
    ///
    /// `compute_scale` is the *global* clock ratio; per-node deviations —
    /// slower machines, background load — live in [`NetworkConfig::load`]
    /// and multiply on top of it.
    pub compute_scale: f64,
    /// Per-node heterogeneity: base speed factors and seeded, time-varying
    /// background-load traces. The default is the paper's platform
    /// (identical, dedicated machines) and adds no cost to the charge
    /// paths.
    pub load: ClusterLoad,
}

impl NetworkConfig {
    /// TreadMarks' UDP/IP stack on the paper's platform: switched 100 Mbps
    /// Ethernet, ~300 µs small-message round trip, ~11 MB/s effective
    /// bandwidth.
    pub fn paper_udp(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            send_overhead_ns: 25_000,
            latency_ns: 100_000,
            bandwidth_bps: 11_000_000,
            header_bytes: 42, // Ethernet 14 + IP 20 + UDP 8
            handler_ns: 25_000,
            local_delivery_ns: 2_000,
            compute_scale: 240.0,
            load: ClusterLoad::uniform(),
        }
    }

    /// MPICH's TCP stack on the same hardware: ~400 µs empty-message round
    /// trip and ~8.8 MB/s maximum bandwidth (TCP copies + checksums).
    pub fn paper_tcp(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            send_overhead_ns: 40_000,
            latency_ns: 125_000,
            bandwidth_bps: 8_800_000,
            header_bytes: 54, // Ethernet 14 + IP 20 + TCP 20
            handler_ns: 35_000,
            local_delivery_ns: 2_000,
            compute_scale: 240.0,
            load: ClusterLoad::uniform(),
        }
    }

    /// A near-zero-cost network for functional tests, where only protocol
    /// behaviour (not timing) matters. Latencies are tiny but non-zero so
    /// virtual time still advances monotonically.
    pub fn fast_test(nodes: usize) -> Self {
        NetworkConfig {
            nodes,
            send_overhead_ns: 10,
            latency_ns: 100,
            bandwidth_bps: 10_000_000_000,
            header_bytes: 0,
            handler_ns: 10,
            local_delivery_ns: 1,
            compute_scale: 1.0,
            load: ClusterLoad::uniform(),
        }
    }

    /// Serialization time for `payload` bytes plus headers, in ns.
    #[inline]
    pub fn wire_time_ns(&self, payload: usize) -> u64 {
        let bits = (payload as u64 + self.header_bytes).saturating_mul(1_000_000_000);
        bits / self.bandwidth_bps
    }

    /// Total in-flight time for a message of `payload` bytes: latency plus
    /// serialization (sender overhead and handler cost are charged to the
    /// endpoints' CPUs separately).
    #[inline]
    pub fn fly_time_ns(&self, payload: usize) -> u64 {
        self.latency_ns + self.wire_time_ns(payload)
    }

    /// The model's small-message round-trip time — useful for sanity checks
    /// against the paper's platform characterization.
    pub fn model_rtt_ns(&self, payload: usize) -> u64 {
        2 * (self.send_overhead_ns + self.fly_time_ns(payload) + self.handler_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_preset_matches_paper_rtt() {
        let cfg = NetworkConfig::paper_udp(8);
        let rtt_us = cfg.model_rtt_ns(1) / 1000;
        // Paper platform: ~300 µs round trip for a 1-byte UDP message.
        assert!((295..=315).contains(&rtt_us), "rtt {rtt_us} µs");
    }

    #[test]
    fn tcp_preset_slower_than_udp() {
        let udp = NetworkConfig::paper_udp(8);
        let tcp = NetworkConfig::paper_tcp(8);
        assert!(tcp.model_rtt_ns(0) > udp.model_rtt_ns(0));
        assert!(tcp.bandwidth_bps < udp.bandwidth_bps);
    }

    #[test]
    fn wire_time_scales_with_size() {
        let cfg = NetworkConfig::paper_udp(2);
        let small = cfg.wire_time_ns(64);
        let big = cfg.wire_time_ns(4096);
        assert!(big > small * 10);
        // 4 KiB page at 11 MB/s ≈ 376 µs of serialization.
        let page_us = cfg.wire_time_ns(4096) / 1000;
        assert!((350..=420).contains(&page_us), "page {page_us} µs");
    }

    #[test]
    fn fly_time_includes_latency() {
        let cfg = NetworkConfig::paper_udp(2);
        assert!(cfg.fly_time_ns(0) >= cfg.latency_ns);
    }
}
