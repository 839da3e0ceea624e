//! Network traffic counters.
//!
//! `NetMetrics` is the one place a remote message is counted: per-node
//! send/recv message and byte counters plus per-kind slots indexed by
//! the wire type's `kind_id` (with a catch-all slot for kinds outside
//! the declared table). It is never reset. A message is recorded once,
//! as it enters the receiver's inbox: eight relaxed atomic adds for its
//! send and receive sides; the slot vectors are allocated once at
//! construction.
//! Any window of traffic — one job on a warm cluster, one phase of a
//! run — is the difference of two snapshots ([`NetMetricsSnapshot::since`]).

use crate::prim::Counter;

struct Traffic {
    msgs: Counter,
    bytes: Counter,
}

impl Traffic {
    fn new() -> Self {
        Traffic {
            msgs: Counter::new(),
            bytes: Counter::new(),
        }
    }

    fn record(&self, bytes: u64) {
        self.msgs.inc();
        self.bytes.add(bytes);
    }
}

/// Lifetime traffic counters of one network.
///
/// Only *remote* traffic is recorded: loopback sends model no wire
/// crossing, matching how the paper reports network traffic in Table 2.
pub struct NetMetrics {
    kinds: &'static [&'static str],
    node_send: Vec<Traffic>,
    node_recv: Vec<Traffic>,
    // kinds.len() + 1 entries; the last is the catch-all for kind ids
    // outside the table (`Wire::kind_id`'s default).
    kind_send: Vec<Traffic>,
    kind_recv: Vec<Traffic>,
}

impl std::fmt::Debug for NetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetMetrics")
            .field("nodes", &self.node_send.len())
            .field("kinds", &self.kinds.len())
            .finish()
    }
}

impl NetMetrics {
    /// Counters for `nodes` nodes and the wire type's declared `kinds`
    /// table (pass `Wire::kinds()`).
    pub fn new(nodes: usize, kinds: &'static [&'static str]) -> Self {
        NetMetrics {
            kinds,
            node_send: (0..nodes).map(|_| Traffic::new()).collect(),
            node_recv: (0..nodes).map(|_| Traffic::new()).collect(),
            kind_send: (0..=kinds.len()).map(|_| Traffic::new()).collect(),
            kind_recv: (0..=kinds.len()).map(|_| Traffic::new()).collect(),
        }
    }

    #[inline]
    fn slot(&self, kind_id: usize) -> usize {
        if kind_id < self.kinds.len() {
            kind_id
        } else {
            self.kinds.len()
        }
    }

    /// Record a remote send from `node` of `bytes` wire bytes.
    #[inline]
    pub fn record_send(&self, node: usize, kind_id: usize, bytes: u64) {
        self.node_send[node].record(bytes);
        self.kind_send[self.slot(kind_id)].record(bytes);
    }

    /// Record a remote receive at `node` of `bytes` wire bytes.
    #[inline]
    pub fn record_recv(&self, node: usize, kind_id: usize, bytes: u64) {
        self.node_recv[node].record(bytes);
        self.kind_recv[self.slot(kind_id)].record(bytes);
    }

    /// Record one remote message from `src` as it enters `dst`'s inbox,
    /// not when a handler gets to it: no reading holds a send without its
    /// receive, so a window's receive side is as exact as its send side.
    #[inline]
    pub fn record(&self, src: usize, dst: usize, kind_id: usize, bytes: u64) {
        self.record_send(src, kind_id, bytes);
        self.record_recv(dst, kind_id, bytes);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        let per_node = |v: &[Traffic]| v.iter().map(|t| (t.msgs.get(), t.bytes.get())).collect();
        let mut per_kind: Vec<KindTraffic> = Vec::with_capacity(self.kinds.len() + 1);
        for (i, kind) in self
            .kinds
            .iter()
            .copied()
            .chain(std::iter::once("_other"))
            .enumerate()
        {
            per_kind.push(KindTraffic {
                kind,
                send_msgs: self.kind_send[i].msgs.get(),
                send_bytes: self.kind_send[i].bytes.get(),
                recv_msgs: self.kind_recv[i].msgs.get(),
                recv_bytes: self.kind_recv[i].bytes.get(),
            });
        }
        NetMetricsSnapshot {
            send: per_node(&self.node_send),
            recv: per_node(&self.node_recv),
            per_kind,
        }
    }
}

/// Traffic of one message kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindTraffic {
    /// The wire kind string (or `"_other"` for the catch-all slot).
    pub kind: &'static str,
    /// Remote messages sent.
    pub send_msgs: u64,
    /// Wire bytes sent.
    pub send_bytes: u64,
    /// Remote messages received.
    pub recv_msgs: u64,
    /// Wire bytes received.
    pub recv_bytes: u64,
}

/// Owned copy of a [`NetMetrics`] block, or the difference of two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Per-node `(msgs, bytes)` sent to remote peers.
    pub send: Vec<(u64, u64)>,
    /// Per-node `(msgs, bytes)` received from remote peers.
    pub recv: Vec<(u64, u64)>,
    /// Per-kind traffic; the final entry is the `_other` catch-all.
    pub per_kind: Vec<KindTraffic>,
}

impl NetMetricsSnapshot {
    /// Total remote messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.send.iter().map(|(m, _)| m).sum()
    }

    /// Total wire bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.send.iter().map(|(_, b)| b).sum()
    }

    /// Total bytes sent in megabytes (10^6 bytes, as the paper's Table 2).
    pub fn total_mbytes(&self) -> f64 {
        self.total_bytes() as f64 / 1.0e6
    }

    /// Total remote messages received across all nodes.
    pub fn total_recv_msgs(&self) -> u64 {
        self.recv.iter().map(|(m, _)| m).sum()
    }

    /// Total wire bytes received across all nodes.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv.iter().map(|(_, b)| b).sum()
    }

    /// Traffic for one kind string, if present in the table.
    pub fn kind(&self, kind: &str) -> Option<&KindTraffic> {
        self.per_kind.iter().find(|k| k.kind == kind)
    }

    /// Counter-wise difference `self - earlier`: the traffic between two
    /// snapshots of the same [`NetMetrics`].
    pub fn since(&self, earlier: &NetMetricsSnapshot) -> NetMetricsSnapshot {
        let sub = |a: &[(u64, u64)], b: &[(u64, u64)]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x.0 - y.0, x.1 - y.1))
                .collect()
        };
        NetMetricsSnapshot {
            send: sub(&self.send, &earlier.send),
            recv: sub(&self.recv, &earlier.recv),
            per_kind: self
                .per_kind
                .iter()
                .zip(&earlier.per_kind)
                .map(|(k, e)| KindTraffic {
                    kind: k.kind,
                    send_msgs: k.send_msgs - e.send_msgs,
                    send_bytes: k.send_bytes - e.send_bytes,
                    recv_msgs: k.recv_msgs - e.recv_msgs,
                    recv_bytes: k.recv_bytes - e.recv_bytes,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: &[&str] = &["ping", "pong"];

    #[test]
    fn per_node_and_per_kind_accumulate() {
        let m = NetMetrics::new(2, KINDS);
        m.record_send(0, 0, 100);
        m.record_send(0, 1, 10);
        m.record_recv(1, 0, 100);
        m.record_send(1, usize::MAX, 7); // unknown kind -> catch-all
        let s = m.snapshot();
        assert_eq!(s.send, vec![(2, 110), (1, 7)]);
        assert_eq!(s.recv, vec![(0, 0), (1, 100)]);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 117);
        assert_eq!(s.kind("ping").unwrap().send_msgs, 1);
        assert_eq!(s.kind("ping").unwrap().recv_msgs, 1);
        assert_eq!(s.kind("pong").unwrap().send_bytes, 10);
        assert_eq!(s.kind("_other").unwrap().send_bytes, 7);
    }

    #[test]
    fn records_and_totals() {
        let m = NetMetrics::new(3, KINDS);
        m.record(0, 1, 0, 10);
        m.record(0, 2, 0, 20);
        m.record(2, 0, 1, 5);
        let s = m.snapshot();
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 35);
        assert_eq!(s.send, vec![(2, 30), (0, 0), (1, 5)]);
        // Each message is received where it was sent to, in the same call.
        assert_eq!(s.recv, vec![(1, 5), (1, 10), (1, 20)]);
        assert_eq!(s.total_recv_msgs(), s.total_msgs());
        assert_eq!(s.total_recv_bytes(), s.total_bytes());
        let ping = s.kind("ping").unwrap();
        assert_eq!((ping.send_msgs, ping.send_bytes), (2, 30));
        assert_eq!((ping.recv_msgs, ping.recv_bytes), (2, 30));
        let pong = s.kind("pong").unwrap();
        assert_eq!((pong.send_msgs, pong.send_bytes), (1, 5));
        assert_eq!(s.kind("_other").unwrap().send_msgs, 0);
    }

    #[test]
    fn since_computes_phase_delta() {
        let m = NetMetrics::new(2, KINDS);
        m.record_send(0, 0, 100);
        let before = m.snapshot();
        m.record_send(1, 0, 50);
        m.record_send(1, 1, 7);
        m.record_recv(0, 1, 7);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.total_msgs(), 2);
        assert_eq!(delta.total_bytes(), 57);
        assert_eq!(delta.send, vec![(0, 0), (2, 57)]);
        assert_eq!(delta.recv, vec![(1, 7), (0, 0)]);
        assert_eq!(delta.kind("ping").unwrap().send_msgs, 1);
        assert_eq!(delta.kind("ping").unwrap().send_bytes, 50);
        assert_eq!(delta.kind("pong").unwrap().recv_msgs, 1);
        assert_eq!(m.snapshot().since(&m.snapshot()).total_msgs(), 0);
    }

    #[test]
    fn mbytes_uses_decimal_megabytes() {
        let m = NetMetrics::new(1, KINDS);
        m.record_send(0, 0, 2_500_000);
        assert!((m.snapshot().total_mbytes() - 2.5).abs() < 1e-9);
    }
}
