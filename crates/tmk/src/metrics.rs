//! Always-on cluster metrics: per-node blocks, the cluster-wide
//! registry owned by [`System`](crate::system::System), and snapshots
//! with Prometheus / JSON export.
//!
//! The metrics here are *cluster-lifetime* aggregates: they accumulate
//! across the whole job stream and are never reset. The per-op counters
//! are the only place a DSM op is counted — a per-job `TmkStats` is the
//! difference of two readings of them, taken at consecutive job
//! boundaries. Beyond those counts the registry adds dimensions a
//! `TmkStats` cannot express — latency distributions per op kind
//! (virtual and host), jobs completed/failed, warm-reset durations,
//! cumulative traffic, uptime.
//!
//! Recording-path invariants (see DESIGN.md):
//!
//! - never advances a virtual clock, sends a message, or takes a lock;
//! - no allocation: everything is preallocated at registry build;
//! - one counter per op: every count site is a relaxed add on
//!   [`NodeMetrics::op`], so lifetime per-op counters equal the sum of
//!   per-job `TmkStats` deltas because the deltas are computed from them.

use std::sync::Arc;
use std::time::Instant;

use now_metrics::{
    Counter, Family, Gauge, Histogram, HistogramSnapshot, KindTraffic, NetMetrics,
    NetMetricsSnapshot,
};
use now_trace::EventKind;

use crate::stats::{TmkOp, TmkStats};

macro_rules! op_lats {
    ($(($variant:ident, $label:literal, $event:ident, $doc:literal)),* $(,)?) => {
        /// A blocking protocol operation whose latency is tracked as a
        /// pair of histograms (virtual nanoseconds and host nanoseconds)
        /// per node, and whose every occurrence is one trace span.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum OpLat {
            $(
                #[doc = $doc]
                $variant,
            )*
        }

        impl OpLat {
            /// Every latency-tracked op.
            pub const ALL: &'static [OpLat] = &[$(OpLat::$variant),*];

            /// Number of latency-tracked ops.
            pub const COUNT: usize = OpLat::ALL.len();

            /// The `op` label value.
            pub fn name(self) -> &'static str {
                match self {
                    $(OpLat::$variant => $label),*
                }
            }

            /// The trace span kind recorded for this op.
            pub fn event(self) -> EventKind {
                match self {
                    $(OpLat::$variant => EventKind::$event),*
                }
            }
        }
    };
}

op_lats! {
    (PageFault, "page_fault", PageFault, "A page fault, from trap to data installed (may cover a batch)."),
    (Barrier, "barrier", BarrierWait, "A DSM barrier episode, arrival to departure."),
    (LockAcquire, "lock_acquire", LockWait, "A lock acquire, request to grant (or local fast path)."),
    (LockRelease, "lock_release", LockRelease, "A lock release, including diff/interval bookkeeping."),
    (SemaSignal, "sema_signal", SemaSignal, "A semaphore signal round trip to the manager."),
    (SemaWait, "sema_wait", SemaWait, "A semaphore wait, request to grant."),
    (CondWait, "cond_wait", CondWait, "A condition-variable wait, release to wakeup."),
    (Flush, "flush", Flush, "An OpenMP flush round."),
    (Gc, "gc", Gc, "A diff garbage-collection round (inside a barrier)."),
    (Steal, "steal", StealWait, "A steal from another node's task deque, request to reply."),
    (Park, "park", Park, "An idle task worker's park at node 0, until woken or the scope ends."),
}

/// One node's lifetime metrics block. Shared (`Arc`) between the
/// node's `NodeState`, its `Tmk` handle and any SMP sibling handles;
/// survives job-boundary resets.
#[derive(Debug)]
pub struct NodeMetrics {
    ops: [Counter; TmkOp::COUNT],
    lat_vt: [Histogram; OpLat::COUNT],
    lat_host: [Histogram; OpLat::COUNT],
    /// SMP teams forked on this node (multi-thread regions only).
    pub team_forks: Counter,
    /// Node-local (SMP two-level) barrier episodes, one per thread.
    pub local_barriers: Counter,
    /// Loop chunks claimed by this node's threads.
    pub chunks_claimed: Counter,
    /// Total iterations across claimed chunks.
    pub chunk_iters: Counter,
    /// Distribution of claimed chunk lengths.
    pub chunk_len: Histogram,
}

impl Default for NodeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeMetrics {
    /// A zeroed block.
    pub fn new() -> Self {
        NodeMetrics {
            ops: std::array::from_fn(|_| Counter::new()),
            lat_vt: std::array::from_fn(|_| Histogram::new()),
            lat_host: std::array::from_fn(|_| Histogram::new()),
            team_forks: Counter::new(),
            local_barriers: Counter::new(),
            chunks_claimed: Counter::new(),
            chunk_iters: Counter::new(),
            chunk_len: Histogram::new(),
        }
    }

    /// The lifetime counter for one op.
    #[inline]
    pub fn op(&self, op: TmkOp) -> &Counter {
        &self.ops[op as usize]
    }

    /// Record one completed blocking op's latency (virtual + host ns).
    #[inline]
    pub fn observe(&self, op: OpLat, vt_ns: u64, host_ns: u64) {
        self.lat_vt[op as usize].record(vt_ns);
        self.lat_host[op as usize].record(host_ns);
    }

    /// A point-in-time copy of this block.
    pub fn snapshot(&self, node: usize) -> NodeMetricsSnapshot {
        NodeMetricsSnapshot {
            node,
            ops: self.ops.iter().map(|c| c.get()).collect(),
            lat_vt: self.lat_vt.iter().map(|h| h.snapshot()).collect(),
            lat_host: self.lat_host.iter().map(|h| h.snapshot()).collect(),
            team_forks: self.team_forks.get(),
            local_barriers: self.local_barriers.get(),
            chunks_claimed: self.chunks_claimed.get(),
            chunk_iters: self.chunk_iters.get(),
            chunk_len: self.chunk_len.snapshot(),
        }
    }
}

/// Owned copy of one node's [`NodeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetricsSnapshot {
    /// The node id.
    pub node: usize,
    /// Lifetime op counters, indexed by `TmkOp as usize`.
    pub ops: Vec<u64>,
    /// Virtual-time latency histograms, indexed by `OpLat as usize`.
    pub lat_vt: Vec<HistogramSnapshot>,
    /// Host-time latency histograms, indexed by `OpLat as usize`.
    pub lat_host: Vec<HistogramSnapshot>,
    /// SMP teams forked.
    pub team_forks: u64,
    /// Node-local barrier episodes.
    pub local_barriers: u64,
    /// Loop chunks claimed.
    pub chunks_claimed: u64,
    /// Iterations across claimed chunks.
    pub chunk_iters: u64,
    /// Claimed chunk-length distribution.
    pub chunk_len: HistogramSnapshot,
}

impl NodeMetricsSnapshot {
    /// This node's lifetime count for one op.
    pub fn op(&self, op: TmkOp) -> u64 {
        self.ops[op as usize]
    }
}

/// Cluster-wide metrics registry, owned by `System` and surfaced
/// through `Cluster::metrics()`. Built once per cluster; every block
/// lives for the cluster's lifetime (job-boundary resets do not touch
/// it).
#[derive(Debug)]
pub struct MetricsRegistry {
    nodes: Vec<Arc<NodeMetrics>>,
    net: Arc<NetMetrics>,
    /// Jobs that ran to completion.
    pub jobs_completed: Counter,
    /// Jobs that panicked.
    pub jobs_failed: Counter,
    /// 1 while a job is executing on the cluster, else 0.
    pub jobs_in_flight: Gauge,
    /// Host-time duration of each warm job-boundary reset round.
    pub reset_host_ns: Histogram,
    /// Virtual-time duration of each completed job.
    pub job_vt_ns: Histogram,
    start: Instant,
}

impl MetricsRegistry {
    /// A registry for `nodes` nodes whose network counts its traffic
    /// on `net`.
    pub fn new(nodes: usize, net: Arc<NetMetrics>) -> Self {
        MetricsRegistry {
            nodes: (0..nodes).map(|_| Arc::new(NodeMetrics::new())).collect(),
            net,
            jobs_completed: Counter::new(),
            jobs_failed: Counter::new(),
            jobs_in_flight: Gauge::new(),
            reset_host_ns: Histogram::new(),
            job_vt_ns: Histogram::new(),
            start: Instant::now(),
        }
    }

    /// One node's block (shared with that node's state and handles).
    pub fn node(&self, id: usize) -> &Arc<NodeMetrics> {
        &self.nodes[id]
    }

    /// The op counters summed over all nodes: `TmkOp::COUNT × nodes`
    /// relaxed loads, no histogram copies (the job-boundary reading).
    pub(crate) fn op_totals(&self) -> TmkStats {
        let mut s = TmkStats::default();
        for op in TmkOp::ALL {
            op.add_to(&mut s, self.nodes.iter().map(|m| m.op(*op).get()).sum());
        }
        s
    }

    /// A consistent point-in-time copy of every metric.
    ///
    /// Safe to call between and during jobs: recording is relaxed
    /// atomics, so each cell is individually exact and monotonic across
    /// snapshots, but cells recorded mid-snapshot may or may not be
    /// included (no cross-cell linearization).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(id, m)| m.snapshot(id))
                .collect(),
            net: self.net.snapshot(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_in_flight: self.jobs_in_flight.get(),
            reset_host_ns: self.reset_host_ns.snapshot(),
            job_vt_ns: self.job_vt_ns.snapshot(),
            uptime_host_ns: self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// An owned, exportable copy of the whole cluster's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-node blocks, indexed by node id.
    pub nodes: Vec<NodeMetricsSnapshot>,
    /// Lifetime traffic.
    pub net: NetMetricsSnapshot,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs that panicked.
    pub jobs_failed: u64,
    /// 1 while a job is executing, else 0.
    pub jobs_in_flight: i64,
    /// Warm-reset host-duration distribution.
    pub reset_host_ns: HistogramSnapshot,
    /// Completed-job virtual-time distribution.
    pub job_vt_ns: HistogramSnapshot,
    /// Host nanoseconds since the cluster was built.
    pub uptime_host_ns: u64,
}

impl MetricsSnapshot {
    /// Cluster-total lifetime count for one op.
    pub fn op_total(&self, op: TmkOp) -> u64 {
        self.nodes.iter().map(|n| n.op(op)).sum()
    }

    /// The cluster-total op counters reassembled as a [`TmkStats`].
    ///
    /// Per-job `TmkStats` are boundary deltas of these counters, so
    /// this equals their sum over the cluster's job stream (plus any
    /// ops of a job currently running).
    pub fn ops_as_stats(&self) -> TmkStats {
        let mut s = TmkStats::default();
        for op in TmkOp::ALL {
            op.add_to(&mut s, self.op_total(*op));
        }
        s
    }

    /// Cluster-merged virtual-time latency histogram for one op.
    pub fn lat_vt_total(&self, op: OpLat) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for n in &self.nodes {
            h.merge(&n.lat_vt[op as usize]);
        }
        h
    }

    /// Cluster-merged host-time latency histogram for one op.
    pub fn lat_host_total(&self, op: OpLat) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for n in &self.nodes {
            h.merge(&n.lat_host[op as usize]);
        }
        h
    }

    /// Every exported metric family, each declared once: the one list
    /// [`to_prometheus`](Self::to_prometheus) and [`to_json`](Self::to_json)
    /// render.
    pub fn families(&self) -> Vec<Family> {
        fn per_node(
            name: &'static str,
            help: &'static str,
            v: impl Iterator<Item = u64>,
        ) -> Family {
            let node = |id: usize| vec![("node", id.to_string().into())];
            Family::counter(name, help, v.enumerate().map(|(id, v)| (node(id), v)))
        }
        let op_lat = |name, help, total: fn(&Self, OpLat) -> HistogramSnapshot| {
            let op = |op: OpLat| vec![("op", op.name().into())];
            Family::histogram(
                name,
                help,
                OpLat::ALL.iter().map(|&o| (op(o), total(self, o))),
            )
        };
        // The `_other` catch-all is listed only once a message hit it.
        let kinds: Vec<&KindTraffic> = (self.net.per_kind.iter())
            .filter(|k| k.kind != "_other" || k.send_msgs != 0 || k.recv_msgs != 0)
            .collect();
        let net_kind = |name, help, get: fn(&KindTraffic) -> [u64; 2]| {
            let dirs = |k: &&KindTraffic| {
                let [send, recv] = get(k);
                let labels = |dir: &'static str| vec![("kind", k.kind.into()), ("dir", dir.into())];
                [(labels("send"), send), (labels("recv"), recv)]
            };
            Family::counter(name, help, kinds.iter().flat_map(dirs))
        };
        let mut chunk_len = HistogramSnapshot::default();
        for n in &self.nodes {
            chunk_len.merge(&n.chunk_len);
        }
        let status = |s: &'static str| vec![("status", s.into())];
        vec![
            Family::gauge(
                "now_uptime_host_seconds",
                "Host seconds since the cluster was built.",
                [(vec![], self.uptime_host_ns as f64 / 1e9)],
            ),
            Family::counter(
                "now_jobs_total",
                "Jobs by final status.",
                [
                    (status("completed"), self.jobs_completed),
                    (status("failed"), self.jobs_failed),
                ],
            ),
            Family::gauge(
                "now_jobs_in_flight",
                "Jobs currently executing.",
                [(vec![], self.jobs_in_flight as f64)],
            ),
            Family::histogram(
                "now_reset_duration_host_ns",
                "Host-time duration of warm job-boundary resets.",
                [(vec![], self.reset_host_ns.clone())],
            ),
            Family::histogram(
                "now_job_vt_ns",
                "Virtual-time duration of completed jobs.",
                [(vec![], self.job_vt_ns.clone())],
            ),
            Family::counter(
                "now_dsm_ops_total",
                "Lifetime DSM/runtime protocol op counts per node.",
                self.nodes.iter().flat_map(|n| {
                    TmkOp::ALL.iter().map(move |op| {
                        let labels = vec![
                            ("node", n.node.to_string().into()),
                            ("op", op.name().into()),
                        ];
                        (labels, n.op(*op))
                    })
                }),
            ),
            op_lat(
                "now_op_vt_ns",
                "Virtual-time latency of blocking protocol ops (cluster-merged).",
                Self::lat_vt_total,
            ),
            op_lat(
                "now_op_host_ns",
                "Host-time latency of blocking protocol ops (cluster-merged).",
                Self::lat_host_total,
            ),
            per_node(
                "now_smp_team_forks_total",
                "SMP teams forked per node.",
                self.nodes.iter().map(|n| n.team_forks),
            ),
            per_node(
                "now_smp_local_barriers_total",
                "Node-local two-level barrier episodes per node (one per thread).",
                self.nodes.iter().map(|n| n.local_barriers),
            ),
            per_node(
                "now_loop_chunks_total",
                "Loop chunks claimed per node.",
                self.nodes.iter().map(|n| n.chunks_claimed),
            ),
            per_node(
                "now_loop_chunk_iters_total",
                "Loop iterations across claimed chunks per node.",
                self.nodes.iter().map(|n| n.chunk_iters),
            ),
            Family::histogram(
                "now_loop_chunk_len",
                "Distribution of claimed chunk lengths (cluster-merged).",
                [(vec![], chunk_len)],
            ),
            per_node(
                "now_net_send_msgs_total",
                "Lifetime remote messages sent per node.",
                self.net.send.iter().map(|t| t.0),
            ),
            per_node(
                "now_net_send_bytes_total",
                "Lifetime wire bytes sent per node.",
                self.net.send.iter().map(|t| t.1),
            ),
            per_node(
                "now_net_recv_msgs_total",
                "Lifetime remote messages received per node.",
                self.net.recv.iter().map(|t| t.0),
            ),
            per_node(
                "now_net_recv_bytes_total",
                "Lifetime wire bytes received per node.",
                self.net.recv.iter().map(|t| t.1),
            ),
            net_kind(
                "now_net_kind_msgs_total",
                "Lifetime remote messages by wire kind and direction.",
                |k| [k.send_msgs, k.recv_msgs],
            ),
            net_kind(
                "now_net_kind_bytes_total",
                "Lifetime wire bytes by wire kind and direction.",
                |k| [k.send_bytes, k.recv_bytes],
            ),
        ]
    }

    /// Render as Prometheus text exposition format. The output always
    /// passes [`now_metrics::validate_prometheus_text`].
    pub fn to_prometheus(&self) -> String {
        now_metrics::to_prometheus(&self.families())
    }

    /// Render as one line of JSON in the `now-metrics-v2` shape (see
    /// [`now_metrics::to_json`]), validated by [`now_metrics::validate_json`].
    pub fn to_json(&self) -> String {
        now_metrics::to_json(&self.families())
    }

    /// A compact human-readable rendering for diagnostics (watchdog
    /// dumps): jobs, nonzero cluster op totals, traffic.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "jobs: {} completed, {} failed, {} in flight; uptime {:.3}s\n",
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_in_flight,
            self.uptime_host_ns as f64 / 1e9
        ));
        s.push_str("ops:");
        let mut any = false;
        for op in TmkOp::ALL {
            let v = self.op_total(*op);
            if v != 0 {
                s.push_str(&format!(" {}={v}", op.name()));
                any = true;
            }
        }
        if !any {
            s.push_str(" (none)");
        }
        s.push('\n');
        s.push_str(&format!(
            "net: sent {} msgs / {} B, received {} msgs / {} B\n",
            self.net.total_msgs(),
            self.net.total_bytes(),
            self.net.total_recv_msgs(),
            self.net.total_recv_bytes()
        ));
        let mut kinds: Vec<_> = self
            .net
            .per_kind
            .iter()
            .filter(|k| k.send_msgs > 0)
            .collect();
        kinds.sort_by_key(|k| std::cmp::Reverse(k.send_msgs));
        if !kinds.is_empty() {
            s.push_str("top kinds:");
            for k in kinds.iter().take(6) {
                s.push_str(&format!(" {}={}", k.kind, k.send_msgs));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_metrics::{validate_json, validate_prometheus_text};

    #[test]
    fn registry_snapshot_exports_validate() {
        let net = Arc::new(NetMetrics::new(2, &["ping", "pong"]));
        let reg = MetricsRegistry::new(2, net.clone());
        reg.node(0).op(TmkOp::Barriers).add(3);
        reg.node(1).op(TmkOp::ReadFaults).add(7);
        reg.node(0).observe(OpLat::Barrier, 1500, 9000);
        reg.node(1).chunk_len.record(64);
        reg.node(1).chunks_claimed.inc();
        net.record_send(0, 1, 40);
        net.record_recv(1, 1, 40);
        reg.jobs_completed.inc();
        reg.job_vt_ns.record(123_456);
        reg.reset_host_ns.record(2_000);

        let snap = reg.snapshot();
        assert_eq!(snap.op_total(TmkOp::Barriers), 3);
        assert_eq!(snap.op_total(TmkOp::ReadFaults), 7);
        assert_eq!(snap.ops_as_stats().barriers, 3);
        assert_eq!(snap.lat_vt_total(OpLat::Barrier).count(), 1);
        assert_eq!(snap.net.kind("pong").unwrap().send_msgs, 1);

        let prom = snap.to_prometheus();
        validate_prometheus_text(&prom).expect("prometheus output validates");
        assert!(prom.contains("now_dsm_ops_total{node=\"0\",op=\"barriers\"} 3"));
        assert!(prom.contains("now_jobs_total{status=\"completed\"} 1"));
        assert!(prom.contains("now_op_vt_ns_count{op=\"barrier\"} 1"));

        let json = snap.to_json();
        validate_json(&json).expect("json output validates");
        let doc = now_metrics::json::parse(&json).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("now-metrics-v2"));
        let fams = doc.get("families").unwrap().as_arr().unwrap();
        let family = |name: &str| {
            let f = fams
                .iter()
                .find(|f| f.get("name").unwrap().as_str() == Some(name));
            f.unwrap().get("samples").unwrap().as_arr().unwrap()
        };
        let completed = &family("now_jobs_total")[0];
        let status = completed.get("labels").unwrap().get("status").unwrap();
        assert_eq!(status.as_str(), Some("completed"));
        assert_eq!(completed.get("value").unwrap().as_u64(), Some(1));
        let read_faults: u64 = family("now_dsm_ops_total")
            .iter()
            .filter(|s| s.get("labels").unwrap().get("op").unwrap().as_str() == Some("read_faults"))
            .map(|s| s.get("value").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(read_faults, 7);
        let barrier = &family("now_op_vt_ns")[OpLat::Barrier as usize];
        assert_eq!(barrier.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(barrier.get("sum").unwrap().as_u64(), Some(1500));

        let rendered = snap.render();
        assert!(rendered.contains("1 completed"));
        assert!(rendered.contains("barriers=3"));
    }

    /// A fixed 3-node snapshot touching every family: every `TmkOp` and
    /// `OpLat`, per-node SMP/loop/net counters, a zero-traffic kind and a
    /// nonzero `_other` catch-all.
    fn fixed_snapshot() -> MetricsSnapshot {
        let hist = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let nodes = (0..3u64)
            .map(|id| NodeMetricsSnapshot {
                node: id as usize,
                ops: (0..TmkOp::COUNT as u64).map(|i| id * 100 + i).collect(),
                lat_vt: (0..OpLat::COUNT as u64)
                    .map(|i| hist(&[id * 1000 + i, 1 << (10 + i)]))
                    .collect(),
                lat_host: (0..OpLat::COUNT as u64)
                    .map(|i| hist(&[(id + 1) * 7 * i]))
                    .collect(),
                team_forks: id + 1,
                local_barriers: 2 * id,
                chunks_claimed: 10 + id,
                chunk_iters: 640 + id,
                chunk_len: hist(&[64, 64 + id]),
            })
            .collect();
        let kind = |kind, send_msgs, recv_msgs| KindTraffic {
            kind,
            send_msgs,
            send_bytes: 40 * send_msgs,
            recv_msgs,
            recv_bytes: 40 * recv_msgs,
        };
        MetricsSnapshot {
            nodes,
            net: NetMetricsSnapshot {
                send: vec![(3, 120), (1, 40), (0, 0)],
                recv: vec![(0, 0), (2, 80), (2, 80)],
                per_kind: vec![kind("ping", 3, 3), kind("pong", 0, 0), kind("_other", 1, 1)],
            },
            jobs_completed: 5,
            jobs_failed: 1,
            jobs_in_flight: 1,
            reset_host_ns: hist(&[2_000, 3_000]),
            job_vt_ns: hist(&[123_456]),
            uptime_host_ns: 2_500_000_000,
        }
    }

    fn sorted_lines(doc: &str) -> Vec<&str> {
        let mut lines: Vec<&str> = doc.lines().collect();
        lines.sort_unstable();
        lines
    }

    /// Every family keeps its name, help, labels and values: the fixed
    /// snapshot's Prometheus lines, sorted, equal a list recorded once
    /// from the hand-written exporter this one replaced. Only the order
    /// of lines may differ.
    #[test]
    fn fixed_snapshot_prometheus_lines_are_pinned() {
        let doc = fixed_snapshot().to_prometheus();
        validate_prometheus_text(&doc).expect("prometheus output validates");
        let pinned = include_str!("../testdata/metrics_fixed_3node.prom");
        assert_eq!(sorted_lines(&doc), pinned.lines().collect::<Vec<_>>());
    }
}
