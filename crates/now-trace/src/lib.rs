//! Virtual-time event tracing for the simulated NOW runtime.
//!
//! The runtime's end-of-job aggregates (`TmkStats`, network totals) say
//! *how much* protocol work a job did; they cannot say *when*, *where*,
//! or *in what order* — which is exactly what debugging a distributed
//! schedule (or a rare hang) needs. This crate is the recording layer:
//!
//! * [`TraceSink`] — one bounded ring buffer per simulated node. Events
//!   are fixed-size, copied in under a per-node mutex, and the oldest
//!   events are overwritten when a ring fills (the drop count is kept).
//! * [`Tracer`] — the cheap per-node handle the runtime threads hold.
//!   When tracing is off it is a `None` and every hook is a single
//!   branch; no event is materialized, no clock is read, no allocation
//!   happens. Recording never *advances* a virtual clock, never sends a
//!   message, and runs off the compute meter, so enabling tracing is
//!   behaviorally invisible: virtual results, `TmkStats`, and message
//!   counts are bit-identical with tracing on or off.
//! * [`Trace`] — the drained per-job event log: one event vector per
//!   node, each event stamped with virtual time (both endpoints for
//!   spans) and host time. Exports Chrome-trace-event JSON
//!   ([`Trace::to_chrome_json`]) with one track per node and thread
//!   lane, viewable in Perfetto / `chrome://tracing`.
//! * [`Profile`] — the structured per-job summary attached to run
//!   reports: a per-node virtual-time breakdown (compute / barrier /
//!   protocol / idle, summing exactly to the job's total), a hot-page
//!   table, per-loop chunk-claim histograms, and per-kind message
//!   timelines.
//! * [`validate_chrome_json`] — a structural validator for the emitted
//!   JSON, on the shared `now_metrics::json` parser (used by CI against
//!   real trace files).
//!
//! Timestamps are **virtual** nanoseconds from the job's start; the
//! `host_ns` stamp (host nanoseconds since the sink was created) rides
//! along for correlating simulation progress with wall time.

use now_metrics::json::{escape, parse, Json};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lane id used for a node's protocol service thread (its own Chrome
/// track, labeled `service`). Application thread lanes are `0..tpn`.
pub const SERVICE_LANE: u32 = u32::MAX;

/// What a [`TraceEvent`] contributes to a [`Profile`] breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Time waiting at a DSM or local barrier.
    Barrier,
    /// Time inside the DSM protocol (faults, diffs, locks, flushes, …).
    Protocol,
    /// Time parked with no work (slave nodes between jobs, a task
    /// scope's idle workers).
    Idle,
    /// Zero-width marker; never contributes time.
    Marker,
}

/// Typed runtime events. Span kinds carry `[t0, t1]`; marker kinds are
/// instants (`t0 == t1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Page fault servicing: fetch + apply of all missing diffs/pages.
    PageFault,
    /// Service-side diff creation for a `DiffReq`.
    DiffCreate,
    /// Applying fetched diffs to a local page.
    DiffApply,
    /// DSM barrier: arrive → depart (`a` = barrier epoch).
    BarrierWait,
    /// SMP node-local sense-reversing barrier (`a` = barrier epoch).
    LocalBarrier,
    /// Lock acquire: request → grant (`a` = lock id).
    LockWait,
    /// Lock release (`a` = lock id).
    LockRelease,
    /// Semaphore wait: request → grant (`a` = sema id).
    SemaWait,
    /// Semaphore signal (`a` = sema id).
    SemaSignal,
    /// Condition wait: park → wake (`a` = cond id).
    CondWait,
    /// Condition signal/broadcast (`a` = cond id, `b` = woken).
    CondSignal,
    /// `flush` consistency round-trip.
    Flush,
    /// Barrier-time garbage collection of consistency metadata.
    Gc,
    /// Steal from another node's task deque: request → reply (`a` =
    /// victim).
    StealWait,
    /// An idle task worker parked at node 0: idle → woken or scope over
    /// (`a` = task scope).
    Park,
    /// Job-boundary reset protocol step.
    Reset,
    /// SMP team fork/join bracketing a node's parallel region.
    TeamFork,
    /// Slave node parked waiting for the next fork.
    Idle,
    /// Parallel region fork marker (`a` = region id).
    Fork,
    /// Loop chunk claimed (`a` = loop site, `b` = chunk length).
    ChunkClaim,
    /// Task enqueued (`a` = 1 when overflow-inlined).
    TaskSpawn,
    /// Task executed (`a` = 1 when stolen).
    TaskExec,
    /// Remote steal attempt (`a` = victim).
    TaskSteal,
    /// Message handed to the NIC (`a` = destination, `b` = bytes).
    MsgSend,
    /// Message charged on arrival (`a` = source, `b` = bytes).
    MsgRecv,
    /// End-of-job marker at the job's total virtual time.
    JobEnd,
}

impl EventKind {
    /// Human/Chrome display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PageFault => "page fault",
            EventKind::DiffCreate => "diff create",
            EventKind::DiffApply => "diff apply",
            EventKind::BarrierWait => "barrier",
            EventKind::LocalBarrier => "local barrier",
            EventKind::LockWait => "lock wait",
            EventKind::LockRelease => "lock release",
            EventKind::SemaWait => "sema wait",
            EventKind::SemaSignal => "sema signal",
            EventKind::CondWait => "cond wait",
            EventKind::CondSignal => "cond signal",
            EventKind::Flush => "flush",
            EventKind::Gc => "gc",
            EventKind::StealWait => "steal wait",
            EventKind::Park => "park",
            EventKind::Reset => "reset",
            EventKind::TeamFork => "team fork",
            EventKind::Idle => "idle",
            EventKind::Fork => "fork",
            EventKind::ChunkClaim => "chunk claim",
            EventKind::TaskSpawn => "task spawn",
            EventKind::TaskExec => "task exec",
            EventKind::TaskSteal => "task steal",
            EventKind::MsgSend => "msg send",
            EventKind::MsgRecv => "msg recv",
            EventKind::JobEnd => "job end",
        }
    }

    /// Profile category of this kind.
    pub fn category(self) -> Category {
        match self {
            EventKind::BarrierWait | EventKind::LocalBarrier => Category::Barrier,
            EventKind::PageFault
            | EventKind::DiffCreate
            | EventKind::DiffApply
            | EventKind::LockWait
            | EventKind::LockRelease
            | EventKind::SemaWait
            | EventKind::SemaSignal
            | EventKind::CondWait
            | EventKind::CondSignal
            | EventKind::Flush
            | EventKind::Gc
            | EventKind::StealWait
            | EventKind::Reset
            | EventKind::TeamFork => Category::Protocol,
            EventKind::Idle | EventKind::Park => Category::Idle,
            EventKind::Fork
            | EventKind::ChunkClaim
            | EventKind::TaskSpawn
            | EventKind::TaskExec
            | EventKind::TaskSteal
            | EventKind::MsgSend
            | EventKind::MsgRecv
            | EventKind::JobEnd => Category::Marker,
        }
    }
}

/// One recorded event. Fixed-size and `Copy` so ring-buffer writes are
/// a bounded memcpy under the node's sink mutex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Thread lane on the node (`0..tpn`, or [`SERVICE_LANE`]).
    pub lane: u32,
    /// Virtual start time (ns from job start).
    pub t0: u64,
    /// Virtual end time (`== t0` for markers).
    pub t1: u64,
    /// Host ns since the sink's creation, stamped at record time.
    pub host_ns: u64,
    /// Kind-specific payload (page id, lock id, epoch, destination, …).
    pub a: u64,
    /// Second payload (bytes, chunk length, …).
    pub b: u64,
    /// Optional static label (message kind names).
    pub tag: &'static str,
}

/// Tracing configuration: carried by `TmkConfig` / `ClusterBuilder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity per node, in events. When a ring fills the
    /// oldest events are overwritten and the drop count is reported in
    /// the drained [`Trace`] / [`Profile`].
    pub capacity_per_node: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity_per_node: 65_536,
        }
    }
}

impl TraceConfig {
    /// Read `NOW_TRACE_EVENTS` (ring capacity per node; any value ≥ 1
    /// arms tracing) from the environment — the hook CI's hang-hunt lane
    /// uses to arm tracing without touching code.
    pub fn from_env() -> Option<TraceConfig> {
        let cap: usize = std::env::var("NOW_TRACE_EVENTS").ok()?.parse().ok()?;
        (cap >= 1).then_some(TraceConfig {
            capacity_per_node: cap,
        })
    }
}

/// Bounded per-node event ring: overwrites the oldest event when full.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the next write (== oldest event once wrapped).
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest → newest.
    fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// The shared recording target: one bounded ring per simulated node.
#[derive(Debug)]
pub struct TraceSink {
    rings: Vec<Mutex<Ring>>,
    epoch: Instant,
}

impl TraceSink {
    /// A sink for `nodes` nodes with `cfg.capacity_per_node` events each.
    pub fn new(nodes: usize, cfg: TraceConfig) -> Arc<Self> {
        Arc::new(TraceSink {
            rings: (0..nodes)
                .map(|_| Mutex::new(Ring::new(cfg.capacity_per_node)))
                .collect(),
            epoch: Instant::now(),
        })
    }

    /// Number of per-node rings.
    pub fn nodes(&self) -> usize {
        self.rings.len()
    }

    /// Record `ev` on `node`'s ring, stamping `host_ns`.
    pub fn record(&self, node: usize, mut ev: TraceEvent) {
        ev.host_ns = self.epoch.elapsed().as_nanos() as u64;
        self.rings[node].lock().unwrap().push(ev);
    }

    /// The last `n` events recorded on `node` (oldest → newest). Used by
    /// the watchdog's diagnostic dump; does not consume the ring.
    pub fn recent(&self, node: usize, n: usize) -> Vec<TraceEvent> {
        let ring = self.rings[node].lock().unwrap();
        let all = ring.ordered();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    /// Drain every ring (events oldest → newest per node, plus per-node
    /// drop counts) and reset them for the next job.
    pub fn drain(&self) -> (Vec<Vec<TraceEvent>>, Vec<u64>) {
        let mut events = Vec::with_capacity(self.rings.len());
        let mut dropped = Vec::with_capacity(self.rings.len());
        for ring in &self.rings {
            let mut r = ring.lock().unwrap();
            events.push(r.ordered());
            dropped.push(r.dropped);
            r.clear();
        }
        (events, dropped)
    }
}

/// The per-node recording handle runtime threads hold. Off (`None`
/// sink) by default: every hook is then one branch and nothing else.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<TraceSink>>,
    node: u32,
}

impl Tracer {
    /// A disabled tracer (the default).
    pub fn off() -> Self {
        Tracer::default()
    }

    /// `node`'s handle on `sink`.
    pub fn new(sink: Arc<TraceSink>, node: usize) -> Self {
        Tracer {
            sink: Some(sink),
            node: node as u32,
        }
    }

    /// Whether events are being recorded. Hooks check this first so the
    /// tracing-off path never constructs an event or reads a clock.
    #[inline]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// The underlying sink, when tracing is on.
    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// Record a span `[t0, t1]` of `kind` on `lane`.
    #[inline]
    pub fn span(&self, kind: EventKind, lane: u32, t0: u64, t1: u64, a: u64, b: u64) {
        self.tagged(kind, lane, t0, t1, a, b, "");
    }

    /// Record an instant of `kind` at `t` on `lane`.
    #[inline]
    pub fn instant(&self, kind: EventKind, lane: u32, t: u64, a: u64, b: u64) {
        self.tagged(kind, lane, t, t, a, b, "");
    }

    /// Record a labeled event (message kinds carry their wire name).
    /// One flat call per site keeps the off-path to a single branch,
    /// which is worth the argument count.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn tagged(
        &self,
        kind: EventKind,
        lane: u32,
        t0: u64,
        t1: u64,
        a: u64,
        b: u64,
        tag: &'static str,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(
                self.node as usize,
                TraceEvent {
                    kind,
                    lane,
                    t0,
                    t1: t1.max(t0),
                    host_ns: 0,
                    a,
                    b,
                    tag,
                },
            );
        }
    }
}

/// A drained per-job event log: what one job did, per node, on the
/// virtual-time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Simulated workstations.
    pub nodes: usize,
    /// Application thread lanes per workstation.
    pub threads_per_node: usize,
    /// The job's total virtual time in ns.
    pub total_ns: u64,
    /// Per-node events, oldest → newest as recorded.
    pub events: Vec<Vec<TraceEvent>>,
    /// Per-node count of events lost to ring overflow.
    pub dropped: Vec<u64>,
}

impl Trace {
    /// Total recorded events across all nodes.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Export as Chrome trace-event JSON (the `{"traceEvents":[...]}`
    /// object form): one process per node, one thread track per lane
    /// (plus a `service` track), timestamps in **virtual microseconds**.
    /// Events are sorted per track so timestamps are monotone — the
    /// service timeline's bounded-backlog model can otherwise record
    /// out of host order. Open the file in Perfetto (ui.perfetto.dev)
    /// or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.event_count() + 1024);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: &str| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(line);
        };
        for node in 0..self.nodes {
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
                     \"args\":{{\"name\":\"node {node}\"}}}}"
                ),
            );
            // Track metadata for every lane that recorded anything.
            let mut lanes: Vec<u32> = self.events[node].iter().map(|e| e.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();
            for lane in &lanes {
                let label = if *lane == SERVICE_LANE {
                    "service".to_string()
                } else {
                    format!("lane {lane}")
                };
                push(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\
                         \"tid\":{lane},\"args\":{{\"name\":\"{label}\"}}}}"
                    ),
                );
            }
            // Emit per track, sorted by start time: Chrome/Perfetto
            // require monotone timestamps within a track.
            for lane in lanes {
                let mut evs: Vec<&TraceEvent> = self.events[node]
                    .iter()
                    .filter(|e| e.lane == lane)
                    .collect();
                evs.sort_by_key(|e| (e.t0, e.t1));
                for e in evs {
                    let ts = e.t0 as f64 / 1000.0;
                    let name = if e.tag.is_empty() {
                        e.kind.name().to_string()
                    } else {
                        format!("{} {}", e.kind.name(), e.tag)
                    };
                    let args = format!("{{\"a\":{},\"b\":{},\"host_ns\":{}}}", e.a, e.b, e.host_ns);
                    let line = if e.t1 > e.t0 {
                        let dur = (e.t1 - e.t0) as f64 / 1000.0;
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{node},\"tid\":{lane},\
                             \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}",
                            escape(&name)
                        )
                    } else {
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{node},\"tid\":{lane},\
                             \"ts\":{ts:.3},\"s\":\"t\",\"args\":{args}}}",
                            escape(&name)
                        )
                    };
                    push(&mut out, &mut first, &line);
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-node virtual-time breakdown. The four components sum exactly to
/// the profile's `total_ns` by construction (see [`Profile::from_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfile {
    /// Which workstation.
    pub node: usize,
    /// Time not attributed to any recorded span: application compute.
    pub compute_ns: u64,
    /// Time inside DSM/local barriers.
    pub barrier_ns: u64,
    /// Time inside the DSM protocol (faults, locks, diffs, resets, …).
    pub protocol_ns: u64,
    /// Time parked with no work.
    pub idle_ns: u64,
    /// Events recorded on this node (all lanes).
    pub events: u64,
    /// Events lost to ring overflow on this node.
    pub dropped: u64,
}

/// Chunk-claim histogram for one loop scheduling site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkClaimStat {
    /// The loop site id (scheduler lock / affinity site).
    pub site: u64,
    /// Chunks claimed.
    pub claims: u64,
    /// Total iterations claimed.
    pub iters: u64,
    /// Smallest chunk.
    pub min_len: u64,
    /// Largest chunk.
    pub max_len: u64,
}

/// Send/recv timeline for one wire message kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgKindStat {
    /// Wire kind name (e.g. `DiffReq`).
    pub kind: String,
    /// Messages sent to another node.
    pub sends: u64,
    /// Messages a node sent itself: free on the network, so left out of
    /// `sends`, `recvs` and `bytes`, which then match the job's traffic.
    pub local: u64,
    /// Messages received from another node (charged on arrival).
    pub recvs: u64,
    /// Payload bytes sent to another node.
    pub bytes: u64,
    /// Virtual time of the first send/recv.
    pub first_ns: u64,
    /// Virtual time of the last send/recv.
    pub last_ns: u64,
}

/// The structured per-job summary computed from a [`Trace`] and carried
/// on run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The job's total virtual time in ns.
    pub total_ns: u64,
    /// Per-node breakdowns; components sum to `total_ns` on every node.
    pub nodes: Vec<NodeProfile>,
    /// Pages by fault count, hottest first (top 10).
    pub hot_pages: Vec<(u64, u64)>,
    /// Per-loop-site chunk-claim histograms.
    pub chunk_claims: Vec<ChunkClaimStat>,
    /// Per-kind message timelines, busiest first.
    pub messages: Vec<MsgKindStat>,
}

impl Profile {
    /// Summarize `trace`.
    ///
    /// The per-node time breakdown is a sweep over the node's **lane-0**
    /// event stream (the node's primary application thread, which defines
    /// the node's timeline): categorized spans are laid on the axis in
    /// start order with overlaps clipped against a moving cursor, every
    /// gap between spans is compute, and the residual is derived as
    /// `total − barrier − protocol − idle` — so the four components sum
    /// to `total_ns` exactly, by construction.
    pub fn from_trace(trace: &Trace) -> Profile {
        let total = trace.total_ns;
        let mut nodes = Vec::with_capacity(trace.nodes);
        let mut faults: Vec<(u64, u64)> = Vec::new();
        let mut claims: Vec<ChunkClaimStat> = Vec::new();
        let mut msgs: Vec<MsgKindStat> = Vec::new();
        for (node, evs) in trace.events.iter().enumerate() {
            let mut spans: Vec<&TraceEvent> = evs
                .iter()
                .filter(|e| e.lane == 0 && e.kind.category() != Category::Marker && e.t1 > e.t0)
                .collect();
            spans.sort_by_key(|e| (e.t0, e.t1));
            let (mut barrier, mut protocol, mut idle) = (0u64, 0u64, 0u64);
            let mut cursor = 0u64;
            for e in spans {
                let lo = e.t0.max(cursor).min(total);
                let hi = e.t1.min(total);
                if hi > lo {
                    match e.kind.category() {
                        Category::Barrier => barrier += hi - lo,
                        Category::Protocol => protocol += hi - lo,
                        Category::Idle => idle += hi - lo,
                        Category::Marker => unreachable!(),
                    }
                    cursor = hi;
                }
                cursor = cursor.max(e.t1.min(total));
            }
            let compute = total - barrier - protocol - idle;
            nodes.push(NodeProfile {
                node,
                compute_ns: compute,
                barrier_ns: barrier,
                protocol_ns: protocol,
                idle_ns: idle,
                events: evs.len() as u64,
                dropped: trace.dropped.get(node).copied().unwrap_or(0),
            });
            // Cross-node tables (all lanes).
            for e in evs {
                match e.kind {
                    EventKind::PageFault if e.b > 0 => {
                        // Per-page fault instants carry the page in `a`
                        // with `b` as the marker discriminant.
                        bump_pair(&mut faults, e.a);
                    }
                    EventKind::ChunkClaim => match claims.iter_mut().find(|c| c.site == e.a) {
                        Some(c) => {
                            c.claims += 1;
                            c.iters += e.b;
                            c.min_len = c.min_len.min(e.b);
                            c.max_len = c.max_len.max(e.b);
                        }
                        None => claims.push(ChunkClaimStat {
                            site: e.a,
                            claims: 1,
                            iters: e.b,
                            min_len: e.b,
                            max_len: e.b,
                        }),
                    },
                    EventKind::MsgSend | EventKind::MsgRecv => {
                        // A self-send is one local count; its receipt is
                        // not counted again.
                        let is_send = e.kind == EventKind::MsgSend;
                        let local = e.a == node as u64;
                        if local && !is_send {
                            continue;
                        }
                        let m = match msgs.iter().position(|m| m.kind == e.tag) {
                            Some(i) => &mut msgs[i],
                            None => {
                                msgs.push(MsgKindStat {
                                    kind: e.tag.to_string(),
                                    sends: 0,
                                    local: 0,
                                    recvs: 0,
                                    bytes: 0,
                                    first_ns: e.t0,
                                    last_ns: e.t0,
                                });
                                msgs.last_mut().expect("just pushed")
                            }
                        };
                        match (is_send, local) {
                            (true, true) => m.local += 1,
                            (true, false) => {
                                m.sends += 1;
                                m.bytes += e.b;
                            }
                            (false, _) => m.recvs += 1,
                        }
                        m.first_ns = m.first_ns.min(e.t0);
                        m.last_ns = m.last_ns.max(e.t0);
                    }
                    _ => {}
                }
            }
        }
        faults.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        faults.truncate(10);
        claims.sort_by_key(|c| c.site);
        msgs.sort_by_key(|m| std::cmp::Reverse(m.sends + m.local + m.recvs));
        Profile {
            total_ns: total,
            nodes,
            hot_pages: faults,
            chunk_claims: claims,
            messages: msgs,
        }
    }

    /// Render the human-readable breakdown table the runner's
    /// `--profile` flag prints.
    pub fn render(&self) -> String {
        let total = self.total_ns.max(1) as f64;
        let pct = |ns: u64| 100.0 * ns as f64 / total;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {:.3} virtual s total",
            self.total_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "  {:<5} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
            "node", "compute", "barrier", "protocol", "idle", "events", "dropped"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  {:<5} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8} {:>8}",
                n.node,
                pct(n.compute_ns),
                pct(n.barrier_ns),
                pct(n.protocol_ns),
                pct(n.idle_ns),
                n.events,
                n.dropped
            );
        }
        if !self.hot_pages.is_empty() {
            let _ = write!(out, "  hot pages:");
            for (page, count) in &self.hot_pages {
                let _ = write!(out, " {page}({count})");
            }
            let _ = writeln!(out);
        }
        for c in &self.chunk_claims {
            let _ = writeln!(
                out,
                "  loop site {:#x}: {} chunks, {} iters, len {}..{}",
                c.site, c.claims, c.iters, c.min_len, c.max_len
            );
        }
        for m in &self.messages {
            let local = match m.local {
                0 => String::new(),
                n => format!(" (+{n} local)"),
            };
            let _ = writeln!(
                out,
                "  msg {:<14} {:>6} sent{local} / {:>6} recv, {:>10} B, {:.3}..{:.3} s",
                m.kind,
                m.sends,
                m.recvs,
                m.bytes,
                m.first_ns as f64 / 1e9,
                m.last_ns as f64 / 1e9
            );
        }
        out
    }
}

fn bump_pair(v: &mut Vec<(u64, u64)>, key: u64) {
    match v.iter_mut().find(|(k, _)| *k == key) {
        Some((_, n)) => *n += 1,
        None => v.push((key, 1)),
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event JSON validation.
// ---------------------------------------------------------------------

/// Validate a Chrome trace-event JSON document: well-formed JSON, the
/// `{"traceEvents":[...]}` object form, every event carrying the fields
/// its phase requires, and per-track (`pid`/`tid`) timestamps monotone
/// non-decreasing in file order. This is what CI runs against the JSON
/// a traced `quickstart` emits.
pub fn validate_chrome_json(s: &str) -> Result<(), String> {
    let doc = parse(s)?;
    let events = doc.get("traceEvents").ok_or("missing `traceEvents` key")?;
    let Json::Arr(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    // (pid, tid) -> last seen ts.
    let mut frontier: Vec<((i64, i64), f64)> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{idx}]: {msg}");
        let Json::Obj(_) = ev else {
            return Err(at("not an object"));
        };
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string `ph`"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing numeric `pid`"))? as i64;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        match ph {
            "M" => continue, // metadata carries no timestamp
            "X" | "i" | "B" | "E" | "C" => {}
            other => return Err(at(&format!("unsupported phase `{other}`"))),
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing numeric `ts`"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(at("non-finite or negative `ts`"));
        }
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("`X` event missing numeric `dur`"))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(at("non-finite or negative `dur`"));
            }
        }
        match frontier.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(at(&format!(
                        "track ({pid},{tid}) timestamps regress: {ts} after {last}"
                    )));
                }
                *last = ts;
            }
            None => frontier.push(((pid, tid), ts)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, lane: u32, t0: u64, t1: u64, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            kind,
            lane,
            t0,
            t1,
            host_ns: 0,
            a,
            b,
            tag: "",
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let sink = TraceSink::new(
            1,
            TraceConfig {
                capacity_per_node: 3,
            },
        );
        for t in 0..5u64 {
            sink.record(0, ev(EventKind::Fork, 0, t, t, 0, 0));
        }
        let (events, dropped) = sink.drain();
        assert_eq!(dropped, vec![2]);
        let starts: Vec<u64> = events[0].iter().map(|e| e.t0).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest events overwritten");
        // Drained rings start fresh.
        let (events, dropped) = sink.drain();
        assert!(events[0].is_empty());
        assert_eq!(dropped, vec![0]);
    }

    #[test]
    fn recent_returns_last_n_in_order() {
        let sink = TraceSink::new(2, TraceConfig::default());
        for t in 0..10u64 {
            sink.record(1, ev(EventKind::MsgSend, 0, t, t, 0, 0));
        }
        let last = sink.recent(1, 3);
        assert_eq!(last.iter().map(|e| e.t0).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert!(sink.recent(0, 3).is_empty());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::off();
        assert!(!t.on());
        t.span(EventKind::BarrierWait, 0, 0, 100, 0, 0); // no sink: no-op
    }

    #[test]
    fn profile_components_sum_to_total() {
        let trace = Trace {
            nodes: 2,
            threads_per_node: 1,
            total_ns: 1000,
            events: vec![
                vec![
                    ev(EventKind::BarrierWait, 0, 100, 300, 0, 0),
                    // Overlapping protocol span: only the uncovered part
                    // counts, so the breakdown still sums exactly.
                    ev(EventKind::LockWait, 0, 200, 500, 1, 0),
                    ev(EventKind::PageFault, 0, 600, 700, 17, 0),
                    ev(EventKind::ChunkClaim, 0, 650, 650, 9, 25),
                ],
                vec![
                    ev(EventKind::Idle, 0, 0, 400, 0, 0),
                    // Span overrunning the total is clipped.
                    ev(EventKind::BarrierWait, 0, 900, 1100, 0, 0),
                ],
            ],
            dropped: vec![0, 0],
        };
        let p = Profile::from_trace(&trace);
        for n in &p.nodes {
            assert_eq!(
                n.compute_ns + n.barrier_ns + n.protocol_ns + n.idle_ns,
                trace.total_ns,
                "node {} breakdown must sum to total",
                n.node
            );
        }
        assert_eq!(p.nodes[0].barrier_ns, 200);
        assert_eq!(p.nodes[0].protocol_ns, 300, "overlap clipped");
        assert_eq!(p.nodes[1].idle_ns, 400);
        assert_eq!(p.nodes[1].barrier_ns, 100, "overrun clipped to total");
        assert_eq!(p.chunk_claims.len(), 1);
        assert_eq!(p.chunk_claims[0].iters, 25);
        let rendered = p.render();
        assert!(rendered.contains("node"));
        assert!(rendered.contains("loop site 0x9"));
    }

    #[test]
    fn a_self_send_is_counted_local_and_not_sent() {
        let msg = |kind, node: usize, peer: u64, bytes| TraceEvent {
            tag: "lock_grant",
            ..ev(
                kind,
                SERVICE_LANE,
                10 * node as u64,
                10 * node as u64,
                peer,
                bytes,
            )
        };
        // Node 0 grants itself once and node 1 once, which receives it.
        let trace = Trace {
            nodes: 2,
            threads_per_node: 1,
            total_ns: 100,
            events: vec![
                vec![
                    msg(EventKind::MsgSend, 0, 0, 40),
                    msg(EventKind::MsgRecv, 0, 0, 40),
                    msg(EventKind::MsgSend, 0, 1, 60),
                ],
                vec![msg(EventKind::MsgRecv, 1, 0, 60)],
            ],
            dropped: vec![0, 0],
        };
        let p = Profile::from_trace(&trace);
        let m = &p.messages[0];
        assert_eq!((m.sends, m.local, m.recvs, m.bytes), (1, 1, 1, 60));
        assert!(p.render().contains("1 sent (+1 local) /      1 recv"));
    }

    #[test]
    fn chrome_json_is_valid_and_tracks_are_monotone() {
        let mut events = vec![vec![
            ev(EventKind::PageFault, 0, 500, 700, 3, 0),
            ev(EventKind::BarrierWait, 0, 100, 300, 0, 0),
            ev(EventKind::MsgSend, SERVICE_LANE, 250, 250, 1, 64),
        ]];
        events[0][2].tag = "DiffReq";
        let trace = Trace {
            nodes: 1,
            threads_per_node: 1,
            total_ns: 1000,
            events,
            dropped: vec![0],
        };
        let json = trace.to_chrome_json();
        validate_chrome_json(&json).expect("emitted JSON must validate");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"service\""));
        assert!(json.contains("msg send DiffReq"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("[]").is_err(), "no traceEvents key");
        assert!(validate_chrome_json("{\"traceEvents\":3}").is_err());
        assert!(
            validate_chrome_json("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "missing required fields"
        );
        // Regressing timestamps within one track.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":5.0,\"s\":\"t\"},\
            {\"name\":\"b\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":4.0,\"s\":\"t\"}]}";
        assert!(validate_chrome_json(bad).unwrap_err().contains("regress"));
        // Distinct tracks may interleave freely.
        let ok = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":5.0,\"s\":\"t\"},\
            {\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":4.0,\"s\":\"t\"}]}";
        validate_chrome_json(ok).expect("independent tracks");
    }

    #[test]
    fn trace_config_env_parsing() {
        // Not set in the test environment by default.
        if std::env::var("NOW_TRACE_EVENTS").is_err() {
            assert_eq!(TraceConfig::from_env(), None);
        }
        assert_eq!(TraceConfig::default().capacity_per_node, 65_536);
    }
}
