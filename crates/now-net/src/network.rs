//! The full-mesh interconnect: endpoints, send/receive, virtual-time
//! stamping and traffic accounting.
//!
//! Topology: every node owns one MPMC inbox; every endpoint holds senders
//! to all inboxes. A "message" is an in-process enum value — nothing is
//! serialized — but each send pays the configured overheads on the virtual
//! clocks and is counted on the network's traffic counters, so timing and
//! Table 2-style traffic numbers come out as if the payload had crossed a
//! real wire.

use crate::config::NetworkConfig;
use crate::message::{Delivered, Envelope, Wire};
use crate::time::{NodeSpeed, VirtualClock};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use now_metrics::NetMetrics;
use now_trace::{EventKind, TraceSink, Tracer, SERVICE_LANE};
use std::sync::Arc;

/// Construction handle for one simulated network.
pub struct Network;

impl Network {
    /// Build a network of `cfg.nodes` workstations, returning one
    /// [`Endpoint`] per node.
    pub fn build<M: Wire>(cfg: NetworkConfig) -> Vec<Endpoint<M>> {
        Self::build_with_trace(cfg, None)
    }

    /// Build a network whose endpoints record message send/receive
    /// events on `sink` (per-node rings; `None` = tracing off, which is
    /// the plain [`Network::build`]). Recording only *reads* the virtual
    /// clocks — timing, traffic counts, and delivery are bit-identical
    /// either way.
    pub fn build_with_trace<M: Wire>(
        cfg: NetworkConfig,
        sink: Option<Arc<TraceSink>>,
    ) -> Vec<Endpoint<M>> {
        let n = cfg.nodes;
        assert!(n >= 1, "network needs at least one node");
        let cfg = Arc::new(cfg);
        let traffic = Arc::new(NetMetrics::new(n, M::kinds()));
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope<M>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders: Arc<[Sender<Envelope<M>>]> = senders.into();
        receivers
            .into_iter()
            .enumerate()
            .map(|(id, receiver)| Endpoint {
                id,
                cfg: cfg.clone(),
                // Each node's clock carries its view of the heterogeneity
                // model: every CPU charge on this node dilates by its
                // current effective speed.
                clock: VirtualClock::with_speed(NodeSpeed::of(id, &cfg.load)),
                senders: senders.clone(),
                receiver,
                tracer: match &sink {
                    Some(s) => Tracer::new(s.clone(), id),
                    None => Tracer::off(),
                },
                traffic: traffic.clone(),
            })
            .collect()
    }
}

/// One node's attachment to the network.
///
/// Cloning an endpoint shares the inbox (the clone receives from the same
/// queue); by convention only the node's protocol service thread calls
/// [`Endpoint::recv`], while any of the node's threads may send.
pub struct Endpoint<M> {
    id: usize,
    cfg: Arc<NetworkConfig>,
    clock: Arc<VirtualClock>,
    senders: Arc<[Sender<Envelope<M>>]>,
    receiver: Receiver<Envelope<M>>,
    tracer: Tracer,
    traffic: Arc<NetMetrics>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            id: self.id,
            cfg: self.cfg.clone(),
            clock: self.clock.clone(),
            senders: self.senders.clone(),
            receiver: self.receiver.clone(),
            tracer: self.tracer.clone(),
            traffic: self.traffic.clone(),
        }
    }
}

impl<M: Wire> Endpoint<M> {
    /// This node's id (0-based).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of nodes on this network.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.senders.len()
    }

    /// The cost model.
    #[inline]
    pub fn cfg(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// This node's virtual clock.
    #[inline]
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// This node's event recorder (off unless the network was built with
    /// [`Network::build_with_trace`]). Higher layers clone it to record
    /// their own protocol events on the same per-node rings.
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The whole network's traffic counters, shared by every endpoint
    /// and never reset: the traffic of a window is the difference of two
    /// snapshots.
    #[inline]
    pub fn traffic(&self) -> &Arc<NetMetrics> {
        &self.traffic
    }

    /// Send `msg` to node `dst`.
    ///
    /// Charges the sender's virtual CPU (`send_overhead_ns`, or
    /// `local_delivery_ns` for self-sends), stamps the envelope with the
    /// post-charge clock, and counts a remote message as sent here and
    /// received at `dst` as it enters `dst`'s inbox.
    pub fn send(&self, dst: usize, msg: M) {
        let bytes = msg.wire_bytes();
        let send_vt = if dst == self.id {
            self.clock.advance(self.cfg.local_delivery_ns)
        } else {
            self.traffic
                .record(self.id, dst, msg.kind_id(), bytes as u64);
            self.clock.advance(self.cfg.send_overhead_ns)
        };
        if self.tracer.on() {
            self.tracer.tagged(
                EventKind::MsgSend,
                0,
                send_vt,
                send_vt,
                dst as u64,
                bytes as u64,
                msg.kind(),
            );
        }
        let env = Envelope {
            src: self.id,
            dst,
            send_vt,
            wire_bytes: bytes,
            msg,
        };
        // Receivers are never dropped while any endpoint is alive, so a
        // send can only fail during teardown; losing messages then is fine.
        let _ = self.senders[dst].send(env);
    }

    /// Blocking receive. Computes the arrival time from the cost model but
    /// does **not** touch this node's clock — call [`Endpoint::charge_rx`]
    /// (or raise the clock yourself) from whichever thread consumes the
    /// message.
    pub fn recv(&self) -> Delivered<M> {
        let env = self.receiver.recv().expect("network endpoint disconnected");
        self.deliver(env)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Delivered<M>> {
        match self.receiver.try_recv() {
            Ok(env) => Some(self.deliver(env)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("network endpoint disconnected"),
        }
    }

    /// This node's raw inbox channel, for the watchdog dump only (`len`,
    /// `parked`): receive through [`Endpoint::recv`] / `try_recv`, which
    /// charge the arrival to the node clock.
    pub fn inbox(&self) -> &Receiver<Envelope<M>> {
        &self.receiver
    }

    fn deliver(&self, env: Envelope<M>) -> Delivered<M> {
        let arrival_vt = if env.src == self.id {
            env.send_vt
        } else {
            env.send_vt + self.cfg.fly_time_ns(env.wire_bytes)
        };
        Delivered {
            src: env.src,
            arrival_vt,
            wire_bytes: env.wire_bytes,
            msg: env.msg,
        }
    }

    /// Application-context receive: raise the node's clock to the
    /// message's arrival time and charge the receive-handler CPU cost.
    /// Returns the clock after charging.
    pub fn charge_rx(&self, d: &Delivered<M>) -> u64 {
        self.clock.raise_to(d.arrival_vt);
        let cost = if d.src == self.id {
            self.cfg.local_delivery_ns
        } else {
            self.cfg.handler_ns
        };
        let after = self.clock.advance(cost);
        if self.tracer.on() {
            self.tracer.tagged(
                EventKind::MsgRecv,
                0,
                after,
                after,
                d.src as u64,
                d.wire_bytes as u64,
                d.msg.kind(),
            );
        }
        after
    }

    /// Service-context receive: the handler runs as soon as the CPU is
    /// free after arrival, independent of the (possibly blocked)
    /// application thread. Advances only the CPU timeline.
    pub fn service_rx(&self, d: &Delivered<M>) -> u64 {
        self.clock.service_enter(d.arrival_vt);
        let cost = if d.src == self.id {
            self.cfg.local_delivery_ns
        } else {
            self.cfg.handler_ns
        };
        let after = self.clock.service_advance(cost);
        if self.tracer.on() {
            self.tracer.tagged(
                EventKind::MsgRecv,
                SERVICE_LANE,
                after,
                after,
                d.src as u64,
                d.wire_bytes as u64,
                d.msg.kind(),
            );
        }
        after
    }

    /// Service-context send (protocol replies): pays the send overhead on
    /// the CPU timeline and stamps the envelope from it, so replies do not
    /// wait for the application thread's own blocked operations.
    pub fn send_service(&self, dst: usize, msg: M) {
        let bytes = msg.wire_bytes();
        let send_vt = if dst == self.id {
            self.clock.service_advance(self.cfg.local_delivery_ns)
        } else {
            self.traffic
                .record(self.id, dst, msg.kind_id(), bytes as u64);
            self.clock.service_advance(self.cfg.send_overhead_ns)
        };
        if self.tracer.on() {
            self.tracer.tagged(
                EventKind::MsgSend,
                SERVICE_LANE,
                send_vt,
                send_vt,
                dst as u64,
                bytes as u64,
                msg.kind(),
            );
        }
        let env = Envelope {
            src: self.id,
            dst,
            send_vt,
            wire_bytes: bytes,
            msg,
        };
        let _ = self.senders[dst].send(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);
    impl Wire for Blob {
        fn wire_bytes(&self) -> usize {
            self.0.len()
        }
        fn kind(&self) -> &'static str {
            "blob"
        }
    }

    #[test]
    fn point_to_point_delivery_and_timing() {
        let eps = Network::build::<Blob>(NetworkConfig::paper_udp(2));
        let (a, b) = (&eps[0], &eps[1]);
        a.send(1, Blob(vec![0u8; 100]));
        let d = b.recv();
        assert_eq!(d.src, 0);
        assert_eq!(d.msg.0.len(), 100);
        // Arrival is after the sender's post-overhead timestamp plus flight.
        let expected = a.cfg().send_overhead_ns + a.cfg().fly_time_ns(100);
        assert_eq!(d.arrival_vt, expected);
        let after = b.charge_rx(&d);
        assert_eq!(after, expected + b.cfg().handler_ns);
    }

    #[test]
    fn self_send_is_cheap_and_uncounted() {
        let eps = Network::build::<Blob>(NetworkConfig::paper_udp(2));
        let a = &eps[0];
        a.send(0, Blob(vec![1, 2, 3]));
        let d = a.recv();
        assert_eq!(d.src, 0);
        assert_eq!(d.arrival_vt, a.cfg().local_delivery_ns);
        let s = a.traffic().snapshot();
        assert_eq!(s.total_msgs(), 0, "self-sends must not be counted");
    }

    #[test]
    fn stats_count_remote_traffic() {
        let eps = Network::build::<Blob>(NetworkConfig::fast_test(3));
        eps[0].send(1, Blob(vec![0; 10]));
        eps[0].send(2, Blob(vec![0; 20]));
        eps[2].send(0, Blob(vec![0; 5]));
        let s = eps[1].traffic().snapshot();
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 35);
        assert_eq!(s.send, vec![(2, 30), (0, 0), (1, 5)]);
        // `Blob` declares no kinds table: it lands in the catch-all slot.
        let other = s.kind("_other").expect("catch-all slot");
        assert_eq!((other.send_msgs, other.send_bytes), (3, 35));
    }

    #[test]
    fn clock_never_regresses_on_late_messages() {
        let eps = Network::build::<Blob>(NetworkConfig::fast_test(2));
        let (a, b) = (&eps[0], &eps[1]);
        b.clock().advance(1_000_000); // receiver is already far ahead
        a.send(1, Blob(vec![0; 1]));
        let d = b.recv();
        let after = b.charge_rx(&d);
        assert!(after >= 1_000_000);
    }

    #[test]
    fn try_recv_sees_only_what_was_sent() {
        let eps = Network::build::<Blob>(NetworkConfig::fast_test(2));
        assert!(eps[1].try_recv().is_none());
        eps[0].send(1, Blob(vec![9]));
        assert_eq!((eps[1].inbox().len(), eps[1].inbox().parked()), (1, 0));
        assert!(eps[1].try_recv().is_some());
    }

    #[test]
    fn cloned_endpoint_shares_inbox() {
        let eps = Network::build::<Blob>(NetworkConfig::fast_test(2));
        let b2 = eps[1].clone();
        eps[0].send(1, Blob(vec![1]));
        assert_eq!(b2.recv().src, 0);
        assert!(eps[1].try_recv().is_none(), "message consumed by clone");
    }

    #[test]
    fn request_reply_round_trip_accumulates_rtt() {
        let cfg = NetworkConfig::paper_udp(2);
        let rtt = cfg.model_rtt_ns(1);
        let eps = Network::build::<Blob>(cfg);
        let (a, b) = (&eps[0], &eps[1]);
        // a -> b request
        a.send(1, Blob(vec![0]));
        let d = b.recv();
        b.charge_rx(&d);
        // b -> a reply
        b.send(0, Blob(vec![0]));
        let d2 = a.recv();
        let t = a.charge_rx(&d2);
        assert_eq!(t, rtt, "round trip should equal the model RTT");
    }
}
