//! Message framing for the simulated interconnect.
//!
//! Protocol layers (DSM, MPI) define their own message enums and implement
//! [`Wire`] to report how many bytes the message would occupy on a real
//! wire. The network never serializes anything — messages travel through
//! in-process channels — but the reported size drives the bandwidth model
//! and the traffic statistics that reproduce Table 2 of the paper.

/// A message that knows its on-the-wire payload size.
pub trait Wire: Send + 'static {
    /// Payload bytes this message would occupy on the wire (excluding
    /// link/transport headers, which the cost model adds per message).
    fn wire_bytes(&self) -> usize;

    /// Short label for per-kind statistics (e.g. `"diff_req"`).
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// The full table of [`Wire::kind`] strings this type can produce,
    /// used to size the lock-free per-kind traffic slots. The default
    /// (empty) table routes every message to the catch-all slot; a
    /// protocol that wants per-kind traffic lists its kinds here and
    /// implements [`Wire::kind_id`] as the matching index.
    fn kinds() -> &'static [&'static str]
    where
        Self: Sized,
    {
        &[]
    }

    /// Index of this message's kind in [`Wire::kinds`]. Values outside
    /// the table (the default) land in the catch-all slot.
    fn kind_id(&self) -> usize {
        usize::MAX
    }
}

/// A message in flight: payload plus simulation metadata.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Sender's virtual clock immediately after paying the send overhead.
    pub send_vt: u64,
    /// Cached `msg.wire_bytes()` at send time.
    pub wire_bytes: usize,
    /// The payload.
    pub msg: M,
}

/// A received message with its computed arrival time, handed to whichever
/// thread consumes it (protocol service loop or a blocked requester).
#[derive(Debug)]
pub struct Delivered<M> {
    /// Sending node.
    pub src: usize,
    /// Virtual time at which the message fully arrived at the destination.
    pub arrival_vt: u64,
    /// Payload bytes (for statistics at the consumer).
    pub wire_bytes: usize,
    /// The payload.
    pub msg: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ping(usize);
    impl Wire for Ping {
        fn wire_bytes(&self) -> usize {
            self.0
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    #[test]
    fn wire_defaults() {
        let p = Ping(7);
        assert_eq!(p.wire_bytes(), 7);
        assert_eq!(p.kind(), "ping");
    }
}
