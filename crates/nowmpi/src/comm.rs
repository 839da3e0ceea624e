//! Point-to-point communication: typed send/recv with tag matching.

use now_net::{ComputeMeter, Delivered, Endpoint, Pod, VirtualClock, Wire};
use std::collections::VecDeque;
use std::sync::Arc;

/// Wildcard for [`MpiRank::recv_from`]'s source (MPI_ANY_SOURCE).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (MPI_ANY_TAG).
pub const ANY_TAG: i32 = -1;

/// One MPI message on the wire.
pub(crate) struct MpiMsg {
    pub tag: i32,
    pub bytes: Vec<u8>,
    pub envelope: usize,
}

impl Wire for MpiMsg {
    fn wire_bytes(&self) -> usize {
        self.envelope + self.bytes.len()
    }
    fn kind(&self) -> &'static str {
        Self::kinds()[self.kind_id()]
    }
    fn kinds() -> &'static [&'static str] {
        &["mpi_pt2pt", "mpi_collective"]
    }
    fn kind_id(&self) -> usize {
        usize::from(self.tag <= COLLECTIVE_TAG_BASE)
    }
}

/// Reserved tag range for collectives (below any user tag).
pub(crate) const COLLECTIVE_TAG_BASE: i32 = -1000;

/// Delivery metadata returned by receives (an `MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Sending rank.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload bytes received.
    pub bytes: usize,
}

/// One MPI process (rank). Owns the node's network endpoint; all
/// operations are blocking, eager-buffered sends and tag-matched receives.
pub struct MpiRank {
    pub(crate) ep: Endpoint<MpiMsg>,
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) meter: ComputeMeter,
    pub(crate) envelope: usize,
    /// Arrived-but-unmatched messages (MPI's unexpected-message queue).
    pending: VecDeque<Delivered<MpiMsg>>,
}

impl MpiRank {
    pub(crate) fn new(ep: Endpoint<MpiMsg>, envelope: usize) -> Self {
        let scale = ep.cfg().compute_scale;
        MpiRank {
            clock: ep.clock().clone(),
            meter: ComputeMeter::new(scale),
            ep,
            envelope,
            pending: VecDeque::new(),
        }
    }

    /// This process's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ep.id()
    }

    /// Communicator size (number of workstations).
    #[inline]
    pub fn size(&self) -> usize {
        self.ep.nodes()
    }

    /// This rank's virtual clock in nanoseconds.
    pub fn now_ns(&mut self) -> u64 {
        self.meter.charge(&self.clock);
        let t = self.clock.now();
        self.meter.restart();
        t
    }

    pub(crate) fn metered<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.meter.charge(&self.clock);
        let r = f(self);
        self.meter.restart();
        r
    }

    /// Blocking typed send (`MPI_Send`, eager protocol).
    pub fn send<T: Pod>(&mut self, dst: usize, tag: i32, data: &[T]) {
        assert!(tag >= 0, "negative tags are reserved");
        self.metered(|s| s.send_raw(dst, tag, bytes_of(data)));
    }

    pub(crate) fn send_raw(&mut self, dst: usize, tag: i32, bytes: Vec<u8>) {
        self.ep.send(
            dst,
            MpiMsg {
                tag,
                bytes,
                envelope: self.envelope,
            },
        );
    }

    /// Blocking typed receive from a specific source and tag
    /// (`MPI_Recv`). Panics if the payload size is not a multiple of
    /// `size_of::<T>()`.
    pub fn recv<T: Pod>(&mut self, src: usize, tag: i32) -> Vec<T> {
        self.recv_from(src as i32, tag).0
    }

    /// Blocking typed receive with wildcards ([`ANY_SOURCE`]/[`ANY_TAG`]).
    pub fn recv_from<T: Pod>(&mut self, src: i32, tag: i32) -> (Vec<T>, Status) {
        self.metered(|s| {
            let d = s.recv_match(src, tag);
            let status = Status {
                source: d.src,
                tag: d.msg.tag,
                bytes: d.msg.bytes.len(),
            };
            (vec_from(&d.msg.bytes), status)
        })
    }

    /// Combined send+receive (deadlock-free pairwise exchange).
    pub fn sendrecv<T: Pod>(
        &mut self,
        dst: usize,
        send_tag: i32,
        data: &[T],
        src: usize,
        recv_tag: i32,
    ) -> Vec<T> {
        assert!(send_tag >= 0 && recv_tag >= 0, "negative tags are reserved");
        self.metered(|s| {
            s.send_raw(dst, send_tag, bytes_of(data));
            let d = s.recv_match(src as i32, recv_tag);
            vec_from(&d.msg.bytes)
        })
    }

    /// Match a message against (src, tag), consulting the unexpected
    /// queue first. Arrival time is charged when the message is consumed.
    pub(crate) fn recv_match(&mut self, src: i32, tag: i32) -> Delivered<MpiMsg> {
        let matches = |d: &Delivered<MpiMsg>| {
            (src == ANY_SOURCE || d.src == src as usize) && (tag == ANY_TAG || d.msg.tag == tag)
        };
        if let Some(pos) = self.pending.iter().position(matches) {
            let d = self.pending.remove(pos).expect("position valid");
            self.ep.charge_rx(&d);
            return d;
        }
        loop {
            let d = self.ep.recv();
            if matches(&d) {
                self.ep.charge_rx(&d);
                return d;
            }
            self.pending.push_back(d);
        }
    }

    pub(crate) fn recv_match_raw(&mut self, src: i32, tag: i32) -> Vec<u8> {
        self.recv_match(src, tag).msg.bytes
    }

    /// Non-blocking probe (`MPI_Iprobe` with wildcards): reports whether a
    /// message is available without consuming it.
    pub fn iprobe(&mut self) -> Option<Status> {
        self.metered(|s| {
            while let Some(d) = s.ep.try_recv() {
                s.pending.push_back(d);
            }
            s.pending.front().map(|d| Status {
                source: d.src,
                tag: d.msg.tag,
                bytes: d.msg.bytes.len(),
            })
        })
    }
}

pub(crate) fn bytes_of<T: Pod>(data: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; std::mem::size_of_val(data)];
    // SAFETY: T is Pod; sizes match; no overlap.
    unsafe {
        std::ptr::copy_nonoverlapping(data.as_ptr() as *const u8, out.as_mut_ptr(), out.len());
    }
    out
}

pub(crate) fn vec_from<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    assert!(
        size == 0 || bytes.len().is_multiple_of(size),
        "payload of {} bytes is not a whole number of {}-byte elements",
        bytes.len(),
        size
    );
    let n = bytes.len().checked_div(size).unwrap_or(0);
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: T is Pod; capacity reserved; lengths checked above.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_conversion_roundtrip() {
        let xs = [1.5f64, -2.0, 3.25];
        let bytes = bytes_of(&xs);
        assert_eq!(bytes.len(), 24);
        let back: Vec<f64> = vec_from(&bytes);
        assert_eq!(back, xs);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn misaligned_payload_panics() {
        let _: Vec<u64> = vec_from(&[0u8; 7]);
    }

    #[test]
    fn mpi_msg_wire_size_includes_envelope() {
        let m = MpiMsg {
            tag: 0,
            bytes: vec![0; 100],
            envelope: 16,
        };
        assert_eq!(m.wire_bytes(), 116);
        assert_eq!(m.kind(), "mpi_pt2pt");
        let c = MpiMsg {
            tag: COLLECTIVE_TAG_BASE - 1,
            bytes: vec![],
            envelope: 16,
        };
        assert_eq!(c.kind(), "mpi_collective");
    }
}
