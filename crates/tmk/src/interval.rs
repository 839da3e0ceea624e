//! Intervals, vector timestamps and write notices — the bookkeeping of
//! lazy release consistency.
//!
//! A node's execution is divided into *intervals* delimited by releases
//! (lock release, barrier arrival, semaphore signal, flush, fork). Each
//! interval that modified pages produces one *write notice* per page.
//! Vector timestamps order intervals by happens-before; on an acquire the
//! releaser (or a manager) sends the acquirer exactly the write notices
//! for intervals the acquirer has not yet seen.

use crate::addr::PageId;
use std::sync::Arc;

/// A vector timestamp: `vc[i]` = highest interval sequence number of node
/// `i` whose write notices this node has seen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorClock(pub Vec<u32>);

impl VectorClock {
    /// Zero clock for `n` nodes.
    pub fn zero(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Element-wise maximum (lattice join).
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `true` if this clock has seen interval `seq` of `node`.
    #[inline]
    pub fn covers(&self, node: usize, seq: u32) -> bool {
        self.0[node] >= seq
    }

    /// Sum of all components. Strictly monotonic along happens-before
    /// chains, so `(sum, node, seq)` is a valid linear extension for
    /// ordering diff application.
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|&x| x as u64).sum()
    }

    /// `true` if every component of `self` ≥ the corresponding component
    /// of `other`.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Wire size: 4 bytes per entry.
    pub fn wire_bytes(&self) -> usize {
        4 * self.0.len()
    }
}

/// Identifies one interval: `seq`-th interval of `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalId {
    /// Creating node.
    pub node: u32,
    /// 1-based sequence number on that node.
    pub seq: u32,
}

/// What a node remembers about one interval (its own or a peer's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalInfo {
    /// Linearization key: the creating node's vector-clock sum at close.
    pub vc_sum: u64,
    /// The vector timestamp that decides domination: what the creating
    /// node's application thread had *acquired* when the interval closed
    /// (see `NodeState::acquired`).
    pub vc: VectorClock,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageId>,
}

impl IntervalInfo {
    /// Whether this interval's writer had acquired interval `id` when it
    /// closed this one. A writer validates a page before writing it, so
    /// it has normally applied `id`'s diff to every page both intervals
    /// wrote — the exceptions are push-writes and notices acquired after
    /// the writer's last access to the page in the interval.
    #[inline]
    pub fn dominates(&self, id: IntervalId) -> bool {
        self.vc.covers(id.node as usize, id.seq)
    }
}

/// A batch of write notices sent on a release→acquire edge, together with
/// the sender's clocks.
///
/// Two clocks travel with every bundle because "knowing of" and "having
/// processed" an interval are different facts on a network with multiple
/// channels per node pair: `vc` is the sender's *promise* clock (intervals
/// it knows exist — some of whose notices may still be in flight to it),
/// `pvc` its *processed* clock (the contiguous frontier of intervals whose
/// notices it has actually logged). Receivers merge `vc` into their own
/// promise clock for happens-before ordering, but acknowledge only `pvc`
/// as the sender's transferable knowledge — filtering against promise
/// clocks can permanently withhold a notice whose carrier message was
/// overtaken, which surfaces as stale reads inside critical sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NoticeBundle {
    /// Intervals the receiver has (presumably) not seen. Records are
    /// immutable once closed and shared, so a bundle holds references.
    pub intervals: Vec<(IntervalId, Arc<IntervalInfo>)>,
    /// Sender's promise clock at send time; merged by the receiver after
    /// processing the notices.
    pub vc: VectorClock,
    /// Sender's processed clock at send time (see type docs).
    pub pvc: VectorClock,
}

impl NoticeBundle {
    /// An empty bundle carrying just the clocks.
    pub fn empty(vc: VectorClock) -> Self {
        let pvc = vc.clone();
        NoticeBundle {
            intervals: Vec::new(),
            vc,
            pvc,
        }
    }

    /// Modeled wire size: both clocks + per interval a 12-byte header,
    /// its vector timestamp and 4 bytes per page id.
    pub fn wire_bytes(&self) -> usize {
        self.vc.wire_bytes()
            + self.pvc.wire_bytes()
            + self
                .intervals
                .iter()
                .map(|(_, info)| 12 + info.vc.wire_bytes() + 4 * info.pages.len())
                .sum::<usize>()
    }

    /// Total write notices (page entries) carried.
    pub fn notice_count(&self) -> usize {
        self.intervals.iter().map(|(_, i)| i.pages.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_elementwise_max() {
        let mut a = VectorClock(vec![1, 5, 0]);
        a.merge(&VectorClock(vec![2, 3, 4]));
        assert_eq!(a, VectorClock(vec![2, 5, 4]));
    }

    #[test]
    fn covers_and_dominates() {
        let a = VectorClock(vec![2, 1]);
        assert!(a.covers(0, 2));
        assert!(!a.covers(0, 3));
        assert!(a.dominates(&VectorClock(vec![1, 1])));
        assert!(!a.dominates(&VectorClock(vec![3, 0])));
    }

    #[test]
    fn sum_monotonic_under_merge_and_increment() {
        let mut a = VectorClock(vec![1, 2]);
        let before = a.sum();
        a.merge(&VectorClock(vec![0, 5]));
        assert!(a.sum() > before);
        a.0[0] += 1;
        assert_eq!(a.sum(), 1 + 5 + 1); // merged to [1,5], then +1
    }

    #[test]
    fn bundle_wire_size() {
        let b = NoticeBundle {
            intervals: vec![(
                IntervalId { node: 0, seq: 1 },
                Arc::new(IntervalInfo {
                    vc_sum: 1,
                    vc: VectorClock(vec![1, 0, 0, 0]),
                    pages: vec![1, 2, 3],
                }),
            )],
            vc: VectorClock::zero(4),
            pvc: VectorClock::zero(4),
        };
        assert_eq!(b.wire_bytes(), 16 + 16 + 12 + 16 + 12);
        assert_eq!(b.notice_count(), 3);
    }

    #[test]
    fn domination_is_timestamp_coverage() {
        let info = IntervalInfo {
            vc_sum: 5,
            vc: VectorClock(vec![2, 3, 0]),
            pages: vec![0],
        };
        assert!(info.dominates(IntervalId { node: 1, seq: 2 }));
        assert!(info.dominates(IntervalId { node: 0, seq: 1 }));
        assert!(
            !info.dominates(IntervalId { node: 2, seq: 1 }),
            "concurrent"
        );
    }

    proptest::proptest! {
        #[test]
        fn merge_lattice_laws(a in proptest::collection::vec(0u32..100, 4),
                              b in proptest::collection::vec(0u32..100, 4)) {
            let va = VectorClock(a.clone());
            let vb = VectorClock(b.clone());
            // commutative
            let mut ab = va.clone(); ab.merge(&vb);
            let mut ba = vb.clone(); ba.merge(&va);
            proptest::prop_assert_eq!(&ab, &ba);
            // idempotent
            let mut aa = va.clone(); aa.merge(&va);
            proptest::prop_assert_eq!(&aa, &va);
            // absorbing: result dominates both inputs
            proptest::prop_assert!(ab.dominates(&va) && ab.dominates(&vb));
        }
    }
}
