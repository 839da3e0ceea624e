//! Per-node page bookkeeping for the multiple-writer protocol.

use crate::diff::Diff;
use crate::interval::IntervalId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Access state of one page on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never touched here; contents are the all-zero base (epoch 0) or, in
    /// a later GC epoch, live with the page's owner.
    Unmapped,
    /// A local copy exists but write notices have invalidated it; the next
    /// access must fetch and apply missing diffs (or a full copy).
    Invalid,
    /// Local copy is up to date with everything this node has seen; writes
    /// must fault first (to create a twin).
    ReadOnly,
    /// Local copy is write-enabled: a twin exists for the open interval.
    Write,
    /// Write-only access (the Dwarkadas-style "write without fetch"
    /// optimization the paper cites as future compiler support): a twin
    /// exists, local writes are collected precisely, but the copy is
    /// stale outside the written bytes — reads must fault first.
    WritePush,
}

/// A write notice received for a page but whose diff has not yet been
/// fetched and applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoticeRec {
    /// The writing interval.
    pub id: IntervalId,
    /// Linearization key (creator's vector-clock sum at interval close).
    pub vc_sum: u64,
}

/// Everything one node tracks about one shared page.
#[derive(Debug)]
pub struct PageMeta {
    /// Current access state.
    pub state: PageState,
    /// Twin for the *open* interval (exists iff `state == Write`).
    pub twin: Option<Box<[u8]>>,
    /// Twin of the most recent *closed* interval whose diff has not been
    /// materialized yet (lazy diffing), with that interval's seq.
    pub pending: Option<(u32, Box<[u8]>)>,
    /// Diffs this node holds for this page, by interval — the cache it
    /// serves `DiffReq`s from: the diffs it created, plus the foreign
    /// diffs it applied, retained (an `Arc` clone) so a later faulting
    /// node can fetch a whole write chain from its last writer. Both
    /// kinds are dropped at the GC that covers their interval.
    pub diffs: BTreeMap<IntervalId, Arc<Diff>>,
    /// Write notices whose diffs are still missing locally.
    pub unapplied: Vec<NoticeRec>,
    /// Who owns the authoritative full copy of the current GC epoch.
    pub owner: usize,
    /// GC epoch this node's copy belongs to.
    pub epoch: u32,
    /// The local base copy is unusable: write notices for this page were
    /// dropped at a GC before their diffs were applied here, so the next
    /// access must fetch a full copy from the owner.
    pub base_lost: bool,
}

impl PageMeta {
    /// Fresh metadata: epoch-0 pages are all-zero everywhere, so the page
    /// starts `Unmapped` and the first touch maps it without traffic.
    pub fn new(owner: usize) -> Self {
        PageMeta {
            state: PageState::Unmapped,
            twin: None,
            pending: None,
            diffs: BTreeMap::new(),
            unapplied: Vec::new(),
            owner,
            epoch: 0,
            base_lost: false,
        }
    }

    /// True if the local copy may be read without protocol action.
    pub fn readable(&self) -> bool {
        matches!(self.state, PageState::ReadOnly | PageState::Write)
    }

    /// True if local writes may proceed without protocol action.
    pub fn writable(&self) -> bool {
        matches!(self.state, PageState::Write | PageState::WritePush)
    }

    /// The diffs a barrier or lock grant delivered for notices still
    /// unapplied: held until a fault applies them with the rest of the
    /// page's set.
    pub fn held(&self) -> impl Iterator<Item = (IntervalId, &Arc<Diff>)> {
        let held = self.unapplied.iter();
        held.filter_map(|r| Some((r.id, self.diffs.get(&r.id)?)))
    }

    /// Bytes of the diffs node `me` created for this page (the GC
    /// trigger input; retained foreign diffs do not count).
    pub fn diff_storage_bytes(&self, me: u32) -> usize {
        self.diffs
            .range(
                IntervalId { node: me, seq: 0 }..=IntervalId {
                    node: me,
                    seq: u32::MAX,
                },
            )
            .map(|(_, d)| d.wire_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_unmapped() {
        let p = PageMeta::new(0);
        assert_eq!(p.state, PageState::Unmapped);
        assert!(!p.readable());
        assert!(p.twin.is_none() && p.pending.is_none());
        assert_eq!(p.diff_storage_bytes(0), 0);
    }

    #[test]
    fn diff_storage_counts_only_own_diffs() {
        let mut p = PageMeta::new(0);
        let d = Arc::new(Diff::create(&[0u8; 64], &[1u8; 64]));
        p.diffs.insert(IntervalId { node: 1, seq: 3 }, d.clone());
        assert_eq!(p.diff_storage_bytes(1), d.wire_bytes());
        p.diffs.insert(IntervalId { node: 2, seq: 1 }, d.clone());
        p.diffs.insert(IntervalId { node: 0, seq: 9 }, d.clone());
        assert_eq!(
            p.diff_storage_bytes(1),
            d.wire_bytes(),
            "retained diffs are free"
        );
    }

    #[test]
    fn readable_states() {
        let mut p = PageMeta::new(0);
        p.state = PageState::ReadOnly;
        assert!(p.readable());
        p.state = PageState::Write;
        assert!(p.readable());
        p.state = PageState::Invalid;
        assert!(!p.readable());
    }
}
