//! Page diffs for the multiple-writer protocol.
//!
//! A diff is a run-length encoding of the bytes that changed between a
//! page's *twin* (its contents when the node first wrote it in an
//! interval) and the page's current contents. Diffs are what cross the
//! wire instead of whole pages, which both cuts bandwidth and lets
//! multiple nodes write disjoint parts of one page concurrently.

/// One run of modified bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page.
    pub offset: u32,
    /// The new bytes.
    pub bytes: Vec<u8>,
}

/// A run-length delta between a twin and the current page contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<DiffRun>,
}

/// Runs separated by fewer equal bytes than this are coalesced: a run
/// header costs 8 wire bytes, so tiny gaps are cheaper to resend than to
/// split.
const MERGE_GAP: usize = 8;

/// Width of the equal-bytes skip between runs; its first pass compares
/// four words at once.
const WORD: usize = 8;

/// The first index at or after `i` that starts an unequal `W`-byte
/// chunk, or the start of the tail shorter than `W`.
fn skip_equal<const W: usize>(twin: &[u8], current: &[u8], i: usize) -> usize {
    let (tw, _) = twin[i..].as_chunks::<W>();
    let (cw, _) = current[i..].as_chunks::<W>();
    i + W * tw.iter().zip(cw).take_while(|(t, c)| t == c).count()
}

impl Diff {
    /// Encode the difference `twin -> current`.
    ///
    /// Both slices must be the same length (one page). Runs separated by
    /// fewer than `MERGE_GAP` equal bytes are coalesced. Between runs the
    /// scan skips equal bytes four words, then one word at a time, and
    /// compares single bytes only inside the word that differs and in the
    /// tail: a page with a few changed words costs a compare per 32 bytes.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let mut runs: Vec<DiffRun> = Vec::new();
        let mut i = 0;
        let n = twin.len();
        loop {
            i = skip_equal::<WORD>(twin, current, skip_equal::<{ 4 * WORD }>(twin, current, i));
            while i < n && twin[i] == current[i] {
                i += 1;
            }
            if i == n {
                break;
            }
            let start = i;
            let mut end = i + 1; // exclusive end of the run being built
            let mut j = i + 1;
            let mut gap = 0;
            while j < n && gap < MERGE_GAP {
                if twin[j] == current[j] {
                    gap += 1;
                } else {
                    gap = 0;
                    end = j + 1;
                }
                j += 1;
            }
            runs.push(DiffRun {
                offset: start as u32,
                bytes: current[start..end].to_vec(),
            });
            i = end;
        }
        Diff { runs }
    }

    /// Apply this diff to `page`.
    pub fn apply(&self, page: &mut [u8]) {
        for run in &self.runs {
            let start = run.offset as usize;
            page[start..start + run.bytes.len()].copy_from_slice(&run.bytes);
        }
    }

    /// True if the twin and page were identical.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total changed bytes carried.
    pub fn data_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// Modeled wire size: 8-byte header per run (offset + length) plus the
    /// data, plus a 4-byte diff header.
    pub fn wire_bytes(&self) -> usize {
        4 + self.runs.iter().map(|r| 8 + r.bytes.len()).sum::<usize>()
    }

    /// The runs (for inspection/tests).
    pub fn runs(&self) -> &[DiffRun] {
        &self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(twin: &[u8], current: &[u8]) {
        let d = Diff::create(twin, current);
        let mut page = twin.to_vec();
        d.apply(&mut page);
        assert_eq!(&page, current);
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let page = vec![7u8; 256];
        let d = Diff::create(&page, &page);
        assert!(d.is_empty());
        assert_eq!(d.data_bytes(), 0);
        assert_eq!(d.wire_bytes(), 4);
    }

    #[test]
    fn single_byte_change() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[50] = 9;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs()[0].offset, 50);
        roundtrip(&twin, &cur);
    }

    #[test]
    fn distant_changes_make_separate_runs() {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[10] = 1;
        cur[200] = 2;
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 2);
        roundtrip(&twin, &cur);
    }

    #[test]
    fn close_changes_coalesce() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[10] = 1;
        cur[14] = 2; // gap of 3 < MERGE_GAP: one run
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs()[0].bytes.len(), 5);
        roundtrip(&twin, &cur);
    }

    #[test]
    fn change_at_page_boundaries() {
        let twin = vec![3u8; 64];
        let mut cur = twin.clone();
        cur[0] = 0;
        cur[63] = 9;
        roundtrip(&twin, &cur);
    }

    #[test]
    fn full_page_rewrite() {
        let twin = vec![0u8; 128];
        let cur = vec![0xAB; 128];
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.data_bytes(), 128);
        roundtrip(&twin, &cur);
    }

    #[test]
    fn disjoint_diffs_commute() {
        // The multiple-writer guarantee: diffs from concurrent writers to
        // disjoint parts of a page can be applied in any order.
        let base = vec![0u8; 128];
        let mut a = base.clone();
        let mut b = base.clone();
        a[0..16].fill(1);
        b[64..80].fill(2);
        let da = Diff::create(&base, &a);
        let db = Diff::create(&base, &b);
        let mut ab = base.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = base.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
        assert_eq!(&ab[0..16], &[1u8; 16]);
        assert_eq!(&ab[64..80], &[2u8; 16]);
    }

    /// The encoder before the word skip, one byte compare per byte: the
    /// reference `Diff::create` must reproduce run for run.
    fn create_bytewise(twin: &[u8], current: &[u8]) -> Vec<DiffRun> {
        let mut runs = Vec::new();
        let mut i = 0;
        let n = twin.len();
        while i < n {
            if twin[i] == current[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut end = i + 1;
            let mut j = i + 1;
            let mut gap = 0;
            while j < n && gap < MERGE_GAP {
                if twin[j] == current[j] {
                    gap += 1;
                } else {
                    gap = 0;
                    end = j + 1;
                }
                j += 1;
            }
            runs.push(DiffRun {
                offset: start as u32,
                bytes: current[start..end].to_vec(),
            });
            i = end;
        }
        runs
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2000, ..Default::default() })]
        #[test]
        fn create_matches_the_bytewise_encoder(
            len in 0usize..4097,
            shape in 0usize..6,
            picks in proptest::collection::vec(0usize..4096, 1..40),
            fill in proptest::num::u8::ANY,
        ) {
            let twin: Vec<u8> = (0..len).map(|k| fill.wrapping_add((k * 37) as u8)).collect();
            let mut cur = twin.clone();
            let mut flip = |k: usize| {
                if k < len {
                    cur[k] = twin[k] ^ 0x5a;
                }
            };
            let last = len.saturating_sub(1);
            match shape {
                // Scattered single bytes.
                0 => picks.iter().for_each(|&p| flip(p % len.max(1))),
                // First and last byte, plus scattered ones between.
                1 => {
                    flip(0);
                    flip(last);
                    picks.iter().take(3).for_each(|&p| flip(p % len.max(1)));
                }
                // Pairs straddling a word boundary.
                2 => picks.iter().for_each(|&p| {
                    let b = (p % len.max(1)) / WORD * WORD;
                    flip(b.wrapping_sub(1));
                    flip(b);
                }),
                // Chains of changed bytes whose equal gaps are exactly
                // MERGE_GAP - 1, MERGE_GAP or MERGE_GAP + 1 bytes, from a
                // random start, so the gaps fall across word boundaries.
                3 => {
                    let mut k = picks[0] % len.max(1);
                    for &p in &picks {
                        flip(k);
                        k += 1 + MERGE_GAP - 1 + p % 3;
                    }
                }
                // Changed spans of random length.
                4 => picks.chunks(2).for_each(|w| {
                    let at = w[0] % len.max(1);
                    let span = w.get(1).map_or(1, |s| 1 + s % 40);
                    (at..at + span).for_each(&mut flip);
                }),
                // Fully dense.
                _ => (0..len).for_each(flip),
            }
            let d = Diff::create(&twin, &cur);
            let oracle = create_bytewise(&twin, &cur);
            proptest::prop_assert_eq!(d.runs(), &oracle[..], "len {}, shape {}", len, shape);
            let mut page = twin.clone();
            d.apply(&mut page);
            proptest::prop_assert_eq!(page, cur);
        }
    }

    #[test]
    fn merge_gap_edges_across_word_boundaries() {
        // Every start offset in a word, every gap at the coalescing edge,
        // on page lengths that are and are not multiples of the word.
        for len in [64usize, 61, 67, 4096] {
            for start in 0..2 * WORD {
                for gap in [MERGE_GAP - 1, MERGE_GAP, MERGE_GAP + 1] {
                    let twin = vec![0u8; len];
                    let mut cur = twin.clone();
                    let mut k = start;
                    while k < len {
                        cur[k] = 1;
                        k += gap + 1;
                    }
                    let d = Diff::create(&twin, &cur);
                    assert_eq!(d.runs(), &create_bytewise(&twin, &cur)[..]);
                    assert_eq!(d.run_count() == 1, gap < MERGE_GAP, "len {len} gap {gap}");
                }
            }
        }
    }
}
