//! Typed access to the shared address space: `SharedVec`, `SharedScalar`.
//!
//! Handles are plain `(base address, length)` descriptors — the analogue
//! of a pointer into TreadMarks' shared heap. They are `Copy`, can be
//! captured by parallel-region closures, and all data access goes through
//! the owning node's [`Tmk`] handle, which performs page-granularity
//! access detection (the stand-in for `mprotect`/SIGSEGV, see DESIGN.md
//! §3) and drives the lazy-release-consistency protocol.
//!
//! This is also where the paper's Modification 1 lives in Rust form:
//! **everything is private unless it is explicitly a `Shared*` handle.**

use crate::api::Tmk;
use crate::page::{PageMeta, PageState};
use crate::protocol::Gathered;
use crate::state::NodeState;
use std::marker::PhantomData;
use std::ops::Range;

/// Plain-old-data types that may live in shared memory (re-export of the
/// substrate-wide [`now_net::Pod`] marker, so the same application types
/// work in both the DSM and the MPI layers).
pub use now_net::Pod as Shareable;

/// Implement [`Shareable`] for a user `#[repr(C)]` plain-old-data struct.
///
/// ```
/// #[derive(Clone, Copy)]
/// #[repr(C)]
/// struct Point { x: f64, y: f64 }
/// tmk::impl_shareable!(Point);
/// ```
#[macro_export]
macro_rules! impl_shareable {
    ($($t:ty),*) => { $(
        // SAFETY: asserted by the caller — $t must be repr(C) POD.
        unsafe impl $crate::Shareable for $t {}
    )* };
}

/// A handle to a shared array of `T` in DSM space.
pub struct SharedVec<T> {
    base: u64,
    len: usize,
    _m: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedVec<T> {}

impl<T: Shareable> SharedVec<T> {
    pub(crate) fn new(base: u64, len: usize) -> Self {
        SharedVec {
            base,
            len,
            _m: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `i`.
    #[inline]
    pub(crate) fn addr_of(&self, i: usize) -> u64 {
        debug_assert!(i <= self.len, "index {i} out of bounds (len {})", self.len);
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// A sub-array handle covering `range` (shares the same storage —
    /// the DSM analogue of passing a pointer to a subarray, as QSORT's
    /// task queue does).
    pub fn subvec(&self, range: Range<usize>) -> SharedVec<T> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "subvec out of bounds"
        );
        SharedVec::new(self.addr_of(range.start), range.len())
    }
}

/// A single shared value (a shared global variable).
pub struct SharedScalar<T> {
    v: SharedVec<T>,
}

impl<T> Clone for SharedScalar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedScalar<T> {}

impl<T: Shareable> SharedScalar<T> {
    /// The scalar stored in element 0 of `v` — from a fresh
    /// [`Tmk::malloc_vec`] of one element, a zero scalar that costs no
    /// write.
    pub fn from_vec(v: SharedVec<T>) -> Self {
        SharedScalar { v }
    }

    /// Read the value.
    pub fn get(&self, tmk: &mut Tmk) -> T {
        tmk.read(&self.v, 0)
    }

    /// Write the value.
    pub fn set(&self, tmk: &mut Tmk, val: T) {
        tmk.write(&self.v, 0, val);
    }
}

fn copy_out<T: Shareable>(mem: &[u8], addr: usize, n: usize) -> Vec<T> {
    let mut buf: Vec<T> = Vec::with_capacity(n);
    // SAFETY: source range is in bounds (callers fault the pages in
    // first); destination has capacity for n elements; T is POD so a byte
    // copy produces valid values; regions never overlap (buf is fresh).
    unsafe {
        std::ptr::copy_nonoverlapping(
            mem.as_ptr().add(addr),
            buf.as_mut_ptr() as *mut u8,
            n * std::mem::size_of::<T>(),
        );
        buf.set_len(n);
    }
    buf
}

/// Bytes of `[addr, addr + size_of::<T>())` in the local mirror if the
/// mirror already covers them and every page under them passes `valid` —
/// the stand-in for an access that does not trap. `None` is a miss (a
/// mirror that lags a fresh allocation included: `sync_alloc` runs on the
/// miss path).
#[inline]
fn valid_bytes<T>(
    st: &mut NodeState,
    addr: u64,
    valid: impl Fn(&PageMeta) -> bool,
) -> Option<&mut [u8]> {
    let size = std::mem::size_of::<T>();
    let pages = st.pages.get(st.alloc.pages_of_range(addr, size))?;
    if !pages.iter().all(valid) {
        return None;
    }
    st.mem.get_mut(addr as usize..addr as usize + size)
}

/// Load a `T` from valid pages (any readable state).
#[inline]
fn load_hit<T: Shareable>(st: &mut NodeState, addr: u64) -> Option<T> {
    let src = valid_bytes::<T>(st, addr, PageMeta::readable)?;
    // SAFETY: `src` is exactly size_of::<T>() bytes; T is POD, so any
    // byte pattern is a value; the read is unaligned-safe.
    Some(unsafe { std::ptr::read_unaligned(src.as_ptr() as *const T) })
}

/// Store a `T` into write-enabled pages (exactly `Write`: a twin is open,
/// so the bytes reach this interval's diff; `WritePush` copies are stale
/// outside their written bytes and take the miss path like a read).
#[inline]
fn store_hit<T: Shareable>(st: &mut NodeState, addr: u64, val: T) -> Option<()> {
    let dst = valid_bytes::<T>(st, addr, |p| p.state == PageState::Write)?;
    // SAFETY: `dst` is exactly size_of::<T>() bytes; unaligned-safe.
    unsafe { std::ptr::write_unaligned(dst.as_mut_ptr() as *mut T, val) };
    Some(())
}

fn copy_in<T: Shareable>(mem: &mut [u8], addr: usize, src: &[T]) {
    // SAFETY: destination range is in bounds; T is POD; no overlap.
    unsafe {
        std::ptr::copy_nonoverlapping(
            src.as_ptr() as *const u8,
            mem.as_mut_ptr().add(addr),
            std::mem::size_of_val(src),
        );
    }
}

impl Tmk {
    /// Allocate a zero-initialized shared array (`Tmk_malloc`).
    pub fn malloc_vec<T: Shareable>(&mut self, len: usize) -> SharedVec<T> {
        assert!(len > 0, "zero-length shared allocation");
        let bytes = len * std::mem::size_of::<T>();
        let info = self.alloc.alloc(bytes);
        SharedVec::new(info.base, len)
    }

    /// Allocate a shared array initialized from `init` (writes go through
    /// the normal DSM write path on this node, so other nodes page the
    /// data in on first use — exactly like master initialization on the
    /// real system).
    pub fn malloc_vec_from<T: Shareable>(&mut self, init: &[T]) -> SharedVec<T> {
        let v = self.malloc_vec(init.len());
        self.write_slice(&v, 0, init);
        v
    }

    /// Allocate a shared scalar with an initial value.
    pub fn malloc_scalar<T: Shareable>(&mut self, init: T) -> SharedScalar<T> {
        let v = self.malloc_vec::<T>(1);
        self.write(&v, 0, init);
        SharedScalar::from_vec(v)
    }

    /// Make `[addr, addr+bytes)` readable, faulting pages as needed.
    fn ensure_readable(&mut self, addr: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let need: Vec<usize> = {
            let mut st = self.state.lock();
            st.sync_alloc();
            self.alloc
                .pages_of_range(addr, bytes)
                .filter(|&p| !st.pages[p].readable())
                .collect()
        };
        if !need.is_empty() {
            self.fault_pages(&need, true);
        }
    }

    /// Make `[addr, addr+bytes)` writable (readable + twinned).
    /// Retries if a concurrent flush invalidates a page in between.
    fn ensure_writable(&mut self, addr: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        loop {
            self.ensure_readable(addr, bytes);
            let all_ok = {
                let mut st = self.state.lock();
                let pages = self.alloc.pages_of_range(addr, bytes);
                let mut ok = true;
                for pid in pages {
                    if !st.pages[pid].readable() {
                        ok = false;
                        break;
                    }
                    if st.pages[pid].state != PageState::Write {
                        st.start_write(pid);
                    }
                }
                ok
            };
            if all_ok {
                return;
            }
        }
    }

    /// One element access: `hit`, else make the pages valid and retry.
    ///
    /// `hit` runs under one state lock and is the whole cost of an access
    /// to valid pages — it stays on the compute meter (on the real system
    /// a valid-page access is a plain load or store) and outside the node
    /// gate (it performs no protocol operation; the state lock makes it
    /// atomic), charging only the intra-node access cost to an SMP lane.
    /// A miss is the access fault: `fault` runs off the meter and under
    /// the gate through [`Tmk::metered`], which charges that access cost
    /// itself, and the access is retried.
    #[inline]
    fn access<R>(
        &mut self,
        mut hit: impl FnMut(&mut NodeState) -> Option<R>,
        fault: impl Fn(&mut Self),
    ) -> R {
        let first = hit(&mut self.state.lock());
        if let Some(r) = first {
            self.lane_advance(self.smp_access_ns);
            return r;
        }
        loop {
            self.metered(&fault);
            let retry = hit(&mut self.state.lock());
            if let Some(r) = retry {
                return r;
            }
        }
    }

    /// Read element `i`.
    pub fn read<T: Shareable>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        assert!(
            i < v.len(),
            "read index {i} out of bounds (len {})",
            v.len()
        );
        let addr = v.addr_of(i);
        self.access(
            |st| load_hit(st, addr),
            |s| s.ensure_readable(addr, std::mem::size_of::<T>()),
        )
    }

    /// Write element `i`.
    pub fn write<T: Shareable>(&mut self, v: &SharedVec<T>, i: usize, val: T) {
        assert!(
            i < v.len(),
            "write index {i} out of bounds (len {})",
            v.len()
        );
        let addr = v.addr_of(i);
        self.access(
            |st| store_hit(st, addr, val),
            |s| s.ensure_writable(addr, std::mem::size_of::<T>()),
        )
    }

    /// Copy `range` out into a fresh vector.
    pub fn read_slice<T: Shareable>(&mut self, v: &SharedVec<T>, range: Range<usize>) -> Vec<T> {
        assert!(range.end <= v.len(), "read_slice out of bounds");
        if range.is_empty() {
            return Vec::new();
        }
        self.metered(|s| {
            let addr = v.addr_of(range.start);
            let bytes = range.len() * std::mem::size_of::<T>();
            s.ensure_readable(addr, bytes);
            let st = s.state.lock();
            copy_out::<T>(&st.mem, addr as usize, range.len())
        })
    }

    /// Copy `src` into the vector starting at element `start` **without
    /// fetching** remote updates for the touched pages (write-only
    /// access). The written bytes are propagated precisely; all *other*
    /// bytes of the touched pages are stale on this node until a normal
    /// read faults them in. Safe for data-race-free programs that do not
    /// read their own stale copies — the access pattern of transpose-style
    /// producer phases. This is the write-without-fetch optimization of
    /// Dwarkadas et al. (the paper's cited future work, here as an
    /// explicit API a compiler would target).
    pub fn write_slice_push<T: Shareable>(&mut self, v: &SharedVec<T>, start: usize, src: &[T]) {
        assert!(
            start + src.len() <= v.len(),
            "write_slice_push out of bounds"
        );
        if src.is_empty() {
            return;
        }
        self.metered(|s| {
            let addr = v.addr_of(start);
            let bytes = std::mem::size_of_val(src);
            // GC-stale pages still need their base copy first (rare).
            let stale: Vec<usize> = {
                let mut st = s.state.lock();
                st.sync_alloc();
                s.alloc
                    .pages_of_range(addr, bytes)
                    .filter(|&p| st.pages[p].base_lost)
                    .collect()
            };
            for pid in stale {
                s.fault_pages(&[pid], true);
            }
            let mut st = s.state.lock();
            for pid in s.alloc.pages_of_range(addr, bytes) {
                st.start_write_push(pid);
            }
            copy_in(&mut st.mem, addr as usize, src);
        });
    }

    /// Copy `src` into the vector starting at element `start`.
    pub fn write_slice<T: Shareable>(&mut self, v: &SharedVec<T>, start: usize, src: &[T]) {
        assert!(start + src.len() <= v.len(), "write_slice out of bounds");
        if src.is_empty() {
            return;
        }
        self.metered(|s| {
            let addr = v.addr_of(start);
            let bytes = std::mem::size_of_val(src);
            s.ensure_writable(addr, bytes);
            let mut st = s.state.lock();
            copy_in(&mut st.mem, addr as usize, src);
        });
    }

    /// Run `f` over a read-only snapshot of `range`.
    ///
    /// The closure body is metered as application compute; the copy in/out
    /// is a simulation artifact and runs off the meter.
    pub fn view<T: Shareable, R>(
        &mut self,
        v: &SharedVec<T>,
        range: Range<usize>,
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        let buf = self.read_slice(v, range);
        f(&buf)
    }

    /// Run `f` over a mutable snapshot of `range` and write it back.
    ///
    /// The write-back stores the full range; bytes the closure left
    /// unchanged are excluded from diffs automatically (diffs compare
    /// against the twin), so this is as precise as direct stores.
    pub fn view_mut<T: Shareable, R>(
        &mut self,
        v: &SharedVec<T>,
        range: Range<usize>,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> R {
        assert!(range.end <= v.len(), "view_mut out of bounds");
        if range.is_empty() {
            let mut empty: [T; 0] = [];
            return f(&mut empty);
        }
        let mut buf = self.read_slice(v, range.clone());
        let r = f(&mut buf); // metered: this is application compute
        self.write_slice(v, range.start, &buf);
        r
    }
    // ------------------------------------------------------------------
    // Reductions riding the join
    // ------------------------------------------------------------------

    /// Contribute this node's partial `vals` of reduction `site`. No
    /// message: the node's next barrier arrival carries it to the
    /// manager, whose own departure delivers every node's partial to the
    /// master ([`Tmk::take_partials`]).
    pub fn contribute<T: Shareable>(&mut self, site: u32, vals: &[T]) {
        let mut bytes = vec![0u8; std::mem::size_of_val(vals)];
        copy_in(&mut bytes, 0, vals);
        self.state.lock().partials.push((site, bytes));
    }

    /// The master's take of the partials of reduction `site` that the
    /// barriers since the last take gathered, one per contribution, in
    /// node order (a node's own in contribution order).
    pub fn take_partials<T: Shareable>(&mut self, site: u32) -> Vec<Vec<T>> {
        assert_eq!(self.id, 0, "only the master takes reduction partials");
        let mut mine: Vec<Gathered> = (self.state.lock().gathered)
            .extract_if(.., |g| g.0 == site)
            .collect();
        mine.sort_by_key(|g| g.1);
        let size = std::mem::size_of::<T>();
        let partial = |(_, _, bytes): Gathered| {
            assert_eq!(bytes.len() % size, 0, "reduction site {site} changed type");
            copy_out(&bytes, 0, bytes.len() / size)
        };
        mine.into_iter().map(partial).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subvec_addressing() {
        let v: SharedVec<u64> = SharedVec::new(4096, 100);
        assert_eq!(v.len(), 100);
        let s = v.subvec(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s.addr_of(0), 4096 + 80);
    }

    #[test]
    #[should_panic(expected = "subvec out of bounds")]
    fn subvec_bounds_checked() {
        let v: SharedVec<u8> = SharedVec::new(0, 10);
        let _ = v.subvec(5..11);
    }

    #[test]
    fn copy_helpers_roundtrip() {
        let mut mem = vec![0u8; 64];
        let vals = [1.5f64, -2.25, 1e300];
        copy_in(&mut mem, 8, &vals);
        let out: Vec<f64> = copy_out(&mem, 8, 3);
        assert_eq!(out, vals);
    }

    #[test]
    fn hits_need_a_covering_mirror_and_valid_pages() {
        let cfg = crate::TmkConfig::fast_test(2);
        let ps = cfg.page_size as u64;
        let alloc = crate::AllocTable::new(cfg.page_shift());
        let _ = alloc.alloc(2 * cfg.page_size);
        let clock = now_net::VirtualClock::new();
        let mut st = NodeState::new(0, cfg, alloc, clock, Default::default());
        let straddler = ps - 4;
        assert_eq!(load_hit::<u64>(&mut st, straddler), None, "mirror lags");
        st.sync_alloc();
        assert_eq!(load_hit::<u64>(&mut st, straddler), None, "unmapped");
        st.pages[0].state = PageState::ReadOnly;
        st.pages[1].state = PageState::Write;
        assert_eq!(load_hit::<u64>(&mut st, straddler), Some(0));
        assert_eq!(
            store_hit(&mut st, straddler, 7u64),
            None,
            "page 0 has no twin"
        );
        assert_eq!(store_hit(&mut st, ps, 7u64), Some(()));
        assert_eq!(load_hit::<u64>(&mut st, ps), Some(7));
        st.pages[1].state = PageState::Invalid;
        assert_eq!(
            store_hit(&mut st, ps, 8u64),
            None,
            "invalidated mid-interval"
        );
        assert_eq!(load_hit::<u64>(&mut st, 2 * ps - 4), None, "past the end");
    }

    #[test]
    fn handles_are_copy_and_send() {
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<SharedVec<f64>>();
        assert_send_sync::<SharedScalar<i32>>();
    }
}
