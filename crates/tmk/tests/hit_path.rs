//! The element access path (`Tmk::read` / `Tmk::write`): an access to
//! valid pages is a hit — one state lock, no protocol action — and every
//! other access must take the miss path, whichever of its pages is the
//! invalid one and whoever invalidated it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tmk::{run_system, TmkConfig, TmkOp};

/// 24 bytes, so element 170 of a page-aligned array covers bytes
/// 4080..4104: fields `a` and `b` end page 0, field `c` starts page 1.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
struct Rec {
    a: u64,
    b: u64,
    c: u64,
}
tmk::impl_shareable!(Rec);

const STRADDLER: usize = 170;

fn rec(k: u64) -> Rec {
    Rec {
        a: k,
        b: k + 1,
        c: k + 2,
    }
}

#[test]
fn element_straddling_a_page_boundary_round_trips() {
    let out = run_system(TmkConfig::fast_test(2), |tmk| {
        let v = tmk.malloc_vec::<Rec>(400);
        let seen = tmk.malloc_vec::<Rec>(4);
        // Two rounds: node 0 rewrites the straddler, node 1 makes exactly
        // one of its two pages valid first (page 1 in round 0, page 0 in
        // round 1) and then reads it — a miss that must fault the other.
        for round in 0..2u64 {
            tmk.write(&v, STRADDLER, rec(10 * (round + 1)));
            tmk.parallel(0, move |t| {
                if t.proc_id() == 1 {
                    let neighbour = [STRADDLER + 1, STRADDLER - 1][round as usize];
                    t.read(&v, neighbour);
                    let faults = t.metrics().op(TmkOp::ReadFaults).get();
                    let missed = t.read(&v, STRADDLER);
                    assert_eq!(
                        t.metrics().op(TmkOp::ReadFaults).get(),
                        faults + 1,
                        "round {round}: one page was still invalid"
                    );
                    // Both pages valid now: hits, no protocol action.
                    for _ in 0..100 {
                        assert_eq!(t.read(&v, STRADDLER), missed);
                    }
                    assert_eq!(t.metrics().op(TmkOp::ReadFaults).get(), faults + 1);
                    t.write(&seen, round as usize, missed);
                }
            });
        }
        // The write direction: node 1 holds page 1 write-enabled and
        // page 0 read-only when it stores the straddler, so the store
        // must twin page 0 for fields `a` and `b` to reach the diff. The
        // second store finds both pages write-enabled: a hit.
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                t.write(&v, STRADDLER + 1, rec(0));
                let twins = t.metrics().op(TmkOp::TwinsCreated).get();
                t.write(&v, STRADDLER, rec(70));
                assert_eq!(t.metrics().op(TmkOp::TwinsCreated).get(), twins + 1);
                t.write(&v, STRADDLER - 1, rec(80));
                t.write(&v, STRADDLER, rec(90));
                assert_eq!(t.metrics().op(TmkOp::TwinsCreated).get(), twins + 1);
            }
        });
        let mut got = tmk.read_slice(&seen, 0..2);
        got.push(tmk.read(&v, STRADDLER - 1));
        got.push(tmk.read(&v, STRADDLER));
        got
    });
    assert_eq!(out.result, vec![rec(10), rec(20), rec(80), rec(90)]);
}

#[test]
fn access_past_the_local_mirror_is_a_miss() {
    // A node's mirror of the shared space grows on the miss path only, so
    // the first access after an allocation finds the region past the end
    // of the mirror (on the allocating master, before anything else has
    // looked at the allocation table): it must miss and grow the mirror,
    // not index out of bounds — for a load, a store, and on another node.
    let out = run_system(TmkConfig::fast_test(2), |tmk| {
        let first = tmk.malloc_vec::<u64>(8);
        assert_eq!(tmk.read(&first, 7), 0);
        let second = tmk.malloc_vec::<u64>(3000);
        assert_eq!(tmk.read(&second, 2999), 0);
        let third = tmk.malloc_vec::<u64>(3000);
        tmk.write(&third, 2999, 6);
        let fourth = tmk.malloc_vec::<u64>(3000);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                let last = t.read(&third, 2999);
                t.write(&fourth, 2999, last + 1);
            }
        });
        tmk.read(&fourth, 2999)
    });
    assert_eq!(out.result, 7);
}

#[test]
fn store_to_a_page_invalidated_mid_interval_takes_the_miss_path() {
    // Node 1 write-enables a page, then node 0's flush makes node 1's
    // *service thread* take that page `Write -> Invalid` while the
    // interval (and its twin) is still open. The next store must not
    // land as a hit: it faults node 0's bytes in first, keeps the open
    // twin, and both of node 1's stores reach its diff.
    let out = run_system(TmkConfig::fast_test(2), |tmk| {
        let page = tmk.malloc_vec::<u64>(512);
        let flag = tmk.malloc_scalar::<u32>(0);
        // Host-side ordering only (any DSM synchronization would close
        // node 1's interval): node 0 waits until node 1's twin is open.
        let twinned = Arc::new(AtomicBool::new(false));
        tmk.parallel(0, move |t| {
            if t.proc_id() == 0 {
                while !twinned.load(Ordering::SeqCst) {
                    t.spin_hint();
                }
                t.write(&page, 0, 7);
                flag.set(t, 1);
                t.flush();
            } else {
                t.write(&page, 100, 1);
                twinned.store(true, Ordering::SeqCst);
                while flag.get(t) == 0 {
                    t.spin_hint();
                }
                let ops = |t: &tmk::Tmk| {
                    let m = t.metrics();
                    (
                        m.op(TmkOp::ReadFaults).get(),
                        m.op(TmkOp::TwinsCreated).get(),
                    )
                };
                let (faults, twins) = ops(t);
                t.write(&page, 200, 2);
                assert_eq!(ops(t), (faults + 1, twins), "fault, and no second twin");
                assert_eq!(t.read(&page, 0), 7, "node 0's bytes were faulted in");
            }
        });
        tmk.read_slice(&page, 0..512)
    });
    assert_eq!((out.result[0], out.result[100], out.result[200]), (7, 1, 2));
}
