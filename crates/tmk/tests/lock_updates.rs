//! Updates ride the lock grant: a read fault in a lock tenure subscribes
//! its page to the lock acquired last, a release attaches the holder's
//! diffs of the pages the other nodes subscribe to, and the manager
//! forwards them in the next grant, so a fault that finds every missing
//! diff held sends no request.
//!
//! The programs are `fib`'s `critical` pattern: four nodes take turns
//! adding one to a lock-protected counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmk::{run_system, RunOutcome, Tmk, TmkConfig, TmkOp};

/// `u64`s in one 4 KiB page.
const PAGE: usize = 512;
/// Nodes.
const N: usize = 4;

fn diff_reqs<R>(out: &RunOutcome<R>) -> u64 {
    out.net.kind("diff_req").map_or(0, |k| k.send_msgs)
}

/// Read faults the calling node has taken so far.
fn faults(t: &Tmk) -> u64 {
    t.metrics().op(TmkOp::ReadFaults).get()
}

/// `tenures` tenures per node of lock 1, each adding one to the counter.
/// With `nested`, the counter is read holding lock 2 inside lock 1 and
/// written after lock 2 is released. Returns the outcome, with the
/// largest count any node saw, and the nodes that took a read fault.
fn chain(tenures: usize, nested: bool) -> (RunOutcome<u64>, u64) {
    let faulted = Arc::new(AtomicU64::new(0));
    let learners = faulted.clone();
    let out = run_system(TmkConfig::fast_test(N), move |tmk| {
        let counter = tmk.malloc_vec::<u64>(PAGE);
        let top = Arc::new(AtomicU64::new(0));
        let (seen, learners) = (top.clone(), learners.clone());
        tmk.parallel(0, move |t| {
            let before = faults(t);
            for _ in 0..tenures {
                t.lock_acquire(1);
                if nested {
                    t.lock_acquire(2);
                }
                let c = t.read(&counter, 0);
                if nested {
                    t.lock_release(2);
                }
                t.write(&counter, 0, c + 1);
                seen.fetch_max(c + 1, Ordering::Relaxed);
                t.lock_release(1);
            }
            if faults(t) > before {
                learners.fetch_add(1, Ordering::Relaxed);
            }
        });
        top.load(Ordering::Relaxed)
    });
    let learners = faulted.load(Ordering::Relaxed);
    (out, learners)
}

#[test]
fn a_counter_chain_asks_only_at_each_nodes_first_fault() {
    // A node's first fault asks the last holder, whose interval dominates
    // the page's missing notices, and subscribes the page to the lock.
    // From then on every release attaches its write of the counter, and
    // every fault finds the diffs it needs held.
    let (short, long) = (chain(10, false), chain(30, false));
    for ((out, learners), tenures) in [(&short, 10), (&long, 30)] {
        assert_eq!(out.result, (N * tenures) as u64);
        assert_eq!(diff_reqs(out), *learners, "{:?}", out.dsm);
        assert_eq!(out.dsm.diff_refetches, 0);
    }
    let (long, learners) = long;
    assert!(long.dsm.read_faults > 2 * learners, "{:?}", long.dsm);
    assert!(long.dsm.diff_bytes_attached > short.0.dsm.diff_bytes_attached);
}

#[test]
fn a_fault_under_nested_locks_subscribes_the_inner_one() {
    // The counter is read under lock 2 and written after it is released,
    // so the write closes with lock 1's release. Subscribed to lock 2
    // only, the page never rides a grant: every fault asks.
    let (out, _) = chain(10, true);
    assert_eq!(out.result, (N * 10) as u64);
    assert_eq!(out.dsm.diff_bytes_attached, 0, "{:?}", out.dsm);
    assert_eq!(diff_reqs(&out), out.dsm.read_faults);
}

/// Round `PHASE` on, only node 0 still reads and adds to the counter,
/// unless every node does for all `rounds` (`all_read`).
const PHASE: usize = 4;

/// `rounds` rounds of turns on lock 1, node by node. A node waits for its
/// turn by taking the lock, reading the counter (while it still reads it)
/// and then the turn word outside the lock, so only the counter's page is
/// subscribed. On its turn it adds one to the counter (while it still
/// reads it) and passes the turn. Returns the bytes node 0 attached from
/// round `PHASE` on.
fn turns(rounds: usize, all_read: bool) -> RunOutcome<u64> {
    run_system(TmkConfig::fast_test(N), move |tmk| {
        let counter = tmk.malloc_vec::<u64>(PAGE);
        let turn = tmk.malloc_vec::<u64>(PAGE);
        let attached = Arc::new(AtomicU64::new(0));
        let late = attached.clone();
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let bytes = |t: &Tmk| t.metrics().op(TmkOp::DiffBytesAttached).get();
            let mut round = 0;
            let mut from = bytes(t);
            while round < rounds {
                let reads = me == 0 || all_read || round < PHASE;
                t.lock_acquire(1);
                if reads {
                    t.read(&counter, 0);
                }
                t.lock_release(1);
                let mine = (round * N + me) as u64;
                if t.read(&turn, 0) != mine {
                    continue;
                }
                t.lock_acquire(1);
                if reads {
                    let c = t.read(&counter, 0);
                    t.write(&counter, 0, c + 1);
                }
                t.write(&turn, 0, mine + 1);
                t.lock_release(1);
                round += 1;
                if round == PHASE {
                    from = bytes(t);
                }
            }
            if me == 0 {
                late.store(bytes(t) - from, Ordering::Relaxed);
            }
        });
        attached.load(Ordering::Relaxed)
    })
}

#[test]
fn a_node_that_stops_reading_the_page_loses_its_subscription() {
    // Round PHASE on, nodes 1 to 3 only pass the turn. Each is delivered
    // node 0's next write and leaves it unread, which drops the page at
    // its release: node 0 attaches its write once, and then no more.
    let (short, long) = (turns(PHASE + 3, false), turns(PHASE + 6, false));
    assert!(short.result > 0, "{:?}", short.dsm);
    assert_eq!(short.result, long.result);
    // Had they kept reading, every later write of node 0 would ride.
    let (short, long) = (turns(PHASE + 3, true), turns(PHASE + 6, true));
    assert!(
        long.result > short.result,
        "{:?}",
        (short.result, long.result)
    );
}
