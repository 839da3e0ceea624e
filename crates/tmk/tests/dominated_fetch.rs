//! A read fault asks the writers whose notices dominate the page's
//! missing set, not every past writer: one request per fault down a lock
//! chain, every concurrent writer in one round, and a re-request to the
//! creator when a dominating writer never applied the diff (push-write).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmk::{run_system, TmkConfig, TmkOp};

fn diff_reqs<R>(out: &tmk::RunOutcome<R>) -> u64 {
    out.net.kind("diff_req").map_or(0, |k| k.send_msgs)
}

#[test]
fn lock_chain_costs_one_request_per_fault() {
    // Four nodes take turns on one lock-protected counter: whoever faults
    // on its page finds the last holder's interval dominating every
    // missing notice, and that holder applied them all before writing.
    // That is a node's first fault; it also subscribes the page to the
    // lock, so every later one finds the chain's diffs held, delivered
    // with the grant, and asks nobody (lock_updates.rs). A node whose
    // tenures all follow its own never faults in the region, and the
    // master's read after it faults unless the master held the lock last.
    let faulted = Arc::new(AtomicU64::new(0));
    let learners = faulted.clone();
    let out = run_system(TmkConfig::fast_test(4), move |tmk| {
        let counter = tmk.malloc_scalar::<u64>(0);
        let learners = learners.clone();
        tmk.parallel(0, move |t| {
            let before = faults(t);
            for _ in 0..25 {
                t.lock_acquire(1);
                let c = counter.get(t);
                counter.set(t, c + 1);
                t.lock_release(1);
            }
            if faults(t) > before {
                learners.fetch_add(1, Ordering::Relaxed);
            }
        });
        let before = faults(tmk);
        (counter.get(tmk), faults(tmk) - before)
    });
    let (count, last_read) = out.result;
    let learners = faulted.load(Ordering::Relaxed);
    assert_eq!(count, 100);
    assert!(out.dsm.read_faults > learners + last_read);
    assert_eq!(
        diff_reqs(&out),
        learners + last_read,
        "one request per first fault and the last read: {:?}",
        out.dsm
    );
    assert_eq!(out.dsm.diff_refetches, 0);
    assert!(
        out.dsm.diff_bytes_retained > 0,
        "holders kept what they applied"
    );
}

/// Read faults the calling node has taken so far.
fn faults(t: &tmk::Tmk) -> u64 {
    t.metrics().op(TmkOp::ReadFaults).get()
}

#[test]
fn concurrent_writers_are_fetched_in_one_round() {
    // Nodes 1..=3 write disjoint words of one page between two barriers:
    // no interval dominates another, so the master's one fault asks all
    // three at once and nobody comes back short.
    let out = run_system(TmkConfig::fast_test(4), |tmk| {
        let v = tmk.malloc_vec::<u64>(512);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            if me > 0 {
                for i in 0..8 {
                    t.write(&v, me * 8 + i, (me * 100 + i) as u64);
                }
            }
        });
        tmk.read_slice(&v, 0..32)
    });
    let want: Vec<u64> = (0..32)
        .map(|i| {
            if i < 8 {
                0
            } else {
                ((i / 8) * 100 + i % 8) as u64
            }
        })
        .collect();
    assert_eq!(out.result, want);
    assert_eq!(out.dsm.read_faults, 1);
    assert_eq!(diff_reqs(&out), 3, "one request per concurrent writer");
    assert_eq!(out.dsm.diff_refetches, 0, "all three in the first round");
}

#[test]
fn push_writer_comes_back_short_and_the_creator_is_asked() {
    // Node 2 push-writes the page without fetching node 1's earlier diff,
    // yet its interval dominates node 1's: asked for both, it returns its
    // own only, and the master re-requests node 1's from node 1.
    let out = run_system(TmkConfig::fast_test(3), |tmk| {
        let v = tmk.malloc_vec::<u64>(512);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                t.write(&v, 0, 11);
            }
        });
        tmk.parallel(0, move |t| {
            if t.proc_id() == 2 {
                t.write_slice_push(&v, 8, &[22]);
            }
        });
        tmk.read_slice(&v, 0..16)
    });
    assert_eq!((out.result[0], out.result[8]), (11, 22));
    assert!(out
        .result
        .iter()
        .enumerate()
        .all(|(i, &x)| x == 0 || i % 8 == 0));
    assert_eq!(out.dsm.push_writes, 1);
    assert_eq!(out.dsm.read_faults, 1);
    assert_eq!(out.dsm.diff_refetches, 1);
    assert_eq!(diff_reqs(&out), 2, "the push-writer, then the creator");
}

#[test]
fn retained_diffs_survive_gc_stress() {
    // GC at every barrier, with lock chains (retained diffs) and false
    // sharing (concurrent writers) on the same pages between barriers.
    let mut cfg = TmkConfig::fast_test(4);
    cfg.gc_every_barrier = true;
    let out = run_system(cfg, |tmk| {
        let counter = tmk.malloc_scalar::<u64>(0);
        let slots = tmk.malloc_vec::<u64>(4 * 8);
        for round in 0..6usize {
            tmk.parallel(0, move |t| {
                let me = t.proc_id();
                for _ in 0..5 {
                    t.lock_acquire(7);
                    let c = counter.get(t);
                    counter.set(t, c + 1);
                    t.lock_release(7);
                }
                let prev = if round > 0 {
                    t.read(&slots, me * 8 + round - 1)
                } else {
                    0
                };
                t.write(&slots, me * 8 + round, prev + (me * 10 + round) as u64);
            });
        }
        (counter.get(tmk), tmk.read_slice(&slots, 0..32))
    });
    let (count, slots) = out.result;
    assert_eq!(count, 4 * 5 * 6);
    for me in 0..4usize {
        let mut acc = 0u64;
        for round in 0..6usize {
            acc += (me * 10 + round) as u64;
            assert_eq!(slots[me * 8 + round], acc, "node {me} round {round}");
        }
    }
    assert!(out.dsm.gc_runs > 0);
    assert!(out.dsm.diff_bytes_retained > 0);
}

#[test]
fn a_full_page_fetch_is_one_read_fault() {
    // The GC at the interior barrier after node 1's write drops the
    // master's unfetched notice for it, so the master's read after the
    // region is served by a full-page copy from the owner alone — still
    // one read fault, and no diff request. (The GC round the join calls
    // would run at a next fork, and the job has none.)
    let mut cfg = TmkConfig::fast_test(2);
    cfg.gc_every_barrier = true;
    let out = run_system(cfg, |tmk| {
        let v = tmk.malloc_vec::<u64>(512);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                t.write(&v, 3, 7);
            }
            t.barrier();
        });
        let count = |t: &tmk::Tmk| (faults(t), t.metrics().op(TmkOp::PageFetches).get());
        let before = count(tmk);
        let x = tmk.read(&v, 3);
        let after = count(tmk);
        (x, after.0 - before.0, after.1 - before.1)
    });
    assert_eq!(out.result, (7, 1, 1));
    assert_eq!(diff_reqs(&out), 0);
}
