//! Updates ride the barrier: a node subscribes to the pages it takes read
//! faults on, writers attach their diffs of those pages to the next
//! arrival, and the departure hands them over, so a fault that finds
//! every missing diff held sends no request.
//!
//! The program is jacobi's period-2 pattern without its false sharing:
//! two arrays of one page per node; each sweep reads the right
//! neighbour's page of one array and writes the node's own page of the
//! other, and the arrays swap every sweep. A page is read every second
//! epoch, which a "faulted in the previous epoch" rule would never
//! predict.

use tmk::{run_system, RunOutcome, TmkConfig};

/// `u64`s in one 4 KiB page.
const PAGE: usize = 512;
/// Nodes.
const N: usize = 4;

fn diff_reqs<R>(out: &RunOutcome<R>) -> u64 {
    out.net.kind("diff_req").map_or(0, |k| k.send_msgs)
}

/// `sweeps` alternating sweeps, then `idle` epochs in which every node
/// still writes its page of the first array but nobody reads.
fn sweep(sweeps: usize, idle: usize) -> RunOutcome<()> {
    run_system(TmkConfig::fast_test(N), move |tmk| {
        let arrays = [
            tmk.malloc_vec::<u64>(N * PAGE),
            tmk.malloc_vec::<u64>(N * PAGE),
        ];
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let right = (me + 1) % N;
            let page = |k: usize| k * PAGE..(k + 1) * PAGE;
            for s in 0..sweeps {
                let (src, dst) = (&arrays[s % 2], &arrays[(s + 1) % 2]);
                let seen = t.read_slice(src, page(right));
                let want = if s == 0 { 0 } else { (s * N + right) as u64 };
                assert!(seen.iter().all(|&x| x == want), "sweep {s} read {seen:?}");
                t.view_mut(dst, page(me), |c| c.fill((s * N + N + me) as u64));
                t.barrier();
            }
            for e in 0..idle {
                t.view_mut(&arrays[0], page(me), |c| c.fill(e as u64));
                t.barrier();
            }
        });
    })
}

#[test]
fn an_alternating_sweep_faults_without_requests_after_two_epochs() {
    let (short, long) = (sweep(6, 0), sweep(12, 0));
    // Sweep 0 reads a page nobody wrote. Sweeps 1 and 2 fault on each
    // array once per node, one request each: the learning faults. Every
    // later fault finds the neighbour's diff held.
    for (out, sweeps) in [(&short, 6), (&long, 12)] {
        assert_eq!(out.dsm.read_faults, (N * (sweeps - 1)) as u64);
        assert_eq!(diff_reqs(out), 2 * N as u64, "{:?}", out.dsm);
        assert_eq!(out.dsm.diff_refetches, 0);
    }
    assert!(long.dsm.diff_bytes_attached > short.dsm.diff_bytes_attached);
}

#[test]
fn an_update_that_goes_unread_ends_its_subscription() {
    // After the sweeps each node keeps writing its page but nobody reads:
    // the first unread update drops the subscription at the next arrival,
    // and the epoch after that attaches nothing more.
    let (short, long) = (sweep(6, 4), sweep(6, 8));
    assert!(short.dsm.diff_bytes_attached > sweep(6, 0).dsm.diff_bytes_attached);
    assert_eq!(short.dsm.diff_bytes_attached, long.dsm.diff_bytes_attached);
    assert_eq!(diff_reqs(&short), diff_reqs(&long));
    assert_eq!(short.dsm.read_faults, long.dsm.read_faults);
}

#[test]
fn a_gc_validation_does_not_subscribe() {
    // Both nodes write their half of one page in epoch 0, so the GC
    // round of the first barrier has the owner, node 1, fetch node 0's
    // half. Node 1's application never reads the page: node 0's later
    // writes must not ride a barrier to it.
    let mut cfg = TmkConfig::fast_test(2);
    cfg.gc_every_barrier = true;
    let out = run_system(cfg, |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let half = me * PAGE / 2..(me + 1) * PAGE / 2;
            t.view_mut(&v, half.clone(), |c| c.fill(1));
            t.barrier();
            for e in 0..3 {
                if me == 0 {
                    t.view_mut(&v, half.clone(), |c| c.fill(e + 2));
                }
                t.barrier();
            }
        });
    });
    assert!(
        out.dsm.gc_runs > 0 && out.dsm.diffs_applied > 0,
        "{:?}",
        out.dsm
    );
    assert_eq!(out.dsm.diff_bytes_attached, 0, "{:?}", out.dsm);
}

#[test]
fn a_sibling_diff_left_unread_keeps_the_subscription() {
    // Node 1 writes page Q, node 0 reads it: Q is subscribed. Then one
    // interval of node 1 writes P and Q, handed over by a semaphore, not
    // a barrier: node 0's fault on P also asks for Q, a sibling, whose
    // diff is held while Q goes unread to the next arrival. Only what a
    // departure delivered and went unread ends a subscription, so the
    // second half node 1 writes next rides barrier 3, and no fault after
    // the one on P sends a request.
    let out = run_system(TmkConfig::fast_test(2), |tmk| {
        let v = tmk.malloc_vec::<u64>(2 * PAGE);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let (p, q) = (0..PAGE, PAGE..2 * PAGE);
            let half = PAGE + PAGE / 2;
            let holds = |t: &mut tmk::Tmk, r: std::ops::Range<usize>, x: u64| {
                assert!(t.read_slice(&v, r).iter().all(|&y| y == x));
            };
            if me == 1 {
                t.view_mut(&v, q.clone(), |c| c.fill(1));
            }
            t.barrier();
            if me == 0 {
                holds(t, q.clone(), 1); // the learning fault
            }
            t.barrier();
            if me == 1 {
                t.view_mut(&v, 0..half, |c| c.fill(2));
                t.sema_signal(0);
            } else {
                t.sema_wait(0);
                holds(t, p, 2); // asks for P and its sibling Q
            }
            t.barrier();
            if me == 1 {
                t.view_mut(&v, half..2 * PAGE, |c| c.fill(3));
            } else {
                holds(t, PAGE..half, 2); // the sibling diff, held
            }
            t.barrier();
            if me == 0 {
                holds(t, PAGE..half, 2);
                holds(t, half..2 * PAGE, 3); // barrier 3's update
            }
        });
    });
    assert_eq!(out.dsm.read_faults, 4, "{:?}", out.dsm);
    assert_eq!(diff_reqs(&out), 2, "{:?}", out.dsm);
    assert_eq!(out.dsm.diff_refetches, 0);
}

#[test]
fn a_joins_riders_ride_the_next_fork() {
    // The master writes word 0 of a page before region 1, so node 1's
    // read of it there faults and asks the master: the one request. The
    // fault subscribes the page, and the interior barrier publishes that
    // to the master, whose write of word 1 after it is attached to its
    // join arrival. The one-way join keeps the diff for node 1 and the
    // next fork delivers it, so node 1's read in region 2 finds it held
    // and asks nobody.
    let out = run_system(TmkConfig::fast_test(2), |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.write(&v, 0, 1);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                assert_eq!(t.read(&v, 0), 1);
            }
            t.barrier();
            if t.proc_id() == 0 {
                t.write(&v, 1, 2);
            }
        });
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                assert_eq!(t.read_slice(&v, 0..2), [1, 2]);
            }
        });
    });
    assert_eq!(out.dsm.read_faults, 2, "{:?}", out.dsm);
    assert_eq!(diff_reqs(&out), 1, "{:?}", out.dsm);
    assert!(out.dsm.diff_bytes_attached > 0);
}
