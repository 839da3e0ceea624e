//! Updates ride the barrier: a node subscribes to the pages it takes read
//! faults on or twins, writers attach their diffs of those pages to the
//! next arrival, and the departure hands them over, so a fault that finds
//! every missing diff held sends no request. A node's first barrier in a
//! job attaches its diffs of the pages it subscribes to on speculation.
//! A fork is the master's release of its sequential section: after a
//! join it attaches the master's diffs for the join's subscribers, and
//! the job's first fork attaches them all, to every slave, on
//! speculation.
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

/// Both nodes write their half of one page in epoch 0, which subscribes
/// it on both; then `later` epochs in which node 0 alone writes its half
/// again, with GC at every barrier or none.
fn one_writer_after_two(later: u64, gc: bool) -> RunOutcome<()> {
    let mut cfg = TmkConfig::fast_test(2);
    cfg.gc_every_barrier = gc;
    run_system(cfg, move |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let half = me * PAGE / 2..(me + 1) * PAGE / 2;
            t.view_mut(&v, half.clone(), |c| c.fill(1));
            t.barrier();
            for e in 0..later {
                if me == 0 {
                    t.view_mut(&v, half.clone(), |c| c.fill(e + 2));
                }
                t.barrier();
            }
        });
    })
}

#[test]
fn a_gc_validation_does_not_subscribe() {
    // The first barrier trades both halves on speculation, and its GC
    // round has the page's owner, node 1, apply node 0's delivered diff
    // to validate the page. Node 1 never reads the page, so that is no
    // read: its subscription ends, and node 0's later writes stop riding
    // after one more epoch, as they do with GC off.
    let bytes = |later, gc| one_writer_after_two(later, gc).dsm.diff_bytes_attached;
    let gc = one_writer_after_two(3, true);
    assert!(
        gc.dsm.gc_runs > 0 && gc.dsm.diffs_applied > 0,
        "{:?}",
        gc.dsm
    );
    assert_eq!(gc.dsm.diff_bytes_attached, bytes(8, true), "{:?}", gc.dsm);
    assert_eq!(bytes(3, false), bytes(8, false));
    assert!(bytes(0, true) < bytes(3, true));
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
    // The master writes word 0 of a page before region 1, and the job's
    // first fork carries that diff on speculation: node 1's read of it
    // there faults and finds it held. The fault subscribes the page, and
    // the interior barrier publishes that to the master, whose write of
    // word 1 after it is attached to its join arrival. The one-way join
    // keeps the diff for node 1 and the next fork delivers it, so node
    // 1's read in region 2 finds it held too, and nobody is asked.
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
    assert_eq!(diff_reqs(&out), 0, "{:?}", out.dsm);
    assert!(out.dsm.diff_bytes_attached > 0);
}

/// Node 1 reads word 0 of a page in region 1, which subscribes it, and
/// the master writes word 1 between the regions when `between`; node 1
/// reads both words in region 2. GC at every barrier with `gc`: the join
/// then starts a round that runs at the second fork.
fn master_writes_between_regions(between: bool, gc: bool) -> RunOutcome<()> {
    let mut cfg = TmkConfig::fast_test(2);
    cfg.gc_every_barrier = gc;
    run_system(cfg, move |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.write(&v, 0, 1);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                assert_eq!(t.read(&v, 0), 1);
            }
        });
        if between {
            tmk.write(&v, 1, 2);
        }
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                assert_eq!(t.read_slice(&v, 0..2), [1, u64::from(between) * 2]);
            }
        });
    })
}

#[test]
fn a_later_fork_releases_the_sequential_section_to_its_subscribers() {
    // Node 1's read in region 1 finds the first fork's speculative diff
    // held and subscribes the page, which its join arrival reports. The
    // second fork releases the master's write between the regions: it
    // attaches the diff for node 1, whose read in region 2 finds it held.
    let (quiet, wrote) = (
        master_writes_between_regions(false, false),
        master_writes_between_regions(true, false),
    );
    assert_eq!((quiet.dsm.read_faults, wrote.dsm.read_faults), (1, 2));
    assert_eq!(diff_reqs(&quiet) + diff_reqs(&wrote), 0, "{:?}", wrote.dsm);
    // Each of the master's diffs (one changed byte, 13 wire bytes) is
    // attached once, at its fork: the master's next arrival leaves it out.
    for out in [&quiet, &wrote] {
        let once = 13 * out.dsm.diffs_created;
        assert_eq!(out.dsm.diff_bytes_attached, once, "{:?}", out.dsm);
    }
    // A fork that runs the join's GC round attaches nothing: the round
    // drops the master's diff, and node 1's read fetches the page.
    let (quiet, wrote) = (
        master_writes_between_regions(false, true),
        master_writes_between_regions(true, true),
    );
    assert!(wrote.dsm.gc_runs > 0, "{:?}", wrote.dsm);
    assert_eq!(wrote.dsm.diff_bytes_attached, quiet.dsm.diff_bytes_attached);
    assert_eq!(diff_reqs(&wrote), 0, "{:?}", wrote.dsm);
    assert_eq!(wrote.dsm.page_fetches, 1, "{:?}", wrote.dsm);
}

#[test]
fn writers_of_one_page_trade_their_diffs_at_the_first_barrier() {
    // Each node writes every fourth word of one page, so each twin
    // subscribes the page and the first barrier attaches every writer's
    // diff: each node's read after it faults and finds the other three
    // diffs held.
    let out = run_system(TmkConfig::fast_test(N), |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            t.view_mut(&v, 0..PAGE, |c| {
                c.iter_mut()
                    .skip(me)
                    .step_by(N)
                    .for_each(|x| *x = me as u64 + 1);
            });
            t.barrier();
            let seen = t.read_slice(&v, 0..PAGE);
            assert!(seen
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i % N) as u64 + 1));
        });
    });
    assert_eq!(out.dsm.read_faults, N as u64, "{:?}", out.dsm);
    assert_eq!(diff_reqs(&out), 0, "{:?}", out.dsm);
}

#[test]
fn a_jacobi_sweep_fetches_nothing() {
    // jacobi.omp's pattern: the master writes both arrays' end cells
    // before the region, then each sweep reads the neighbours' cells of
    // one array and writes the node's block of the other, which shares
    // its page with one neighbour's, and the arrays swap every epoch.
    // Nothing is fetched. The job's first fork carries the master's
    // diffs of its sequential interval to every slave on speculation.
    // The blocks' twins subscribe their shared pages, the first barrier
    // trades them on speculation, and the read faults that find the
    // fork's diffs held subscribe the rest. (Each node checks its own
    // block: the master's read of the others' after the region would
    // fetch them.)
    const BLOCK: usize = PAGE / 2;
    const CELLS: usize = N * BLOCK;
    const SWEEPS: usize = 6;
    let step = |u: &[u64], i: usize| u[i - 1].wrapping_mul(3).wrapping_add(u[i + 1]);
    let mut want = vec![0u64; CELLS];
    (want[0], want[CELLS - 1]) = (1, 2);
    for _ in 0..SWEEPS {
        let next: Vec<u64> = (1..CELLS - 1).map(|i| step(&want, i)).collect();
        want[1..CELLS - 1].copy_from_slice(&next);
    }
    let out = run_system(TmkConfig::fast_test(N), move |tmk| {
        let (u, unew) = (tmk.malloc_vec::<u64>(CELLS), tmk.malloc_vec::<u64>(CELLS));
        for v in [&u, &unew] {
            tmk.write(v, 0, 1);
            tmk.write(v, CELLS - 1, 2);
        }
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let block = (me * BLOCK).max(1)..((me + 1) * BLOCK).min(CELLS - 1);
            for _ in 0..SWEEPS {
                let around = t.read_slice(&u, block.start - 1..block.end + 1);
                let next: Vec<u64> = (1..around.len() - 1).map(|i| step(&around, i)).collect();
                t.write_slice(&unew, block.start, &next);
                t.barrier();
                let mine = t.read_slice(&unew, block.clone());
                t.write_slice(&u, block.start, &mine);
                t.barrier();
            }
            assert_eq!(t.read_slice(&u, block.clone()), want[block]);
        });
    });
    assert_eq!(diff_reqs(&out), 0, "{:?}", out.dsm);
    assert_eq!(out.dsm.diff_refetches, 0);
}

/// Node 0 twins its half of one page and node 1 writes its own half,
/// with `push` as a push-write; a barrier, and both read the page.
fn halves(push: bool) -> RunOutcome<()> {
    run_system(TmkConfig::fast_test(2), move |tmk| {
        let v = tmk.malloc_vec::<u64>(PAGE);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let fill = vec![me as u64 + 1; PAGE / 2];
            match (me, push) {
                (1, true) => t.write_slice_push(&v, PAGE / 2, &fill),
                _ => t.write_slice(&v, me * PAGE / 2, &fill),
            }
            t.barrier();
            let seen = t.read_slice(&v, 0..PAGE);
            assert!(seen
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i / (PAGE / 2)) as u64 + 1));
        });
    })
}

#[test]
fn a_push_write_subscribes_nothing() {
    // Twinned, both halves ride the first barrier and nobody asks. Node
    // 1's push-write subscribes nothing: it attaches nothing, node 0's
    // diff is attached for nobody, and each node's read asks the other.
    let (twin, push) = (halves(false), halves(true));
    assert_eq!(diff_reqs(&twin), 0, "{:?}", twin.dsm);
    assert_eq!(diff_reqs(&push), 2, "{:?}", push.dsm);
    let attached = push.dsm.diff_bytes_attached;
    assert_eq!(2 * attached, twin.dsm.diff_bytes_attached);
}
