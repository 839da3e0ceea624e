//! Message-count properties of the synchronization primitives — the
//! quantitative core of the paper's §3 argument. Each operation is pinned
//! by the kind of every message it sends, not only by their total.

use std::collections::BTreeMap;
use tmk::TmkConfig;

/// Messages sent, by wire kind (kinds that sent none are left out).
type Kinds = BTreeMap<&'static str, f64>;

/// The per-kind messages one run of `master` sends on `nodes` nodes.
fn kind_msgs(nodes: usize, master: impl FnOnce(&mut tmk::Tmk) + Send + 'static) -> Kinds {
    let out = tmk::run_system(TmkConfig::fast_test(nodes), master);
    out.net
        .per_kind
        .iter()
        .filter(|k| k.send_msgs > 0)
        .map(|k| (k.kind, k.send_msgs as f64))
        .collect()
}

/// Per-kind messages attributable to one repetition of a region step:
/// run `region(t, reps)` and `region(t, 0)` and difference kind by kind.
fn marginal(
    nodes: usize,
    reps: u64,
    region: impl Fn(&mut tmk::Tmk, u64) + Send + Sync + Clone + 'static,
) -> Kinds {
    let run = |k: u64| {
        let region = region.clone();
        kind_msgs(nodes, move |t| t.parallel(0, move |t| region(t, k)))
    };
    let (base, with) = (run(0), run(reps));
    let mut delta = with;
    for (kind, m) in base {
        *delta.entry(kind).or_default() -= m;
    }
    delta.retain(|_, m| *m != 0.0);
    delta.values_mut().for_each(|m| *m /= reps as f64);
    delta
}

/// Per-kind messages attributable to one `op` on node 0.
fn marginal_msgs(
    nodes: usize,
    reps: u64,
    op: impl Fn(&mut tmk::Tmk) + Send + Sync + Clone + 'static,
) -> Kinds {
    marginal(nodes, reps, move |t, k| {
        if t.proc_id() == 0 {
            for _ in 0..k {
                op(t);
            }
        }
    })
}

/// The table of `(kind, messages)` rows.
fn kinds(rows: &[(&'static str, usize)]) -> Kinds {
    rows.iter().map(|&(k, m)| (k, m as f64)).collect()
}

#[test]
fn flush_costs_exactly_2_n_minus_1_messages() {
    for nodes in [2usize, 4, 8] {
        let per = marginal_msgs(nodes, 10, |t| t.flush());
        // A flush with nothing new to report is pure synchronization:
        // one notice + one ack per peer (§3.2.4 of the paper).
        let want = kinds(&[("flush_ack", nodes - 1), ("flush_notice", nodes - 1)]);
        assert_eq!(per, want, "flush at {nodes} nodes");
    }
}

#[test]
fn semaphore_ops_cost_two_messages_regardless_of_nodes() {
    for nodes in [2usize, 4, 8] {
        // Signal then wait on a semaphore managed by another node:
        // 2 messages each (request + ack/grant), independent of n.
        let per = marginal_msgs(nodes, 10, |t| {
            t.sema_signal(1); // manager = node 1
            t.sema_wait(1);
        });
        let want = kinds(&[
            ("sema_ack", 1),
            ("sema_grant", 1),
            ("sema_signal", 1),
            ("sema_wait", 1),
        ]);
        assert_eq!(per, want, "sema signal+wait at {nodes} nodes");
    }
}

#[test]
fn remote_lock_acquire_release_costs_three_messages() {
    for nodes in [2usize, 4] {
        let per = marginal_msgs(nodes, 10, |t| {
            t.lock_acquire(1); // managed by node 1; we are node 0
            t.lock_release(1);
        });
        let want = kinds(&[("lock_acq", 1), ("lock_grant", 1), ("lock_rel", 1)]);
        assert_eq!(per, want, "lock acquire+release at {nodes} nodes");
    }
}

#[test]
fn manager_local_lock_is_free() {
    // Node 0 acquiring a lock it manages itself: loopback only.
    let per = marginal_msgs(4, 10, |t| {
        t.lock_acquire(0); // 0 % 4 == node 0 == the caller
        t.lock_release(0);
    });
    assert_eq!(
        per,
        Kinds::new(),
        "self-managed lock must not touch the wire"
    );
}

#[test]
fn barrier_costs_two_messages_per_remote_node() {
    for nodes in [2usize, 4, 8] {
        // Arrival + departure per non-manager node per episode.
        let per = marginal(nodes, 10, |t, k| {
            for _ in 0..k {
                t.barrier();
            }
        });
        let want = kinds(&[("barrier_arrive", nodes - 1), ("barrier_depart", nodes - 1)]);
        assert_eq!(per, want, "barrier at {nodes} nodes");
    }
}

#[test]
fn condvar_wakeup_is_constant_messages() {
    // cond_signal + the waiter's re-acquire: a small constant, not Θ(n).
    for nodes in [2usize, 4, 8] {
        let msgs = kind_msgs(nodes, |tmk| {
            let flag = tmk.malloc_scalar::<u32>(0);
            tmk.parallel(0, move |t| {
                // Node 1 takes the lock before the barrier, so it always
                // waits and node 0's signal always finds it waiting.
                if t.proc_id() == 1 {
                    t.lock_acquire(3);
                }
                t.barrier();
                if t.proc_id() == 1 {
                    while flag.get(t) == 0 {
                        t.cond_wait(3, 0);
                    }
                    t.lock_release(3);
                } else if t.proc_id() == 0 {
                    t.lock_acquire(3);
                    flag.set(t, 1);
                    t.cond_signal(3, 0);
                    t.lock_release(3);
                }
            });
        });
        // The wakeup's own traffic. With 2 nodes lock 3's manager is the
        // waiter itself, whose messages to it never touch the wire.
        let mut sync = msgs.clone();
        sync.retain(|k, _| k.starts_with("lock_") || k.starts_with("cond_"));
        let want = if nodes == 2 {
            kinds(&[
                ("cond_signal", 1),
                ("lock_acq", 1),
                ("lock_grant", 1),
                ("lock_rel", 1),
            ])
        } else {
            kinds(&[
                ("cond_signal", 1),
                ("cond_wait", 1),
                ("lock_acq", 2),
                ("lock_grant", 3),
                ("lock_rel", 2),
            ])
        };
        assert_eq!(sync, want, "condvar wakeup at {nodes} nodes");
        // Whole program traffic stays small and roughly flat in n (fork
        // and barriers scale with n; the wakeup itself does not).
        let total: f64 = msgs.values().sum();
        assert!(
            total < (40 + 6 * nodes) as f64,
            "condvar wakeup traffic blew up at {nodes} nodes: {total}"
        );
    }
}
