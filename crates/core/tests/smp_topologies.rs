//! SMP-cluster execution: the two-level runtime on `nodes × threads_per_node`
//! topologies. Equal total parallelism must produce identical results on
//! any topology, with strictly fewer DSM messages as threads move
//! on-node — and zero remote messages on a single SMP node.

use nomp::{run, OmpConfig, RedOp, Schedule, TaskArgs, TaskScopeConfig};

const TOPOS: [(usize, usize); 5] = [(1, 4), (2, 2), (4, 2), (2, 4), (3, 2)];

#[test]
fn parallel_region_runs_every_global_thread() {
    for (nodes, tpn) in TOPOS {
        let p = nodes * tpn;
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            assert_eq!(omp.num_threads(), p);
            let v = omp.malloc_vec::<u64>(p);
            omp.parallel(move |t| {
                assert_eq!(t.num_threads(), p);
                let me = t.thread_num();
                t.write(&v, me, me as u64 + 1);
            });
            omp.read_slice(&v, 0..p)
        });
        let expect: Vec<u64> = (1..=p as u64).collect();
        assert_eq!(out.result, expect, "{nodes}x{tpn}");
    }
}

#[test]
fn global_ids_are_node_major() {
    let (nodes, tpn) = (3, 2);
    let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
        let v = omp.malloc_vec::<u64>(nodes * tpn);
        omp.parallel(move |t| {
            let me = t.thread_num();
            assert_eq!(me, t.node_id() * t.threads_per_node() + t.local_tid());
            let tag = (t.node_id() * 100 + t.local_tid()) as u64;
            t.write(&v, me, tag);
        });
        omp.read_slice(&v, 0..nodes * tpn)
    });
    assert_eq!(out.result, vec![0, 1, 100, 101, 200, 201]);
}

#[test]
fn reduction_publishes_once_per_node() {
    for (nodes, tpn) in TOPOS {
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), |omp| {
            omp.parallel_reduce(
                Schedule::Static,
                0..1000,
                RedOp::Sum,
                |_t, i, acc: &mut u64| {
                    *acc += i as u64;
                },
            )
        });
        assert_eq!(out.result, 499_500, "{nodes}x{tpn}");
        // The team combines in node shared memory; one thread per node
        // contributes the node total, which rides the join's arrival: no
        // lock, and no message beyond the fork and the join. The join is
        // one-way: it departs the master alone, a free self-send.
        assert_eq!(out.dsm.lock_acquires, 0, "{nodes}x{tpn}: no lock");
        let slaves = nodes as u64 - 1;
        assert_eq!(
            out.net.total_msgs(),
            2 * slaves,
            "{nodes}x{tpn}: one fork and one arrival per slave"
        );
    }
}

#[test]
fn barrier_makes_single_updates_visible() {
    for (nodes, tpn) in TOPOS {
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            let v = omp.malloc_scalar::<u64>(0);
            omp.parallel(move |t| {
                t.single(|t| v.set(t, 42));
                // After single's implied (two-level) barrier every thread
                // on every node sees the value.
                assert_eq!(v.get(t), 42);
            });
            v.get(omp)
        });
        assert_eq!(out.result, 42, "{nodes}x{tpn}");
    }
}

#[test]
fn explicit_barriers_order_phases() {
    for (nodes, tpn) in [(2, 2), (2, 4)] {
        let p = nodes * tpn;
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            let a = omp.malloc_vec::<u64>(p);
            let b = omp.malloc_vec::<u64>(p);
            omp.parallel(move |t| {
                let me = t.thread_num();
                t.write(&a, me, me as u64 + 1);
                t.barrier();
                // Phase 2 reads a neighbor's phase-1 write.
                let peer = (me + 1) % t.num_threads();
                let x = t.read(&a, peer);
                t.write(&b, me, x);
            });
            omp.read_slice(&b, 0..p)
        });
        for (me, &x) in out.result.iter().enumerate() {
            assert_eq!(x, ((me + 1) % p) as u64 + 1, "{nodes}x{tpn} thread {me}");
        }
    }
}

#[test]
fn dynamic_and_guided_cover_all_iterations() {
    for (nodes, tpn) in TOPOS {
        for sched in [
            Schedule::Dynamic(3),
            Schedule::Dynamic(0),
            Schedule::Guided(2),
            Schedule::StaticChunk(5),
            Schedule::Static,
        ] {
            let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
                let hits = omp.malloc_vec::<u64>(101);
                let lock = nomp::critical_id("cover");
                omp.parallel_for_chunks(sched, 0..101, move |t, r| {
                    for i in r {
                        // Different threads of one node share pages
                        // host-concurrently; serialize the read-modify-
                        // write so the count is exact.
                        t.critical(lock, |t| {
                            let v = t.read(&hits, i);
                            t.write(&hits, i, v + 1);
                        });
                    }
                });
                omp.read_slice(&hits, 0..101)
            });
            assert!(
                out.result.iter().all(|&h| h == 1),
                "{nodes}x{tpn} {sched:?}: {:?}",
                out.result
            );
        }
    }
}

#[test]
fn array_reduction_on_smp_topology() {
    let out = run(OmpConfig::fast_test_smp(2, 3), |omp| {
        omp.parallel_reduce_vec(4, RedOp::Sum, |t, acc: &mut [u64]| {
            let c = t.thread_num() as u64 + 1;
            for a in acc.iter_mut() {
                *a += c;
            }
        })
    });
    // 1+2+3+4+5+6 = 21 in every slot.
    assert_eq!(out.result, vec![21, 21, 21, 21]);
}

#[test]
fn single_smp_node_needs_zero_remote_messages() {
    // 1×8: all eight threads share one workstation — the whole region
    // (fork, loop, reduction, barriers) runs without touching the wire.
    let out = run(OmpConfig::fast_test_smp(1, 8), |omp| {
        let v = omp.malloc_vec::<f64>(512);
        omp.parallel_for(Schedule::Static, 0..512, move |t, i| {
            t.write(&v, i, i as f64);
        });
        omp.parallel_reduce(
            Schedule::Static,
            0..512,
            RedOp::Sum,
            move |t, i, acc: &mut f64| {
                *acc += t.read(&v, i);
            },
        )
    });
    assert_eq!(out.result, (0..512).sum::<usize>() as f64);
    assert_eq!(out.net.total_msgs(), 0, "1x8 must be message-free");
}

#[test]
fn messages_fall_as_threads_move_on_node() {
    // Equal total parallelism (8 threads), same program: moving threads
    // on-node sheds fork/barrier/reduction traffic monotonically.
    let msgs: Vec<u64> = [(8, 1), (4, 2), (2, 4), (1, 8)]
        .into_iter()
        .map(|(nodes, tpn)| {
            let out = run(OmpConfig::fast_test_smp(nodes, tpn), |omp| {
                omp.parallel_reduce(
                    Schedule::Static,
                    0..4096,
                    RedOp::Sum,
                    |_t, i, acc: &mut u64| {
                        *acc += i as u64;
                    },
                )
            });
            assert_eq!(out.result, (0..4096u64).sum::<u64>(), "{nodes}x{tpn}");
            out.net.total_msgs()
        })
        .collect();
    assert!(
        msgs.windows(2).all(|w| w[0] > w[1]),
        "messages must fall strictly as threads move on-node: {msgs:?}"
    );
    assert_eq!(msgs[3], 0, "1x8 is message-free");
}

#[test]
fn task_fib_matches_on_smp_topologies() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    for (nodes, tpn) in [(1, 4), (2, 2), (2, 3), (4, 2)] {
        eprintln!("fib on {nodes}x{tpn}");
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            let acc = omp.malloc_scalar::<u64>(0);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| s.task(TaskArgs::ab(10, 0)));
                },
                move |s, t| {
                    if t.a < 2 {
                        s.critical_named("fib_acc", |th| {
                            let v = acc.get(th);
                            acc.set(th, v + t.a);
                        });
                    } else {
                        s.task(TaskArgs::ab(t.a - 1, 0));
                        s.task(TaskArgs::ab(t.a - 2, 0));
                    }
                },
            );
            acc.get(omp)
        });
        assert_eq!(out.result, fib(10), "{nodes}x{tpn}");
        assert!(out.dsm.tasks_executed > 100, "{nodes}x{tpn}");
    }
}

#[test]
fn taskwait_on_smp_topology() {
    let out = run(OmpConfig::fast_test_smp(2, 2), |omp| {
        let data = omp.malloc_vec::<u64>(32);
        let sum = omp.malloc_scalar::<u64>(0);
        omp.task_scope(
            TaskScopeConfig::default(),
            move |s| {
                s.single(|s| s.task(TaskArgs::ab(u64::MAX, 0)));
            },
            move |s, t| {
                if t.a == u64::MAX {
                    for i in 0..32 {
                        s.task(TaskArgs::ab(i, 0));
                    }
                    s.taskwait();
                    let mut total = 0;
                    for i in 0..32 {
                        total += s.read(&data, i);
                    }
                    sum.set(s, total);
                } else {
                    s.write(&data, t.a as usize, t.a + 1);
                }
            },
        );
        sum.get(omp)
    });
    assert_eq!(out.result, (1..=32).sum::<u64>());
}

#[test]
fn wtime_advances_and_is_consistent_on_smp() {
    let out = run(OmpConfig::paper_smp(2, 2), |omp| {
        let t0 = omp.wtime();
        let v = omp.malloc_vec::<u64>(64);
        omp.parallel(move |t| {
            let w = t.wtime();
            assert!(w >= 0.0);
            let me = t.thread_num();
            t.write(&v, me, me as u64);
        });
        let t1 = omp.wtime();
        (t0, t1)
    });
    let (t0, t1) = out.result;
    assert!(t1 > t0, "wtime must advance across a region ({t0} -> {t1})");
    assert!(t1 <= out.vt_ns as f64 / 1e9 + 1e-9);
}

#[test]
#[should_panic(expected = "not supported inside SMP teams")]
fn sema_wait_is_rejected_in_smp_teams() {
    // A blocked waiter holds the node's protocol gate: the matching
    // signal from a sibling thread could never be sent (confirmed
    // deadlock), so the runtime rejects the paper's semaphore directive
    // on threads_per_node > 1 topologies up front.
    let _ = run(OmpConfig::fast_test_smp(1, 2), |omp| {
        omp.parallel(|t| {
            if t.thread_num() == 0 {
                t.sema_wait(3);
            }
        });
    });
}

#[test]
#[should_panic(expected = "not supported inside SMP teams")]
fn cond_wait_is_rejected_in_smp_teams() {
    let _ = run(OmpConfig::fast_test_smp(1, 2), |omp| {
        omp.parallel(|t| {
            if t.thread_num() == 0 {
                t.cond_wait(3, 0);
            }
        });
    });
}

#[test]
fn smp_parallelism_beats_serial_time_on_one_node() {
    // The same *total* compute on 1×1 vs 1×4: four overlapping lanes
    // must finish in well under the serial virtual time. Perfect scaling
    // would be 4×; asserting merely "faster than ~1.3×" leaves headroom
    // for host-contention noise in the CPU metering when the whole test
    // suite runs in parallel.
    let work = |tpn: usize| {
        run(OmpConfig::paper_smp(1, tpn), move |omp| {
            omp.parallel_reduce(
                Schedule::Static,
                0..800_000,
                RedOp::Sum,
                |_t, i, acc: &mut u64| {
                    // black_box keeps the loop from folding to a closed
                    // form, so both runs measure real per-iteration CPU.
                    let x = std::hint::black_box(i as u64);
                    *acc = acc.wrapping_add(x.wrapping_mul(2_654_435_761).rotate_left(9));
                },
            )
        })
    };
    let serial = work(1);
    let smp = work(4);
    assert_eq!(serial.result, smp.result, "same sum on both topologies");
    assert!(
        smp.vt_ns * 4 < serial.vt_ns * 3,
        "1x4 ({}) must beat 1x1 ({}) on the same total work",
        smp.vt_ns,
        serial.vt_ns
    );
}
