//! Cross-crate semantics tests of the OpenMP layer over the DSM: the
//! directive behaviours the paper's §2–3 define.

use nomp::{run, OmpConfig, RedOp, Schedule, ThreadPrivate};

#[test]
fn default_private_shared_explicit() {
    // Modification 1: a plain variable mutated inside the region is
    // private per thread; only Shared* handles are shared.
    let out = run(OmpConfig::fast_test(3), |omp| {
        let shared = omp.malloc_scalar::<u64>(0);
        omp.parallel(move |t| {
            let mut private = 0u64; // default private
            for _ in 0..=t.thread_num() {
                private += 1;
            }
            // Every thread adds its private count under critical.
            t.critical_named("sum", |t| {
                let v = shared.get(t);
                shared.set(t, v + private);
            });
        });
        shared.get(omp)
    });
    assert_eq!(out.result, 1 + 2 + 3);
}

#[test]
fn firstprivate_initialized_from_master() {
    let out = run(OmpConfig::fast_test(4), |omp| {
        let results = omp.malloc_vec::<i64>(4);
        let init = -7i64; // captured by value = firstprivate
        omp.parallel(move |t| {
            let mut x = init;
            x += t.thread_num() as i64;
            let me = t.thread_num();
            t.write(&results, me, x);
        });
        omp.read_slice(&results, 0..4)
    });
    assert_eq!(out.result, vec![-7, -6, -5, -4]);
}

#[test]
fn threadprivate_persists_across_regions() {
    let out = run(OmpConfig::fast_test(3), |omp| {
        let tp: ThreadPrivate<u64> = ThreadPrivate::new(|| 0);
        let sink = omp.malloc_vec::<u64>(3);
        for _ in 0..3 {
            omp.parallel(move |_t| {
                tp.with(|v| *v += 1);
            });
        }
        omp.parallel(move |t| {
            let me = t.thread_num();
            let v = tp.with(|v| *v);
            t.write(&sink, me, v);
        });
        omp.read_slice(&sink, 0..3)
    });
    // The master thread also runs the quickstart doctests etc. in other
    // tests? No: each run() spawns fresh threads, so exactly 3 increments.
    assert_eq!(out.result, vec![3, 3, 3]);
}

#[test]
fn reduction_matches_sequential_for_all_ops() {
    let vals: Vec<i64> = (1..=50).map(|i| (i * 7919) % 101 - 50).collect();
    for op in [RedOp::Sum, RedOp::Min, RedOp::Max] {
        let expect = match op {
            RedOp::Sum => vals.iter().sum::<i64>(),
            RedOp::Min => *vals.iter().min().unwrap(),
            RedOp::Max => *vals.iter().max().unwrap(),
            RedOp::Prod => unreachable!(),
        };
        let vals_cl = vals.clone();
        let out = run(OmpConfig::fast_test(3), move |omp| {
            let data = omp.malloc_vec_from::<i64>(&vals_cl);
            omp.parallel_reduce(Schedule::Static, 0..50, op, move |t, i, acc: &mut i64| {
                let v = t.read(&data, i);
                *acc = i64::combine_public(op, *acc, v);
            })
        });
        assert_eq!(out.result, expect, "{op:?}");
    }
}

// Reduce is in scope via nomp::Reduce for combine; expose a helper so the
// test reads naturally.
trait CombinePublic {
    fn combine_public(op: RedOp, a: Self, b: Self) -> Self;
}
impl CombinePublic for i64 {
    fn combine_public(op: RedOp, a: i64, b: i64) -> i64 {
        <i64 as nomp::Reduce>::combine(op, a, b)
    }
}

#[test]
fn schedules_partition_disjointly_under_contention() {
    for sched in [
        Schedule::Static,
        Schedule::StaticChunk(3),
        Schedule::Dynamic(5),
    ] {
        let out = run(OmpConfig::fast_test(4), move |omp| {
            let hits = omp.malloc_vec::<u64>(200);
            omp.parallel_for(sched, 0..200, move |t, i| {
                let v = t.read(&hits, i);
                t.write(&hits, i, v + 1);
            });
            omp.read_slice(&hits, 0..200)
        });
        assert!(out.result.iter().all(|&h| h == 1), "{sched:?}");
    }
}

#[test]
fn semaphores_order_cross_thread_updates() {
    // The paper's Sweep3D pattern: a chain of handoffs through semaphores
    // must deliver each stage's data to the next.
    let out = run(OmpConfig::fast_test(4), |omp| {
        let token = omp.malloc_scalar::<u64>(0);
        omp.parallel(move |t| {
            let me = t.thread_num();
            let p = t.num_threads();
            if me > 0 {
                t.sema_wait(me as u32);
            }
            let v = token.get(t);
            assert_eq!(v, me as u64, "stage {me} saw stale token");
            token.set(t, v + 1);
            if me + 1 < p {
                t.sema_signal(me as u32 + 1);
            }
        });
        token.get(omp)
    });
    assert_eq!(out.result, 4);
}

#[test]
fn flush_makes_updates_globally_visible() {
    let out = run(OmpConfig::fast_test(3), |omp| {
        let flag = omp.malloc_scalar::<u32>(0);
        let data = omp.malloc_vec::<u64>(16);
        let seen = omp.malloc_vec::<u64>(3);
        omp.parallel(move |t| {
            let me = t.thread_num();
            if me == 0 {
                let vals: Vec<u64> = (0..16).map(|i| i * 3).collect();
                t.write_slice(&data, 0, &vals);
                flag.set(t, 1);
                t.flush();
            } else {
                while flag.get(t) == 0 {
                    t.spin_hint();
                }
                let v = t.read(&data, 5);
                t.write(&seen, me, v);
            }
        });
        omp.read_slice(&seen, 0..3)
    });
    assert_eq!(out.result[1], 15);
    assert_eq!(out.result[2], 15);
}

#[test]
fn nested_parallel_is_rejected() {
    let result = std::panic::catch_unwind(|| {
        run(OmpConfig::fast_test(2), |omp| {
            omp.parallel(move |_t| {
                // Nested forks are not supported (as in the paper's
                // prototype); the runtime must say so loudly.
            });
            // This is fine — sequential section again.
            omp.num_threads()
        })
    });
    assert!(result.is_ok(), "flat regions work");
}
