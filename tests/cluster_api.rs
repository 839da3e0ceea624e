//! The unified `Cluster` session API, end to end: the typed `NowError`
//! boundary (every builder validation failure is a variant, and the
//! builder never panics on junk input), warm-cluster reuse (same-seed
//! job streams are bit-identical and per-job stats are exact deltas, on
//! `n×1` and SMP topologies), and mixed job streams (a Rust closure job
//! followed by a compiled `.omp` job on the *same* cluster instance).

use nomp::{Cluster, ClusterBuilder, Env, Job, NowError, OmpConfig, RunReport, Schedule};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// NowError: every builder validation failure is a typed variant.
// ----------------------------------------------------------------------

/// One rejection case: a misconfigured builder plus the variant check.
type RejectionCase = (ClusterBuilder, fn(&NowError) -> bool);

#[test]
fn every_builder_validation_failure_has_a_variant() {
    let cases: Vec<RejectionCase> = vec![
        (Cluster::builder().nodes(0), |e| {
            matches!(e, NowError::ZeroNodes)
        }),
        (Cluster::builder().nodes(2).threads_per_node(0), |e| {
            matches!(e, NowError::ZeroThreadsPerNode)
        }),
        (Cluster::builder().nodes(100_000), |e| {
            matches!(e, NowError::TopologyTooLarge { .. })
        }),
        (Cluster::builder().nodes(40).threads_per_node(40), |e| {
            matches!(e, NowError::TopologyTooLarge { .. })
        }),
        (Cluster::builder().nodes(3).speeds(vec![1.0]), |e| {
            matches!(
                e,
                NowError::SpeedsLength {
                    expected: 3,
                    got: 1
                }
            )
        }),
        (Cluster::builder().nodes(2).speeds(vec![1.0, 0.0]), |e| {
            matches!(e, NowError::InvalidLoad(_))
        }),
        (
            Cluster::builder().nodes(2).speeds(vec![f64::NAN, 1.0]),
            |e| matches!(e, NowError::InvalidLoad(_)),
        ),
        (Cluster::builder().nodes(2).load_str("tsunami:1/1x2"), |e| {
            matches!(e, NowError::InvalidLoad(_))
        }),
        (Cluster::builder().nodes(2).load_str("step:9@1x2"), |e| {
            matches!(e, NowError::InvalidLoad(_))
        }),
        (Cluster::builder().runtime_schedule_str("fractal,3"), |e| {
            matches!(e, NowError::InvalidSchedule(_))
        }),
        (Cluster::builder().runtime_schedule_str("affinity,2"), |e| {
            matches!(e, NowError::InvalidSchedule(_))
        }),
        (
            Cluster::builder().runtime_schedule_str("static,9223372036854775808"),
            |e| matches!(e, NowError::InvalidSchedule(_)),
        ),
        (
            Cluster::builder().nodes(2).tmk(|t| t.page_size = 100),
            |e| matches!(e, NowError::InvalidConfig(_)),
        ),
    ];
    for (i, (builder, matches_expected)) in cases.into_iter().enumerate() {
        let err = match builder.validate() {
            Err(e) => e,
            Ok(_) => panic!("case {i}: must be rejected"),
        };
        assert!(
            matches_expected(&err),
            "case {i}: wrong variant {err:?} ({err})"
        );
        assert!(!err.to_string().is_empty(), "case {i}: silent error");
    }
}

#[test]
fn valid_builders_pass_validation() {
    let cfg = Cluster::builder()
        .nodes(4)
        .threads_per_node(2)
        .fast_test()
        .speeds(vec![1.0, 0.5, 1.0, 0.8])
        .load_str("burst:40/10x3")
        .load_seed(7)
        .runtime_schedule_str("adaptive,8")
        .validate()
        .expect("valid configuration");
    assert_eq!(cfg.tmk.nodes(), 4);
    assert_eq!(cfg.threads_per_node(), 2);
    assert_eq!(cfg.runtime_schedule, Schedule::Adaptive(8));
    assert!(!cfg.tmk.net.load.is_uniform());
}

// Builder validation is pure: junk never panics, it returns Err (or a
// config whose topology stays within the simulator's bounds).
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn builder_never_panics_on_arbitrary_inputs(
        nodes in 0usize..100_000,
        tpn in 0usize..10_000,
        speeds in proptest::collection::vec(proptest::num::f64::ANY, 0..6),
        seed in 0u64..u64::MAX,
        sched_pick in 0usize..6,
        load_pick in 0usize..6,
    ) {
        let sched = ["static", "fractal,3", "dynamic,999999999999", "", ",,", "runtime,2"]
            [sched_pick];
        let load = ["none", "step:1@5x2", "tsunami:1", "burst:40/10x3", "step:@x", "phase:0/0x0"]
            [load_pick];
        let result = Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .fast_test()
            .speeds(speeds)
            .load_str(load)
            .load_seed(seed)
            .runtime_schedule_str(sched)
            .validate();
        if let Ok(cfg) = result {
            prop_assert!(cfg.tmk.nodes() >= 1);
            prop_assert!(cfg.threads() <= 1024, "topology bound enforced");
        }
    }
}

// ----------------------------------------------------------------------
// Warm reuse: same job run twice is bit-identical, on 4×1 and 2×2.
// ----------------------------------------------------------------------

/// Deterministic cluster: measured compute and per-message CPU costs are
/// zero, so every timestamp (and so every grant order) is a pure
/// function of the modeled protocol costs.
fn det_builder(nodes: usize, tpn: usize) -> ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .fast_test()
        .tmk(|t| {
            t.net.compute_scale = 0.0;
            t.net.send_overhead_ns = 0;
            t.net.handler_ns = 0;
            t.net.local_delivery_ns = 0;
        })
}

/// Barrier-structured job with deterministic traffic (the pattern the
/// heterogeneity determinism tests established): every thread
/// push-writes a page-disjoint slab, the master reads it all back.
fn det_job() -> Job<Vec<u64>> {
    Job::new(|omp: &mut Env<'_>| {
        const SLAB: usize = 512;
        let nthreads = omp.num_threads();
        let data = omp.malloc_vec::<u64>(nthreads * SLAB);
        omp.parallel(move |t| {
            let me = t.thread_num();
            let vals: Vec<u64> = (0..SLAB).map(|i| (me * SLAB + i) as u64).collect();
            t.write_slice_push(&data, me * SLAB, &vals);
        });
        omp.read_slice(&data, 0..nthreads * SLAB)
    })
}

fn assert_reports_identical(name: &str, a: &RunReport<Vec<u64>>, b: &RunReport<Vec<u64>>) {
    assert_eq!(a.result, b.result, "{name}: results diverged");
    assert_eq!(a.dsm, b.dsm, "{name}: TmkStats must be exact deltas");
    assert_eq!(a.net, b.net, "{name}: traffic must be exact deltas");
    assert_eq!(a.vt_ns, b.vt_ns, "{name}: virtual times diverged");
}

#[test]
fn same_job_twice_on_one_cluster_is_bit_identical() {
    for (nodes, tpn) in [(4usize, 1usize), (2, 2)] {
        let name = format!("{nodes}x{tpn}");
        let mut cluster = det_builder(nodes, tpn).build().expect("valid cluster");
        let first = cluster.run(det_job()).expect("job 1");
        let second = cluster.run(det_job()).expect("job 2");
        let expect: Vec<u64> = (0..nodes * tpn * 512).map(|i| i as u64).collect();
        assert_eq!(first.result, expect, "{name}: wrong data");
        assert_reports_identical(&name, &first, &second);
        assert_eq!(first.job, 0);
        assert_eq!(second.job, 1);

        // Job N+1 on the warm cluster equals a cold one-shot cluster:
        // the reset leaves no residue (no spin-up is re-paid, and no
        // state survives).
        let cold = det_builder(nodes, tpn)
            .build()
            .expect("valid cluster")
            .run(det_job())
            .expect("cold job");
        assert_reports_identical(&format!("{name} warm-vs-cold"), &second, &cold);
    }
}

/// Every thread maps and write-enables a page of its own, then makes
/// `hits` (even) element reads and `hits` element writes to it: all of
/// them accesses to a valid page, and they leave it as they found it, so
/// the job's diffs do not depend on `hits`.
fn hit_job(hits: u64) -> Job<Vec<u64>> {
    Job::new(move |omp: &mut Env<'_>| {
        const SLAB: usize = 512;
        let nthreads = omp.num_threads();
        let data = omp.malloc_vec::<u64>(nthreads * SLAB);
        omp.parallel(move |t| {
            let mine = t.thread_num() * SLAB;
            let x = t.read(&data, mine);
            t.write(&data, mine, x + 1);
            let mut ones = 0;
            for _ in 0..hits {
                let bit = t.read(&data, mine + 1);
                ones += bit;
                t.write(&data, mine + 1, bit ^ 1);
            }
            assert_eq!(ones, hits / 2, "every store was seen by the next load");
        });
        omp.read_slice(&data, 0..nthreads * SLAB)
    })
}

#[test]
fn hits_cost_no_protocol_action_and_no_modeled_time() {
    // A valid-page access is a load or a store: with measured compute
    // scaled to zero, 10 000 of them per thread change no statistic and
    // no message count, and no virtual time on one-thread nodes. On SMP
    // nodes each keeps its intra-node access charge on the thread's lane
    // — the same charge a miss pays — and nothing else.
    const HITS: u64 = 10_000;
    for (nodes, tpn) in [(4usize, 1usize), (2, 2)] {
        let name = format!("{nodes}x{tpn}");
        let mut cluster = det_builder(nodes, tpn).build().expect("valid cluster");
        let without = cluster.run(hit_job(0)).expect("job without hits");
        let with = cluster.run(hit_job(HITS)).expect("job with hits");
        assert_eq!(with.result, without.result, "{name}: data");
        assert_eq!(with.dsm, without.dsm, "{name}: TmkStats");
        assert_eq!(with.net, without.net, "{name}: traffic");
        // Lanes overlap whatever else the node clock was charged, so the
        // job end moves by at most the charges one lane collected.
        let grew = with.vt_ns - without.vt_ns;
        let lane_charges = match tpn {
            1 => 0,
            _ => 2 * HITS * cluster.config().tmk.smp_access_ns,
        };
        assert!(
            grew <= lane_charges && grew >= lane_charges / 2,
            "{name}: virtual time grew {grew} ns against {lane_charges} ns of lane charges"
        );
    }
}

#[test]
fn shim_run_equals_cluster_session_path() {
    // `nomp::run` is a one-job shim over the same session machinery.
    let mut cfg = OmpConfig::fast_test(3);
    cfg.tmk.net.compute_scale = 0.0;
    cfg.tmk.net.send_overhead_ns = 0;
    cfg.tmk.net.handler_ns = 0;
    cfg.tmk.net.local_delivery_ns = 0;
    let via_shim = nomp::run(cfg.clone(), |omp| {
        let v = omp.malloc_vec::<u64>(3);
        omp.parallel(move |t| {
            let me = t.thread_num();
            t.write(&v, me, 7 * me as u64);
        });
        omp.read_slice(&v, 0..3)
    });
    let via_cluster = Cluster::from_config(cfg)
        .run(|omp: &mut Env<'_>| {
            let v = omp.malloc_vec::<u64>(3);
            omp.parallel(move |t| {
                let me = t.thread_num();
                t.write(&v, me, 7 * me as u64);
            });
            omp.read_slice(&v, 0..3)
        })
        .expect("cluster job");
    assert_eq!(via_shim.result, via_cluster.result);
    assert_eq!(via_shim.dsm, via_cluster.dsm);
    assert_eq!(via_shim.net.total_msgs(), via_cluster.msgs());
}

// ----------------------------------------------------------------------
// Mixed job streams: closures and `.omp` programs share one cluster.
// ----------------------------------------------------------------------

#[test]
fn closure_job_then_omp_job_share_the_cluster() {
    for (nodes, tpn) in [(4usize, 1usize), (2, 2)] {
        let mut cluster = Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .fast_test()
            .build()
            .expect("valid cluster");

        // Job 0: a handwritten closure region.
        let closure_report = cluster
            .run(|omp: &mut Env<'_>| {
                let n = 1000usize;
                let v = omp.malloc_vec::<f64>(n);
                omp.parallel_for(Schedule::Static, 0..n, move |t, i| {
                    t.write(&v, i, i as f64);
                });
                omp.read(&v, 999)
            })
            .expect("closure job");
        assert_eq!(closure_report.result, 999.0, "{nodes}x{tpn}");
        assert_eq!(closure_report.job, 0);

        // Job 1: a compiled `.omp` program on the *same* cluster.
        let prog = ompc::compile(
            r#"
            double pi;
            int main() {
                int n = 1000;
                double step = 1.0 / n;
                #pragma omp parallel for reduction(+:pi) schedule(static)
                for (int i = 0; i < n; i = i + 1) {
                    double x = (i + 0.5) * step;
                    pi = pi + 4.0 / (1.0 + x * x);
                }
                pi = pi * step;
                return 0;
            }
            "#,
        )
        .expect("pi program compiles");
        let omp_report = cluster.run(&prog).expect("omp job");
        assert!(
            (omp_report.result.scalars["pi"] - std::f64::consts::PI).abs() < 1e-5,
            "{nodes}x{tpn}: translated pi diverged"
        );
        assert_eq!(omp_report.job, 1);
        assert_eq!(omp_report.topology(), format!("{nodes}x{tpn}"));

        // Job 2: the closure shape again — the `.omp` job left no
        // residue (fresh allocations, fresh counters).
        let again = cluster
            .run(|omp: &mut Env<'_>| {
                let v = omp.malloc_vec::<u64>(8);
                omp.parallel(move |t| {
                    if t.thread_num() == 0 {
                        t.write(&v, 0, 11);
                    }
                });
                omp.read(&v, 0)
            })
            .expect("second closure job");
        assert_eq!(again.result, 11);
        assert_eq!(again.job, 2);
        assert_eq!(cluster.jobs_run(), 3);
        cluster.shutdown();
    }
}

#[test]
fn compile_errors_nest_in_the_unified_error_type() {
    // The one-result-type pipeline: compile (Diag ⇒ NowError::Compile)
    // then run, composed with `?`.
    fn pipeline(src: &str) -> Result<RunReport<ompc::ProgramOutput>, NowError> {
        let mut cluster = Cluster::builder().nodes(2).fast_test().build()?;
        let prog = ompc::compile(src)?;
        cluster.run(prog)
    }
    let ok = pipeline("int main() { return 6 * 7; }").expect("valid program");
    assert_eq!(ok.result.ret, 42.0);
    let err = pipeline("int main() { return 1 +; }").expect_err("syntax error");
    match &err {
        NowError::Compile(d) => assert!(d.span.line >= 1, "spanned diagnostic"),
        other => panic!("expected Compile variant, got {other:?}"),
    }
    assert!(err.to_string().contains("compile error"), "{err}");
}
