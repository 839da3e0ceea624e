//! Micro-operations: one layer's public function at a time, measured on
//! warm 4×1 `paper` systems. Each result is the median over repeated
//! batches; its name says which layer owns the cost.

use crate::door::{cluster, Client, Door};
use crate::host;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::Workload;
use nomp::{Env, Schedule, TaskArgs, TaskScopeConfig};
use now_net::{Network, NetworkConfig, Wire};
use now_service::{JobRequest, JobValue};
use std::time::{Duration, Instant};
use tmk::{Diff, System, TmkConfig};

const NODES: usize = 4;
const PAGE: usize = 4096;
/// Operations per timed job, so the job's own fixed cost is a small,
/// separately measured share.
const OPS: usize = 32;
/// Samples per micro-operation at least, whatever the budget.
const MIN_SAMPLES: usize = 5;

struct Ping;

impl Wire for Ping {
    fn wire_bytes(&self) -> usize {
        8
    }
}

/// Repeat `op` for `budget` and return the median duration in ns.
fn sample(budget: Duration, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < MIN_SAMPLES || start.elapsed() < budget {
        let t = Instant::now();
        op();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// Measure every micro-operation within roughly `budget`, appending
/// `(name, value, unit)` rows; spans around each group go to `tracer`.
pub fn run(budget: Duration, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64, &'static str)>) {
    // Seventeen operations are sampled below.
    let each = budget / 17;
    let mut row = |name, value, unit| out.push((name, value, unit));

    row("host.calib_ns", host::calib_ns(), "ns");

    // --- tmk: protocol operations on a bare DSM system -------------------
    let t0 = Instant::now();
    let mut sys = System::build(TmkConfig::paper(NODES));
    let mut job = |f: fn(&mut tmk::Tmk)| {
        sample(each, || {
            sys.run_job(f).expect("tmk system alive");
        })
    };
    let empty = job(|_| {});
    row("tmk.empty_job_us", empty / 1e3, "us");
    let barriers = job(|t| {
        t.parallel(0, |t| {
            for _ in 0..OPS {
                t.barrier();
            }
        })
    });
    // The region itself costs one fork and its join barrier.
    let region = job(|t| t.parallel(0, |_| {}));
    row("tmk.barrier_us", (barriers - region).max(0.0) / OPS as f64 / 1e3, "us");
    let locks = job(|t| {
        t.parallel(0, |t| {
            for _ in 0..OPS / NODES {
                t.lock_acquire(1);
                t.lock_release(1);
            }
        })
    });
    row(
        "tmk.lock_handoff_us",
        (locks - region).max(0.0) / OPS as f64 / 1e3,
        "us",
    );
    let faults = job(|t| {
        // The master dirties one word in each of OPS pages; node 1 then
        // reads them, taking one diff-fetching fault per page.
        let words = PAGE / 8;
        let v = t.malloc_vec::<u64>(OPS * words);
        for p in 0..OPS {
            t.write(&v, p * words, p as u64 + 1);
        }
        t.parallel(0, move |t| {
            if t.proc_id() == 1 {
                for p in 0..OPS {
                    std::hint::black_box(t.read(&v, p * words));
                }
            }
        })
    });
    row(
        "tmk.fault_fetch_us",
        (faults - region).max(0.0) / OPS as f64 / 1e3,
        "us",
    );
    sys.shutdown();
    tracer.add("micro: tmk::System::run_job", "tmk", "", 0, t0, t0.elapsed());

    // --- tmk: twin/diff encoding on 4 KiB pages --------------------------
    let t0 = Instant::now();
    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for b in sparse.iter_mut().step_by(512) {
        *b = 1;
    }
    let dense = vec![0xabu8; PAGE];
    let diff_ns = |cur: &[u8]| {
        sample(each, || {
            for _ in 0..OPS {
                std::hint::black_box(Diff::create(std::hint::black_box(&twin), cur));
            }
        }) / OPS as f64
    };
    row("tmk.diff_create_sparse_ns", diff_ns(&sparse), "ns");
    row("tmk.diff_create_dense_ns", diff_ns(&dense), "ns");
    let d = Diff::create(&twin, &dense);
    let mut page = twin.clone();
    let apply = sample(each, || {
        for _ in 0..OPS {
            d.apply(std::hint::black_box(&mut page));
        }
    });
    row("tmk.diff_apply_dense_ns", apply / OPS as f64, "ns");
    tracer.add("micro: tmk::Diff::create/apply", "tmk", "", 0, t0, t0.elapsed());

    // --- now-net: enqueue and thread hand-off ----------------------------
    let t0 = Instant::now();
    let eps = Network::build::<Ping>(NetworkConfig::paper_udp(2));
    let enqueue = sample(each, || {
        for _ in 0..OPS {
            eps[0].send(1, Ping);
            std::hint::black_box(eps[1].try_recv());
        }
    });
    row("net.enqueue_ns", enqueue / OPS as f64, "ns");
    let handoff = std::thread::scope(|s| {
        let (near, far) = (&eps[0], &eps[1]);
        let echo = s.spawn(move || {
            // Echo until the sentinel (a message from ourselves).
            while far.recv().src == 0 {
                far.send(0, Ping);
            }
        });
        let round = sample(each, || {
            for _ in 0..OPS {
                near.send(1, Ping);
                near.recv();
            }
        });
        far.send(1, Ping);
        echo.join().expect("echo thread");
        round
    });
    // A round trip is two hand-offs.
    row("net.handoff_us", handoff / OPS as f64 / 2.0 / 1e3, "us");
    tracer.add(
        "micro: now_net::Endpoint::send/recv",
        "now-net",
        "",
        0,
        t0,
        t0.elapsed(),
    );

    // --- nomp: runtime constructs on a warm cluster ----------------------
    let t0 = Instant::now();
    let build = sample(each, || {
        cluster(NODES, 1).build().expect("valid cluster").shutdown();
    });
    row("nomp.cluster_build_ms", build / 1e6, "ms");
    let mut warm = cluster(NODES, 1).build().expect("valid cluster");
    let mut job = |f: fn(&mut Env<'_>)| {
        sample(each, || {
            warm.run(f).expect("cluster alive");
        })
    };
    let empty = job(|_| {});
    row("nomp.empty_job_us", empty / 1e3, "us");
    let regions = job(|omp| {
        for _ in 0..OPS {
            omp.parallel(|_| {});
        }
    });
    let fork_join = (regions - empty).max(0.0) / OPS as f64;
    row("nomp.fork_join_us", fork_join / 1e3, "us");
    let one_region = empty + fork_join;
    let claims = job(|omp| omp.parallel_for(Schedule::Dynamic(1), 0..OPS, |_, _| {}));
    row(
        "nomp.dynamic_claim_us",
        (claims - one_region).max(0.0) / OPS as f64 / 1e3,
        "us",
    );
    let tasks = job(|omp| {
        omp.task_scope(
            TaskScopeConfig::default(),
            |s| {
                s.single(|s| {
                    for i in 0..OPS as u64 {
                        s.task(TaskArgs::ab(i, 0));
                    }
                })
            },
            |_, _| {},
        )
    });
    row("nomp.task_us", (tasks - one_region).max(0.0) / OPS as f64 / 1e3, "us");

    // --- now-metrics: what observing costs --------------------------------
    row(
        "metrics.snapshot_us",
        sample(each, || drop(std::hint::black_box(warm.metrics()))) / 1e3,
        "us",
    );
    let snap = warm.metrics();
    row(
        "metrics.prometheus_us",
        sample(each, || drop(std::hint::black_box(snap.to_prometheus()))) / 1e3,
        "us",
    );
    warm.shutdown();
    tracer.add("micro: nomp::Cluster::run", "nomp", "", 0, t0, t0.elapsed());
}

/// Door micro-operations on an idle service: a `status` round trip over
/// TCP and an in-process submit + wait of an empty closure.
pub fn door(
    w: &Workload,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let door = Door::open(w)?;
    let mut client = Client::connect(door.addr())?;
    let mut failed = None;
    let status = sample(budget / 2, || {
        let reply = client.send("{\"op\":\"status\"}\n").and_then(|()| client.recv());
        if let Err(why) = reply {
            failed = Some(why.to_string());
        }
    });
    let handle = door.handle();
    let submit_wait = sample(budget / 2, || {
        let ticket = handle.submit(JobRequest::closure(|_| JobValue::Unit));
        match ticket {
            Ok(t) => drop(t.wait()),
            Err(r) => failed = Some(r.to_string()),
        }
    });
    drop(client);
    door.close();
    if let Some(why) = failed {
        return Err(format!("door micro-operation failed: {why}"));
    }
    out.push(("service.status_roundtrip_us", status / 1e3, "us"));
    out.push(("service.submit_wait_us", submit_wait / 1e3, "us"));
    tracer.add(
        "micro: status + ServiceHandle::submit/Ticket::wait",
        "now-service",
        "",
        0,
        t0,
        t0.elapsed(),
    );
    Ok(())
}
