//! The cluster-pool service, end to end: typed admission control,
//! deterministic weighted fair share, deadlines, priorities, panic
//! containment, metrics export, and the TCP front door.
//!
//! The drain/thread-leak/restart-bit-identity tests live in their own
//! binary (`tests/service_drain.rs`) because they count host threads —
//! a measurement other tests running in this binary would race.

use nomp::{Cluster, ClusterBuilder, Env};
use now_service::{JobError, JobRequest, JobValue, Rejected, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// Deterministic cluster: measured compute and per-message CPU costs are
/// zero, so results and virtual times are pure functions of the modeled
/// protocol costs (the `cluster_api` determinism pattern).
fn det_builder(nodes: usize) -> ClusterBuilder {
    Cluster::builder().nodes(nodes).fast_test().tmk(|t| {
        t.net.compute_scale = 0.0;
        t.net.send_overhead_ns = 0;
        t.net.handler_ns = 0;
        t.net.local_delivery_ns = 0;
    })
}

/// Barrier-structured deterministic job body (page-disjoint slabs).
fn det_body(omp: &mut Env<'_>) -> JobValue {
    const SLAB: usize = 256;
    let nthreads = omp.num_threads();
    let data = omp.malloc_vec::<u64>(nthreads * SLAB);
    omp.parallel(move |t| {
        let me = t.thread_num();
        let vals: Vec<u64> = (0..SLAB).map(|i| (me * SLAB + i) as u64).collect();
        t.write_slice_push(&data, me * SLAB, &vals);
    });
    JobValue::Nums(
        omp.read_slice(&data, 0..nthreads * SLAB)
            .into_iter()
            .map(|v| v as f64)
            .collect(),
    )
}

// ----------------------------------------------------------------------
// Bit identity: the pool changes *where* a job runs, never *what* it
// computes or how long it takes in virtual time.
// ----------------------------------------------------------------------

#[test]
fn service_jobs_are_bit_identical_to_a_direct_cluster() {
    // Direct warm cluster, the reference.
    let mut direct = det_builder(2).build().expect("direct cluster");
    let reference = direct.run(det_body).expect("direct job");

    // The same job through a pool of 2, six times: every run identical.
    let service = ServiceConfig::new()
        .pool(2)
        .cluster(det_builder(2))
        .build()
        .expect("service");
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            service
                .submit(JobRequest::closure(det_body))
                .expect("admit")
        })
        .collect();
    for t in tickets {
        let report = t.wait();
        let run = report.outcome.expect("job completed");
        assert_eq!(run.result, reference.result, "results diverged");
        assert_eq!(run.vt_ns, reference.vt_ns, "virtual time diverged");
        assert_eq!(run.dsm, reference.dsm, "DSM stats diverged");
    }
    service.drain();
}

#[test]
fn omp_programs_run_through_the_service() {
    let prog = ompc::compile(
        r#"
        double pi;
        int main() {
            int n = 500;
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
    .expect("pi compiles");

    let mut direct = det_builder(2).build().expect("direct cluster");
    let reference = direct.run(&prog).expect("direct omp job");

    let service = ServiceConfig::new()
        .pool(2)
        .cluster(det_builder(2))
        .build()
        .expect("service");
    let a = service
        .submit(JobRequest::omp(prog.clone()))
        .expect("admit");
    let b = service.submit(JobRequest::omp(prog)).expect("admit");
    for t in [a, b] {
        let run = t.wait().outcome.expect("omp job completed");
        assert_eq!(run.result, JobValue::Program(reference.result.clone()));
        assert_eq!(run.vt_ns, reference.vt_ns);
    }
    let summary = service.drain();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
}

// ----------------------------------------------------------------------
// Admission-time static analysis: a `deny_races` service rejects racy
// .omp programs with the typed lint rejection and never runs them;
// clean programs are unaffected.
// ----------------------------------------------------------------------

#[test]
fn deny_races_rejects_racy_omp_programs_at_admission() {
    let racy = ompc::compile(
        r#"
        double g;
        int main() {
            #pragma omp parallel
            {
                g = g + 1.0;
            }
            return 0;
        }
        "#,
    )
    .expect("racy program compiles");
    let clean = ompc::compile(
        r#"
        double g;
        int main() {
            #pragma omp parallel reduction(+:g)
            {
                g = g + 1.0;
            }
            return 0;
        }
        "#,
    )
    .expect("clean program compiles");

    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(2))
        .deny_races(true)
        .build()
        .expect("service");

    let err = match service.submit(JobRequest::omp(racy)) {
        Err(e) => e,
        Ok(_) => panic!("racy program must be rejected"),
    };
    assert_eq!(err.kind(), "lint");
    match &err {
        Rejected::Lint(lints) => {
            assert!(!lints.is_empty());
            assert!(
                lints.iter().any(|l| l.code.code() == "OMP201"),
                "expected a shared-write-race finding, got {lints:?}"
            );
            for l in lints {
                assert_eq!(l.level, ompc::LintLevel::Deny, "{l}");
            }
        }
        other => panic!("expected Rejected::Lint, got {other:?}"),
    }
    assert!(err.to_string().contains("OMP201"), "{err}");

    let t = service
        .submit(JobRequest::omp(clean))
        .expect("clean program admitted");
    let run = t.wait().outcome.expect("clean program completed");
    // Each of the 2 threads adds 1.0 into the reduction.
    match run.result {
        JobValue::Program(p) => assert_eq!(p.scalars["g"], 2.0),
        other => panic!("unexpected payload {other:?}"),
    }

    let snap = service.metrics();
    assert_eq!(snap.tenants[0].rejected_lint, 1);
    assert_eq!(snap.tenants[0].rejected(), 1);
    assert_eq!(service.status().tenants[0].rejected, 1);
    assert_eq!(snap.tenants[0].admitted, 1);
    let summary = service.drain();
    assert_eq!(summary.completed, 1);
}

// ----------------------------------------------------------------------
// Fair share: deficit round-robin is weight-proportional — exactly so
// with one worker and a held (deterministic) service.
// ----------------------------------------------------------------------

#[test]
fn fair_share_dispatch_is_weight_proportional() {
    let service = ServiceConfig::new()
        .pool(1)
        .queue_bound(500)
        .cluster(det_builder(1))
        .tenant("alice", 2)
        .tenant("bob", 1)
        .hold()
        .record_dispatch(true)
        .build()
        .expect("service");

    // Saturate both tenants while held, so dispatch order is decided
    // purely by the scheduler, not submission timing.
    let mut tickets = Vec::new();
    for _ in 0..90 {
        tickets.push(
            service
                .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("alice"))
                .expect("admit alice"),
        );
        tickets.push(
            service
                .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("bob"))
                .expect("admit bob"),
        );
    }
    service.open();
    for t in tickets {
        assert!(t.wait().outcome.is_ok(), "every admitted job completes");
    }

    let log = service.dispatch_log();
    assert_eq!(log.len(), 180);
    // While both tenants are backlogged (alice drains first at 135),
    // every window is exactly 2:1 — stronger than the ±10% acceptance
    // bound.
    for prefix in [30usize, 60, 90, 135] {
        let a = log[..prefix].iter().filter(|(t, _)| t == "alice").count();
        let expect = prefix * 2 / 3;
        assert_eq!(
            a, expect,
            "first {prefix} dispatches: alice got {a}, want exactly {expect} (2:1)"
        );
    }
    // Within a tenant, FIFO among equal priorities.
    let alice_ids: Vec<u64> = log
        .iter()
        .filter(|(t, _)| t == "alice")
        .map(|&(_, id)| id)
        .collect();
    assert!(
        alice_ids.windows(2).all(|w| w[0] < w[1]),
        "FIFO within tenant"
    );

    let m = service.metrics();
    let shares: Vec<(String, u64)> = m
        .tenants
        .iter()
        .map(|t| (t.name.clone(), t.completed))
        .collect();
    assert_eq!(shares, vec![("alice".into(), 90), ("bob".into(), 90)]);
    service.drain();
}

#[test]
fn priorities_jump_the_tenant_queue() {
    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(1))
        .hold()
        .record_dispatch(true)
        .build()
        .expect("service");
    let low: Vec<_> = (0..3)
        .map(|_| {
            service
                .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit))
                .expect("admit")
        })
        .collect();
    let urgent = service
        .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).priority(5))
        .expect("admit urgent");
    let urgent_id = urgent.id();
    service.open();
    for t in low {
        t.wait();
    }
    urgent.wait();
    let log = service.dispatch_log();
    assert_eq!(log[0].1, urgent_id, "priority 5 dispatches first: {log:?}");
    service.drain();
}

// ----------------------------------------------------------------------
// Admission control: every rejection is typed, and rejection points are
// deterministic on a held service.
// ----------------------------------------------------------------------

#[test]
fn admission_rejections_are_typed_and_deterministic() {
    let service = ServiceConfig::new()
        .pool(1)
        .queue_bound(8)
        .cluster(det_builder(1))
        .tenant("a", 1)
        .hold()
        .build()
        .expect("service");

    let mut tickets = Vec::new();
    for i in 0..11 {
        match service.submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("a")) {
            Ok(t) => {
                assert!(i < 8, "job {i} must have been rejected");
                tickets.push(t);
            }
            Err(r) => {
                assert!(i >= 8, "job {i} must have been admitted");
                assert_eq!(r, Rejected::QueueFull { depth: 8, bound: 8 });
                assert_eq!(r.kind(), "queue_full");
            }
        }
    }

    // Unknown tenant / unknown registered closure are their own kinds.
    assert!(matches!(
        service.submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("ghost")),
        Err(Rejected::UnknownTenant(t)) if t == "ghost"
    ));
    assert!(matches!(
        service.submit(JobRequest::named("nope").tenant("a")),
        Err(Rejected::UnknownProgram(p)) if p == "nope"
    ));

    // A zero deadline is unmeetable by definition.
    assert!(matches!(
        service.submit(
            JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit)
                .tenant("a")
                .deadline(Duration::ZERO)
        ),
        Err(Rejected::DeadlineUnmeetable { .. })
    ));

    // Draining rejects everything new, while admitted jobs finish.
    service.open();
    service.begin_drain();
    assert!(matches!(
        service.submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("a")),
        Err(Rejected::Draining)
    ));
    for t in tickets {
        assert!(t.wait().outcome.is_ok(), "admitted jobs complete the drain");
    }
    let m = service.metrics();
    assert_eq!(m.admitted(), 8);
    assert_eq!(m.completed(), 8);
    // ghost is not in the count: an unknown tenant has no metrics row.
    assert_eq!(
        m.rejected(),
        6,
        "3 queue_full + nope + zero deadline + draining"
    );
    service.drain();
}

#[test]
fn expired_deadlines_fail_fast_with_a_diagnostic() {
    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(1))
        .hold()
        .build()
        .expect("service");
    let doomed = service
        .submit(
            JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit)
                .deadline(Duration::from_millis(1)),
        )
        .expect("admitted: the service has no completion estimate yet");
    let healthy = service
        .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Num(7.0)))
        .expect("admit");
    // Let the deadline lapse while held, then open.
    std::thread::sleep(Duration::from_millis(30));
    service.open();

    let report = doomed.wait();
    match report.outcome {
        Err(JobError::DeadlineExpired {
            deadline_ms,
            waited_ms,
            diagnostic,
        }) => {
            assert_eq!(deadline_ms, 1.0);
            assert!(waited_ms >= 1.0, "waited {waited_ms} ms");
            assert!(diagnostic.contains("expired in queue"), "{diagnostic}");
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    assert_eq!(
        report.service_host,
        Duration::ZERO,
        "never occupied a cluster"
    );
    assert_eq!(
        healthy.wait().outcome.expect("healthy job").result,
        JobValue::Num(7.0)
    );
    let m = service.metrics();
    assert_eq!(m.expired(), 1);
    assert_eq!(m.completed(), 1);
    service.drain();
}

// ----------------------------------------------------------------------
// Panic containment: a job panic kills its cluster, not the service.
// ----------------------------------------------------------------------

#[test]
fn job_panics_are_contained_and_the_pool_self_heals() {
    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(1))
        .build()
        .expect("service");
    let bad = service
        .submit(JobRequest::closure(|_: &mut Env<'_>| -> JobValue {
            panic!("boom in job body")
        }))
        .expect("admit");
    match bad.wait().outcome {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("boom"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The single pool slot rebuilt its cluster; the next job completes.
    let next = service
        .submit(JobRequest::closure(det_body))
        .expect("admit after panic");
    assert!(next.wait().outcome.is_ok(), "pool self-healed");
    let summary = service.drain();
    assert_eq!((summary.completed, summary.failed), (1, 1));
}

// ----------------------------------------------------------------------
// Metrics: the new service families export cleanly and add up.
// ----------------------------------------------------------------------

#[test]
fn service_metrics_export_validates_and_balances() {
    let service = ServiceConfig::new()
        .pool(2)
        .queue_bound(4)
        .cluster(det_builder(1))
        .tenant("a", 3)
        .tenant("b", 1)
        .hold()
        .build()
        .expect("service");
    let mut tickets = Vec::new();
    for tenant in ["a", "a", "a", "b"] {
        tickets.push(
            service
                .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant(tenant))
                .expect("admit"),
        );
    }
    // One deterministic queue-full reject.
    assert!(service
        .submit(JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant("b"))
        .is_err());
    service.open();
    for t in tickets {
        t.wait();
    }

    let m = service.metrics();
    let prom = m.to_prometheus();
    now_metrics::validate_prometheus_text(&prom).expect("prometheus export validates");
    let json = m.to_json();
    now_metrics::validate_json(&json).expect("json export validates");
    for family in [
        "now_service_queue_depth",
        "now_service_jobs_in_flight",
        "now_service_jobs_total",
        "now_service_rejected_total",
        "now_service_queue_wait_host_ns",
        "now_service_time_host_ns",
        "now_service_e2e_host_ns",
    ] {
        assert!(prom.contains(family), "missing family {family}");
    }
    assert!(prom.contains("tenant=\"a\""), "tenant label present");
    assert_eq!(m.admitted(), 4);
    assert_eq!(m.completed(), 4);
    assert_eq!(m.rejected(), 1);
    assert_eq!(
        m.queue_wait_merged().count(),
        4,
        "every dispatch recorded a wait"
    );
    assert_eq!(m.service_host_merged().count(), 4);
    assert_eq!(m.e2e_host_ns.count(), 4);
    service.drain();
}

// ----------------------------------------------------------------------
// TCP front door: line-delimited JSON submit/status/drain.
// ----------------------------------------------------------------------

#[test]
fn tcp_front_door_serves_submit_status_drain() {
    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(1))
        .tenant("a", 2)
        .tenant("b", 1)
        .closure("answer", || Box::new(|_: &mut Env<'_>| JobValue::Num(42.0)))
        .deny_races(true)
        .build()
        .expect("service");
    let front = now_service::TcpFront::bind(service.handle(), "127.0.0.1:0").expect("bind");

    let sock = std::net::TcpStream::connect(front.addr()).expect("connect");
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut send = |line: &str| -> String {
        let mut sock = &sock;
        sock.write_all(line.as_bytes()).expect("write");
        sock.write_all(b"\n").expect("write");
        read_reply(&mut reader)
    };

    // A registered closure, awaited inline.
    let r = send(r#"{"op":"submit","closure":"answer","tenant":"a","wait":true}"#);
    assert!(
        r.contains("\"ok\":true") && r.contains("\"value\":42"),
        "{r}"
    );

    // A .omp program over the wire.
    let r = send(
        r#"{"op":"submit","omp":"double x; int main() { x = 6 * 7; return 0; }","tenant":"b","wait":true}"#,
    );
    assert!(r.contains("\"scalars\":{\"x\":42}"), "{r}");

    // Typed protocol errors.
    let r = send(r#"{"op":"submit","closure":"ghost","wait":true}"#);
    assert!(r.contains("\"error\":\"unknown_program\""), "{r}");
    let r = send(r#"{"op":"submit","omp":"int main() { return 1 +; }"}"#);
    assert!(r.contains("\"error\":\"compile\""), "{r}");
    let r = send(r#"{"op":"warp"}"#);
    assert!(r.contains("\"error\":\"bad_request\""), "{r}");
    let r = send("not json");
    assert!(r.contains("\"error\":\"bad_json\""), "{r}");
    let r = send(
        r#"{"op":"submit","omp":"double g; int main() {\n#pragma omp parallel\n{ g = g + 1.0; }\nreturn 0; }","tenant":"b"}"#,
    );
    assert!(r.contains("\"error\":\"lint\""), "{r}");

    // Hostile lines get a typed reply and the process keeps serving: a
    // line nested far past the parser's limit (it used to overflow the
    // handler's stack and abort), and deadlines past `Duration`'s and
    // `Instant`'s range (they used to panic the handler / dispatcher).
    let r = send(&"[".repeat(200_000));
    assert!(r.contains("\"error\":\"bad_json\""), "{r}");
    let r = send(r#"{"op":"submit","closure":"answer","deadline_ms":1e300}"#);
    assert!(
        r.contains("\"error\":\"bad_request\"") && r.contains("out of range"),
        "{r}"
    );
    let r = send(r#"{"op":"submit","closure":"answer","deadline_ms":1e22,"wait":true}"#);
    assert!(r.contains("\"value\":42"), "{r}");
    {
        let fresh = std::net::TcpStream::connect(front.addr()).expect("connect again");
        (&fresh).write_all(b"{\"op\":\"status\"}\n").expect("write");
        let mut reply = String::new();
        BufReader::new(&fresh).read_line(&mut reply).expect("read");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    // Status and metrics verbs.
    let r = send(r#"{"op":"status"}"#);
    assert!(
        r.contains("\"pool\":1") && r.contains("\"name\":\"a\""),
        "{r}"
    );
    // Tenant b's one rejection was a lint denial; `status` counts it.
    assert!(
        r.contains("\"name\":\"b\"") && r.ends_with("\"rejected\":1}]}\n"),
        "{r}"
    );
    // The metrics reply carries the one-line family list; its
    // `now_service_jobs_total` family holds tenant a's completed count.
    let r = send(r#"{"op":"metrics"}"#);
    let doc = now_metrics::json::parse(&r).expect("one JSON line");
    let metrics = doc.get("metrics").expect("metrics document");
    assert_eq!(
        metrics.get("schema").and_then(|s| s.as_str()),
        Some("now-metrics-v2"),
        "{r}"
    );
    let families = metrics.get("families").and_then(|f| f.as_arr()).unwrap();
    let jobs = families
        .iter()
        .find(|f| f.get("name").and_then(|n| n.as_str()) == Some("now_service_jobs_total"))
        .and_then(|f| f.get("samples")?.as_arr())
        .expect("jobs family");
    let label = |s: &now_metrics::json::Json, k: &str| {
        s.get("labels")
            .and_then(|l| l.get(k)?.as_str().map(str::to_string))
    };
    let a_completed = jobs
        .iter()
        .find(|s| {
            label(s, "tenant").as_deref() == Some("a")
                && label(s, "event").as_deref() == Some("completed")
        })
        .and_then(|s| s.get("value")?.as_u64());
    let expected = service.metrics().tenants[0].completed;
    assert!(expected >= 1);
    assert_eq!(a_completed, Some(expected), "{r}");

    // Drain over the wire: stops admission, finishes in-flight work.
    let r = send(r#"{"op":"drain"}"#);
    assert!(
        r.contains("\"drained\":true") && r.contains("\"completed\":3"),
        "{r}"
    );
    let r = send(r#"{"op":"submit","closure":"answer"}"#);
    assert!(r.contains("\"error\":\"draining\""), "{r}");

    drop(sock);
    front.shutdown();
    service.drain();
}

/// An idle one-node service behind a loopback door, for the door tests.
fn idle_door() -> (now_service::Service, now_service::TcpFront) {
    let service = ServiceConfig::new()
        .pool(1)
        .cluster(det_builder(1))
        .build()
        .expect("service");
    let front = now_service::TcpFront::bind(service.handle(), "127.0.0.1:0").expect("bind");
    (service, front)
}

fn read_reply(reader: &mut impl BufRead) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    now_metrics::validate_json(reply.trim()).expect("reply is valid JSON");
    reply
}

#[test]
fn tcp_request_lines_are_framed_as_bytes() {
    let (service, front) = idle_door();
    let sock = std::net::TcpStream::connect(front.addr()).expect("connect");
    let mut reader = BufReader::new(&sock);

    // Two requests in one segment get two reply lines.
    (&sock)
        .write_all(b"{\"op\":\"status\"}\n{\"op\":\"warp\"}\n")
        .expect("write");
    assert!(read_reply(&mut reader).contains("\"pool\":1"));
    assert!(read_reply(&mut reader).contains("\"error\":\"bad_request\""));

    // A line split inside a two-byte character, around a pause longer
    // than the door's read time-out, is still one request.
    let line = "{\"op\":\"é\"}\n".as_bytes();
    let cut = line.iter().position(|&b| b == 0xC3).expect("é lead byte") + 1;
    (&sock).write_all(&line[..cut]).expect("write");
    std::thread::sleep(Duration::from_millis(120));
    (&sock).write_all(&line[cut..]).expect("write");
    let r = read_reply(&mut reader);
    assert!(r.contains("unknown op") && r.contains('é'), "{r}");

    // Junk UTF-8 is answered, and the connection keeps serving.
    (&sock).write_all(b"{\"op\":\"\xFF\"}\n").expect("write");
    let r = read_reply(&mut reader);
    assert!(
        r.contains("\"error\":\"bad_request\"") && r.contains("UTF-8"),
        "{r}"
    );
    (&sock).write_all(b"{\"op\":\"status\"}\n").expect("write");
    assert!(read_reply(&mut reader).contains("\"ok\":true"));

    front.shutdown();
    service.drain();
}

#[test]
fn tcp_overlong_lines_are_refused_and_the_front_stays_up() {
    let (service, front) = idle_door();
    let sock = std::net::TcpStream::connect(front.addr()).expect("connect");
    // One byte past the door's 4 MiB line limit, and no newline.
    (&sock)
        .write_all(&vec![b'['; (4 << 20) + 1])
        .expect("write");
    let mut reader = BufReader::new(&sock);
    let r = read_reply(&mut reader);
    assert!(
        r.contains("\"ok\":false") && r.contains("\"error\":\"line_too_long\""),
        "{r}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("closed"), 0, "{rest}");

    let fresh = std::net::TcpStream::connect(front.addr()).expect("connect again");
    (&fresh).write_all(b"{\"op\":\"status\"}\n").expect("write");
    assert!(read_reply(&mut BufReader::new(&fresh)).contains("\"ok\":true"));

    front.shutdown();
    service.drain();
}
