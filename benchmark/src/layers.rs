//! Pass 2: the per-layer decomposition. The door is driven again with
//! spans recorded, then each layer below it is called directly — the
//! service in-process, `ompc::compile`, `Cluster::run` on standalone
//! warm clusters, the closure twin — and the counters the program
//! already exports are read at the same boundaries.

use crate::door::{cluster, touch, Ctx, Outcome};
use crate::host;
use crate::micro;
use crate::programs::Variant;
use crate::report::Value;
use crate::spans::Tracer;
use crate::stats::{mean, median, median_by, percentile};
use crate::workloads::{Drive, BURST_PI_EVERY, TOUCH};
use nomp::{Cluster, ClusterBuilder, OpLat, RunReport, TmkStats, TraceConfig};
use now_service::{JobRequest, JobValue};
use ompc::Compiled;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One job of a measurement unit.
#[derive(Clone, Copy)]
enum Job<'a> {
    /// The compiled `.omp` program, through the interpreter.
    Omp(&'a Arc<Compiled>, &'a Variant),
    /// Its hand-written closure twin.
    Twin(&'a Variant),
    /// The `touch` closure.
    Touch,
}

/// The jobs one timed unit runs: one variant for the closed-loop
/// workloads, the burst mix (seven `touch`, one tiny pi) for
/// `door_burst`. Unit `k` uses variant `k`.
fn unit<'a>(ctx: &'a Ctx<'_>, compiled: &'a [Arc<Compiled>], k: usize, twin: bool) -> Vec<Job<'a>> {
    let v = k % compiled.len();
    let program = &ctx.requests.programs[v];
    let job = if twin {
        Job::Twin(program)
    } else {
        Job::Omp(&compiled[v], program)
    };
    match ctx.workload.drive {
        Drive::ClosedLoop => vec![job],
        Drive::Burst => {
            let mut jobs = vec![Job::Touch; BURST_PI_EVERY - 1];
            jobs.push(job);
            jobs
        }
    }
}

/// What a standalone cluster reported over a timed stretch.
#[derive(Default)]
struct ClusterRun {
    /// Host ms per job, one sample per unit.
    run_ms: Vec<f64>,
    /// Virtual ns per job, one sample per unit.
    vt_ns: Vec<f64>,
    jobs: f64,
    dsm: TmkStats,
    msgs: f64,
    bytes: f64,
    /// Host ns inside tmk ops per `OpLat`, summed over nodes.
    op_host_ns: Vec<f64>,
    nodes: f64,
    chunks_claimed: f64,
    local_barriers: f64,
    team_forks: f64,
    reset_host_ns: f64,
    resets: f64,
    /// Per-job virtual-time shares (compute, barrier, protocol, idle),
    /// averaged over nodes; filled only when tracing is armed.
    vt_shares: Vec<[f64; 4]>,
}

impl ClusterRun {
    fn per_job(&self, total: f64) -> f64 {
        total / self.jobs
    }

    fn op_host_ms_per_job(&self, ops: &[OpLat]) -> f64 {
        let ns: f64 = ops.iter().map(|&op| self.op_host_ns[op as usize]).sum();
        ns / self.nodes / self.jobs / 1e6
    }

    fn vt_share(&self, part: usize) -> f64 {
        mean(&self.vt_shares.iter().map(|s| s[part]).collect::<Vec<_>>())
    }
}

/// Run one job and check its result; returns the measurements.
fn run_one(cluster: &mut Cluster, job: Job<'_>) -> Result<RunReport<()>, String> {
    let down = |e| format!("cluster refused a job: {e}");
    let (program, got) = match job {
        Job::Touch => return cluster.run(touch).map_err(down),
        Job::Omp(compiled, program) => {
            let r = cluster.run(&**compiled).map_err(down)?;
            let got = r.result.scalars.get(program.scalar()).copied();
            (program, r.map(|_| got))
        }
        Job::Twin(program) => {
            let r = cluster.run(program.twin()).map_err(down)?;
            (program, r.map(Some))
        }
    };
    match got.result {
        Some(v) if program.accepts(v) => Ok(got.map(drop)),
        v => Err(format!(
            "standalone {program:?} gave {v:?}, reference {:e}",
            program.want
        )),
    }
}

/// Build a cluster, warm it with one unit, then run units for `budget`.
fn measure_cluster<'a>(
    builder: ClusterBuilder,
    units: &dyn Fn(usize) -> Vec<Job<'a>>,
    budget: Duration,
    span: (&'static str, &'static str),
    tracer: &mut Tracer,
) -> Result<ClusterRun, String> {
    let mut cluster = builder.build().map_err(|e| format!("cluster: {e}"))?;
    for job in units(0) {
        run_one(&mut cluster, job)?;
    }
    let before = cluster.metrics();
    let mut run = ClusterRun {
        nodes: cluster.nodes() as f64,
        ..ClusterRun::default()
    };
    let start = Instant::now();
    let mut k = 1;
    // At least three units, whatever the budget.
    while k <= 3 || start.elapsed() < budget {
        let jobs = units(k);
        let n = jobs.len() as f64;
        let mut vt = 0.0;
        let t = Instant::now();
        for job in jobs {
            let report = run_one(&mut cluster, job)?;
            vt += report.vt_ns as f64;
            run.msgs += report.msgs() as f64;
            run.bytes += report.bytes() as f64;
            run.dsm.merge(&report.dsm);
            if let Some(p) = &report.profile {
                let mut parts = [0.0; 4];
                for n in &p.nodes {
                    for (sum, ns) in parts
                        .iter_mut()
                        .zip([n.compute_ns, n.barrier_ns, n.protocol_ns, n.idle_ns])
                    {
                        *sum += ns as f64;
                    }
                }
                let whole = (p.nodes.len() as u64 * p.total_ns).max(1) as f64;
                run.vt_shares.push(parts.map(|ns| ns / whole));
            }
        }
        let dur = t.elapsed();
        tracer.add(span.0, span.1, "", k as u64, t, dur);
        run.run_ms.push(dur.as_secs_f64() * 1e3 / n);
        run.vt_ns.push(vt / n);
        run.jobs += n;
        k += 1;
    }
    let after = cluster.metrics();
    run.op_host_ns = OpLat::ALL
        .iter()
        .map(|&op| {
            let sum = |m: &nomp::MetricsSnapshot| m.lat_host_total(op).sum;
            sum(&after).wrapping_sub(sum(&before)) as f64
        })
        .collect();
    let delta = |f: fn(&nomp::NodeMetricsSnapshot) -> u64| {
        let sum = |m: &nomp::MetricsSnapshot| m.nodes.iter().map(f).sum::<u64>();
        (sum(&after) - sum(&before)) as f64
    };
    run.chunks_claimed = delta(|n| n.chunks_claimed);
    run.local_barriers = delta(|n| n.local_barriers);
    run.team_forks = delta(|n| n.team_forks);
    run.reset_host_ns = after.reset_host_ns.sum.wrapping_sub(before.reset_host_ns.sum) as f64;
    run.resets = (after.reset_host_ns.count() - before.reset_host_ns.count()) as f64;
    cluster.shutdown();
    Ok(run)
}

/// One row of the "where the host time goes" table.
pub struct Row {
    pub what: &'static str,
    pub layer: &'static str,
    pub ms: f64,
}

/// Everything pass 2 produced for one workload.
pub struct Layers {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Self times per door operation, largest first.
    pub table: Vec<Row>,
    /// The traced pass's `latency_p50_ms`, which the table should add
    /// up to.
    pub latency_p50_ms: f64,
    pub tracers: Vec<Tracer>,
}

/// Nothing below may divide by zero: a ratio with an empty denominator
/// reads 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Ctx<'_> {
    /// Compile every variant, timing `ompc::compile` and the analyzer.
    fn compile(&self, tracer: &mut Tracer) -> Result<(Vec<Arc<Compiled>>, f64, f64), String> {
        let mut compiled = Vec::new();
        let (mut compile_us, mut analyze_us) = (Vec::new(), Vec::new());
        for (v, program) in self.requests.programs.iter().enumerate() {
            let src = program.source();
            for rep in 0..5 {
                let (c, dur) = tracer.time("ompc::compile", "ompc", "", v as u64, || ompc::compile(&src));
                let c = c.map_err(|d| format!("variant {v} does not compile: {d}"))?;
                compile_us.push(dur.as_secs_f64() * 1e6);
                let (lints, dur) = tracer.time("Compiled::lints", "ompc", "", v as u64, || c.lints());
                if !lints.is_empty() {
                    return Err(format!("variant {v} is not analyzer-clean: {}", lints[0]));
                }
                analyze_us.push(dur.as_secs_f64() * 1e6);
                if rep == 0 {
                    compiled.push(Arc::new(c));
                }
            }
        }
        Ok((compiled, median(&compile_us), median(&analyze_us)))
    }

    /// In-process `ServiceHandle::submit` + `Ticket::wait` per job, on
    /// the door's own (now idle) service: host ms per job.
    fn submit_wait(
        &self,
        handle: &now_service::ServiceHandle,
        compiled: &[Arc<Compiled>],
        budget: Duration,
        tracer: &mut Tracer,
    ) -> Result<Vec<f64>, String> {
        let start = Instant::now();
        let mut per_job = Vec::new();
        let mut k = 0;
        while k < 3 || start.elapsed() < budget {
            let jobs = unit(self, compiled, k, false);
            let t = Instant::now();
            let tickets: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let req = match job {
                        Job::Omp(c, _) => JobRequest::omp_shared((*c).clone()),
                        _ => JobRequest::named(TOUCH),
                    };
                    handle
                        .submit(req)
                        .map_err(|r| format!("in-process submit rejected: {r}"))
                })
                .collect::<Result<_, _>>()?;
            let reports: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
            let dur = t.elapsed();
            tracer.add(
                "ServiceHandle::submit+Ticket::wait",
                "now-service",
                "",
                k as u64,
                t,
                dur,
            );
            for (job, report) in jobs.iter().zip(reports) {
                let value = report
                    .outcome
                    .map_err(|e| format!("in-process job failed: {e}"))?
                    .result;
                if let (Job::Omp(_, program), JobValue::Program(out)) = (job, &value) {
                    let got = out.scalars.get(program.scalar()).copied().unwrap_or(f64::NAN);
                    if !program.accepts(got) {
                        return Err(format!("in-process {program:?} gave {got:e}"));
                    }
                }
            }
            per_job.push(ms(dur) / jobs.len() as f64);
            k += 1;
        }
        Ok(per_job)
    }

    /// The traced pass: every per-layer metric of this workload.
    pub fn per_layer(&self, seconds: f64) -> Result<Layers, String> {
        let w = self.workload;
        let share = |f: f64| Duration::from_secs_f64(seconds * f);
        let epoch = Instant::now();
        let mut tracer = self.tracer(epoch, 9);

        // --- the door, untraced then traced ------------------------------
        let mut rig = self.setup()?;
        // However short the run, a door window holds a few operations.
        let door_window = |f: f64| share(f).max(Duration::from_millis(400));
        let plain = self.measure(&mut rig, share(0.02), door_window(0.13), None);
        let handle = rig.door.handle();
        let (cpu0, svc0) = (host::cpu_ms(), handle.metrics());
        let traced = self.measure(&mut rig, Duration::ZERO, door_window(0.25), Some(epoch));
        let (cpu1, svc1) = (host::cpu_ms(), handle.metrics());
        if plain.hung || traced.hung {
            // Dropping the service would wait for the hung job.
            std::mem::forget(rig);
            return Err(format!("{}: a client timed out; the service cannot be drained", w.name));
        }
        let Outcome { samples, tracers, .. } = traced;
        if samples.is_empty() || plain.samples.is_empty() {
            return Err(format!("{}: no operation completed in the traced window", w.name));
        }
        let lat: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
        let latency_p50_ms = median(&lat);
        let ops = samples.len();
        let jobs = (ops * w.jobs_per_op()) as f64;

        let (compiled, compile_us, analyze_us) = self.compile(&mut tracer)?;
        let sw = self.submit_wait(&handle, &compiled, share(0.07), &mut tracer)?;
        rig.close();

        // Queue wait and run time per job: the reply's own fields where
        // every job is waited for, the service's histograms otherwise.
        let (queue_wait_ms, run_host_ms) = match w.drive {
            Drive::ClosedLoop => (
                median_by(&samples, |s| ms(s.queue_wait)),
                median_by(&samples, |s| ms(s.run_host)),
            ),
            Drive::Burst => {
                let per_job = |h0: now_metrics::HistogramSnapshot, h1: now_metrics::HistogramSnapshot| {
                    ratio(h1.sum.wrapping_sub(h0.sum) as f64, (h1.count() - h0.count()) as f64) / 1e6
                };
                (
                    per_job(svc0.queue_wait_merged(), svc1.queue_wait_merged()),
                    per_job(svc0.service_host_merged(), svc1.service_host_merged()),
                )
            }
        };

        // --- standalone clusters ------------------------------------------
        let omp_units = |k: usize| unit(self, &compiled, k, false);
        let twin_units = |k: usize| unit(self, &compiled, k, true);
        let span = ("Cluster::run", "nomp");
        let shape = measure_cluster(cluster(w.nodes, 1), &omp_units, share(0.10), span, &mut tracer)?;
        let native = measure_cluster(
            cluster(w.nodes, 1),
            &twin_units,
            share(0.08),
            ("Cluster::run(twin)", "nomp"),
            &mut tracer,
        )?;
        let four = if w.nodes == 4 {
            None
        } else {
            Some(measure_cluster(
                cluster(4, 1),
                &omp_units,
                share(0.05),
                span,
                &mut tracer,
            )?)
        };
        let four = four.as_ref().unwrap_or(&shape);
        let smp = measure_cluster(cluster(2, 2), &omp_units, share(0.06), span, &mut tracer)?;
        let one = measure_cluster(cluster(1, 1), &omp_units, share(0.05), span, &mut tracer)?;
        let armed = measure_cluster(
            cluster(w.nodes, 1).trace(TraceConfig::default()),
            &omp_units,
            share(0.06),
            ("Cluster::run(traced)", "now-trace"),
            &mut tracer,
        )?;
        let reference_us: Vec<f64> = self
            .requests
            .programs
            .iter()
            .map(|p| {
                let (r, dur) = tracer.time("Program::reference", "host", "", 0, || p.reference());
                std::hint::black_box(r);
                dur.as_secs_f64() * 1e6
            })
            .collect();

        // --- micro-operations ---------------------------------------------
        let mut micros = Vec::new();
        micro::run(share(0.10), &mut tracer, &mut micros);
        micro::door(w, share(0.03), &mut tracer, &mut micros)?;
        let micro_of = |name: &str| micros.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);

        // --- derived metrics ----------------------------------------------
        let run_ms = median(&shape.run_ms);
        let native_ms = median(&native.run_ms);
        let sw_ms = median(&sw);
        let par = w.parallelism() as f64;
        let dispatch_self_ms = sw_ms - run_ms / par;
        let interp_self_ms = run_ms - native_ms;
        let compile_ms = compile_us / 1e3 * w.compiles_per_op() as f64;
        let door_self_ms = match w.drive {
            Drive::ClosedLoop => {
                median_by(&samples, |s| ms(s.latency) - ms(s.queue_wait) - ms(s.run_host)) - compile_ms
            }
            Drive::Burst => latency_p50_ms - compile_ms - sw_ms * w.jobs_per_op() as f64,
        };
        let barrier_ms = native.op_host_ms_per_job(&[OpLat::Barrier]);
        let fault_ms = native.op_host_ms_per_job(&[OpLat::PageFault]);
        let lock_ms = native.op_host_ms_per_job(&[
            OpLat::LockAcquire,
            OpLat::LockRelease,
            OpLat::CondWait,
            OpLat::SemaWait,
            OpLat::SemaSignal,
        ]);
        let dsm = |f: fn(&TmkStats) -> u64| shape.per_job(f(&shape.dsm) as f64);
        let msgs_per_job = shape.per_job(shape.msgs);
        let diff_ns = dsm(|d| d.diffs_created) * micro_of("tmk.diff_create_dense_ns")
            + dsm(|d| d.diffs_applied) * micro_of("tmk.diff_apply_dense_ns");

        // Sample counts behind each group of values.
        let (n_door, n_run, n_twin) = (ops, shape.run_ms.len(), native.run_ms.len());
        let (n_jobs, n_smp, n_armed) = (shape.jobs as usize, smp.jobs as usize, armed.vt_shares.len());
        let plain_p50 = median_by(&plain.samples, |s| ms(s.latency));
        let steals = ratio(shape.dsm.tasks_stolen as f64, shape.dsm.steal_attempts as f64);
        let local = ratio(shape.dsm.lock_acquires_local as f64, shape.dsm.lock_acquires as f64);
        let rejected = (svc1.rejected() - svc0.rejected()) as f64;
        let measured = [
            ("service.latency_p90_ms", percentile(&lat, 90.0), "ms", n_door),
            ("service.queue_wait_ms", queue_wait_ms, "ms", n_door),
            ("service.run_host_ms", run_host_ms, "ms", n_door),
            ("service.door_self_ms", door_self_ms, "ms", n_door),
            ("service.dispatch_self_us", dispatch_self_ms * 1e3, "us", sw.len()),
            ("service.rejected", rejected, "count", n_door),
            ("ompc.compile_us", compile_us, "us", 5 * compiled.len()),
            ("ompc.analyze_us", analyze_us, "us", 5 * compiled.len()),
            ("ompc.interp_self_ms", interp_self_ms, "ms", n_run),
            ("ompc.interp_ratio", ratio(run_ms, native_ms), "ratio", n_run),
            ("nomp.run_ms", run_ms, "ms", n_run),
            ("nomp.native_ms", native_ms, "ms", n_twin),
            ("nomp.vt_ms_per_job", median(&shape.vt_ns) / 1e6, "ms", n_run),
            (
                "nomp.vt_speedup_4n",
                ratio(median(&one.vt_ns), median(&four.vt_ns)),
                "ratio",
                one.vt_ns.len(),
            ),
            ("nomp.vt_compute_share", armed.vt_share(0), "ratio", n_armed),
            ("nomp.vt_idle_share", armed.vt_share(3), "ratio", n_armed),
            (
                "nomp.chunks_claimed_per_job",
                shape.per_job(shape.chunks_claimed),
                "count",
                n_jobs,
            ),
            ("nomp.steal_hit_ratio", steals, "ratio", n_jobs),
            (
                "smp.run_ratio_2x2",
                ratio(median(&smp.run_ms), median(&four.run_ms)),
                "ratio",
                smp.run_ms.len(),
            ),
            (
                "smp.local_barriers_per_job",
                smp.per_job(smp.local_barriers),
                "count",
                n_smp,
            ),
            ("smp.team_forks_per_job", smp.per_job(smp.team_forks), "count", n_smp),
            ("tmk.barriers_per_job", dsm(|d| d.barriers), "count", n_jobs),
            ("tmk.read_faults_per_job", dsm(|d| d.read_faults), "count", n_jobs),
            ("tmk.twins_per_job", dsm(|d| d.twins_created), "count", n_jobs),
            ("tmk.diffs_created_per_job", dsm(|d| d.diffs_created), "count", n_jobs),
            ("tmk.diffs_applied_per_job", dsm(|d| d.diffs_applied), "count", n_jobs),
            (
                "tmk.diff_kbytes_per_job",
                dsm(|d| d.diff_bytes_created) / 1024.0,
                "KiB",
                n_jobs,
            ),
            ("tmk.lock_acquires_per_job", dsm(|d| d.lock_acquires), "count", n_jobs),
            ("tmk.lock_local_ratio", local, "ratio", n_jobs),
            ("tmk.barrier_host_ms_per_job", barrier_ms, "ms", native.jobs as usize),
            ("tmk.fault_host_ms_per_job", fault_ms, "ms", native.jobs as usize),
            ("tmk.lock_host_ms_per_job", lock_ms, "ms", native.jobs as usize),
            ("tmk.vt_barrier_share", armed.vt_share(1), "ratio", n_armed),
            ("tmk.vt_protocol_share", armed.vt_share(2), "ratio", n_armed),
            (
                "tmk.reset_host_us",
                ratio(shape.reset_host_ns, shape.resets) / 1e3,
                "us",
                shape.resets as usize,
            ),
            ("tmk.diff_share", ratio(diff_ns, run_ms * 1e6), "ratio", n_jobs),
            ("net.kbytes_per_job", shape.per_job(shape.bytes) / 1024.0, "KiB", n_jobs),
            ("net.host_us_per_msg", ratio(run_ms * 1e3, msgs_per_job), "us", n_jobs),
            (
                "trace.armed_ratio",
                ratio(median(&armed.run_ms), run_ms),
                "ratio",
                armed.run_ms.len(),
            ),
            (
                "bench.tracing_overhead_ratio",
                ratio(latency_p50_ms, plain_p50),
                "ratio",
                n_door,
            ),
            ("host.cpu_ms_per_job", (cpu1 - cpu0) / jobs, "ms", jobs as usize),
            ("host.peak_rss_mb", host::peak_rss_mb(), "MiB", 1),
            ("host.reference_us", median(&reference_us), "us", reference_us.len()),
        ];
        let micros = micros.into_iter().map(|(name, value, unit)| (name, value, unit, 0));
        let values = measured
            .into_iter()
            .chain(micros)
            .map(|(name, value, unit, n)| Value { name, value, unit, n })
            .collect();

        // --- where the host time goes, per door operation -----------------
        let rows = match w.drive {
            // The run is split by substitution: interpreter = run − twin,
            // the twin's time inside tmk ops, and what is left of the twin.
            Drive::ClosedLoop => vec![
                ("service.door_self", "now-service", door_self_ms),
                ("service.queue_wait", "now-service", queue_wait_ms),
                ("ompc.compile", "ompc", compile_ms),
                ("service.dispatch_self", "now-service", dispatch_self_ms),
                ("ompc.interp_self", "ompc", interp_self_ms),
                ("tmk.barrier_host", "tmk", barrier_ms),
                ("tmk.fault_host", "tmk", fault_ms),
                ("tmk.lock_host", "tmk", lock_ms),
                (
                    "remainder (twin compute + nomp runtime)",
                    "nomp",
                    native_ms - barrier_ms - fault_ms - lock_ms,
                ),
            ],
            // A pipelined batch overlaps its jobs, so per-job self times
            // do not add up; what does is the door's share over running
            // the same jobs in-process on the same pool.
            Drive::Burst => vec![
                ("service.door_self", "now-service", door_self_ms),
                ("ompc.compile", "ompc", compile_ms),
                (
                    "service.pool (in-process dispatch + runs of the batch)",
                    "now-service",
                    sw_ms * w.jobs_per_op() as f64,
                ),
            ],
        };
        let mut table: Vec<Row> = rows
            .into_iter()
            .map(|(what, layer, ms)| Row { what, layer, ms })
            .collect();
        table.sort_by(|a, b| b.ms.total_cmp(&a.ms));

        let mut all = tracers;
        all.push(tracer);
        Ok(Layers {
            values,
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            table,
            latency_p50_ms,
            tracers: all,
        })
    }
}
