//! The dispatcher: admission control, weighted fair share, deadlines,
//! a pool of warm clusters, graceful drain.
//!
//! One [`Service`] owns `pool` worker threads, each holding a warm
//! [`Cluster`] built from the same validated `OmpConfig`. Submissions
//! go through one bounded multi-tenant queue; workers pull jobs by
//! deficit round-robin over the per-tenant queues (quantum = the
//! tenant's weight, cost 1 per job), so under saturation completed-job
//! throughput is weight-proportional. Within a tenant, higher
//! [`JobRequest::priority`] runs first, FIFO among equals.
//!
//! Everything observable is deterministic when it needs to be: a
//! *held* service ([`ServiceConfig::hold`](crate::ServiceConfig::hold))
//! admits without dispatching, so queue-full rejection points and — with
//! a pool of one — the exact dispatch order are reproducible, which is
//! what the fair-share tests and the service bench pin.

use crate::config::{ClosureFactory, ClosureJob, ServiceConfig};
use crate::metrics::{ServiceMetrics, ServiceMetricsSnapshot};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use nomp::{Cluster, Env, Job, OmpConfig, RunReport};
use ompc::{Compiled, ProgramOutput};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ----------------------------------------------------------------------
// Job payloads and results
// ----------------------------------------------------------------------

/// What a service job evaluates to. Closure jobs return one of these
/// directly; `.omp` jobs return [`JobValue::Program`] with the
/// translated program's full output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobValue {
    /// No payload (side-effect-only job).
    Unit,
    /// A single number.
    Num(f64),
    /// A vector of numbers.
    Nums(Vec<f64>),
    /// A text payload.
    Text(String),
    /// A translated `.omp` program's final state.
    Program(ProgramOutput),
}

impl JobValue {
    /// The number, if this is [`JobValue::Num`].
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JobValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// The work a [`JobRequest`] carries.
pub(crate) enum WorkSpec {
    /// A Rust master closure.
    Closure(ClosureJob),
    /// A compiled `.omp` program (cheap to share across submissions).
    Omp(Arc<Compiled>),
    /// A closure workload registered by name in the `ServiceConfig`.
    Named(String),
}

/// One job submission: the work plus its tenant, priority and deadline.
pub struct JobRequest {
    pub(crate) tenant: Option<String>,
    pub(crate) priority: u8,
    pub(crate) deadline: Option<Duration>,
    pub(crate) work: WorkSpec,
}

impl JobRequest {
    /// A job from a Rust master closure over [`Env`].
    pub fn closure(f: impl FnOnce(&mut Env<'_>) -> JobValue + Send + 'static) -> Self {
        JobRequest {
            tenant: None,
            priority: 0,
            deadline: None,
            work: WorkSpec::Closure(Box::new(f)),
        }
    }

    /// A job running a compiled `.omp` program.
    pub fn omp(prog: Compiled) -> Self {
        Self::omp_shared(Arc::new(prog))
    }

    /// A job running an already-shared compiled program (no clone of
    /// the program per submission).
    pub fn omp_shared(prog: Arc<Compiled>) -> Self {
        JobRequest {
            tenant: None,
            priority: 0,
            deadline: None,
            work: WorkSpec::Omp(prog),
        }
    }

    /// A job running a closure workload registered with
    /// [`ServiceConfig::closure`](crate::ServiceConfig::closure) — the
    /// submission form available to TCP clients.
    pub fn named(name: impl Into<String>) -> Self {
        JobRequest {
            tenant: None,
            priority: 0,
            deadline: None,
            work: WorkSpec::Named(name.into()),
        }
    }

    /// Attribute the job to a tenant (default: the first registered
    /// tenant).
    pub fn tenant(mut self, name: impl Into<String>) -> Self {
        self.tenant = Some(name.into());
        self
    }

    /// Priority within the tenant's queue (higher runs first; default 0).
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Host-time deadline measured from admission. A job still queued
    /// when its deadline passes fails fast with
    /// [`JobError::DeadlineExpired`] instead of occupying a cluster; a
    /// deadline the service can prove unmeetable at admission is
    /// rejected up front.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Typed admission backpressure: why a submission was not queued.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The bounded queue is at capacity.
    QueueFull {
        /// Jobs queued at rejection time.
        depth: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The service is draining and admits nothing new.
    Draining,
    /// The deadline cannot be met (zero, or provably shorter than the
    /// expected queue delay).
    DeadlineUnmeetable {
        /// The requested deadline in milliseconds.
        deadline_ms: f64,
        /// The service's completion estimate in milliseconds.
        estimate_ms: f64,
    },
    /// The tenant is not registered.
    UnknownTenant(String),
    /// The named closure workload is not registered.
    UnknownProgram(String),
    /// The static analyzer denied the `.omp` program at admission
    /// ([`ServiceConfig::deny_races`](crate::ServiceConfig::deny_races)):
    /// the denied findings, sorted by source position.
    Lint(Vec<ompc::Lint>),
}

impl Rejected {
    /// Stable short name for logs, metrics and the TCP protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::Draining => "draining",
            Rejected::DeadlineUnmeetable { .. } => "deadline_unmeetable",
            Rejected::UnknownTenant(_) => "unknown_tenant",
            Rejected::UnknownProgram(_) => "unknown_program",
            Rejected::Lint(_) => "lint",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { depth, bound } => {
                write!(f, "queue full ({depth} of {bound} jobs queued)")
            }
            Rejected::Draining => write!(f, "service is draining"),
            Rejected::DeadlineUnmeetable {
                deadline_ms,
                estimate_ms,
            } => write!(
                f,
                "deadline {deadline_ms} ms unmeetable (estimated completion {estimate_ms:.3} ms)"
            ),
            Rejected::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            Rejected::UnknownProgram(p) => write!(f, "unknown registered closure {p:?}"),
            Rejected::Lint(lints) => {
                write!(f, "static analyzer denied the program: ")?;
                for (i, l) in lints.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{l}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an admitted job produced no [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The deadline passed while the job waited; it was failed fast
    /// without occupying a cluster.
    DeadlineExpired {
        /// The requested deadline in milliseconds.
        deadline_ms: f64,
        /// How long the job actually waited, in milliseconds.
        waited_ms: f64,
        /// A human-readable account of the queue state at expiry.
        diagnostic: String,
    },
    /// The job body panicked on its cluster (the pool replaced the
    /// cluster; the service keeps serving).
    Panicked(String),
    /// The service died before reporting (a worker was lost).
    Lost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineExpired {
                deadline_ms,
                waited_ms,
                diagnostic,
            } => write!(
                f,
                "deadline {deadline_ms} ms expired after {waited_ms:.3} ms queued: {diagnostic}"
            ),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
            JobError::Lost => write!(f, "the service was lost before the job reported"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything the service reports about one admitted job.
#[derive(Debug)]
pub struct ServiceReport {
    /// Service-wide job id (admission order).
    pub id: u64,
    /// The tenant the job ran under.
    pub tenant: String,
    /// Pool slot that served it (`usize::MAX` if never dispatched).
    pub worker: usize,
    /// Host time from admission to dispatch.
    pub queue_wait: Duration,
    /// Host time the job spent running on its cluster.
    pub service_host: Duration,
    /// The job's [`RunReport`] — or the typed reason there is none.
    pub outcome: Result<RunReport<JobValue>, JobError>,
}

impl ServiceReport {
    /// The job's result payload, if it completed.
    pub fn value(&self) -> Option<&JobValue> {
        self.outcome.as_ref().ok().map(|r| &r.result)
    }
}

/// A claim on one admitted job's eventual [`ServiceReport`].
pub struct Ticket {
    id: u64,
    tenant: String,
    rx: Receiver<ServiceReport>,
}

impl Ticket {
    /// Service-wide id of the admitted job.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job's report arrives. Never hangs past a drain:
    /// every admitted job is completed or failed before the workers
    /// exit, and a lost worker surfaces as [`JobError::Lost`].
    pub fn wait(self) -> ServiceReport {
        let (id, tenant) = (self.id, self.tenant.clone());
        self.rx.recv().unwrap_or(ServiceReport {
            id,
            tenant,
            worker: usize::MAX,
            queue_wait: Duration::ZERO,
            service_host: Duration::ZERO,
            outcome: Err(JobError::Lost),
        })
    }

    /// The report if it is already available (non-blocking).
    pub fn try_wait(&self) -> Option<ServiceReport> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(ServiceReport {
                id: self.id,
                tenant: self.tenant.clone(),
                worker: usize::MAX,
                queue_wait: Duration::ZERO,
                service_host: Duration::ZERO,
                outcome: Err(JobError::Lost),
            }),
        }
    }
}

// ----------------------------------------------------------------------
// Dispatch state
// ----------------------------------------------------------------------

/// The work a worker actually runs (names already resolved).
enum Work {
    Closure(ClosureJob),
    Omp(Arc<Compiled>),
}

/// One admitted, not-yet-dispatched job.
struct Queued {
    id: u64,
    tenant: usize,
    priority: u8,
    seq: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    deadline_req: Option<Duration>,
    work: Work,
    done: Sender<ServiceReport>,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    /// Max-heap order: higher priority first, then earlier submission.
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct DispatchState {
    /// Per-tenant priority queues.
    queues: Vec<BinaryHeap<Queued>>,
    /// Per-tenant deficit-round-robin credits.
    credits: Vec<u64>,
    /// Tenant the scan starts from.
    cursor: usize,
    /// Jobs admitted and not yet dispatched (over all tenants).
    queued_total: usize,
    /// Jobs currently running on pool clusters.
    in_flight: usize,
    /// No new admissions; drain the backlog and stop.
    draining: bool,
    /// Whether workers may dispatch (false while held).
    open: bool,
    next_id: u64,
    next_seq: u64,
    dispatch_log: Option<Vec<(usize, u64)>>,
}

struct TenantCfg {
    name: String,
    weight: u64,
}

/// Shared between the front door, the TCP endpoint and the workers.
struct Shared {
    cluster_cfg: OmpConfig,
    tenants: Vec<TenantCfg>,
    programs: Vec<(String, ClosureFactory)>,
    queue_bound: usize,
    pool: usize,
    default_deadline: Option<Duration>,
    deny_races: bool,
    state: Mutex<DispatchState>,
    /// Wakes workers: new work, an open, or a drain.
    work_ready: Condvar,
    /// Wakes idle-waiters: queue and in-flight both hit zero.
    idle: Condvar,
    metrics: Arc<ServiceMetrics>,
}

impl Shared {
    fn tenant_index(&self, name: Option<&str>) -> Result<usize, Rejected> {
        match name {
            None => Ok(0),
            Some(n) => self
                .tenants
                .iter()
                .position(|t| t.name == n)
                .ok_or_else(|| Rejected::UnknownTenant(n.to_string())),
        }
    }

    fn resolve(&self, work: WorkSpec) -> Result<Work, Rejected> {
        match work {
            WorkSpec::Closure(f) => Ok(Work::Closure(f)),
            WorkSpec::Omp(p) => Ok(Work::Omp(p)),
            WorkSpec::Named(name) => self
                .programs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, f)| Work::Closure(f()))
                .ok_or(Rejected::UnknownProgram(name)),
        }
    }

    fn submit(&self, req: JobRequest) -> Result<Ticket, Rejected> {
        let tenant = self.tenant_index(req.tenant.as_deref())?;
        let tm = self.metrics.tenant(tenant);
        // Admission-time static analysis: under `deny_races`, a `.omp`
        // program with a provable race never reaches a cluster.
        if self.deny_races {
            if let WorkSpec::Omp(prog) = &req.work {
                let mut lints = prog.lints();
                ompc::promote_races(&mut lints);
                lints.retain(|l| l.level == ompc::LintLevel::Deny);
                if !lints.is_empty() {
                    tm.rejected_lint.inc();
                    return Err(Rejected::Lint(lints));
                }
            }
        }
        let work = match self.resolve(req.work) {
            Ok(w) => w,
            Err(r) => {
                tm.rejected_unknown.inc();
                return Err(r);
            }
        };
        let deadline = req.deadline.or(self.default_deadline);

        let mut st = self.state.lock().expect("dispatcher lock");
        if st.draining {
            tm.rejected_draining.inc();
            return Err(Rejected::Draining);
        }
        if let Some(d) = deadline {
            let deadline_ms = d.as_secs_f64() * 1e3;
            if d.is_zero() {
                tm.rejected_deadline.inc();
                return Err(Rejected::DeadlineUnmeetable {
                    deadline_ms,
                    estimate_ms: f64::INFINITY,
                });
            }
            // Once the service has seen completions, reject deadlines
            // provably shorter than the expected queue delay: mean
            // service time × (jobs ahead / pool + this job).
            let mean_ns = self.metrics.snapshot().service_host_merged().mean();
            if mean_ns > 0.0 {
                let estimate_ns = mean_ns * (st.queued_total as f64 / self.pool as f64 + 1.0);
                if estimate_ns > d.as_nanos() as f64 {
                    tm.rejected_deadline.inc();
                    return Err(Rejected::DeadlineUnmeetable {
                        deadline_ms,
                        estimate_ms: estimate_ns / 1e6,
                    });
                }
            }
        }
        if st.queued_total >= self.queue_bound {
            tm.rejected_queue_full.inc();
            return Err(Rejected::QueueFull {
                depth: st.queued_total,
                bound: self.queue_bound,
            });
        }

        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let now = Instant::now();
        let (tx, rx) = unbounded();
        st.queues[tenant].push(Queued {
            id,
            tenant,
            priority: req.priority,
            seq,
            submitted: now,
            // A deadline past the end of `Instant`'s range never expires.
            deadline: deadline.and_then(|d| now.checked_add(d)),
            deadline_req: deadline,
            work,
            done: tx,
        });
        st.queued_total += 1;
        tm.admitted.inc();
        self.metrics.queue_depth.set(st.queued_total as i64);
        drop(st);
        self.work_ready.notify_one();
        Ok(Ticket {
            id,
            tenant: self.tenants[tenant].name.clone(),
            rx,
        })
    }

    /// One deficit-round-robin pick. Credits replenish (quantum = the
    /// tenant's weight) only when no backlogged tenant has credit left,
    /// and empty queues forfeit theirs — so over any saturated window
    /// the dispatch mix is weight-proportional.
    fn drr_pick(&self, st: &mut DispatchState) -> Option<Queued> {
        if st.queued_total == 0 {
            return None;
        }
        let n = self.tenants.len();
        loop {
            for k in 0..n {
                let t = (st.cursor + k) % n;
                if st.queues[t].is_empty() {
                    st.credits[t] = 0;
                    continue;
                }
                if st.credits[t] > 0 {
                    st.credits[t] -= 1;
                    let q = st.queues[t].pop().expect("non-empty tenant queue");
                    if st.queues[t].is_empty() {
                        st.credits[t] = 0;
                    }
                    // Spend the remaining quantum before moving on.
                    st.cursor = if st.credits[t] > 0 { t } else { (t + 1) % n };
                    return Some(q);
                }
            }
            for t in 0..n {
                st.credits[t] = if st.queues[t].is_empty() {
                    0
                } else {
                    self.tenants[t].weight
                };
            }
        }
    }

    /// Worker wait loop: the next job to run, plus the queue depth just
    /// after the pick (for deadline diagnostics). `None` means drained.
    fn next_job(&self) -> Option<(Queued, usize)> {
        let mut st = self.state.lock().expect("dispatcher lock");
        loop {
            if st.open {
                if let Some(q) = self.drr_pick(&mut st) {
                    st.queued_total -= 1;
                    st.in_flight += 1;
                    self.metrics.queue_depth.set(st.queued_total as i64);
                    self.metrics.jobs_in_flight.set(st.in_flight as i64);
                    if let Some(log) = st.dispatch_log.as_mut() {
                        log.push((q.tenant, q.id));
                    }
                    let depth = st.queued_total;
                    return Some((q, depth));
                }
            }
            if st.draining && st.queued_total == 0 {
                return None;
            }
            st = self.work_ready.wait(st).expect("dispatcher lock");
        }
    }

    /// Post-job bookkeeping (all outcomes).
    fn job_done(&self) {
        let mut st = self.state.lock().expect("dispatcher lock");
        st.in_flight -= 1;
        self.metrics.jobs_in_flight.set(st.in_flight as i64);
        if st.in_flight == 0 && st.queued_total == 0 {
            self.idle.notify_all();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().expect("dispatcher lock");
        st.open = true;
        drop(st);
        self.work_ready.notify_all();
    }

    fn begin_drain(&self) {
        let mut st = self.state.lock().expect("dispatcher lock");
        st.draining = true;
        // A held service drains its backlog too: nothing may stay queued.
        st.open = true;
        drop(st);
        self.work_ready.notify_all();
    }

    fn await_idle(&self) {
        let mut st = self.state.lock().expect("dispatcher lock");
        while st.queued_total > 0 || st.in_flight > 0 {
            st = self.idle.wait(st).expect("dispatcher lock");
        }
    }

    fn status(&self) -> ServiceStatus {
        let st = self.state.lock().expect("dispatcher lock");
        ServiceStatus {
            pool: self.pool,
            queue_depth: st.queued_total,
            in_flight: st.in_flight,
            open: st.open,
            draining: st.draining,
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let m = self.metrics.tenant(i);
                    TenantStatus {
                        name: t.name.clone(),
                        weight: t.weight,
                        queued: st.queues[i].len(),
                        admitted: m.admitted.get(),
                        completed: m.completed.get(),
                        expired: m.expired.get(),
                        failed: m.failed.get(),
                        rejected: m.rejected(),
                    }
                })
                .collect(),
        }
    }
}

// ----------------------------------------------------------------------
// Worker
// ----------------------------------------------------------------------

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    let mut cluster = Cluster::from_config(shared.cluster_cfg.clone());
    while let Some((q, depth)) = shared.next_job() {
        let tm = shared.metrics.tenant(q.tenant);
        let waited = q.submitted.elapsed();
        tm.queue_wait_host_ns.record(waited.as_nanos() as u64);

        // Fail fast on an expired deadline: never occupy a cluster.
        if let Some(dl) = q.deadline {
            if Instant::now() >= dl {
                tm.expired.inc();
                let deadline_ms = q.deadline_req.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
                let report = ServiceReport {
                    id: q.id,
                    tenant: shared.tenants[q.tenant].name.clone(),
                    worker: slot,
                    queue_wait: waited,
                    service_host: Duration::ZERO,
                    outcome: Err(JobError::DeadlineExpired {
                        deadline_ms,
                        waited_ms: waited.as_secs_f64() * 1e3,
                        diagnostic: format!(
                            "job {} (tenant {:?}) expired in queue: {} job(s) still queued, \
                             pool of {}",
                            q.id, shared.tenants[q.tenant].name, depth, shared.pool
                        ),
                    }),
                };
                let _ = q.done.send(report);
                shared.job_done();
                continue;
            }
        }

        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| match q.work {
            Work::Closure(f) => cluster.run(Job::new(f)),
            Work::Omp(p) => cluster.run(&*p).map(|r| r.map(JobValue::Program)),
        }));
        let service_host = t0.elapsed();
        let outcome = match ran {
            Ok(Ok(report)) => {
                tm.completed.inc();
                tm.service_host_ns.record(service_host.as_nanos() as u64);
                shared
                    .metrics
                    .e2e_host_ns
                    .record(q.submitted.elapsed().as_nanos() as u64);
                Ok(report)
            }
            Ok(Err(e)) => {
                // ClusterDown without a panic: replace the cluster and
                // report the job as failed.
                tm.failed.inc();
                cluster = Cluster::from_config(shared.cluster_cfg.clone());
                Err(JobError::Panicked(format!("cluster refused the job: {e}")))
            }
            Err(p) => {
                // The job body panicked; the cluster is dead. The pool
                // self-heals: replace it and keep serving (the session
                // API's per-job reset means a fresh cluster serves
                // exactly what the old one would have).
                tm.failed.inc();
                cluster = Cluster::from_config(shared.cluster_cfg.clone());
                Err(JobError::Panicked(panic_message(p)))
            }
        };
        let report = ServiceReport {
            id: q.id,
            tenant: shared.tenants[q.tenant].name.clone(),
            worker: slot,
            queue_wait: waited,
            service_host,
            outcome,
        };
        let _ = q.done.send(report);
        shared.job_done();
    }
    // Drained: tear the warm cluster down, joining its node threads.
    if cluster.is_alive() {
        cluster.shutdown();
    }
}

// ----------------------------------------------------------------------
// Service + handle
// ----------------------------------------------------------------------

/// A live snapshot of the dispatcher's state (the TCP `status` verb).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStatus {
    /// Pool size (warm clusters / worker threads).
    pub pool: usize,
    /// Jobs admitted and not yet dispatched.
    pub queue_depth: usize,
    /// Jobs currently running.
    pub in_flight: usize,
    /// Whether dispatch is enabled (false while held).
    pub open: bool,
    /// Whether the service is draining.
    pub draining: bool,
    /// Per-tenant queue and lifecycle counts.
    pub tenants: Vec<TenantStatus>,
}

/// One tenant's row in a [`ServiceStatus`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs admitted so far.
    pub admitted: u64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Jobs that expired in queue.
    pub expired: u64,
    /// Jobs that failed (panicked).
    pub failed: u64,
    /// Submissions rejected (all reasons).
    pub rejected: u64,
}

/// What a graceful drain finished with (totals over the service's life).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that expired in queue.
    pub expired: u64,
    /// Jobs that failed (panicked).
    pub failed: u64,
    /// Submissions rejected.
    pub rejected: u64,
}

/// A cloneable front door to a running [`Service`]: submit jobs, read
/// status and metrics, start a drain. Handles stay valid during a
/// drain; submissions are then rejected with [`Rejected::Draining`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Admit one job, returning its [`Ticket`] — or the typed reason it
    /// was not admitted. Never blocks on cluster work.
    pub fn submit(&self, req: JobRequest) -> Result<Ticket, Rejected> {
        self.shared.submit(req)
    }

    /// The dispatcher's current state.
    pub fn status(&self) -> ServiceStatus {
        self.shared.status()
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The live metrics block (lock-free; snapshot on any cadence).
    pub fn metrics_handle(&self) -> Arc<ServiceMetrics> {
        self.shared.metrics.clone()
    }

    /// Enable dispatch on a held service.
    pub fn open(&self) {
        self.shared.open();
    }

    /// Stop admitting; already-admitted jobs keep running.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Block until no job is queued or in flight. (On a held,
    /// non-draining service this waits until someone opens it.)
    pub fn await_idle(&self) {
        self.shared.await_idle();
    }
}

/// A running cluster-pool service. See the crate docs for the model.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    drained: bool,
}

impl Service {
    /// Spawn the pool (workers build their clusters concurrently).
    pub(crate) fn start(cfg: ServiceConfig, cluster_cfg: OmpConfig) -> Service {
        let tenants = cfg.tenant_table();
        let default_deadline = cfg.default_deadline();
        let metrics = Arc::new(ServiceMetrics::new(&tenants));
        let n = tenants.len();
        let shared = Arc::new(Shared {
            cluster_cfg,
            tenants: tenants
                .into_iter()
                .map(|(name, weight)| TenantCfg { name, weight })
                .collect(),
            programs: cfg.programs,
            queue_bound: cfg.queue_bound,
            pool: cfg.pool,
            default_deadline,
            deny_races: cfg.deny_races,
            state: Mutex::new(DispatchState {
                queues: (0..n).map(|_| BinaryHeap::new()).collect(),
                credits: vec![0; n],
                cursor: 0,
                queued_total: 0,
                in_flight: 0,
                draining: false,
                open: !cfg.hold,
                next_id: 0,
                next_seq: 0,
                dispatch_log: cfg.record_dispatch.then(Vec::new),
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            metrics,
        });
        let workers = (0..cfg.pool)
            .map(|slot| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("now-service-{slot}"))
                    .spawn(move || worker_loop(shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        Service {
            shared,
            workers,
            drained: false,
        }
    }

    /// A cloneable front door to this service.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }

    /// Admit one job (see [`ServiceHandle::submit`]).
    pub fn submit(&self, req: JobRequest) -> Result<Ticket, Rejected> {
        self.shared.submit(req)
    }

    /// The dispatcher's current state.
    pub fn status(&self) -> ServiceStatus {
        self.shared.status()
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The live metrics block (lock-free; snapshot on any cadence).
    pub fn metrics_handle(&self) -> Arc<ServiceMetrics> {
        self.shared.metrics.clone()
    }

    /// Pool size (warm clusters / worker threads).
    pub fn pool(&self) -> usize {
        self.shared.pool
    }

    /// Enable dispatch on a held service
    /// ([`ServiceConfig::hold`](crate::ServiceConfig::hold)).
    pub fn open(&self) {
        self.shared.open();
    }

    /// Stop admitting; already-admitted jobs keep running.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// The recorded dispatch order as `(tenant name, job id)` pairs
    /// (empty unless
    /// [`ServiceConfig::record_dispatch`](crate::ServiceConfig::record_dispatch)).
    pub fn dispatch_log(&self) -> Vec<(String, u64)> {
        let st = self.shared.state.lock().expect("dispatcher lock");
        st.dispatch_log
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|&(t, id)| (self.shared.tenants[t].name.clone(), id))
            .collect()
    }

    /// Graceful drain: stop admitting, finish every admitted job, join
    /// every pool worker (each tears its warm cluster down). Returns
    /// lifetime totals. No thread outlives this call.
    pub fn drain(mut self) -> DrainSummary {
        self.drain_impl();
        let s = self.shared.metrics.snapshot();
        DrainSummary {
            admitted: s.admitted(),
            completed: s.completed(),
            expired: s.expired(),
            failed: s.failed(),
            rejected: s.rejected(),
        }
    }

    fn drain_impl(&mut self) {
        if self.drained {
            return;
        }
        self.shared.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.drained = true;
    }
}

impl Drop for Service {
    /// Dropping a service drains it (same protocol, summary discarded).
    fn drop(&mut self) {
        self.drain_impl();
    }
}
