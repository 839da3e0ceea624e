//! The `Cluster` session API: one builder, one job abstraction, one
//! report, reusable warm clusters.
//!
//! The runtime is a *service* the paper's translator targets, so the
//! public API is a persistent cluster object that accepts a stream of
//! jobs rather than a pile of one-shot entry points. See [`Cluster`]
//! for the session model and an example.

use crate::config::{OmpConfig, Schedule};
use crate::env::Env;
use crate::error::NowError;
use now_net::{ClusterLoad, LoadSpec};
use tmk::{NetMetricsSnapshot, Profile, System, TmkConfig, TmkStats, Trace, TraceConfig};

/// Bound on simulated workstations (each node costs two host threads).
const MAX_NODES: usize = 512;
/// Bound on total simulated application threads.
const MAX_THREADS: usize = 1024;

// ----------------------------------------------------------------------
// Job + NowProgram
// ----------------------------------------------------------------------

/// One unit of work for a [`Cluster`]: a boxed master function run on
/// node 0, with parallel constructs forking onto every workstation.
///
/// Build one explicitly with [`Job::new`] (handy when closure-type
/// inference needs help), or pass anything implementing [`NowProgram`]
/// straight to [`Cluster::run`].
pub struct Job<R> {
    f: Box<dyn FnOnce(&mut Env<'_>) -> R + Send>,
}

impl<R: Send + 'static> Job<R> {
    /// A job from a master closure (today's `nomp::run` body).
    pub fn new(f: impl FnOnce(&mut Env<'_>) -> R + Send + 'static) -> Self {
        Job { f: Box::new(f) }
    }
}

/// Anything a [`Cluster`] can run: handwritten Rust region closures and
/// compiled `.omp` programs (`ompc::Compiled`) under the same trait.
pub trait NowProgram {
    /// The job's result payload (becomes [`RunReport::result`]).
    type Output: Send + 'static;

    /// Package this program as a boxed [`Job`].
    fn into_job(self) -> Job<Self::Output>;
}

impl<R: Send + 'static> NowProgram for Job<R> {
    type Output = R;
    fn into_job(self) -> Job<R> {
        self
    }
}

impl<R, F> NowProgram for F
where
    R: Send + 'static,
    F: FnOnce(&mut Env<'_>) -> R + Send + 'static,
{
    type Output = R;
    fn into_job(self) -> Job<R> {
        Job::new(self)
    }
}

// ----------------------------------------------------------------------
// RunReport
// ----------------------------------------------------------------------

/// Everything one finished job reports: the one report type of this
/// layer, for region closures and compiled `.omp` programs alike.
#[derive(Debug)]
pub struct RunReport<R> {
    /// The job's result payload.
    pub result: R,
    /// The job's modeled run time in virtual nanoseconds (each job
    /// starts its cluster at t = 0).
    pub vt_ns: u64,
    /// DSM protocol event counts summed over all nodes — an exact
    /// per-job delta.
    pub dsm: TmkStats,
    /// Network traffic (messages/bytes, per node and per message kind) —
    /// an exact per-job delta.
    pub net: NetMetricsSnapshot,
    /// Topology echo: simulated workstations.
    pub nodes: usize,
    /// Topology echo: application threads per workstation.
    pub threads_per_node: usize,
    /// 0-based index of this job on its cluster.
    pub job: usize,
    /// The job's recorded event trace ([`ClusterBuilder::trace`];
    /// exportable as Chrome trace-event JSON). `None` when tracing is
    /// off — and recording never changes `result`/`vt_ns`/`dsm`/`net`.
    pub trace: Option<Trace>,
    /// Per-node compute/barrier/protocol/idle breakdown, hot-page table,
    /// chunk-claim histograms and message timelines derived from the
    /// trace. `None` when tracing is off.
    pub profile: Option<Profile>,
}

impl<R> RunReport<R> {
    /// Virtual run time in seconds.
    pub fn vt_seconds(&self) -> f64 {
        self.vt_ns as f64 / 1e9
    }

    /// Total remote messages the job's DSM traffic needed.
    pub fn msgs(&self) -> u64 {
        self.net.total_msgs()
    }

    /// Total payload bytes on the wire.
    pub fn bytes(&self) -> u64 {
        self.net.total_bytes()
    }

    /// The `nodes × threads_per_node` topology as a display string.
    pub fn topology(&self) -> String {
        format!("{}x{}", self.nodes, self.threads_per_node)
    }

    /// Map the result payload, keeping the measurements.
    pub fn map<T>(self, f: impl FnOnce(R) -> T) -> RunReport<T> {
        RunReport {
            result: f(self.result),
            vt_ns: self.vt_ns,
            dsm: self.dsm,
            net: self.net,
            nodes: self.nodes,
            threads_per_node: self.threads_per_node,
            job: self.job,
            trace: self.trace,
            profile: self.profile,
        }
    }
}

// ----------------------------------------------------------------------
// ClusterBuilder
// ----------------------------------------------------------------------

/// How a background-load trace was supplied to the builder (validated
/// at build).
enum LoadTraceSpec {
    Parsed(LoadSpec),
    Raw(String),
}

/// Validated configuration surface for a [`Cluster`].
///
/// Defaults to the paper's platform: the paper cost model, 8
/// workstations, one application thread each, uniform dedicated
/// machines, `schedule(runtime)` resolving to `static`. All setters are
/// infallible; [`ClusterBuilder::build`] validates everything at once
/// and reports the first problem as a typed [`NowError`].
#[derive(Default)]
pub struct ClusterBuilder {
    nodes: Option<usize>,
    threads_per_node: Option<usize>,
    fast_test: bool,
    speeds: Option<Vec<f64>>,
    load_trace: Option<LoadTraceSpec>,
    trace: Option<TraceConfig>,
    load_seed: u64,
    load_model: Option<ClusterLoad>,
    schedule: Option<Schedule>,
    schedule_raw: Option<String>,
    #[allow(clippy::type_complexity)]
    tweaks: Vec<Box<dyn Fn(&mut TmkConfig)>>,
}

impl ClusterBuilder {
    /// Simulated workstations (default 8, the paper's platform).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = Some(n);
        self
    }

    /// Application threads per workstation (default 1; >1 is the
    /// SMP-cluster topology with the two-level runtime).
    pub fn threads_per_node(mut self, t: usize) -> Self {
        self.threads_per_node = Some(t);
        self
    }

    /// Use the near-zero-cost functional-test cost model instead of the
    /// paper's calibrated one.
    pub fn fast_test(mut self) -> Self {
        self.fast_test = true;
        self
    }

    /// Use the paper's calibrated cost model (the default).
    pub fn paper(mut self) -> Self {
        self.fast_test = false;
        self
    }

    /// Per-node base speed factors (`0.5` = a 2×-slow machine). Must
    /// list exactly one factor per node.
    pub fn speeds(mut self, speeds: Vec<f64>) -> Self {
        self.speeds = Some(speeds);
        self
    }

    /// Background-load trace specification.
    pub fn load(mut self, spec: LoadSpec) -> Self {
        self.load_trace = Some(LoadTraceSpec::Parsed(spec));
        self
    }

    /// Background-load trace from an `omp_runner --load`-style string
    /// (`none`, `step:<node>@<ms>x<factor>`, `phase:…`, `burst:…`);
    /// parsed and validated at [`ClusterBuilder::build`].
    pub fn load_str(mut self, spec: impl Into<String>) -> Self {
        self.load_trace = Some(LoadTraceSpec::Raw(spec.into()));
        self
    }

    /// Arm `now-trace` event recording: every job's [`RunReport`] then
    /// carries a [`Trace`] (exportable as Chrome trace-event JSON, one
    /// track per node and thread lane on the virtual-time axis) and the
    /// [`Profile`] derived from it. Off by default, and off is free:
    /// every instrumentation hook is a single branch, and arming the
    /// recorder never changes results, [`TmkStats`], or message counts —
    /// it only reads clocks the runtime advances anyway.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Seed driving stochastic load traces (same seed ⇒ bit-identical
    /// load curves, and so deterministic job streams).
    pub fn load_seed(mut self, seed: u64) -> Self {
        self.load_seed = seed;
        self
    }

    /// A complete heterogeneity model, overriding
    /// [`speeds`](Self::speeds)/[`load`](Self::load)/[`load_seed`](Self::load_seed).
    pub fn load_model(mut self, load: ClusterLoad) -> Self {
        self.load_model = Some(load);
        self
    }

    /// What `schedule(runtime)` loops resolve to (the `OMP_SCHEDULE` of
    /// a real runtime; default static).
    pub fn runtime_schedule(mut self, s: Schedule) -> Self {
        self.schedule = Some(s);
        self.schedule_raw = None;
        self
    }

    /// [`runtime_schedule`](Self::runtime_schedule) from an
    /// `OMP_SCHEDULE`-style string, parsed and validated at
    /// [`ClusterBuilder::build`].
    pub fn runtime_schedule_str(mut self, s: impl Into<String>) -> Self {
        self.schedule_raw = Some(s.into());
        self.schedule = None;
        self
    }

    /// Free-form access to the remaining DSM cost-model knobs
    /// ([`TmkConfig`]: page size, twin/diff costs, GC policy, watchdog).
    /// Applied after everything else; the node count is pinned by the
    /// builder and cannot be changed here.
    pub fn tmk(mut self, tweak: impl Fn(&mut TmkConfig) + 'static) -> Self {
        self.tweaks.push(Box::new(tweak));
        self
    }

    /// Validate this configuration without spawning anything, returning
    /// the [`OmpConfig`] a build would use.
    pub fn validate(&self) -> Result<OmpConfig, NowError> {
        let nodes = self.nodes.unwrap_or(8);
        let tpn = self.threads_per_node.unwrap_or(1);
        if nodes == 0 {
            return Err(NowError::ZeroNodes);
        }
        if tpn == 0 {
            return Err(NowError::ZeroThreadsPerNode);
        }
        if nodes > MAX_NODES || nodes.saturating_mul(tpn) > MAX_THREADS {
            return Err(NowError::TopologyTooLarge {
                nodes,
                threads_per_node: tpn,
            });
        }

        let mut cfg = if self.fast_test {
            OmpConfig::fast_test_smp(nodes, tpn)
        } else {
            OmpConfig::paper_smp(nodes, tpn)
        };

        // Runtime schedule.
        if let Some(raw) = &self.schedule_raw {
            cfg.runtime_schedule = Schedule::parse(raw).map_err(NowError::InvalidSchedule)?;
        } else if let Some(s) = self.schedule {
            cfg.runtime_schedule = s;
        }

        // Event tracing (an explicit builder choice overrides the
        // NOW_TRACE_EVENTS environment default the constructors read).
        if let Some(tc) = self.trace {
            cfg.tmk.trace = Some(tc);
        }

        // Heterogeneity model.
        let load = match &self.load_model {
            Some(l) => l.clone(),
            None => {
                let speeds = match &self.speeds {
                    None => Vec::new(),
                    Some(s) => {
                        if s.len() != nodes {
                            return Err(NowError::SpeedsLength {
                                expected: nodes,
                                got: s.len(),
                            });
                        }
                        s.clone()
                    }
                };
                let traces = match &self.load_trace {
                    None => Vec::new(),
                    Some(LoadTraceSpec::Parsed(spec)) => spec
                        .clone()
                        .into_traces(nodes)
                        .map_err(NowError::InvalidLoad)?,
                    Some(LoadTraceSpec::Raw(raw)) => LoadSpec::parse(raw)
                        .map_err(NowError::InvalidLoad)?
                        .into_traces(nodes)
                        .map_err(NowError::InvalidLoad)?,
                };
                ClusterLoad {
                    speeds,
                    traces,
                    seed: self.load_seed,
                }
            }
        };
        // (Validated below, after the tweaks — a tweak may replace the
        // whole model, so that check is the one that establishes the
        // invariant.)
        cfg.tmk.net.load = load;

        // Remaining DSM knobs; the topology stays pinned.
        for t in &self.tweaks {
            t(&mut cfg.tmk);
        }
        cfg.tmk.net.nodes = nodes;
        cfg.tmk.net.load.validate().map_err(NowError::InvalidLoad)?;
        if !cfg.tmk.page_size.is_power_of_two() || cfg.tmk.page_size < 64 {
            return Err(NowError::InvalidConfig(format!(
                "page size {} is not a power of two >= 64",
                cfg.tmk.page_size
            )));
        }
        Ok(cfg)
    }

    /// Validate and bring the cluster up: spawn the simulated
    /// workstations (application + protocol service threads per node),
    /// the network, and the DSM system, all kept warm across jobs.
    pub fn build(self) -> Result<Cluster, NowError> {
        Ok(Cluster::from_config(self.validate()?))
    }
}

// ----------------------------------------------------------------------
// Cluster
// ----------------------------------------------------------------------

/// A warm OpenMP-on-NOW cluster: the one public way to run programs.
///
/// Holds `nodes × threads_per_node` simulated workstations whose host
/// threads, network and DSM state persist across jobs:
///
/// * [`ClusterBuilder`] consolidates topology, cost model, heterogeneity
///   and runtime-schedule configuration behind validated setters; every
///   rejection is a typed [`NowError`].
/// * [`Cluster::run`] accepts any [`NowProgram`] — a Rust closure over
///   [`Env`], an explicit [`Job`], or a compiled `.omp` program
///   (`ompc::Compiled`) — and resets DSM/tasking/stats state behind the
///   job's final barrier, so per-job [`TmkStats`] are exact deltas and
///   same-seed job streams are deterministic.
/// * Every job returns one unified [`RunReport`].
///
/// ```
/// use nomp::{Cluster, Env, Schedule};
///
/// # fn main() -> Result<(), nomp::NowError> {
/// let mut cluster = Cluster::builder().nodes(2).fast_test().build()?;
/// let report = cluster.run(|omp: &mut Env<'_>| {
///     let v = omp.malloc_vec::<u64>(100);
///     omp.parallel_for(Schedule::Static, 0..100, move |t, i| {
///         t.write(&v, i, (i * i) as u64);
///     });
///     omp.read(&v, 9)
/// })?;
/// assert_eq!(report.result, 81);
/// // The same warm cluster runs the next job without re-spawning the
/// // simulated workstations; per-job stats are exact deltas.
/// let again = cluster.run(|omp: &mut Env<'_>| omp.num_threads())?;
/// assert_eq!(again.result, 2);
/// # Ok(()) }
/// ```
pub struct Cluster {
    sys: System,
    cfg: OmpConfig,
    jobs: usize,
}

impl Cluster {
    /// Start configuring a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Bring up a cluster from an already-assembled [`OmpConfig`] (the
    /// builder is the validated way in; this is the bridge for code that
    /// still composes configurations by hand).
    pub fn from_config(cfg: OmpConfig) -> Cluster {
        Cluster {
            sys: System::build(cfg.tmk.clone()),
            cfg,
            jobs: 0,
        }
    }

    /// The configuration this cluster runs.
    pub fn config(&self) -> &OmpConfig {
        &self.cfg
    }

    /// Simulated workstations.
    pub fn nodes(&self) -> usize {
        self.cfg.tmk.nodes()
    }

    /// Application threads per workstation.
    pub fn threads_per_node(&self) -> usize {
        self.cfg.threads_per_node()
    }

    /// The `nodes × threads_per_node` topology as a display string.
    pub fn topology(&self) -> String {
        self.cfg.topology()
    }

    /// Jobs completed on this cluster so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs
    }

    /// Whether the cluster can still accept jobs (false after a job
    /// panic or [`Cluster::shutdown`]).
    pub fn is_alive(&self) -> bool {
        self.sys.is_alive()
    }

    /// A point-in-time snapshot of the cluster's always-on lifetime
    /// metrics: protocol-op counters, latency histograms (virtual and
    /// host), per-kind traffic and job aggregates accumulated since
    /// [`ClusterBuilder::build`]. Never reset between jobs; safe to call
    /// at any time — also while a job runs, since recording is lock-free
    /// relaxed atomics that never touch the virtual clocks. Export with
    /// [`MetricsSnapshot::to_prometheus`] / [`MetricsSnapshot::to_json`].
    ///
    /// [`MetricsSnapshot::to_prometheus`]: tmk::MetricsSnapshot::to_prometheus
    /// [`MetricsSnapshot::to_json`]: tmk::MetricsSnapshot::to_json
    pub fn metrics(&self) -> tmk::MetricsSnapshot {
        self.sys.metrics().snapshot()
    }

    /// The live metrics registry itself (shared handle): hand it to a
    /// monitoring thread that snapshots on its own cadence while jobs
    /// run on the cluster.
    pub fn metrics_handle(&self) -> std::sync::Arc<tmk::MetricsRegistry> {
        self.sys.metrics().clone()
    }

    /// Run one job on the warm cluster.
    ///
    /// Accepts anything implementing [`NowProgram`]: a Rust closure over
    /// [`Env`] (annotate the parameter, `|omp: &mut Env<'_>| …`, or wrap in
    /// [`Job::new`]), or a compiled `.omp` program. Between jobs the
    /// cluster resets DSM/tasking/statistics state behind the job's
    /// final quiescence point, so the [`RunReport`]'s measurements are
    /// exact per-job deltas and running the same job again yields
    /// bit-identical results.
    ///
    /// A panic inside the job body propagates (the cluster is dead
    /// afterwards); submitting to a dead cluster returns
    /// [`NowError::ClusterDown`].
    pub fn run<P: NowProgram>(&mut self, prog: P) -> Result<RunReport<P::Output>, NowError> {
        let job = prog.into_job();
        let cfg = self.cfg.clone();
        let out = self
            .sys
            .run_job(move |t| {
                let mut env = Env::new(t, cfg);
                (job.f)(&mut env)
            })
            .map_err(|_| NowError::ClusterDown)?;
        let job_index = self.jobs;
        self.jobs += 1;
        let trace = out.trace.map(|mut tr| {
            tr.threads_per_node = self.cfg.threads_per_node();
            tr
        });
        let profile = trace.as_ref().map(Profile::from_trace);
        Ok(RunReport {
            result: out.result,
            vt_ns: out.vt_ns,
            dsm: out.dsm,
            net: out.net,
            nodes: self.cfg.tmk.nodes(),
            threads_per_node: self.cfg.threads_per_node(),
            job: job_index,
            trace,
            profile,
        })
    }

    /// Tear the cluster down, joining every simulated workstation.
    /// (Dropping the cluster does the same; this form surfaces panics a
    /// node died with.)
    pub fn shutdown(self) {
        self.sys.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_the_paper_platform() {
        let cfg = Cluster::builder().validate().unwrap();
        assert_eq!(cfg.tmk.nodes(), 8);
        assert_eq!(cfg.threads_per_node(), 1);
        assert_eq!(cfg.runtime_schedule, Schedule::Static);
        // Paper cost model, not fast-test.
        assert!(cfg.tmk.net.send_overhead_ns > 1_000);
    }

    #[test]
    fn cluster_runs_closures_and_jobs() {
        let mut c = Cluster::builder()
            .nodes(3)
            .fast_test()
            .build()
            .expect("valid cluster");
        let r = c.run(|omp: &mut Env<'_>| omp.num_threads()).unwrap();
        assert_eq!(r.result, 3);
        assert_eq!((r.nodes, r.threads_per_node), (3, 1));
        assert_eq!(r.job, 0);
        let r2 = c
            .run(Job::new(|omp| {
                let v = omp.malloc_vec::<u64>(3);
                omp.parallel(move |t| {
                    let me = t.thread_num();
                    t.write(&v, me, me as u64);
                });
                omp.read_slice(&v, 0..3)
            }))
            .unwrap();
        assert_eq!(r2.result, vec![0, 1, 2]);
        assert_eq!(r2.job, 1);
        assert_eq!(r2.topology(), "3x1");
        c.shutdown();
    }

    #[test]
    fn report_map_keeps_measurements() {
        let mut c = Cluster::builder().nodes(2).fast_test().build().unwrap();
        let r = c
            .run(|omp: &mut Env<'_>| omp.num_nodes())
            .unwrap()
            .map(|n| n * 10);
        assert_eq!(r.result, 20);
        assert_eq!(r.nodes, 2);
    }

    #[test]
    fn builder_rejects_bad_topologies() {
        assert!(matches!(
            Cluster::builder().nodes(0).validate(),
            Err(NowError::ZeroNodes)
        ));
        assert!(matches!(
            Cluster::builder().nodes(2).threads_per_node(0).validate(),
            Err(NowError::ZeroThreadsPerNode)
        ));
        assert!(matches!(
            Cluster::builder().nodes(4096).validate(),
            Err(NowError::TopologyTooLarge { .. })
        ));
        assert!(matches!(
            Cluster::builder().nodes(64).threads_per_node(64).validate(),
            Err(NowError::TopologyTooLarge { .. })
        ));
    }

    #[test]
    fn builder_validates_heterogeneity() {
        assert!(matches!(
            Cluster::builder()
                .nodes(4)
                .speeds(vec![1.0, 0.5])
                .validate(),
            Err(NowError::SpeedsLength {
                expected: 4,
                got: 2
            })
        ));
        assert!(matches!(
            Cluster::builder()
                .nodes(2)
                .speeds(vec![1.0, -3.0])
                .validate(),
            Err(NowError::InvalidLoad(_))
        ));
        assert!(matches!(
            Cluster::builder()
                .nodes(2)
                .load_str("bogus:spec")
                .validate(),
            Err(NowError::InvalidLoad(_))
        ));
    }

    #[test]
    fn builder_validates_schedules() {
        assert!(matches!(
            Cluster::builder()
                .runtime_schedule_str("fractal,3")
                .validate(),
            Err(NowError::InvalidSchedule(_))
        ));
        let cfg = Cluster::builder()
            .runtime_schedule_str("guided,8")
            .validate()
            .unwrap();
        assert_eq!(cfg.runtime_schedule, Schedule::Guided(8));
    }

    #[test]
    fn tmk_tweaks_apply_but_cannot_change_topology() {
        let cfg = Cluster::builder()
            .nodes(3)
            .fast_test()
            .tmk(|t| {
                t.gc_every_barrier = true;
                t.net.nodes = 99; // pinned by the builder
            })
            .validate()
            .unwrap();
        assert!(cfg.tmk.gc_every_barrier);
        assert_eq!(cfg.tmk.nodes(), 3);
    }
}
