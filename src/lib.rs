//! # openmp-now — OpenMP on Networks of Workstations
//!
//! Facade crate for the reproduction of Lu, Hu & Zwaenepoel,
//! *"OpenMP on Networks of Workstations"* (SC'98). See the README for the
//! architecture and DESIGN.md for the system inventory.
//!
//! * [`nomp`] — the OpenMP runtime + directive macros (the paper's
//!   contribution), two-level on SMP-cluster topologies
//! * [`smp`] — the SMP node subsystem: thread teams sharing one DSM
//!   process (`nodes × threads_per_node` topologies)
//! * [`tmk`] — the TreadMarks-style software DSM it compiles to
//! * [`nowmpi`] — the MPI baseline
//! * [`now_net`] — the simulated workstation network + virtual time
//! * [`now_apps`] — the five evaluation applications
//! * [`now_service`] — the cluster-pool job service: a pool of warm
//!   clusters behind an async front door with weighted fair-share
//!   scheduling, admission control and graceful drain
//!
//! The one public way in is the [`Cluster`](nomp::Cluster) session API:
//! build a cluster once, run a stream of jobs — Rust closures and
//! compiled `.omp` programs alike — on the same warm simulated network:
//!
//! ```
//! use openmp_now::prelude::*;
//!
//! # fn main() -> Result<(), NowError> {
//! let mut cluster = Cluster::builder().nodes(2).fast_test().build()?;
//!
//! // A handwritten region closure...
//! let report = cluster.run(|omp: &mut Env| {
//!     let v = omp.malloc_vec::<u64>(100);
//!     omp.parallel_for(Schedule::Static, 0..100, move |t, i| {
//!         t.write(&v, i, (i * i) as u64);
//!     });
//!     omp.read(&v, 9)
//! })?;
//! assert_eq!(report.result, 81);
//!
//! // ...and a compiled `.omp` program share the warm cluster.
//! let prog = ompc::compile(
//!     "double x; int main() { x = 6 * 7; return 0; }",
//! )?;
//! let omp_report = cluster.run(&prog)?;
//! assert_eq!(omp_report.result.scalars["x"], 42.0);
//! # Ok(()) }
//! ```

pub use {nomp, now_apps, now_net, now_service, nowmpi, ompc, smp, tmk};

/// Common imports for writing OpenMP-on-NOW programs.
pub mod prelude {
    pub use nomp::{
        critical_id, run, Cluster, ClusterBuilder, Diag, Env, Job, MetricsSnapshot, NowError,
        NowProgram, OmpConfig, OmpThread, Profile, RedOp, RunReport, Schedule, SharedScalar,
        SharedVec, ThreadPrivate, Trace, TraceConfig,
    };
    pub use tmk::{Shareable, Tmk, TmkConfig};

    pub use now_service::{
        JobRequest, JobValue, Rejected, Service, ServiceConfig, ServiceHandle, ServiceReport,
        Ticket,
    };
}

/// Command-line argument parsing for the `omp_runner` example (kept in
/// the library so the CLI surface is unit-testable: malformed flags must
/// produce a clear message, which the runner maps to exit code 2).
pub mod cli {
    use nomp::{Cluster, ClusterBuilder, ClusterLoad, LoadSpec, NowError, Schedule, TraceConfig};

    /// Parsed `omp_runner` arguments.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunnerArgs {
        /// Simulated workstations.
        pub nodes: usize,
        /// Application threads per workstation.
        pub tpn: usize,
        /// What `schedule(runtime)` resolves to (`--schedule` wins over
        /// the `OMP_SCHEDULE` environment variable).
        pub schedule: Option<Schedule>,
        /// Per-node speed factors (`--speeds`), `None` = uniform.
        pub speeds: Option<Vec<f64>>,
        /// Background-load trace (`--load`), `None` = dedicated machines.
        pub load: Option<LoadSpec>,
        /// Seed driving stochastic traces (`--load-seed`).
        pub load_seed: u64,
        /// Run every program this many times on the warm cluster
        /// (`--repeat`; default 1).
        pub repeat: usize,
        /// Write each job's Chrome-trace JSON here (`--trace`); arms
        /// event recording on the cluster. With `--repeat`/multiple
        /// files, the job index is suffixed before the extension.
        pub trace: Option<String>,
        /// Print each job's per-node profile (`--profile`); arms event
        /// recording on the cluster.
        pub profile: bool,
        /// Write the cluster's cumulative lifetime metrics here in
        /// Prometheus text exposition format after all jobs finish
        /// (`--metrics`). Metrics recording is always on; this only
        /// controls export.
        pub metrics: Option<String>,
        /// Write the same cumulative metrics snapshot as JSON
        /// (`--metrics-json`).
        pub metrics_json: Option<String>,
        /// Statically analyze the programs instead of running them
        /// (`--analyze`); findings print one per line.
        pub analyze: bool,
        /// Render analyzer findings as a JSON array (`--analyze=json`;
        /// implies `analyze`).
        pub analyze_json: bool,
        /// Promote race-class findings (`OMP201`..`OMP204`) to errors
        /// (`--deny-races`; implies `analyze` when no run is requested —
        /// the runner exits 1 if any program has a denied finding).
        pub deny_races: bool,
        /// Run programs under the dynamic happens-before race checker
        /// (`--race-check`); concrete racing pairs print after each run.
        pub race_check: bool,
        /// `.omp` files to run (empty = the bundled examples).
        pub files: Vec<String>,
    }

    impl Default for RunnerArgs {
        fn default() -> Self {
            RunnerArgs {
                nodes: 4,
                tpn: 1,
                schedule: None,
                speeds: None,
                load: None,
                load_seed: 0,
                repeat: 1,
                trace: None,
                profile: false,
                metrics: None,
                metrics_json: None,
                analyze: false,
                analyze_json: false,
                deny_races: false,
                race_check: false,
                files: Vec::new(),
            }
        }
    }

    fn value_of<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a str, String> {
        it.next()
            .map(|s| s.as_str())
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// Consume and validate an output-file value for `flag`: must exist,
    /// not look like another flag, and not name a directory.
    fn out_path<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<String, String> {
        let v = value_of(it, flag)?;
        if v.is_empty() || v.starts_with("--") {
            return Err(format!("{flag} expects an output file path, got `{v}`"));
        }
        if v.ends_with('/') || v.ends_with(std::path::MAIN_SEPARATOR) {
            return Err(format!("{flag} expects a file path, `{v}` is a directory"));
        }
        Ok(v.to_string())
    }

    impl RunnerArgs {
        /// Parse an argument list (without the program name). Malformed
        /// flags yield a one-line message for the caller to print before
        /// exiting with status 2.
        pub fn parse(args: &[String]) -> Result<RunnerArgs, String> {
            let mut a = RunnerArgs::default();
            let mut it = args.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--nodes" => {
                        let v = value_of(&mut it, "--nodes")?;
                        a.nodes = v
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| format!("--nodes expects N >= 1, got `{v}`"))?;
                    }
                    "--tpn" => {
                        let v = value_of(&mut it, "--tpn")?;
                        a.tpn = v
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| format!("--tpn expects T >= 1, got `{v}`"))?;
                    }
                    "--schedule" => {
                        let v = value_of(&mut it, "--schedule")?;
                        a.schedule = Some(
                            Schedule::parse(v).map_err(|e| format!("invalid --schedule: {e}"))?,
                        );
                    }
                    "--speeds" => {
                        let v = value_of(&mut it, "--speeds")?;
                        a.speeds = Some(
                            hetero::parse_speeds(v)
                                .map_err(|e| format!("invalid --speeds: {e}"))?,
                        );
                    }
                    "--load" => {
                        let v = value_of(&mut it, "--load")?;
                        a.load =
                            Some(LoadSpec::parse(v).map_err(|e| format!("invalid --load: {e}"))?);
                    }
                    "--load-seed" => {
                        let v = value_of(&mut it, "--load-seed")?;
                        a.load_seed = v.parse().map_err(|_| {
                            format!("--load-seed expects an unsigned integer, got `{v}`")
                        })?;
                    }
                    "--repeat" => {
                        let v = value_of(&mut it, "--repeat")?;
                        a.repeat = v
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| format!("--repeat expects N >= 1, got `{v}`"))?;
                    }
                    "--trace" => {
                        a.trace = Some(out_path(&mut it, "--trace")?);
                    }
                    "--profile" => a.profile = true,
                    "--metrics" => {
                        a.metrics = Some(out_path(&mut it, "--metrics")?);
                    }
                    "--metrics-json" => {
                        a.metrics_json = Some(out_path(&mut it, "--metrics-json")?);
                    }
                    "--analyze" => a.analyze = true,
                    "--analyze=json" => {
                        a.analyze = true;
                        a.analyze_json = true;
                    }
                    f if f.starts_with("--analyze=") => {
                        return Err(format!(
                            "--analyze accepts only `json` as a value, got `{}`",
                            &f["--analyze=".len()..]
                        ));
                    }
                    "--deny-races" => a.deny_races = true,
                    "--race-check" => a.race_check = true,
                    f if f.starts_with("--") => {
                        return Err(format!(
                            "unknown flag `{f}` (expected --nodes, --tpn, --schedule, \
                             --speeds, --load, --load-seed, --repeat, --trace, \
                             --profile, --metrics, --metrics-json, --analyze[=json], \
                             --deny-races, --race-check, or a .omp file)"
                        ));
                    }
                    f => a.files.push(f.to_string()),
                }
            }
            if let Some(s) = &a.speeds {
                if s.len() != a.nodes {
                    return Err(format!(
                        "--speeds lists {} factors for {} nodes",
                        s.len(),
                        a.nodes
                    ));
                }
            }
            Ok(a)
        }

        /// The heterogeneity model these arguments describe.
        pub fn cluster_load(&self) -> Result<ClusterLoad, String> {
            let traces = match self.load.clone() {
                None => Vec::new(),
                Some(spec) => spec
                    .into_traces(self.nodes)
                    .map_err(|e| format!("invalid --load: {e}"))?,
            };
            let load = ClusterLoad {
                speeds: self.speeds.clone().unwrap_or_default(),
                traces,
                seed: self.load_seed,
            };
            load.validate()?;
            Ok(load)
        }

        /// Whether these arguments arm event recording on the cluster
        /// (`--trace` or `--profile`).
        pub fn tracing(&self) -> bool {
            self.trace.is_some() || self.profile
        }

        /// The Chrome-trace output path for job number `job`: the
        /// `--trace` path itself when the invocation runs a single job,
        /// otherwise the path with `.job<N>` spliced in before the
        /// extension so repetitions don't overwrite each other.
        pub fn trace_path(&self, job: usize, multi: bool) -> Option<String> {
            let base = self.trace.as_deref()?;
            if !multi {
                return Some(base.to_string());
            }
            Some(match base.rfind('.') {
                Some(dot) if dot > 0 && !base[dot..].contains('/') => {
                    format!("{}.job{job}{}", &base[..dot], &base[dot..])
                }
                _ => format!("{base}.job{job}"),
            })
        }

        /// The [`ClusterBuilder`] these arguments describe (paper cost
        /// model, as the runner always used). `schedule` should already
        /// have the `OMP_SCHEDULE` fallback applied by the caller.
        pub fn cluster_builder(&self) -> ClusterBuilder {
            let mut b = Cluster::builder()
                .nodes(self.nodes)
                .threads_per_node(self.tpn)
                .load_seed(self.load_seed);
            if self.tracing() {
                b = b.trace(TraceConfig::default());
            }
            if let Some(s) = &self.speeds {
                b = b.speeds(s.clone());
            }
            if let Some(l) = &self.load {
                b = b.load(l.clone());
            }
            if let Some(s) = self.schedule {
                b = b.runtime_schedule(s);
            }
            b
        }

        /// Bring up the warm cluster these arguments describe — the one
        /// cluster every file × repetition of a runner invocation reuses.
        pub fn cluster(&self) -> Result<Cluster, NowError> {
            self.cluster_builder().build()
        }
    }
}
