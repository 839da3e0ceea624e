//! OpenMP runtime configuration.

use now_net::ClusterLoad;
use smp::SmpConfig;
use tmk::TmkConfig;

/// Configuration for an OpenMP-on-NOW program.
///
/// The execution topology is `nodes × threads_per_node`: `tmk.nodes()`
/// simulated workstations, each hosting [`OmpConfig::threads_per_node`]
/// application threads sharing that node's DSM process. The paper's
/// platform is `n × 1`; SMP-cluster topologies (`4×2`, `2×4`, `1×8`, …)
/// move synchronization on-node and shed DSM messages.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// The underlying DSM + interconnect configuration.
    pub tmk: TmkConfig,
    /// The intra-node (SMP) team size and cost model.
    pub smp: SmpConfig,
    /// What `schedule(runtime)` resolves to (the `OMP_SCHEDULE`
    /// environment variable of a real runtime). A value of
    /// [`Schedule::Runtime`] itself falls back to [`Schedule::Static`].
    pub runtime_schedule: Schedule,
}

impl OmpConfig {
    /// Paper platform defaults (8 nodes unless overridden, one thread per
    /// workstation).
    pub fn paper(nodes: usize) -> Self {
        Self::paper_smp(nodes, 1)
    }

    /// Paper cost model on an SMP-cluster topology:
    /// `nodes × threads_per_node`.
    pub fn paper_smp(nodes: usize, threads_per_node: usize) -> Self {
        OmpConfig {
            tmk: TmkConfig::paper(nodes),
            smp: SmpConfig::paper(threads_per_node),
            runtime_schedule: Schedule::Static,
        }
    }

    /// Near-zero-cost functional-test configuration.
    pub fn fast_test(nodes: usize) -> Self {
        Self::fast_test_smp(nodes, 1)
    }

    /// Functional-test cost model on an SMP-cluster topology:
    /// `nodes × threads_per_node`.
    pub fn fast_test_smp(nodes: usize, threads_per_node: usize) -> Self {
        OmpConfig {
            tmk: TmkConfig::fast_test(nodes),
            smp: SmpConfig::fast_test(threads_per_node),
            runtime_schedule: Schedule::Static,
        }
    }

    /// Total OpenMP threads: `nodes × threads_per_node`
    /// (`omp_get_num_threads()` inside a region).
    pub fn threads(&self) -> usize {
        self.tmk.nodes() * self.smp.threads_per_node
    }

    /// Application threads per workstation.
    pub fn threads_per_node(&self) -> usize {
        self.smp.threads_per_node
    }

    /// The `nodes × threads_per_node` topology as a display string.
    pub fn topology(&self) -> String {
        format!("{}x{}", self.tmk.nodes(), self.smp.threads_per_node)
    }

    /// Attach a heterogeneity model (per-node speed factors and seeded
    /// background-load traces) to this configuration. The model must
    /// validate; the default is the paper's uniform, dedicated cluster.
    pub fn with_load(mut self, load: ClusterLoad) -> Self {
        load.validate().expect("invalid cluster load model");
        self.tmk.net.load = load;
        self
    }
}

impl From<TmkConfig> for OmpConfig {
    fn from(tmk: TmkConfig) -> Self {
        OmpConfig {
            tmk,
            smp: SmpConfig::paper(1),
            runtime_schedule: Schedule::Static,
        }
    }
}

/// Loop scheduling policies for `parallel for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks of ~n/p iterations (OpenMP `schedule(static)`).
    Static,
    /// Round-robin chunks of the given size (`schedule(static, chunk)`).
    StaticChunk(usize),
    /// First-come-first-served chunks from a shared counter
    /// (`schedule(dynamic, chunk)`); on software DSM each grab costs a
    /// lock transfer, which is exactly why the paper's applications prefer
    /// static partitioning.
    Dynamic(usize),
    /// Exponentially shrinking chunks (`schedule(guided, min_chunk)`).
    Guided(usize),
    /// Factoring-style shrinking batches re-sized by *observed per-node
    /// throughput* (`schedule(adaptive, min_chunk)`): each claim takes
    /// `remaining × my_rate / (2 × Σ rates)` iterations, clamped to at
    /// least `min_chunk`. Rates are measured in virtual time, so slow or
    /// loaded workstations automatically receive proportionally less
    /// work — the schedule for heterogeneous NOWs.
    Adaptive(usize),
    /// Per-node home partitions with history (`schedule(affinity)`): each
    /// workstation consumes its own contiguous block through a counter
    /// *it* manages (local claims are message-free), rebalancing by
    /// stealing from the most-loaded victim only when it runs dry.
    /// Partitions are deterministic per loop, so re-executions of the
    /// same loop reuse the pages a node already holds.
    Affinity,
    /// Deferred to [`OmpConfig::runtime_schedule`] (`schedule(runtime)`);
    /// resolved by [`Env`](crate::Env) before a loop plan is built, so
    /// directive front-ends can emit it verbatim.
    Runtime,
}

impl std::fmt::Display for Schedule {
    /// The canonical `OMP_SCHEDULE`-style string; [`Schedule::parse`]
    /// round-trips every value (`parse(s.to_string()) == s`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Schedule::Static => write!(f, "static"),
            Schedule::StaticChunk(c) => write!(f, "static,{c}"),
            Schedule::Dynamic(c) => write!(f, "dynamic,{c}"),
            Schedule::Guided(c) => write!(f, "guided,{c}"),
            Schedule::Adaptive(c) => write!(f, "adaptive,{c}"),
            Schedule::Affinity => write!(f, "affinity"),
            Schedule::Runtime => write!(f, "runtime"),
        }
    }
}

impl Schedule {
    /// Parse an `OMP_SCHEDULE`-style string: `kind[,chunk]` with kind one
    /// of `static`, `dynamic`, `guided`, `adaptive`, `affinity`,
    /// `runtime`, `auto` (mapped to static). Whitespace around tokens is
    /// ignored; a chunk of 0 is legal and normalized to 1 by the loop
    /// planner.
    ///
    /// ```
    /// use nomp::Schedule;
    /// assert_eq!(Schedule::parse("static").unwrap(), Schedule::Static);
    /// assert_eq!(Schedule::parse("dynamic,4").unwrap(), Schedule::Dynamic(4));
    /// assert_eq!(Schedule::parse("guided, 8").unwrap(), Schedule::Guided(8));
    /// assert!(Schedule::parse("fractal,3").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Schedule, String> {
        let mut parts = s.split(',');
        let kind = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let chunk = match parts.next() {
            None => None,
            Some(c) => {
                let c = c.trim();
                Some(c.parse::<usize>().map_err(|_| {
                    format!("invalid schedule chunk `{c}` in `{s}` (expected an unsigned integer)")
                })?)
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "trailing `,{}` in schedule `{s}` (expected `kind[,chunk]`)",
                extra.trim()
            ));
        }
        let sched = match (kind.as_str(), chunk) {
            ("static" | "auto", None) => Schedule::Static,
            ("static" | "auto", Some(c)) => Schedule::StaticChunk(c),
            ("dynamic", c) => Schedule::Dynamic(c.unwrap_or(1)),
            ("guided", c) => Schedule::Guided(c.unwrap_or(1)),
            ("adaptive", c) => Schedule::Adaptive(c.unwrap_or(1)),
            ("affinity", None) => Schedule::Affinity,
            ("affinity", Some(_)) => {
                return Err(format!("schedule `affinity` takes no chunk (got `{s}`)"))
            }
            ("runtime", None) => Schedule::Runtime,
            ("runtime", Some(_)) => {
                return Err(format!("schedule `runtime` takes no chunk (got `{s}`)"))
            }
            ("", _) => return Err("empty schedule string".to_string()),
            (k, _) => {
                return Err(format!(
                    "unknown schedule kind `{k}` in `{s}` (expected \
                     static|dynamic|guided|adaptive|affinity|runtime|auto)"
                ))
            }
        };
        Ok(sched)
    }

    /// Iterations of `0..total` assigned to `tid` under a static policy.
    /// (Dynamic policies consult the shared counter at run time instead.)
    pub fn static_block(total: usize, nthreads: usize, tid: usize) -> std::ops::Range<usize> {
        let per = total / nthreads;
        let rem = total % nthreads;
        let lo = tid * per + tid.min(rem);
        let hi = lo + per + usize::from(tid < rem);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_partition_exactly() {
        for total in [0usize, 1, 7, 8, 100, 101] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = vec![false; total];
                let mut prev_end = 0;
                for tid in 0..p {
                    let r = Schedule::static_block(total, p, tid);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    for i in r {
                        assert!(!covered[i]);
                        covered[i] = true;
                    }
                }
                assert_eq!(prev_end, total);
                assert!(covered.iter().all(|&c| c));
            }
        }
    }

    #[test]
    fn static_block_balance() {
        // 10 iterations over 4 threads: sizes 3,3,2,2.
        let sizes: Vec<usize> = (0..4)
            .map(|t| Schedule::static_block(10, 4, t).len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn config_threads_tracks_nodes() {
        assert_eq!(OmpConfig::fast_test(5).threads(), 5);
    }

    #[test]
    fn config_threads_track_topology() {
        let cfg = OmpConfig::fast_test_smp(4, 2);
        assert_eq!(cfg.threads(), 8);
        assert_eq!(cfg.threads_per_node(), 2);
        assert_eq!(cfg.topology(), "4x2");
        assert_eq!(OmpConfig::paper_smp(1, 8).threads(), 8);
    }

    #[test]
    fn schedule_parse_accepts_omp_schedule_forms() {
        assert_eq!(Schedule::parse("static").unwrap(), Schedule::Static);
        assert_eq!(
            Schedule::parse("static,16").unwrap(),
            Schedule::StaticChunk(16)
        );
        assert_eq!(
            Schedule::parse(" STATIC , 3 ").unwrap(),
            Schedule::StaticChunk(3)
        );
        assert_eq!(Schedule::parse("dynamic").unwrap(), Schedule::Dynamic(1));
        assert_eq!(Schedule::parse("dynamic,4").unwrap(), Schedule::Dynamic(4));
        assert_eq!(Schedule::parse("guided,8").unwrap(), Schedule::Guided(8));
        assert_eq!(Schedule::parse("guided").unwrap(), Schedule::Guided(1));
        assert_eq!(Schedule::parse("runtime").unwrap(), Schedule::Runtime);
        assert_eq!(Schedule::parse("auto").unwrap(), Schedule::Static);
        // Chunk 0 parses; the loop planner normalizes it to 1.
        assert_eq!(Schedule::parse("dynamic,0").unwrap(), Schedule::Dynamic(0));
        // The heterogeneity-aware kinds.
        assert_eq!(Schedule::parse("adaptive").unwrap(), Schedule::Adaptive(1));
        assert_eq!(
            Schedule::parse("adaptive,16").unwrap(),
            Schedule::Adaptive(16)
        );
        assert_eq!(Schedule::parse("affinity").unwrap(), Schedule::Affinity);
        assert_eq!(Schedule::parse(" AFFINITY ").unwrap(), Schedule::Affinity);
    }

    #[test]
    fn schedule_display_round_trips() {
        for s in [
            Schedule::Static,
            Schedule::StaticChunk(7),
            Schedule::Dynamic(0),
            Schedule::Dynamic(16),
            Schedule::Guided(0),
            Schedule::Guided(3),
            Schedule::Adaptive(1),
            Schedule::Adaptive(64),
            Schedule::Affinity,
            Schedule::Runtime,
        ] {
            assert_eq!(Schedule::parse(&s.to_string()).unwrap(), s, "{s}");
        }
    }

    #[test]
    fn schedule_parse_rejects_malformed_strings() {
        for bad in [
            "",
            "fractal",
            "static,",
            "static,x",
            "dynamic,-1",
            "dynamic,4,9",
            "runtime,2",
            "affinity,2",
            "adaptive,x",
            "static,4x",
        ] {
            let e = Schedule::parse(bad).unwrap_err();
            assert!(!e.is_empty(), "{bad:?} must produce a message");
        }
    }

    /// Run `range` under `sched` with `cfg` and return how often each
    /// index ran, plus the summed DSM stats.
    fn coverage_cfg(cfg: OmpConfig, sched: Schedule, n: usize) -> (Vec<u64>, tmk::TmkStats) {
        let out = crate::env::run(cfg, move |omp| {
            let hits = omp.malloc_vec::<u64>(n.max(1));
            omp.parallel_for(sched, 0..n, move |t, i| {
                let v = t.read(&hits, i);
                t.write(&hits, i, v + 1);
            });
            omp.read_slice(&hits, 0..n)
        });
        (out.result, out.dsm)
    }

    /// Run `range` under `sched` and return how often each index ran.
    fn coverage(sched: Schedule, n: usize, nodes: usize) -> Vec<u64> {
        coverage_cfg(OmpConfig::fast_test(nodes), sched, n).0
    }

    #[test]
    fn dynamic_and_guided_handle_empty_range() {
        for sched in [Schedule::Dynamic(4), Schedule::Guided(2)] {
            assert!(coverage(sched, 0, 3).is_empty(), "{sched:?}");
        }
    }

    #[test]
    fn dynamic_chunk_larger_than_range() {
        // One grab claims the whole loop; the rest of the team must see an
        // exhausted counter, not underflow or double execution.
        let hits = coverage(Schedule::Dynamic(1000), 7, 4);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn guided_min_chunk_larger_than_range() {
        let hits = coverage(Schedule::Guided(64), 10, 3);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn dynamic_zero_chunk_is_clamped_not_stuck() {
        // chunk 0 would never advance the shared counter; the runtime
        // clamps it to 1.
        let hits = coverage(Schedule::Dynamic(0), 9, 2);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn guided_zero_min_chunk_is_clamped_not_stuck() {
        let hits = coverage(Schedule::Guided(0), 9, 2);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn trip_count_not_divisible_by_nodes() {
        // Trip counts with remainders, fewer iterations than nodes, and a
        // single iteration — every index must run exactly once.
        for (n, nodes) in [(11usize, 4usize), (2, 5), (1, 3), (17, 8)] {
            for sched in [
                Schedule::Static,
                Schedule::StaticChunk(3),
                Schedule::Dynamic(3),
                Schedule::Guided(2),
                Schedule::Runtime,
            ] {
                let hits = coverage(sched, n, nodes);
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "{sched:?} n={n} nodes={nodes}: {hits:?}"
                );
            }
        }
    }

    #[test]
    fn runtime_schedule_resolves_from_config() {
        // With runtime_schedule = Dynamic the loop must draw chunks from
        // the shared counter — observable as lock acquisitions — and
        // still cover every index exactly once.
        let mut dyn_cfg = OmpConfig::fast_test(3);
        dyn_cfg.runtime_schedule = Schedule::Dynamic(4);
        let (hits, stats) = coverage_cfg(dyn_cfg, Schedule::Runtime, 37);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
        assert!(
            stats.lock_acquires > 0,
            "dynamic resolution must use the shared loop counter"
        );

        // The static default pays no lock traffic.
        let (hits, stats) = coverage_cfg(OmpConfig::fast_test(3), Schedule::Runtime, 37);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
        assert_eq!(stats.lock_acquires, 0, "static resolution must be free");
    }

    #[test]
    fn runtime_schedule_pointing_at_itself_falls_back_to_static() {
        let mut cfg = OmpConfig::fast_test(2);
        cfg.runtime_schedule = Schedule::Runtime;
        let (hits, stats) = coverage_cfg(cfg, Schedule::Runtime, 11);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
        assert_eq!(stats.lock_acquires, 0);
    }
}
