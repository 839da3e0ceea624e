//! The six workloads: what runs, on which pool, and why it is here.

use crate::programs::{variants, Template, Variant};

/// How a workload drives the door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `CLIENTS` closed-loop connections, one `wait:true` submit each at
    /// a time, cycling through the variants.
    ClosedLoop,
    /// One connection pipelines `BURST_JOBS`-job batches without `wait`,
    /// polls `status` until idle, then sends one verified probe.
    Burst,
}

/// Closed-loop client connections (= `nproc` of the review host).
pub const CLIENTS: usize = 2;
/// Jobs pipelined per `door_burst` batch.
pub const BURST_JOBS: usize = 256;
/// Every `BURST_PI_EVERY`-th job of a batch is an inline tiny pi.
pub const BURST_PI_EVERY: usize = 8;
/// The registered closure the other burst jobs run: one empty parallel
/// region.
pub const TOUCH: &str = "touch";
/// Burst tenants and their fair-share weights.
pub const TENANTS: [(&str, u64); 2] = [("alice", 2), ("bob", 1)];

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set (one line, also in BENCHMARK.json).
    pub why: &'static str,
    /// The layer expected to hold the largest self-time share.
    pub dominant: &'static str,
    pub template: Template,
    pub drive: Drive,
    /// Warm clusters in the service pool.
    pub pool: usize,
    /// Workstations per cluster (one thread each).
    pub nodes: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "door_tiny",
        why: "0.1 ms job body, so all that is seen is door cost: socket, line-JSON, per-submit compile, admission, reply",
        dominant: "now-service",
        template: Template::Pi { n: 200 },
        drive: Drive::ClosedLoop,
        pool: 2,
        nodes: 2,
    },
    Workload {
        name: "door_burst",
        why: "same door used differently: pipelined no-wait batches build a queue, so admission and DRR dispatch dominate",
        dominant: "now-service",
        template: Template::Pi { n: 200 },
        drive: Drive::Burst,
        pool: 2,
        nodes: 2,
    },
    Workload {
        name: "pi_compute",
        why: "400k-iteration reduction with 36 messages: interpreter-bound, tmk and now-net changes should move nothing",
        dominant: "ompc",
        template: Template::Pi { n: 400_000 },
        drive: Drive::ClosedLoop,
        pool: 1,
        nodes: 4,
    },
    Workload {
        name: "jacobi_barrier",
        why: "328 barriers and small sparse single-writer diffs per job: sync-bound, thread hand-off per message dominates",
        dominant: "tmk",
        template: Template::Jacobi,
        drive: Drive::ClosedLoop,
        pool: 1,
        nodes: 4,
    },
    Workload {
        name: "sgd_diff",
        why: "dense multi-writer pages: twins and hundreds of KB of diffs per job, the opposite tmk use to jacobi_barrier",
        dominant: "tmk",
        template: Template::Sgd,
        drive: Drive::ClosedLoop,
        pool: 1,
        nodes: 4,
    },
    Workload {
        name: "fib_steal",
        why: "irregular task tree: lock hand-offs and steals dominate, the only workload where tasking counters matter",
        dominant: "nomp",
        template: Template::Fib,
        drive: Drive::ClosedLoop,
        pool: 1,
        nodes: 4,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn variants(&self, seed: u64) -> Vec<Variant> {
        variants(self.template, seed)
    }

    /// Jobs one door operation (a request, or a batch with its probe)
    /// completes.
    pub fn jobs_per_op(&self) -> usize {
        match self.drive {
            Drive::ClosedLoop => 1,
            Drive::Burst => BURST_JOBS + 1,
        }
    }

    /// Of those, the ones submitted as inline source (compiled at the
    /// door).
    pub fn compiles_per_op(&self) -> usize {
        match self.drive {
            Drive::ClosedLoop => 1,
            Drive::Burst => BURST_JOBS / BURST_PI_EVERY + 1,
        }
    }

    /// Jobs of one operation that can run side by side.
    pub fn parallelism(&self) -> usize {
        match self.drive {
            Drive::ClosedLoop => 1,
            Drive::Burst => self.pool,
        }
    }
}
