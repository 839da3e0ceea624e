//! Work-sharing loop drivers: how `parallel do` iterations reach threads.
//!
//! Static policies are pure arithmetic (no traffic). Dynamic and guided
//! policies draw chunks from a shared counter protected by a runtime lock;
//! on software DSM every grab is a lock transfer plus a page fetch, which
//! is why the paper's applications all use static partitioning — the cost
//! difference is measurable with the `sync_ablation` bench.
//!
//! Two policies target *heterogeneous and loaded* NOWs, where static
//! partitioning collapses:
//!
//! * [`Schedule::Adaptive`] — factoring-style shrinking batches re-sized
//!   by observed per-node throughput. Each node publishes its measured
//!   rate (iterations per virtual second) on the shared state page it
//!   already faults for the claim, so the weighting costs no extra
//!   messages; a 2×-slow node automatically receives half-size batches
//!   and the claim count stays `O(nodes × log(total))` instead of the
//!   `O(total / chunk)` of dynamic scheduling.
//! * [`Schedule::Affinity`] — per-node home partitions with history. Each
//!   workstation bites `1/(2p)` of its remaining contiguous block per
//!   claim via a counter *it* manages (`manager_of(lock) == owner`, so
//!   home claims never touch the wire) and steals from the tail of the
//!   fullest victim only when it runs dry. Partitions are a
//!   deterministic function of the loop, so re-executions reuse the
//!   pages a node already holds.
//!
//! [`LoopPlan`] is public so that directive front-ends (the `ompc`
//! translator) can drive work-shared loops chunk by chunk with
//! [`LoopPlan::next_chunk`] while keeping their own execution context
//! between chunks; [`Env::plan_loop`](crate::Env::plan_loop) builds a plan
//! with the shared state pre-allocated.

use crate::config::Schedule;
use crate::thread::OmpThread;
use std::ops::Range;
use tmk::{SharedScalar, SharedVec, Tmk};

/// Pre-allocated DSM-resident state of one work-shared loop (built
/// master-side by [`Env::alloc_loop_shared`](crate::Env::alloc_loop_shared)
/// so it lives in shared space before the region forks).
#[derive(Clone)]
pub enum LoopShared {
    /// Dynamic/guided: one shared chunk counter under a runtime lock.
    Counter {
        /// Next unclaimed iteration.
        counter: SharedScalar<u64>,
        /// Runtime lock serializing claims.
        lock: u32,
    },
    /// Adaptive: `[next, rate_0, …, rate_{n-1}]` under a runtime lock.
    /// Rates are observed iterations per virtual second, published by
    /// each node on the page the claim already holds.
    Adaptive {
        /// `[next, rate per node…]`.
        state: SharedVec<u64>,
        /// Runtime lock serializing claims.
        lock: u32,
    },
    /// Affinity: one `[init, next, end]` descriptor per node, each on its
    /// own page under a lock managed by that node (home claims are
    /// message-free).
    Affinity {
        /// Per-node partition descriptors.
        parts: Vec<SharedVec<u64>>,
        /// Loop-site id, folded into the per-node lock ids.
        site: u32,
    },
}

/// Reserved lock-id range for affinity partition locks; the id of node
/// `k`'s lock is constructed so its *manager is node `k`*
/// (`manager_of(id) = id % n`), making home-partition claims message-free.
const AFFINITY_LOCK_BASE: u32 = 0xF400_0000;

fn affinity_lock(n: usize, site: u32, k: usize) -> u32 {
    let base = AFFINITY_LOCK_BASE - (AFFINITY_LOCK_BASE % n as u32);
    base + site * n as u32 + k as u32
}

// Affinity part layout (u64 words).
const AFF_INIT: usize = 0;
const AFF_NEXT: usize = 1;
const AFF_END: usize = 2;
/// Words per affinity partition descriptor.
pub(crate) const AFF_WORDS: usize = 3;

/// Cap on published adaptive rates (iterations per virtual second):
/// bounds the `remaining × rate` products well inside u128 range and
/// keeps a degenerate fast observation from starving everyone else.
const RATE_CAP: u64 = 1_000_000_000_000;

/// Run-time plan for executing one work-shared loop on one thread.
///
/// Built by [`Env::plan_loop`](crate::Env::plan_loop) (master side, so the
/// shared state of non-static policies lives in DSM space) and consumed
/// inside the region either with [`LoopPlan::run`] or chunk by chunk with
/// [`LoopPlan::next_chunk`].
#[derive(Clone)]
pub struct LoopPlan(Plan);

#[derive(Clone)]
enum Plan {
    /// Contiguous block per thread.
    Static { start: usize, end: usize },
    /// Round-robin chunks.
    StaticChunk {
        start: usize,
        end: usize,
        chunk: usize,
    },
    /// Shared-counter chunking.
    Shared {
        start: usize,
        end: usize,
        counter: SharedScalar<u64>,
        lock: u32,
        policy: SharedPolicy,
    },
    /// Throughput-weighted factoring.
    Adaptive {
        start: usize,
        end: usize,
        state: SharedVec<u64>,
        lock: u32,
        min: usize,
    },
    /// Per-node home partitions with steal-on-dry rebalancing.
    Affinity {
        start: usize,
        end: usize,
        parts: Vec<SharedVec<u64>>,
        site: u32,
    },
}

#[derive(Clone, Copy)]
enum SharedPolicy {
    Dynamic { chunk: usize },
    Guided { min_chunk: usize },
}

/// Per-thread progress through a [`LoopPlan`]'s static chunk sequence
/// (dynamic policies keep their progress in the shared counter instead),
/// plus the per-thread throughput observation the adaptive policy feeds
/// back into its claims.
#[derive(Default)]
pub struct LoopCursor {
    pos: usize,
    started: bool,
    /// SMP topologies: cached handle to the node's chunk buffer for this
    /// loop site, so the hot sub-chunk take skips the team's site map.
    site: Option<smp::SharedChunkBuf>,
    /// Adaptive (`n × 1`): virtual instant the previous chunk was handed
    /// out and its length — the next claim turns them into an observed
    /// rate. (SMP topologies keep the node-level observation in the
    /// team's [`smp::ChunkBuf`] instead.)
    claim_vt: u64,
    claim_len: u64,
}

impl LoopCursor {
    /// A cursor at the start of the thread's chunk sequence.
    pub fn new() -> Self {
        LoopCursor::default()
    }
}

/// Observed throughput: `len` iterations over `dt` virtual ns, as
/// iterations per virtual second (clamped to `1..=RATE_CAP`).
fn observed_rate(len: u64, dt: u64) -> u64 {
    ((len.max(1).saturating_mul(1_000_000_000)) / dt.max(1)).clamp(1, RATE_CAP)
}

/// The factoring batch for a node with published rate `my` when `n` nodes
/// share `remaining` iterations: `remaining × my / (2 Σ rates)`, with
/// unknown (unpublished) rates assumed to be the average of the known
/// ones. Before any observation exists the batch is the deliberately
/// conservative `remaining / 4n`: an unknown node may turn out slow, and
/// a claimed batch is in-flight — unstealable, unshrinkable — so the
/// bootstrap bite bounds the damage at one extra round of claims.
fn adaptive_len(remaining: u64, my: u64, rates: &[u64]) -> u64 {
    let n = rates.len() as u64;
    if my == 0 {
        return remaining / (4 * n.max(1));
    }
    let known: Vec<u64> = rates.iter().copied().filter(|&r| r > 0).collect();
    let sum: u64 = known.iter().sum();
    let avg = (sum / known.len() as u64).max(1);
    let sum_est = sum + (n - known.len() as u64) * avg;
    ((remaining as u128 * my as u128) / (2 * sum_est.max(1) as u128)) as u64
}

impl LoopShared {
    /// Reset the loop's shared state for a re-execution of the same loop
    /// (the directive front-end's interior `omp for`, fenced by barriers
    /// on both sides). Adaptive rate history and affinity partition
    /// identity survive the reset — that *is* the history the policies
    /// exploit across executions.
    pub fn reset(&self, t: &mut Tmk) {
        match self {
            LoopShared::Counter { counter, .. } => counter.set(t, 0),
            LoopShared::Adaptive { state, .. } => t.write(state, 0, 0),
            LoopShared::Affinity { parts, .. } => {
                for p in parts {
                    t.write(p, AFF_INIT, 0);
                }
            }
        }
    }
}

impl LoopPlan {
    /// Build the plan for `range` under `sched`. `shared` must be
    /// provided (pre-allocated, zeroed) for dynamic/guided/adaptive/
    /// affinity schedules, with the matching [`LoopShared`] shape —
    /// [`Env::alloc_loop_shared`](crate::Env::alloc_loop_shared) does
    /// this. `sched` must already be resolved: [`Schedule::Runtime`] is
    /// substituted by [`Env::resolve_schedule`](crate::Env::resolve_schedule).
    pub fn new(sched: Schedule, range: Range<usize>, shared: Option<LoopShared>) -> Self {
        fn counter_of(shared: Option<LoopShared>, kind: &str) -> (SharedScalar<u64>, u32) {
            match shared {
                Some(LoopShared::Counter { counter, lock }) => (counter, lock),
                _ => panic!("{kind} schedule needs a shared counter"),
            }
        }
        LoopPlan(match sched {
            Schedule::Static => Plan::Static {
                start: range.start,
                end: range.end,
            },
            Schedule::StaticChunk(c) => Plan::StaticChunk {
                start: range.start,
                end: range.end,
                chunk: c.max(1),
            },
            Schedule::Dynamic(c) => {
                let (counter, lock) = counter_of(shared, "dynamic");
                Plan::Shared {
                    start: range.start,
                    end: range.end,
                    counter,
                    lock,
                    policy: SharedPolicy::Dynamic { chunk: c.max(1) },
                }
            }
            Schedule::Guided(m) => {
                let (counter, lock) = counter_of(shared, "guided");
                Plan::Shared {
                    start: range.start,
                    end: range.end,
                    counter,
                    lock,
                    policy: SharedPolicy::Guided {
                        min_chunk: m.max(1),
                    },
                }
            }
            Schedule::Adaptive(m) => match shared {
                Some(LoopShared::Adaptive { state, lock }) => Plan::Adaptive {
                    start: range.start,
                    end: range.end,
                    state,
                    lock,
                    min: m.max(1),
                },
                _ => panic!("adaptive schedule needs shared rate state"),
            },
            Schedule::Affinity => match shared {
                Some(LoopShared::Affinity { parts, site }) => Plan::Affinity {
                    start: range.start,
                    end: range.end,
                    parts,
                    site,
                },
                _ => panic!("affinity schedule needs shared partition state"),
            },
            Schedule::Runtime => {
                panic!("Schedule::Runtime must be resolved first (see Env::resolve_schedule)")
            }
        })
    }

    /// This loop's trace/profile site id: the shared lock (or affinity
    /// site) for dynamic policies, 0 for the traffic-free static ones.
    fn site_id(&self) -> u64 {
        match &self.0 {
            Plan::Static { .. } | Plan::StaticChunk { .. } => 0,
            Plan::Shared { lock, .. } | Plan::Adaptive { lock, .. } => *lock as u64,
            Plan::Affinity { site, .. } => *site as u64,
        }
    }

    /// The next iteration chunk this thread should execute, or `None` when
    /// the thread's share of the loop is exhausted. `cursor` carries the
    /// thread's progress between calls and must start as
    /// [`LoopCursor::new`] for each execution of the loop.
    pub fn next_chunk(
        &self,
        th: &mut OmpThread<'_>,
        cursor: &mut LoopCursor,
    ) -> Option<Range<usize>> {
        let r = self.next_chunk_inner(th, cursor);
        if let Some(r) = &r {
            let m = th.metrics();
            m.chunks_claimed.inc();
            m.chunk_iters.add(r.len() as u64);
            m.chunk_len.record(r.len() as u64);
            th.trace_instant(tmk::EventKind::ChunkClaim, self.site_id(), r.len() as u64);
        }
        r
    }

    fn next_chunk_inner(
        &self,
        th: &mut OmpThread<'_>,
        cursor: &mut LoopCursor,
    ) -> Option<Range<usize>> {
        let (tid, p) = (th.thread_num(), th.num_threads());
        match &self.0 {
            Plan::Static { start, end } => {
                if cursor.started {
                    return None;
                }
                cursor.started = true;
                let total = end - start;
                let b = Schedule::static_block(total, p, tid);
                if b.is_empty() {
                    None
                } else {
                    Some(start + b.start..start + b.end)
                }
            }
            Plan::StaticChunk { start, end, chunk } => {
                if !cursor.started {
                    cursor.started = true;
                    cursor.pos = tid * chunk;
                }
                let total = end - start;
                if cursor.pos >= total {
                    return None;
                }
                let lo = cursor.pos;
                let hi = (lo + chunk).min(total);
                cursor.pos += p * chunk;
                Some(start + lo..start + hi)
            }
            Plan::Shared {
                start,
                end,
                counter,
                lock,
                policy,
            } => {
                let total = (end - start) as u64;
                if let Some((team, tpn)) = th.smp_team() {
                    // Two-level scheduling: one thread grabs a *node-level*
                    // chunk from the DSM counter (tpn× the per-thread
                    // chunk) and the team subdivides it through the node's
                    // message-free chunk buffer — DSM grab traffic scales
                    // with nodes, not threads.
                    let nodes = th.nprocs() as u64;
                    let site = cursor
                        .site
                        .get_or_insert_with(|| team.loop_site(*lock))
                        .clone();
                    let mut buf = site.lock();
                    th.lane_advance(team.cfg().local_lock_ns);
                    if buf.lo >= buf.hi {
                        let claim = th.critical(*lock, |th| {
                            let cur = counter.get(th);
                            if cur >= total {
                                return None;
                            }
                            let remaining = total - cur;
                            let len = match policy {
                                SharedPolicy::Dynamic { chunk } => {
                                    ((*chunk).max(1) as u64 * tpn as u64).min(remaining)
                                }
                                SharedPolicy::Guided { min_chunk } => (remaining / (2 * nodes))
                                    .max((*min_chunk).max(1) as u64)
                                    .min(remaining),
                            };
                            counter.set(th, cur + len);
                            Some((cur, len))
                        });
                        let (cur, len) = claim?;
                        buf.lo = cur as usize;
                        buf.hi = (cur + len) as usize;
                        buf.take = match policy {
                            SharedPolicy::Dynamic { chunk } => (*chunk).max(1),
                            SharedPolicy::Guided { .. } => (len as usize).div_ceil(tpn).max(1),
                        };
                    }
                    let lo = buf.lo;
                    let hi = (lo + buf.take.max(1)).min(buf.hi);
                    buf.lo = hi;
                    return Some(start + lo..start + hi);
                }
                let claim = th.critical(*lock, |th| {
                    let cur = counter.get(th);
                    if cur >= total {
                        return None;
                    }
                    let remaining = total - cur;
                    let len = match policy {
                        SharedPolicy::Dynamic { chunk } => (*chunk as u64).min(remaining),
                        SharedPolicy::Guided { min_chunk } => (remaining / (2 * p as u64))
                            .max(*min_chunk as u64)
                            .min(remaining),
                    };
                    counter.set(th, cur + len);
                    Some((cur, len))
                });
                claim.map(|(cur, len)| {
                    let lo = start + cur as usize;
                    lo..lo + len as usize
                })
            }
            Plan::Adaptive {
                start,
                end,
                state,
                lock,
                min,
            } => {
                let total = (end - start) as u64;
                let nodes = th.nprocs();
                let me = th.node_id();
                let min = *min as u64;
                if let Some((team, tpn)) = th.smp_team() {
                    // Node-level claims subdivided through the team
                    // buffer; the observation (and thus the published
                    // rate) is node-level, so it reflects the whole
                    // team's throughput.
                    let site = cursor
                        .site
                        .get_or_insert_with(|| team.loop_site(*lock))
                        .clone();
                    let now = th.now_ns();
                    let mut buf = site.lock();
                    th.lane_advance(team.cfg().local_lock_ns);
                    if buf.lo >= buf.hi {
                        // `claim_vt` was stamped by whichever sibling did
                        // the previous refill on *its* lane; if this
                        // thread's lane still lags behind it, the elapsed
                        // time is unknowable — skip the observation
                        // rather than publish a near-infinite rate.
                        let obs = (buf.claim_len > 0 && now > buf.claim_vt)
                            .then(|| observed_rate(buf.claim_len, now - buf.claim_vt));
                        let floor = min.saturating_mul(tpn as u64);
                        let claim = adaptive_claim(th, state, *lock, total, nodes, me, floor, obs);
                        let (cur, len) = claim?;
                        buf.lo = cur as usize;
                        buf.hi = (cur + len) as usize;
                        buf.take = (len as usize).div_ceil(tpn).max(1);
                        buf.claim_vt = th.now_ns();
                        buf.claim_len = len;
                    }
                    let lo = buf.lo;
                    let hi = (lo + buf.take.max(1)).min(buf.hi);
                    buf.lo = hi;
                    return Some(start + lo..start + hi);
                }
                let now = th.now_ns();
                // As in the SMP branch: a chunk whose elapsed virtual
                // time rounds to zero yields no usable rate — skip the
                // observation rather than publish a near-infinite one.
                let obs = (cursor.claim_len > 0 && now > cursor.claim_vt)
                    .then(|| observed_rate(cursor.claim_len, now - cursor.claim_vt));
                let (cur, len) = adaptive_claim(th, state, *lock, total, nodes, me, min, obs)?;
                cursor.claim_vt = th.now_ns();
                cursor.claim_len = len;
                let lo = start + cur as usize;
                Some(lo..lo + len as usize)
            }
            Plan::Affinity {
                start,
                end,
                parts,
                site,
            } => {
                let total = (end - start) as u64;
                if total == 0 {
                    return None;
                }
                if let Some((team, tpn)) = th.smp_team() {
                    // The node's local threads share the node's home
                    // partition through the team chunk buffer; only the
                    // node-level refill touches the partition locks.
                    let n = th.nprocs();
                    let key = affinity_lock(n, *site, 0);
                    let buf_site = cursor
                        .site
                        .get_or_insert_with(|| team.loop_site(key))
                        .clone();
                    let mut buf = buf_site.lock();
                    th.lane_advance(team.cfg().local_lock_ns);
                    if buf.lo >= buf.hi {
                        let (lo, len) = affinity_claim(th, parts, *site, total)?;
                        buf.lo = lo as usize;
                        buf.hi = (lo + len) as usize;
                        buf.take = (len as usize).div_ceil(tpn).max(1);
                    }
                    let lo = buf.lo;
                    let hi = (lo + buf.take.max(1)).min(buf.hi);
                    buf.lo = hi;
                    return Some(start + lo..start + hi);
                }
                let (lo, len) = affinity_claim(th, parts, *site, total)?;
                let lo = start + lo as usize;
                Some(lo..lo + len as usize)
            }
        }
    }

    /// Drive `body` over this thread's chunks.
    pub fn run(
        &self,
        th: &mut OmpThread<'_>,
        body: &mut dyn FnMut(&mut OmpThread<'_>, Range<usize>),
    ) {
        let mut cursor = LoopCursor::new();
        while let Some(r) = self.next_chunk(th, &mut cursor) {
            body(th, r);
        }
    }
}

/// One adaptive claim under the loop lock: publish the caller's observed
/// rate, then take the throughput-weighted factoring batch.
#[allow(clippy::too_many_arguments)]
fn adaptive_claim(
    th: &mut OmpThread<'_>,
    state: &SharedVec<u64>,
    lock: u32,
    total: u64,
    nodes: usize,
    me: usize,
    min: u64,
    obs: Option<u64>,
) -> Option<(u64, u64)> {
    th.critical(lock, |th| {
        let cur = th.read(state, 0);
        if cur >= total {
            return None;
        }
        if let Some(rate) = obs {
            th.write(state, 1 + me, rate);
        }
        let rates = th.read_slice(state, 1..1 + nodes);
        let remaining = total - cur;
        let len = adaptive_len(remaining, rates[me], &rates)
            .max(min.max(1))
            .min(remaining);
        th.write(state, 0, cur + len);
        Some((cur, len))
    })
}

/// One affinity claim: bite into the home partition (message-free — the
/// partition lock's manager is the home node), or, when dry, steal from
/// the tail of the fullest victim, sweeping victims in descending order
/// of (possibly stale) published backlog. Returns `None` only when
/// every partition is provably empty — partitions only ever shrink, so a
/// clean sweep is conclusive.
fn affinity_claim(
    th: &mut OmpThread<'_>,
    parts: &[SharedVec<u64>],
    site: u32,
    total: u64,
) -> Option<(u64, u64)> {
    let n = parts.len();
    let me = th.node_id();
    if let Some(c) = affinity_take(th, parts, site, total, me, false) {
        return Some(c);
    }
    // Dry: sweep victims ordered by published backlog (stale reads of
    // each part's cached page — an over-estimate, since partitions only
    // shrink; zero is therefore conclusive and skipped).
    let mut victims: Vec<(u64, usize)> = (0..n)
        .filter(|&k| k != me)
        .map(|k| {
            let est = if th.read(&parts[k], AFF_INIT) == 0 {
                Schedule::static_block(total as usize, n, k).len() as u64
            } else {
                let next = th.read(&parts[k], AFF_NEXT);
                let end = th.read(&parts[k], AFF_END);
                end.saturating_sub(next)
            };
            (est, k)
        })
        .collect();
    victims.sort_by_key(|&(est, _)| std::cmp::Reverse(est));
    for (est, k) in victims {
        if est == 0 {
            continue;
        }
        if let Some(c) = affinity_take(th, parts, site, total, k, true) {
            th.count_op(tmk::TmkOp::LoopSteals, 1);
            return Some(c);
        }
    }
    None
}

/// Take `1/(2p)` of partition `k`'s remaining iterations under its lock
/// (the classic affinity-scheduling bite: small enough that a claimed —
/// and therefore unstealable — chunk never strands much work on a slow
/// node, large enough that claim counts stay logarithmic), lazily
/// initializing the partition to its static block. The owner consumes
/// from the head; a thief takes from the tail, preserving the owner's
/// locality.
fn affinity_take(
    th: &mut OmpThread<'_>,
    parts: &[SharedVec<u64>],
    site: u32,
    total: u64,
    k: usize,
    steal: bool,
) -> Option<(u64, u64)> {
    let n = parts.len();
    let lock = affinity_lock(n, site, k);
    let part = parts[k];
    th.critical(lock, |th| {
        if th.read(&part, AFF_INIT) == 0 {
            let b = Schedule::static_block(total as usize, n, k);
            th.write_slice(&part, 0, &[1, b.start as u64, b.end as u64]);
        }
        let next = th.read(&part, AFF_NEXT);
        let end = th.read(&part, AFF_END);
        if next >= end {
            return None;
        }
        let len = (end - next).div_ceil(2 * n as u64);
        if steal {
            th.write(&part, AFF_END, end - len);
            Some((end - len, len))
        } else {
            th.write(&part, AFF_NEXT, next + len);
            Some((next, len))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmpConfig;
    use crate::env::run;

    fn collect_indices(sched: Schedule, n: usize, nodes: usize) -> Vec<u64> {
        collect_indices_smp(sched, n, nodes, 1)
    }

    fn collect_indices_smp(sched: Schedule, n: usize, nodes: usize, tpn: usize) -> Vec<u64> {
        let out = run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            let hits = omp.malloc_vec::<u64>(n.max(1));
            omp.parallel_for_chunks(sched, 0..n, move |t, r| {
                for i in r {
                    let v = t.read(&hits, i);
                    t.write(&hits, i, v + 1);
                }
            });
            omp.read_slice(&hits, 0..n)
        });
        out.result
    }

    #[test]
    fn static_covers_all_once() {
        let hits = collect_indices(Schedule::Static, 103, 3);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn static_chunk_covers_all_once() {
        let hits = collect_indices(Schedule::StaticChunk(5), 64, 3);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn dynamic_covers_all_once() {
        let hits = collect_indices(Schedule::Dynamic(7), 50, 3);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn guided_covers_all_once() {
        let hits = collect_indices(Schedule::Guided(2), 41, 2);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn adaptive_covers_all_once() {
        for (n, nodes) in [(50usize, 3usize), (7, 4), (1, 2), (129, 2)] {
            let hits = collect_indices(Schedule::Adaptive(2), n, nodes);
            assert!(
                hits.iter().all(|&h| h == 1),
                "n={n} nodes={nodes}: {hits:?}"
            );
        }
    }

    #[test]
    fn affinity_covers_all_once() {
        for (n, nodes) in [(50usize, 3usize), (7, 4), (1, 2), (129, 2)] {
            let hits = collect_indices(Schedule::Affinity, n, nodes);
            assert!(
                hits.iter().all(|&h| h == 1),
                "n={n} nodes={nodes}: {hits:?}"
            );
        }
    }

    #[test]
    fn adaptive_and_affinity_cover_all_once_on_smp_teams() {
        // Node-level chunks must subdivide exactly at any threads-per-node.
        for tpn in [2usize, 3, 4] {
            for sched in [Schedule::Adaptive(2), Schedule::Affinity] {
                let hits = collect_indices_smp(sched, 97, 2, tpn);
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "{sched:?} tpn={tpn}: {hits:?}"
                );
            }
        }
    }

    #[test]
    fn adaptive_and_affinity_handle_empty_range() {
        for sched in [Schedule::Adaptive(4), Schedule::Affinity] {
            assert!(collect_indices(sched, 0, 3).is_empty(), "{sched:?}");
        }
    }

    #[test]
    fn affinity_home_claims_hit_the_local_lock_fast_path() {
        // Home-partition claims go through a lock managed by the home
        // node itself, so they take the local-token fast path. (Steals
        // can still occur on a tiny loop — a node that drains its block
        // before a sibling even starts legitimately rebalances.)
        let out = run(OmpConfig::fast_test(4), move |omp| {
            let hits = omp.malloc_vec::<u64>(64);
            omp.parallel_for_chunks(Schedule::Affinity, 0..64, move |t, r| {
                for i in r {
                    let v = t.read(&hits, i);
                    t.write(&hits, i, v + 1);
                }
            });
            omp.read_slice(&hits, 0..64)
        });
        assert!(out.result.iter().all(|&h| h == 1));
        assert!(
            out.dsm.lock_acquires_local > 0,
            "home claims must hit the local-token fast path"
        );
    }

    #[test]
    fn affinity_single_node_never_steals_or_messages() {
        let out = run(OmpConfig::fast_test(1), move |omp| {
            let hits = omp.malloc_vec::<u64>(40);
            omp.parallel_for_chunks(Schedule::Affinity, 0..40, move |t, r| {
                for i in r {
                    let v = t.read(&hits, i);
                    t.write(&hits, i, v + 1);
                }
            });
            omp.read_slice(&hits, 0..40)
        });
        assert!(out.result.iter().all(|&h| h == 1));
        assert_eq!(out.dsm.loop_steals, 0);
        assert_eq!(out.net.total_msgs(), 0, "one node never touches the wire");
    }

    #[test]
    fn adaptive_rate_weighting_math() {
        // No observations yet: the conservative bootstrap bite.
        assert_eq!(adaptive_len(100, 0, &[0, 0, 0, 0]), 6);
        // Twice the rate ⇒ twice the batch.
        let fast = adaptive_len(120, 200, &[200, 100]);
        let slow = adaptive_len(120, 100, &[200, 100]);
        assert_eq!(fast, 40); // 120 * 200 / (2 * 300)
        assert_eq!(slow, 20);
        // Unknown rates are assumed average of the known.
        assert_eq!(adaptive_len(120, 100, &[100, 0]), 30);
        // Observed-rate arithmetic saturates sanely.
        assert_eq!(observed_rate(10, 0), RATE_CAP.min(10_000_000_000));
        assert!(observed_rate(1, u64::MAX) >= 1);
        assert_eq!(observed_rate(u64::MAX, 1), RATE_CAP);
    }

    #[test]
    fn affinity_locks_are_owner_managed_and_disjoint() {
        for n in [1usize, 2, 3, 8] {
            let mut all = Vec::new();
            for site in [0u32, 1, 1023] {
                for k in 0..n {
                    let id = affinity_lock(n, site, k);
                    assert_eq!(id as usize % n, k, "manager must be the home node");
                    all.push(id);
                }
            }
            let unique: std::collections::HashSet<u32> = all.iter().copied().collect();
            assert_eq!(unique.len(), all.len(), "lock collision at n={n}");
        }
    }

    #[test]
    fn empty_loop_is_fine() {
        let hits = collect_indices(Schedule::Static, 0, 2);
        assert!(hits.is_empty());
    }

    #[test]
    fn next_chunk_matches_run_for_static_policies() {
        // Drive the same loop through the cursor API and the callback API
        // on every thread; both must produce identical coverage.
        let out = run(OmpConfig::fast_test(3), |omp| {
            let a = omp.malloc_vec::<u64>(40);
            let b = omp.malloc_vec::<u64>(40);
            let plan = omp.plan_loop(Schedule::StaticChunk(7), 0..40);
            let plan2 = plan.clone();
            omp.parallel(move |t| {
                let mut cur = LoopCursor::new();
                while let Some(r) = plan.next_chunk(t, &mut cur) {
                    for i in r {
                        let v = t.read(&a, i);
                        t.write(&a, i, v + 1);
                    }
                }
                plan2.run(t, &mut |t, r| {
                    for i in r {
                        let v = t.read(&b, i);
                        t.write(&b, i, v + 1);
                    }
                });
            });
            (omp.read_slice(&a, 0..40), omp.read_slice(&b, 0..40))
        });
        assert_eq!(out.result.0, out.result.1);
        assert!(out.result.0.iter().all(|&h| h == 1));
    }

    #[test]
    #[should_panic(expected = "must be resolved")]
    fn unresolved_runtime_schedule_is_rejected() {
        let _ = LoopPlan::new(Schedule::Runtime, 0..10, None);
    }

    #[test]
    #[should_panic(expected = "needs a shared counter")]
    fn dynamic_plan_without_state_is_rejected() {
        let _ = LoopPlan::new(Schedule::Dynamic(4), 0..10, None);
    }

    #[test]
    #[should_panic(expected = "needs shared partition state")]
    fn affinity_plan_without_state_is_rejected() {
        let _ = LoopPlan::new(Schedule::Affinity, 0..10, None);
    }

    #[test]
    fn zero_chunk_is_normalized_to_one_in_the_plan() {
        // `Schedule::Dynamic(0)` / `Guided(0)` would never advance the
        // shared counter; LoopPlan::new normalizes the chunk to 1 so the
        // plan always makes progress. Observable at plan level: every
        // claim under chunk 0 has length exactly 1, and the loop
        // terminates with full single coverage.
        for sched in [
            Schedule::Dynamic(0),
            Schedule::Guided(0),
            Schedule::Adaptive(0),
        ] {
            let out = run(OmpConfig::fast_test(2), move |omp| {
                let hits = omp.malloc_vec::<u64>(9);
                let plan = omp.plan_loop(sched, 0..9);
                omp.parallel(move |t| {
                    let mut cur = LoopCursor::new();
                    while let Some(r) = plan.next_chunk(t, &mut cur) {
                        assert!(!r.is_empty(), "{sched:?}: degenerate empty chunk");
                        if matches!(sched, Schedule::Dynamic(0)) {
                            assert_eq!(r.len(), 1, "{sched:?}: chunk 0 must act as 1");
                        }
                        for i in r {
                            let v = t.read(&hits, i);
                            t.write(&hits, i, v + 1);
                        }
                    }
                });
                omp.read_slice(&hits, 0..9)
            });
            assert!(out.result.iter().all(|&h| h == 1), "{sched:?}: {out:?}");
        }
    }
}
