//! Heterogeneous-NOW schedule sweep: {static, dynamic, guided, adaptive,
//! affinity} × {uniform, one-2×-slow-node, bursty-trace} on pi / dotprod
//! / jacobi, in virtual time and exact DSM messages.
//!
//! The SC'98 paper measures *dedicated, identical* workstations and
//! concludes static partitioning wins — dynamic scheduling pays a lock
//! transfer per chunk. A real NOW is neither dedicated nor identical;
//! this table measures which schedules are robust when it is not:
//!
//! * **static** collapses on a slow node (the whole region waits for it);
//! * **dynamic/guided** rebalance but pay per-chunk DSM traffic;
//! * **adaptive** (throughput-weighted factoring) rebalances with
//!   `O(nodes × log total)` claims — strictly fewer messages than
//!   dynamic at equal min-chunk;
//! * **affinity** (home partitions + steal-on-dry) keeps claims local
//!   and rebalances only when a node runs dry.
//!
//! Invariants asserted by [`check_rows`]: on the one-2×-slow-node
//! scenario adaptive and affinity beat static on virtual wall time and
//! use strictly fewer DSM messages than dynamic; every cell computes the
//! same numerical result.

use crate::fmt::{print_table, secs};
use nomp::{run, ClusterLoad, LoadTrace, OmpConfig, RedOp, Schedule};

/// Minimum chunk shared by dynamic, guided and adaptive cells (the
/// "equal min-chunk" of the comparison).
pub const MIN_CHUNK: usize = 4;

/// The five schedules of the sweep.
pub const SCHEDULES: [Schedule; 5] = [
    Schedule::Static,
    Schedule::Dynamic(MIN_CHUNK),
    Schedule::Guided(MIN_CHUNK),
    Schedule::Adaptive(MIN_CHUNK),
    Schedule::Affinity,
];

/// The three cluster scenarios of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's platform: identical, dedicated machines.
    Uniform,
    /// The last node is a 2×-slow machine.
    SlowNode,
    /// Every node carries a seeded bursty background load (3× slowdown,
    /// 10 of every 40 ms, placement from seed 42).
    Bursty,
}

/// All scenarios, in sweep order.
pub const SCENARIOS: [Scenario; 3] = [Scenario::Uniform, Scenario::SlowNode, Scenario::Bursty];

impl Scenario {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::SlowNode => "slow-2x",
            Scenario::Bursty => "bursty",
        }
    }

    /// The cluster-load model of this scenario for `nodes` workstations.
    pub fn load(self, nodes: usize) -> ClusterLoad {
        match self {
            Scenario::Uniform => ClusterLoad::uniform(),
            Scenario::SlowNode => ClusterLoad::one_slow_node(nodes, nodes - 1, 2.0),
            Scenario::Bursty => ClusterLoad::with_trace_all(
                nodes,
                LoadTrace::Burst {
                    period_ns: 40_000_000,
                    busy_ns: 10_000_000,
                    slowdown: 3.0,
                },
                42,
            ),
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct HeteroRow {
    /// Kernel name (pi / dotprod / jacobi).
    pub kernel: &'static str,
    /// Cluster scenario.
    pub scenario: Scenario,
    /// Loop schedule.
    pub schedule: Schedule,
    /// Virtual run time in ns.
    pub vt_ns: u64,
    /// Remote DSM messages.
    pub msgs: u64,
    /// The kernel's checked result scalar.
    pub result: f64,
    /// Host wall-clock time of the cell in ms (simulator cost, not a
    /// modeled quantity — it varies run to run).
    pub host_ms: f64,
}

/// Kernel names, in sweep order.
pub const KERNELS: [&str; 3] = ["pi", "dotprod", "jacobi"];

// Kernel dimensions. Per-iteration bodies are deliberately
// compute-dominant (pi integrates SUB sub-points per iteration; dotprod
// and jacobi run an exact per-element refinement loop standing in for
// the flops of a production kernel): schedule choice only matters when
// the loop body outweighs the scheduler — both in virtual time (a
// shared-counter claim costs ~1 ms of modeled lock + page traffic) and
// in *host* time (the simulator's channel hops cost tens of host µs, so
// per-node host compute must dominate them for time-shared races —
// steal timing, claim interleaving — to mirror the virtual-time
// heterogeneity that dilation imposes). The refinement loops are
// numerically exact no-ops (`v = v + (t - v)/2` with `v == t` stays `t`
// bit-for-bit), so every cell still cross-checks against the plain
// native reference.
const PI_N: usize = 10_000;
const PI_SUB: usize = 4_000;
const DOT_N: usize = 8_192;
const DOT_REFINE: usize = 2_000;
const JAC_R: usize = 258; // rows (first and last are fixed boundary)
const JAC_C: usize = 512; // row length
const JAC_REFINE: usize = 150;
const JAC_SWEEPS: usize = 2; // even: the result lands back in `u`

/// The exact-by-construction refinement loop: `steps` damped corrections
/// toward `target`, starting at `target` — every step adds exactly zero,
/// so the value is preserved bit-for-bit while the flops are real.
#[inline]
fn refine(target: f64, steps: usize) -> f64 {
    let mut v = target;
    for _ in 0..steps {
        v += (target - v) * 0.5;
    }
    v
}

fn dot_inputs() -> (Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..DOT_N).map(|i| 0.5 + (i % 17) as f64).collect();
    let b: Vec<f64> = (0..DOT_N).map(|i| 1.0 / (1 + i % 13) as f64).collect();
    (a, b)
}

/// One jacobi sweep `src → dst` over plain slices (the native mirror of
/// the parallel kernel's per-row body).
fn jacobi_row_native(src: &[f64], dst: &mut [f64], i: usize) {
    let (r, c) = (JAC_R, JAC_C);
    debug_assert!((1..r - 1).contains(&i));
    let up = &src[(i - 1) * c..i * c];
    let cur = &src[i * c..(i + 1) * c];
    let down = &src[(i + 1) * c..(i + 2) * c];
    for j in 1..c - 1 {
        let v = 0.25 * (up[j] + down[j] + cur[j - 1] + cur[j + 1]);
        dst[i * c + j] = refine(v, JAC_REFINE);
    }
}

/// Native (sequential Rust) reference result for one kernel.
pub fn native_reference(kernel: &str) -> f64 {
    match kernel {
        "pi" => {
            let step = 1.0 / (PI_N * PI_SUB) as f64;
            let mut acc = 0.0;
            for i in 0..PI_N {
                for s in 0..PI_SUB {
                    let x = ((i * PI_SUB + s) as f64 + 0.5) * step;
                    acc += 4.0 / (1.0 + x * x);
                }
            }
            acc * step
        }
        "dotprod" => {
            let (a, b) = dot_inputs();
            (0..DOT_N).map(|i| refine(a[i] * b[i], DOT_REFINE)).sum()
        }
        "jacobi" => {
            let (r, c) = (JAC_R, JAC_C);
            let mut u = vec![0.0f64; r * c];
            let mut unew = vec![0.0f64; r * c];
            u[..c].fill(1.0);
            unew[..c].fill(1.0);
            for _ in 0..JAC_SWEEPS / 2 {
                for i in 1..r - 1 {
                    jacobi_row_native(&u, &mut unew, i);
                }
                for i in 1..r - 1 {
                    jacobi_row_native(&unew, &mut u, i);
                }
            }
            u.iter().sum()
        }
        other => panic!("unknown kernel {other}"),
    }
}

/// Run one cell of the sweep: `kernel` under `schedule` on `nodes`
/// workstations in `scenario`, on the paper cost model.
pub fn run_cell(
    kernel: &'static str,
    scenario: Scenario,
    schedule: Schedule,
    nodes: usize,
) -> HeteroRow {
    let cfg = OmpConfig::paper(nodes).with_load(scenario.load(nodes));
    let host_t0 = std::time::Instant::now();
    let out = match kernel {
        "pi" => run(cfg, move |omp| {
            let step = 1.0 / (PI_N * PI_SUB) as f64;
            omp.parallel_reduce(
                schedule,
                0..PI_N,
                RedOp::Sum,
                move |_t, i, acc: &mut f64| {
                    for s in 0..PI_SUB {
                        let x = ((i * PI_SUB + s) as f64 + 0.5) * step;
                        *acc += 4.0 / (1.0 + x * x);
                    }
                },
            ) * step
        }),
        "dotprod" => run(cfg, move |omp| {
            let a = omp.malloc_vec::<f64>(DOT_N);
            let b = omp.malloc_vec::<f64>(DOT_N);
            let (init_a, init_b) = dot_inputs();
            omp.write_slice(&a, 0, &init_a);
            omp.write_slice(&b, 0, &init_b);
            omp.parallel_reduce(
                schedule,
                0..DOT_N,
                RedOp::Sum,
                move |t, i, acc: &mut f64| {
                    let prod = t.read(&a, i) * t.read(&b, i);
                    *acc += refine(prod, DOT_REFINE);
                },
            )
        }),
        "jacobi" => run(cfg, move |omp| {
            let (r, c) = (JAC_R, JAC_C);
            let u = omp.malloc_vec::<f64>(r * c);
            let unew = omp.malloc_vec::<f64>(r * c);
            let hot = vec![1.0f64; c];
            omp.write_slice(&u, 0, &hot);
            omp.write_slice(&unew, 0, &hot);
            // Ping-pong sweeps parallelized over rows; each row's body is
            // bulk reads plus a metered stencil, so nodes pay virtual
            // time proportional to the rows they execute.
            let sweep =
                |omp: &mut nomp::Env<'_>, src: tmk::SharedVec<f64>, dst: tmk::SharedVec<f64>| {
                    omp.parallel_for_chunks(schedule, 1..r - 1, move |t, rows| {
                        for i in rows {
                            let up = t.read_slice(&src, (i - 1) * c..i * c);
                            let cur = t.read_slice(&src, i * c..(i + 1) * c);
                            let down = t.read_slice(&src, (i + 1) * c..(i + 2) * c);
                            let mut out_row = vec![0.0f64; c - 2];
                            for j in 1..c - 1 {
                                let v = 0.25 * (up[j] + down[j] + cur[j - 1] + cur[j + 1]);
                                out_row[j - 1] = refine(v, JAC_REFINE);
                            }
                            t.write_slice(&dst, i * c + 1, &out_row);
                        }
                    });
                };
            for _ in 0..JAC_SWEEPS / 2 {
                sweep(omp, u, unew);
                sweep(omp, unew, u);
            }
            omp.parallel_reduce(schedule, 0..r, RedOp::Sum, move |t, i, acc: &mut f64| {
                let row = t.read_slice(&u, i * c..(i + 1) * c);
                *acc += row.iter().sum::<f64>();
            })
        }),
        other => panic!("unknown kernel {other}"),
    };
    HeteroRow {
        kernel,
        scenario,
        schedule,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        result: out.result,
        host_ms: host_t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run the full sweep on `nodes` workstations.
pub fn hetero_rows(nodes: usize) -> Vec<HeteroRow> {
    assert!(
        nodes >= 2,
        "the heterogeneity sweep needs at least 2 workstations (got {nodes}): \
         its invariants compare schedules across nodes"
    );
    let mut rows = Vec::new();
    for kernel in KERNELS {
        for scenario in SCENARIOS {
            for schedule in SCHEDULES {
                rows.push(run_cell(kernel, scenario, schedule, nodes));
            }
        }
    }
    rows
}

/// The uniform-scenario cell matching `r` (baseline for the
/// slowdown-vs-uniform column).
fn uniform_of<'a>(rows: &'a [HeteroRow], r: &HeteroRow) -> &'a HeteroRow {
    rows.iter()
        .find(|u| {
            u.kernel == r.kernel && u.schedule == r.schedule && u.scenario == Scenario::Uniform
        })
        .expect("uniform baseline present")
}

/// Assert the sweep's invariants (see module docs) for every kernel that
/// has rows. Panics with a description when one fails.
pub fn check_rows(rows: &[HeteroRow]) {
    let cell = |k: &str, sc: Scenario, s: Schedule| -> &HeteroRow {
        rows.iter()
            .find(|r| r.kernel == k && r.scenario == sc && r.schedule == s)
            .expect("sweep cell present")
    };
    let present = |k: &&str| rows.iter().any(|r| r.kernel == *k);
    for kernel in KERNELS.into_iter().filter(present) {
        // Every cell computes the same answer.
        let native = native_reference(kernel);
        let tol = 1e-9 * native.abs().max(1.0);
        for r in rows.iter().filter(|r| r.kernel == kernel) {
            assert!(
                (r.result - native).abs() <= tol,
                "{kernel} {}/{}: result {} diverged from native {native}",
                r.scenario.name(),
                r.schedule,
                r.result
            );
        }
        // One-2×-slow-node: the adaptive schedules beat static on wall
        // time and pay strictly fewer messages than dynamic.
        let st = cell(kernel, Scenario::SlowNode, Schedule::Static);
        let dy = cell(kernel, Scenario::SlowNode, Schedule::Dynamic(MIN_CHUNK));
        for s in [Schedule::Adaptive(MIN_CHUNK), Schedule::Affinity] {
            let r = cell(kernel, Scenario::SlowNode, s);
            assert!(
                r.vt_ns < st.vt_ns,
                "{kernel} slow-2x: {s} ({} ns) must beat static ({} ns)",
                r.vt_ns,
                st.vt_ns
            );
            assert!(
                r.msgs < dy.msgs,
                "{kernel} slow-2x: {s} ({} msgs) must use fewer messages than dynamic ({})",
                r.msgs,
                dy.msgs
            );
        }
    }
}

/// Print the sweep and assert its invariants.
pub fn hetero_table(nodes: usize) -> Vec<HeteroRow> {
    let rows = hetero_rows(nodes);
    check_rows(&rows);
    for kernel in KERNELS {
        let table: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| {
                let base = uniform_of(&rows, r);
                vec![
                    r.scenario.name().to_string(),
                    r.schedule.to_string(),
                    secs(r.vt_ns),
                    format!("{:.2}", r.vt_ns as f64 / base.vt_ns as f64),
                    r.msgs.to_string(),
                    format!("{:.0}", r.host_ms),
                ]
            })
            .collect();
        print_table(
            &format!("Heterogeneous NOW — {kernel} on {nodes} workstations"),
            &[
                "scenario",
                "schedule",
                "time (s)",
                "vs uniform",
                "msgs",
                "host (ms)",
            ],
            &table,
        );
    }
    rows
}

/// Serialize rows as the machine-readable `BENCH_hetero.json` document.
pub fn rows_to_json(nodes: usize, rows: &[HeteroRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n  \"nodes\": {nodes},\n  \"min_chunk\": {MIN_CHUNK},\n  \"rows\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        let base = uniform_of(rows, r);
        let slowdown = r.vt_ns as f64 / base.vt_ns as f64;
        s.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"scenario\": \"{}\", \"schedule\": \"{}\", \
             \"vt_ns\": {}, \"msgs\": {}, \"slowdown_vs_uniform\": {:.4}, \
             \"result\": {:.12}, \"host_ms\": {:.3}}}{}\n",
            r.kernel,
            r.scenario.name(),
            r.schedule,
            r.vt_ns,
            r.msgs,
            slowdown,
            r.result,
            r.host_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full table is CI's job (`examples/hetero_schedules.rs`); the
    /// test pins the core acceptance invariants on the cheapest kernel.
    #[test]
    fn pi_slow_node_invariants() {
        let nodes = 4;
        let mut rows = Vec::new();
        for scenario in [Scenario::Uniform, Scenario::SlowNode] {
            for schedule in SCHEDULES {
                rows.push(run_cell("pi", scenario, schedule, nodes));
            }
        }
        check_rows(&rows);
        // The slow node really slows static down vs its uniform baseline.
        let slow_static =
            |r: &&HeteroRow| (r.scenario, r.schedule) == (Scenario::SlowNode, Schedule::Static);
        let st = rows.iter().find(slow_static).unwrap();
        let st_uni = uniform_of(&rows, st);
        assert!(
            st.vt_ns as f64 > 1.25 * st_uni.vt_ns as f64,
            "2x-slow node must hurt static ({} vs uniform {})",
            st.vt_ns,
            st_uni.vt_ns
        );
    }

    #[test]
    fn json_document_shape() {
        let rows = vec![
            HeteroRow {
                kernel: "pi",
                scenario: Scenario::Uniform,
                schedule: Schedule::Static,
                vt_ns: 100,
                msgs: 5,
                result: 1.5,
                host_ms: 12.5,
            },
            HeteroRow {
                kernel: "pi",
                scenario: Scenario::SlowNode,
                schedule: Schedule::Static,
                vt_ns: 200,
                msgs: 5,
                result: 1.5,
                host_ms: 20.0,
            },
        ];
        let j = rows_to_json(4, &rows);
        assert!(j.contains("\"nodes\": 4"));
        assert!(j.contains("\"scenario\": \"slow-2x\""));
        assert!(j.contains("\"slowdown_vs_uniform\": 2.0000"));
        assert!(j.contains("\"host_ms\": 12.500"));
        // Trailing comma discipline: exactly one separator for two rows.
        assert_eq!(j.matches("},\n").count(), 1);
    }
}
