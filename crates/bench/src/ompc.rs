//! Translation overhead: the same pi-integration kernel as a translated
//! `.omp` program (lexed, lowered and compiled to closures by `ompc`)
//! versus the hand-written `nomp` closure version, on the paper cost model.
//!
//! Both versions perform the same parallel structure (one fork, a static
//! work-shared loop, one locked reduction combine, the join barrier), so
//! the message counts should be near-identical; the virtual-time gap is
//! the translated code's compute overhead, charged to the virtual clock by
//! the CPU meter exactly like application compute.

use crate::fmt::{f2, print_table, secs};
use nomp::{Cluster, Env, RedOp, Schedule};

/// The translated kernel (kept in sync with `examples/omp/pi.omp`, with
/// the self-timing dropped so both versions do identical work).
const PI_OMP: &str = r#"
double pi;
int main() {
    int n = 20000;
    double step = 1.0 / n;
    #pragma omp parallel for reduction(+:pi) schedule(static)
    for (int i = 0; i < n; i = i + 1) {
        double x = (i + 0.5) * step;
        pi = pi + 4.0 / (1.0 + x * x);
    }
    pi = pi * step;
    return 0;
}
"#;

const N: usize = 20_000;

/// One measured pair at a node count.
pub struct OverheadRow {
    /// Workstations.
    pub nodes: usize,
    /// Virtual ns, translated program.
    pub omp_vt_ns: u64,
    /// Virtual ns, hand-written program.
    pub native_vt_ns: u64,
    /// Messages, translated.
    pub omp_msgs: u64,
    /// Messages, hand-written.
    pub native_msgs: u64,
}

impl OverheadRow {
    /// Virtual-time ratio translated / hand-written.
    pub fn overhead(&self) -> f64 {
        self.omp_vt_ns as f64 / self.native_vt_ns as f64
    }
}

/// Run the translated kernel as a job on the warm cluster.
pub fn translated_once(cluster: &mut Cluster) -> (f64, u64, u64) {
    let prog = ompc::compile(PI_OMP).expect("pi.omp must compile");
    let out = cluster.run(&prog).expect("cluster job");
    (out.result.scalars["pi"], out.vt_ns, out.msgs())
}

/// Run the hand-written kernel as a job on the same warm cluster.
pub fn native_once(cluster: &mut Cluster) -> (f64, u64, u64) {
    let out = cluster
        .run(|omp: &mut Env<'_>| {
            let step = 1.0 / N as f64;
            let sum = omp.parallel_reduce(
                Schedule::Static,
                0..N,
                RedOp::Sum,
                move |_t, i, acc: &mut f64| {
                    let x = (i as f64 + 0.5) * step;
                    *acc += 4.0 / (1.0 + x * x);
                },
            );
            sum * step
        })
        .expect("cluster job");
    (out.result, out.vt_ns, out.msgs())
}

/// Measure translated vs hand-written at each node count.
pub fn overhead_rows(node_counts: &[usize]) -> Vec<OverheadRow> {
    node_counts
        .iter()
        .map(|&nodes| {
            // Both versions run as jobs on one warm cluster per node
            // count (the translated/hand-written comparison shares the
            // simulated network).
            let mut cluster = Cluster::builder()
                .nodes(nodes)
                .build()
                .expect("valid cluster");
            let (pi_t, omp_vt, omp_msgs) = translated_once(&mut cluster);
            let (pi_n, native_vt, native_msgs) = native_once(&mut cluster);
            assert!(
                (pi_t - pi_n).abs() < 1e-9,
                "translated and native results diverged: {pi_t} vs {pi_n}"
            );
            OverheadRow {
                nodes,
                omp_vt_ns: omp_vt,
                native_vt_ns: native_vt,
                omp_msgs,
                native_msgs,
            }
        })
        .collect()
}

/// Print the ablation table.
pub fn ompc_overhead() {
    let rows = overhead_rows(&[1, 2, 4, 8]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                secs(r.omp_vt_ns),
                secs(r.native_vt_ns),
                f2(r.overhead()),
                r.omp_msgs.to_string(),
                r.native_msgs.to_string(),
            ]
        })
        .collect();
    print_table(
        "ompc translation overhead — pi kernel, translated vs hand-written",
        &[
            "nodes",
            "ompc (s)",
            "native (s)",
            "vt ratio",
            "ompc msgs",
            "native msgs",
        ],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translated_and_native_agree_and_report_time() {
        let rows = overhead_rows(&[2]);
        let r = &rows[0];
        assert!(r.omp_vt_ns > 0 && r.native_vt_ns > 0);
        // Same parallel structure: the translated version may add the
        // firstprivate frame payload but no asymptotic traffic.
        assert!(
            r.omp_msgs < r.native_msgs + 64,
            "translated traffic exploded: {} vs {}",
            r.omp_msgs,
            r.native_msgs
        );
    }
}
