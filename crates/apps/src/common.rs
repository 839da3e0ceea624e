//! Shared infrastructure for the five evaluation applications.

use now_net::{ComputeMeter, VirtualClock};

/// Which implementation of an application ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionKind {
    /// Single-workstation sequential baseline (speedup denominator).
    Seq,
    /// OpenMP directives compiled to the DSM (`nomp`).
    Omp,
    /// Hand-coded TreadMarks (`tmk` API directly).
    Tmk,
    /// Message passing (`nowmpi`).
    Mpi,
    /// OpenMP tasking runtime (`nomp` task scope with work stealing).
    Task,
}

impl VersionKind {
    /// Column label as in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            VersionKind::Seq => "Seq",
            VersionKind::Omp => "OpenMP",
            VersionKind::Tmk => "Tmk",
            VersionKind::Mpi => "MPI",
            VersionKind::Task => "Task",
        }
    }
}

/// Uniform result record for one application run — everything Table 1,
/// Table 2 and Figure 5 need.
#[derive(Debug, Clone)]
pub struct Report {
    /// Application name.
    pub app: &'static str,
    /// Implementation variant.
    pub version: VersionKind,
    /// Degree of parallelism: workstations (MPI ranks / Tmk processes),
    /// or total OpenMP threads — `nodes × threads_per_node` on SMP
    /// topologies. 1 for sequential.
    pub nodes: usize,
    /// Virtual run time in nanoseconds.
    pub vt_ns: u64,
    /// Remote messages sent (0 for sequential).
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Application-defined result digest, for cross-version verification.
    pub checksum: f64,
}

impl Report {
    /// Virtual run time in seconds.
    pub fn vt_seconds(&self) -> f64 {
        self.vt_ns as f64 / 1e9
    }

    /// Megabytes transmitted (10^6 bytes, as Table 2).
    pub fn mbytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    /// Speedup relative to a sequential baseline report.
    pub fn speedup_vs(&self, seq: &Report) -> f64 {
        seq.vt_ns as f64 / self.vt_ns as f64
    }
}

/// Run `f` as a sequential single-workstation program, metering its CPU
/// and scaling to the modeled machine. Returns the result and virtual ns.
pub fn time_sequential<R>(compute_scale: f64, f: impl FnOnce() -> R) -> (R, u64) {
    let clock = VirtualClock::new();
    let mut meter = ComputeMeter::new(compute_scale);
    meter.restart();
    let r = f();
    meter.charge(&clock);
    (r, clock.now())
}

/// Compare two f64 slices within a relative+absolute tolerance; returns
/// the first offending index.
pub fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let denom = x.abs().max(y.abs()).max(1e-12);
            (x - y).abs() / denom
        })
        .fold(0.0, f64::max)
}

/// A digest of an f64 array that is stable across run-to-run but captures
/// the whole content (order-sensitive weighted sum).
pub fn digest_f64(xs: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let mut w = 1.0f64;
    for &x in xs {
        acc += w * x;
        w = -w * 0.9999;
        if !w.is_finite() {
            w = 1.0;
        }
    }
    acc
}

/// Deterministic xorshift64* PRNG for workload generation (identical
/// streams in every version, independent of crate versions).
#[derive(Debug, Clone)]
pub struct Xorshift(pub u64);

impl Xorshift {
    /// Seeded generator (seed must be nonzero).
    pub fn new(seed: u64) -> Self {
        Xorshift(seed.max(1))
    }

    /// Next u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform i32 in [0, bound).
    pub fn next_below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_timer_scales() {
        let (_r, vt) = time_sequential(10.0, || {
            let mut x = 0u64;
            for i in 0..500_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x)
        });
        assert!(vt > 0);
    }

    #[test]
    fn rel_err_detects_divergence() {
        assert_eq!(max_rel_err(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_rel_err(&[1.0], &[1.1]) > 0.05);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_f64(&[1.0, 2.0, 3.0]);
        let b = digest_f64(&[3.0, 2.0, 1.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
        for _ in 0..100 {
            assert!(a.next_below(7) < 7);
        }
    }

    #[test]
    fn report_math() {
        let seq = Report {
            app: "x",
            version: VersionKind::Seq,
            nodes: 1,
            vt_ns: 8_000_000_000,
            msgs: 0,
            bytes: 0,
            checksum: 0.0,
        };
        let par = Report {
            app: "x",
            version: VersionKind::Mpi,
            nodes: 8,
            vt_ns: 1_000_000_000,
            msgs: 100,
            bytes: 2_500_000,
            checksum: 0.0,
        };
        assert_eq!(par.speedup_vs(&seq), 8.0);
        assert!((par.mbytes() - 2.5).abs() < 1e-12);
        assert_eq!(par.vt_seconds(), 1.0);
    }
}
