//! The benchmark's programs: `.omp` templates filled from the seed,
//! sequential Rust reference evaluators (never the system under test),
//! and hand-written `nomp` closure twins of the same computations.

use nomp::{Env, LoopPlan, RedOp, Schedule, TaskArgs, TaskScopeConfig};

const PI_OMP: &str = include_str!("../programs/pi.omp");
const JACOBI_OMP: &str = include_str!("../programs/jacobi.omp");
const SGD_OMP: &str = include_str!("../programs/sgd.omp");
const FIB_OMP: &str = include_str!("../programs/fib.omp");

/// Variants per workload: the working set a compile cache would see.
pub const VARIANTS: usize = 8;

const JACOBI_CELLS: usize = 258;
const JACOBI_SWEEPS: usize = 40;
const SGD_D: usize = 64;
const SGD_B: usize = 64;
const SGD_STEPS: usize = 4;
const FIB_N: u64 = 12;

/// One concrete program: a template plus the constants of one variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Program {
    /// `pi.omp`: `n` integration steps of `c / (1 + x²)`, midpoint
    /// offset `off`.
    Pi { n: u32, c: f64, off: f64 },
    /// `jacobi.omp` with the given boundary values.
    Jacobi { left: f64, right: f64 },
    /// `sgd.omp` with the given data seed and learning rate.
    Sgd { seed: u32, lr: f64 },
    /// `fib.omp`: leaves add `w * k + b`.
    Fib { w: u32, b: u32 },
}

/// A program with its reference value, computed once: checking a reply
/// must not cost the host another sequential run of the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    pub program: Program,
    /// `program.reference()`.
    pub want: f64,
}

impl Variant {
    pub fn new(program: Program) -> Self {
        let want = program.reference();
        Variant { program, want }
    }

    /// Whether `got` is the correct result: 1e-9 relative for the
    /// floating-point reductions (their combine order is not fixed),
    /// exact for `fib`.
    pub fn accepts(&self, got: f64) -> bool {
        match self.program {
            Program::Fib { .. } => got == self.want,
            _ => (got - self.want).abs() <= 1e-9 * self.want.abs(),
        }
    }
}

impl std::ops::Deref for Variant {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.program
    }
}

/// SplitMix64: the generator every input is derived from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Which template a workload's variants are drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Template {
    Pi { n: u32 },
    Jacobi,
    Sgd,
    Fib,
}

/// The `VARIANTS` programs of one template for `seed`. Variant `k`
/// takes slot `8k + jitter` of 64, so the eight always differ.
pub fn variants(template: Template, seed: u64) -> Vec<Variant> {
    let mut rng = Rng::new(seed);
    let base = rng.next() % 64;
    (0..VARIANTS as u64)
        .map(|k| {
            let r = rng.next();
            let slot = (base + 8 * k + r % 8) % 64;
            let frac = slot as f64 / 64.0;
            Variant::new(match template {
                Template::Pi { n } => Program::Pi {
                    n,
                    c: 4.0 + frac,
                    off: 0.25 + ((r >> 8) % 32) as f64 / 64.0,
                },
                Template::Jacobi => Program::Jacobi {
                    left: 1.0 + frac,
                    right: ((r >> 8) % 8) as f64 / 8.0,
                },
                Template::Sgd => Program::Sgd {
                    seed: (slot * 16 + (r >> 8) % 16) as u32,
                    lr: (1 + (r >> 16) % 4) as f64 / 16.0,
                },
                Template::Fib => Program::Fib {
                    w: 1 + slot as u32,
                    b: ((r >> 8) % 5) as u32,
                },
            })
        })
        .collect()
}

fn sgd_x(i: usize, j: usize, seed: u32) -> f64 {
    ((i * 37 + j * 11 + seed as usize) % 101) as f64 / 101.0 - 0.5
}

fn sgd_y(i: usize, seed: u32) -> f64 {
    ((i * 29 + seed as usize) % 17) as f64 / 17.0 - 0.5
}

fn sgd_w0(j: usize, seed: u32) -> f64 {
    ((j * 7 + seed as usize) % 13) as f64 / 13.0 - 0.5
}

fn sgd_err(w: &[f64], i: usize, seed: u32) -> f64 {
    let mut pred = 0.0;
    for (j, wj) in w.iter().enumerate() {
        pred += wj * sgd_x(i, j, seed);
    }
    pred - sgd_y(i, seed)
}

impl Program {
    /// The `.omp` source of this variant.
    pub fn source(&self) -> String {
        match *self {
            Program::Pi { n, c, off } => PI_OMP
                .replace("{{N}}", &n.to_string())
                .replace("{{C}}", &format!("{c:?}"))
                .replace("{{OFF}}", &format!("{off:?}")),
            Program::Jacobi { left, right } => JACOBI_OMP
                .replace("{{LEFT}}", &format!("{left:?}"))
                .replace("{{RIGHT}}", &format!("{right:?}")),
            Program::Sgd { seed, lr } => SGD_OMP
                .replace("{{SEED}}", &seed.to_string())
                .replace("{{LR}}", &format!("{lr:?}")),
            Program::Fib { w, b } => FIB_OMP
                .replace("{{W}}", &w.to_string())
                .replace("{{B}}", &b.to_string()),
        }
    }

    /// The global scalar that carries the checked result.
    pub fn scalar(&self) -> &'static str {
        match self {
            Program::Pi { .. } => "pi",
            Program::Jacobi { .. } => "resid",
            Program::Sgd { .. } => "loss",
            Program::Fib { .. } => "count",
        }
    }

    /// The expected result, by plain sequential Rust.
    pub fn reference(&self) -> f64 {
        match *self {
            Program::Pi { n, c, off } => {
                let step = 1.0 / n as f64;
                let mut sum = 0.0;
                for i in 0..n {
                    let x = (i as f64 + off) * step;
                    sum += c / (1.0 + x * x);
                }
                sum * step
            }
            Program::Jacobi { left, right } => {
                let mut u = vec![0.0; JACOBI_CELLS];
                let mut unew = vec![0.0; JACOBI_CELLS];
                (u[0], unew[0]) = (left, left);
                (u[JACOBI_CELLS - 1], unew[JACOBI_CELLS - 1]) = (right, right);
                for _ in 0..JACOBI_SWEEPS {
                    for i in 1..JACOBI_CELLS - 1 {
                        unew[i] = 0.5 * (u[i - 1] + u[i + 1]);
                    }
                    u[1..JACOBI_CELLS - 1].copy_from_slice(&unew[1..JACOBI_CELLS - 1]);
                }
                (1..JACOBI_CELLS - 1)
                    .map(|i| (0.5 * (u[i - 1] + u[i + 1]) - u[i]).abs())
                    .fold(0.0, f64::max)
            }
            Program::Sgd { seed, lr } => {
                let mut w: Vec<f64> = (0..SGD_D).map(|j| sgd_w0(j, seed)).collect();
                let mut g = vec![0.0; SGD_B * SGD_D];
                for _ in 0..SGD_STEPS {
                    for i in 0..SGD_B {
                        let err = sgd_err(&w, i, seed);
                        for j in 0..SGD_D {
                            g[i * SGD_D + j] = err * sgd_x(i, j, seed);
                        }
                    }
                    for (j, wj) in w.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for i in 0..SGD_B {
                            acc += g[i * SGD_D + j];
                        }
                        *wj -= lr * acc / SGD_B as f64;
                    }
                }
                (0..SGD_B).map(|i| sgd_err(&w, i, seed).powi(2)).sum()
            }
            Program::Fib { w, b } => {
                fn leaves(k: u64, w: u64, b: u64) -> u64 {
                    if k < 2 {
                        w * k + b
                    } else {
                        leaves(k - 1, w, b) + leaves(k - 2, w, b)
                    }
                }
                leaves(FIB_N, w as u64, b as u64) as f64
            }
        }
    }

    /// The hand-written closure twin: the same computation against the
    /// `nomp` API directly, with the bulk shared-memory views a Rust
    /// author would use. `run − twin` is what the interpreter costs.
    pub fn twin(&self) -> Box<dyn FnOnce(&mut Env<'_>) -> f64 + Send> {
        match *self {
            Program::Pi { n, c, off } => Box::new(move |omp| {
                let step = 1.0 / n as f64;
                let sum = omp.parallel_reduce(
                    Schedule::Static,
                    0..n as usize,
                    RedOp::Sum,
                    move |_t, i, acc: &mut f64| {
                        let x = (i as f64 + off) * step;
                        *acc += c / (1.0 + x * x);
                    },
                );
                sum * step
            }),
            Program::Jacobi { left, right } => Box::new(move |omp| {
                let last = JACOBI_CELLS - 1;
                let u = omp.malloc_vec::<f64>(JACOBI_CELLS);
                let unew = omp.malloc_vec::<f64>(JACOBI_CELLS);
                for v in [&u, &unew] {
                    omp.write(v, 0, left);
                    omp.write(v, last, right);
                }
                let plan = LoopPlan::new(Schedule::Static, 1..last, None);
                omp.parallel(move |th| {
                    for _ in 0..JACOBI_SWEEPS {
                        plan.run(th, &mut |th, r| {
                            let src = th.read_slice(&u, r.start - 1..r.end + 1);
                            th.view_mut(&unew, r, |out| {
                                for (k, x) in out.iter_mut().enumerate() {
                                    *x = 0.5 * (src[k] + src[k + 2]);
                                }
                            });
                        });
                        th.barrier();
                        plan.run(th, &mut |th, r| {
                            let src = th.read_slice(&unew, r.clone());
                            th.write_slice(&u, r.start, &src);
                        });
                        th.barrier();
                    }
                });
                omp.parallel_reduce(Schedule::Guided(16), 1..last, RedOp::Max, move |t, i, acc: &mut f64| {
                    let r = (0.5 * (t.read(&u, i - 1) + t.read(&u, i + 1)) - t.read(&u, i)).abs();
                    *acc = acc.max(r);
                })
                .max(0.0)
            }),
            Program::Sgd { seed, lr } => Box::new(move |omp| {
                let w = omp.malloc_vec::<f64>(SGD_D);
                let g = omp.malloc_vec::<f64>(SGD_B * SGD_D);
                let w0: Vec<f64> = (0..SGD_D).map(|j| sgd_w0(j, seed)).collect();
                omp.write_slice(&w, 0, &w0);
                let batch = LoopPlan::new(Schedule::StaticChunk(1), 0..SGD_B, None);
                let merge = LoopPlan::new(Schedule::Static, 0..SGD_D, None);
                omp.parallel(move |th| {
                    for _ in 0..SGD_STEPS {
                        batch.run(th, &mut |th, r| {
                            let wv = th.read_slice(&w, 0..SGD_D);
                            for i in r {
                                let err = sgd_err(&wv, i, seed);
                                let row: Vec<f64> = (0..SGD_D).map(|j| err * sgd_x(i, j, seed)).collect();
                                th.write_slice(&g, i * SGD_D, &row);
                            }
                        });
                        th.barrier();
                        merge.run(th, &mut |th, r| {
                            let rows = th.read_slice(&g, 0..SGD_B * SGD_D);
                            th.view_mut(&w, r.clone(), |out| {
                                for (wj, j) in out.iter_mut().zip(r.clone()) {
                                    let mut acc = 0.0;
                                    for i in 0..SGD_B {
                                        acc += rows[i * SGD_D + j];
                                    }
                                    *wj -= lr * acc / SGD_B as f64;
                                }
                            });
                        });
                        th.barrier();
                    }
                });
                omp.parallel_reduce(Schedule::Static, 0..SGD_B, RedOp::Sum, move |t, i, acc: &mut f64| {
                    let wv = t.read_slice(&w, 0..SGD_D);
                    *acc += sgd_err(&wv, i, seed).powi(2);
                })
            }),
            Program::Fib { w, b } => Box::new(move |omp| {
                let count = omp.malloc_scalar::<f64>(0.0);
                omp.task_scope(
                    TaskScopeConfig::default(),
                    |s| s.single(|s| s.task(TaskArgs::ab(FIB_N, 0))),
                    move |s, t| {
                        if t.a < 2 {
                            // The lock the translator gives an unnamed
                            // `critical`, so both versions share a manager.
                            s.critical_named("<ompc>", |th| {
                                let v = count.get(th);
                                count.set(th, v + (w as u64 * t.a + b as u64) as f64);
                            });
                        } else {
                            s.task(TaskArgs::ab(t.a - 1, 0));
                            s.task(TaskArgs::ab(t.a - 2, 0));
                        }
                    },
                );
                count.get(omp)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_deterministic_and_distinct() {
        for t in [Template::Pi { n: 200 }, Template::Jacobi, Template::Sgd, Template::Fib] {
            let a = variants(t, 7);
            assert_eq!(a, variants(t, 7), "same seed, same inputs");
            assert_ne!(a, variants(t, 8), "another seed, other inputs");
            assert_eq!(a.len(), VARIANTS);
            for (i, p) in a.iter().enumerate() {
                assert!(!a[..i].contains(p), "variant {i} repeats: {p:?}");
                assert!(!p.source().contains("{{"), "unfilled placeholder");
            }
        }
    }

    #[test]
    fn references_match_known_values() {
        // The classic integrand: 4 / (1 + x²) at midpoints converges to π.
        let pi = Program::Pi {
            n: 100_000,
            c: 4.0,
            off: 0.5,
        };
        assert!((pi.reference() - std::f64::consts::PI).abs() < 1e-9);
        // fib(12) = 144 leaves with k = 1, fib(11) = 89 with k = 0.
        assert_eq!(Program::Fib { w: 1, b: 0 }.reference(), 144.0);
        assert_eq!(Program::Fib { w: 3, b: 2 }.reference(), 144.0 * 5.0 + 89.0 * 2.0);
        // Equal boundaries relax towards a flat line from a zero interior:
        // after 40 sweeps heat has reached 40 cells in, so the residual is
        // positive and below the boundary value.
        let r = Program::Jacobi { left: 1.0, right: 1.0 }.reference();
        assert!(r > 0.0 && r < 0.5, "{r}");
        // A zero learning rate leaves the initial loss untouched; a
        // positive one lowers it.
        let frozen = Program::Sgd { seed: 5, lr: 0.0 }.reference();
        let trained = Program::Sgd { seed: 5, lr: 0.125 }.reference();
        assert!(trained < frozen && trained > 0.0, "{trained} vs {frozen}");
    }

    #[test]
    fn accepts_uses_the_stated_tolerances() {
        let pi = Variant::new(Program::Pi {
            n: 200,
            c: 4.0,
            off: 0.5,
        });
        assert!(pi.accepts(pi.want * (1.0 + 1e-12)));
        assert!(!pi.accepts(pi.want * (1.0 + 1e-6)));
        let fib = Variant::new(Program::Fib { w: 1, b: 0 });
        assert!(fib.accepts(144.0));
        assert!(!fib.accepts(144.0 + 1e-9));
    }
}
