//! QSORT: quicksort over a task queue (the paper's running example).
//!
//! Sorts an integer array by recursively partitioning; subarrays below
//! the bubble threshold are bubble-sorted. Tasks (subarray bounds) live in
//! a shared task queue; the shared-memory versions implement exactly the
//! paper's Figure 4: `EnQueue`/`DeQueue` built from a critical section and
//! one condition variable, with the `nwait` counter detecting
//! termination. The MPI version uses PSRS (parallel sorting by regular
//! sampling) — the standard message-passing formulation of quicksort
//! (documented substitution, see DESIGN.md).

mod mpi;
mod omp;
mod seq;
mod task;
mod tmk_v;

pub use mpi::run_mpi;
pub use omp::run_omp;
pub use seq::run_seq;
pub use task::{run_task, run_task_stats};
pub use tmk_v::run_tmk;

use crate::common::{digest_f64, Xorshift};

/// Problem definition.
#[derive(Debug, Clone, Copy)]
pub struct QsortConfig {
    /// Number of integers.
    pub n: usize,
    /// Subarrays at or below this size are bubble-sorted.
    pub bubble_threshold: usize,
    /// Workload seed.
    pub seed: u64,
}

impl QsortConfig {
    /// Paper-scale workload (Table 1: 256 Ki integers, threshold 1024).
    pub fn paper() -> Self {
        QsortConfig {
            n: 256 * 1024,
            bubble_threshold: 1024,
            seed: 98765,
        }
    }

    /// Small instance for tests.
    pub fn test() -> Self {
        QsortConfig {
            n: 4096,
            bubble_threshold: 64,
            seed: 98765,
        }
    }
}

/// Deterministic unsorted input (identical across versions).
pub fn gen_input(cfg: &QsortConfig) -> Vec<i32> {
    let mut rng = Xorshift::new(cfg.seed);
    (0..cfg.n)
        .map(|_| (rng.next_u64() & 0x7fff_ffff) as i32)
        .collect()
}

/// Bubble sort with early exit (the paper's leaf sort).
pub fn bubble_sort(v: &mut [i32]) {
    let n = v.len();
    for pass in 0..n.saturating_sub(1) {
        let mut swapped = false;
        for i in 0..n - 1 - pass {
            if v[i] > v[i + 1] {
                v.swap(i, i + 1);
                swapped = true;
            }
        }
        if !swapped {
            break;
        }
    }
}

/// Hoare-style partition around a median-of-three pivot; returns the
/// split point `s` such that `v[..s] <= pivot <= v[s..]`, `0 < s < len`.
pub fn partition(v: &mut [i32]) -> usize {
    let n = v.len();
    debug_assert!(n >= 2);
    let mid = n / 2;
    // Median of three to dodge adversarial splits.
    if v[0] > v[mid] {
        v.swap(0, mid);
    }
    if v[0] > v[n - 1] {
        v.swap(0, n - 1);
    }
    if v[mid] > v[n - 1] {
        v.swap(mid, n - 1);
    }
    let pivot = v[mid];
    // Classic do-while Hoare scheme. The median-of-three pass above
    // guarantees v[0] <= pivot <= v[n-1], so neither scan can run out of
    // bounds. The clamp handles the all-elements-<=-pivot corner, where
    // the crossing lands at n (the pivot is the maximum).
    let (mut i, mut j) = (-1isize, n as isize);
    loop {
        loop {
            i += 1;
            if v[i as usize] >= pivot {
                break;
            }
        }
        loop {
            j -= 1;
            if v[j as usize] <= pivot {
                break;
            }
        }
        if i >= j {
            return ((j + 1) as usize).clamp(1, n - 1);
        }
        v.swap(i as usize, j as usize);
    }
}

/// Sequential quicksort using the same partition/bubble kernels.
pub fn quicksort(v: &mut [i32], threshold: usize) {
    if v.len() <= threshold.max(1) {
        bubble_sort(v);
        return;
    }
    let s = partition(v);
    let (lo, hi) = v.split_at_mut(s);
    quicksort(lo, threshold);
    quicksort(hi, threshold);
}

/// Digest of a sorted array for cross-version comparison.
pub fn sorted_digest(v: &[i32]) -> f64 {
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "array is not sorted");
    let samples: Vec<f64> = v
        .iter()
        .step_by((v.len() / 997).max(1))
        .chain([&v[0], &v[v.len() - 1]])
        .map(|&x| x as f64)
        .collect();
    digest_f64(&samples) + v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_sorts() {
        let mut v = vec![5, 3, 8, 1, 9, 2, 2];
        bubble_sort(&mut v);
        assert_eq!(v, vec![1, 2, 2, 3, 5, 8, 9]);
        let mut empty: Vec<i32> = vec![];
        bubble_sort(&mut empty);
        let mut one = vec![7];
        bubble_sort(&mut one);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn partition_splits_correctly() {
        let mut rng = Xorshift::new(9);
        for _ in 0..200 {
            let n = 2 + (rng.next_u64() % 64) as usize;
            let mut v: Vec<i32> = (0..n).map(|_| (rng.next_u64() % 100) as i32).collect();
            let s = partition(&mut v);
            assert!(s > 0 && s < v.len(), "split {s} of {}", v.len());
            let max_lo = v[..s].iter().max().unwrap();
            let min_hi = v[s..].iter().min().unwrap();
            assert!(max_lo <= min_hi, "partition invariant: {v:?} at {s}");
        }
    }

    #[test]
    fn quicksort_matches_std_sort() {
        let cfg = QsortConfig {
            n: 10_000,
            bubble_threshold: 32,
            seed: 4,
        };
        let mut a = gen_input(&cfg);
        let mut b = a.clone();
        quicksort(&mut a, cfg.bubble_threshold);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn quicksort_handles_duplicates_and_sorted_input() {
        let mut dup = vec![3; 500];
        quicksort(&mut dup, 16);
        assert!(dup.iter().all(|&x| x == 3));
        let mut sorted: Vec<i32> = (0..1000).collect();
        quicksort(&mut sorted, 16);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut rev: Vec<i32> = (0..1000).rev().collect();
        quicksort(&mut rev, 16);
        assert!(rev.windows(2).all(|w| w[0] <= w[1]));
    }

    proptest::proptest! {
        #[test]
        fn quicksort_sorts_anything(mut v in proptest::collection::vec(-1000i32..1000, 0..400)) {
            let mut expect = v.clone();
            expect.sort_unstable();
            quicksort(&mut v, 8);
            proptest::prop_assert_eq!(v, expect);
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn digest_rejects_unsorted() {
        let _ = sorted_digest(&[3, 1, 2]);
    }
}
