//! Host-side measurements of this process: CPU time, peak memory, and a
//! calibration loop that lets baselines survive a change of machine.

use std::time::Instant;

/// Linux reports process CPU time in clock ticks of 1/100 s.
const TICK_MS: f64 = 10.0;

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// CPU time (user + system, all threads) this process has used, in ms.
/// 0 where `/proc` is unavailable.
pub fn cpu_ms() -> f64 {
    let stat = proc_file("stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 12 and 13 after the ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) * TICK_MS
}

/// Peak resident set size (`VmHWM`) in MiB. 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS watermark, so the next reading belongs to the
/// next workload. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Iterations of the calibration loop.
const CALIB_ITERS: u64 = 100_000;

/// Median time of a fixed dependent integer loop, in ns. Host-time
/// micro results are also printed as multiples of this.
pub fn calib_ns() -> f64 {
    let mut runs: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..CALIB_ITERS {
                x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}
