//! Bench regression gate (see [`now_bench::regression`]): compare a
//! fresh `BENCH_hetero.json`-shaped document against the committed
//! baseline and exit non-zero when a deterministic measurement
//! (`vt_ns`, `msgs`) grew past the threshold. Host time is
//! machine-dependent and ignored.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--threshold <pct>]
//! ```

fn bail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 10.0f64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| bail("--threshold requires a value"));
                threshold = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        bail(&format!("--threshold expects a percentage, got `{v}`"))
                    });
            }
            f if f.starts_with("--") => bail(&format!(
                "unknown flag `{f}` (usage: bench_gate <baseline.json> <current.json> \
                 [--threshold <pct>])"
            )),
            f => paths.push(f),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        bail("usage: bench_gate <baseline.json> <current.json> [--threshold <pct>]");
    };
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| bail(&format!("cannot read {p}: {e}")))
    };
    match now_bench::regression::gate(&read(baseline), &read(current), threshold) {
        Ok(report) => println!("{report}"),
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}
