//! Platform microbenchmarks — §7's "basic performance characteristics".
//!
//! The paper characterizes its platform with the round-trip time of a
//! small UDP message, the cost of lock acquisition, an 8-processor
//! barrier, diff fetch time, and MPICH's empty-message RTT and maximum
//! bandwidth. These runs measure the same quantities *through the whole
//! simulated stack* (protocol messages + cost model), to be compared
//! against the calibration targets from the TreadMarks literature.

use crate::fmt::print_table;
use now_net::{NetworkConfig, Wire};
use nowmpi::MpiConfig;
use tmk::TmkConfig;

struct Ping;
impl Wire for Ping {
    fn wire_bytes(&self) -> usize {
        1
    }
}

/// Measured small-message round trip through the raw interconnect (ns).
pub fn raw_rtt_ns() -> u64 {
    let eps = now_net::Network::build::<Ping>(NetworkConfig::paper_udp(2));
    let (a, b) = (&eps[0], &eps[1]);
    a.send(1, Ping);
    let d = b.recv();
    b.charge_rx(&d);
    b.send(0, Ping);
    let d2 = a.recv();
    a.charge_rx(&d2)
}

/// Virtual cost of acquiring a lock whose token sits on another node.
pub fn remote_lock_acquire_ns(nodes: usize) -> u64 {
    let out = tmk::run_system(TmkConfig::paper(nodes), |tmk| {
        // Lock 1 is managed by node 1 (its token starts there), so the
        // master's acquire is the 3-hop case the paper quotes.
        let t0 = tmk.now_ns();
        tmk.lock_acquire(1);
        let t1 = tmk.now_ns();
        tmk.lock_release(1);
        t1 - t0
    });
    out.result
}

/// Virtual cost of an n-node barrier (all nodes arriving together).
pub fn barrier_ns(nodes: usize) -> u64 {
    let out = tmk::run_system(TmkConfig::paper(nodes), |tmk| {
        let delta = tmk.malloc_scalar::<u64>(0);
        tmk.parallel(0, move |t| {
            t.barrier(); // align clocks
            let t0 = t.now_ns();
            t.barrier(); // the measured one
            let t1 = t.now_ns();
            if t.proc_id() == 0 {
                delta.set(t, t1 - t0);
            }
        });
        delta.get(tmk)
    });
    out.result
}

/// Virtual cost of a page fault that fetches one diff from its writer.
pub fn diff_fetch_ns(dirty_bytes: usize) -> u64 {
    let out = tmk::run_system(TmkConfig::paper(2), move |tmk| {
        let v = tmk.malloc_vec::<u8>(4096);
        let probe = tmk.malloc_scalar::<u64>(0);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                let patch = vec![0xABu8; dirty_bytes];
                t.write_slice(&v, 0, &patch);
            }
        });
        // Join barrier delivered the write notice; this read faults.
        let t0 = tmk.now_ns();
        let _ = tmk.read(&v, 0);
        let t1 = tmk.now_ns();
        probe.set(tmk, t1 - t0);
        probe.get(tmk)
    });
    out.result
}

/// MPI empty-message round trip and large-transfer bandwidth (MB/s).
///
/// Host compute is not metered (`compute_scale = 0`), as in
/// [`raw_rtt_ns`]: the round trip has no application work, only the
/// meter's own clock reads between calls, and at the paper's ×240 scale
/// those few host µs would double the figure and make it host noise.
pub fn mpi_characteristics() -> (u64, f64) {
    let mut cfg = MpiConfig::paper(2);
    cfg.net.compute_scale = 0.0;
    let out = nowmpi::run_mpi(cfg, |mpi| {
        if mpi.rank() == 0 {
            let t0 = mpi.now_ns();
            mpi.send(1, 1, &[0u8; 1]);
            let _: Vec<u8> = mpi.recv(1, 2);
            let rtt = mpi.now_ns() - t0;
            // Bandwidth: 4 MB one-way, acked.
            let big = vec![0u8; 4 << 20];
            let t0 = mpi.now_ns();
            mpi.send(1, 3, &big);
            let _: Vec<u8> = mpi.recv(1, 4);
            let dt = mpi.now_ns() - t0;
            let bw = (4u64 << 20) as f64 / (dt as f64 / 1e9) / 1e6;
            (rtt, bw)
        } else {
            let _: Vec<u8> = mpi.recv(0, 1);
            mpi.send(0, 2, &[0u8; 1]);
            let _: Vec<u8> = mpi.recv(0, 3);
            mpi.send(0, 4, &[0u8; 1]);
            (0, 0.0)
        }
    });
    out.results[0]
}

/// Print the §7 characterization table.
pub fn characteristics(nodes: usize) {
    let us = |ns: u64| format!("{:.0} µs", ns as f64 / 1000.0);
    let rtt = raw_rtt_ns();
    let lock = remote_lock_acquire_ns(nodes.max(2));
    let bar = barrier_ns(nodes);
    let diff_small = diff_fetch_ns(64);
    let diff_big = diff_fetch_ns(4096);
    let (mpi_rtt, mpi_bw) = mpi_characteristics();
    let rows = vec![
        vec!["UDP 1-byte round trip".into(), us(rtt), "~300 µs".into()],
        vec![
            "lock acquisition (remote token)".into(),
            us(lock),
            "300–1300 µs".into(),
        ],
        vec![
            format!("{nodes}-processor barrier"),
            us(bar),
            "~1000 µs".into(),
        ],
        vec![
            "diff fetch (small diff)".into(),
            us(diff_small),
            "300–800 µs".into(),
        ],
        vec![
            "diff fetch (full page)".into(),
            us(diff_big),
            "300–800 µs".into(),
        ],
        vec![
            "MPI empty-message round trip".into(),
            us(mpi_rtt),
            "~400 µs".into(),
        ],
        vec![
            "MPI max bandwidth".into(),
            format!("{mpi_bw:.1} MB/s"),
            "~8.8 MB/s".into(),
        ],
    ];
    print_table(
        "§7 platform characteristics (measured through the simulated stack)",
        &["Characteristic", "Measured", "Calibration target"],
        &rows,
    );
}
