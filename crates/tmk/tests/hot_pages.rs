//! The profile's hot-page table counts read faults: a fault marks each
//! page it faulted once in the trace, however many passes it took.

use tmk::{run_system, Profile, TmkConfig, TraceConfig};

#[test]
fn a_full_copy_then_a_diff_marks_its_page_once() {
    // The GC at the interior barrier drops the master's notice for node
    // 1's first write, and node 1 writes the page again after it: the
    // master's read copies the page from its owner, then asks node 1 for
    // the second write's diff. One read fault, one mark.
    let mut cfg = TmkConfig::fast_test(2);
    cfg.gc_every_barrier = true;
    cfg.trace = Some(TraceConfig::default());
    let out = run_system(cfg, |tmk| {
        let v = tmk.malloc_vec::<u64>(512);
        tmk.parallel(0, move |t| {
            if t.proc_id() == 1 {
                t.write(&v, 3, 7);
            }
            t.barrier();
            if t.proc_id() == 1 {
                t.write(&v, 4, 8);
            }
        });
        tmk.read_slice(&v, 3..5)
    });
    assert_eq!(out.result, [7, 8]);
    let diff_reqs = out.net.kind("diff_req").map_or(0, |k| k.send_msgs);
    let dsm = &out.dsm;
    assert_eq!((dsm.read_faults, dsm.page_fetches, diff_reqs), (1, 1, 1));
    let profile = Profile::from_trace(out.trace.as_ref().expect("tracing is armed"));
    let marks: u64 = profile.hot_pages.iter().map(|(_, n)| n).sum();
    assert_eq!(marks, dsm.read_faults, "{:?}", profile.hot_pages);
}
