//! Ablations reproducing the paper's §3 argument quantitatively:
//! Figures 1–4 (flush vs semaphores for pipelines, flush vs condition
//! variables for task queues) plus a page-size sweep.

use crate::fmt::{f2, print_table, secs};
use now_apps::common::VersionKind;
use tmk::{SharedScalar, Tmk, TmkConfig};

/// Figure 1: producer/consumer pipeline with `flush` and busy-waiting.
fn flush_pipeline(nodes: usize, handoffs: usize) -> (u64, u64) {
    let out = tmk::run_system(TmkConfig::paper(nodes), move |tmk| {
        let data = tmk.malloc_scalar::<u64>(0);
        let available = tmk.malloc_scalar::<u32>(0);
        let done = tmk.malloc_scalar::<u32>(0);
        tmk.parallel(0, move |t| {
            match t.proc_id() {
                0 => {
                    // Producer (Figure 1).
                    for i in 1..=handoffs as u64 {
                        data.set(t, i);
                        available.set(t, 1);
                        t.flush();
                        while done.get(t) == 0 {
                            t.spin_hint();
                        }
                        done.set(t, 0);
                    }
                }
                1 => {
                    // Consumer (Figure 1).
                    for _ in 0..handoffs {
                        while available.get(t) == 0 {
                            t.spin_hint();
                        }
                        available.set(t, 0);
                        let _ = data.get(t);
                        done.set(t, 1);
                        t.flush();
                    }
                }
                _ => {
                    // Bystanders still receive every flush — that is the
                    // point of the measurement.
                }
            }
        });
        0u8
    });
    (out.vt_ns, out.net.total_msgs())
}

/// Figure 3: the same pipeline with the proposed semaphore directives.
fn sema_pipeline(nodes: usize, handoffs: usize) -> (u64, u64) {
    const AVAIL: u32 = 0;
    const DONE: u32 = 1;
    let out = tmk::run_system(TmkConfig::paper(nodes), move |tmk| {
        let data = tmk.malloc_scalar::<u64>(0);
        tmk.parallel(0, move |t| match t.proc_id() {
            0 => {
                for i in 1..=handoffs as u64 {
                    data.set(t, i);
                    t.sema_signal(AVAIL);
                    t.sema_wait(DONE);
                }
            }
            1 => {
                for _ in 0..handoffs {
                    t.sema_wait(AVAIL);
                    let _ = data.get(t);
                    t.sema_signal(DONE);
                }
            }
            _ => {}
        });
        0u8
    });
    (out.vt_ns, out.net.total_msgs())
}

/// Figures 1 vs 3: messages per handoff as the node count grows. The
/// flush version pays Θ(n) messages per handoff, the semaphore version a
/// small constant.
pub fn pipeline_ablation(handoffs: usize) {
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8] {
        let (fv, fm) = flush_pipeline(nodes, handoffs);
        let (sv, sm) = sema_pipeline(nodes, handoffs);
        rows.push(vec![
            nodes.to_string(),
            f2(fm as f64 / handoffs as f64),
            f2(sm as f64 / handoffs as f64),
            secs(fv),
            secs(sv),
            f2(fv as f64 / sv as f64),
        ]);
    }
    print_table(
        &format!("Figures 1 vs 3: pipeline with flush vs semaphores ({handoffs} handoffs)"),
        &[
            "Nodes",
            "flush msg/handoff",
            "sema msg/handoff",
            "flush s",
            "sema s",
            "flush/sema",
        ],
        &rows,
    );
}

const QLOCK: u32 = 21;
const CV: u32 = 0;

#[derive(Clone, Copy)]
struct Queue {
    stack: tmk::SharedVec<u32>,
    count: SharedScalar<u32>,
    nwait: SharedScalar<u32>,
    popped: SharedScalar<u32>,
}

impl Queue {
    fn create(t: &mut Tmk, cap: usize) -> Self {
        let q = Queue {
            stack: t.malloc_vec::<u32>(cap),
            count: t.malloc_scalar::<u32>(0),
            nwait: t.malloc_scalar::<u32>(0),
            popped: t.malloc_scalar::<u32>(0),
        };
        t.write(&q.stack, 0, 0); // seed: task id 0
        q.count.set(t, 1);
        q
    }
}

/// Children of task `k`: a chain (each task spawns one successor), so
/// the queue is nearly always empty and the other workers wait — the
/// regime where Figure 2's flush-on-enqueue broadcast hurts most.
fn children(k: u32, total: u32) -> impl Iterator<Item = u32> {
    [k + 1].into_iter().filter(move |&c| c < total)
}

/// Figure 2: task queue with critical sections, flush and busy-waiting.
/// Tasks form a chain: each processed task enqueues one child while the
/// other workers wait, so `EnQueue`'s flush broadcast fires per task.
fn flush_taskqueue(nodes: usize, tasks: u32) -> (u64, u64) {
    let out = tmk::run_system(TmkConfig::paper(nodes), move |tmk| {
        let q = Queue::create(tmk, tasks as usize + 2);
        tmk.parallel(0, move |t| {
            let nthreads = t.nprocs() as u32;
            loop {
                // Figure 2's DeQueue: first critical section.
                let mut task = None;
                t.lock_acquire(QLOCK);
                let c = q.count.get(t);
                if c > 0 {
                    q.count.set(t, c - 1);
                    task = Some(t.read(&q.stack, (c - 1) as usize));
                    t.lock_release(QLOCK);
                } else {
                    let w = q.nwait.get(t) + 1;
                    q.nwait.set(t, w);
                    t.lock_release(QLOCK);
                    if w == nthreads {
                        t.flush();
                        return;
                    }
                    // Busy-wait outside any critical section (Figure 2).
                    loop {
                        if q.nwait.get(t) >= nthreads {
                            return;
                        }
                        if q.count.get(t) > 0 {
                            t.lock_acquire(QLOCK);
                            let c = q.count.get(t);
                            if c > 0 {
                                q.count.set(t, c - 1);
                                task = Some(t.read(&q.stack, (c - 1) as usize));
                            }
                            let w = q.nwait.get(t);
                            q.nwait.set(t, w - 1);
                            t.lock_release(QLOCK);
                            break;
                        }
                        t.spin_hint();
                    }
                }
                if let Some(k) = task {
                    // Figure 2's EnQueue per child: critical + flush when
                    // anyone is waiting.
                    for ch in children(k, tasks) {
                        t.lock_acquire(QLOCK);
                        let c = q.count.get(t);
                        t.write(&q.stack, c as usize, ch);
                        q.count.set(t, c + 1);
                        let waiters = q.nwait.get(t);
                        t.lock_release(QLOCK);
                        if waiters > 0 {
                            t.flush();
                        }
                    }
                    t.lock_acquire(QLOCK);
                    let p = q.popped.get(t);
                    q.popped.set(t, p + 1);
                    t.lock_release(QLOCK);
                }
            }
        });
        q.popped.get(tmk)
    });
    assert_eq!(out.result, tasks, "flush task queue lost tasks");
    (out.vt_ns, out.net.total_msgs())
}

/// Figure 4: the same task tree with a condition variable.
fn condvar_taskqueue(nodes: usize, tasks: u32) -> (u64, u64) {
    let out = tmk::run_system(TmkConfig::paper(nodes), move |tmk| {
        let q = Queue::create(tmk, tasks as usize + 2);
        tmk.parallel(0, move |t| {
            let nthreads = t.nprocs() as u32;
            loop {
                let mut task = None;
                t.lock_acquire(QLOCK);
                while q.count.get(t) == 0 && q.nwait.get(t) < nthreads {
                    let w = q.nwait.get(t) + 1;
                    q.nwait.set(t, w);
                    if w == nthreads {
                        t.cond_broadcast(QLOCK, CV);
                    } else {
                        t.cond_wait(QLOCK, CV);
                        let w2 = q.nwait.get(t);
                        if w2 != nthreads {
                            q.nwait.set(t, w2 - 1);
                        }
                    }
                }
                let c = q.count.get(t);
                if c > 0 {
                    q.count.set(t, c - 1);
                    task = Some(t.read(&q.stack, (c - 1) as usize));
                }
                t.lock_release(QLOCK);
                match task {
                    None => return,
                    Some(k) => {
                        // Figure 4's EnQueue per child: signal waiters.
                        for ch in children(k, tasks) {
                            t.lock_acquire(QLOCK);
                            let c = q.count.get(t);
                            t.write(&q.stack, c as usize, ch);
                            q.count.set(t, c + 1);
                            if q.nwait.get(t) > 0 {
                                t.cond_signal(QLOCK, CV);
                            }
                            t.lock_release(QLOCK);
                        }
                        t.lock_acquire(QLOCK);
                        let p = q.popped.get(t);
                        q.popped.set(t, p + 1);
                        t.lock_release(QLOCK);
                    }
                }
            }
        });
        q.popped.get(tmk)
    });
    assert_eq!(out.result, tasks, "condvar task queue lost tasks");
    (out.vt_ns, out.net.total_msgs())
}

/// Figures 2 vs 4: task queue with flush vs condition variables.
pub fn taskqueue_ablation(tasks: u32) {
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8] {
        let (fv, fm) = flush_taskqueue(nodes, tasks);
        let (cv, cm) = condvar_taskqueue(nodes, tasks);
        rows.push(vec![
            nodes.to_string(),
            fm.to_string(),
            cm.to_string(),
            secs(fv),
            secs(cv),
            f2(fv as f64 / cv as f64),
        ]);
    }
    print_table(
        &format!("Figures 2 vs 4: task queue with flush vs condition variable ({tasks} tasks)"),
        &[
            "Nodes",
            "flush msgs",
            "condvar msgs",
            "flush s",
            "condvar s",
            "flush/cv",
        ],
        &rows,
    );
}

/// Page-size sweep: false sharing vs fetch granularity on the DSM.
pub fn page_size_ablation() {
    let mut rows = Vec::new();
    for page in [1024usize, 4096, 16384] {
        let mut cfg = TmkConfig::paper(4);
        cfg.page_size = page;
        let w = now_apps::water::run_tmk(&now_apps::water::WaterConfig::test(), cfg.clone());
        let mut fcfg = cfg.clone();
        fcfg.page_size = page;
        let f = now_apps::fft3d::run_tmk(&now_apps::fft3d::FftConfig::test(), fcfg);
        debug_assert_eq!(w.version, VersionKind::Tmk);
        rows.push(vec![
            page.to_string(),
            w.msgs.to_string(),
            f2(w.mbytes()),
            secs(w.vt_ns),
            f.msgs.to_string(),
            f2(f.mbytes()),
            secs(f.vt_ns),
        ]);
    }
    print_table(
        "Ablation: DSM page size (Water + 3D-FFT, Tmk versions, 4 nodes)",
        &[
            "Page",
            "Water msgs",
            "Water MB",
            "Water s",
            "FFT msgs",
            "FFT MB",
            "FFT s",
        ],
        &rows,
    );
}

/// One pipeline measurement `(vt_ns, msgs)`, for the invariant tests.
pub fn pipeline_once(nodes: usize, handoffs: usize, flush: bool) -> (u64, u64) {
    if flush {
        flush_pipeline(nodes, handoffs)
    } else {
        sema_pipeline(nodes, handoffs)
    }
}

/// Ablation: the write-without-fetch ("push") optimization on the
/// 3D-FFT's transposes — the compiler support the paper names as the way
/// to close the DSM/MPI gap.
pub fn fft_push_ablation(nodes: usize) {
    let mut rows = Vec::new();
    for push in [false, true] {
        let mut cfg = now_apps::fft3d::FftConfig::paper();
        cfg.writer_push = push;
        let r = now_apps::fft3d::run_tmk(&cfg, TmkConfig::paper(nodes));
        rows.push(vec![
            if push {
                "write-without-fetch"
            } else {
                "base protocol"
            }
            .to_string(),
            r.msgs.to_string(),
            f2(r.mbytes()),
            secs(r.vt_ns),
        ]);
    }
    print_table(
        "Ablation: 3D-FFT transpose with/without write-without-fetch (Tmk version)",
        &["Variant", "Messages", "MB", "Time s"],
        &rows,
    );
}
