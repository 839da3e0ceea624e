//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out as Chrome trace-event JSON at the end.

use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// The span that caused this one ("" for a root).
    pub parent: &'static str,
    /// Spans of one request share this identifier.
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One thread's span buffer: a Chrome-trace track `tid` of process
/// `pid` (one per workload, each with its own time origin).
pub struct Tracer {
    epoch: Instant,
    pid: u32,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, pid: u32, tid: u32) -> Self {
        Tracer {
            epoch,
            pid,
            tid,
            spans: Vec::new(),
        }
    }

    /// Record a span that started at `start` and lasted `dur`.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: &'static str,
        req: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            name,
            layer,
            parent,
            req,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Time `f` and record it as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.add(name, layer, parent, req, start, dur);
        (out, dur)
    }
}

/// Render every tracer's spans as one Chrome trace-event document
/// (complete `X` events, microsecond timestamps, one track per tracer,
/// start-ordered within a track as `nomp::validate_chrome_json` demands).
pub fn chrome_json(tracers: Vec<Tracer>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for mut t in tracers {
        // Parents before the children they enclose.
        t.spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.layer,
                t.pid,
                t.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.req,
                s.parent
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_valid_chrome_json() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1, 1);
        // Recorded child-first, as happens when a parent is closed last.
        a.add(
            "service.run_host",
            "now-service",
            "door.request",
            7,
            epoch + Duration::from_micros(30),
            Duration::from_micros(10),
        );
        a.add("door.request", "now-service", "", 7, epoch, Duration::from_micros(50));
        let mut b = Tracer::new(epoch, 1, 2);
        let (v, dur) = b.time("nomp.run", "nomp", "", 8, || 41 + 1);
        assert_eq!(v, 42);
        assert!(dur <= epoch.elapsed());
        assert_eq!(a.spans.len() + b.spans.len(), 3);
        let doc = chrome_json(vec![a, b]);
        nomp::validate_chrome_json(&doc).expect("valid trace");
        let request = doc.find("door.request").unwrap();
        let run = doc.find("\"service.run_host\"").unwrap();
        assert!(request < run, "parent is written before its child");
    }
}
