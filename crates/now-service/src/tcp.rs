//! A line-delimited-JSON TCP front door for a [`Service`].
//!
//! Protocol: one JSON object per line in, one JSON object per line out
//! (the same dependency-free JSON the metrics exports use). Verbs:
//!
//! ```text
//! {"op":"submit", "omp":"<source>", ...}        compile + run a .omp program
//! {"op":"submit", "closure":"<name>", ...}      run a registered closure workload
//!     optional fields: "tenant":"<name>", "priority":N,
//!                      "deadline_ms":N, "wait":true
//! {"op":"status"}                               dispatcher state
//! {"op":"metrics"}                              service metrics (JSON export)
//! {"op":"drain"}                                stop admitting, wait until idle
//! ```
//!
//! Replies always carry `"ok"`: `{"ok":true, ...}` on success,
//! `{"ok":false, "error":"<kind>", "detail":"<text>"}` otherwise —
//! admission backpressure arrives as `error` = the
//! [`Rejected`](crate::Rejected) kind
//! (`queue_full`, `draining`, `deadline_unmeetable`, …). A fire-and-
//! forget submit answers `{"ok":true,"id":N}` at admission; with
//! `"wait":true` the reply additionally carries the job's outcome.
//!
//! Request lines are buffered as bytes and decoded once complete: a line
//! that is not UTF-8 is answered `bad_request` and the connection keeps
//! serving; a line longer than 4 MiB is answered `line_too_long` and the
//! connection is closed.
//!
//! [`Service`]: crate::Service

use crate::service::{JobError, JobRequest, JobValue, ServiceHandle, ServiceReport};
use now_metrics::json::{escape, num, parse, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running TCP endpoint bound to a service.
///
/// Accepts connections on a background thread (one handler thread per
/// connection); [`TcpFront::shutdown`] stops accepting and joins every
/// handler, so no endpoint thread outlives it.
pub struct TcpFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpFront {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving the handle's service.
    pub fn bind(handle: ServiceHandle, addr: &str) -> std::io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = stop.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("now-service-tcp".into())
                .spawn(move || {
                    // Poll accept so shutdown is prompt without needing
                    // a self-connection wakeup dance.
                    listener
                        .set_nonblocking(true)
                        .expect("listener nonblocking");
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((sock, _)) => {
                                let handle = handle.clone();
                                let stop = stop.clone();
                                let h = std::thread::Builder::new()
                                    .name("now-service-conn".into())
                                    .spawn(move || serve_conn(sock, handle, stop))
                                    .expect("spawn connection handler");
                                conns.lock().expect("conns lock").push(h);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn tcp acceptor")
        };
        Ok(TcpFront {
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor and every live connection
    /// handler.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// Longest request line the door buffers (the largest bundled `.omp`
/// program is a few KB). A longer line gets one `line_too_long` reply
/// and the connection is closed.
const MAX_LINE_BYTES: usize = 4 << 20;

/// Send one reply line. Body and `'\n'` leave as two segments, so Nagle
/// holds the second until the peer's delayed ACK of the first: ≈ 44 ms
/// per reply over loopback (ROADMAP item 2a, with why it is still here).
fn send_line(out: &mut TcpStream, reply: &str) -> bool {
    let sent = out.write_all(reply.as_bytes()).is_ok() && out.write_all(b"\n").is_ok();
    let _ = out.flush();
    sent
}

fn serve_conn(sock: TcpStream, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    let mut out = match sock.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // Poll reads so a connection left open by a quiet client cannot pin
    // shutdown: on timeout the loop rechecks the stop flag. A timeout
    // mid-line leaves the partial line in `buf` — as bytes, so a pause
    // inside a multi-byte character loses nothing — and the next
    // read_until call appends the rest.
    if sock
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(sock);
    let mut buf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                let line = std::mem::take(&mut buf);
                let reply = match std::str::from_utf8(&line) {
                    Ok(l) if l.trim().is_empty() => continue,
                    Ok(l) => handle_line(l.trim_end(), &handle),
                    Err(_) => err_reply("bad_request", "request line is not valid UTF-8"),
                };
                if !send_line(&mut out, &reply) {
                    break;
                }
            }
            Ok(_) if buf.len() > MAX_LINE_BYTES => {
                let detail = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                send_line(&mut out, &err_reply("line_too_long", &detail));
                break;
            }
            // End of stream inside a line: the next read reports it.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

fn err_reply(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape(kind),
        escape(detail)
    )
}

fn handle_line(line: &str, handle: &ServiceHandle) -> String {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return err_reply("bad_json", &e),
    };
    match req.get("op").and_then(Json::as_str) {
        Some("submit") => handle_submit(&req, handle),
        Some("status") => {
            let s = handle.status();
            let mut tenants = String::new();
            for (i, t) in s.tenants.iter().enumerate() {
                if i > 0 {
                    tenants.push(',');
                }
                tenants.push_str(&format!(
                    "{{\"name\":\"{}\",\"weight\":{},\"queued\":{},\"admitted\":{},\
                     \"completed\":{},\"expired\":{},\"failed\":{},\"rejected\":{}}}",
                    escape(&t.name),
                    t.weight,
                    t.queued,
                    t.admitted,
                    t.completed,
                    t.expired,
                    t.failed,
                    t.rejected
                ));
            }
            format!(
                "{{\"ok\":true,\"pool\":{},\"queue_depth\":{},\"in_flight\":{},\
                 \"open\":{},\"draining\":{},\"tenants\":[{}]}}",
                s.pool, s.queue_depth, s.in_flight, s.open, s.draining, tenants
            )
        }
        Some("metrics") => format!("{{\"ok\":true,\"metrics\":{}}}", handle.metrics().to_json()),
        Some("drain") => {
            handle.begin_drain();
            handle.await_idle();
            let s = handle.metrics();
            format!(
                "{{\"ok\":true,\"drained\":true,\"admitted\":{},\"completed\":{},\
                 \"expired\":{},\"failed\":{},\"rejected\":{}}}",
                s.admitted(),
                s.completed(),
                s.expired(),
                s.failed(),
                s.rejected()
            )
        }
        Some(other) => err_reply("bad_request", &format!("unknown op {other:?}")),
        None => err_reply("bad_request", "missing \"op\""),
    }
}

fn handle_submit(req: &Json, handle: &ServiceHandle) -> String {
    let mut job = if let Some(src) = req.get("omp").and_then(Json::as_str) {
        match ompc::compile(src) {
            Ok(p) => JobRequest::omp(p),
            Err(d) => return err_reply("compile", &d.to_string()),
        }
    } else if let Some(name) = req.get("closure").and_then(Json::as_str) {
        JobRequest::named(name)
    } else {
        return err_reply("bad_request", "submit needs \"omp\" or \"closure\"");
    };
    if let Some(t) = req.get("tenant").and_then(Json::as_str) {
        job = job.tenant(t);
    }
    if let Some(p) = req.get("priority") {
        match p.as_u64() {
            Some(p) if p <= u8::MAX as u64 => job = job.priority(p as u8),
            _ => return err_reply("bad_request", "priority must be an integer in 0..=255"),
        }
    }
    if let Some(d) = req.get("deadline_ms") {
        match d {
            Json::Num(ms) if ms.is_finite() && *ms >= 0.0 => {
                match Duration::try_from_secs_f64(ms / 1e3) {
                    Ok(d) => job = job.deadline(d),
                    Err(_) => return err_reply("bad_request", "deadline_ms out of range"),
                }
            }
            _ => return err_reply("bad_request", "deadline_ms must be a finite number >= 0"),
        }
    }
    let wait = matches!(req.get("wait"), Some(Json::Bool(true)));
    match handle.submit(job) {
        Ok(ticket) => {
            let id = ticket.id();
            if wait {
                report_reply(id, ticket.wait())
            } else {
                format!("{{\"ok\":true,\"id\":{id}}}")
            }
        }
        Err(r) => err_reply(r.kind(), &r.to_string()),
    }
}

fn value_json(v: &JobValue) -> String {
    match v {
        JobValue::Unit => "null".to_string(),
        JobValue::Num(x) => num(*x),
        JobValue::Nums(xs) => {
            let body: Vec<String> = xs.iter().map(|x| num(*x)).collect();
            format!("[{}]", body.join(","))
        }
        JobValue::Text(s) => format!("\"{}\"", escape(s)),
        JobValue::Program(p) => {
            let scalars: Vec<String> = p
                .scalars
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), num(*v)))
                .collect();
            let printed: Vec<String> = p
                .printed
                .iter()
                .map(|l| format!("\"{}\"", escape(l)))
                .collect();
            format!(
                "{{\"ret\":{},\"scalars\":{{{}}},\"printed\":[{}]}}",
                num(p.ret),
                scalars.join(","),
                printed.join(",")
            )
        }
    }
}

fn report_reply(id: u64, report: ServiceReport) -> String {
    match &report.outcome {
        Ok(run) => format!(
            "{{\"ok\":true,\"id\":{id},\"tenant\":\"{}\",\"worker\":{},\
             \"queue_wait_host_ns\":{},\"service_host_ns\":{},\"vt_ns\":{},\
             \"msgs\":{},\"value\":{}}}",
            escape(&report.tenant),
            report.worker,
            report.queue_wait.as_nanos(),
            report.service_host.as_nanos(),
            run.vt_ns,
            run.msgs(),
            value_json(&run.result)
        ),
        Err(e) => {
            let kind = match e {
                JobError::DeadlineExpired { .. } => "deadline_expired",
                JobError::Panicked(_) => "panicked",
                JobError::Lost => "lost",
            };
            format!(
                "{{\"ok\":false,\"id\":{id},\"error\":\"{kind}\",\"detail\":\"{}\"}}",
                escape(&e.to_string())
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_lines_get_typed_errors() {
        // Exercised without a live service: parsing failures never
        // reach the dispatcher.
        assert!(err_reply("bad_json", "x").contains("\"ok\":false"));
        let v = value_json(&JobValue::Nums(vec![1.0, 2.0]));
        assert_eq!(v, "[1,2]");
    }
}
