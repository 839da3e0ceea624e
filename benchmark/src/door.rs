//! The load generator: a real `now_service::TcpFront` in this process,
//! driven over loopback TCP by closed-loop clients (or one pipelining
//! client for `door_burst`), every reply verified against the reference.

use crate::programs::{Rng, Variant};
use crate::report::field;
use crate::spans::Tracer;
use crate::workloads::{Drive, Workload, BURST_JOBS, BURST_PI_EVERY, CLIENTS, TENANTS, TOUCH, WORKLOADS};
use nomp::{Cluster, ClusterBuilder, Env};
use now_metrics::json::{escape, parse, Json};
use now_service::{JobValue, Service, ServiceConfig, ServiceHandle, TcpFront};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reply-wait watchdog inside every cluster: a protocol hang (ROADMAP
/// item 6) panics the job after this long instead of parking forever,
/// and the service reports it as a failed job.
const WATCHDOG: Duration = Duration::from_secs(10);
/// Second line of defence: a client that sees no reply for this long
/// records a failed operation and the run is abandoned.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Variants each closed-loop client submits during set-up.
const WARM_REQUESTS: usize = 4;
/// Each client thinks for a seeded random time below this before every
/// operation. The door's replies complete on the kernel's timer tick
/// (delayed ACK), so without the dither a closed loop phase-locks to
/// it, every latency is a whole number of ticks, and the median jumps a
/// tick at a time between runs.
const THINK_MAX: Duration = Duration::from_millis(4);

/// The cluster every measurement uses: `paper` cost model, uniform
/// load, watchdog armed.
pub fn cluster(nodes: usize, threads_per_node: usize) -> ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(threads_per_node)
        .paper()
        .tmk(|c| c.watchdog = Some(WATCHDOG))
}

/// The `touch` closure: one empty parallel region.
pub fn touch(omp: &mut Env<'_>) {
    omp.parallel(|_| {});
}

/// A service with its TCP front door.
pub struct Door {
    service: Service,
    front: TcpFront,
}

impl Door {
    pub fn open(w: &Workload) -> Result<Door, String> {
        let mut cfg = ServiceConfig::new()
            .pool(w.pool)
            .queue_bound(2 * BURST_JOBS)
            .cluster(cluster(w.nodes, 1))
            .closure(TOUCH, || {
                Box::new(|omp: &mut Env<'_>| {
                    touch(omp);
                    JobValue::Unit
                })
            });
        for (name, weight) in TENANTS {
            cfg = cfg.tenant(name, weight);
        }
        let service = cfg.build().map_err(|e| format!("service: {e}"))?;
        let front = TcpFront::bind(service.handle(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Door { service, front })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    pub fn handle(&self) -> ServiceHandle {
        self.service.handle()
    }

    /// Stop the front door and drain the pool, joining every thread.
    pub fn close(self) {
        self.front.shutdown();
        self.service.drain();
    }
}

/// Why an operation counts as failed.
#[derive(Debug)]
pub enum Fail {
    Transport(String),
    TimedOut,
    Refused(String),
    Wrong(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Transport(e) => write!(f, "transport error: {e}"),
            Fail::TimedOut => write!(f, "no reply within {READ_TIMEOUT:?}"),
            Fail::Refused(e) => write!(f, "refused or failed: {e}"),
            Fail::Wrong(e) => write!(f, "wrong result: {e}"),
        }
    }
}

/// One line-JSON client connection.
pub struct Client {
    out: TcpStream,
    inp: BufReader<TcpStream>,
    line: String,
    /// Jobs submitted over this connection (the `door_burst` counter
    /// check: its one connection is the service's only source of jobs).
    submitted: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        out.set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let inp = BufReader::new(out.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            out,
            inp,
            line: String::new(),
            submitted: 0,
        })
    }

    /// Write request lines (each already newline-terminated).
    pub fn send(&mut self, lines: &str) -> Result<(), Fail> {
        self.out
            .write_all(lines.as_bytes())
            .map_err(|e| Fail::Transport(e.to_string()))
    }

    /// Read and parse one reply line.
    pub fn recv(&mut self) -> Result<Json, Fail> {
        self.line.clear();
        match self.inp.read_line(&mut self.line) {
            Ok(0) => Err(Fail::Transport("connection closed".into())),
            Ok(_) => parse(self.line.trim_end()).map_err(Fail::Transport),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Err(Fail::TimedOut),
            Err(e) => Err(Fail::Transport(e.to_string())),
        }
    }
}

/// The inline-source submit line for `src`.
fn submit_line(src: &str, tenant: &str, wait: bool) -> String {
    format!(
        "{{\"op\":\"submit\",\"omp\":\"{}\",\"tenant\":\"{tenant}\",\"wait\":{wait}}}\n",
        escape(src)
    )
}

/// Everything precomputed from the seed for one workload.
pub struct Requests {
    pub programs: Vec<Variant>,
    /// `wait:true` submit line per variant.
    waited: Vec<String>,
    /// The pipelined `door_burst` batch.
    batch: String,
}

impl Requests {
    pub fn new(programs: Vec<Variant>) -> Requests {
        let sources: Vec<String> = programs.iter().map(|p| p.source()).collect();
        let waited = sources.iter().map(|s| submit_line(s, TENANTS[0].0, true)).collect();
        let mut batch = String::new();
        for i in 0..BURST_JOBS {
            // 2:1 offered load, matching the 2:1 weights.
            let tenant = if i % 3 < 2 { TENANTS[0].0 } else { TENANTS[1].0 };
            if i % BURST_PI_EVERY == BURST_PI_EVERY - 1 {
                let k = (i / BURST_PI_EVERY) % sources.len();
                batch.push_str(&submit_line(&sources[k], tenant, false));
            } else {
                batch.push_str(&format!(
                    "{{\"op\":\"submit\",\"closure\":\"{TOUCH}\",\"tenant\":\"{tenant}\"}}\n"
                ));
            }
        }
        Requests {
            programs,
            waited,
            batch,
        }
    }
}

/// One completed, verified door operation.
pub struct Sample {
    pub end: Instant,
    pub latency: Duration,
    /// The reply's `msgs` (the paper's Table 2 column).
    pub msgs: u64,
    pub queue_wait: Duration,
    pub run_host: Duration,
}

/// What one client did, or all clients of a window together.
#[derive(Default)]
pub struct Outcome {
    /// Verified operations (of a window: those completed inside it).
    pub samples: Vec<Sample>,
    /// Jobs attempted and jobs that failed, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// A client time-out: the service may hold a hung job, so it cannot
    /// be drained.
    pub hung: bool,
    /// The clients' span buffers, when tracing.
    pub tracers: Vec<Tracer>,
}

fn num(j: &Json, key: &str) -> Result<f64, Fail> {
    field(j, key).ok_or_else(|| Fail::Wrong(format!("reply has no numeric {key:?}")))
}

fn expect_ok(reply: &Json) -> Result<(), Fail> {
    if matches!(reply.get("ok"), Some(Json::Bool(true))) {
        return Ok(());
    }
    let field = |k| reply.get(k).and_then(Json::as_str).unwrap_or("?");
    Err(Fail::Refused(format!("{}: {}", field("error"), field("detail"))))
}

/// Check a `wait:true` reply against the reference and extract its
/// counters (latency is filled in by the caller).
fn verify(reply: &Json, program: &Variant) -> Result<Sample, Fail> {
    expect_ok(reply)?;
    let got = reply
        .get("value")
        .and_then(|v| v.get("scalars"))
        .and_then(|s| s.get(program.scalar()));
    let Some(Json::Num(got)) = got else {
        return Err(Fail::Wrong(format!("reply carries no {}", program.scalar())));
    };
    if !program.accepts(*got) {
        return Err(Fail::Wrong(format!(
            "{} = {got:e}, reference {:e}",
            program.scalar(),
            program.want
        )));
    }
    Ok(Sample {
        end: Instant::now(),
        latency: Duration::ZERO,
        msgs: num(reply, "msgs")? as u64,
        queue_wait: Duration::from_nanos(num(reply, "queue_wait_host_ns")? as u64),
        run_host: Duration::from_nanos(num(reply, "service_host_ns")? as u64),
    })
}

/// One workload with the inputs its seed produced.
pub struct Ctx<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub requests: &'a Requests,
}

impl Ctx<'_> {
    /// A span buffer for thread `tid` of this workload.
    pub fn tracer(&self, epoch: Instant, tid: u32) -> Tracer {
        let pid = WORKLOADS.iter().position(|w| w.name == self.workload.name);
        Tracer::new(epoch, pid.map_or(0, |p| p as u32 + 1), tid)
    }

    fn report(&self, variant: usize, why: &Fail) {
        eprintln!(
            "FAILED workload={} variant={variant} seed={}: {why}",
            self.workload.name, self.seed
        );
    }

    /// One `wait:true` submit of `variant`, verified.
    fn request(
        &self,
        client: &mut Client,
        variant: usize,
        req: u64,
        tracer: &mut Option<Tracer>,
    ) -> Result<Sample, Fail> {
        let t0 = Instant::now();
        client.send(&self.requests.waited[variant])?;
        let sent = t0.elapsed();
        let reply = client.recv()?;
        let replied = t0.elapsed();
        let mut sample = verify(&reply, &self.requests.programs[variant])?;
        sample.latency = t0.elapsed();
        if let Some(tr) = tracer {
            tr.add("door.request", "now-service", "", req, t0, sample.latency);
            tr.add("client.write", "host", "door.request", req, t0, sent);
            tr.add(
                "client.wait_reply",
                "now-service",
                "door.request",
                req,
                t0 + sent,
                replied - sent,
            );
            tr.add(
                "client.verify",
                "host",
                "door.request",
                req,
                t0 + replied,
                sample.latency - replied,
            );
            // From the reply's own fields: the job ran last, and waited
            // in the queue just before that.
            let run_start = (t0 + replied).checked_sub(sample.run_host).unwrap_or(t0);
            tr.add(
                "service.run_host",
                "now-service",
                "client.wait_reply",
                req,
                run_start,
                sample.run_host,
            );
            let wait_start = run_start.checked_sub(sample.queue_wait).unwrap_or(t0);
            tr.add(
                "service.queue_wait",
                "now-service",
                "client.wait_reply",
                req,
                wait_start,
                sample.queue_wait,
            );
        }
        Ok(sample)
    }

    /// One `door_burst` batch: pipeline `BURST_JOBS` no-wait submits,
    /// read their admissions, poll `status` until the service is idle
    /// and its counters account for every job, then one verified probe.
    fn batch(&self, client: &mut Client, probe: usize, req: u64, tracer: &mut Option<Tracer>) -> Result<Sample, Fail> {
        let t0 = Instant::now();
        client.send(&self.requests.batch)?;
        client.submitted += BURST_JOBS as u64;
        for _ in 0..BURST_JOBS {
            expect_ok(&client.recv()?)?;
        }
        let admitted = t0.elapsed();
        loop {
            client.send("{\"op\":\"status\"}\n")?;
            let s = client.recv()?;
            expect_ok(&s)?;
            if num(&s, "queue_depth")? == 0.0 && num(&s, "in_flight")? == 0.0 {
                let tenants = s.get("tenants").and_then(Json::as_arr).unwrap_or(&[]);
                let sum = |key| tenants.iter().map(|t| num(t, key).unwrap_or(f64::NAN)).sum::<f64>();
                let lost = sum("failed") + sum("expired") + sum("rejected");
                if sum("completed") != client.submitted as f64 || lost != 0.0 {
                    return Err(Fail::Wrong(format!(
                        "idle with {} of {} jobs completed, {lost} failed/expired/rejected",
                        sum("completed"),
                        client.submitted
                    )));
                }
                break;
            }
            if t0.elapsed() > READ_TIMEOUT {
                return Err(Fail::TimedOut);
            }
        }
        let idle = t0.elapsed();
        client.send(&self.requests.waited[probe])?;
        client.submitted += 1;
        let mut sample = verify(&client.recv()?, &self.requests.programs[probe])?;
        sample.latency = t0.elapsed();
        if let Some(tr) = tracer {
            tr.add("door.batch", "now-service", "", req, t0, sample.latency);
            tr.add("door.admit", "now-service", "door.batch", req, t0, admitted);
            tr.add(
                "door.drain_poll",
                "now-service",
                "door.batch",
                req,
                t0 + admitted,
                idle - admitted,
            );
            tr.add(
                "door.probe",
                "now-service",
                "door.batch",
                req,
                t0 + idle,
                sample.latency - idle,
            );
        }
        Ok(sample)
    }

    /// Drive `client` until `until`: variants in rotation starting at
    /// `first`, or batches for `door_burst`.
    fn drive(&self, client: &mut Client, first: usize, until: Instant, mut tracer: Option<Tracer>) -> Outcome {
        let jobs = self.workload.jobs_per_op() as u64;
        let mut out = Outcome::default();
        let mut variant = first;
        let mut think = Rng::new(self.seed ^ (first as u64) << 32);
        while Instant::now() < until {
            std::thread::sleep(Duration::from_nanos(think.next() % THINK_MAX.as_nanos() as u64));
            let req = (first as u64) << 32 | out.attempted;
            let result = match self.workload.drive {
                Drive::ClosedLoop => self.request(client, variant, req, &mut tracer),
                Drive::Burst => self.batch(client, variant, req, &mut tracer),
            };
            out.attempted += jobs;
            match result {
                Ok(sample) => out.samples.push(sample),
                Err(why) => {
                    self.report(variant, &why);
                    out.failed += jobs;
                    // A time-out means the service may hold a hung job
                    // and cannot be trusted to drain.
                    out.hung |= matches!(why, Fail::TimedOut);
                    // A bad answer to a single request leaves the
                    // connection usable; anything else loses its framing.
                    let usable =
                        self.workload.drive == Drive::ClosedLoop && matches!(why, Fail::Refused(_) | Fail::Wrong(_));
                    if !usable {
                        break;
                    }
                }
            }
            variant = (variant + 1) % self.requests.programs.len();
        }
        out.tracers.extend(tracer);
        out
    }
}

/// A door with its connected, warmed-up clients.
pub struct Rig {
    pub door: Door,
    clients: Vec<Client>,
}

impl Rig {
    /// Disconnect the clients, then stop the door and drain the pool.
    pub fn close(self) {
        drop(self.clients);
        self.door.close();
    }
}

impl Ctx<'_> {
    /// Set-up as a user pays it: build the pool, bind the door, connect,
    /// and push every variant through once (verified).
    pub fn setup(&self) -> Result<Rig, String> {
        let door = Door::open(self.workload)?;
        let n = match self.workload.drive {
            Drive::ClosedLoop => CLIENTS,
            Drive::Burst => 1,
        };
        let mut clients = Vec::new();
        for _ in 0..n {
            clients.push(Client::connect(door.addr())?);
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let warm = match self.workload.drive {
                Drive::ClosedLoop => (0..WARM_REQUESTS)
                    .try_for_each(|k| self.request(client, c * WARM_REQUESTS + k, 0, &mut None).map(drop)),
                Drive::Burst => self.batch(client, 0, 0, &mut None).map(drop),
            };
            warm.map_err(|why| format!("warm-up on {}: {why}", self.workload.name))?;
        }
        Ok(Rig { door, clients })
    }

    /// Run the load for `warm` untimed, then `window` timed. With a
    /// trace `epoch`, every client also records spans relative to it.
    pub fn measure(&self, rig: &mut Rig, warm: Duration, window: Duration, epoch: Option<Instant>) -> Outcome {
        let start = Instant::now() + warm;
        let until = start + window;
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = rig
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let tracer = epoch.map(|e| self.tracer(e, c as u32 + 1));
                    s.spawn(move || self.drive(client, c * WARM_REQUESTS, until, tracer))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let mut all = Outcome::default();
        for out in outcomes {
            all.attempted += out.attempted;
            all.failed += out.failed;
            all.hung |= out.hung;
            all.samples
                .extend(out.samples.into_iter().filter(|s| s.end >= start && s.end <= until));
            all.tracers.extend(out.tracers);
        }
        all
    }
}
