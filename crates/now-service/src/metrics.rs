//! Service-level metrics: the dispatcher's always-on instrumentation.
//!
//! Follows the workspace metrics contract (`now-metrics`): recording is
//! lock-free relaxed atomics, allocation happens once at service build,
//! snapshots merge, and export is Prometheus text or JSON that the
//! crate's own validators accept. The domain block lives here because
//! `now-service` owns the instrumented types, exactly as `tmk` owns the
//! cluster-level blocks.

use now_metrics::{Counter, Family, Gauge, Histogram, HistogramSnapshot};
use std::time::Instant;

/// Per-tenant live counters and latency histograms.
#[derive(Debug)]
pub(crate) struct TenantMetrics {
    pub(crate) name: String,
    pub(crate) weight: u64,
    pub(crate) admitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) expired: Counter,
    pub(crate) failed: Counter,
    pub(crate) rejected_queue_full: Counter,
    pub(crate) rejected_draining: Counter,
    pub(crate) rejected_deadline: Counter,
    pub(crate) rejected_unknown: Counter,
    pub(crate) rejected_lint: Counter,
    pub(crate) queue_wait_host_ns: Histogram,
    pub(crate) service_host_ns: Histogram,
}

impl TenantMetrics {
    fn new(name: String, weight: u64) -> Self {
        TenantMetrics {
            name,
            weight,
            admitted: Counter::new(),
            completed: Counter::new(),
            expired: Counter::new(),
            failed: Counter::new(),
            rejected_queue_full: Counter::new(),
            rejected_draining: Counter::new(),
            rejected_deadline: Counter::new(),
            rejected_unknown: Counter::new(),
            rejected_lint: Counter::new(),
            queue_wait_host_ns: Histogram::new(),
            service_host_ns: Histogram::new(),
        }
    }

    /// Total rejected submissions, all reasons, read live (`status`
    /// reports it; a snapshot sums its own copies).
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected_queue_full.get()
            + self.rejected_draining.get()
            + self.rejected_deadline.get()
            + self.rejected_unknown.get()
            + self.rejected_lint.get()
    }

    fn snapshot(&self) -> TenantMetricsSnapshot {
        TenantMetricsSnapshot {
            name: self.name.clone(),
            weight: self.weight,
            admitted: self.admitted.get(),
            completed: self.completed.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            rejected_queue_full: self.rejected_queue_full.get(),
            rejected_draining: self.rejected_draining.get(),
            rejected_deadline: self.rejected_deadline.get(),
            rejected_unknown: self.rejected_unknown.get(),
            rejected_lint: self.rejected_lint.get(),
            queue_wait_host_ns: self.queue_wait_host_ns.snapshot(),
            service_host_ns: self.service_host_ns.snapshot(),
        }
    }
}

/// The service's live metrics block: queue-depth and in-flight gauges,
/// per-tenant admission/outcome counters, queue-wait / service-time /
/// end-to-end host-latency histograms.
#[derive(Debug)]
pub struct ServiceMetrics {
    tenants: Vec<TenantMetrics>,
    /// Jobs currently admitted but not yet dispatched.
    pub queue_depth: Gauge,
    /// Jobs currently running on pool clusters.
    pub jobs_in_flight: Gauge,
    /// Host nanoseconds from admission to completion (all tenants).
    pub e2e_host_ns: Histogram,
    start: Instant,
}

impl ServiceMetrics {
    /// A fresh block for the given tenant table (allocates everything
    /// up front; nothing on the record path allocates afterwards).
    pub fn new(tenants: &[(String, u64)]) -> Self {
        ServiceMetrics {
            tenants: tenants
                .iter()
                .map(|(n, w)| TenantMetrics::new(n.clone(), *w))
                .collect(),
            queue_depth: Gauge::new(),
            jobs_in_flight: Gauge::new(),
            e2e_host_ns: Histogram::new(),
            start: Instant::now(),
        }
    }

    pub(crate) fn tenant(&self, i: usize) -> &TenantMetrics {
        &self.tenants[i]
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> ServiceMetricsSnapshot {
        ServiceMetricsSnapshot {
            tenants: self.tenants.iter().map(TenantMetrics::snapshot).collect(),
            queue_depth: self.queue_depth.get(),
            jobs_in_flight: self.jobs_in_flight.get(),
            e2e_host_ns: self.e2e_host_ns.snapshot(),
            uptime_host_ns: self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// An owned copy of one tenant's counters and histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetricsSnapshot {
    /// Tenant name (the `tenant` label in exports).
    pub name: String,
    /// Configured fair-share weight.
    pub weight: u64,
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs whose deadline expired while queued (failed fast).
    pub expired: u64,
    /// Jobs that failed (panicked) on a cluster.
    pub failed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected because the service was draining.
    pub rejected_draining: u64,
    /// Submissions rejected because the deadline was unmeetable.
    pub rejected_deadline: u64,
    /// Submissions rejected for an unknown registered-closure name.
    pub rejected_unknown: u64,
    /// Submissions rejected because the static analyzer denied the
    /// program (`deny_races` admission policy).
    pub rejected_lint: u64,
    /// Host nanoseconds from admission to dispatch.
    pub queue_wait_host_ns: HistogramSnapshot,
    /// Host nanoseconds a job spent running on its cluster.
    pub service_host_ns: HistogramSnapshot,
}

impl TenantMetricsSnapshot {
    /// Total rejected submissions, all reasons: the sum of this
    /// snapshot's own reason fields.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_draining
            + self.rejected_deadline
            + self.rejected_unknown
            + self.rejected_lint
    }
}

/// A point-in-time copy of a [`ServiceMetrics`] block, exportable as
/// Prometheus text or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetricsSnapshot {
    /// Per-tenant counters and histograms.
    pub tenants: Vec<TenantMetricsSnapshot>,
    /// Jobs admitted but not yet dispatched at snapshot time.
    pub queue_depth: i64,
    /// Jobs running on pool clusters at snapshot time.
    pub jobs_in_flight: i64,
    /// Admission-to-completion host latency, all tenants.
    pub e2e_host_ns: HistogramSnapshot,
    /// Host nanoseconds since the service was built.
    pub uptime_host_ns: u64,
}

impl ServiceMetricsSnapshot {
    /// Total admitted jobs, all tenants.
    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    /// Total completed jobs, all tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total deadline-expired jobs, all tenants.
    pub fn expired(&self) -> u64 {
        self.tenants.iter().map(|t| t.expired).sum()
    }

    /// Total failed (panicked) jobs, all tenants.
    pub fn failed(&self) -> u64 {
        self.tenants.iter().map(|t| t.failed).sum()
    }

    /// Total rejected submissions, all tenants and reasons.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected()).sum()
    }

    /// All tenants' service-time histograms merged into one.
    pub fn service_host_merged(&self) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for t in &self.tenants {
            h.merge(&t.service_host_ns);
        }
        h
    }

    /// All tenants' queue-wait histograms merged into one.
    pub fn queue_wait_merged(&self) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for t in &self.tenants {
            h.merge(&t.queue_wait_host_ns);
        }
        h
    }

    /// Every exported metric family, each declared once: the one list
    /// [`to_prometheus`](Self::to_prometheus) and [`to_json`](Self::to_json)
    /// render.
    pub fn families(&self) -> Vec<Family> {
        let tenant = |t: &TenantMetricsSnapshot| vec![("tenant", t.name.clone().into())];
        let by = |label, t: &TenantMetricsSnapshot, counts: &[(&'static str, u64)]| {
            let labels =
                |v: &'static str| vec![("tenant", t.name.clone().into()), (label, v.into())];
            counts
                .iter()
                .map(|&(v, n)| (labels(v), n))
                .collect::<Vec<_>>()
        };
        let per_tenant = |name, help, get: fn(&TenantMetricsSnapshot) -> &HistogramSnapshot| {
            Family::histogram(
                name,
                help,
                self.tenants.iter().map(|t| (tenant(t), get(t).clone())),
            )
        };
        vec![
            Family::gauge(
                "now_service_uptime_host_seconds",
                "Host seconds since the service was built.",
                [(vec![], self.uptime_host_ns as f64 / 1e9)],
            ),
            Family::gauge(
                "now_service_queue_depth",
                "Jobs admitted but not yet dispatched.",
                [(vec![], self.queue_depth as f64)],
            ),
            Family::gauge(
                "now_service_jobs_in_flight",
                "Jobs currently running on pool clusters.",
                [(vec![], self.jobs_in_flight as f64)],
            ),
            Family::counter(
                "now_service_jobs_total",
                "Jobs by tenant and lifecycle event.",
                self.tenants.iter().flat_map(|t| {
                    let events = [
                        ("admitted", t.admitted),
                        ("completed", t.completed),
                        ("expired", t.expired),
                        ("failed", t.failed),
                    ];
                    by("event", t, &events)
                }),
            ),
            Family::counter(
                "now_service_rejected_total",
                "Rejected submissions by tenant and reason.",
                self.tenants.iter().flat_map(|t| {
                    let reasons = [
                        ("queue_full", t.rejected_queue_full),
                        ("draining", t.rejected_draining),
                        ("deadline_unmeetable", t.rejected_deadline),
                        ("unknown_program", t.rejected_unknown),
                        ("lint", t.rejected_lint),
                    ];
                    by("reason", t, &reasons)
                }),
            ),
            per_tenant(
                "now_service_queue_wait_host_ns",
                "Host nanoseconds from admission to dispatch.",
                |t| &t.queue_wait_host_ns,
            ),
            per_tenant(
                "now_service_time_host_ns",
                "Host nanoseconds a job spent running on its cluster.",
                |t| &t.service_host_ns,
            ),
            Family::histogram(
                "now_service_e2e_host_ns",
                "Host nanoseconds from admission to completion.",
                [(vec![], self.e2e_host_ns.clone())],
            ),
        ]
    }

    /// Render as Prometheus text exposition format (accepted by
    /// `now_metrics::validate_prometheus_text`).
    pub fn to_prometheus(&self) -> String {
        now_metrics::to_prometheus(&self.families())
    }

    /// Render as one line of JSON in the `now-metrics-v2` shape (see
    /// `now_metrics::to_json`), accepted by `now_metrics::validate_json`.
    pub fn to_json(&self) -> String {
        now_metrics::to_json(&self.families())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_metrics::{validate_json, validate_prometheus_text};

    #[test]
    fn exports_validate() {
        let m = ServiceMetrics::new(&[("alice".into(), 2), ("bob \"q\"".into(), 1)]);
        m.tenant(0).admitted.add(5);
        m.tenant(0).completed.add(4);
        m.tenant(0).queue_wait_host_ns.record(1_500);
        m.tenant(0).service_host_ns.record(80_000);
        m.tenant(1).rejected_queue_full.inc();
        m.queue_depth.set(1);
        m.jobs_in_flight.inc();
        m.e2e_host_ns.record(95_000);
        let s = m.snapshot();
        validate_prometheus_text(&s.to_prometheus()).expect("prometheus export validates");
        validate_json(&s.to_json()).expect("json export validates");
        assert_eq!(s.admitted(), 5);
        assert_eq!(s.completed(), 4);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.service_host_merged().count(), 1);
        assert_eq!(s.queue_wait_merged().count(), 1);
    }

    #[test]
    fn a_snapshots_rejected_total_is_the_sum_of_its_own_reasons() {
        let m = ServiceMetrics::new(&[("a".into(), 1)]);
        m.tenant(0).rejected_lint.add(9);
        let mut t = m.snapshot().tenants.remove(0);
        // Reasons as a snapshot taken mid-admission may hold them, not as
        // the live counters read now.
        t.rejected_queue_full = 1;
        t.rejected_draining = 2;
        t.rejected_deadline = 3;
        t.rejected_unknown = 4;
        t.rejected_lint = 5;
        assert_eq!(t.rejected(), 15);
        assert_eq!(m.tenant(0).rejected(), 9);
    }
}
