//! Service-level metrics: the dispatcher's always-on instrumentation.
//!
//! Follows the workspace metrics contract (`now-metrics`): recording is
//! lock-free relaxed atomics, allocation happens once at service build,
//! snapshots merge, and export is Prometheus text or JSON that the
//! crate's own validators accept. The domain block lives here because
//! `now-service` owns the instrumented types, exactly as `tmk` owns the
//! cluster-level blocks.

use now_metrics::json::escape;
use now_metrics::{Counter, Gauge, Histogram, HistogramSnapshot, PromText};
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

    /// Total rejected submissions, all reasons — the one place the
    /// reasons are summed (the snapshot and `status` both report it).
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
            rejected: self.rejected(),
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
    /// All reasons, as summed by `TenantMetrics::rejected`.
    rejected: u64,
    /// Host nanoseconds from admission to dispatch.
    pub queue_wait_host_ns: HistogramSnapshot,
    /// Host nanoseconds a job spent running on its cluster.
    pub service_host_ns: HistogramSnapshot,
}

impl TenantMetricsSnapshot {
    /// Total rejected submissions, all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected
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

    /// Render as Prometheus text exposition format (accepted by
    /// `now_metrics::validate_prometheus_text`).
    pub fn to_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.family(
            "now_service_uptime_host_seconds",
            "Host seconds since the service was built.",
            "gauge",
        );
        p.sample_f64(
            "now_service_uptime_host_seconds",
            &[],
            self.uptime_host_ns as f64 / 1e9,
        );
        p.family(
            "now_service_queue_depth",
            "Jobs admitted but not yet dispatched.",
            "gauge",
        );
        p.sample_f64("now_service_queue_depth", &[], self.queue_depth as f64);
        p.family(
            "now_service_jobs_in_flight",
            "Jobs currently running on pool clusters.",
            "gauge",
        );
        p.sample_f64(
            "now_service_jobs_in_flight",
            &[],
            self.jobs_in_flight as f64,
        );
        p.family(
            "now_service_jobs_total",
            "Jobs by tenant and lifecycle event.",
            "counter",
        );
        for t in &self.tenants {
            for (event, v) in [
                ("admitted", t.admitted),
                ("completed", t.completed),
                ("expired", t.expired),
                ("failed", t.failed),
            ] {
                p.sample(
                    "now_service_jobs_total",
                    &[("tenant", &t.name), ("event", event)],
                    v,
                );
            }
        }
        p.family(
            "now_service_rejected_total",
            "Rejected submissions by tenant and reason.",
            "counter",
        );
        for t in &self.tenants {
            for (reason, v) in [
                ("queue_full", t.rejected_queue_full),
                ("draining", t.rejected_draining),
                ("deadline_unmeetable", t.rejected_deadline),
                ("unknown_program", t.rejected_unknown),
                ("lint", t.rejected_lint),
            ] {
                p.sample(
                    "now_service_rejected_total",
                    &[("tenant", &t.name), ("reason", reason)],
                    v,
                );
            }
        }
        p.family(
            "now_service_queue_wait_host_ns",
            "Host nanoseconds from admission to dispatch.",
            "histogram",
        );
        for t in &self.tenants {
            p.histogram(
                "now_service_queue_wait_host_ns",
                &[("tenant", &t.name)],
                &t.queue_wait_host_ns,
            );
        }
        p.family(
            "now_service_time_host_ns",
            "Host nanoseconds a job spent running on its cluster.",
            "histogram",
        );
        for t in &self.tenants {
            p.histogram(
                "now_service_time_host_ns",
                &[("tenant", &t.name)],
                &t.service_host_ns,
            );
        }
        p.family(
            "now_service_e2e_host_ns",
            "Host nanoseconds from admission to completion.",
            "histogram",
        );
        p.histogram("now_service_e2e_host_ns", &[], &self.e2e_host_ns);
        p.finish()
    }

    /// Render as a JSON document (accepted by
    /// `now_metrics::validate_json`). Histograms are summarized as
    /// count / sum / mean / p50 / p99 rather than raw buckets.
    pub fn to_json(&self) -> String {
        fn hist(out: &mut String, h: &HistogramSnapshot) {
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                h.count(),
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99)
            ));
        }
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"now-service-metrics-v1\",\n");
        out.push_str(&format!("  \"uptime_host_ns\": {},\n", self.uptime_host_ns));
        out.push_str(&format!("  \"queue_depth\": {},\n", self.queue_depth));
        out.push_str(&format!("  \"jobs_in_flight\": {},\n", self.jobs_in_flight));
        out.push_str("  \"e2e_host_ns\": ");
        hist(&mut out, &self.e2e_host_ns);
        out.push_str(",\n  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"name\":\"{}\",", escape(&t.name)));
            out.push_str(&format!("\"weight\":{},", t.weight));
            out.push_str(&format!("\"admitted\":{},", t.admitted));
            out.push_str(&format!("\"completed\":{},", t.completed));
            out.push_str(&format!("\"expired\":{},", t.expired));
            out.push_str(&format!("\"failed\":{},", t.failed));
            out.push_str(&format!(
                "\"rejected\":{{\"queue_full\":{},\"draining\":{},\
                 \"deadline_unmeetable\":{},\"unknown_program\":{},\"lint\":{}}},",
                t.rejected_queue_full,
                t.rejected_draining,
                t.rejected_deadline,
                t.rejected_unknown,
                t.rejected_lint
            ));
            out.push_str("\"queue_wait_host_ns\":");
            hist(&mut out, &t.queue_wait_host_ns);
            out.push_str(",\"service_host_ns\":");
            hist(&mut out, &t.service_host_ns);
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
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
}
