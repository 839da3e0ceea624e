//! One declaration per metric family, rendered two ways.
//!
//! A snapshot lists every family it exports once, as a [`Family`]: name,
//! help text, type and `(labels, value)` samples.
//! [`to_prometheus`](crate::to_prometheus) and [`to_json`] are the only
//! two renderings, so the formats cannot drift: a family's name, labels
//! and values are the same in both.

use std::borrow::Cow;
use std::fmt::Write;

use crate::json::{escape, num};
use crate::{Histogram, HistogramSnapshot};

/// A sample's labels, in output order. Values are mostly static names
/// (ops, kinds, events), so they are borrowed where they can be.
pub type Labels = Vec<(&'static str, Cow<'static, str>)>;

/// One sample's value; its variant matches the family's type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A monotonic count.
    Counter(u64),
    /// A value that goes up and down.
    Gauge(f64),
    /// A log₂ bucket distribution.
    Histogram(HistogramSnapshot),
}

/// One metric family: everything either rendering needs. Built only by
/// the per-type constructors, so every sample's value matches `kind`.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Metric name (the Prometheus family name).
    pub(crate) name: &'static str,
    /// One-line description.
    pub(crate) help: &'static str,
    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub(crate) kind: &'static str,
    /// Every sample of the family, in output order.
    pub(crate) samples: Vec<(Labels, Value)>,
}

impl Family {
    /// A counter family.
    pub fn counter(
        name: &'static str,
        help: &'static str,
        samples: impl IntoIterator<Item = (Labels, u64)>,
    ) -> Self {
        Family::new(name, help, "counter", samples, Value::Counter)
    }

    /// A gauge family.
    pub fn gauge(
        name: &'static str,
        help: &'static str,
        samples: impl IntoIterator<Item = (Labels, f64)>,
    ) -> Self {
        Family::new(name, help, "gauge", samples, Value::Gauge)
    }

    /// A histogram family.
    pub fn histogram(
        name: &'static str,
        help: &'static str,
        samples: impl IntoIterator<Item = (Labels, HistogramSnapshot)>,
    ) -> Self {
        Family::new(name, help, "histogram", samples, Value::Histogram)
    }

    fn new<T>(
        name: &'static str,
        help: &'static str,
        kind: &'static str,
        samples: impl IntoIterator<Item = (Labels, T)>,
        value: fn(T) -> Value,
    ) -> Self {
        let samples = samples.into_iter().map(|(l, v)| (l, value(v))).collect();
        Family {
            name,
            help,
            kind,
            samples,
        }
    }
}

/// Render `families` as one line of JSON:
/// `{"schema":"now-metrics-v2","families":[{"name","type","help","samples"}]}`.
/// A counter or gauge sample is `{"labels":{…},"value":v}`; a histogram
/// sample is `{"labels":{…},"count":n,"sum":s,"buckets":[[le,n],…]}`,
/// listing each nonzero bucket's own count by its inclusive upper bound
/// (`null` for the open last bucket).
pub fn to_json(families: &[Family]) -> String {
    let mut out = String::from("{\"schema\":\"now-metrics-v2\",\"families\":[");
    for (i, f) in families.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"type\":\"{}\",\"help\":\"{}\",\"samples\":[",
            f.name,
            f.kind,
            escape(f.help)
        );
        for (j, (labels, value)) in f.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"labels\":{");
            for (k, (name, v)) in labels.iter().enumerate() {
                let comma = if k > 0 { "," } else { "" };
                let _ = write!(out, "{comma}\"{name}\":\"{}\"", escape(v));
            }
            out.push('}');
            let _ = match value {
                Value::Counter(v) => write!(out, ",\"value\":{v}}}"),
                Value::Gauge(v) => write!(out, ",\"value\":{}}}", num(*v)),
                Value::Histogram(h) => {
                    let buckets: Vec<String> = (h.buckets.iter().enumerate())
                        .filter(|(_, &n)| n != 0)
                        .map(|(i, n)| match Histogram::bucket_le(i) {
                            Some(le) => format!("[{le},{n}]"),
                            None => format!("[null,{n}]"),
                        })
                        .collect();
                    write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum,
                        buckets.join(",")
                    )
                }
            };
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{json, validate_json};

    pub(crate) fn demo() -> Vec<Family> {
        let h = Histogram::new();
        for v in [0, 1, 900, 4096, u64::MAX] {
            h.record(v);
        }
        let status = |s: &'static str| vec![("status", s.into())];
        vec![
            Family::counter(
                "now_jobs_total",
                "Jobs by final status.",
                [(status("completed"), 3), (status("failed"), 0)],
            ),
            Family::gauge("now_jobs_in_flight", "Jobs running.", [(vec![], 0.5)]),
            Family::histogram(
                "now_op_vt_ns",
                "Virtual-time op latency.",
                [(vec![("op", "barrier".into())], h.snapshot())],
            ),
        ]
    }

    #[test]
    fn json_writer_shape() {
        let doc = to_json(&demo());
        validate_json(&doc).expect("writer emits valid JSON");
        assert!(!doc.contains('\n'), "one line");
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("now-metrics-v2"));
        let fams = v.get("families").unwrap().as_arr().unwrap();
        assert_eq!(fams.len(), 3);
        let jobs = &fams[0];
        assert_eq!(jobs.get("type").unwrap().as_str(), Some("counter"));
        let s0 = &jobs.get("samples").unwrap().as_arr().unwrap()[0];
        let status = s0.get("labels").unwrap().get("status").unwrap();
        assert_eq!(status.as_str(), Some("completed"));
        assert_eq!(s0.get("value").unwrap().as_u64(), Some(3));
        let h = &fams[2].get("samples").unwrap().as_arr().unwrap()[0];
        assert_eq!(h.get("count").unwrap().as_u64(), Some(5));
        let buckets = h.get("buckets").unwrap().as_arr().unwrap();
        // 0, 1, 900, 4096 and the open last bucket.
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[2], json::parse("[1023,1]").unwrap());
        assert_eq!(buckets[4], json::parse("[null,1]").unwrap());
    }
}
