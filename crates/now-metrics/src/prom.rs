//! Prometheus text exposition format: the writer and the validator.
//!
//! The validator mirrors `validate_chrome_json` in now-trace: a
//! hand-rolled structural checker so CI can gate emitted artifacts
//! without pulling in a Prometheus client crate. It checks the
//! format-level rules that actually catch emitter bugs: metric/label
//! name grammar, `# TYPE`/`# HELP` placement, one group of lines per
//! family, duplicate series, and — for histogram families — `le`
//! monotonicity, cumulative bucket counts, a `+Inf` bucket, and
//! `_count` == the `+Inf` bucket.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use crate::family::Value;
use crate::{Family, Histogram, Labels};

/// Render `families` as Prometheus text exposition format: per family a
/// `# HELP` and a `# TYPE` line, then its samples. A histogram sample
/// becomes cumulative `_bucket` lines for its nonzero buckets, the
/// mandatory `le="+Inf"` bucket, `_sum` and `_count`. The output passes
/// [`validate_prometheus_text`](crate::validate_prometheus_text).
pub fn to_prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let _ = writeln!(
            out,
            "# HELP {} {}\n# TYPE {} {}",
            f.name, f.help, f.name, f.kind
        );
        for (labels, value) in &f.samples {
            match value {
                Value::Counter(v) => sample(&mut out, f.name, "", labels, None, v),
                Value::Gauge(v) => sample(&mut out, f.name, "", labels, None, v),
                Value::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        cum = cum.wrapping_add(n);
                        if n == 0 {
                            continue;
                        }
                        if let Some(le) = Histogram::bucket_le(i) {
                            let le = le.to_string();
                            sample(&mut out, f.name, "_bucket", labels, Some(&le), cum);
                        }
                    }
                    sample(&mut out, f.name, "_bucket", labels, Some("+Inf"), cum);
                    sample(&mut out, f.name, "_sum", labels, None, h.sum);
                    sample(&mut out, f.name, "_count", labels, None, cum);
                }
            }
        }
    }
    out
}

/// One sample line; `le`, when given, is appended as the last label.
fn sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &Labels,
    le: Option<&str>,
    value: impl std::fmt::Display,
) {
    out.push_str(name);
    out.push_str(suffix);
    let pairs = labels.iter().map(|(k, v)| (*k, v.as_ref()));
    for (i, (k, v)) in pairs.chain(le.map(|le| ("le", le))).enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !labels.is_empty() || le.is_some() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
struct Sample {
    name: String,
    /// Label pairs in source order (kept sorted for series identity).
    labels: Vec<(String, String)>,
    value: f64,
    line: usize,
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |m: &str| format!("line {lineno}: {m}: {line:?}");
    let (name_part, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err(err("sample has no value")),
    };
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .rfind('}')
            .ok_or_else(|| err("unterminated label set"))?;
        let (inner, tail) = (&body[..close], &body[close + 1..]);
        let mut s = inner;
        while !s.is_empty() {
            let eq = s.find('=').ok_or_else(|| err("label without '='"))?;
            let lname = &s[..eq];
            if !valid_label_name(lname) {
                return Err(err("invalid label name"));
            }
            s = &s[eq + 1..];
            if !s.starts_with('"') {
                return Err(err("label value must be quoted"));
            }
            s = &s[1..];
            let mut val = String::new();
            let mut bytes = s.char_indices();
            let mut end = None;
            while let Some((i, c)) = bytes.next() {
                match c {
                    '\\' => match bytes.next() {
                        Some((_, '\\')) => val.push('\\'),
                        Some((_, '"')) => val.push('"'),
                        Some((_, 'n')) => val.push('\n'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => val.push(c),
                }
            }
            let end = end.ok_or_else(|| err("unterminated label value"))?;
            labels.push((lname.to_string(), val));
            s = &s[end + 1..];
            if let Some(r) = s.strip_prefix(',') {
                s = r;
            } else if !s.is_empty() {
                return Err(err("expected ',' between labels"));
            }
        }
        tail
    } else {
        rest
    };
    let value_txt = rest.trim();
    if value_txt.is_empty() || value_txt.contains(' ') {
        // A second token would be a timestamp; our emitters never write
        // one, so treat it as malformed rather than silently accept.
        return Err(err("expected exactly one value token"));
    }
    let value = match value_txt {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t.parse::<f64>().map_err(|_| err("invalid sample value"))?,
    };
    labels.sort();
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
        line: lineno,
    })
}

/// Validate a Prometheus text exposition document.
///
/// Checks: trailing newline; comment-line grammar (`# HELP`, `# TYPE`
/// with a known type, at most one each per family); every sample belongs
/// to the family whose `# TYPE` came last, so each family's samples form
/// one group after its `# TYPE`; metric/label name grammar; no duplicate
/// series; histogram families have only `_bucket`/`_sum`/`_count`
/// samples, every `_bucket` carries `le`, buckets are cumulative with
/// ascending `le`, end in `le="+Inf"`, and `_count` equals the `+Inf`
/// bucket.
pub fn validate_prometheus_text(s: &str) -> Result<(), String> {
    if s.is_empty() {
        return Err("empty document".into());
    }
    if !s.ends_with('\n') {
        return Err("document must end with a newline".into());
    }

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    // The family whose `# TYPE` came last: every sample must belong to it.
    let mut group: Option<(&str, &str)> = None;

    for (i, line) in s.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("").trim();
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: TYPE for invalid name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
                group = Some((name, kind));
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: HELP for invalid name {name:?}"));
                }
                if !helps.insert(name.to_string()) {
                    return Err(format!("line {lineno}: duplicate HELP for {name}"));
                }
            }
            // Other comments are allowed and ignored.
            continue;
        }
        let smp = parse_sample(line, lineno)?;
        let (fam, kind) =
            group.ok_or_else(|| format!("line {lineno}: sample {} has no # TYPE", smp.name))?;
        let suffix = smp.name.strip_prefix(fam);
        if suffix != Some("")
            && !(kind == "histogram" && matches!(suffix, Some("_bucket" | "_sum" | "_count")))
        {
            return Err(format!(
                "line {lineno}: sample {} outside its family's group ({fam})",
                smp.name
            ));
        }
        let series_id = format!("{}|{:?}", smp.name, smp.labels);
        if !seen_series.insert(series_id) {
            return Err(format!(
                "line {lineno}: duplicate series {}{:?}",
                smp.name, smp.labels
            ));
        }
        samples.push(smp);
    }

    // Histogram family structure.
    for (fam, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{fam}_bucket");
        let sum_name = format!("{fam}_sum");
        let count_name = format!("{fam}_count");
        // series key (labels minus le) -> [(le, cumulative count, line)]
        let mut series: BTreeMap<String, Vec<(f64, f64, usize)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        for smp in &samples {
            if smp.name == *fam {
                return Err(format!(
                    "line {}: histogram family {fam} has a bare sample; only \
                     _bucket/_sum/_count are allowed",
                    smp.line
                ));
            }
            if smp.name == bucket_name {
                let le = smp
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("line {}: _bucket without le label", smp.line))?;
                let le_v = match le.1.as_str() {
                    "+Inf" => f64::INFINITY,
                    t => t
                        .parse::<f64>()
                        .map_err(|_| format!("line {}: bad le value {t:?}", smp.line))?,
                };
                let key: Vec<_> = smp.labels.iter().filter(|(k, _)| k != "le").collect();
                series
                    .entry(format!("{key:?}"))
                    .or_default()
                    .push((le_v, smp.value, smp.line));
            } else if smp.name == count_name {
                counts.insert(
                    format!("{:?}", smp.labels.iter().collect::<Vec<_>>()),
                    smp.value,
                );
            }
        }
        let _ = sum_name; // _sum needs no structural check beyond series parsing
        for (key, rows) in &series {
            let mut last_le = f64::NEG_INFINITY;
            let mut last_cum = -1.0;
            for (le, cum, line) in rows {
                if *le <= last_le {
                    return Err(format!("line {line}: {fam} le not strictly ascending"));
                }
                if *cum < last_cum {
                    return Err(format!("line {line}: {fam} bucket counts not cumulative"));
                }
                last_le = *le;
                last_cum = *cum;
            }
            let (inf_le, inf_cum, _) = rows.last().unwrap();
            if !inf_le.is_infinite() {
                return Err(format!(
                    "histogram {fam}{key} is missing an le=\"+Inf\" bucket"
                ));
            }
            if let Some(count) = counts.get(key) {
                if count != inf_cum {
                    return Err(format!(
                        "histogram {fam}{key}: _count {count} != +Inf bucket {inf_cum}"
                    ));
                }
            } else {
                return Err(format!("histogram {fam}{key} is missing _count"));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_validates() {
        let doc = to_prometheus(&crate::family::tests::demo());
        validate_prometheus_text(&doc).expect("writer emits valid exposition text");
        assert!(doc.starts_with(
            "# HELP now_jobs_total Jobs by final status.\n# TYPE now_jobs_total counter\n\
             now_jobs_total{status=\"completed\"} 3\n"
        ));
        assert!(doc.contains("\nnow_jobs_in_flight 0.5\n"));
        assert!(doc.contains("now_op_vt_ns_bucket{op=\"barrier\",le=\"0\"} 1\n"));
        assert!(doc.contains("now_op_vt_ns_bucket{op=\"barrier\",le=\"1023\"} 3\n"));
        assert!(doc.contains("now_op_vt_ns_bucket{op=\"barrier\",le=\"+Inf\"} 5\n"));
        assert!(doc.contains("now_op_vt_ns_count{op=\"barrier\"} 5\n"));
    }

    #[test]
    fn rejects_structural_errors() {
        // No trailing newline.
        assert!(validate_prometheus_text("# TYPE a counter\na 1").is_err());
        // Bad metric name.
        assert!(validate_prometheus_text("# TYPE a counter\n1bad 1\n").is_err());
        // Bad label name.
        assert!(validate_prometheus_text("# TYPE a counter\na{1x=\"y\"} 1\n").is_err());
        // Duplicate series.
        assert!(validate_prometheus_text("# TYPE a counter\na 1\na 2\n").is_err());
        // Unknown type.
        assert!(validate_prometheus_text("# TYPE a widget\n").is_err());
        // TYPE after samples of the family.
        assert!(validate_prometheus_text("a 1\n# TYPE a counter\n").is_err());
        // Duplicate TYPE.
        assert!(validate_prometheus_text("# TYPE a counter\n# TYPE a counter\n").is_err());
        // Missing value.
        assert!(validate_prometheus_text("# TYPE a counter\na{x=\"y\"}\n").is_err());
        // The same documents, well formed, pass.
        validate_prometheus_text("# TYPE a counter\na{x=\"y\"} 1\na 2\n").expect("valid");
    }

    #[test]
    fn rejects_samples_outside_their_familys_group() {
        // A sample with no `# TYPE` at all.
        let e = validate_prometheus_text("a 1\n").unwrap_err();
        assert!(e.contains("has no # TYPE"), "{e}");
        // Declarations first, samples interleaved after them: `a`'s
        // sample follows `b`'s `# TYPE`.
        let d = "# TYPE a counter\n# TYPE b counter\na 1\nb 1\n";
        let e = validate_prometheus_text(d).unwrap_err();
        assert!(e.contains("sample a outside its family's group"), "{e}");
        // A family's samples split by another family's group.
        let d = "# TYPE a counter\na{n=\"0\"} 1\n# TYPE b counter\nb 1\na{n=\"1\"} 1\n";
        assert!(validate_prometheus_text(d).is_err());
        // A histogram's group holds `_bucket`, `_sum` and `_count`; another
        // family's suffix does not belong to it.
        let h = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n";
        validate_prometheus_text(h).expect("histogram group accepted");
        assert!(validate_prometheus_text(&format!("{h}h_total 1\n")).is_err());
        let d = "# TYPE c counter\nc_sum 1\n";
        assert!(validate_prometheus_text(d).is_err());
    }

    #[test]
    fn rejects_histogram_violations() {
        // _bucket without le.
        let d = "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n";
        assert!(validate_prometheus_text(d).is_err());
        // Missing +Inf.
        let d = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 0\nh_count 1\n";
        assert!(validate_prometheus_text(d).is_err());
        // Non-cumulative buckets.
        let d = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 0\nh_count 3\n";
        assert!(validate_prometheus_text(d).is_err());
        // le not ascending.
        let d = "# TYPE h histogram\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 2\n";
        assert!(validate_prometheus_text(d).is_err());
        // _count disagrees with +Inf bucket.
        let d = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 3\n";
        assert!(validate_prometheus_text(d).is_err());
        // Bare sample of a histogram family.
        let d = "# TYPE h histogram\nh 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n";
        assert!(validate_prometheus_text(d).is_err());
        // A correct one passes.
        let d = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n";
        validate_prometheus_text(d).expect("valid histogram accepted");
    }

    #[test]
    fn label_values_are_escaped() {
        let fams = [Family::counter(
            "m",
            "help",
            [(vec![("k", "a\"b\\c\nd".into())], 1)],
        )];
        let doc = to_prometheus(&fams);
        validate_prometheus_text(&doc).expect("escaped labels parse back");
        assert!(doc.contains("m{k=\"a\\\"b\\\\c\\nd\"} 1"));
        let v = crate::json::parse(&crate::to_json(&fams)).unwrap();
        let s = &v.get("families").unwrap().as_arr().unwrap()[0];
        let s = &s.get("samples").unwrap().as_arr().unwrap()[0];
        let k = s.get("labels").unwrap().get("k").unwrap();
        assert_eq!(k.as_str(), Some("a\"b\\c\nd"));
    }
}
