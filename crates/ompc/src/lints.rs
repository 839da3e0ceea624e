//! Lint catalog for the static analyzer (`--analyze`).
//!
//! Every finding of [`crate::analyze`] is a [`Lint`]: a stable code
//! (`OMP201`..`OMP206`), a severity [`LintLevel`], the source [`Span`]
//! it points at, and — for pairwise findings such as races — the span of
//! the second access involved. Lints render human-readable through
//! [`std::fmt::Display`] and machine-readable through [`Lint::to_json`].

use crate::diag::Span;
use now_metrics::json::escape;
use std::fmt;

/// Stable identity of an analyzer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `OMP201`: a shared variable is written concurrently by multiple
    /// threads (or task instances) with no protecting `critical`,
    /// `single` or `reduction`.
    SharedWriteRace,
    /// `OMP202`: a shared read and a shared write of the same location
    /// are unordered — no barrier separates them on any path.
    ReadWriteRace,
    /// `OMP203`: a reduction variable is read or written outside its
    /// combining operation while the reduction is active.
    ReductionMisuse,
    /// `OMP204`: a thread-dependent value held in a `private`/
    /// `firstprivate` copy flows into shared storage unprotected.
    PrivateEscape,
    /// `OMP205`: two `critical` sections nest in conflicting orders on
    /// different paths — a lock-order deadlock.
    LockOrder,
    /// `OMP206`: a barrier or `critical` that orders or protects no
    /// shared access (dead synchronization; costs traffic for nothing).
    DeadSync,
}

impl LintCode {
    /// The stable `OMPnnn` code used in output and tests.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::SharedWriteRace => "OMP201",
            LintCode::ReadWriteRace => "OMP202",
            LintCode::ReductionMisuse => "OMP203",
            LintCode::PrivateEscape => "OMP204",
            LintCode::LockOrder => "OMP205",
            LintCode::DeadSync => "OMP206",
        }
    }

    /// Short kebab-case name of the check.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::SharedWriteRace => "shared-write-race",
            LintCode::ReadWriteRace => "read-write-race",
            LintCode::ReductionMisuse => "reduction-misuse",
            LintCode::PrivateEscape => "private-escape",
            LintCode::LockOrder => "lock-order",
            LintCode::DeadSync => "dead-sync",
        }
    }

    /// Race-class lints (`OMP201`..`OMP204`) are promoted to
    /// [`LintLevel::Deny`] under `--deny-races`; the two structural
    /// lints (`OMP205`, `OMP206`) always stay warnings.
    pub fn is_race_class(self) -> bool {
        matches!(
            self,
            LintCode::SharedWriteRace
                | LintCode::ReadWriteRace
                | LintCode::ReductionMisuse
                | LintCode::PrivateEscape
        )
    }
}

/// Severity of a reported lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintLevel {
    /// Suppressed (kept in the report for JSON consumers).
    Allow,
    /// Reported, does not fail the build.
    Warn,
    /// Reported and fatal (`--deny-races`, service admission).
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warning",
            LintLevel::Deny => "error",
        })
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Which check fired.
    pub code: LintCode,
    /// Severity it was reported at.
    pub level: LintLevel,
    /// Primary source location (for races: the write).
    pub span: Span,
    /// Secondary location for pairwise findings (for races: the other
    /// access), with a short label describing its role.
    pub related: Option<(Span, String)>,
    /// Human-readable description.
    pub msg: String,
}

impl Lint {
    pub(crate) fn new(code: LintCode, span: Span, msg: impl Into<String>) -> Self {
        Lint {
            code,
            level: LintLevel::Warn,
            span,
            related: None,
            msg: msg.into(),
        }
    }

    pub(crate) fn with_related(mut self, span: Span, label: impl Into<String>) -> Self {
        self.related = Some((span, label.into()));
        self
    }

    /// This finding as one JSON object (stable keys: `code`, `name`,
    /// `level`, `line`, `col`, `msg`, optional `related`).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"name\":\"{}\",\"level\":\"{}\",\"line\":{},\"col\":{},\"msg\":\"{}\"",
            self.code.code(),
            self.code.name(),
            self.level,
            self.span.line,
            self.span.col,
            escape(&self.msg),
        );
        if let Some((rs, label)) = &self.related {
            s.push_str(&format!(
                ",\"related\":{{\"line\":{},\"col\":{},\"label\":\"{}\"}}",
                rs.line,
                rs.col,
                escape(label)
            ));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.level,
            self.code.code(),
            self.msg,
            self.span
        )?;
        if let Some((rs, label)) = &self.related {
            write!(f, "; {label} at {rs}")?;
        }
        Ok(())
    }
}

/// Render a lint list as a JSON array (one line, stable ordering).
pub fn lints_to_json(lints: &[Lint]) -> String {
    let mut s = String::from("[");
    for (i, l) in lints.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&l.to_json());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_escapes_and_renders() {
        let l = Lint::new(LintCode::SharedWriteRace, Span::new(3, 7), "write to \"g\"")
            .with_related(Span::new(4, 1), "concurrent read");
        let j = l.to_json();
        assert!(j.contains("\"code\":\"OMP201\""));
        assert!(j.contains("\\\"g\\\""));
        assert!(j.contains("\"related\":{\"line\":4,\"col\":1,"));
        let arr = lints_to_json(&[l.clone(), l]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }
}
