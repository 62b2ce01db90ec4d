//! Prometheus text exposition of a [`MetricsSnapshot`].
//!
//! The live introspection plane serves `GET /metrics` in the standard
//! text format (version 0.0.4) so any off-the-shelf scraper can watch a
//! running daemon. The renderer is deliberately small: the snapshot's
//! counters and gauges map directly onto `counter` and `gauge` samples,
//! with no labels.
//!
//! Registry names like `serve.queue.depth` are not valid metric names,
//! so [`sanitize_metric_name`] maps every illegal character to `_`.
//! Output order is the snapshot's order — sorted by name — so two
//! expositions of the same snapshot are byte-identical, diffable and
//! cacheable.

use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Maps a registry name onto a legal Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Every illegal character becomes `_`, and
/// a leading digit is shielded with `_`. An empty name becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal || c.is_ascii_digit() { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders a float sample value, using the exposition spellings for the
/// non-finite cases.
fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the snapshot in the Prometheus text exposition format:
/// counters, then gauges, each preceded by its `# TYPE` line, in the
/// snapshot's (sorted) order.
pub fn prometheus_exposition(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", sample_value(*value));
    }
    out
}

/// Validates text against the exposition grammar this module emits (a
/// practical subset of the format): every line is a `# TYPE`/`# HELP`
/// comment or a `name[{labels}] value` sample with a legal name, legal
/// quoted labels and a parseable value.
///
/// # Errors
///
/// `(1-based line number, reason)` for the first malformed line.
pub fn validate_exposition(text: &str) -> Result<(), (usize, String)> {
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let rest = comment.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err((lineno, format!("comment is neither TYPE nor HELP: {line:?}")));
            }
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !is_metric_name(name) {
                    return Err((lineno, format!("bad metric name in TYPE: {name:?}")));
                }
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return Err((lineno, format!("bad metric type: {kind:?}")));
                }
            }
            continue;
        }
        validate_sample(line).map_err(|reason| (lineno, reason))?;
    }
    Ok(())
}

/// True when `name` matches `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates one sample line: `name[{label="value",...}] value`.
fn validate_sample(line: &str) -> Result<(), String> {
    let name_end = line.find(['{', ' ']).unwrap_or(line.len());
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(format!("bad metric name: {name:?}"));
    }
    let mut rest = &line[name_end..];
    if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}').ok_or("unterminated label set")?;
        for pair in body[..close].split(',').filter(|p| !p.is_empty()) {
            let (label, value) = pair.split_once('=').ok_or(format!("bad label pair: {pair:?}"))?;
            if !is_metric_name(label) {
                return Err(format!("bad label name: {label:?}"));
            }
            if !(value.len() >= 2 && value.starts_with('"') && value.ends_with('"')) {
                return Err(format!("unquoted label value: {value:?}"));
            }
        }
        rest = &body[close + 1..];
    }
    let value = rest.trim_start();
    if matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok() {
        Ok(())
    } else {
        Err(format!("unparseable sample value: {value:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("events.retransmission"), "events_retransmission");
        assert_eq!(sanitize_metric_name("disk.crash-points"), "disk_crash_points");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok:name_1"), "ok:name_1");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn exposition_is_stable_and_format_valid() {
        let mut r = MetricsRegistry::new();
        r.incr("events.retransmission", 5);
        r.incr("jobs.completed", 2);
        r.set_gauge("queue.depth", 3.0);
        let snap = r.snapshot();
        let a = prometheus_exposition(&snap);
        let b = prometheus_exposition(&snap);
        assert_eq!(a, b, "same snapshot renders byte-identically");
        validate_exposition(&a).unwrap();
        assert!(a.contains("# TYPE events_retransmission counter\nevents_retransmission 5\n"));
        assert!(a.contains("# TYPE queue_depth gauge\nqueue_depth 3\n"));
        // Sorted snapshot order: events.* before jobs.*.
        assert!(
            a.find("events_retransmission").unwrap() < a.find("jobs_completed").unwrap(),
            "counters render in sorted order"
        );
    }

    #[test]
    fn every_metric_appears_exactly_once() {
        let mut r = MetricsRegistry::new();
        for name in ["a.count", "b.count", "z.count"] {
            r.incr(name, 1);
        }
        r.set_gauge("g.one", 1.0);
        let snap = r.snapshot();
        let text = prometheus_exposition(&snap);
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(samples.len(), 4, "3 counters + 1 gauge");
        for (name, _) in &snap.counters {
            let sanitized = sanitize_metric_name(name);
            let count = samples
                .iter()
                .filter(|l| l.split([' ', '{']).next() == Some(sanitized.as_str()))
                .count();
            assert_eq!(count, 1, "counter {name} appears exactly once");
        }
        for (name, _) in &snap.gauges {
            let sanitized = sanitize_metric_name(name);
            let count = samples
                .iter()
                .filter(|l| l.split([' ', '{']).next() == Some(sanitized.as_str()))
                .count();
            assert_eq!(count, 1, "gauge {name} appears exactly once");
        }
    }

    #[test]
    fn non_finite_values_use_exposition_spellings() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("weird.nan", f64::NAN);
        r.set_gauge("weird.pinf", f64::INFINITY);
        r.set_gauge("weird.ninf", f64::NEG_INFINITY);
        let text = prometheus_exposition(&r.snapshot());
        validate_exposition(&text).unwrap();
        assert!(text.contains("weird_nan NaN\n"));
        assert!(text.contains("weird_pinf +Inf\n"));
        assert!(text.contains("weird_ninf -Inf\n"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("9bad 1\n").is_err());
        assert!(validate_exposition("ok{unterminated=\"x\" 1\n").is_err());
        assert!(validate_exposition("ok{l=unquoted} 1\n").is_err());
        assert!(validate_exposition("ok notanumber\n").is_err());
        assert!(validate_exposition("# BOGUS comment\n").is_err());
        assert!(validate_exposition("# TYPE ok frobnicator\n").is_err());
        validate_exposition("# TYPE ok counter\nok 1\n").unwrap();
    }
}
