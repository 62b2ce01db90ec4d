//! A small metrics registry: the named counters and gauges that
//! `pearl-serve` renders at `GET /metrics`.
//!
//! The registry is deliberately simple — string-keyed `BTreeMap`s, so a
//! [`MetricsSnapshot`] lists each kind sorted by name and two
//! expositions of the same state are byte-identical.

use std::collections::BTreeMap;

/// Named counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero.
    pub fn incr(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// A stable, sorted snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = MetricsRegistry::new();
        r.incr("retx", 2);
        r.incr("retx", 3);
        assert_eq!(r.snapshot().counters, [("retx".to_string(), 5)]);
        r.incr("retx", u64::MAX);
        assert_eq!(r.snapshot().counters, [("retx".to_string(), u64::MAX)]);
    }

    #[test]
    fn gauges_take_last_write() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("beta", 0.25);
        r.set_gauge("beta", 0.75);
        assert_eq!(r.snapshot().gauges, [("beta".to_string(), 0.75)]);
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let mut r = MetricsRegistry::new();
        r.incr("zeta", 1);
        r.incr("alpha", 2);
        r.set_gauge("mid", 0.5);
        r.set_gauge("low", 0.25);
        let snap = r.snapshot();
        assert_eq!(snap.counters, [("alpha".to_string(), 2), ("zeta".to_string(), 1)]);
        assert_eq!(snap.gauges, [("low".to_string(), 0.25), ("mid".to_string(), 0.5)]);
    }
}
