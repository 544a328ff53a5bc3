//! A lightweight, dependency-free metrics registry: named monotonic
//! counters, gauges, and latency histograms.
//!
//! The registry is a snapshot-time container, not a hot-path
//! abstraction: components keep their own cheap plain-struct counters
//! (e.g. `CacheStats`) and *export* them into a registry when a
//! snapshot is taken. Names are dotted paths (`flash.reads`,
//! `hierarchy.request_latency`). Metrics live in a name-keyed
//! `BTreeMap`; iteration and serialization walk the map, so snapshot
//! bytes stay deterministic (name-sorted) regardless of registration
//! order.

use std::collections::BTreeMap;

use crate::hist::LatencyHistogram;
use crate::json::JsonValue;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic event count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A latency distribution.
    Histogram(LatencyHistogram),
}

impl Metric {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&LatencyHistogram> {
        match self {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            Metric::Counter(v) => JsonValue::UInt(*v),
            Metric::Gauge(v) => JsonValue::Number(*v),
            Metric::Histogram(h) => JsonValue::Object(vec![
                ("count".to_string(), JsonValue::UInt(h.count())),
                ("mean_us".to_string(), JsonValue::Number(h.mean_us())),
                ("min_us".to_string(), JsonValue::Number(h.min_us())),
                (
                    "p50_us".to_string(),
                    JsonValue::Number(h.percentile_us(0.50)),
                ),
                (
                    "p90_us".to_string(),
                    JsonValue::Number(h.percentile_us(0.90)),
                ),
                (
                    "p99_us".to_string(),
                    JsonValue::Number(h.percentile_us(0.99)),
                ),
                ("max_us".to_string(), JsonValue::Number(h.max_us())),
            ]),
        }
    }
}

/// A named collection of metrics with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The metric registered under `name`, created with `init` if
    /// absent. The name is copied only on first registration.
    fn entry(&mut self, name: &str, init: impl FnOnce() -> Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), init());
        }
        self.metrics.get_mut(name).expect("inserted above")
    }

    /// Adds `delta` to the named counter (created at 0).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.entry(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Sets the named gauge (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.entry(name, || Metric::Gauge(value)) {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Merges a histogram into the named histogram metric.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn histogram_merge(&mut self, name: &str, h: &LatencyHistogram) {
        match self.entry(name, || Metric::Histogram(LatencyHistogram::new())) {
            Metric::Histogram(existing) => existing.merge(h),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).and_then(Metric::as_counter).unwrap_or(0)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other's value, histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (name, metric) in other.iter() {
            match metric {
                Metric::Counter(v) => self.counter_add(name, *v),
                Metric::Gauge(v) => self.gauge_set(name, *v),
                Metric::Histogram(h) => self.histogram_merge(name, h),
            }
        }
    }

    /// Serializes every metric, sorted by name.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("flash.reads", 3);
        r.counter_add("flash.reads", 4);
        assert_eq!(r.counter("flash.reads"), 7);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = Registry::new();
        r.gauge_set("cache.occupancy", 0.5);
        r.gauge_set("cache.occupancy", 0.75);
        assert_eq!(r.get("cache.occupancy").unwrap().as_gauge(), Some(0.75));
    }

    #[test]
    fn histograms_merge() {
        let mut h = LatencyHistogram::new();
        h.record(10.0);
        let mut r = Registry::new();
        r.histogram_merge("latency", &h);
        r.histogram_merge("latency", &h);
        assert_eq!(r.get("latency").unwrap().as_histogram().unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_conflicts_panic() {
        let mut r = Registry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 1);
    }

    #[test]
    fn merge_combines_registries() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 1.0);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 2.0);
        let mut h = LatencyHistogram::new();
        h.record(5.0);
        b.histogram_merge("h", &h);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.get("g").unwrap().as_gauge(), Some(2.0));
        assert_eq!(a.get("h").unwrap().as_histogram().unwrap().count(), 1);
    }

    #[test]
    fn json_is_sorted_by_name() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 2);
        assert_eq!(r.to_json().render(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn equality_ignores_registration_order() {
        let mut a = Registry::new();
        a.counter_add("x", 1);
        a.counter_add("y", 2);
        let mut b = Registry::new();
        b.counter_add("y", 2);
        b.counter_add("x", 1);
        assert_eq!(a, b);
        b.counter_add("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn gauge_over_counter_panics() {
        let mut r = Registry::new();
        r.counter_add("x", 1);
        r.gauge_set("x", 1.0);
    }
}
