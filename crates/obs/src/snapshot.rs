//! The top-level telemetry snapshot: a metrics registry rendered as one
//! deterministic JSON document.

use crate::json::JsonValue;
use crate::registry::Registry;

/// Format version stamped into every snapshot, bumped on breaking
/// shape changes.
pub const SNAPSHOT_VERSION: u64 = 2;

/// A complete telemetry snapshot.
///
/// # Examples
///
/// ```
/// use flash_obs::{Registry, Snapshot};
///
/// let mut reg = Registry::new();
/// reg.counter_add("flash.reads", 42);
/// let snap = Snapshot::new(reg);
/// let json = snap.to_json();
/// let parsed = flash_obs::json::parse(&json).unwrap();
/// assert_eq!(parsed.path("metrics.flash.reads"), None); // dotted name, single key
/// assert_eq!(
///     parsed.get("metrics").unwrap().get("flash.reads").unwrap().as_u64(),
///     Some(42)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Exported metrics.
    pub registry: Registry,
}

impl Snapshot {
    /// Wraps an exported registry.
    pub fn new(registry: Registry) -> Self {
        Snapshot { registry }
    }

    /// Serializes to a compact JSON string.
    ///
    /// Output is byte-stable for identical inputs: metric names are
    /// sorted and floats use Rust's deterministic shortest-roundtrip
    /// formatting. No wall-clock timestamp is included — snapshots of
    /// deterministic runs must themselves be deterministic.
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![
            ("version".to_string(), JsonValue::UInt(SNAPSHOT_VERSION)),
            ("metrics".to_string(), self.registry.to_json()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn snapshot_roundtrips_through_own_parser() {
        let mut reg = Registry::new();
        reg.counter_add("a.count", 7);
        reg.gauge_set("a.rate", 0.25);
        let mut h = crate::hist::LatencyHistogram::new();
        h.record(100.0);
        reg.histogram_merge("a.latency", &h);
        let text = Snapshot::new(reg).to_json();
        let v = json::parse(&text).expect("snapshot must be valid JSON");
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SNAPSHOT_VERSION));
        assert_eq!(
            v.get("metrics").unwrap().get("a.count").unwrap().as_u64(),
            Some(7)
        );
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["version", "metrics"]);
    }

    #[test]
    fn identical_snapshots_serialize_identically() {
        let build = || {
            let mut reg = Registry::new();
            reg.counter_add("z", 1);
            reg.counter_add("a", 2);
            reg.gauge_set("m", 1.0 / 3.0);
            Snapshot::new(reg).to_json()
        };
        assert_eq!(build(), build());
    }
}
