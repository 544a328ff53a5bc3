//! Activity accounting used by the simulator to turn per-device busy
//! time into the average-power breakdowns of Figure 9.

/// Busy-time tracker for one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActivityTracker {
    /// Seconds the device spent actively servicing requests.
    pub busy_s: f64,
}

impl ActivityTracker {
    /// Records one operation that kept the device busy for `seconds`.
    pub fn record(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "negative busy time");
        self.busy_s += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_reads_and_writes() {
        // A disk read, then a write-back: only their busy time is kept.
        let mut t = ActivityTracker::default();
        t.record(0.5);
        t.record(0.25);
        assert!((t.busy_s - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative busy time")]
    fn rejects_negative_busy_time() {
        ActivityTracker::default().record(-1.0);
    }
}
