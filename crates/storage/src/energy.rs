//! Activity accounting used by the simulator to turn per-device busy
//! time and traffic into the average-power breakdowns of Figure 9.

/// Busy-time and byte-count tracker for one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActivityTracker {
    /// Seconds the device spent actively servicing requests.
    pub busy_s: f64,
    /// Bytes read from the device.
    pub read_bytes: u64,
    /// Bytes written to the device.
    pub write_bytes: u64,
}

impl ActivityTracker {
    /// Records one operation of `bytes` that kept the device busy for
    /// `seconds`; `is_write` selects the byte counter.
    pub fn record(&mut self, seconds: f64, bytes: u64, is_write: bool) {
        assert!(seconds >= 0.0, "negative busy time");
        self.busy_s += seconds;
        if is_write {
            self.write_bytes += bytes;
        } else {
            self.read_bytes += bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_reads_and_writes() {
        let mut t = ActivityTracker::default();
        t.record(0.5, 100, false);
        t.record(0.25, 200, true);
        assert_eq!(t.read_bytes, 100);
        assert_eq!(t.write_bytes, 200);
        assert!((t.busy_s - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative busy time")]
    fn rejects_negative_busy_time() {
        ActivityTracker::default().record(-1.0, 0, false);
    }
}
