//! Hard disk drive timing and power model.
//!
//! The paper's simulator uses a 4.2ms average access latency IDE disk
//! (Table 3, the Hitachi Travelstar 7K60 laptop drive) and quotes a
//! 750GB desktop drive (Seagate Barracuda) in Table 2 at 13W active /
//! 9.3W idle. Both profiles are provided; the methodology section says
//! laptop-drive power numbers were used because the simulated disks are
//! small, so [`HddModel::travelstar`] is the default.

/// A hard disk drive model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HddModel {
    /// Average random access latency (seek + rotation), microseconds.
    pub avg_access_latency_us: f64,
    /// Sustained media transfer rate, bytes per second.
    pub transfer_bytes_per_s: f64,
    /// Power while seeking/transferring, watts.
    pub active_w: f64,
    /// Power while spinning idle, watts.
    pub idle_w: f64,
}

impl HddModel {
    /// The Hitachi Travelstar 7K60 2.5" laptop profile used by the
    /// paper's power evaluation: ~2.5W active, ~0.85W idle.
    pub const fn travelstar() -> Self {
        HddModel {
            avg_access_latency_us: 4200.0,
            transfer_bytes_per_s: 44e6,
            active_w: 2.5,
            idle_w: 0.85,
        }
    }

    /// The Seagate Barracuda 750GB desktop profile of Table 2:
    /// 13W active, 9.3W idle, 8.5ms average read access.
    pub fn barracuda() -> Self {
        HddModel {
            avg_access_latency_us: 8500.0,
            transfer_bytes_per_s: 78e6,
            active_w: 13.0,
            idle_w: 9.3,
        }
    }

    /// Latency in microseconds to service one random request of `bytes`.
    pub fn access_latency_us(&self, bytes: u64) -> f64 {
        self.avg_access_latency_us + bytes as f64 / self.transfer_bytes_per_s * 1e6
    }

    /// Average power over an interval where the disk was busy for
    /// `busy_s` out of `elapsed_s` seconds (idle the rest).
    ///
    /// # Panics
    ///
    /// Panics if `elapsed_s` is not positive or `busy_s` is negative.
    pub fn average_power_w(&self, busy_s: f64, elapsed_s: f64) -> f64 {
        assert!(elapsed_s > 0.0, "elapsed time must be positive");
        assert!(busy_s >= 0.0, "busy time must be non-negative");
        let busy_frac = (busy_s / elapsed_s).min(1.0);
        self.active_w * busy_frac + self.idle_w * (1.0 - busy_frac)
    }
}

impl Default for HddModel {
    fn default() -> Self {
        HddModel::travelstar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_laptop_profile() {
        let d = HddModel::default();
        assert_eq!(d, HddModel::travelstar());
        assert!((d.avg_access_latency_us - 4200.0).abs() < 1e-9);
    }

    #[test]
    fn access_latency_includes_transfer() {
        let d = HddModel::travelstar();
        let small = d.access_latency_us(512);
        let big = d.access_latency_us(1 << 20);
        assert!(small < big);
        // A 1MB transfer at 44MB/s adds ~23.8ms.
        assert!((big - small - 23831.0).abs() < 100.0);
    }

    #[test]
    fn average_power_interpolates_between_states() {
        let d = HddModel::barracuda();
        assert!((d.average_power_w(0.0, 10.0) - d.idle_w).abs() < 1e-12);
        assert!((d.average_power_w(10.0, 10.0) - d.active_w).abs() < 1e-12);
        let half = d.average_power_w(5.0, 10.0);
        assert!((half - (d.active_w + d.idle_w) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn busy_fraction_saturates() {
        let d = HddModel::travelstar();
        assert!((d.average_power_w(20.0, 10.0) - d.active_w).abs() < 1e-12);
    }

    #[test]
    fn state_power_ordering() {
        for d in [HddModel::travelstar(), HddModel::barracuda()] {
            assert!(d.active_w > d.idle_w && d.idle_w > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "elapsed time must be positive")]
    fn rejects_bad_interval() {
        HddModel::default().average_power_w(1.0, 0.0);
    }
}
