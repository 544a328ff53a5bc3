//! DDR2 DRAM timing and power model.
//!
//! Constants follow Table 2 of the paper (1Gb DDR2 device: 878mW active,
//! 80mW active-standby idle, 55ns access) and the
//! Micron system-power-calculator methodology the paper cites: power is
//! the idle floor of the populated DIMMs plus read/write activity terms
//! proportional to bandwidth utilization.

/// Capacity of the reference DDR2 device in bits (1Gb).
pub const REFERENCE_DEVICE_BITS: u64 = 1 << 30;

/// DDR2 DRAM timing and power constants (Table 2/3 of the paper).
#[derive(Debug)]
pub enum DramModel {}

/// Split of DRAM power into the components reported in Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramPowerBreakdown {
    /// Power attributable to reads, watts.
    pub read_w: f64,
    /// Power attributable to writes, watts.
    pub write_w: f64,
    /// Idle (standby/refresh) power of the populated capacity, watts.
    pub idle_w: f64,
}

impl DramPowerBreakdown {
    /// Total DRAM power in watts.
    pub fn total_w(&self) -> f64 {
        self.read_w + self.write_w + self.idle_w
    }
}

impl DramModel {
    /// Row-cycle-limited random access latency, ns (Table 3: tRC = 50ns).
    pub const ACCESS_LATENCY_NS: f64 = 50.0;
    /// Peak transfer bandwidth per channel, bytes/s (DDR2-667: ~5.3GB/s).
    pub const PEAK_BANDWIDTH_BYTES_PER_S: f64 = 5.3e9;
    /// Active (read or write streaming) power of a 1Gb device, mW.
    pub const ACTIVE_MW_PER_GBIT: f64 = 878.0;
    /// Idle power of a 1Gb device in active-standby mode, mW.
    pub const IDLE_MW_PER_GBIT: f64 = 80.0;

    /// Latency to service a random access of `bytes` from DRAM, in
    /// microseconds: one row cycle plus streaming at peak bandwidth.
    pub const fn access_latency_us(bytes: u64) -> f64 {
        Self::ACCESS_LATENCY_NS / 1000.0 + bytes as f64 / Self::PEAK_BANDWIDTH_BYTES_PER_S * 1e6
    }

    /// Power breakdown for a DRAM of `capacity_bytes` observing
    /// `read_bytes`/`write_bytes` of traffic over `elapsed_s` seconds.
    ///
    /// The activity terms charge the *active-minus-idle* increment for
    /// the time the devices spend bursting, so `idle_w` is always the
    /// full standby floor of the populated capacity (how the Micron
    /// calculator and Figure 9 split it).
    ///
    /// # Panics
    ///
    /// Panics if `elapsed_s` is not positive.
    pub fn power_breakdown(
        capacity_bytes: u64,
        read_bytes: u64,
        write_bytes: u64,
        elapsed_s: f64,
    ) -> DramPowerBreakdown {
        assert!(elapsed_s > 0.0, "elapsed time must be positive");
        // Number of 1Gb reference devices populating the capacity.
        let devices = (capacity_bytes as f64 * 8.0) / REFERENCE_DEVICE_BITS as f64;
        let active_increment_mw = Self::ACTIVE_MW_PER_GBIT - Self::IDLE_MW_PER_GBIT;
        // Fraction of wall time the array spends bursting reads/writes.
        // One rank bursts at a time, so the increment applies to a single
        // device-row's worth of width; scale by a fixed rank width of 8
        // devices (64-bit channel of x8 parts).
        let rank_devices = 8.0f64.min(devices.max(1.0));
        let bandwidth = Self::PEAK_BANDWIDTH_BYTES_PER_S;
        let read_frac = (read_bytes as f64 / bandwidth / elapsed_s).min(1.0);
        let write_frac = (write_bytes as f64 / bandwidth / elapsed_s).min(1.0);
        DramPowerBreakdown {
            read_w: active_increment_mw * rank_devices * read_frac / 1000.0,
            write_w: active_increment_mw * rank_devices * write_frac / 1000.0,
            idle_w: Self::IDLE_MW_PER_GBIT * devices / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn latency_dominated_by_trc_for_small_access() {
        let lat = DramModel::access_latency_us(64);
        assert!((0.05..0.07).contains(&lat), "{lat}");
        // 2KB page adds measurable streaming time.
        assert!(DramModel::access_latency_us(2048) > lat);
    }

    #[test]
    fn idle_power_scales_with_capacity() {
        let p512 = DramModel::power_breakdown(512 * MIB, 0, 0, 1.0);
        let p256 = DramModel::power_breakdown(256 * MIB, 0, 0, 1.0);
        assert!((p512.idle_w / p256.idle_w - 2.0).abs() < 1e-9);
        assert_eq!(p512.read_w, 0.0);
        assert_eq!(p512.write_w, 0.0);
        // 512MB = 4 x 1Gb devices: idle = 4 * 80mW = 0.32W.
        assert!((p512.idle_w - 0.32).abs() < 1e-9);
    }

    #[test]
    fn activity_power_increases_with_traffic() {
        let quiet = DramModel::power_breakdown(512 * MIB, 100 * MIB, 0, 1.0);
        let busy = DramModel::power_breakdown(512 * MIB, 1000 * MIB, 0, 1.0);
        assert!(busy.read_w > quiet.read_w);
        assert_eq!(busy.write_w, 0.0);
        assert!(busy.total_w() > quiet.total_w());
    }

    #[test]
    fn activity_power_saturates_at_peak_bandwidth() {
        let sat = DramModel::power_breakdown(512 * MIB, u64::MAX / 2, 0, 1.0);
        // Increment capped at one rank's active-idle delta.
        let cap = (DramModel::ACTIVE_MW_PER_GBIT - DramModel::IDLE_MW_PER_GBIT) * 4.0 / 1000.0;
        assert!(sat.read_w <= cap + 1e-9);
    }

    #[test]
    #[should_panic(expected = "elapsed time must be positive")]
    fn rejects_zero_elapsed() {
        DramModel::power_breakdown(MIB, 0, 0, 0.0);
    }
}
