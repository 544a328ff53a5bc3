//! Flash operation timing and power constants (Table 2 / Table 3).

/// Per-operation latencies in microseconds, by cell mode (Table 2/3 of
/// the paper).
#[derive(Debug)]
pub enum FlashTiming {}

impl FlashTiming {
    /// SLC random page read latency, µs.
    pub const SLC_READ_US: f64 = 25.0;
    /// MLC random page read latency, µs.
    pub const MLC_READ_US: f64 = 50.0;
    /// SLC page program latency, µs.
    pub const SLC_PROGRAM_US: f64 = 200.0;
    /// MLC page program latency, µs.
    pub const MLC_PROGRAM_US: f64 = 680.0;
    /// SLC block erase latency, µs.
    pub const SLC_ERASE_US: f64 = 1500.0;
    /// MLC block erase latency, µs.
    pub const MLC_ERASE_US: f64 = 3300.0;
}

/// Flash power constants (Table 2: 1Gb NAND-SLC at 27mW active, 6µW idle).
#[derive(Debug)]
pub enum FlashPower {}

impl FlashPower {
    /// Power while executing an operation, milliwatts.
    pub const ACTIVE_MW: f64 = 27.0;
    /// Idle power per gigabit of capacity, microwatts.
    pub const IDLE_UW_PER_GBIT: f64 = 6.0;

    /// Energy of one operation lasting `latency_us`, in millijoules.
    pub fn op_energy_mj(latency_us: f64) -> f64 {
        Self::ACTIVE_MW * latency_us / 1e6
    }

    /// Idle power of a device of `capacity_bytes`, in watts.
    pub fn idle_w(capacity_bytes: u64) -> f64 {
        let gbits = capacity_bytes as f64 * 8.0 / 1e9;
        Self::IDLE_UW_PER_GBIT * gbits / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        type T = FlashTiming;
        assert_eq!((T::SLC_READ_US, T::MLC_READ_US), (25.0, 50.0));
        assert_eq!((T::SLC_PROGRAM_US, T::MLC_PROGRAM_US), (200.0, 680.0));
        assert_eq!((T::SLC_ERASE_US, T::MLC_ERASE_US), (1500.0, 3300.0));
    }

    #[test]
    fn slc_is_strictly_faster() {
        type T = FlashTiming;
        for (slc, mlc) in [
            (T::SLC_READ_US, T::MLC_READ_US),
            (T::SLC_PROGRAM_US, T::MLC_PROGRAM_US),
            (T::SLC_ERASE_US, T::MLC_ERASE_US),
        ] {
            assert!(slc < mlc);
        }
    }

    #[test]
    fn op_energy_scales_with_latency() {
        // 200µs program at 27mW = 5.4µJ = 0.0054mJ.
        assert!((FlashPower::op_energy_mj(200.0) - 0.0054).abs() < 1e-9);
        assert_eq!(FlashPower::op_energy_mj(0.0), 0.0);
    }

    #[test]
    fn idle_power_tiny_but_nonzero() {
        let w = FlashPower::idle_w(1 << 30); // 1GiB ≈ 8.6Gb -> ~51.5µW
        let expected = 6e-6 * ((1u64 << 30) as f64 * 8.0 / 1e9);
        assert!((w - expected).abs() < 1e-12);
        assert!(w < 1e-4, "flash idle power must be negligible vs DRAM");
    }
}
