//! Flash operation timing and power constants (Table 2 / Table 3).

/// Per-operation latencies in microseconds, by cell mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTiming {
    /// SLC random page read latency, µs.
    pub slc_read_us: f64,
    /// MLC random page read latency, µs.
    pub mlc_read_us: f64,
    /// SLC page program latency, µs.
    pub slc_program_us: f64,
    /// MLC page program latency, µs.
    pub mlc_program_us: f64,
    /// SLC block erase latency, µs.
    pub slc_erase_us: f64,
    /// MLC block erase latency, µs.
    pub mlc_erase_us: f64,
}

impl Default for FlashTiming {
    fn default() -> Self {
        // Table 2/3 of the paper.
        FlashTiming {
            slc_read_us: 25.0,
            mlc_read_us: 50.0,
            slc_program_us: 200.0,
            mlc_program_us: 680.0,
            slc_erase_us: 1500.0,
            mlc_erase_us: 3300.0,
        }
    }
}

/// Flash power constants (Table 2: 1Gb NAND-SLC at 27mW active, 6µW idle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashPower {
    /// Power while executing an operation, milliwatts.
    pub active_mw: f64,
    /// Idle power per gigabit of capacity, microwatts.
    pub idle_uw_per_gbit: f64,
}

impl Default for FlashPower {
    fn default() -> Self {
        FlashPower {
            active_mw: 27.0,
            idle_uw_per_gbit: 6.0,
        }
    }
}

impl FlashPower {
    /// Energy of one operation lasting `latency_us`, in millijoules.
    pub fn op_energy_mj(&self, latency_us: f64) -> f64 {
        self.active_mw * latency_us / 1e6
    }

    /// Idle power of a device of `capacity_bytes`, in watts.
    pub fn idle_w(&self, capacity_bytes: u64) -> f64 {
        let gbits = capacity_bytes as f64 * 8.0 / 1e9;
        self.idle_uw_per_gbit * gbits / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let t = FlashTiming::default();
        assert_eq!((t.slc_read_us, t.mlc_read_us), (25.0, 50.0));
        assert_eq!((t.slc_program_us, t.mlc_program_us), (200.0, 680.0));
        assert_eq!((t.slc_erase_us, t.mlc_erase_us), (1500.0, 3300.0));
    }

    #[test]
    fn slc_is_strictly_faster() {
        let t = FlashTiming::default();
        assert!(t.slc_read_us < t.mlc_read_us);
        assert!(t.slc_program_us < t.mlc_program_us);
        assert!(t.slc_erase_us < t.mlc_erase_us);
    }

    #[test]
    fn op_energy_scales_with_latency() {
        let p = FlashPower::default();
        // 200µs program at 27mW = 5.4µJ = 0.0054mJ.
        assert!((p.op_energy_mj(200.0) - 0.0054).abs() < 1e-9);
        assert_eq!(p.op_energy_mj(0.0), 0.0);
    }

    #[test]
    fn idle_power_tiny_but_nonzero() {
        let p = FlashPower::default();
        let w = p.idle_w(1 << 30); // 1GiB ≈ 8.6Gb -> ~51.5µW
        let expected = 6e-6 * ((1u64 << 30) as f64 * 8.0 / 1e9);
        assert!((w - expected).abs() < 1e-12);
        assert!(w < 1e-4, "flash idle power must be negligible vs DRAM");
    }
}
