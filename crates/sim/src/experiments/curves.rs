//! Figures 6(a) and 6(b): the analytic curves of the ECC accelerator
//! latency model and of the lifetime-vs-code-strength analysis.

use flash_ecc::EccLatencyModel;
use flash_reliability::{CellLifetimeModel, PageLifetimeModel};

/// One row of Figure 6(a): BCH decode latency at strength `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeLatencyPoint {
    /// Correctable errors.
    pub t: usize,
    /// Syndrome stage, µs.
    pub syndrome_us: f64,
    /// Chien search stage, µs.
    pub chien_us: f64,
    /// Total, µs.
    pub total_us: f64,
}

/// One point of Figure 6(a): decode latency at strength `t` on the
/// paper's 100MHz accelerator model. Independent per `t`, so sweep
/// points can be computed in parallel.
pub fn decode_latency_point(t: usize) -> DecodeLatencyPoint {
    let d = EccLatencyModel::decode(t);
    DecodeLatencyPoint {
        t,
        syndrome_us: d.syndrome_us,
        chien_us: d.chien_us,
        total_us: d.total_us(),
    }
}

/// One row of Figure 6(b): max tolerable W/E cycles per spatial-stdev
/// series at a given code strength.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimePoint {
    /// Correctable errors.
    pub t: usize,
    /// Max tolerable W/E cycles for stdev = 0, 5%, 10%, 20% of mean.
    pub cycles_by_stdev: [f64; 4],
}

/// The spatial-variation series of Figure 6(b).
pub const FIG6B_STDEVS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// One point of Figure 6(b): max tolerable cycles at strength `t` for
/// every spatial-variation series. Independent per `t`, so sweep points
/// can be computed in parallel.
pub fn lifetime_point(t: usize) -> LifetimePoint {
    let cell = CellLifetimeModel::figure_calibrated();
    let mut cycles_by_stdev = [0.0; 4];
    for (c, &s) in cycles_by_stdev.iter_mut().zip(FIG6B_STDEVS.iter()) {
        *c = PageLifetimeModel::new(cell)
            .with_spatial_stdev_frac(s)
            .max_tolerable_cycles(t);
    }
    LifetimePoint { t, cycles_by_stdev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_shape() {
        let points: Vec<_> = (2..=11).map(decode_latency_point).collect();
        assert_eq!(points.len(), 10);
        for w in points.windows(2) {
            assert!(w[1].total_us > w[0].total_us);
        }
        // Paper range: tens of µs at t=2 to ~180µs at t=11.
        assert!(points[0].total_us < 60.0);
        assert!((150.0..200.0).contains(&points[9].total_us));
        for p in &points {
            assert!((p.syndrome_us + p.chien_us - p.total_us).abs() < 1e-9);
        }
    }

    #[test]
    fn fig6b_shape() {
        let points: Vec<_> = (0..=10).map(lifetime_point).collect();
        assert_eq!(points.len(), 11);
        // Anchors: ~1e5 at t=0, ~8e6 at t=10 for the stdev=0 series.
        assert!((0.4e5..2.5e5).contains(&points[0].cycles_by_stdev[0]));
        assert!((4e6..1.6e7).contains(&points[10].cycles_by_stdev[0]));
        for p in &points {
            // More spatial variation, lower curve.
            for k in 1..4 {
                assert!(
                    p.cycles_by_stdev[k] <= p.cycles_by_stdev[k - 1] * 1.0001,
                    "t={}: series {k} should not exceed series {}",
                    p.t,
                    k - 1
                );
            }
        }
        // Monotone in t for the clean series.
        for w in points.windows(2) {
            assert!(w[1].cycles_by_stdev[0] > w[0].cycles_by_stdev[0]);
        }
    }
}
