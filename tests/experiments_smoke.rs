//! End-to-end smoke runs of every experiment driver at miniature scale:
//! each figure's code path executes and its headline relationship holds.
//! (Full-scale shape checks live in the drivers' own unit tests and in
//! EXPERIMENTS.md.)

use flashcache::sim::experiments::admission::{run_ablation, AblationParams};
use flashcache::sim::experiments::curves::{decode_latency_curve, lifetime_curve};
use flashcache::sim::experiments::density_partition::{density_partition_curve, MLC_BYTES_PER_MM2};
use flashcache::sim::experiments::driver::{cache_config_for_bytes, half_working_set_bytes};
use flashcache::sim::experiments::ecc_throughput::{ecc_throughput_curve, EccThroughputParams};
use flashcache::sim::experiments::gc_overhead::gc_overhead_curve;
use flashcache::sim::experiments::lifetime::{lifetime_accesses, LifetimeParams};
use flashcache::sim::experiments::power_bandwidth::{power_bandwidth, Fig9Params};
use flashcache::sim::experiments::reconfig_breakdown::{reconfig_breakdown, ReconfigParams};
use flashcache::sim::experiments::split_miss::{split_miss_curve, SplitMissParams};
use flashcache::{ControllerPolicy, FlashCacheConfig, WorkloadSpec};

#[test]
fn fig1b_smoke() {
    let pts = gc_overhead_curve(4 << 20, &[0.4, 0.9], 15_000, 1);
    assert_eq!(pts.len(), 2);
    assert!(pts[1].gc_overhead > pts[0].gc_overhead);
}

#[test]
fn fig4_smoke() {
    let params = SplitMissParams {
        workload: WorkloadSpec::dbt2().scaled(128),
        flash_sizes_bytes: vec![4 << 20],
        warmup_accesses: 30_000,
        measured_accesses: 30_000,
        seed: 2,
    };
    let pts = split_miss_curve(&params);
    assert_eq!(pts.len(), 1);
    assert!(pts[0].unified_miss_rate > 0.0 && pts[0].unified_miss_rate < 1.0);
    assert!(pts[0].split_gc_overhead <= pts[0].unified_gc_overhead + 0.05);
}

#[test]
fn fig6_smoke() {
    let lat = decode_latency_curve(2..=11);
    assert!(lat.last().unwrap().total_us > lat[0].total_us);
    let life = lifetime_curve(10);
    assert!(life[10].cycles_by_stdev[0] > life[0].cycles_by_stdev[0]);
}

#[test]
fn fig7_smoke() {
    let w = WorkloadSpec::financial2().scaled(8);
    let area = w.footprint_bytes() as f64 / MLC_BYTES_PER_MM2; // full WSS
    let pts = density_partition_curve(&w, &[area]);
    assert!(pts[0].latency_us < 200.0);
}

#[test]
fn fig9_smoke() {
    let (base, flash) = power_bandwidth(&Fig9Params::dbt2().scaled(256));
    assert!(flash.report.power_inputs.disk_busy_s <= base.report.power_inputs.disk_busy_s);
    assert!(flash.mem_idle_w < base.mem_idle_w);
}

#[test]
fn fig10_smoke() {
    let params = EccThroughputParams {
        strengths: vec![1, 40],
        requests: 15_000,
        ..EccThroughputParams::paper(WorkloadSpec::specweb99()).scaled(256)
    };
    let pts = ecc_throughput_curve(&params);
    assert!(pts[1].relative_bandwidth <= 1.0 + 1e-9);
}

#[test]
fn fig11_smoke() {
    let params = ReconfigParams {
        scale: 256,
        acceleration: 5e4,
        accesses: 300_000,
        min_events: 50,
        seed: 4,
    };
    let rows = reconfig_breakdown(&[WorkloadSpec::alpha2()], &params);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].ecc_events + rows[0].density_events > 0);
}

#[test]
fn fig12_smoke() {
    let params = LifetimeParams {
        acceleration: 1e6,
        budget: 4_000_000,
        seed: 5,
    };
    let workload = WorkloadSpec::exp2().scaled(4_096);
    let accesses = |controller| {
        let config = FlashCacheConfig {
            controller,
            ..cache_config_for_bytes(half_working_set_bytes(&workload))
        };
        lifetime_accesses(config, &workload, &params).0
    };
    assert!(
        accesses(ControllerPolicy::Programmable)
            > accesses(ControllerPolicy::FixedEcc { strength: 1 })
    );
}

/// The admission ablation's acceptance floors against the split
/// baseline, on a 20k-access trace over a footprint (1 024 pages) the
/// 1 024-slot cache's read region cannot hold, so the gate has evictions
/// to take a bar from; `run_ablation` cross-checks every variant's
/// `check_invariants` after its replay.
#[test]
fn admission_smoke() {
    let rows = run_ablation(&AblationParams {
        workload: WorkloadSpec::alpha1().scaled(256),
        warmup_accesses: 10_000,
        measured_accesses: 20_000,
        ..AblationParams::default()
    });
    let (split, full) = (&rows[1], rows.last().unwrap());
    assert_eq!(split.variant, "split");
    assert_eq!(full.variant, "split+admission");
    assert!(
        full.flash_bytes_written < split.flash_bytes_written,
        "admission must reduce flash bytes written: {} vs split {}",
        full.flash_bytes_written,
        split.flash_bytes_written
    );
    let lifetime = full.lifetime_vs(split);
    assert!(
        lifetime > 1.0,
        "projected lifetime must improve vs split: {lifetime:.3}x"
    );
    assert!(
        full.read_miss_rate < split.read_miss_rate + 0.02,
        "read miss rate must stay within 2 points of split: {:.4} vs {:.4}",
        full.read_miss_rate,
        split.read_miss_rate
    );
}
