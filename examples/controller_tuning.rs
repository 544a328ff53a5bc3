//! Tuning the programmable controller: how the hot-page promotion
//! threshold trades SLC capacity against hit latency, and what each
//! policy ablation gives up.
//!
//! ```sh
//! cargo run --release -p flashcache --example controller_tuning
//! ```

use flashcache::nand::{FlashConfig, FlashGeometry};
use flashcache::{CacheOp, ControllerPolicy, FlashCache, FlashCacheConfig, WorkloadSpec};

fn run(config: FlashCacheConfig, label: &str) {
    let mut cache = FlashCache::new(config).expect("valid config");
    let mut generator = WorkloadSpec::alpha2().scaled(256).generator(11);
    // Warm, then measure.
    for phase in 0..2 {
        if phase == 1 {
            cache.reset_stats();
        }
        let mut n = 0u64;
        while n < 400_000 {
            let req = generator.next_request();
            for page in req.pages() {
                if req.is_write() {
                    cache.op(CacheOp::write(page));
                } else {
                    cache.op(CacheOp::read(page));
                }
                n += 1;
            }
        }
    }
    let s = cache.stats();
    let avg_hit_us = if s.read_hits > 0 {
        s.foreground_us / s.read_hits as f64
    } else {
        0.0
    };
    println!(
        "{label:<28} read miss {:>5.1}%  avg hit {:>6.1}us  SLC {:>5.1}%  promotions {:>6}",
        s.read_miss_rate() * 100.0,
        avg_hit_us,
        cache.slc_fraction() * 100.0,
        s.hot_promotions
    );
}

fn main() {
    let base = || {
        FlashCacheConfig::builder().flash(FlashConfig {
            geometry: FlashGeometry::for_mlc_capacity(4 << 20),
            ..FlashConfig::default()
        })
    };

    println!("Zipf(1.2) workload, 4MB flash (2MB working set)\n");
    println!("-- hot-promotion threshold sweep (lower = more eager SLC)");
    for threshold in [2u8, 4, 8, 16, 64] {
        let c = base().hot_threshold(threshold).build();
        run(
            c.expect("valid threshold"),
            &format!("hot_threshold = {threshold}"),
        );
    }

    // The policy alone sets the ECC strength: fixed BCH-1 programs every
    // page at 1, ECC only and programmable may raise it to 12.
    println!("\n-- controller policy ablation");
    for (name, policy) in [
        ("programmable", ControllerPolicy::Programmable),
        ("ECC only", ControllerPolicy::EccOnly),
        ("density only", ControllerPolicy::DensityOnly),
        ("fixed BCH-1", ControllerPolicy::FixedEcc { strength: 1 }),
    ] {
        run(
            base().controller(policy).build().expect("valid policy"),
            name,
        );
    }
}
