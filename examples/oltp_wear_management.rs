//! OLTP write pressure and flash wear: watch the programmable controller
//! stretch device lifetime compared to a fixed BCH-1 controller.
//!
//! Wear is accelerated (endurance divided by 2e5) so whole-lifetime
//! behaviour is observable in seconds; the *relative* lifetime is
//! invariant under that scaling (§4.1.3 / Figure 12).
//!
//! ```sh
//! cargo run --release -p flashcache --example oltp_wear_management
//! ```

use flashcache::nand::{FlashConfig, FlashGeometry, WearConfig};
use flashcache::{CacheOp, ControllerPolicy, FlashCache, FlashCacheConfig, WorkloadSpec};

fn run_to_failure(policy: ControllerPolicy) -> (u64, flashcache::CacheStats) {
    let config = FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 16,
                pages_per_block: 16,
            },
            wear: WearConfig::default().accelerated(2e5),
            ..FlashConfig::default()
        })
        .controller(policy)
        .build()
        .expect("valid config");
    let mut cache = FlashCache::new(config).expect("valid config");
    let mut generator = WorkloadSpec::financial1().scaled(2048).generator(7);
    let mut accesses = 0u64;
    while !cache.is_dead() && accesses < 50_000_000 {
        let req = generator.next_request();
        for page in req.pages() {
            if req.is_write() {
                cache.op(CacheOp::write(page));
            } else {
                cache.op(CacheOp::read(page));
            }
            accesses += 1;
            if cache.is_dead() {
                break;
            }
        }
    }
    (accesses, cache.stats())
}

fn main() {
    println!("OLTP (Financial1-like) trace against a small flash cache,");
    println!("wear accelerated 200,000x. Running each controller to total");
    println!("flash failure...\n");

    let (bch1, bch1_stats) = run_to_failure(ControllerPolicy::FixedEcc { strength: 1 });
    println!("BCH-1 fixed controller:");
    println!("  lifetime: {bch1} accesses");
    println!("  {bch1_stats}\n");

    let (prog, prog_stats) = run_to_failure(ControllerPolicy::Programmable);
    println!("programmable controller (variable ECC + MLC->SLC):");
    println!("  lifetime: {prog} accesses");
    println!("  {prog_stats}\n");

    println!(
        "lifetime extension: {:.1}x (the paper reports ~20x on average)",
        prog as f64 / bch1.max(1) as f64
    );
}
