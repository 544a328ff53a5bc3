//! Quickstart: build a flash disk cache, exercise it, inspect what the
//! controller and garbage collector did.
//!
//! ```sh
//! cargo run --release -p flashcache --example quickstart
//! ```

use flashcache::nand::{FlashConfig, FlashGeometry};
use flashcache::{CacheOp, FlashCache, FlashCacheConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64MB (MLC) flash disk cache with the paper's defaults:
    // 90/10 read/write split, MLC-first, programmable controller.
    let config = FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry::for_mlc_capacity(64 << 20),
            ..FlashConfig::default()
        })
        .build()?;
    let mut cache = FlashCache::new(config)?;

    // Cold read: the cache reports that the disk must be consulted and
    // fills itself in the background.
    let first = cache.op(CacheOp::read(1000)).access;
    println!(
        "first read : hit={} needs_disk={} latency={:.0}us",
        first.hit, !first.hit, first.latency_us
    );

    // Warm read: served from flash at MLC read latency + ECC decode.
    let second = cache.op(CacheOp::read(1000)).access;
    println!(
        "second read: hit={} latency={:.0}us (MLC read + BCH decode)",
        second.hit, second.latency_us
    );

    // Writes always go out-of-place into the write region.
    for i in 0..5_000u64 {
        cache.op(CacheOp::write(i % 600));
    }
    // Reads of recently written pages hit the write cache.
    assert!(cache.op(CacheOp::read(42)).access.hit);

    // Re-read one page often enough and the controller migrates it from
    // MLC to a fast SLC page (§5.2.2).
    for _ in 0..20 {
        cache.op(CacheOp::read(1000));
    }
    let hot = cache.op(CacheOp::read(1000)).access;
    println!(
        "hot read   : latency={:.0}us (now SLC: 25us array + decode)",
        hot.latency_us
    );

    println!("\ncache statistics:\n{}", cache.stats());
    println!(
        "\nSLC fraction: {:.2}% of physical pages",
        cache.slc_fraction() * 100.0
    );
    Ok(())
}
