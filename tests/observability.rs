//! End-to-end observability on the pull route: a seeded workload is
//! replayed through the full hierarchy, and `Hierarchy::obs_snapshot`
//! (the hierarchy's `export_metrics` merged with its flash engine's) must
//! (a) parse with the crate's own parser, (b) reconcile across layers,
//! and (c) be byte-identical across two runs at the same seed.

use flashcache::nand::{FlashConfig, FlashGeometry, WearConfig};
use flashcache::obs::json;
use flashcache::sim::hierarchy::{Hierarchy, HierarchyConfig};
use flashcache::{ControllerPolicy, FlashCacheConfig, WorkloadSpec};

const REQUESTS: u64 = 20_000;

/// A small, heavily worn flash cache so GC, wear-levelling and the
/// programmable controller all fire within a short run.
fn obs_flash() -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 32,
                pages_per_block: 16,
            },
            wear: WearConfig::default().accelerated(2e5),
            ..FlashConfig::default()
        },
        controller: ControllerPolicy::Programmable,
        ..FlashCacheConfig::default()
    }
}

/// Runs the seeded workload over `shards` flash shards and returns the
/// snapshot JSON.
fn run_snapshot(seed: u64, shards: usize) -> String {
    let mut hierarchy = Hierarchy::new(HierarchyConfig {
        dram_bytes: 256 * 2048,
        flash: Some(obs_flash()),
        flash_shards: shards,
        ..HierarchyConfig::default()
    });
    let workload = WorkloadSpec::dbt2().scaled(1024);
    let mut generator = workload.generator(seed);
    for _ in 0..REQUESTS {
        hierarchy.submit(generator.next_request());
    }
    hierarchy.drain();
    hierarchy.obs_snapshot().to_json()
}

fn counter(doc: &json::JsonValue, name: &str) -> u64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(json::JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing counter `{name}`"))
}

#[test]
fn snapshot_parses_and_reconciles() {
    for shards in [1, 4] {
        let raw = run_snapshot(0x1507_2008, shards);
        let doc = json::parse(&raw).expect("snapshot must parse with the crate's own parser");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["version", "metrics"]);
        assert_eq!(
            doc.get("version").and_then(json::JsonValue::as_u64),
            Some(2)
        );

        // The run actually exercised the stack.
        assert_eq!(counter(&doc, "hierarchy.requests"), REQUESTS);
        let reads = counter(&doc, "flash.reads");
        assert!(reads > 0, "flash saw no reads");
        assert_eq!(
            reads,
            counter(&doc, "flash.read_hits") + counter(&doc, "flash.read_misses")
        );
        assert!(counter(&doc, "flash.erases") > 0, "no GC in a worn cache?");
        assert!(counter(&doc, "flash.reconfig_ecc") > 0, "no §5.2 response?");

        // Cache and device count the same operations: each device
        // operation has exactly one call site in the cache (the read hit
        // and `relocate_pages` for reads, `program_slot` for programs,
        // `erase_block_internal` for erases), and that site counts it.
        for (cache, device) in [
            ("flash.flash_reads", "nand.reads"),
            ("flash.flash_programs", "nand.programs"),
            ("flash.erases", "nand.erases"),
        ] {
            assert_eq!(
                counter(&doc, cache),
                counter(&doc, device),
                "{cache} vs {device} at {shards} shards"
            );
        }
    }
}

#[test]
fn snapshots_are_byte_identical_at_fixed_seed() {
    for shards in [1, 4] {
        let a = run_snapshot(42, shards);
        let b = run_snapshot(42, shards);
        assert_eq!(a, b, "same seed must produce byte-identical snapshots");
    }
}
