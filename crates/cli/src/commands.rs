//! Subcommand implementations for the `flashcache` CLI.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use flashcache::nand::FlashConfig;
use flashcache::nand::FlashGeometry;
use flashcache::nand::{ChannelConfig, TimingBackend};
use flashcache::obs::{Registry, Snapshot};
use flashcache::sim::experiments::driver::{
    drive_cache, half_working_set_bytes, invariant_checks_enabled, page_ops,
    INVARIANT_CHECK_INTERVAL,
};
use flashcache::sim::experiments::lifetime::{lifetime_accesses, LifetimeParams};
use flashcache::sim::hierarchy::{Hierarchy, HierarchyConfig};
use flashcache::trace::spc::{write_spc, SpcReader};
use flashcache::EngineConfig;
use flashcache::{
    AdmissionPolicyConfig, ControllerPolicy, DiskRequest, FlashCache, FlashCacheConfig,
    SplitPolicy, WorkloadSpec,
};

use super::Args;

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand with the options it reads (space-separated). An
/// option outside a command's list is refused rather than silently
/// ignored.
pub const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "simulate",
        simulate,
        "workload scale seed requests spc dram-mb flash-mb unified shards batch workers \
         admission channels planes queue-depth json-metrics",
    ),
    (
        "sweep",
        sweep,
        "workload scale seed requests sizes-mb admission channels planes queue-depth \
         json-metrics",
    ),
    (
        "lifetime",
        lifetime,
        "workload scale seed acceleration budget controller admission channels planes \
         queue-depth json-metrics",
    ),
    (
        "export",
        export,
        "workload scale seed requests out write-fraction",
    ),
];

/// Top-level usage text.
pub const USAGE: &str = "\
flashcache — NAND flash disk cache simulator (ISCA 2008 reproduction)

USAGE:
  flashcache <command> [options]

COMMANDS:
  simulate   replay a workload (or SPC trace) through DRAM + flash + HDD
  sweep      miss rate vs flash size, unified vs split (Figure 4 style)
  lifetime   accesses-to-failure per controller policy (Figure 12 style)
  export     generate a synthetic workload as an SPC trace file
  help       show this text

A command refuses (exit 2) any option not listed for it below.

COMMON OPTIONS (every command):
  --workload NAME     uniform|alpha1|alpha2|alpha3|exp1|exp2|dbt2|
                      specweb99|websearch1|websearch2|financial1|financial2
  --scale N           divide the workload footprint by N (default 64)
  --seed S            RNG seed (default 352321544)
  --requests N        requests to replay (default 100000; not lifetime)

SIMULATE:
  --spc FILE          replay an SPC trace instead of a synthetic workload
  --dram-mb N         primary disk cache size (default 16)
  --flash-mb N        flash cache size; 0 = DRAM-only baseline (default 64)
  --unified           use one shared region instead of the 90/10 split
  --shards N          hash-partition the flash cache into N shards (default 1)
  --batch N           submit requests in concurrent batches of N (default 1)
  --workers N         worker threads for the shard runtime (default: host
                      parallelism, capped by the shard count)

ADMISSION (simulate, sweep, lifetime):
  --admission P       flash admission policy: reref (default: a read miss
                      fills if the page has been read more often than the
                      median page of the last block the cache evicted;
                      every miss fills until the first eviction)
                      | all (the paper's rule: every miss fills)

DEVICE PARALLELISM (simulate, sweep, lifetime — any of these flags
switches flash timing to the event-driven backend):
  --channels N        independent NAND channels (default 1)
  --planes N          planes per channel (default 1)
  --queue-depth N     outstanding ops admitted per channel (default 4)

SWEEP:
  --sizes-mb A,B,C    flash sizes to evaluate (default 8,16,32,64)

LIFETIME:
  --acceleration X    wear acceleration factor (default 2e5)
  --budget N          access budget per run (default 30000000)
  --controller NAME   only run one: programmable|bch1|ecc-only|density-only

EXPORT:
  --out FILE          destination path (default: stdout)
  --write-fraction F  override the workload's write fraction

OBSERVABILITY (simulate, sweep, lifetime):
  --json-metrics FILE write a deterministic JSON metrics snapshot to FILE
                      on completion (sweep and lifetime: every cache they
                      ran, merged in run order)

ENVIRONMENT:
  FLASHCACHE_CHECK_INVARIANTS=1  simulate, sweep and lifetime assert the
                      flash cache's structural invariants every 8192
                      requests (sweep, lifetime: page accesses)
";

fn workload_by_name(name: &str) -> Result<WorkloadSpec, String> {
    WorkloadSpec::all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown workload `{name}` (see `flashcache help`)"))
}

fn load_workload(args: &Args) -> Result<WorkloadSpec, String> {
    let name = args.get("workload").unwrap_or("dbt2");
    let scale: u64 = args.num("scale", 64)?;
    let spec = workload_by_name(name)?;
    Ok(if scale > 1 { spec.scaled(scale) } else { spec })
}

/// Reads the device-parallelism options. Returns `None` when no channel
/// flag was given (keep the closed-form backend); otherwise the
/// built [`ChannelConfig`] that switches the device to the event-driven
/// backend.
fn channel_config(args: &Args) -> Result<Option<ChannelConfig>, String> {
    let given = ["channels", "planes", "queue-depth"]
        .iter()
        .any(|k| args.get(k).is_some());
    if !given {
        return Ok(None);
    }
    let channels: u32 = args.num("channels", 1u32)?;
    let planes: u32 = args.num("planes", 1u32)?;
    let queue_depth: u32 = args.num("queue-depth", 4u32)?;
    ChannelConfig::builder()
        .channels(channels)
        .planes(planes)
        .queue_depth(queue_depth)
        .build()
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Reads the `--admission` option shared by `simulate`, `sweep`, and
/// `lifetime`.
fn admission_config(args: &Args) -> Result<AdmissionPolicyConfig, String> {
    match args.get("admission").unwrap_or("reref") {
        "all" => Ok(AdmissionPolicyConfig::AdmitAll),
        "reref" => Ok(AdmissionPolicyConfig::ReReference),
        other => Err(format!("--admission must be all or reref, got {other}")),
    }
}

fn flash_config(
    flash_bytes: u64,
    unified: bool,
    channel: Option<ChannelConfig>,
    admission: AdmissionPolicyConfig,
) -> Result<FlashCacheConfig, String> {
    let mut flash = FlashConfig {
        geometry: FlashGeometry::for_mlc_capacity(flash_bytes),
        ..FlashConfig::default()
    };
    if let Some(channel) = channel {
        flash.channel = channel;
        flash.timing_backend = TimingBackend::EventDriven;
    }
    let builder = FlashCacheConfig::builder()
        .flash(flash)
        .admission(admission);
    let builder = if unified {
        builder.unified()
    } else {
        builder.split(SplitPolicy::default())
    };
    builder
        .build()
        .map_err(|e| format!("{}MB: {e}", flash_bytes >> 20))
}

/// Writes `snapshot` to the `--json-metrics` path, if one was given.
fn write_obs(args: &Args, snapshot: impl FnOnce() -> Snapshot) -> Result<(), String> {
    let Some(path) = args.get("json-metrics") else {
        return Ok(());
    };
    std::fs::write(path, snapshot().to_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

/// [`FlashCache::check_invariants`] on every flash shard.
fn check_flash_invariants(hierarchy: &Hierarchy) -> Result<(), String> {
    let shards = hierarchy.flash_engine().map_or(&[][..], |e| e.shards());
    for (i, shard) in shards.iter().enumerate() {
        shard
            .check_invariants()
            .map_err(|e| format!("flash shard {i}: cache invariant violated: {e}"))?;
    }
    Ok(())
}

/// `flashcache simulate`.
pub fn simulate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed", 0x1507_2008u64)?;
    let requests: u64 = args.num("requests", 100_000u64)?;
    let dram_mb: u64 = args.num("dram-mb", 16u64)?;
    let flash_mb: u64 = args.num("flash-mb", 64u64)?;
    let shards: usize = args.num("shards", 1usize)?;
    let batch: usize = args.num("batch", 1usize)?;
    let workers: usize = args.num("workers", 0usize)?;
    let channel = channel_config(args)?;
    let admission = admission_config(args)?;
    let flash = if flash_mb > 0 {
        Some(flash_config(
            flash_mb << 20,
            args.flag("unified"),
            channel,
            admission,
        )?)
    } else {
        None
    };
    let engine_cfg = EngineConfig {
        workers: (workers > 0).then_some(workers),
    };
    let mut hierarchy = Hierarchy::try_new(HierarchyConfig {
        dram_bytes: dram_mb << 20,
        flash,
        flash_shards: shards,
        engine: engine_cfg,
        ..HierarchyConfig::default()
    })
    .map_err(|e| e.to_string())?;

    let batch = batch.max(1);
    let mut pending: Vec<DiskRequest> = Vec::with_capacity(batch);
    // With FLASHCACHE_CHECK_INVARIANTS set, every flash shard's
    // structural invariants are asserted each few thousand requests.
    let checked = invariant_checks_enabled();
    let mut unchecked = 0u64;
    let mut outcomes = Vec::with_capacity(batch);
    let mut submit = |hierarchy: &mut Hierarchy, pending: &mut Vec<DiskRequest>| {
        outcomes.clear();
        hierarchy.submit_batch_into(pending, &mut outcomes);
        unchecked += pending.len() as u64;
        pending.clear();
        if checked && unchecked >= INVARIANT_CHECK_INTERVAL {
            unchecked = 0;
            check_flash_invariants(hierarchy)?;
        }
        Ok::<(), String>(())
    };
    type Source = Box<dyn Iterator<Item = Result<DiskRequest, String>>>;
    let (source, replayed): (Source, String) = if let Some(path) = args.get("spc") {
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let records = SpcReader::new(BufReader::new(file))
            .map(|record| record.map(|r| r.to_request()).map_err(|e| e.to_string()));
        (Box::new(records), format!("SPC records from {path}"))
    } else {
        let workload = load_workload(args)?;
        let replayed = format!(
            "requests of {} ({}MB footprint, seed {seed})",
            workload.name,
            workload.footprint_bytes() >> 20
        );
        (Box::new(workload.generator(seed).map(Ok)), replayed)
    };
    let mut n = 0u64;
    for request in source.take(requests as usize) {
        pending.push(request?);
        if pending.len() >= batch {
            submit(&mut hierarchy, &mut pending)?;
        }
        n += 1;
    }
    submit(&mut hierarchy, &mut pending)?;
    println!("replayed {n} {replayed}");
    if checked {
        check_flash_invariants(&hierarchy)?;
    }
    hierarchy.drain();
    let device_makespan_us = hierarchy.device_makespan_us();
    let report = hierarchy.report();
    println!();
    println!("requests          : {}", report.requests);
    println!("pages touched     : {}", report.pages);
    println!(
        "latency           : mean {:.1} us | p50 {:.1} us | p99 {:.1} us | max {:.1} us",
        report.avg_latency_us(),
        report.latency.percentile_us(0.50),
        report.latency.percentile_us(0.99),
        report.latency.max_us(),
    );
    println!(
        "served by         : DRAM {:.1}% | flash {:.1}% | disk {:.1}%",
        pct(report.dram_hit_pages, report.pages),
        pct(report.flash_hit_pages, report.pages),
        pct(report.disk_read_pages, report.pages),
    );
    println!(
        "disk traffic      : {} page reads, {} page writes ({:.2}s busy)",
        report.disk_read_pages, report.disk_write_pages, report.disk.busy_s
    );
    if let Some(makespan_us) = device_makespan_us {
        println!(
            "flash device time : makespan {:.0} us | {:.1} pages per sim-second | queue wait mean {:.1} us, p99 {:.1} us",
            makespan_us,
            report.pages as f64 / (makespan_us / 1e6),
            report.flash_queue_wait.mean_us(),
            report.flash_queue_wait.percentile_us(0.99),
        );
    }
    if let Some(engine) = hierarchy.flash_engine() {
        println!();
        if engine.shard_count() > 1 {
            println!("flash cache ({} shards, merged):", engine.shard_count());
            // The statistics end on their `admission:` line; the bar is a
            // gauge, not a counter, so it is appended here.
            let bars: Vec<u8> = engine.shards().iter().map(|s| s.admission_bar()).collect();
            println!("{}, bar per shard {bars:?}", engine.stats());
            println!("usable slots {}", engine.usable_slots());
            for (i, shard) in engine.shards().iter().enumerate() {
                println!(
                    "  shard {i}: {} reads | SLC {:.1}% | erase spread {:?}",
                    shard.stats().reads,
                    shard.slc_fraction() * 100.0,
                    shard.erase_spread(),
                );
            }
        } else {
            let flash = &engine.shards()[0];
            println!("flash cache:");
            println!("{}, bar {}", flash.stats(), flash.admission_bar());
            println!(
                "SLC fraction {:.1}% | usable slots {} | erase spread {:?}",
                flash.slc_fraction() * 100.0,
                flash.usable_slots(),
                flash.erase_spread(),
            );
        }
    }
    write_obs(args, || hierarchy.obs_snapshot())
}

/// `flashcache sweep`.
pub fn sweep(args: &Args) -> Result<(), String> {
    let workload = load_workload(args)?;
    let seed: u64 = args.num("seed", 0x1507_2008u64)?;
    let requests: u64 = args.num("requests", 100_000u64)?;
    let sizes = args.num_list("sizes-mb", &[8, 16, 32, 64])?;
    println!(
        "workload {} ({}MB) | {} page accesses per point | seed {seed}\n",
        workload.name,
        workload.footprint_bytes() >> 20,
        requests
    );
    println!(
        "{:>10}{:>16}{:>16}{:>14}{:>14}",
        "flash", "unified miss", "split miss", "unified GC", "split GC"
    );
    let channel = channel_config(args)?;
    let admission = admission_config(args)?;
    let mut metrics = Registry::new();
    for &mb in &sizes {
        let mut row = Vec::new();
        for unified in [true, false] {
            let mut cache = FlashCache::new(flash_config(mb << 20, unified, channel, admission)?)
                .map_err(|e| format!("{mb}MB: {e}"))?;
            drive_cache(&mut cache, &mut page_ops(&workload, seed), requests);
            row.push((cache.stats().read_miss_rate(), cache.stats().gc_overhead()));
            metrics.merge(&cache.export_metrics());
        }
        println!(
            "{:>8}MB{:>15.1}%{:>15.1}%{:>13.1}%{:>13.1}%",
            mb,
            row[0].0 * 100.0,
            row[1].0 * 100.0,
            row[0].1 * 100.0,
            row[1].1 * 100.0
        );
    }
    write_obs(args, || Snapshot::new(metrics))
}

/// `flashcache lifetime`.
pub fn lifetime(args: &Args) -> Result<(), String> {
    let workload = load_workload(args)?;
    let seed: u64 = args.num("seed", 0x1507_2008u64)?;
    let acceleration: f64 = args.num("acceleration", 2e5)?;
    let budget: u64 = args.num("budget", 30_000_000u64)?;
    let controllers = [
        ("bch1", ControllerPolicy::FixedEcc { strength: 1 }),
        ("ecc-only", ControllerPolicy::EccOnly),
        ("density-only", ControllerPolicy::DensityOnly),
        ("programmable", ControllerPolicy::Programmable),
    ];
    let only = args.get("controller");
    if let Some(name) = only.filter(|n| controllers.iter().all(|(c, _)| c != n)) {
        return Err(format!("unknown controller `{name}`"));
    }
    println!(
        "workload {} | flash = half working set | acceleration {acceleration:.0}x | seed {seed}\n",
        workload.name
    );
    println!(
        "{:<16}{:>16}{:>12}{:>12}",
        "controller", "accesses", "erases", "retired"
    );
    let config = flash_config(
        half_working_set_bytes(&workload),
        false,
        channel_config(args)?,
        admission_config(args)?,
    )?;
    let params = LifetimeParams {
        acceleration,
        budget,
        seed,
    };
    let mut baseline = None;
    let mut metrics = Registry::new();
    for (name, controller) in controllers {
        if only.is_some_and(|n| n != name) {
            continue;
        }
        let config = FlashCacheConfig {
            controller,
            ..config.clone()
        };
        let (accesses, cache) = lifetime_accesses(config, &workload, &params);
        let s = cache.stats();
        let gain = baseline
            .map(|b: u64| format!("  ({:.1}x)", accesses as f64 / b.max(1) as f64))
            .unwrap_or_default();
        println!(
            "{:<16}{:>16}{:>12}{:>12}{}{}",
            name,
            accesses,
            s.erases,
            s.retired_blocks,
            gain,
            if cache.is_dead() {
                ""
            } else {
                "  [budget hit]"
            }
        );
        baseline.get_or_insert(accesses);
        metrics.merge(&cache.export_metrics());
    }
    write_obs(args, || Snapshot::new(metrics))
}

/// `flashcache export`.
pub fn export(args: &Args) -> Result<(), String> {
    let mut workload = load_workload(args)?;
    workload.write_fraction = args.num("write-fraction", workload.write_fraction)?;
    let seed: u64 = args.num("seed", 0x1507_2008u64)?;
    let requests: u64 = args.num("requests", 100_000u64)?;
    let reqs: Vec<DiskRequest> = workload.generator(seed).take(requests as usize).collect();
    match args.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let n = write_spc(BufWriter::new(file), reqs).map_err(|e| e.to_string())?;
            eprintln!("wrote {n} records to {path}");
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = BufWriter::new(stdout.lock());
            write_spc(&mut lock, reqs).map_err(|e| e.to_string())?;
            lock.flush().map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}
