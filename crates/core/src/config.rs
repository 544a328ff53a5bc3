//! Configuration of the flash disk cache and its controller policy.

use std::error::Error;
use std::fmt;

use flash_ecc::EccLatencyModel;
use nand_flash::{CellMode, FlashConfig, TimingBackend};

/// A configuration rejected by [`FlashCacheConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: String) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid flash cache configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// How the flash is divided between read and write caching (§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// One shared pool handling both reads and writes (the baseline of
    /// Figure 4, "RW unified").
    Unified,
    /// Separate read and write regions ("RW separate").
    Split {
        /// Fraction of blocks dedicated to the write cache. The paper
        /// observes 10% suffices ("90% of Flash is dedicated to the read
        /// cache and 10% write cache").
        write_fraction: f64,
    },
}

impl Default for SplitPolicy {
    fn default() -> Self {
        SplitPolicy::Split {
            write_fraction: 0.10,
        }
    }
}

/// Which admission rule gates read-miss fills out of the flash cache.
/// Host writes are admitted under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicyConfig {
    /// Admit every fill — the paper's §5.1 rule, which the figure
    /// binaries pin.
    AdmitAll,
    /// Frequency admission: a read-miss fill is programmed iff the page
    /// has been read more often than the median page of the last block
    /// the cache evicted (every miss, until there has been one). No
    /// parameters: the sketch is sized from the device geometry, the bar
    /// comes from the evictions.
    #[default]
    ReReference,
}

/// Flash memory controller reconfiguration policy (§4, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerPolicy {
    /// The paper's programmable controller: variable ECC strength *and*
    /// MLC→SLC density switching, chosen by the Δtcs/Δtd heuristics.
    #[default]
    Programmable,
    /// Fixed ECC strength, no reconfiguration — the baseline of
    /// Figure 12 is `FixedEcc { strength: 1 }`.
    FixedEcc {
        /// The immutable code strength.
        strength: u8,
    },
    /// Ablation: only ECC strength may grow; no density switching.
    EccOnly,
    /// Ablation: only MLC→SLC switching; ECC stays at the initial
    /// strength.
    DensityOnly,
}

/// Full configuration of a [`crate::cache::FlashCache`].
///
/// Prefer [`FlashCacheConfig::builder`] over filling the struct in by
/// hand: the builder validates on [`build`](FlashCacheConfigBuilder::build),
/// so an impossible combination is rejected at construction instead of
/// surfacing later from `FlashCache::new`. Raw struct-literal
/// construction (including functional update from `..Default::default()`)
/// remains possible for backwards compatibility but is discouraged for
/// new code.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCacheConfig {
    /// Underlying device configuration.
    pub flash: FlashConfig,
    /// Read/write split policy.
    pub split: SplitPolicy,
    /// Controller reconfiguration policy.
    pub controller: ControllerPolicy,
    /// Cell mode newly allocated pages start in. The paper's device is
    /// MLC-first and demotes to SLC as needed.
    pub default_mode: CellMode,
    /// ECC strength newly allocated pages start with.
    pub initial_ecc: u8,
    /// Maximum ECC strength the controller may program (paper: 12).
    pub max_ecc: u8,
    /// ECC accelerator timing model.
    pub ecc_latency: EccLatencyModel,
    /// Wear-levelling trigger: evict the globally newest block instead of
    /// the LRU block when the LRU block's degree of wear out exceeds the
    /// newest's by this much (§3.6).
    pub wear_threshold: f64,
    /// Weight of total ECC strength in the degree-of-wear-out cost.
    pub wear_k1: f64,
    /// Weight of SLC-converted pages in the degree-of-wear-out cost
    /// (`k2 > k1`: a mode switch signals far more wear than an ECC bump).
    pub wear_k2: f64,
    /// Read-region GC trigger: compact when valid capacity falls below
    /// this fraction (§5.1: "below 90%").
    pub read_gc_watermark: f64,
    /// Minimum invalid fraction a block must carry before garbage
    /// collection will compact it (either region). Compacting a mostly-
    /// valid block rewrites many pages to reclaim few slots — ruinous
    /// write amplification; below this floor the cache evicts a block
    /// instead (clean pages are disk-backed; dirty ones are flushed).
    pub gc_min_invalid_fraction: f64,
    /// Read-access saturation count that promotes an MLC page to SLC
    /// (§5.2.2). The FPST stores a saturating counter per page.
    pub hot_threshold: u8,
    /// Average disk miss penalty in µs used by the Δtd heuristic
    /// (`tmiss`); the simulator keeps this in sync with its disk model.
    pub disk_latency_us: f64,
    /// Number of bit errors at which a read is considered to show
    /// consistent wear (reconfiguration trigger margin): the page is
    /// reconfigured when observed errors ≥ `strength`.
    pub reconfig_margin: u8,
    /// Accesses between halvings of every page's saturating access
    /// counter, so "frequently accessed" means *recent* frequency
    /// (§5.2.2). `0` selects one cache-capacity of accesses.
    pub counter_decay_interval: u64,
    /// Admission rule gating read-miss fills out of the flash (default
    /// [`AdmissionPolicyConfig::ReReference`];
    /// [`AdmissionPolicyConfig::AdmitAll`] is the paper's behaviour).
    pub admission: AdmissionPolicyConfig,
}

impl Default for FlashCacheConfig {
    fn default() -> Self {
        FlashCacheConfig {
            flash: FlashConfig::default(),
            split: SplitPolicy::default(),
            controller: ControllerPolicy::default(),
            default_mode: CellMode::Mlc,
            initial_ecc: 1,
            max_ecc: 12,
            ecc_latency: EccLatencyModel::default(),
            wear_threshold: 64.0,
            wear_k1: 0.5,
            wear_k2: 8.0,
            read_gc_watermark: 0.90,
            gc_min_invalid_fraction: 0.25,
            hot_threshold: 8,
            disk_latency_us: 4200.0,
            reconfig_margin: 0,
            counter_decay_interval: 0,
            admission: AdmissionPolicyConfig::default(),
        }
    }
}

impl FlashCacheConfig {
    /// Starts a fluent builder seeded with the default
    /// configuration; call [`FlashCacheConfigBuilder::build`] to
    /// validate and obtain the finished config.
    ///
    /// ```
    /// use flashcache_core::FlashCacheConfig;
    ///
    /// let config = FlashCacheConfig::builder()
    ///     .write_fraction(0.10)
    ///     .max_ecc(12)
    ///     .build()
    ///     .expect("defaults tweaked within valid ranges");
    /// assert_eq!(config.max_ecc, 12);
    /// ```
    pub fn builder() -> FlashCacheConfigBuilder {
        FlashCacheConfigBuilder {
            config: FlashCacheConfig::default(),
        }
    }

    /// Validates invariants, returning a description of the first
    /// violation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let SplitPolicy::Split { write_fraction } = self.split {
            if !(0.0..1.0).contains(&write_fraction) || write_fraction <= 0.0 {
                return Err(ConfigError::new(format!(
                    "write_fraction must be in (0,1), got {write_fraction}"
                )));
            }
        }
        if self.initial_ecc == 0 || self.initial_ecc > self.max_ecc {
            return Err(ConfigError::new(format!(
                "initial_ecc {} must be in 1..={}",
                self.initial_ecc, self.max_ecc
            )));
        }
        // The paper's controller stops at 12 correctable bits, but its
        // Figure 10 sweeps fixed strengths "beyond our Flash memory
        // controller's capabilities to fully capture the performance
        // trends" (§7.2) — so the *model* accepts larger values, which
        // exercise only the latency model, not a real spare-area layout.
        if self.max_ecc > 63 {
            return Err(ConfigError::new(format!(
                "max_ecc {} exceeds the modelling limit of 63",
                self.max_ecc
            )));
        }
        if !(0.0..=1.0).contains(&self.gc_min_invalid_fraction) {
            return Err(ConfigError::new(format!(
                "gc_min_invalid_fraction must be in [0,1], got {}",
                self.gc_min_invalid_fraction
            )));
        }
        if !(0.0..=1.0).contains(&self.read_gc_watermark) {
            return Err(ConfigError::new(format!(
                "read_gc_watermark must be in [0,1], got {}",
                self.read_gc_watermark
            )));
        }
        if self.wear_k2 <= self.wear_k1 {
            return Err(ConfigError::new(format!(
                "wear_k2 ({}) must exceed wear_k1 ({}) — a mode switch \
                 signals more wear than an ECC bump",
                self.wear_k2, self.wear_k1
            )));
        }
        if self.flash.geometry.blocks < 4 {
            return Err(ConfigError::new(
                "cache needs at least 4 flash blocks".to_string(),
            ));
        }
        // `ClosedForm` never reads `channel`; under `EventDriven` a bad
        // shape would otherwise panic in the scheduler at the first op.
        if self.flash.timing_backend == TimingBackend::EventDriven {
            let channel = &self.flash.channel;
            channel
                .validate()
                .map_err(|e| ConfigError::new(e.to_string()))?;
            let blocks = self.flash.geometry.blocks;
            if channel
                .channels
                .checked_mul(channel.planes)
                .is_none_or(|lanes| lanes > blocks)
            {
                return Err(ConfigError::new(format!(
                    "{} channels x {} planes exceed the device's {blocks} blocks \
                     (a lane without a block can never be used)",
                    channel.channels, channel.planes
                )));
            }
        }
        Ok(())
    }
}

/// Fluent constructor for [`FlashCacheConfig`], obtained from
/// [`FlashCacheConfig::builder`].
///
/// Every setter overrides one field of the default configuration;
/// [`build`](FlashCacheConfigBuilder::build) runs
/// [`FlashCacheConfig::validate`] so the returned config is always
/// internally consistent.
#[derive(Debug, Clone)]
pub struct FlashCacheConfigBuilder {
    config: FlashCacheConfig,
}

impl FlashCacheConfigBuilder {
    /// Sets the underlying device configuration.
    pub fn flash(mut self, flash: FlashConfig) -> Self {
        self.config.flash = flash;
        self
    }

    /// Sets the read/write split policy.
    pub fn split(mut self, split: SplitPolicy) -> Self {
        self.config.split = split;
        self
    }

    /// Shorthand for a [`SplitPolicy::Split`] with the given write-cache
    /// fraction.
    pub fn write_fraction(mut self, write_fraction: f64) -> Self {
        self.config.split = SplitPolicy::Split { write_fraction };
        self
    }

    /// Shorthand for [`SplitPolicy::Unified`].
    pub fn unified(mut self) -> Self {
        self.config.split = SplitPolicy::Unified;
        self
    }

    /// Sets the controller reconfiguration policy.
    pub fn controller(mut self, controller: ControllerPolicy) -> Self {
        self.config.controller = controller;
        self
    }

    /// Sets the cell mode newly allocated pages start in.
    pub fn default_mode(mut self, default_mode: CellMode) -> Self {
        self.config.default_mode = default_mode;
        self
    }

    /// Sets the ECC strength newly allocated pages start with.
    pub fn initial_ecc(mut self, initial_ecc: u8) -> Self {
        self.config.initial_ecc = initial_ecc;
        self
    }

    /// Sets the maximum ECC strength the controller may program.
    pub fn max_ecc(mut self, max_ecc: u8) -> Self {
        self.config.max_ecc = max_ecc;
        self
    }

    /// Sets the ECC accelerator timing model.
    pub fn ecc_latency(mut self, ecc_latency: EccLatencyModel) -> Self {
        self.config.ecc_latency = ecc_latency;
        self
    }

    /// Sets the wear-levelling trigger threshold (§3.6).
    pub fn wear_threshold(mut self, wear_threshold: f64) -> Self {
        self.config.wear_threshold = wear_threshold;
        self
    }

    /// Sets the degree-of-wear-out cost weights (`k2 > k1` required).
    pub fn wear_weights(mut self, k1: f64, k2: f64) -> Self {
        self.config.wear_k1 = k1;
        self.config.wear_k2 = k2;
        self
    }

    /// Sets the read-region GC watermark (§5.1).
    pub fn read_gc_watermark(mut self, read_gc_watermark: f64) -> Self {
        self.config.read_gc_watermark = read_gc_watermark;
        self
    }

    /// Sets the minimum invalid fraction GC requires of a victim block.
    pub fn gc_min_invalid_fraction(mut self, fraction: f64) -> Self {
        self.config.gc_min_invalid_fraction = fraction;
        self
    }

    /// Sets the hot-page SLC promotion threshold (§5.2.2).
    pub fn hot_threshold(mut self, hot_threshold: u8) -> Self {
        self.config.hot_threshold = hot_threshold;
        self
    }

    /// Sets the average disk miss penalty used by the Δtd heuristic, µs.
    pub fn disk_latency_us(mut self, disk_latency_us: f64) -> Self {
        self.config.disk_latency_us = disk_latency_us;
        self
    }

    /// Sets the reconfiguration trigger margin.
    pub fn reconfig_margin(mut self, reconfig_margin: u8) -> Self {
        self.config.reconfig_margin = reconfig_margin;
        self
    }

    /// Sets the access-counter decay interval (§5.2.2; `0` selects one
    /// cache-capacity of accesses).
    pub fn counter_decay_interval(mut self, interval: u64) -> Self {
        self.config.counter_decay_interval = interval;
        self
    }

    /// Sets the admission rule gating read-miss fills.
    pub fn admission(mut self, admission: AdmissionPolicyConfig) -> Self {
        self.config.admission = admission;
        self
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] from [`FlashCacheConfig::validate`] describing
    /// the first violated constraint.
    pub fn build(self) -> Result<FlashCacheConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_flash::ChannelConfig;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(FlashCacheConfig::default().validate(), Ok(()));
    }

    #[test]
    fn default_split_is_90_10() {
        match SplitPolicy::default() {
            SplitPolicy::Split { write_fraction } => {
                assert!((write_fraction - 0.10).abs() < 1e-12)
            }
            SplitPolicy::Unified => panic!("default must be split"),
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = FlashCacheConfig {
            split: SplitPolicy::Split {
                write_fraction: 0.0,
            },
            ..FlashCacheConfig::default()
        };
        assert!(c.validate().is_err());
        c.split = SplitPolicy::default();
        c.initial_ecc = 0;
        assert!(c.validate().is_err());
        c.initial_ecc = 13;
        c.max_ecc = 12;
        assert!(c.validate().is_err());
        c.initial_ecc = 1;
        c.max_ecc = 64;
        assert!(c.validate().is_err());
        c.max_ecc = 40; // beyond hardware, allowed for Figure 10 sweeps
        assert!(c.validate().is_ok());
        c.max_ecc = 12;
        c.wear_k1 = 9.0;
        assert!(c.validate().is_err());
        c.wear_k1 = 0.5;
        c.read_gc_watermark = 1.5;
        assert!(c.validate().is_err());
        c.read_gc_watermark = 0.9;
        c.flash.geometry.blocks = 2;
        assert!(c.validate().is_err());
    }

    fn event_driven(channel: ChannelConfig) -> FlashCacheConfigBuilder {
        FlashCacheConfig::builder().flash(FlashConfig {
            timing_backend: TimingBackend::EventDriven,
            channel,
            ..FlashConfig::default()
        })
    }

    #[test]
    fn invalid_channel_shape_is_rejected_under_event_driven() {
        // Public fields: a struct literal bypasses `ChannelConfig::builder`.
        let zero = ChannelConfig {
            channels: 0,
            ..ChannelConfig::default()
        };
        let err = event_driven(zero).build().unwrap_err();
        assert!(err.to_string().contains("channels must be >= 1"), "{err}");
        // `ClosedForm` ignores `channel`, so the same literal is inert there.
        let closed = FlashConfig {
            channel: zero,
            ..FlashConfig::default()
        };
        assert!(FlashCacheConfig::builder().flash(closed).build().is_ok());
    }

    #[test]
    fn more_lanes_than_blocks_is_rejected() {
        let blocks = FlashConfig::default().geometry.blocks;
        let shape = |channels, planes| ChannelConfig {
            channels,
            planes,
            ..ChannelConfig::default()
        };
        assert!(event_driven(shape(blocks, 1)).build().is_ok());
        let err = event_driven(shape(blocks, 2)).build().unwrap_err();
        assert!(err.to_string().contains("exceed the device's"), "{err}");
        // The product is checked, not wrapped.
        assert!(event_driven(shape(u32::MAX, 2)).build().is_err());
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(
            FlashCacheConfig::builder().build().unwrap(),
            FlashCacheConfig::default()
        );
    }

    #[test]
    fn builder_sets_fields_and_validates() {
        let c = FlashCacheConfig::builder()
            .unified()
            .initial_ecc(2)
            .max_ecc(16)
            .hot_threshold(4)
            .wear_weights(0.25, 4.0)
            .build()
            .unwrap();
        assert_eq!(c.split, SplitPolicy::Unified);
        assert_eq!(c.initial_ecc, 2);
        assert_eq!(c.max_ecc, 16);
        assert_eq!(c.hot_threshold, 4);

        // Invalid combinations are rejected at build time.
        assert!(FlashCacheConfig::builder()
            .write_fraction(0.0)
            .build()
            .is_err());
        assert!(FlashCacheConfig::builder()
            .wear_weights(8.0, 0.5)
            .build()
            .is_err());
    }

    #[test]
    fn admission_validation_rejects_degenerate_knobs() {
        // Neither rule has anything to get wrong: no knobs (sketch size,
        // ageing period and bar derive from the cache itself).
        for admission in [
            AdmissionPolicyConfig::ReReference,
            AdmissionPolicyConfig::AdmitAll,
        ] {
            let c = FlashCacheConfig::builder().admission(admission).build();
            assert_eq!(c.unwrap().admission, admission);
        }
    }

    /// Ours, not the paper's: §5.1 fills on every miss (`AdmitAll`,
    /// which the figure binaries pin); the library default fills a page
    /// only if it is read more often than what the cache last evicted,
    /// which is every page until the first eviction.
    #[test]
    fn admission_defaults_are_paper_faithful() {
        let c = FlashCacheConfig::default();
        assert_eq!(c.admission, AdmissionPolicyConfig::ReReference);
    }

    #[test]
    fn policies_compare() {
        assert_eq!(ControllerPolicy::default(), ControllerPolicy::Programmable);
        assert_ne!(
            ControllerPolicy::FixedEcc { strength: 1 },
            ControllerPolicy::EccOnly
        );
    }
}
