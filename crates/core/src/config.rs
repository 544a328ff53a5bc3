//! Configuration of the flash disk cache and its controller policy.

use std::error::Error;
use std::fmt;

use flash_ecc::EccLatencyModel;
use nand_flash::{FlashConfig, TimingBackend};
use storage_model::HddModel;

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

/// Flash memory controller reconfiguration policy (§4, §5.2). The policy
/// alone decides the ECC strength pages are programmed at and how far the
/// controller may raise it: `FixedEcc` programs every page at its
/// `strength`; the others start pages at 1, and only `Programmable` and
/// `EccOnly` raise them, up to 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerPolicy {
    /// The paper's programmable controller: variable ECC strength *and*
    /// MLC→SLC density switching, chosen by the Δtcs/Δtd heuristics.
    #[default]
    Programmable,
    /// Fixed ECC strength, no reconfiguration — the baseline of
    /// Figure 12 is `FixedEcc { strength: 1 }`.
    FixedEcc {
        /// The immutable code strength every page is programmed at, and
        /// the one blocks are retired against (`1..=63`).
        strength: u8,
    },
    /// Ablation: only ECC strength may grow; no density switching.
    EccOnly,
    /// Ablation: only MLC→SLC switching; ECC stays at the initial
    /// strength.
    DensityOnly,
}

/// ECC strength pages start at under every policy but
/// [`ControllerPolicy::FixedEcc`].
const INITIAL_ECC_STRENGTH: u8 = 1;
/// The strongest code the paper's controller programs (12 correctable
/// bits per page).
const MAX_ECC_STRENGTH: u8 = 12;
/// Strongest `FixedEcc` strength the model accepts. Figure 10 sweeps
/// fixed strengths "beyond our Flash memory controller's capabilities to
/// fully capture the performance trends" (§7.2), which exercises only the
/// latency model, not a real spare-area layout.
const MODEL_ECC_LIMIT: u8 = 63;
/// Timing of the BCH accelerator (Figure 6(a)).
pub(crate) const ECC_LATENCY: EccLatencyModel = EccLatencyModel::PAPER;
/// Weight of total ECC strength in the degree-of-wear-out cost (§3.3).
pub(crate) const WEAR_K1: f64 = 0.5;
/// Weight of SLC-converted pages in the degree-of-wear-out cost: a mode
/// switch signals far more wear than an ECC bump (`WEAR_K2 > WEAR_K1`).
pub(crate) const WEAR_K2: f64 = 8.0;
/// Read-region GC trigger: compact when valid capacity falls below this
/// fraction of the occupied pages (§5.1: "below 90%").
pub(crate) const READ_GC_WATERMARK: f64 = 0.90;
/// Minimum invalid fraction a block must carry before garbage collection
/// compacts it (either region). Compacting a mostly-valid block rewrites
/// many pages to reclaim few slots; below this floor the cache evicts a
/// block instead (clean pages are disk-backed; dirty ones are flushed).
pub(crate) const GC_MIN_INVALID_FRACTION: f64 = 0.25;
/// Disk miss penalty `tmiss` of the Δtd heuristic, µs: the average access
/// of the one disk every simulated hierarchy uses.
pub(crate) const MISS_PENALTY_US: f64 = HddModel::travelstar().avg_access_latency_us;

impl ControllerPolicy {
    /// The ECC strength every page is programmed at until the controller
    /// raises it.
    pub(crate) fn initial_strength(self) -> u8 {
        match self {
            ControllerPolicy::FixedEcc { strength } => strength,
            _ => INITIAL_ECC_STRENGTH,
        }
    }

    /// The strongest ECC the policy can program: where its error response
    /// stops, and what a block is retired against.
    pub(crate) fn max_strength(self) -> u8 {
        match self {
            ControllerPolicy::Programmable | ControllerPolicy::EccOnly => MAX_ECC_STRENGTH,
            ControllerPolicy::FixedEcc { .. } | ControllerPolicy::DensityOnly => {
                self.initial_strength()
            }
        }
    }

    /// Whether the policy may program a page in SLC mode (density
    /// switching and hot-page promotion).
    pub(crate) fn switches_density(self) -> bool {
        matches!(
            self,
            ControllerPolicy::Programmable | ControllerPolicy::DensityOnly
        )
    }
}

/// Full configuration of a [`crate::cache::FlashCache`]: what an
/// experiment varies. The model's fixed parameters (wear weights, GC
/// thresholds, ECC timing, the disk miss penalty) are constants.
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
    /// Wear-levelling trigger: evict the globally newest block instead of
    /// the LRU block when the LRU block's degree of wear out exceeds the
    /// newest's by this much (§3.6).
    pub wear_threshold: f64,
    /// Read-access count that promotes an MLC page to SLC (§5.2.2). The
    /// FPST stores a saturating counter per page, halved every device's
    /// worth of slots in accesses. At least 1.
    pub hot_threshold: u8,
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
            wear_threshold: 64.0,
            hot_threshold: 8,
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
    /// use flashcache_core::{ControllerPolicy, FlashCacheConfig};
    ///
    /// let config = FlashCacheConfig::builder()
    ///     .write_fraction(0.10)
    ///     .controller(ControllerPolicy::FixedEcc { strength: 4 })
    ///     .build()
    ///     .expect("defaults tweaked within valid ranges");
    /// assert_eq!(config.controller, ControllerPolicy::FixedEcc { strength: 4 });
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
        if let ControllerPolicy::FixedEcc { strength } = self.controller {
            if !(1..=MODEL_ECC_LIMIT).contains(&strength) {
                return Err(ConfigError::new(format!(
                    "FixedEcc strength {strength} must be in 1..={MODEL_ECC_LIMIT}"
                )));
            }
        }
        if self.hot_threshold == 0 {
            return Err(ConfigError::new(
                "hot_threshold must be at least 1".to_string(),
            ));
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

    /// Sets the wear-levelling trigger threshold (§3.6).
    pub fn wear_threshold(mut self, wear_threshold: f64) -> Self {
        self.config.wear_threshold = wear_threshold;
        self
    }

    /// Sets the hot-page SLC promotion threshold (§5.2.2).
    pub fn hot_threshold(mut self, hot_threshold: u8) -> Self {
        self.config.hot_threshold = hot_threshold;
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
        c.controller = ControllerPolicy::FixedEcc { strength: 0 };
        assert!(c.validate().is_err());
        c.controller = ControllerPolicy::FixedEcc { strength: 64 };
        assert!(c.validate().is_err());
        // Beyond hardware, allowed for Figure 10 sweeps.
        c.controller = ControllerPolicy::FixedEcc { strength: 50 };
        assert!(c.validate().is_ok());
        // A zero threshold would make every relocation "hot".
        c.hot_threshold = 0;
        assert!(c.validate().is_err());
        c.hot_threshold = 1;
        assert!(c.validate().is_ok());
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
            .controller(ControllerPolicy::FixedEcc { strength: 16 })
            .hot_threshold(4)
            .wear_threshold(8.0)
            .build()
            .unwrap();
        assert_eq!(c.split, SplitPolicy::Unified);
        assert_eq!(c.controller, ControllerPolicy::FixedEcc { strength: 16 });
        assert_eq!(c.hot_threshold, 4);
        assert_eq!(c.wear_threshold, 8.0);

        // Invalid combinations are rejected at build time.
        assert!(FlashCacheConfig::builder()
            .write_fraction(0.0)
            .build()
            .is_err());
        assert!(FlashCacheConfig::builder()
            .hot_threshold(0)
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

    /// `FixedEcc` alone sets the strength; only `Programmable` and
    /// `EccOnly` may raise it, and `DensityOnly` never does.
    #[test]
    fn policy_owns_the_strength_rule() {
        let rows = [
            (ControllerPolicy::Programmable, 1, 12, true),
            (ControllerPolicy::EccOnly, 1, 12, false),
            (ControllerPolicy::DensityOnly, 1, 1, true),
            (ControllerPolicy::FixedEcc { strength: 50 }, 50, 50, false),
        ];
        for (policy, initial, max, slc) in rows {
            assert_eq!(policy.initial_strength(), initial, "{policy:?}");
            assert_eq!(policy.max_strength(), max, "{policy:?}");
            assert_eq!(policy.switches_density(), slc, "{policy:?}");
        }
    }
}
