//! Flash cell wear-out and lifetime modelling.
//!
//! Implements the reliability analysis of *Improving NAND Flash Based
//! Disk Caches* (ISCA 2008, §4.1.3):
//!
//! * [`normal`] — standard-normal CDF/quantile and Poisson tails,
//!   implemented from scratch;
//! * [`lifetime`] — the exponential cell-lifetime model
//!   `W = 10^(C1·tox)` with normally distributed oxide thickness, plus
//!   the page-level "max tolerable W/E cycles vs ECC strength" analysis
//!   behind Figure 6(b), including spatial (page-to-page) variation;
//! * [`itrs`] — the 2007 ITRS roadmap constants of Table 1.
//!
//! # Examples
//!
//! Reproduce a point of Figure 6(b):
//!
//! ```
//! use flash_reliability::lifetime::PageLifetimeModel;
//!
//! let page = PageLifetimeModel::default();
//! let w_weak = page.max_tolerable_cycles(1);
//! let w_strong = page.max_tolerable_cycles(8);
//! // Stronger ECC tolerates materially more write/erase cycles.
//! assert!(w_strong > 3.0 * w_weak);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod itrs;
pub mod lifetime;
pub mod normal;

pub use itrs::{ItrsEntry, ITRS_2007};
pub use lifetime::{CellLifetimeModel, PageLifetimeModel, CELLS_PER_PAGE};
