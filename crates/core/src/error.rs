//! The cache's internal error type.
//!
//! When a management table and the device disagree, or a device op
//! fails mid-access, the access is abandoned with a [`CacheError`] rather
//! than a panic: one corrupted mapping must not take down every tenant
//! sharing the process. [`FlashCache::op`](crate::FlashCache::op)
//! degrades it into an [`AccessOutcome`](crate::AccessOutcome) that
//! routes the access to disk (fail-to-disk: the cache is an
//! accelerator, never the only copy of clean data).

use std::error::Error;
use std::fmt;

use nand_flash::{BlockId, FlashOpError, PageAddr};

/// An internal inconsistency or device failure detected while servicing
/// a cache access.
///
/// Variants are grouped in two classes:
///
/// * **corruption-class** ([`CacheError::is_corruption`] is `true`):
///   a management table pointed at content the device cannot produce —
///   the cached copy must be considered lost;
/// * **structural**: the allocator or erase machinery hit a state the
///   device rejects — the operation is abandoned, the cache bypassed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CacheError {
    /// A management table referenced a flash location whose device state
    /// disagrees (e.g. the FCHT mapped a disk page to an unprogrammed
    /// slot). Corruption-class.
    TableCorruption {
        /// The inconsistent flash location.
        addr: PageAddr,
        /// What the device reported.
        source: FlashOpError,
    },
    /// A valid FPST entry carried no disk-page mapping, so the content
    /// cannot be attributed to any disk address. Corruption-class.
    MappingMissing {
        /// The unmapped flash location.
        addr: PageAddr,
    },
    /// The allocator handed out a slot the device refused to program
    /// (out-of-place discipline violated, mode conflict, …).
    ProgramRejected {
        /// The rejected destination.
        addr: PageAddr,
        /// What the device reported.
        source: FlashOpError,
    },
    /// A block-granularity device operation (erase) failed.
    BlockOp {
        /// The block being operated on.
        block: BlockId,
        /// What the device reported.
        source: FlashOpError,
    },
}

impl CacheError {
    /// `true` for errors that imply the cached copy of data was lost
    /// (mapped into
    /// [`AccessOutcome::uncorrectable`](crate::AccessOutcome::uncorrectable)
    /// by [`FlashCache::op`](crate::FlashCache::op)); `false` for
    /// structural allocator/device failures.
    pub(crate) fn is_corruption(&self) -> bool {
        matches!(
            self,
            CacheError::TableCorruption { .. } | CacheError::MappingMissing { .. }
        )
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::TableCorruption { addr, source } => {
                write!(f, "table corruption at {addr}: device reported {source:?}")
            }
            CacheError::MappingMissing { addr } => {
                write!(f, "valid page at {addr} has no disk mapping")
            }
            CacheError::ProgramRejected { addr, source } => {
                write!(f, "device rejected program of {addr}: {source:?}")
            }
            CacheError::BlockOp { block, source } => {
                write!(f, "block operation on {block} failed: {source:?}")
            }
        }
    }
}

impl Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_classification() {
        let addr = PageAddr::new(BlockId(1), 2);
        assert!(CacheError::TableCorruption {
            addr,
            source: FlashOpError::NotProgrammed(addr),
        }
        .is_corruption());
        assert!(CacheError::MappingMissing { addr }.is_corruption());
        assert!(!CacheError::ProgramRejected {
            addr,
            source: FlashOpError::NotErased(addr),
        }
        .is_corruption());
        assert!(!CacheError::BlockOp {
            block: BlockId(1),
            source: FlashOpError::BlockOutOfRange(BlockId(1)),
        }
        .is_corruption());
    }

    #[test]
    fn display_names_the_failure() {
        let addr = PageAddr::new(BlockId(3), 4);
        let e = CacheError::MappingMissing { addr };
        assert!(e.to_string().contains("no disk mapping"));
        assert!(e.to_string().contains("block 3 slot 4"));
        let b = CacheError::BlockOp {
            block: BlockId(3),
            source: FlashOpError::BlockOutOfRange(BlockId(3)),
        };
        assert!(b.to_string().contains("failed"));
    }
}
