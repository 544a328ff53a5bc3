//! Flash array geometry and addressing.
//!
//! Mirrors the paper's device (§2.1, Figure 1(a)): 2KB pages with a
//! 64-byte spare area, erased in blocks of 64 SLC pages (128KB). Each
//! physical page can operate in SLC mode (one 2KB page) or MLC mode
//! (two 2KB pages), so a block holds 64 SLC pages *or* 128 MLC pages.
//!
//! Addressing is in terms of *slots*: slot `2k` and `2k+1` are the two
//! MLC halves of physical page `k`. A page programmed in SLC mode uses
//! only the even slot; its odd sibling is unusable until the next erase.

use std::fmt;

use flash_ecc::page::PAGE_DATA_BYTES;

/// Cell density mode of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellMode {
    /// Single-level cell: 1 bit/cell — faster, 10× more durable.
    Slc,
    /// Multi-level cell: 2 bits/cell — denser, slower, less durable.
    Mlc,
}

impl CellMode {
    /// Number of 2KB logical pages a physical page provides in this mode.
    pub fn pages_per_physical(self) -> u32 {
        match self {
            CellMode::Slc => 1,
            CellMode::Mlc => 2,
        }
    }
}

impl fmt::Display for CellMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellMode::Slc => write!(f, "SLC"),
            CellMode::Mlc => write!(f, "MLC"),
        }
    }
}

/// Identifier of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {}", self.0)
    }
}

/// Address of one 2KB logical page slot.
///
/// `slot` ranges over `0..2*pages_per_block`; slots `2k` and `2k+1`
/// share physical page `k` of the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// The erase block.
    pub block: BlockId,
    /// Slot within the block.
    pub slot: u32,
}

impl PageAddr {
    /// Creates a page address.
    pub fn new(block: BlockId, slot: u32) -> Self {
        PageAddr { block, slot }
    }

    /// Index of the physical page this slot lives on.
    pub fn physical_page(&self) -> u32 {
        self.slot / 2
    }

    /// Whether this is the second (upper) MLC half of its physical page.
    pub fn is_upper_half(&self) -> bool {
        self.slot % 2 == 1
    }

    /// The other slot sharing the same physical page.
    pub fn sibling(&self) -> PageAddr {
        PageAddr {
            block: self.block,
            slot: self.slot ^ 1,
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {} slot {}", self.block.0, self.slot)
    }
}

/// Shape of a flash array. Every page holds
/// [`PAGE_DATA_BYTES`] of data plus
/// [`PAGE_SPARE_BYTES`](flash_ecc::page::PAGE_SPARE_BYTES) of spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of erase blocks.
    pub blocks: u32,
    /// Physical (SLC-sized) pages per block. The paper uses 64.
    pub pages_per_block: u32,
}

impl Default for FlashGeometry {
    fn default() -> Self {
        FlashGeometry {
            blocks: 64,
            pages_per_block: 64,
        }
    }
}

impl FlashGeometry {
    /// Geometry sized to hold `capacity_bytes` of data in MLC mode
    /// (the device's maximum capacity), rounding up to whole blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn for_mlc_capacity(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be nonzero");
        let base = FlashGeometry::default();
        let bytes_per_block = base.pages_per_block as u64 * 2 * PAGE_DATA_BYTES as u64;
        let blocks = capacity_bytes.div_ceil(bytes_per_block);
        FlashGeometry {
            blocks: u32::try_from(blocks).expect("capacity too large"),
            ..base
        }
    }

    /// Slots per block (`2 × pages_per_block`; 128 in the paper).
    pub fn slots_per_block(&self) -> u32 {
        self.pages_per_block * 2
    }

    /// Total slots in the device.
    pub fn total_slots(&self) -> u64 {
        self.blocks as u64 * self.slots_per_block() as u64
    }

    /// Total physical pages in the device.
    pub fn total_physical_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// Device capacity in bytes when every page runs in `mode`.
    pub fn capacity_bytes(&self, mode: CellMode) -> u64 {
        self.total_physical_pages() * mode.pages_per_physical() as u64 * PAGE_DATA_BYTES as u64
    }

    /// `true` if `addr` lies inside this geometry.
    pub fn contains(&self, addr: PageAddr) -> bool {
        addr.block.0 < self.blocks && addr.slot < self.slots_per_block()
    }

    /// Iterator over all block ids.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks).map(BlockId)
    }

    /// Flat index of a physical page, for dense side tables.
    pub fn physical_index(&self, addr: PageAddr) -> usize {
        addr.block.0 as usize * self.pages_per_block as usize + addr.physical_page() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_block_shape() {
        let g = FlashGeometry::default();
        assert_eq!(g.slots_per_block(), 128); // 128 MLC pages per block
        assert_eq!(g.pages_per_block, 64); // 64 SLC pages per block
                                           // 128KB block in SLC mode.
        assert_eq!(
            g.pages_per_block as u64 * PAGE_DATA_BYTES as u64,
            128 * 1024
        );
    }

    #[test]
    fn capacity_depends_on_mode() {
        let g = FlashGeometry::default();
        assert_eq!(
            g.capacity_bytes(CellMode::Mlc),
            2 * g.capacity_bytes(CellMode::Slc)
        );
    }

    #[test]
    fn for_mlc_capacity_rounds_up() {
        let g = FlashGeometry::for_mlc_capacity(1 << 30); // 1GB
        assert!(g.capacity_bytes(CellMode::Mlc) >= 1 << 30);
        assert!(g.capacity_bytes(CellMode::Mlc) < (1 << 30) + 512 * 1024);
        // One byte still allocates one block.
        assert_eq!(FlashGeometry::for_mlc_capacity(1).blocks, 1);
    }

    #[test]
    fn slot_addressing() {
        let a = PageAddr::new(BlockId(3), 7);
        assert_eq!(a.physical_page(), 3);
        assert!(a.is_upper_half());
        assert_eq!(a.sibling().slot, 6);
        assert_eq!(a.sibling().sibling(), a);
    }

    #[test]
    fn contains_checks_bounds() {
        let g = FlashGeometry::default();
        assert!(g.contains(PageAddr::new(BlockId(0), 0)));
        assert!(g.contains(PageAddr::new(BlockId(63), 127)));
        assert!(!g.contains(PageAddr::new(BlockId(64), 0)));
        assert!(!g.contains(PageAddr::new(BlockId(0), 128)));
    }

    #[test]
    fn physical_index_is_dense_and_unique() {
        let g = FlashGeometry {
            blocks: 4,
            pages_per_block: 8,
        };
        let mut seen = std::collections::HashSet::new();
        for b in g.iter_blocks() {
            for slot in 0..g.slots_per_block() {
                let idx = g.physical_index(PageAddr::new(b, slot));
                assert!(idx < g.total_physical_pages() as usize);
                seen.insert((idx, slot % 2));
            }
        }
        assert_eq!(seen.len(), 2 * g.total_physical_pages() as usize);
    }

    #[test]
    fn mode_display_and_density() {
        assert_eq!(CellMode::Slc.to_string(), "SLC");
        assert_eq!(CellMode::Mlc.to_string(), "MLC");
        assert_eq!(CellMode::Mlc.pages_per_physical(), 2);
    }

    #[test]
    fn cells_per_page_matches_reliability_crate() {
        // The page size is stated twice: by the codec's layout and by the
        // lifetime model's cell count.
        use flash_ecc::page::PAGE_SPARE_BYTES;
        assert_eq!(
            (PAGE_DATA_BYTES + PAGE_SPARE_BYTES) * 8,
            flash_reliability::CELLS_PER_PAGE
        );
    }
}
