//! The 2007 ITRS roadmap constants reproduced in the paper's Table 1.

/// One row set of the ITRS 2007 roadmap (Table 1) for a given year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItrsEntry {
    /// Technology year.
    pub year: u32,
    /// NAND SLC cell density, µm²/bit.
    pub nand_slc_um2_per_bit: f64,
    /// NAND MLC cell density, µm²/bit.
    pub nand_mlc_um2_per_bit: f64,
    /// DRAM cell density, µm²/bit.
    pub dram_um2_per_bit: f64,
    /// SLC write/erase endurance, cycles.
    pub slc_we_cycles: f64,
    /// MLC write/erase endurance, cycles.
    pub mlc_we_cycles: f64,
    /// Data retention, years (lower bound of the quoted range).
    pub retention_years: f64,
}

/// The full Table 1 as published.
pub const ITRS_2007: [ItrsEntry; 5] = [
    ItrsEntry {
        year: 2007,
        nand_slc_um2_per_bit: 0.0130,
        nand_mlc_um2_per_bit: 0.0065,
        dram_um2_per_bit: 0.0324,
        slc_we_cycles: 1e5,
        mlc_we_cycles: 1e4,
        retention_years: 10.0,
    },
    ItrsEntry {
        year: 2009,
        nand_slc_um2_per_bit: 0.0081,
        nand_mlc_um2_per_bit: 0.0041,
        dram_um2_per_bit: 0.0153,
        slc_we_cycles: 1e5,
        mlc_we_cycles: 1e4,
        retention_years: 10.0,
    },
    ItrsEntry {
        year: 2011,
        nand_slc_um2_per_bit: 0.0052,
        nand_mlc_um2_per_bit: 0.0013,
        dram_um2_per_bit: 0.0096,
        slc_we_cycles: 1e6,
        mlc_we_cycles: 1e4,
        retention_years: 10.0,
    },
    ItrsEntry {
        year: 2013,
        nand_slc_um2_per_bit: 0.0031,
        nand_mlc_um2_per_bit: 0.0008,
        dram_um2_per_bit: 0.0061,
        slc_we_cycles: 1e6,
        mlc_we_cycles: 1e4,
        retention_years: 20.0,
    },
    ItrsEntry {
        year: 2015,
        nand_slc_um2_per_bit: 0.0021,
        nand_mlc_um2_per_bit: 0.0005,
        dram_um2_per_bit: 0.0038,
        slc_we_cycles: 1e6,
        mlc_we_cycles: 1e4,
        retention_years: 20.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_generations_in_order() {
        assert_eq!(ITRS_2007.len(), 5);
        for w in ITRS_2007.windows(2) {
            assert!(w[0].year < w[1].year);
        }
        assert_eq!(ITRS_2007.map(|e| e.year), [2007, 2009, 2011, 2013, 2015]);
    }

    #[test]
    fn density_improves_every_generation() {
        for w in ITRS_2007.windows(2) {
            assert!(w[1].nand_slc_um2_per_bit < w[0].nand_slc_um2_per_bit);
            assert!(w[1].nand_mlc_um2_per_bit < w[0].nand_mlc_um2_per_bit);
            assert!(w[1].dram_um2_per_bit < w[0].dram_um2_per_bit);
        }
    }

    #[test]
    fn nand_is_denser_than_dram_and_widening() {
        // §2.1: "reasonable to expect NAND Flash to be as much as 8x denser
        // than DRAM by 2015" (MLC).
        let (e2007, e2015) = (&ITRS_2007[0], &ITRS_2007[4]);
        assert!(e2007.dram_um2_per_bit / e2007.nand_mlc_um2_per_bit >= 4.0);
        assert!(e2015.dram_um2_per_bit / e2015.nand_mlc_um2_per_bit >= 7.0);
    }

    #[test]
    fn slc_mlc_endurance_gap() {
        // The 2007 generation's 10x gap is the one the wear model uses.
        assert_eq!(
            ITRS_2007[0].slc_we_cycles / ITRS_2007[0].mlc_we_cycles,
            10.0
        );
        for e in &ITRS_2007 {
            assert!(e.slc_we_cycles >= 10.0 * e.mlc_we_cycles);
        }
    }
}
