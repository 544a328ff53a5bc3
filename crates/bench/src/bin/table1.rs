//! Table 1: the ITRS 2007 memory-technology roadmap.

#![forbid(unsafe_code)]

use flash_reliability::itrs::ITRS_2007;
use flashcache_bench::RunArgs;

fn main() {
    let args = RunArgs::parse(1);
    args.announce("Table 1", "ITRS 2007 roadmap for memory technology");
    println!(
        "{:<28}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "", "2007", "2009", "2011", "2013", "2015"
    );
    let row = |label: &str, f: &dyn Fn(usize) -> String| {
        print!("{label:<28}");
        for i in 0..5 {
            print!("{:>8}", f(i));
        }
        println!();
    };
    row("NAND SLC (um^2/bit)", &|i| {
        format!("{:.4}", ITRS_2007[i].nand_slc_um2_per_bit)
    });
    row("NAND MLC (um^2/bit)", &|i| {
        format!("{:.4}", ITRS_2007[i].nand_mlc_um2_per_bit)
    });
    row("DRAM cell (um^2/bit)", &|i| {
        format!("{:.4}", ITRS_2007[i].dram_um2_per_bit)
    });
    row("W/E cycles SLC", &|i| {
        format!("{:.0e}", ITRS_2007[i].slc_we_cycles)
    });
    row("W/E cycles MLC", &|i| {
        format!("{:.0e}", ITRS_2007[i].mlc_we_cycles)
    });
    row("retention (years)", &|i| {
        format!("{:.0}", ITRS_2007[i].retention_years)
    });
}
