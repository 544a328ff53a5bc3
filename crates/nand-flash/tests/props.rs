//! Property-based tests of the NAND device state machine: arbitrary
//! operation sequences never panic, never violate the erase-before-
//! program discipline, and wear only accumulates.

use proptest::prelude::*;

use nand_flash::{
    BlockId, CellMode, FlashConfig, FlashDevice, FlashGeometry, PageAddr, WearConfig,
};

#[derive(Debug, Clone, Copy)]
enum DevOp {
    Program { block: u32, slot: u32, slc: bool },
    Read { block: u32, slot: u32 },
    Erase { block: u32 },
    Probe { block: u32, page: u32 },
}

fn op_strategy(blocks: u32, spb: u32) -> impl Strategy<Value = DevOp> {
    let ppb = spb / 2;
    prop_oneof![
        4 => (0..blocks, 0..spb, any::<bool>())
            .prop_map(|(block, slot, slc)| DevOp::Program { block, slot, slc }),
        3 => (0..blocks, 0..spb).prop_map(|(block, slot)| DevOp::Read { block, slot }),
        1 => (0..blocks).prop_map(|block| DevOp::Erase { block }),
        1 => (0..blocks, 0..ppb).prop_map(|(block, page)| DevOp::Probe { block, page }),
    ]
}

fn device() -> FlashDevice {
    FlashDevice::new(FlashConfig {
        geometry: FlashGeometry {
            blocks: 4,
            pages_per_block: 3,
        },
        wear: WearConfig::default().accelerated(1e5),
        ..FlashConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The device accepts any op sequence without panicking, and its
    /// observable state stays consistent with a shadow model of which
    /// slots hold data.
    #[test]
    fn device_state_machine_is_sound(
        ops in prop::collection::vec(op_strategy(4, 6), 1..250),
    ) {
        let mut dev = device();
        // Shadow model: Some(mode) per programmed slot.
        let mut shadow = [[None::<CellMode>; 6]; 4];
        for op in ops {
            match op {
                DevOp::Program { block, slot, slc } => {
                    let addr = PageAddr::new(BlockId(block), slot);
                    let mode = if slc { CellMode::Slc } else { CellMode::Mlc };
                    let result = dev.program_page(addr, mode, None);
                    if result.is_ok() {
                        prop_assert!(shadow[block as usize][slot as usize].is_none(),
                            "programming over data must fail");
                        shadow[block as usize][slot as usize] = Some(mode);
                    }
                }
                DevOp::Read { block, slot } => {
                    let addr = PageAddr::new(BlockId(block), slot);
                    let result = dev.read_page(addr);
                    match shadow[block as usize][slot as usize] {
                        Some(mode) => {
                            let out = result.expect("programmed slot must read");
                            prop_assert_eq!(out.mode, mode);
                        }
                        None => prop_assert!(result.is_err(), "unwritten slot must not read"),
                    }
                }
                DevOp::Erase { block } => {
                    let before = dev.erase_count(BlockId(block));
                    let out = dev.erase_block(BlockId(block)).unwrap();
                    prop_assert_eq!(out.erase_count, before + 1);
                    for s in &mut shadow[block as usize] {
                        *s = None;
                    }
                }
                DevOp::Probe { block, page } => {
                    let addr = PageAddr::new(BlockId(block), page * 2);
                    let (slc, mlc) = dev.probe_page_health(addr);
                    prop_assert!(slc <= mlc, "SLC failures are a subset of MLC failures");
                }
            }
        }
        // Device agrees with the shadow on programmed state everywhere.
        for b in 0..4u32 {
            for s in 0..6u32 {
                let addr = PageAddr::new(BlockId(b), s);
                prop_assert_eq!(
                    dev.is_programmed(addr),
                    shadow[b as usize][s as usize].is_some()
                );
            }
        }
    }

    /// Erase counts equal the number of successful erases, and device
    /// stats count every accepted operation exactly once.
    #[test]
    fn stats_count_exactly_the_accepted_ops(
        ops in prop::collection::vec(op_strategy(4, 6), 1..150),
    ) {
        let mut dev = device();
        let (mut programs, mut reads, mut erases) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                DevOp::Program { block, slot, slc } => {
                    let mode = if slc { CellMode::Slc } else { CellMode::Mlc };
                    if dev
                        .program_page(PageAddr::new(BlockId(block), slot), mode, None)
                        .is_ok()
                    {
                        programs += 1;
                    }
                }
                DevOp::Read { block, slot } => {
                    if dev.read_page(PageAddr::new(BlockId(block), slot)).is_ok() {
                        reads += 1;
                    }
                }
                DevOp::Erase { block } => {
                    dev.erase_block(BlockId(block)).unwrap();
                    erases += 1;
                }
                DevOp::Probe { .. } => {}
            }
        }
        let s = dev.stats();
        prop_assert_eq!(s.programs, programs);
        prop_assert_eq!(s.reads, reads);
        prop_assert_eq!(s.erases, erases);
        prop_assert!(s.busy_us > 0.0 || programs + reads + erases == 0);
    }

    /// Wear is monotone: probing after more erases never reports fewer
    /// permanent failures.
    #[test]
    fn wear_is_monotone_in_erase_count(extra_erases in 1u32..200) {
        let mut dev = FlashDevice::new(FlashConfig {
            geometry: FlashGeometry {
                blocks: 1,
                pages_per_block: 1,
            },
            wear: WearConfig::default().accelerated(3e6),
            ..FlashConfig::default()
        });
        let addr = PageAddr::new(BlockId(0), 0);
        let mut last = (0u32, 0u32);
        for _ in 0..extra_erases {
            dev.erase_block(BlockId(0)).unwrap();
            let now = dev.probe_page_health(addr);
            prop_assert!(now.0 >= last.0 && now.1 >= last.1);
            last = now;
        }
    }
}
