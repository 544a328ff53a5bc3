//! A page decode that corrects up to four bit errors allocates nothing:
//! the closed-form root finders keep their roots in a fixed four-slot
//! list, and the division register and Berlekamp–Massey rows live on
//! the stack. Allocations are counted per thread, so the harness's other
//! threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flash_ecc::page::{PageCodec, PageDecodeOutcome, PAGE_DATA_BYTES};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn decodes_of_up_to_four_errors_allocate_nothing() {
    // Flips in the data, the CRC and the parity, in every error count
    // the closed forms solve.
    let flips = [
        9usize,
        PAGE_DATA_BYTES * 8 + 3,
        12_345,
        PAGE_DATA_BYTES * 8 + 40,
    ];
    for t in [4, 8, 12] {
        let codec = PageCodec::new(t).unwrap();
        let data: Vec<u8> = (0..PAGE_DATA_BYTES).map(|i| (i * 37 + t) as u8).collect();
        let spare = codec.encode(&data);
        for errors in 0..=4 {
            let mut page = data.clone();
            let mut bad_spare = spare.clone();
            for &bit in &flips[..errors] {
                match bit.checked_sub(PAGE_DATA_BYTES * 8) {
                    Some(s) => bad_spare[s / 8] ^= 0x80 >> (s % 8),
                    None => page[bit / 8] ^= 0x80 >> (bit % 8),
                }
            }
            let before = allocations();
            let outcome = codec.decode(&mut page, &bad_spare);
            assert_eq!(allocations(), before, "t={t} errors={errors}");
            let expected = match errors {
                0 => PageDecodeOutcome::Clean,
                corrected => PageDecodeOutcome::Corrected { corrected },
            };
            assert_eq!(outcome, Ok(expected), "t={t} errors={errors}");
            assert_eq!(page, data, "t={t} errors={errors}");
        }
    }
}
