//! The no-panic fuzz harness `fuzz_checkpoint.rs` and `fuzz_text.rs` share:
//! a counting `#[global_allocator]` and the property check over one decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Size of the largest single allocation requested since the last reset.
/// A fuzz file holds one `#[test]`, so nothing else allocates while a decode
/// is being watched.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Watch;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed store
// to a counter that publishes no other data.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// Small collections round their first allocation up past a tiny input.
const SLACK: usize = 4096;

/// Runs `decode` on `input` under the allocation watch and checks the
/// property; `what` names the mutation in a failure.
pub fn check<T, E: std::fmt::Debug>(
    what: &str,
    input: &[u8],
    decode: impl FnOnce() -> Result<T, E>,
) {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(outcome.is_ok(), "{what}: the decoder panicked");
    assert!(
        largest <= input.len() + SLACK,
        "{what}: a {largest}-byte allocation for a {}-byte input ({:?})",
        input.len(),
        outcome.unwrap().err()
    );
}
