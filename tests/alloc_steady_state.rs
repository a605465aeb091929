//! Steady-state zero-allocation contract of the workload hot paths
//! (DESIGN.md §11).
//!
//! Every registered workload is run repeatedly with one fixed parameter
//! assignment. The first runs are warm-up: they fill the size-classed buffer
//! pool, the string interner and the generation memo caches. After that,
//! each `Workload::run` must be served entirely from pooled and memoized
//! storage — the counting global allocator below must observe **zero**
//! `alloc`/`realloc` calls across the steady-state launches.
//!
//! The test pins `RAYON_NUM_THREADS=1` before the first parallel call so the
//! worker pool's serial lane executes every kernel in the caller — the one
//! thread whose allocations are counted — and no launch pays for spawning
//! workers (a one-time, warm-up-phase cost in production).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point that can hand out new memory, on the
/// threads that switched counting on (see [`count_allocations`]). Only the
/// test's own thread does: libtest's harness allocates on other threads
/// (e.g. its "has been running for over 60 seconds" notice) whenever it
/// likes, and those allocations are not the workload's. Deallocation is free
/// to happen in steady state (returning a block to the pool's shelves never
/// touches the global allocator, but dropping a same-sized replacement is
/// harmless either way), so `dealloc` is not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const`-initialised
    /// and drop-free, so reading it from inside the allocator never
    /// allocates and stays valid during thread teardown.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn record() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` only reads a drop-free
// thread-local and bumps an atomic, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with counting switched on for the calling thread and returns its
/// result with the number of allocations `f` made on this thread. The gate
/// pins the pool to one thread, so every kernel runs here.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    let result = f();
    COUNTING.with(|counting| counting.set(false));
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Warm-up launches per workload before counting starts. Two would do (the
/// first fills caches, the second settles pool shelf population); a third
/// adds slack against launch-order effects inside a single run.
const WARMUP_RUNS: usize = 3;

/// Counted steady-state launches per workload.
const STEADY_RUNS: usize = 3;

#[test]
fn steady_state_launches_do_not_allocate() {
    // Must precede the first parallel call of the process: the worker pool
    // reads the variable once, when first used.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    use science_kernels::workload::{self, ParamValue};

    let engines = workload::all();
    assert!(
        engines.len() >= 7,
        "expected the seven registered workloads (four proxies, the sampled \
         variant, and the two §15 composites), found {}",
        engines.len()
    );

    for engine in engines {
        let mut params = engine.default_params();
        params
            .set(
                engine.size_param(),
                ParamValue::Int(engine.bench_sizes()[0]),
            )
            .expect("size param applies");

        for _ in 0..WARMUP_RUNS {
            engine.run(&params).expect("warm-up run succeeds");
        }

        for launch in 0..STEADY_RUNS {
            let (output, allocated) = count_allocations(|| engine.run(&params));
            let output = output.expect("steady-state run succeeds");
            assert!(
                !output.measurements.is_empty(),
                "{}: steady-state run produced no measurements",
                engine.name()
            );
            assert_eq!(
                allocated,
                0,
                "{}: steady-state launch {} performed {} global allocation(s); \
                 every hot-path buffer must come from the pool or a memo cache",
                engine.name(),
                launch + 1 + WARMUP_RUNS,
                allocated
            );
        }
    }
}
