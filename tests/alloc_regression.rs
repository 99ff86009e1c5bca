//! Zero steady-state allocation: the arena engine's headline guarantee.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc`/`alloc_zeroed` call in the process.
//! After a warmup run has sized every buffer — arena columns, the
//! double-buffered slot arrays, handoff rings, staging and removal
//! scratch, the delivered list — repeating the *same* workload must hit
//! the allocator **zero** times at `threads = 1`: not per step, not per
//! run, not in `drain_delivered`. That is the whole point of the flat
//! struct-of-arrays layout; any regression (a stray `clone`, a
//! `Vec::new` in the step loop, a drain that reallocates) fails here
//! with an exact allocation count.
//!
//! Parallel runs are allowed a small *per-run* setup cost (the
//! band-state parking slots and trace partitions are built per run
//! because they borrow the engine), so the second test pins down the
//! sharper invariant: the allocation count of a warm parallel run is
//! independent of how many steps the run executes. If the step loop
//! itself allocated, a workload with more steps would allocate more.
//!
//! The counter is process-wide and libtest runs tests concurrently, so
//! each test holds [`MEASURING`] across its warm-up and measurement:
//! otherwise one test's allocations land in the other's window.

use prasim_mesh::engine::{Engine, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::{Coord, MeshShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; only adds a relaxed
// counter bump, which is allocation-free.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Held by each test for its whole warm-up and measurement.
static MEASURING: Mutex<()> = Mutex::new(());

/// Takes [`MEASURING`]; a test that failed while holding it poisons the
/// lock, which must not fail the other test too.
fn exclusive() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic SplitMix64 finalizer (same shape the engine benches
/// use) so the workload needs no RNG crate.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `per_node` random-destination packets on every node; `spread` caps
/// how many columns east a destination may sit (same row), which
/// controls the run's step count without changing the packet count.
/// `spread >= nodes` means mesh-wide random destinations.
fn workload(shape: MeshShape, per_node: u64, spread: u64) -> Vec<(Coord, Packet)> {
    let bounds = Rect::full(shape);
    let n = shape.nodes();
    let mut out = Vec::new();
    let mut id = 0u64;
    for node in 0..n as u32 {
        for _ in 0..per_node {
            let r = mix(0xC0FFEE ^ id);
            let dst = if spread >= n {
                (r % n) as u32
            } else {
                let here = shape.coord(node);
                let dc = (here.c + (r % spread) as u32).min(shape.cols - 1);
                shape.index(Coord { r: here.r, c: dc })
            };
            out.push((
                shape.coord(node),
                Packet {
                    id,
                    dest: shape.coord(dst),
                    bounds,
                    tag: id,
                },
            ));
            id += 1;
        }
    }
    out
}

/// One full warm cycle: reset, inject everything, run, drain in place.
/// Returns (steps, delivered) so the caller can sanity-check the
/// workload actually exercised the engine.
fn cycle(engine: &mut Engine, w: &[(Coord, Packet)]) -> (u64, u64) {
    engine.reset();
    for &(src, pkt) in w {
        engine.inject(src, pkt);
    }
    let stats = engine.run(1_000_000).expect("workload must route");
    let delivered = engine.drain_delivered().count() as u64;
    (stats.steps, delivered)
}

#[test]
fn sequential_steady_state_allocates_nothing() {
    let _window = exclusive();
    let shape = MeshShape::square(32);
    let w = workload(shape, 4, shape.nodes());
    let mut engine = Engine::new(shape).with_threads(1);

    // Warmup: size every buffer. Two cycles, because the first grows
    // the arena and slot arrays and the second proves reset/inject/run
    // reuse them (and catches anything sized lazily on first drain).
    let (_, delivered) = cycle(&mut engine, &w);
    assert_eq!(delivered, w.len() as u64);
    cycle(&mut engine, &w);

    // Measure across two full warm cycles so the window spans well over
    // 100 engine steps plus two reset/inject/drain phases.
    let before = allocations();
    let (steps_a, delivered) = cycle(&mut engine, &w);
    let (steps_b, _) = cycle(&mut engine, &w);
    let after = allocations();

    let steps = steps_a + steps_b;
    assert!(steps >= 100, "workload too easy: {steps} warm steps");
    assert_eq!(delivered, w.len() as u64);
    assert_eq!(
        after - before,
        0,
        "warm sequential cycles ({steps} steps, {delivered} packets each) \
         must not allocate"
    );
}

#[test]
fn parallel_run_allocations_are_step_count_independent() {
    let _window = exclusive();
    let shape = MeshShape::square(32);
    // Same packet count, very different step counts: adjacent
    // destinations versus mesh-wide ones.
    let short = workload(shape, 4, 2);
    let long = workload(shape, 4, shape.nodes());
    let mut engine = Engine::new(shape).with_threads(2);

    // Warm both workloads so every buffer has seen its maximum size.
    for _ in 0..2 {
        cycle(&mut engine, &short);
        cycle(&mut engine, &long);
    }

    let measure = |engine: &mut Engine, w: &[(Coord, Packet)]| {
        let before = allocations();
        let (steps, _) = cycle(engine, w);
        (allocations() - before, steps)
    };

    let (short_allocs, short_steps) = measure(&mut engine, &short);
    let (long_allocs, long_steps) = measure(&mut engine, &long);
    assert!(
        long_steps >= short_steps + 30,
        "workloads must differ in step count ({short_steps} vs {long_steps})"
    );
    // The per-run setup (band-state slots, barrier frame) may allocate
    // a constant amount; the step loop may not allocate at all.
    assert_eq!(
        short_allocs, long_allocs,
        "a {long_steps}-step warm run must allocate exactly as much as \
         a {short_steps}-step one (per-run setup only)"
    );
    assert!(
        long_allocs <= 16,
        "per-run setup should be a handful of allocations, got {long_allocs}"
    );
}
