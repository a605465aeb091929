//! Keyed memo caches for expensive workload-input generation.
//!
//! Every experiment, sweep and test that touches a workload used to
//! regenerate its inputs from scratch — the 1024-atom [`HeliumSystem`] alone
//! fills 524,800 Schwarz factors and a million density entries, and the full
//! report rebuilt it eight times (four platforms × Table 4 and Table 5). The
//! caches here memoise generation behind the *parameters that actually shape
//! the output*: callers with equal keys share one immutable `Arc`'d instance.
//!
//! Concurrency: each key owns a cell that records which thread is currently
//! generating. Threads hitting a cold key block until the value is published
//! — *unless* the requesting thread itself holds a generation claim (on this
//! key or any other). A claim holder never waits: it falls back to a
//! redundant generation with first-publish wins. That covers same-thread
//! reentrancy, and — crucially — the cross-key cycle the pool's helping can
//! produce: a worker mid-generation of key A steals a task that requests
//! in-flight key B while B's generator has symmetrically stolen a task
//! requesting A. If either waited, both would block forever with their
//! generations suspended beneath the wait; because holders regenerate
//! instead, every claim is always released in finite time. Generators are
//! deterministic, so a redundant copy is identical. Once warm, a request
//! costs one uncontended map-mutex fetch of the cell plus an `Arc` clone —
//! no per-cell claim bookkeeping.

use crate::hartree_fock::{
    reference_fock, HartreeFockConfig, HeliumSystem, SampleWeighting, SampledPlan,
};
use crate::minibude::{reference_energies, Deck, MiniBudeConfig};
use crate::stencil7::{initialize_grid, reference_laplacian, StencilConfig};
use gpu_sim::memory::Device;
use gpu_sim::TimingModel;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::ThreadId;
use vendor_models::Platform;

thread_local! {
    /// Number of generation claims this thread currently holds, across all
    /// memos. While it is non-zero the thread must never block on another
    /// key's publication (see the module docs for the cycle this prevents).
    static CLAIMS_HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One memo cell: the published value plus the claim state used to
/// deduplicate concurrent cold-key generation.
struct MemoCell<V> {
    value: OnceLock<Arc<V>>,
    /// Thread currently generating this key, if any.
    generating: Mutex<Option<ThreadId>>,
    published: Condvar,
}

impl<V> Default for MemoCell<V> {
    fn default() -> Self {
        MemoCell {
            value: OnceLock::new(),
            generating: Mutex::new(None),
            published: Condvar::new(),
        }
    }
}

/// Clears a cell's claim (on publish *or* unwind) and wakes the waiters.
struct ClaimGuard<'a, V> {
    cell: &'a MemoCell<V>,
}

impl<V> Drop for ClaimGuard<'_, V> {
    fn drop(&mut self) {
        CLAIMS_HELD.with(|held| held.set(held.get() - 1));
        let mut generating = self
            .cell
            .generating
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *generating = None;
        self.cell.published.notify_all();
    }
}

/// A lazily-created map of `key → MemoCell<V>`.
struct Memo<K, V> {
    map: OnceLock<Mutex<HashMap<K, Arc<MemoCell<V>>>>>,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    const fn new() -> Self {
        Memo {
            map: OnceLock::new(),
        }
    }

    /// Returns the cached value for `key`, generating it with `init` on the
    /// first request. The map lock is held only to fetch the key's cell;
    /// generation runs lock-free. See the module docs for the concurrency
    /// contract (claim-free waiters block, claim holders regenerate
    /// redundantly).
    fn get_or_generate(&self, key: K, init: impl FnOnce() -> V) -> Arc<V> {
        let map = self.map.get_or_init(|| Mutex::new(HashMap::new()));
        let cell = {
            let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
            map.entry(key).or_default().clone()
        };
        // Warm path: a published value needs no claim bookkeeping at all.
        if let Some(value) = cell.value.get() {
            return value.clone();
        }
        let me = std::thread::current().id();
        let mut generating = cell.generating.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = cell.value.get() {
                return value.clone();
            }
            match *generating {
                // The key is being generated while this thread holds a claim
                // of its own — on this very key (reentrancy) or on another
                // (cross-key helping); both leave CLAIMS_HELD non-zero.
                // Waiting could deadlock — our own suspended generation may
                // be what the owner is transitively waiting for — so
                // generate a redundant copy and let the first publisher win.
                Some(_) if CLAIMS_HELD.with(|held| held.get()) > 0 => {
                    drop(generating);
                    let value = Arc::new(init());
                    if cell.value.set(value).is_ok() {
                        // We published before the claim owner; wake waiters
                        // now rather than when the owner's claim drops. The
                        // lock orders this notify after any waiter's check of
                        // `value`, so none can park past it.
                        let _relock = cell.generating.lock().unwrap_or_else(|e| e.into_inner());
                        cell.published.notify_all();
                    }
                    return cell.value.get().expect("memo cell published").clone();
                }
                // Another thread is generating and we hold no claims, so
                // waiting cannot form a cycle: wait for the publish (or for
                // the owner's unwind, in which case the claim is
                // re-contended). A waiting pool worker idles here for the one
                // cold-start window per key — accepted in exchange for
                // keeping this crate off the pool's internals.
                Some(_) => {
                    generating = cell
                        .published
                        .wait(generating)
                        .unwrap_or_else(|e| e.into_inner());
                }
                // Cold key: claim it and generate.
                None => {
                    *generating = Some(me);
                    drop(generating);
                    CLAIMS_HELD.with(|held| held.set(held.get() + 1));
                    let guard = ClaimGuard { cell: &cell };
                    let value = Arc::new(init());
                    let _ = cell.value.set(value);
                    drop(guard);
                    return cell.value.get().expect("memo cell published").clone();
                }
            }
        }
    }
}

static DEVICE: Memo<&'static str, Device> = Memo::new();

/// The shared simulated [`Device`] for a platform's GPU spec (keyed by the
/// spec's name — there are exactly two devices in the paper). A `Device` is
/// internally reference-counted, so handing every run a clone of the cached
/// instance makes per-run device setup allocation-free; capacity accounting
/// is shared, which is exactly how a real device behaves.
pub fn device(platform: &Platform) -> Device {
    (*DEVICE.get_or_generate(platform.spec.name, || Device::new(platform.spec.clone()))).clone()
}

static TIMING: Memo<&'static str, TimingModel> = Memo::new();

/// The shared [`TimingModel`] for a platform's GPU spec. Building a model
/// clones the spec; every launch of every workload needs one, so the two
/// paper devices' models are built once.
pub fn timing_model(platform: &Platform) -> Arc<TimingModel> {
    TIMING.get_or_generate(platform.spec.name, || platform.timing_model())
}

/// The fields of [`HartreeFockConfig`] that determine the generated system
/// (screening tolerance and validation flags do not).
#[derive(PartialEq, Eq, Hash)]
struct HeliumKey {
    natoms: u32,
    ngauss: u32,
    spacing_bits: u64,
}

fn helium_key(config: &HartreeFockConfig) -> HeliumKey {
    HeliumKey {
        natoms: config.natoms,
        ngauss: config.ngauss,
        spacing_bits: config.spacing.to_bits(),
    }
}

static HELIUM: Memo<HeliumKey, HeliumSystem> = Memo::new();

/// The shared [`HeliumSystem`] for a configuration — geometry, basis, density
/// and Schwarz factors are generated once per distinct
/// (natoms, ngauss, spacing) and reused by the report, sweeps and tests.
pub fn helium_system(config: &HartreeFockConfig) -> Arc<HeliumSystem> {
    HELIUM.get_or_generate(helium_key(config), || HeliumSystem::generate(config))
}

/// A Hartree–Fock reference result additionally depends on the screening
/// tolerance (it decides which quartets contribute).
#[derive(PartialEq, Eq, Hash)]
struct FockKey {
    system: HeliumKey,
    tol_bits: u64,
}

fn fock_key(config: &HartreeFockConfig) -> FockKey {
    FockKey {
        system: helium_key(config),
        tol_bits: config.screening_tol.to_bits(),
    }
}

static FOCK_REF: Memo<FockKey, Vec<f64>> = Memo::new();

/// The shared CPU-reference Fock matrix for a configuration. The full quartet
/// sweep is the most expensive part of a functional Hartree–Fock validation;
/// four platforms re-verify against the same matrix, and repeated launches
/// reuse it outright.
pub fn hartree_fock_reference(config: &HartreeFockConfig) -> Arc<Vec<f64>> {
    FOCK_REF.get_or_generate(fock_key(config), || {
        reference_fock(&helium_system(config), config.screening_tol)
    })
}

#[derive(PartialEq, Eq, Hash)]
struct SampledKey {
    fock: FockKey,
    samples: u64,
    shards: u64,
}

static SAMPLED: Memo<SampledKey, SampledPlan> = Memo::new();

/// The shared run-invariant plan of a sampled Hartree–Fock validation: the
/// stratified probe set, its CPU-reference ERIs and the expected Fock
/// contributions. Sampling is purely arithmetic (no RNG), so the plan is a
/// function of the system, tolerance and probe counts alone. Uniform is the
/// only [`SampleWeighting`].
pub fn sampled_plan(
    config: &HartreeFockConfig,
    samples: u64,
    shards: u64,
    _weighting: SampleWeighting,
) -> Arc<SampledPlan> {
    SAMPLED.get_or_generate(
        SampledKey {
            fock: fock_key(config),
            samples,
            shards,
        },
        || {
            SampledPlan::generate(
                &helium_system(config),
                config.screening_tol,
                config.nquartets(),
                samples,
                shards,
            )
        },
    )
}

/// The fields of [`MiniBudeConfig`] that determine the generated deck
/// (`ppwi`, `wg` and `executed_poses` only affect the launch, not the deck).
#[derive(PartialEq, Eq, Hash)]
struct DeckKey {
    natlig: usize,
    natpro: usize,
    nposes: usize,
    seed: u64,
}

fn deck_key(config: &MiniBudeConfig) -> DeckKey {
    DeckKey {
        natlig: config.natlig,
        natpro: config.natpro,
        nposes: config.nposes,
        seed: config.seed,
    }
}

static DECK: Memo<DeckKey, Deck> = Memo::new();

/// The shared miniBUDE [`Deck`] for a configuration. The paper's PPWI sweep
/// runs the same bm1 deck through 16 launch shapes per device; this memo
/// generates it once.
pub fn minibude_deck(config: &MiniBudeConfig) -> Arc<Deck> {
    DECK.get_or_generate(deck_key(config), || Deck::generate(config))
}

/// The flattened (4-floats-per-atom / 3-floats-per-type) device upload
/// views of a deck — the layout workaround the paper describes for Mojo's
/// missing plain-old-data GPU allocations.
pub struct DeckFlats {
    /// Protein atoms, 4 floats each (x, y, z, type-as-float).
    pub protein: Vec<f32>,
    /// Ligand atoms, 4 floats each.
    pub ligand: Vec<f32>,
    /// Force-field parameters, 3 floats per type (radius, hphb, charge).
    pub forcefield: Vec<f32>,
}

static FLATS: Memo<DeckKey, DeckFlats> = Memo::new();

/// The shared flattened upload buffers of a deck. Both fasten drivers upload
/// the same three arrays on every run; flattening them once per deck keeps
/// repeated launches off the allocator.
pub fn minibude_flats(config: &MiniBudeConfig) -> Arc<DeckFlats> {
    FLATS.get_or_generate(deck_key(config), || {
        let deck = minibude_deck(config);
        DeckFlats {
            protein: deck.protein_flat(),
            ligand: deck.ligand_flat(),
            forcefield: deck.forcefield_flat(),
        }
    })
}

/// A fasten reference depends on the deck and on how many poses execute.
#[derive(PartialEq, Eq, Hash)]
struct BudeRefKey {
    deck: DeckKey,
    poses: usize,
}

static BUDE_REF: Memo<BudeRefKey, Vec<f32>> = Memo::new();

/// The shared CPU-reference pose energies for a configuration's executed
/// poses.
pub fn minibude_reference(config: &MiniBudeConfig) -> Arc<Vec<f32>> {
    BUDE_REF.get_or_generate(
        BudeRefKey {
            deck: deck_key(config),
            poses: config.executed_poses,
        },
        || reference_energies(&minibude_deck(config), config.executed_poses),
    )
}

static GRID: Memo<usize, Vec<f64>> = Memo::new();

/// The shared stencil input grid for a configuration (determined by the grid
/// side `l` alone — the field is evaluated on the normalised unit cube).
pub fn stencil_grid(config: &StencilConfig) -> Arc<Vec<f64>> {
    GRID.get_or_generate(config.l, || initialize_grid(config))
}

static GRID_F32: Memo<usize, Vec<f32>> = Memo::new();

/// The shared FP32 narrowing of the stencil input grid.
pub fn stencil_grid_f32(config: &StencilConfig) -> Arc<Vec<f32>> {
    GRID_F32.get_or_generate(config.l, || {
        stencil_grid(config).iter().map(|&v| v as f32).collect()
    })
}

/// Per-precision access to the cached stencil grid, so the generic driver
/// body can fetch its working-precision input without converting per run.
pub trait StencilGridCache: Sized {
    /// The cached input grid at this precision.
    fn cached_stencil_grid(config: &StencilConfig) -> Arc<Vec<Self>>;
}

impl StencilGridCache for f64 {
    fn cached_stencil_grid(config: &StencilConfig) -> Arc<Vec<f64>> {
        stencil_grid(config)
    }
}

impl StencilGridCache for f32 {
    fn cached_stencil_grid(config: &StencilConfig) -> Arc<Vec<f32>> {
        stencil_grid_f32(config)
    }
}

/// A stencil reference depends on the grid side and the spacing that shapes
/// the coefficients (always `1/(l-1)` today, keyed defensively anyway).
#[derive(PartialEq, Eq, Hash)]
struct StencilRefKey {
    l: usize,
    spacing_bits: u64,
}

static STENCIL_REF: Memo<StencilRefKey, Vec<f64>> = Memo::new();

/// The shared CPU-reference Laplacian for a configuration. The reference is
/// always evaluated in f64 from the f64 grid, whatever the working precision.
pub fn stencil_reference(config: &StencilConfig) -> Arc<Vec<f64>> {
    STENCIL_REF.get_or_generate(
        StencilRefKey {
            l: config.l,
            spacing_bits: config.spacing.to_bits(),
        },
        || reference_laplacian(config, &stencil_grid(config)),
    )
}

/// A Jacobi reference solve depends on the grid side and the iteration cap
/// (block size and validate flags never change the arithmetic).
#[derive(PartialEq, Eq, Hash)]
struct JacobiRefKey {
    l: usize,
    iters: usize,
}

static JACOBI_REF: Memo<JacobiRefKey, crate::jacobi::JacobiSolution> = Memo::new();

/// The shared CPU reference solve for a Jacobi configuration: the golden
/// grid, the residual history, and the convergence point every driver
/// replays.
pub fn jacobi_reference(
    config: &crate::jacobi::JacobiConfig,
) -> Arc<crate::jacobi::JacobiSolution> {
    JACOBI_REF.get_or_generate(
        JacobiRefKey {
            l: config.l,
            iters: config.iters,
        },
        || crate::jacobi::solve_host(config),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn cold_key_generation_is_deduplicated_across_threads() {
        static MEMO: Memo<u32, u64> = Memo::new();
        let generations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let value = MEMO.get_or_generate(7, || {
                        generations.fetch_add(1, Ordering::SeqCst);
                        // Hold the claim long enough for the others to arrive.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(*value, 42);
                });
            }
        });
        assert_eq!(
            generations.load(Ordering::SeqCst),
            1,
            "distinct threads must share one generation"
        );
    }

    #[test]
    fn cross_key_claim_cycle_cannot_deadlock() {
        // The scenario the pool's helping can produce: two threads each hold
        // a generation claim on one key while requesting the other's
        // in-flight key. Claim holders must regenerate redundantly instead
        // of waiting — if either waits, this test hangs forever.
        static MEMO: Memo<u32, u32> = Memo::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let v = MEMO.get_or_generate(1, || {
                    barrier.wait(); // both claims are now held
                    *MEMO.get_or_generate(2, || 20) + 1
                });
                // Whoever published first, the cell is consistent afterwards.
                assert!(Arc::ptr_eq(&v, &MEMO.get_or_generate(1, || unreachable!())));
            });
            scope.spawn(|| {
                let v = MEMO.get_or_generate(2, || {
                    barrier.wait();
                    *MEMO.get_or_generate(1, || 10) + 1
                });
                assert!(Arc::ptr_eq(&v, &MEMO.get_or_generate(2, || unreachable!())));
            });
        });
    }

    #[test]
    fn helium_systems_are_shared_per_key() {
        let a = helium_system(&HartreeFockConfig::validation(14));
        let b = helium_system(&HartreeFockConfig::validation(14));
        assert!(Arc::ptr_eq(&a, &b));
        // The screening tolerance is not part of the key.
        let mut config = HartreeFockConfig::validation(14);
        config.screening_tol = 1e-3;
        assert!(Arc::ptr_eq(&a, &helium_system(&config)));
        // A different size is a different system.
        let c = helium_system(&HartreeFockConfig::validation(15));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.natoms, 15);
    }

    #[test]
    fn cached_system_matches_fresh_generation() {
        let config = HartreeFockConfig::validation(11);
        let cached = helium_system(&config);
        let fresh = HeliumSystem::generate(&config);
        assert_eq!(cached.geometry, fresh.geometry);
        assert_eq!(cached.dens, fresh.dens);
        assert_eq!(cached.schwarz, fresh.schwarz);
        assert_eq!(cached.schwarz_levels, fresh.schwarz_levels);
    }

    #[test]
    fn decks_are_shared_across_launch_shapes() {
        let a = minibude_deck(&MiniBudeConfig::validation(1, 8));
        // Same deck dimensions and seed, different ppwi/wg: same deck.
        let b = minibude_deck(&MiniBudeConfig::validation(16, 64));
        assert!(Arc::ptr_eq(&a, &b));
        let mut other = MiniBudeConfig::validation(1, 8);
        other.seed += 1;
        assert!(!Arc::ptr_eq(&a, &minibude_deck(&other)));
    }

    #[test]
    fn stencil_grids_are_shared_per_side_and_correct() {
        let config = StencilConfig::validation(16, gpu_spec::Precision::Fp64);
        let a = stencil_grid(&config);
        let b = stencil_grid(&config);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, initialize_grid(&config));
    }
}
