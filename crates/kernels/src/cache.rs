//! One bounded single-flight cache, [`SingleFlight`], and the memo tiers of
//! expensive workload inputs built on it.
//!
//! A [`SingleFlight<K, V>`] is an LRU map bounded in entries and in the
//! bytes its `cost` function prices each value at; a value larger than the
//! whole byte budget is not kept. [`SingleFlight::claim`] answers a key with
//! a `Hit`, a `Lead` (compute the value, then [`Lead::publish`] it) or a
//! `Follow` ([`Pending::wait`] for another caller's computation). A failed
//! flight, or a lead dropped unpublished because its computation unwound,
//! is never cached; its followers get the error. `serve`'s result cache is
//! one instance (DESIGN.md §13); the twelve memo tiers below are the others.
//!
//! A memo tier shares generated inputs through
//! [`SingleFlight::get_or_generate`], keyed on the parameters that shape
//! them, within [`MEMO_BUDGET_BYTES`]. The cross-key rule: a caller that
//! finds its key in flight waits, unless it holds a memo generation claim
//! itself (on this key or any other); then it generates a private copy.
//! Otherwise the pool's helping can close a cycle: a worker generating key
//! A steals a task that requests in-flight key B while B's generator has
//! stolen a task requesting A, and both wait forever. Generators are
//! deterministic, so a private copy is identical. `serve` takes its claims
//! on connection threads, and they do not count.

use crate::hartree_fock::{
    reference_fock, HartreeFockConfig, HeliumSystem, SampleWeighting, SampledPlan,
};
use crate::minibude::{reference_energies, Deck, MiniBudeConfig};
use crate::stencil7::{initialize_grid, reference_laplacian, StencilConfig};
use gpu_sim::memory::Device;
use gpu_sim::TimingModel;
use serde::Serialize;
use std::collections::HashMap;
use std::hash::Hash;
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use vendor_models::Platform;

/// The byte budget of each memo tier: 256 MiB. The largest value a tier
/// takes from a workload's bounded parameters is the 4096-atom
/// (`MAX_ATOMS`) helium system: a 4096² f64 density (134.2 MB) plus one f64
/// Schwarz factor per atom pair (4096·4097/2 · 8 B = 67.1 MB), 201.4 MB.
/// The other tiers stay below it: the l = 192 stencil grid or reference is
/// 192³ · 8 B = 56.6 MB, and a 4096-atom sampled plan at 2²⁰ probes is its
/// 134.2 MB expected Fock matrix plus 24 B per probe, 159.4 MB. A miniBUDE
/// deck grows with `poses` (24 B per pose), and `validate` refuses more
/// than [`crate::minibude::workload::MAX_POSES`] (11,184,810), the most
/// that fit this budget.
pub const MEMO_BUDGET_BYTES: u64 = 256 << 20;

thread_local! {
    /// Memo generation claims this thread holds (see the cross-key rule).
    static CLAIMS_HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Releases one counted memo claim when dropped, unwinding included.
struct Held;

impl Drop for Held {
    fn drop(&mut self) {
        CLAIMS_HELD.with(|held| held.set(held.get() - 1));
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock: a panicking
/// computation must not wedge the cache for everyone else.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A flight: one computation in progress that other callers can wait on.
pub struct Pending<V> {
    outcome: Mutex<Option<Result<V, String>>>,
    landed: Condvar,
}

impl<V: Clone> Pending<V> {
    /// Blocks until the flight's lead publishes or abandons it.
    pub fn wait(&self) -> Result<V, String> {
        let outcome = self.landed.wait_while(lock(&self.outcome), |o| o.is_none());
        let outcome = outcome.unwrap_or_else(PoisonError::into_inner);
        outcome.clone().expect("the flight has landed")
    }
}

/// How [`SingleFlight::claim`] answered a key.
pub enum Claim<'a, K: Eq + Hash + Clone, V: Clone> {
    /// The cached value.
    Hit(V),
    /// The caller computes the value and publishes it.
    Lead(Lead<'a, K, V>),
    /// Another caller is computing the value.
    Follow(Arc<Pending<V>>),
}

/// The claim to compute one key. The flight lands when the lead drops:
/// with the published outcome, or unpublished (its computation unwound)
/// with an error, so followers never wait forever and nothing is cached.
pub struct Lead<'a, K: Eq + Hash + Clone, V: Clone> {
    cache: &'a SingleFlight<K, V>,
    key: K,
    flight: Arc<Pending<V>>,
    outcome: Option<Result<V, String>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lead<'_, K, V> {
    /// Lands the flight with `outcome`: a success is cached within the
    /// bounds, and the followers wake. Returns the landed flight, whose
    /// [`Pending::wait`] answers at once.
    pub fn publish(mut self, outcome: Result<V, String>) -> Arc<Pending<V>> {
        self.outcome = Some(outcome);
        Arc::clone(&self.flight)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        let abandoned = || Err("computation abandoned".to_string());
        let outcome = self.outcome.take().unwrap_or_else(abandoned);
        let cache = self.cache;
        let mut tier = cache.tier();
        if let Ok(value) = &outcome {
            tier.admit(self.key.clone(), value.clone(), (cache.cost)(value), cache);
        }
        // Under the same lock, so the next claim of the key is a hit (or a
        // new flight), never this finished one.
        tier.flights.remove(&self.key);
        drop(tier);
        *lock(&self.flight.outcome) = Some(outcome);
        self.flight.landed.notify_all();
    }
}

/// A [`SingleFlight`]'s counters and bounds, as `stats` reports every tier
/// (DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheCounters {
    /// Values cached.
    pub entries: u64,
    /// Resident bytes of the cached values, as the tier prices them.
    pub bytes: u64,
    /// Claims answered from the cache.
    pub hits: u64,
    /// Claims that led a computation.
    pub misses: u64,
    /// Values dropped to restore a bound.
    pub evictions: u64,
    /// Values admitted.
    pub inserts: u64,
    /// The entry bound.
    pub max_entries: u64,
    /// The byte bound.
    pub max_bytes: u64,
}

/// The state of a [`SingleFlight`], behind its one lock. Each entry keeps
/// its value, cost and last-use tick.
struct Tier<K, V> {
    entries: HashMap<K, (V, u64, u64)>,
    flights: HashMap<K, Arc<Pending<V>>>,
    /// Logical clock: every claim and admission advances it.
    tick: u64,
    counts: CacheCounters,
}

impl<K: Eq + Hash + Clone, V> Tier<K, V> {
    /// Caches `value`, then evicts least-recently-used entries (a linear
    /// scan) until both bounds hold. A value over the whole byte budget is
    /// not kept and evicts nothing.
    fn admit(&mut self, key: K, value: V, cost: u64, bounds: &SingleFlight<K, V>) {
        if bounds.max_entries == 0 || cost > bounds.max_bytes {
            return;
        }
        // A key is only admitted by its own flight's lead, so it is new.
        self.tick += 1;
        self.counts.bytes += cost;
        self.counts.inserts += 1;
        self.entries.insert(key, (value, cost, self.tick));
        while self.entries.len() > bounds.max_entries || self.counts.bytes > bounds.max_bytes {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, _, last_used))| last_used)
                .map(|(k, _)| k.clone());
            let (_, cost, _) = self
                .entries
                .remove(&lru.expect("an entry is over a bound"))
                .expect("key from the map");
            self.counts.bytes -= cost;
            self.counts.evictions += 1;
        }
    }
}

/// A bounded LRU cache whose misses are computed once across concurrent
/// callers (see the module docs).
pub struct SingleFlight<K, V> {
    max_entries: usize,
    max_bytes: u64,
    /// Prices a value at its resident bytes.
    cost: fn(&V) -> u64,
    tier: OnceLock<Mutex<Tier<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty cache of at most `max_entries` values (0 disables caching;
    /// flights still coalesce) and `max_bytes` of them as `cost` prices them.
    pub const fn new(max_entries: usize, max_bytes: u64, cost: fn(&V) -> u64) -> Self {
        SingleFlight {
            max_entries,
            max_bytes,
            cost,
            tier: OnceLock::new(),
        }
    }

    fn tier(&self) -> MutexGuard<'_, Tier<K, V>> {
        lock(self.tier.get_or_init(|| {
            Mutex::new(Tier {
                entries: HashMap::new(),
                flights: HashMap::new(),
                tick: 0,
                counts: CacheCounters::default(),
            })
        }))
    }

    /// Answers `key`: the cached value, the lead of a new flight, or the
    /// flight already computing it.
    pub fn claim(&self, key: &K) -> Claim<'_, K, V> {
        let mut guard = self.tier();
        let tier = &mut *guard;
        tier.tick += 1;
        if let Some((value, _, last_used)) = tier.entries.get_mut(key) {
            *last_used = tier.tick;
            tier.counts.hits += 1;
            return Claim::Hit(value.clone());
        }
        if let Some(flight) = tier.flights.get(key) {
            return Claim::Follow(Arc::clone(flight));
        }
        tier.counts.misses += 1;
        let flight = Arc::new(Pending {
            outcome: Mutex::new(None),
            landed: Condvar::new(),
        });
        tier.flights.insert(key.clone(), Arc::clone(&flight));
        Claim::Lead(Lead {
            cache: self,
            key: key.clone(),
            flight,
            outcome: None,
        })
    }

    /// The memo lane: the value for `key`, generated with `init` on a miss
    /// under the cross-key rule (module docs). An abandoned flight is
    /// contended again.
    pub fn get_or_generate(&self, key: K, init: impl FnOnce() -> V) -> V {
        loop {
            match self.claim(&key) {
                Claim::Hit(value) => return value,
                Claim::Lead(lead) => {
                    CLAIMS_HELD.with(|held| held.set(held.get() + 1));
                    let _held = Held;
                    let value = init();
                    lead.publish(Ok(value.clone()));
                    return value;
                }
                Claim::Follow(_) if CLAIMS_HELD.with(|held| held.get()) > 0 => return init(),
                Claim::Follow(flight) => {
                    if let Ok(value) = flight.wait() {
                        return value;
                    }
                }
            }
        }
    }

    /// A snapshot of the counters and bounds.
    pub fn counters(&self) -> CacheCounters {
        let tier = self.tier();
        CacheCounters {
            entries: tier.entries.len() as u64,
            max_entries: self.max_entries as u64,
            max_bytes: self.max_bytes,
            ..tier.counts
        }
    }
}

/// A memo tier of `Arc`-shared values.
type Memo<K, V> = SingleFlight<K, Arc<V>>;

/// A memo tier: unbounded in entries, [`MEMO_BUDGET_BYTES`] in bytes.
const fn memo<K: Eq + Hash + Clone, V: Clone>(cost: fn(&V) -> u64) -> SingleFlight<K, V> {
    SingleFlight::new(usize::MAX, MEMO_BUDGET_BYTES, cost)
}

/// Resident bytes of a slice's elements.
fn bytes<T>(items: &[T]) -> u64 {
    size_of_val(items) as u64
}

/// The counters of every memo tier, named after its accessor, for the
/// `memo` section of `serve`'s `stats` (DESIGN.md §13).
pub fn memo_counters() -> Vec<(&'static str, CacheCounters)> {
    vec![
        ("device", DEVICE.counters()),
        ("timing_model", TIMING.counters()),
        ("helium_system", HELIUM.counters()),
        ("hartree_fock_reference", FOCK_REF.counters()),
        ("sampled_plan", SAMPLED.counters()),
        ("minibude_deck", DECK.counters()),
        ("minibude_flats", FLATS.counters()),
        ("minibude_reference", BUDE_REF.counters()),
        ("stencil_grid", GRID.counters()),
        ("stencil_grid_f32", GRID_F32.counters()),
        ("stencil_reference", STENCIL_REF.counters()),
        ("jacobi_reference", JACOBI_REF.counters()),
    ]
}

static DEVICE: SingleFlight<&'static str, Device> = memo(|_| size_of::<Device>() as u64);

/// The shared simulated [`Device`] for a platform's GPU spec (keyed by the
/// spec's name — there are exactly two devices in the paper). A `Device` is
/// internally reference-counted, so handing every run a clone of the cached
/// instance makes per-run device setup allocation-free; capacity accounting
/// is shared, which is exactly how a real device behaves.
pub fn device(platform: &Platform) -> Device {
    DEVICE.get_or_generate(platform.spec.name, || Device::new(platform.spec.clone()))
}

static TIMING: Memo<&'static str, TimingModel> = memo(|_| size_of::<TimingModel>() as u64);

/// The shared [`TimingModel`] for a platform's GPU spec. Building a model
/// clones the spec; every launch of every workload needs one, so the two
/// paper devices' models are built once.
pub fn timing_model(platform: &Platform) -> Arc<TimingModel> {
    TIMING.get_or_generate(platform.spec.name, || Arc::new(platform.timing_model()))
}

/// The fields of [`HartreeFockConfig`] that determine the generated system
/// (screening tolerance and validation flags do not).
#[derive(Clone, PartialEq, Eq, Hash)]
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

static HELIUM: Memo<HeliumKey, HeliumSystem> = memo(|s| {
    bytes(&s.geometry)
        + bytes(&s.xpnt)
        + bytes(&s.coef)
        + bytes(&s.dens)
        + bytes(&s.schwarz)
        + bytes(s.schwarz_levels.as_slice())
});

/// The shared [`HeliumSystem`] for a configuration — geometry, basis, density
/// and Schwarz factors are generated once per distinct
/// (natoms, ngauss, spacing) and reused by the report, sweeps and tests.
pub fn helium_system(config: &HartreeFockConfig) -> Arc<HeliumSystem> {
    HELIUM.get_or_generate(helium_key(config), || {
        Arc::new(HeliumSystem::generate(config))
    })
}

/// A Hartree–Fock reference result additionally depends on the screening
/// tolerance (it decides which quartets contribute).
#[derive(Clone, PartialEq, Eq, Hash)]
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

static FOCK_REF: Memo<FockKey, Vec<f64>> = memo(|v| bytes(v));

/// The shared CPU-reference Fock matrix for a configuration. The full quartet
/// sweep is the most expensive part of a functional Hartree–Fock validation;
/// four platforms re-verify against the same matrix, and repeated launches
/// reuse it outright.
pub fn hartree_fock_reference(config: &HartreeFockConfig) -> Arc<Vec<f64>> {
    FOCK_REF.get_or_generate(fock_key(config), || {
        Arc::new(reference_fock(&helium_system(config), config.screening_tol))
    })
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct SampledKey {
    fock: FockKey,
    samples: u64,
    shards: u64,
}

static SAMPLED: Memo<SampledKey, SampledPlan> = memo(|p| {
    bytes(&p.shards) + bytes(&p.survivors) + bytes(&p.host_eris) + bytes(&p.expected_fock)
});

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
    let key = SampledKey {
        fock: fock_key(config),
        samples,
        shards,
    };
    SAMPLED.get_or_generate(key, || {
        Arc::new(SampledPlan::generate(
            &helium_system(config),
            config.screening_tol,
            config.nquartets(),
            samples,
            shards,
        ))
    })
}

/// The fields of [`MiniBudeConfig`] that determine the generated deck
/// (`ppwi`, `wg` and `executed_poses` only affect the launch, not the deck).
#[derive(Clone, PartialEq, Eq, Hash)]
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

static DECK: Memo<DeckKey, Deck> = memo(|d| {
    bytes(&d.ligand)
        + bytes(&d.protein)
        + bytes(&d.forcefield)
        + d.transforms.iter().map(|t| bytes(t)).sum::<u64>()
});

/// The shared miniBUDE [`Deck`] for a configuration. The paper's PPWI sweep
/// runs the same bm1 deck through 16 launch shapes per device; this memo
/// generates it once.
pub fn minibude_deck(config: &MiniBudeConfig) -> Arc<Deck> {
    DECK.get_or_generate(deck_key(config), || Arc::new(Deck::generate(config)))
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

static FLATS: Memo<DeckKey, DeckFlats> =
    memo(|f| bytes(&f.protein) + bytes(&f.ligand) + bytes(&f.forcefield));

/// The shared flattened upload buffers of a deck. Both fasten drivers upload
/// the same three arrays on every run; flattening them once per deck keeps
/// repeated launches off the allocator.
pub fn minibude_flats(config: &MiniBudeConfig) -> Arc<DeckFlats> {
    FLATS.get_or_generate(deck_key(config), || {
        let deck = minibude_deck(config);
        Arc::new(DeckFlats {
            protein: deck.protein_flat(),
            ligand: deck.ligand_flat(),
            forcefield: deck.forcefield_flat(),
        })
    })
}

/// A fasten reference depends on the deck and on how many poses execute.
#[derive(Clone, PartialEq, Eq, Hash)]
struct BudeRefKey {
    deck: DeckKey,
    poses: usize,
}

static BUDE_REF: Memo<BudeRefKey, Vec<f32>> = memo(|v| bytes(v));

/// The shared CPU-reference pose energies for a configuration's executed
/// poses.
pub fn minibude_reference(config: &MiniBudeConfig) -> Arc<Vec<f32>> {
    let key = BudeRefKey {
        deck: deck_key(config),
        poses: config.executed_poses,
    };
    BUDE_REF.get_or_generate(key, || {
        Arc::new(reference_energies(
            &minibude_deck(config),
            config.executed_poses,
        ))
    })
}

static GRID: Memo<usize, Vec<f64>> = memo(|v| bytes(v));

/// The shared stencil input grid for a configuration (determined by the grid
/// side `l` alone — the field is evaluated on the normalised unit cube).
pub fn stencil_grid(config: &StencilConfig) -> Arc<Vec<f64>> {
    GRID.get_or_generate(config.l, || Arc::new(initialize_grid(config)))
}

static GRID_F32: Memo<usize, Vec<f32>> = memo(|v| bytes(v));

/// The shared FP32 narrowing of the stencil input grid.
pub fn stencil_grid_f32(config: &StencilConfig) -> Arc<Vec<f32>> {
    GRID_F32.get_or_generate(config.l, || {
        Arc::new(stencil_grid(config).iter().map(|&v| v as f32).collect())
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
#[derive(Clone, PartialEq, Eq, Hash)]
struct StencilRefKey {
    l: usize,
    spacing_bits: u64,
}

static STENCIL_REF: Memo<StencilRefKey, Vec<f64>> = memo(|v| bytes(v));

/// The shared CPU-reference Laplacian for a configuration. The reference is
/// always evaluated in f64 from the f64 grid, whatever the working precision.
pub fn stencil_reference(config: &StencilConfig) -> Arc<Vec<f64>> {
    let key = StencilRefKey {
        l: config.l,
        spacing_bits: config.spacing.to_bits(),
    };
    STENCIL_REF.get_or_generate(key, || {
        Arc::new(reference_laplacian(config, &stencil_grid(config)))
    })
}

/// A Jacobi reference solve depends on the grid side and the iteration cap
/// (block size and validate flags never change the arithmetic).
#[derive(Clone, PartialEq, Eq, Hash)]
struct JacobiRefKey {
    l: usize,
    iters: usize,
}

static JACOBI_REF: Memo<JacobiRefKey, crate::jacobi::JacobiSolution> =
    memo(|s| bytes(&s.grid) + bytes(&s.residuals));

/// The shared CPU reference solve for a Jacobi configuration: the golden
/// grid, the residual history, and the convergence point every driver
/// replays.
pub fn jacobi_reference(
    config: &crate::jacobi::JacobiConfig,
) -> Arc<crate::jacobi::JacobiSolution> {
    let key = JacobiRefKey {
        l: config.l,
        iters: config.iters,
    };
    JACOBI_REF.get_or_generate(key, || Arc::new(crate::jacobi::solve_host(config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // The `*_are_shared_per_key` tests below compare pointers across two
    // lookups of a process-wide tier, so no other test in this binary may be
    // able to evict their entries: the largest tier any test here fills is
    // the helium one, with systems of at most 1024 atoms (12.6 MB each) —
    // a few dozen MB in all, far below `MEMO_BUDGET_BYTES`.

    fn unbounded<K: Eq + Hash + Clone, V: Clone>() -> SingleFlight<K, V> {
        SingleFlight::new(usize::MAX, u64::MAX, |_| 1)
    }

    #[test]
    fn cold_key_generation_is_deduplicated_across_threads() {
        let memo: SingleFlight<u32, u64> = unbounded();
        let generations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let value = memo.get_or_generate(7, || {
                        generations.fetch_add(1, Ordering::SeqCst);
                        // Hold the claim long enough for the others to arrive.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(value, 42);
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
        let memo: SingleFlight<u32, Arc<u32>> = unbounded();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let v = memo.get_or_generate(1, || {
                    barrier.wait(); // both claims are now held
                    Arc::new(*memo.get_or_generate(2, || Arc::new(20)) + 1)
                });
                // The lead's value is the one the tier keeps.
                assert!(Arc::ptr_eq(&v, &memo.get_or_generate(1, || unreachable!())));
            });
            scope.spawn(|| {
                let v = memo.get_or_generate(2, || {
                    barrier.wait();
                    Arc::new(*memo.get_or_generate(1, || Arc::new(10)) + 1)
                });
                assert!(Arc::ptr_eq(&v, &memo.get_or_generate(2, || unreachable!())));
            });
        });
    }

    #[test]
    fn an_abandoned_flight_is_not_cached_and_is_contended_again() {
        let memo: SingleFlight<u32, u32> = unbounded();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_generate(3, || panic!("generator failed"))
        }));
        assert!(unwound.is_err());
        assert_eq!(memo.counters().entries, 0);
        assert_eq!(memo.get_or_generate(3, || 9), 9);
        // A follower of an abandoned flight is woken with an error.
        let Claim::Lead(lead) = memo.claim(&4) else {
            panic!("key 4 is cold")
        };
        let Claim::Follow(flight) = memo.claim(&4) else {
            panic!("key 4 is in flight")
        };
        drop(lead);
        assert!(flight.wait().is_err());
        assert!(matches!(memo.claim(&4), Claim::Lead(_)));
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
