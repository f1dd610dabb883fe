//! Process-wide shared rule generations (DESIGN.md §15).
//!
//! A [`RuleCell`] holds the current immutable [`RuleSet`] generation for a
//! group of engines (tenants). Readers keep a cached `Arc<RuleSet>` inside
//! their translator and only compare one atomic generation counter per
//! dispatcher entry — the hot path never takes a lock. Publication
//! (quarantine, repair, fault installation, a background learner) goes
//! through [`RuleCell::publish_with`], which clones the current set, applies
//! the mutation, swaps the `Arc`, and bumps the generation. Engines notice
//! the bump at their next dispatcher entry and adopt the new generation,
//! purging only the translated blocks whose rule applications went stale.
//!
//! The cell itself is `Send + Sync`; the engines sharing it deliberately are
//! not (see the trait probes in this module's tests).

use ldbt_learn::RuleSet;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Atomic-swap handle for the process-wide immutable [`RuleSet`].
///
/// The generation counter starts at 0 and increases by exactly 1 per
/// publication, so tenants (and tests) can assert "a publication happened"
/// by comparing counters.
pub struct RuleCell {
    gen: AtomicU64,
    slot: Mutex<Arc<RuleSet>>,
}

impl RuleCell {
    /// Wrap `rules` as generation 0 of a new shared cell.
    pub fn new(rules: RuleSet) -> RuleCell {
        RuleCell::from_arc(Arc::new(rules))
    }

    /// Wrap an existing `Arc<RuleSet>` as generation 0 (no clone).
    pub fn from_arc(rules: Arc<RuleSet>) -> RuleCell {
        RuleCell { gen: AtomicU64::new(0), slot: Mutex::new(rules) }
    }

    /// Current generation number. Readers poll this (one atomic load) and
    /// only touch the mutex when it differs from their cached generation.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Snapshot the current generation: `(rules, generation)`.
    ///
    /// The generation is read under the slot lock so the pair is always
    /// consistent (a concurrent publish can't pair the old `Arc` with the
    /// new counter).
    pub fn load(&self) -> (Arc<RuleSet>, u64) {
        let slot = self.slot.lock().expect("rule cell poisoned");
        (Arc::clone(&slot), self.gen.load(Ordering::Acquire))
    }

    /// Publish a new generation derived from the current one.
    ///
    /// Clones the current set, applies `f`, installs the result, and bumps
    /// the generation — all under the slot lock, so concurrent publishers
    /// serialize and no update is lost. Readers holding the previous `Arc`
    /// keep executing it untouched until they adopt. Returns the new
    /// generation's `(rules, generation, closure result)`.
    pub fn publish_with<R>(&self, f: impl FnOnce(&mut RuleSet) -> R) -> (Arc<RuleSet>, u64, R) {
        let mut slot = self.slot.lock().expect("rule cell poisoned");
        let mut next = (**slot).clone();
        let out = f(&mut next);
        let next = Arc::new(next);
        *slot = Arc::clone(&next);
        let gen = self.gen.load(Ordering::Acquire) + 1;
        self.gen.store(gen, Ordering::Release);
        (next, gen, out)
    }
}

/// One engine's cached view of a [`RuleCell`]: the `Arc` here is the
/// engine's *cached* snapshot of the generation it translates with,
/// compared against the cell's counter at every dispatcher entry. A solo
/// engine owns a private cell, serve-mode tenants share one, so the
/// mutation paths (fault install, quarantine, repair) are identical.
pub(crate) struct RuleHandle {
    pub(crate) rules: Arc<RuleSet>,
    /// The §5 lazy host-flag save is enabled (`Translator::Rules`).
    pub(crate) lazy_flags: bool,
    pub(crate) cell: Arc<RuleCell>,
    pub(crate) gen: u64,
}

impl RuleHandle {
    /// A handle on a private cell holding `rules` as generation 0.
    pub(crate) fn new(rules: Arc<RuleSet>, lazy_flags: bool) -> RuleHandle {
        let cell = Arc::new(RuleCell::from_arc(Arc::clone(&rules)));
        RuleHandle { rules, lazy_flags, cell, gen: 0 }
    }

    /// Publish a rule-set mutation as a new shared generation and adopt
    /// it immediately (this engine caused the change, so its cached
    /// snapshot moves with it; other tenants adopt at their next
    /// dispatcher entry).
    pub(crate) fn publish<R>(&mut self, f: impl FnOnce(&mut RuleSet) -> R) -> R {
        let (rules, gen, out) = self.cell.publish_with(f);
        (self.rules, self.gen) = (rules, gen);
        out
    }

    /// Dispatcher-entry generation poll: if another tenant published a
    /// newer generation, swap the cached snapshot and report which of
    /// `live_keys` (the rule keys applied in live translations) went
    /// stale — the rule was tombstoned, replaced with different host
    /// code, or removed — as `(previous generation, stale keys)`.
    /// Translations applying only unchanged rules keep running: the
    /// generations are behaviorally identical for them. One atomic load
    /// on the no-change path — readers never lock.
    #[inline]
    pub(crate) fn adopt(
        &mut self,
        live_keys: impl Iterator<Item = u64>,
    ) -> Option<(u64, HashSet<u64>)> {
        if self.cell.generation() == self.gen {
            return None;
        }
        let (new, gen) = self.cell.load();
        let old = std::mem::replace(&mut self.rules, new);
        let old_gen = std::mem::replace(&mut self.gen, gen);
        let mut seen: HashSet<u64> = HashSet::new();
        let stale = |key: &u64| {
            self.rules.is_tombstoned(*key)
                || match (old.find_by_key(*key), self.rules.find_by_key(*key)) {
                    (Some(a), Some(b)) => a != b,
                    (Some(_), None) => true,
                    (None, _) => false,
                }
        };
        Some((old_gen, live_keys.filter(|&key| seen.insert(key)).filter(stale).collect()))
    }
}

impl std::fmt::Debug for RuleCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleCell").field("generation", &self.generation()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Hand-rolled `static_assertions`-style probe: `<T as
    /// AmbiguousIfSend<_>>::PROBE` fails to *compile* if `T: Send`,
    /// because both blanket impls would then apply and the `_` inference
    /// becomes ambiguous. With `T: !Send` only the `()` impl applies and
    /// the item resolves — i.e. this asserts `!Send` at compile time.
    trait AmbiguousIfSend<A> {
        const PROBE: () = ();
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    #[allow(dead_code)]
    struct Invalid;
    impl<T: ?Sized + Send> AmbiguousIfSend<Invalid> for T {}

    #[test]
    fn shared_types_are_send_sync() {
        // The shared layer crosses threads: the cell, the rule sets inside
        // it, and the generation snapshots handed to tenants.
        assert_send_sync::<RuleCell>();
        assert_send_sync::<Arc<RuleCell>>();
        assert_send_sync::<RuleSet>();
        assert_send_sync::<Arc<RuleSet>>();
    }

    #[test]
    #[allow(clippy::let_unit_value)]
    fn engine_is_deliberately_not_send() {
        // The per-tenant side is confined to its thread: `Engine` holds
        // `Rc<[(usize, u64)]>` hit lists and `Rc<Vec<X86Instr>>` block
        // code in its arena, which are cheap to clone on the hot path
        // precisely because they are not atomically refcounted. If this
        // stops compiling because `Engine` became `Send`, the
        // shared-vs-confined split documented in DESIGN.md §15 changed —
        // re-audit the arena before deleting the probe.
        let _probe = <Engine as AmbiguousIfSend<_>>::PROBE;
    }

    #[test]
    fn publish_bumps_generation_and_serves_new_set() {
        let cell = RuleCell::new(RuleSet::new());
        assert_eq!(cell.generation(), 0);
        let (rules0, gen0) = cell.load();
        assert_eq!(gen0, 0);
        assert_eq!(rules0.len(), 0);

        let (rules1, gen1, out) = cell.publish_with(|rs| {
            rs.prefer_shorter = false;
            42
        });
        assert_eq!(out, 42);
        assert_eq!(gen1, 1);
        assert_eq!(cell.generation(), 1);
        assert!(!rules1.prefer_shorter);
        // The old snapshot is untouched.
        assert!(rules0.prefer_shorter);
        // A fresh load sees the new generation.
        let (rules2, gen2) = cell.load();
        assert_eq!(gen2, 1);
        assert!(!rules2.prefer_shorter);
    }

    #[test]
    fn concurrent_publishers_serialize() {
        let cell = Arc::new(RuleCell::new(RuleSet::new()));
        let n_threads = 4;
        let per_thread = 25;
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        cell.publish_with(|rs| {
                            rs.prefer_shorter = !rs.prefer_shorter;
                        });
                    }
                });
            }
        });
        // Every publication bumped the generation exactly once.
        assert_eq!(cell.generation(), n_threads * per_thread);
        // An even number of toggles restores the initial flag.
        let (rules, _) = cell.load();
        assert!(rules.prefer_shorter);
    }
}
