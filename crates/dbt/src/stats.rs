//! DBT-level statistics: everything Figures 8–12 are computed from.
//!
//! The counters live in an [`ldbt_obs::registry::CounterBlock`] — a
//! `Cell`-backed, named-and-indexed registry — rather than loose struct
//! fields. That buys three things: bumps are `&self` (the dispatcher
//! borrows blocks and stats simultaneously without fighting the borrow
//! checker or allocating), the full counter set snapshots in one
//! declaration-ordered pass for `LDBT_STATS_JSON` run reports, and new
//! counters are one enum variant + one name, not a struct/consumer
//! sweep. Readers go through the named accessor methods below.

use ldbt_isa::ExecStats;
use ldbt_obs::registry::CounterBlock;
use std::collections::BTreeMap;

/// Registry index of every engine counter. Discriminants are indices
/// into [`DBT_COUNTER_NAMES`] / the counter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum DbtCtr {
    /// Dynamic guest instructions emulated.
    GuestDyn = 0,
    /// Dynamic guest instructions emulated through learned rules
    /// (`Σ Fᵢ·Bᵢ` in the paper's coverage definition).
    GuestDynCovered,
    /// Static guest instructions translated (`m`).
    GuestStatic,
    /// Static guest instructions covered by rules (`Σ Bᵢ`).
    GuestStaticCovered,
    /// Blocks translated.
    Blocks,
    /// Block dispatches executed.
    BlockExecs,
    /// Guest instructions emulated by the interpreter helper.
    HelperSteps,
    /// Rule-match hash lookups performed during translation.
    RuleLookups,
    /// Watchdog differential cross-checks performed (`LDBT_WATCHDOG`).
    WatchdogChecks,
    /// Rules quarantined by the watchdog after a state mismatch.
    QuarantinedRules,
    /// Dispatcher lookups served by the indirect-branch target cache.
    IbtcHits,
    /// Dispatcher lookups that fell through to the map (or translator).
    IbtcMisses,
    /// Direct-branch exit stubs patched into chained jumps.
    ChainLinks,
    /// Chained links severed by a quarantine purge.
    ChainUnlinks,
    /// Block entries reached through a chained jump (no dispatcher).
    ChainedExecs,
    /// Superblock regions formed from hot chains.
    SbFormed,
    /// Block executions served from a superblock region part.
    SbExecs,
    /// Superblock regions invalidated (quarantine purge or re-patching
    /// of a member block).
    SbInvalidated,
    /// Watchdog mismatches attributed to a single rule by bisection
    /// replay (`LDBT_REPAIR`).
    WdAttributed,
    /// Rules tombstoned on the conservative path (attribution failed or
    /// was disabled while repair was on) — collateral quarantine, as
    /// opposed to [`DbtCtr::QuarantinedRules`] which counts attributed
    /// (or repair-off) quarantines only.
    WdCollateral,
    /// Counterexample-guided repair attempts started.
    WdRepairAttempts,
    /// Repairs that re-verified and were hot-published.
    WdRepaired,
    /// Repair attempts that failed (the rule stayed quarantined).
    WdRepairFailed,
    /// Guest register env slots promoted to pinned host registers by the
    /// region allocator (one per slot per formed region).
    RaPromoted,
    /// Guest memory accesses eliminated or paired by region fusion
    /// (store-to-load forwarding, redundant-load and dead-store
    /// elimination, narrow-store pairing).
    FuseElim,
    /// Translations invalidated for coherence: a guest store hit the
    /// block's byte range (self-modifying code), or reset-time
    /// revalidation found the guest bytes changed.
    SmcInvalidations,
    /// Guest traps surfaced to the driver: trap instruction (`svc #n`,
    /// n ≠ 0), undecodable word, or out-of-range memory access.
    Traps,
    /// Host instructions the rule translator emitted at boundaries
    /// between a rule application and a TCG stretch: writebacks of the
    /// homes evicted there (to make room for a rule, or out of the flag
    /// stub's `%ecx`), plus the flag stub and flag-mode store of a
    /// stretch that does not start the block. Static, summed over
    /// translations.
    RuleBoundaryInstrs,
}

/// Registry names, in [`DbtCtr`] declaration order (the snapshot and
/// run-report order).
pub const DBT_COUNTER_NAMES: &[&str] = &[
    "guest_dyn",
    "guest_dyn_covered",
    "guest_static",
    "guest_static_covered",
    "blocks",
    "block_execs",
    "helper_steps",
    "rule_lookups",
    "watchdog_checks",
    "quarantined_rules",
    "ibtc_hits",
    "ibtc_misses",
    "chain_links",
    "chain_unlinks",
    "chained_execs",
    "sb_formed",
    "sb_execs",
    "sb_invalidated",
    "wd_attributed",
    "wd_collateral",
    "wd_repair_attempts",
    "wd_repaired",
    "wd_repair_failed",
    "ra_promoted",
    "fuse_elim",
    "smc_invalidations",
    "traps",
    "rule_boundary_instrs",
];

/// Statistics accumulated by an [`crate::Engine`] run.
#[derive(Debug, Clone)]
pub struct DbtStats {
    /// Host-side dynamic execution statistics (instructions, cycles,
    /// translation cycles).
    pub exec: ExecStats,
    /// Distinct rules hit at least once: stable key → rule length.
    /// Ordered so every per-rule rendering (Figure 12, run reports) is
    /// deterministic.
    pub hit_rules: BTreeMap<u64, usize>,
    ctrs: CounterBlock,
}

impl Default for DbtStats {
    fn default() -> Self {
        DbtStats {
            exec: ExecStats::default(),
            hit_rules: BTreeMap::new(),
            ctrs: CounterBlock::new(DBT_COUNTER_NAMES),
        }
    }
}

impl DbtStats {
    /// Fresh statistics.
    pub fn new() -> Self {
        DbtStats::default()
    }

    /// Bump a counter by one. `&self`: counters are `Cell`s, so the
    /// dispatch hot path needs no `&mut` and allocates nothing.
    #[inline]
    pub fn bump(&self, c: DbtCtr) {
        self.ctrs.bump(c as usize);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: DbtCtr, n: u64) {
        self.ctrs.add(c as usize, n);
    }

    /// Read a counter.
    #[inline]
    pub fn get(&self, c: DbtCtr) -> u64 {
        self.ctrs.get(c as usize)
    }

    /// The raw counter block (for folding a finished run into a shared
    /// cross-thread registry via `SharedCounters::absorb` — the
    /// serve-mode aggregation path). Host-side `exec` counters are not
    /// part of the block; see [`DbtStats::registry`].
    pub fn counters(&self) -> &CounterBlock {
        &self.ctrs
    }

    /// Declaration-ordered `(name, value)` snapshot of the registry,
    /// including the host-side execution counters.
    pub fn registry(&self) -> Vec<(&'static str, u64)> {
        let mut all = self.ctrs.snapshot();
        all.push(("host_instrs", self.exec.host_instrs));
        all.push(("exec_cycles", self.exec.exec_cycles));
        all.push(("translation_cycles", self.exec.translation_cycles));
        all.push(("mem_loads", self.exec.mem_loads));
        all.push(("mem_stores", self.exec.mem_stores));
        all
    }

    pub fn guest_dyn(&self) -> u64 {
        self.get(DbtCtr::GuestDyn)
    }
    pub fn guest_dyn_covered(&self) -> u64 {
        self.get(DbtCtr::GuestDynCovered)
    }
    pub fn guest_static(&self) -> u64 {
        self.get(DbtCtr::GuestStatic)
    }
    pub fn guest_static_covered(&self) -> u64 {
        self.get(DbtCtr::GuestStaticCovered)
    }
    pub fn blocks(&self) -> u64 {
        self.get(DbtCtr::Blocks)
    }
    pub fn block_execs(&self) -> u64 {
        self.get(DbtCtr::BlockExecs)
    }
    pub fn helper_steps(&self) -> u64 {
        self.get(DbtCtr::HelperSteps)
    }
    pub fn rule_lookups(&self) -> u64 {
        self.get(DbtCtr::RuleLookups)
    }
    pub fn watchdog_checks(&self) -> u64 {
        self.get(DbtCtr::WatchdogChecks)
    }
    pub fn quarantined_rules(&self) -> u64 {
        self.get(DbtCtr::QuarantinedRules)
    }
    pub fn ibtc_hits(&self) -> u64 {
        self.get(DbtCtr::IbtcHits)
    }
    pub fn ibtc_misses(&self) -> u64 {
        self.get(DbtCtr::IbtcMisses)
    }
    pub fn chain_links(&self) -> u64 {
        self.get(DbtCtr::ChainLinks)
    }
    pub fn chain_unlinks(&self) -> u64 {
        self.get(DbtCtr::ChainUnlinks)
    }
    pub fn chained_execs(&self) -> u64 {
        self.get(DbtCtr::ChainedExecs)
    }
    pub fn sb_formed(&self) -> u64 {
        self.get(DbtCtr::SbFormed)
    }
    pub fn sb_execs(&self) -> u64 {
        self.get(DbtCtr::SbExecs)
    }
    pub fn sb_invalidated(&self) -> u64 {
        self.get(DbtCtr::SbInvalidated)
    }
    pub fn wd_attributed(&self) -> u64 {
        self.get(DbtCtr::WdAttributed)
    }
    pub fn wd_collateral(&self) -> u64 {
        self.get(DbtCtr::WdCollateral)
    }
    pub fn wd_repair_attempts(&self) -> u64 {
        self.get(DbtCtr::WdRepairAttempts)
    }
    pub fn wd_repaired(&self) -> u64 {
        self.get(DbtCtr::WdRepaired)
    }
    pub fn wd_repair_failed(&self) -> u64 {
        self.get(DbtCtr::WdRepairFailed)
    }

    /// Guest register slots pinned to host registers by region allocation.
    pub fn ra_promoted(&self) -> u64 {
        self.get(DbtCtr::RaPromoted)
    }

    /// Guest memory accesses eliminated or paired by region fusion.
    pub fn fuse_elim(&self) -> u64 {
        self.get(DbtCtr::FuseElim)
    }

    /// Translations invalidated by guest stores or reset revalidation.
    pub fn smc_invalidations(&self) -> u64 {
        self.get(DbtCtr::SmcInvalidations)
    }

    /// Guest traps surfaced to the driver.
    pub fn traps(&self) -> u64 {
        self.get(DbtCtr::Traps)
    }

    /// Host instructions emitted at rule/TCG boundaries.
    pub fn rule_boundary_instrs(&self) -> u64 {
        self.get(DbtCtr::RuleBoundaryInstrs)
    }

    /// Static rule coverage `Sₚ = Σ Bᵢ / m` (Figure 11).
    pub fn static_coverage(&self) -> f64 {
        if self.guest_static() == 0 {
            0.0
        } else {
            self.guest_static_covered() as f64 / self.guest_static() as f64
        }
    }

    /// Dynamic rule coverage `Dₚ = Σ Fᵢ·Bᵢ / Σ Fᵢ` (Figure 11).
    pub fn dynamic_coverage(&self) -> f64 {
        if self.guest_dyn() == 0 {
            0.0
        } else {
            self.guest_dyn_covered() as f64 / self.guest_dyn() as f64
        }
    }

    /// Histogram of hit-rule lengths (Figure 12): length → distinct
    /// rules, in ascending length order.
    pub fn hit_length_histogram(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for len in self.hit_rules.values() {
            *h.entry(*len).or_insert(0) += 1;
        }
        h
    }

    /// Total modeled time (translation + execution cycles).
    pub fn total_cycles(&self) -> u64 {
        self.exec.total_cycles()
    }
}

/// Per-rule execution attribution: one row per distinct rule hit in the
/// code cache, summed over the live blocks it was applied in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProfile {
    /// Stable rule key (sort key of every rendering).
    pub key: u64,
    /// Rule length in guest instructions.
    pub len: usize,
    /// Live blocks the rule is applied in.
    pub blocks: u64,
    /// Executions of those blocks (dispatches + chained entries).
    pub execs: u64,
}

/// One hot block, by execution count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    pub pc: u32,
    pub execs: u64,
    pub guest_len: u64,
    /// Guest instructions of the block covered by rules.
    pub covered: u64,
}

/// Execution-hotness profile computed from the code-cache arena at
/// snapshot time (see `Engine::profile`) — attribution costs the
/// dispatch hot path nothing beyond the per-block `execs` counter it
/// already maintains.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Per-rule attribution, sorted by stable key.
    pub rules: Vec<RuleProfile>,
    /// The hottest live blocks (descending execs, pc tiebreak), capped
    /// at [`ExecProfile::HOT_BLOCKS`].
    pub hot_blocks: Vec<BlockProfile>,
    /// Log2 histogram of per-block execution counts: `hotness[i]` is
    /// the number of live blocks whose exec count has bit length `i`.
    pub hotness: Vec<u64>,
}

impl ExecProfile {
    /// Cap on the `hot_blocks` list.
    pub const HOT_BLOCKS: usize = 10;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_ratios() {
        let s = DbtStats::new();
        s.add(DbtCtr::GuestStatic, 10);
        s.add(DbtCtr::GuestStaticCovered, 6);
        s.add(DbtCtr::GuestDyn, 1000);
        s.add(DbtCtr::GuestDynCovered, 850);
        assert!((s.static_coverage() - 0.6).abs() < 1e-12);
        assert!((s.dynamic_coverage() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn zero_division_safe() {
        let s = DbtStats::new();
        assert_eq!(s.static_coverage(), 0.0);
        assert_eq!(s.dynamic_coverage(), 0.0);
    }

    #[test]
    fn histogram_counts_distinct_rules() {
        let mut s = DbtStats::new();
        s.hit_rules.insert(1, 2);
        s.hit_rules.insert(2, 2);
        s.hit_rules.insert(3, 4);
        let h = s.hit_length_histogram();
        assert_eq!(h[&2], 2);
        assert_eq!(h[&4], 1);
    }

    #[test]
    fn registry_snapshot_is_declaration_ordered_and_complete() {
        let s = DbtStats::new();
        s.bump(DbtCtr::Blocks);
        s.add(DbtCtr::ChainedExecs, 7);
        let snap = s.registry();
        assert_eq!(snap.len(), DBT_COUNTER_NAMES.len() + 5);
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        assert_eq!(&names[..DBT_COUNTER_NAMES.len()], DBT_COUNTER_NAMES);
        assert_eq!(snap[DbtCtr::Blocks as usize], ("blocks", 1));
        assert_eq!(snap[DbtCtr::ChainedExecs as usize], ("chained_execs", 7));
    }

    #[test]
    fn clone_snapshots_counter_state() {
        let s = DbtStats::new();
        s.bump(DbtCtr::IbtcHits);
        let t = s.clone();
        s.bump(DbtCtr::IbtcHits);
        assert_eq!(t.ibtc_hits(), 1);
        assert_eq!(s.ibtc_hits(), 2);
    }
}
