//! The engine's public vocabulary — translator choice, modeled translation
//! cost, run outcome — re-exported from [`crate::engine`] as ever.

use ldbt_learn::RuleSet;
use std::sync::Arc;

/// Which translator the engine uses.
///
/// Rule sets are held behind `Arc` so one immutable generation can be
/// shared across tenant engines on different threads (see
/// [`crate::share::RuleCell`]).
#[derive(Debug, Clone)]
pub enum Translator {
    /// Baseline QEMU-style TCG translation.
    Tcg,
    /// Rule-based translation with TCG fallback (the paper's prototype).
    Rules(Arc<RuleSet>),
    /// Rule-based translation without the §5 lazy host-flag save (the
    /// condition-code ablation: flag-live-out rules are skipped).
    RulesNoLazyFlags(Arc<RuleSet>),
    /// HQEMU-style optimizing JIT backend.
    Jit,
}

/// Modeled translation costs, in cycles.
///
/// Only the ratios matter for the reproduced shapes: rule lookup and
/// emission are cheap ("much faster than a general translation that goes
/// through an IR"), the optimizing JIT is two orders of magnitude more
/// expensive per op (LLVM in the paper).
#[derive(Debug, Clone)]
pub struct TransCost {
    /// Fixed cost per translated block.
    pub block_base: u64,
    /// Cost per TCG micro-op generated.
    pub per_tcg_op: u64,
    /// Cost per rule hash-table probe.
    pub per_lookup: u64,
    /// Cost per host instruction emitted from a rule.
    pub per_rule_instr: u64,
    /// Fixed cost per block for the optimizing JIT.
    pub jit_block_base: u64,
    /// Cost per micro-op for the optimizing JIT.
    pub jit_per_op: u64,
    /// Cost of one interpreter-helper step.
    pub helper: u64,
}

impl Default for TransCost {
    fn default() -> Self {
        TransCost {
            block_base: 60,
            per_tcg_op: 12,
            per_lookup: 5,
            per_rule_instr: 10,
            jit_block_base: 1_200,
            jit_per_op: 110,
            helper: 80,
        }
    }
}

/// How an engine run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Guest executed `svc #0`.
    Halted,
    /// The fuel budget ran out.
    OutOfFuel,
    /// The guest trapped: a trap instruction (`svc #n`, n ≠ 0), an
    /// undecodable word, or a memory access outside the guest address
    /// space. Mirrors [`ldbt_arm::ArmStop::Trap`] so drivers can
    /// differential-compare trap behavior against the interpreter.
    Trap {
        /// The trapping pc — exact for instruction traps; the entry pc
        /// of the faulting block for memory traps (the translated-code
        /// check is block-granular).
        pc: u32,
        /// Why the guest trapped.
        cause: TrapKind,
    },
    /// Translated code misbehaved (dispatcher protocol violation).
    Fault,
}

/// Why a guest run trapped (see [`RunOutcome::Trap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// A trap instruction: `svc #n` with n ≠ 0 (the immediate).
    Svc(u32),
    /// An undecodable guest word reached execution.
    Undef,
    /// A load or store touched this address, outside the guest address
    /// space (at or above [`crate::env::GUEST_MEM_LIMIT`]).
    Mem(u32),
}
