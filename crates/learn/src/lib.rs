#![forbid(unsafe_code)]
//! Automatic learning of ARM→x86 translation rules (paper §2–§3).
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. **Extraction** ([`extract`]) — compile the same source for both
//!    ISAs with debug info, and pair up the guest/host instruction groups
//!    attributed to the same source line.
//! 2. **Preparation** ([`prepare`]) — discard snippets containing calls
//!    or indirect branches ("CI"), predicated instructions ("PI"), or
//!    spanning multiple blocks ("MB"); Table 1's first failure family.
//! 3. **Parameterization** ([`param`]) — heuristically build an *initial
//!    mapping* between guest and host operands: memory operands by IR
//!    variable name, live-in registers via normalized addresses /
//!    matching operations / bounded permutation search (≤ 5 tries),
//!    immediates by value with arithmetic/logical adaptor operations.
//! 4. **Verification** ([`verify`]) — symbolically execute both sides
//!    under the shared initial mapping and check defined registers (via a
//!    conflict-free *final mapping*), memory store logs, and branch
//!    conditions with the SAT-backed equivalence oracle.
//!
//! Verified pairs become parameterized [`rule::Rule`]s collected in a
//! [`rule::RuleSet`] (deduplicated, shortest-host-wins), ready for the
//! DBT in `ldbt-dbt`.

pub mod budget;
pub mod cache;
pub mod db;
pub mod extract;
pub mod fault;
pub mod par;
pub mod param;
pub mod pipeline;
pub mod prepare;
pub mod repair;
pub mod rule;
pub mod verify;

pub use budget::Budget;
pub use cache::{VerifyCache, VerifyOutcome};
pub use db::{DbError, RuleDb};
pub use fault::{corrupt_ruleset, FaultPlan, FaultSite};
pub use pipeline::{
    learn_rules, worker_metrics, LearnConfig, LearnReport, LearnStats, WORKER_METRIC_NAMES,
};
pub use repair::{repair, repair_budget, Counterexample, RepairFail, RepairReport};
pub use rule::{Rule, RuleOperand, RuleSet};
