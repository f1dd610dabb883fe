#![forbid(unsafe_code)]
//! The cross-ISA dynamic binary translator (the QEMU stand-in).
//!
//! A block-at-a-time ARM→x86 DBT with three interchangeable translators:
//!
//! * [`tcg`]/[`backend`] — the baseline: each guest instruction expands
//!   into TCG-like micro-ops which the backend lowers to host code, with
//!   the guest register file held in host memory (the `env`, see [`mod@env`])
//!   and condition codes materialized into env slots,
//! * [`rules`] — the paper's contribution: learned rules translate
//!   maximal guest sequences directly to host code, cooperating with the
//!   register allocator and the condition-code scheme of §5 (host-flag
//!   save, flag-mode dispatch, liveness screening of unemulated flags),
//! * [`jit`] — an HQEMU-style optimizing backend: the same TCG stream is
//!   cleaned up (value numbering, dead get/put removal) before lowering,
//!   at a much higher modeled translation cost.
//!
//! The [`engine`] is the executor: it owns the dispatcher (QEMU
//! convention: a translated block returns the next guest PC in `%eax`)
//! and runs translated code on the `ldbt-x86` interpreter, accumulating
//! the cycle-model statistics every experiment consumes. Translations
//! live in the code cache (`cache`: one `insert`, one `invalidate`); the
//! watchdog, attribution and repair live in the guardian (`guardian`).

/// Emit one exec-scope trace event, `tracing`-style:
/// `exec_event!("purge", pc = pc, id = id)`. Dropped, like any
/// `trace::emit`, when exec tracing is off.
macro_rules! exec_event {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        ldbt_obs::trace::emit(
            ldbt_obs::trace::Scope::Exec,
            $name,
            &[$((stringify!($key), ldbt_obs::trace::Val::from($val))),*],
        )
    };
}

mod api;
pub mod backend;
mod cache;
pub mod engine;
pub mod env;
mod guardian;
pub mod jit;
pub mod rules;
pub mod sb;
pub mod share;
pub mod stats;
pub mod tcg;

pub use engine::{Engine, RunOutcome, Translator, TrapKind};
pub use env::Config;
pub use share::RuleCell;
pub use stats::{BlockProfile, DbtStats, ExecProfile, RuleProfile};
