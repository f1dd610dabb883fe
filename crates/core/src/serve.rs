//! Multi-tenant translation serving: N independent guest engines over
//! one shared, atomically-published rule generation.
//!
//! The deployment story this models (paper §7 "amortizing learning
//! cost"): translation rules are learned once, then serve many
//! concurrent guest programs. Each *tenant* owns a full [`Engine`] —
//! private guest memory, block arena, IBTC, chain graph, superblock
//! state — so tenants are isolated by construction; the only shared
//! mutable state is the [`RuleCell`], an atomic generation-swap handle
//! over an immutable `Arc<RuleSet>`. Readers never lock: each tenant
//! polls the cell's generation counter (one `Acquire` load) at
//! dispatcher entries and re-caches the `Arc` only when another
//! tenant's watchdog published a new generation (quarantine or repair).
//!
//! The [`Engine`] itself is deliberately `!Send` (its dispatch hot path
//! uses non-atomic `Rc` refcounts — see `ldbt-dbt::share`), so the
//! thread pool here never moves an engine between threads: each tenant
//! thread *constructs* its engines in place from the shared
//! [`ArmImage`]s (plain `Send + Sync` data) and the shared cell.
//!
//! Counters follow the two-tier scheme from `ldbt-obs`: every engine
//! accumulates into its own `Cell`-backed block on its own thread, and
//! the block is folded into a [`SharedCounters`] registry exactly once
//! per run, after the run — concurrent tenants never contend on
//! counter cache lines and never interleave partial counts.

use crate::RUN_FUEL;
use ldbt_compiler::link::build_arm_image;
use ldbt_compiler::{ArmImage, CompileError, Options};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::stats::DBT_COUNTER_NAMES;
use ldbt_dbt::{Engine, RuleCell};
use ldbt_obs::registry::SharedCounters;
use ldbt_workloads::{benchmark, source, Workload};
use std::sync::Arc;

/// A program prepared for serving: linked image plus the interpreter
/// reference checksum every tenant's result is validated against.
#[derive(Debug, Clone)]
pub struct ServeProgram {
    /// Benchmark name.
    pub name: String,
    /// The linked guest image (shared read-only across tenants).
    pub image: ArmImage,
    /// Reference checksum (r0 at halt) from the ARM interpreter.
    pub want: u32,
}

/// Build and reference-run each named benchmark once, up front. The
/// images and checksums are immutable afterwards, so all tenants share
/// them by reference — per-tenant work is purely translation+execution.
///
/// # Errors
///
/// Returns a [`CompileError`] if a program fails to build.
///
/// # Panics
///
/// Panics if the interpreter does not halt on a program — that is a
/// workload bug, not a serving outcome.
pub fn prepare(
    names: &[&str],
    workload: Workload,
    options: &Options,
) -> Result<Vec<ServeProgram>, CompileError> {
    names
        .iter()
        .map(|name| {
            let b = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
            let src = source(b, workload);
            let image = build_arm_image(&src, options)?;
            let mut m = ldbt_arm::ArmMachine::new();
            image.load_into(&mut m.state.mem);
            m.state.regs[15] = image.entry;
            let stop = m.run(600_000_000);
            assert_eq!(stop, ldbt_arm::ArmStop::Halt, "{name}: interpreter did not halt");
            let want = m.state.reg(ldbt_arm::ArmReg::R0);
            Ok(ServeProgram { name: (*name).to_string(), image, want })
        })
        .collect()
}

/// One tenant's results: everything needed to compare a concurrent run
/// against a solo run of the same program mix.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant index (0-based).
    pub tenant: usize,
    /// Dynamic guest instructions emulated across all programs.
    pub guest_instrs: u64,
    /// Per-program `(name, checksum)` in serving order. Each checksum
    /// was already validated against the interpreter reference.
    pub checksums: Vec<(String, u32)>,
    /// Declaration-ordered engine counter totals, summed over the
    /// tenant's program runs.
    pub counters: Vec<(&'static str, u64)>,
    /// The rule generation the tenant's last engine ended on.
    pub final_generation: u64,
}

/// The result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Cross-tenant counter totals (folded via
    /// [`SharedCounters::absorb`], declaration order).
    pub aggregate: Vec<(&'static str, u64)>,
    /// The cell's generation after all tenants joined (0 = nothing was
    /// ever quarantined or repaired).
    pub generation: u64,
}

impl ServeReport {
    /// Total dynamic guest instructions across all tenants — the
    /// numerator of the throughput metric.
    pub fn total_guest_instrs(&self) -> u64 {
        self.tenants.iter().map(|t| t.guest_instrs).sum()
    }
}

/// Serve `programs` to `tenants` concurrent tenants, all sharing the
/// rule generation in `cell`, every engine at its default knobs
/// ([`crate::Config::DEFAULT`]).
///
/// # Panics
///
/// Panics if any tenant's engine fails to halt or produces a checksum
/// differing from the interpreter reference (propagated from the tenant
/// thread at scope join) — correctness is an invariant of serving, not
/// a per-request outcome.
pub fn serve(programs: &[ServeProgram], tenants: usize, cell: &Arc<RuleCell>) -> ServeReport {
    serve_with(programs, tenants, cell, |e| e)
}

/// [`serve`] with an engine configurator applied to every engine at
/// construction (watchdog period, superblock threshold, fault plan —
/// anything the `with_*` builders expose). The configurator runs on the
/// tenant threads, so it must be `Sync`; the engines it configures
/// never leave their thread.
pub fn serve_with<F>(
    programs: &[ServeProgram],
    tenants: usize,
    cell: &Arc<RuleCell>,
    configure: F,
) -> ServeReport
where
    F: Fn(Engine) -> Engine + Sync,
{
    assert!(tenants > 0, "serving requires at least one tenant");
    let shared = SharedCounters::new(DBT_COUNTER_NAMES);
    let mut reports: Vec<TenantReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..tenants)
            .map(|tenant| {
                let shared = &shared;
                let configure = &configure;
                s.spawn(move || run_tenant(tenant, programs, cell, shared, configure))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    reports.sort_by_key(|t| t.tenant);
    ServeReport { tenants: reports, aggregate: shared.snapshot(), generation: cell.generation() }
}

/// One tenant's serving loop: construct a fresh engine per program (on
/// this thread — engines are `!Send`), run it, validate the checksum,
/// and fold its counters into the tenant totals. The tenant block is
/// absorbed into the shared registry once, at the end.
fn run_tenant(
    tenant: usize,
    programs: &[ServeProgram],
    cell: &Arc<RuleCell>,
    shared: &SharedCounters,
    configure: &(impl Fn(Engine) -> Engine + Sync),
) -> TenantReport {
    let totals = ldbt_obs::registry::CounterBlock::new(DBT_COUNTER_NAMES);
    let mut checksums = Vec::with_capacity(programs.len());
    let mut final_generation = cell.generation();
    for p in programs {
        let translator = Translator::Rules(cell.load().0);
        let mut e = configure(Engine::new(&p.image, translator).with_rule_cell(Arc::clone(cell)));
        let out = e.run(RUN_FUEL);
        assert_eq!(out, RunOutcome::Halted, "{}: tenant {tenant} did not halt", p.name);
        let got = e.guest_reg(ldbt_arm::ArmReg::R0);
        assert_eq!(got, p.want, "{}: tenant {tenant} produced a wrong checksum", p.name);
        for (i, (_, v)) in e.stats.counters().snapshot().into_iter().enumerate() {
            totals.add(i, v);
        }
        final_generation = e.rules_generation();
        checksums.push((p.name.clone(), got));
    }
    shared.absorb(&totals);
    TenantReport {
        tenant,
        guest_instrs: totals.get(0), // DbtCtr::GuestDyn
        checksums,
        counters: totals.snapshot(),
        final_generation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbt_learn::pipeline::learn_from_source;
    use ldbt_learn::RuleSet;

    fn small_rules() -> RuleSet {
        let mut rules = RuleSet::new();
        for name in ["mcf", "libquantum"] {
            let b = benchmark(name).unwrap();
            let src = source(b, Workload::Ref);
            let r = learn_from_source(name, &src, &Options::o2()).unwrap();
            rules.merge(&r.rules);
        }
        rules
    }

    #[test]
    fn two_tenants_serve_correctly_and_aggregate() {
        let programs = prepare(&["mcf", "libquantum"], Workload::Test, &Options::o2()).unwrap();
        let cell = Arc::new(RuleCell::new(small_rules()));
        let report = serve(&programs, 2, &cell);
        assert_eq!(report.tenants.len(), 2);
        // Every tenant ran every program; checksums were validated
        // against the interpreter inside the tenant threads.
        for t in &report.tenants {
            assert_eq!(t.checksums.len(), 2);
            assert!(t.guest_instrs > 0);
        }
        // Tenants are deterministic clones of each other: identical
        // checksums *and* identical counter totals.
        assert_eq!(report.tenants[0].checksums, report.tenants[1].checksums);
        assert_eq!(report.tenants[0].counters, report.tenants[1].counters);
        // The shared registry is the exact sum of the tenant blocks.
        let guest_dyn = report.aggregate.iter().find(|(n, _)| *n == "guest_dyn").unwrap().1;
        assert_eq!(guest_dyn, report.total_guest_instrs());
        // Nothing was quarantined, so no generation was ever published.
        assert_eq!(report.generation, 0);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        let cell = Arc::new(RuleCell::new(RuleSet::new()));
        serve(&[], 0, &cell);
    }
}
