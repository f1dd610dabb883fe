//! The execution half of a workload: one *pass* runs every guest
//! program of the workload once, checks each run against the ARM
//! interpreter's reference, and returns the wall the engine calls took
//! (checks are outside the clock) with the counters they left behind.
//!
//! An *operation* is one guest-program run. A wrong register, a wrong
//! instruction count, a non-`Halted` outcome or a panic is a failed
//! operation, never a process abort.

use crate::inputs::{Program, Setup, SmcRef};
use crate::spec::ExecKind;
use ldbt_arm::ArmReg;
use ldbt_core::kernel::run_mini_kernel_dbt;
use ldbt_core::serve::{serve_with, ServeProgram};
use ldbt_core::RUN_FUEL;
use ldbt_dbt::stats::DBT_COUNTER_NAMES;
use ldbt_dbt::{Engine, RuleCell, RunOutcome, Translator};
use ldbt_learn::{FaultPlan, RuleSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// SMC-loop and mini-kernel runs per `churn` pass.
pub const CHURN_SMC_RUNS: usize = 100;
pub const CHURN_KERNEL_RUNS: usize = 100;

/// Every engine knob, set through the `Engine::with_*` builders so that
/// no `LDBT_*` variable can reach a measurement.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub watchdog: Option<u64>,
    pub chaining: bool,
    pub superblocks: Option<u64>,
    pub region_alloc: bool,
    pub fusion: bool,
    pub smc: bool,
    pub repair: bool,
    pub fault: Option<FaultPlan>,
}

impl Knobs {
    /// The engine's documented defaults.
    pub const DEFAULT: Knobs = Knobs {
        watchdog: None,
        chaining: true,
        superblocks: Some(ldbt_dbt::env::SB_THRESHOLD_DEFAULT),
        region_alloc: true,
        fusion: true,
        smc: true,
        repair: true,
        fault: None,
    };

    pub fn apply(&self, e: Engine) -> Engine {
        e.with_watchdog(self.watchdog)
            .with_chaining(self.chaining)
            .with_superblocks(self.superblocks)
            .with_region_alloc(self.region_alloc)
            .with_fusion(self.fusion)
            .with_smc(self.smc)
            .with_repair(self.repair)
            .with_fault(self.fault)
    }
}

/// Which translator a pass runs under. `Rules` is the product; the
/// other two are yardsticks for layer rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Rules,
    Tcg,
    Jit,
}

impl Which {
    fn translator(self, rules: &Arc<RuleSet>) -> Translator {
        match self {
            Which::Rules => Translator::Rules(Arc::clone(rules)),
            Which::Tcg => Translator::Tcg,
            Which::Jit => Translator::Jit,
        }
    }
}

/// Index of a counter in [`DBT_COUNTER_NAMES`].
pub fn ctr(name: &str) -> usize {
    DBT_COUNTER_NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("ldbt-dbt has no counter named {name}"))
}

/// What a pass's engines counted, summed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// The engine registry in [`DBT_COUNTER_NAMES`] order.
    pub ctrs: Vec<u64>,
    pub host_instrs: u64,
    pub cycles: u64,
    /// Translations no longer live when their engine finished.
    pub purged_blocks: u64,
}

impl Tally {
    pub fn get(&self, name: &str) -> u64 {
        self.ctrs.get(ctr(name)).copied().unwrap_or(0)
    }

    pub fn guest(&self) -> u64 {
        self.get("guest_dyn")
    }

    fn add_ctrs(&mut self, ctrs: &[u64]) {
        if self.ctrs.is_empty() {
            self.ctrs = vec![0; DBT_COUNTER_NAMES.len()];
        }
        for (sum, v) in self.ctrs.iter_mut().zip(ctrs) {
            *sum += v;
        }
    }

    fn add_engine(&mut self, e: &Engine) {
        let ctrs: Vec<u64> = e.stats.counters().snapshot().into_iter().map(|(_, v)| v).collect();
        self.add_ctrs(&ctrs);
        self.host_instrs += e.stats.exec.host_instrs;
        self.cycles += e.stats.total_cycles();
        self.purged_blocks += e.stats.blocks().saturating_sub(e.cache_blocks() as u64);
    }

    /// Count one operation; a caught panic is a failure like any other.
    fn op(&mut self, what: &str, outcome: std::thread::Result<Result<(), String>>) {
        self.ops += 1;
        let why = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(why)) => why,
            Err(_) => "panicked".to_string(),
        };
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {why}");
    }
}

/// One pass: the wall of its engine calls, what they counted, and the
/// per-program split the paper's per-benchmark figures need.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub tally: Tally,
    /// Each suite program run on an engine this process can read back.
    pub per_program: Vec<ProgramCounts>,
}

/// One program's run, for the paper's per-benchmark figures.
#[derive(Debug, Clone, Copy)]
pub struct ProgramCounts {
    pub host_instrs: u64,
    pub cycles: u64,
}

fn check_program(p: &Program, e: &Engine, out: RunOutcome) -> Result<(), String> {
    if out != RunOutcome::Halted {
        return Err(format!("ended with {out:?}"));
    }
    let got = (e.guest_reg(ArmReg::R0), e.stats.guest_dyn(), e.guest_mem(p.checksum_addr));
    let want = (p.want.r0, p.want.steps, p.want.checksum);
    if got != want {
        return Err(format!("(r0, guest_dyn, checksum) = {got:x?}, interpreter says {want:x?}"));
    }
    Ok(())
}

/// Run one program on a cold engine.
fn run_program(pass: &mut Pass, p: &Program, translator: Translator, knobs: &Knobs) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut e = knobs.apply(Engine::new(&p.image, translator));
        let out = e.run(RUN_FUEL);
        let wall = t.elapsed().as_secs_f64();
        (wall, check_program(p, &e, out), e)
    }));
    let outcome = outcome.map(|(wall, verdict, e)| {
        pass.wall_s += wall;
        pass.tally.add_engine(&e);
        pass.per_program.push(ProgramCounts {
            host_instrs: e.stats.exec.host_instrs,
            cycles: e.stats.total_cycles(),
        });
        verdict
    });
    pass.tally.op(&p.name, outcome);
}

fn solo_pass(setup: &Setup, which: Which, knobs: &Knobs) -> Pass {
    let mut pass = Pass::default();
    for (p, rules) in setup.programs.iter().zip(&setup.rules_for) {
        run_program(&mut pass, p, which.translator(rules), knobs);
    }
    pass
}

/// Serve the programs to `tenants` tenant threads over one fresh rule
/// generation. `serve_with` reports the engine registry per tenant but
/// not the host-side counters (`host_instrs`, cycles): those come from
/// a solo pass over the same programs and rules, see `measure`.
fn serve_pass(setup: &Setup, tenants: usize, knobs: &Knobs) -> Pass {
    let programs: Vec<ServeProgram> = setup
        .programs
        .iter()
        .map(|p| ServeProgram { name: p.name.clone(), image: p.image.clone(), want: p.want.r0 })
        .collect();
    let steps: u64 = setup.programs.iter().map(|p| p.want.steps).sum();
    let mut pass = Pass::default();
    let cell = Arc::new(RuleCell::from_arc(Arc::clone(&setup.full)));
    let t = Instant::now();
    let served = catch_unwind(AssertUnwindSafe(|| {
        serve_with(&programs, tenants, &cell, |e| knobs.apply(e))
    }));
    pass.wall_s = t.elapsed().as_secs_f64();
    let Ok(report) = served else {
        // A tenant thread panicked (serve asserts r0 itself): every run
        // of the pass is lost.
        for _ in 0..tenants * programs.len() {
            pass.tally.op("serve", Ok(Err("a tenant panicked".into())));
        }
        return pass;
    };
    let ctrs: Vec<u64> = report.aggregate.iter().map(|(_, v)| *v).collect();
    pass.tally.add_ctrs(&ctrs);
    for t in &report.tenants {
        for ((name, got), p) in t.checksums.iter().zip(&setup.programs) {
            let verdict = if (name, *got) == (&p.name, p.want.r0) && t.guest_instrs == steps {
                Ok(())
            } else {
                Err(format!(
                    "tenant {}: r0 {got:#x} (want {:#x}), {} guest instrs (want {steps})",
                    t.tenant, p.want.r0, t.guest_instrs
                ))
            };
            pass.tally.op(name, Ok(verdict));
        }
    }
    pass
}

fn check_smc(smc: &SmcRef, e: &Engine, out: RunOutcome, coherent: bool) -> Result<(), String> {
    if out != RunOutcome::Halted {
        return Err(format!("ended with {out:?}"));
    }
    for r in ArmReg::ALL {
        if r != ArmReg::Pc && e.guest_reg(r) != smc.regs[r.index()] {
            return Err(format!("{r:?} diverged from the interpreter"));
        }
    }
    if e.guest_mem(smc.body_addr) != smc.body {
        return Err("patched body word diverged".into());
    }
    if coherent && e.stats.smc_invalidations() == 0 {
        return Err("self-modifying loop ran without an invalidation".into());
    }
    Ok(())
}

/// The code cache used for writes: the self-patching loop (purge,
/// unlink, IBTC scrub, region kill, retranslation), the mini-kernel
/// (trap exits and re-entry), then the mix under a watchdog that
/// checks every covered dispatch against the interpreter while an
/// injected `imm-skew` fault makes it attribute, repair and publish.
/// (A sampling watchdog — period 16 — lets a skewed rule run unchecked
/// and the guest's result go wrong, which is the fault doing its job,
/// not an operation a benchmark can count on: period 1 it is.)
fn churn_pass(setup: &Setup, which: Which, knobs: &Knobs) -> Pass {
    let mut pass = Pass::default();
    let (Some(smc), Some(kernel)) = (&setup.smc, &setup.kernel) else {
        pass.tally.op("churn", Ok(Err("set-up built no SMC/kernel reference".into())));
        return pass;
    };
    for _ in 0..CHURN_SMC_RUNS {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let mut e = knobs.apply(Engine::new(&smc.image, which.translator(&setup.full)));
            let out = e.run(RUN_FUEL);
            (t.elapsed().as_secs_f64(), check_smc(smc, &e, out, knobs.smc), e)
        }));
        let outcome = outcome.map(|(wall, verdict, e)| {
            pass.wall_s += wall;
            pass.tally.add_engine(&e);
            verdict
        });
        pass.tally.op("smc", outcome);
    }
    // The mini-kernel driver owns its engine, so its counters (a few
    // hundred guest instructions a run) stay out of the tally; its wall
    // and its outcome are in.
    for _ in 0..CHURN_KERNEL_RUNS {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_mini_kernel_dbt(which.translator(&setup.full), |e| knobs.apply(e))
        }));
        pass.wall_s += t.elapsed().as_secs_f64();
        pass.tally.op(
            "mini-kernel",
            outcome.map(|got| {
                if got == *kernel {
                    Ok(())
                } else {
                    Err("kernel run diverged from the interpreter".into())
                }
            }),
        );
    }
    let guarded =
        Knobs { watchdog: Some(1), repair: true, fault: FaultPlan::parse("imm-skew:0"), ..*knobs };
    for (p, rules) in setup.programs.iter().zip(&setup.rules_for) {
        run_program(&mut pass, p, which.translator(rules), &guarded);
    }
    pass
}

/// One pass of the workload's execution half.
pub fn run_pass(
    setup: &Setup,
    kind: ExecKind,
    tenants: usize,
    which: Which,
    knobs: &Knobs,
) -> Pass {
    match (kind, which) {
        (ExecKind::Serve, Which::Rules) => serve_pass(setup, tenants, knobs),
        // `serve` only takes rule engines; the yardsticks run solo.
        (ExecKind::Serve | ExecKind::Solo, _) => solo_pass(setup, which, knobs),
        (ExecKind::Churn, _) => churn_pass(setup, which, knobs),
    }
}
