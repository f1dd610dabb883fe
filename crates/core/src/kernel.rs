//! A host-side cooperative mini-kernel over the guest trap path.
//!
//! The DBT's trap exit ([`RunOutcome::Trap`]) turns guest faults and
//! supervisor calls into values a host driver can act on. This module is
//! the smallest interesting such driver: a round-robin scheduler over
//! the two cooperating "processes" (plus one that faults) of
//! [`ldbt_workloads::asm::mini_kernel_image`]. `svc #1` yields, `svc #2`
//! exits, and an out-of-range access kills the process — the same
//! contract a real user-mode emulator's syscall layer is built on.
//!
//! The scheduler is written once against a tiny [`Cpu`] abstraction and
//! driven twice: over the DBT [`Engine`] and over the reference
//! [`ArmMachine`]. Both must produce the same [`KernelRun`] — final
//! per-process registers, mailbox contents, and event order — which is
//! exactly the differential guarantee the watchdog relies on: a trap
//! observed by translated code must be the trap the interpreter takes.
//!
//! The workload keeps no condition flags live across a yield (every
//! `svc #1` is followed by a flag-setting `subs`), so a process context
//! is `r0`–`r14` plus the resume pc.

use ldbt_arm::{ArmMachine, ArmReg, ArmStop, ArmTrapCause};
use ldbt_dbt::env::GUEST_MEM_LIMIT;
use ldbt_dbt::{Engine, RunOutcome, Translator, TrapKind};
use ldbt_isa::Width;
use ldbt_workloads::asm::{mini_kernel_image, MAILBOX_BASE};

/// Host-instruction (or interpreter-step) budget per scheduling slice.
const SLICE_FUEL: u64 = 50_000_000;

/// How a process left its slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// `svc #1`: save the context, resume later at `pc`.
    Yield { pc: u32 },
    /// `svc #2`: clean exit.
    Done,
    /// Out-of-range access at `addr`: the kernel kills the process.
    Fault { addr: u32 },
}

/// One execution substrate the scheduler can drive.
trait Cpu {
    /// Install a process context (`r0`–`r14` + pc) and run until the
    /// next trap.
    fn resume(&mut self, ctx: &mut [u32; 16]) -> Exit;
    /// Read guest memory (for the final mailbox audit).
    fn mem(&self, addr: u32) -> u32;
}

struct DbtCpu(Engine);

impl Cpu for DbtCpu {
    fn resume(&mut self, ctx: &mut [u32; 16]) -> Exit {
        for r in ArmReg::ALL {
            if r != ArmReg::Pc {
                self.0.set_guest_reg(r, ctx[r.index()]);
            }
        }
        self.0.set_guest_pc(ctx[15]);
        let exit = match self.0.run(SLICE_FUEL) {
            RunOutcome::Trap { pc, cause: TrapKind::Svc(1) } => Exit::Yield { pc: pc + 4 },
            RunOutcome::Trap { cause: TrapKind::Svc(2), .. } => Exit::Done,
            RunOutcome::Trap { cause: TrapKind::Mem(addr), .. } => Exit::Fault { addr },
            out => panic!("mini-kernel process left the DBT with {out:?}"),
        };
        for r in ArmReg::ALL {
            if r != ArmReg::Pc {
                ctx[r.index()] = self.0.guest_reg(r);
            }
        }
        exit
    }

    fn mem(&self, addr: u32) -> u32 {
        self.0.guest_mem(addr)
    }
}

struct InterpCpu(ArmMachine);

impl Cpu for InterpCpu {
    fn resume(&mut self, ctx: &mut [u32; 16]) -> Exit {
        self.0.state.regs = *ctx;
        let exit = match self.0.run(SLICE_FUEL) {
            ArmStop::Trap { pc, cause: ArmTrapCause::Svc(1) } => Exit::Yield { pc: pc + 4 },
            ArmStop::Trap { cause: ArmTrapCause::Svc(2), .. } => Exit::Done,
            ArmStop::Trap { cause: ArmTrapCause::Mem(addr), .. } => Exit::Fault { addr },
            stop => panic!("mini-kernel process left the interpreter with {stop}"),
        };
        ctx[..15].copy_from_slice(&self.0.state.regs[..15]);
        exit
    }

    fn mem(&self, addr: u32) -> u32 {
        self.0.state.mem.read(addr, Width::W32)
    }
}

/// The guest-visible outcome of a full mini-kernel schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRun {
    /// Final `r0` of each process, in image order (a, b, wild).
    pub results: [u32; 3],
    /// Final mailbox words (a, b).
    pub mailboxes: [u32; 2],
    /// Total `svc #1` yields served.
    pub yields: u32,
    /// Kill events: (process index, faulting address).
    pub faults: Vec<(usize, u32)>,
    /// Rolling mix of every scheduler event, order-sensitive — two runs
    /// agree on this iff they saw the same traps in the same order with
    /// the same register state.
    pub checksum: u32,
}

fn schedule(cpu: &mut impl Cpu, entries: &[u32]) -> KernelRun {
    let mut ctxs: Vec<[u32; 16]> = entries
        .iter()
        .map(|&pc| {
            let mut c = [0u32; 16];
            c[15] = pc;
            c
        })
        .collect();
    let mut alive = vec![true; ctxs.len()];
    let mut run = KernelRun {
        results: [0; 3],
        mailboxes: [0; 2],
        yields: 0,
        faults: Vec::new(),
        checksum: 0,
    };
    fn mix(run: &mut KernelRun, v: u32) {
        run.checksum = run.checksum.wrapping_mul(1_664_525).wrapping_add(v);
    }
    while alive.iter().any(|&a| a) {
        for p in 0..ctxs.len() {
            if !alive[p] {
                continue;
            }
            match cpu.resume(&mut ctxs[p]) {
                Exit::Yield { pc } => {
                    ctxs[p][15] = pc;
                    run.yields += 1;
                    mix(&mut run, 1);
                }
                Exit::Done => {
                    alive[p] = false;
                    mix(&mut run, 2);
                }
                Exit::Fault { addr } => {
                    alive[p] = false;
                    run.faults.push((p, addr));
                    mix(&mut run, 3 ^ addr);
                }
            }
            mix(&mut run, ctxs[p][0]);
        }
    }
    for (p, ctx) in ctxs.iter().enumerate() {
        run.results[p] = ctx[0];
    }
    run.mailboxes = [cpu.mem(MAILBOX_BASE), cpu.mem(MAILBOX_BASE + 4)];
    let [ma, mb] = run.mailboxes;
    mix(&mut run, ma);
    mix(&mut run, mb);
    run
}

fn entries() -> Vec<u32> {
    let img = mini_kernel_image();
    ["proc_a", "proc_b", "proc_wild"]
        .iter()
        .map(|name| {
            img.func_addrs
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("mini-kernel image lacks {name}"))
                .1
        })
        .collect()
}

/// Run the mini-kernel schedule over a DBT engine. The `configure`
/// closure applies builder knobs (watchdog, superblocks, chaining, …).
pub fn run_mini_kernel_dbt(
    translator: Translator,
    configure: impl FnOnce(Engine) -> Engine,
) -> KernelRun {
    let img = mini_kernel_image();
    let e = configure(Engine::new(&img, translator));
    schedule(&mut DbtCpu(e), &entries())
}

/// Run the identical schedule over the reference ARM interpreter, with
/// the same guest memory limit the engine enforces.
pub fn run_mini_kernel_interp() -> KernelRun {
    let img = mini_kernel_image();
    let mut m = ArmMachine::new();
    m.state.trap_limit = Some(GUEST_MEM_LIMIT);
    img.load_into(&mut m.state.mem);
    schedule(&mut InterpCpu(m), &entries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn interp_kernel_is_deterministic_and_plausible() {
        let a = run_mini_kernel_interp();
        let b = run_mini_kernel_interp();
        assert_eq!(a, b);
        // 12 A-yields + 9 B-yields; the wild process dies on its store.
        assert_eq!(a.yields, 21);
        assert_eq!(a.faults, vec![(2, 0xffff_fff8)]);
        assert!(a.results[0] > 0 && a.results[1] > 0);
        assert_eq!(a.results[2], 0, "proc_wild never computes anything");
    }

    #[test]
    fn dbt_kernel_matches_interpreter_across_engines() {
        let want = run_mini_kernel_interp();
        for translator in [
            Translator::Tcg,
            Translator::Jit,
            Translator::Rules(Arc::new(ldbt_learn::RuleSet::new())),
        ] {
            let got = run_mini_kernel_dbt(translator.clone(), |e| e);
            assert_eq!(got, want, "{translator:?}");
        }
    }

    /// The watchdog × superblock cells, every engine. The rules engine
    /// runs the suite's rules plus one verified rule for the `subs; bne`
    /// that closes each process's loop: every kernel block the suite's
    /// rules cover ends in an `svc`, and a trap exit ends the run before
    /// the watchdog checks the block, so without it the watchdog would
    /// sample nothing.
    #[test]
    fn dbt_kernel_matches_under_watchdog_and_without_superblocks() {
        use ldbt_arm::{ArmInstr, Cond, DpOp, Operand2};
        use ldbt_x86::{AluOp, Cc, Gpr, X86Instr};
        let pair = ldbt_learn::extract::SnippetPair {
            loc: ldbt_isa::SourceLoc::line(1),
            func: "kernel".into(),
            guest: vec![
                (ArmInstr::dps(DpOp::Sub, ArmReg::R1, ArmReg::R1, Operand2::Imm(1)), None),
                (ArmInstr::B { offset: -7, cond: Cond::Ne }, None),
            ],
            host: vec![
                (X86Instr::alu_ri(AluOp::Sub, Gpr::Ecx, 1), None),
                (X86Instr::Jcc { cc: Cc::Ne, target: 0 }, None),
            ],
        };
        let mappings = ldbt_learn::param::initial_mappings(&pair).unwrap();
        let loop_rule = mappings.iter().find_map(|m| ldbt_learn::verify::verify(&pair, m).ok());
        let o2 = ldbt_compiler::Options::o2();
        let (mut rules, _) = crate::learn_suite(&o2, None, &crate::Config::DEFAULT).unwrap();
        assert!(rules.insert(loop_rule.expect("subs; bne verifies")));
        let rules = Arc::new(rules);
        let want = run_mini_kernel_interp();
        for wd in [None, Some(1)] {
            for sb in [None, Some(4), Some(ldbt_dbt::env::SB_THRESHOLD_DEFAULT)] {
                for t in [Translator::Tcg, Translator::Jit, Translator::Rules(Arc::clone(&rules))] {
                    let label = format!("{t:?} wd={wd:?} sb={sb:?}");
                    let engine = Engine::new(&mini_kernel_image(), t.clone());
                    let mut cpu = DbtCpu(engine.with_watchdog(wd).with_superblocks(sb));
                    assert_eq!(schedule(&mut cpu, &entries()), want, "{label}");
                    if wd.is_some() && matches!(t, Translator::Rules(_)) {
                        assert!(cpu.0.stats.watchdog_checks() > 0, "{label}: never sampled");
                    }
                }
            }
        }
    }
}
