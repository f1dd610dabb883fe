//! `smc_smoke`: translation-cache coherence smoke for self-modifying code.
//!
//! Runs the self-patching loop of `ldbt_workloads::asm::smc_image` on
//! every engine (tcg / jit / rules) under the process's configuration
//! ([`Config::from_env`]) and asserts each run is bit-identical to the
//! ARM interpreter and actually took SMC invalidations. It prints only
//! guest-visible state — the final registers and the patched body word —
//! so a traced and an untraced run print the same bytes;
//! `scripts/tier1.sh` traces one and checks that every purge it logs
//! names its reason.
//!
//! With SMC protection off (`LDBT_NOSMC`) translated code would run
//! stale, so no engine runs and the lines come from the interpreter
//! alone (the watchdog cannot substitute: it only samples rule-covered
//! blocks). In-process, `tests/engine_edge_cases.rs` checks the coherent
//! engines on this image and the configuration matrix the incoherent
//! ones on programs that never store into their code.

use ldbt_arm::{ArmMachine, ArmReg, ArmStop};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::{Config, Engine};
use ldbt_isa::Width;
use ldbt_learn::RuleSet;
use ldbt_workloads::asm::{smc_image, SMC_BODY_WORD, SMC_RESULT};
use std::sync::Arc;

const FUEL: u64 = 200_000_000;

fn main() {
    let cfg = Config::from_env();
    let img = smc_image();
    let body = img.base + 4 * SMC_BODY_WORD;

    // Reference: the ARM interpreter, which reads code from memory every
    // step and is trivially coherent.
    let mut m = ArmMachine::new();
    img.load_into(&mut m.state.mem);
    m.state.regs[15] = img.entry;
    assert_eq!(m.run(FUEL), ArmStop::Halt, "interpreter did not halt");
    let want_regs = m.state.regs;
    let want_body = m.state.mem.read(body, Width::W32);
    assert_eq!(want_regs[0], SMC_RESULT, "interpreter result drifted");

    if cfg.smc {
        for (name, translator) in [
            ("tcg", Translator::Tcg),
            ("jit", Translator::Jit),
            ("rules", Translator::Rules(Arc::new(RuleSet::new()))),
        ] {
            let mut e = cfg.apply(Engine::new(&img, translator));
            assert_eq!(e.run(FUEL), RunOutcome::Halted, "{name}: did not halt");
            for r in ArmReg::ALL {
                if r != ArmReg::Pc {
                    assert_eq!(
                        e.guest_reg(r),
                        want_regs[r.index()],
                        "{name}: {r:?} diverged from the interpreter"
                    );
                }
            }
            assert_eq!(e.guest_mem(body), want_body, "{name}: body word diverged");
            assert!(
                e.stats.smc_invalidations() > 0,
                "{name}: self-modifying loop ran without any cache invalidation"
            );
        }
    }
    // Guest-visible lines only — identical whether the state above came
    // from coherent engines or the interpreter fallback.
    println!("smc_smoke r0={:#010x} body={want_body:#010x}", want_regs[0]);
    for r in ArmReg::ALL {
        if r != ArmReg::Pc {
            println!("smc_smoke reg {:?}={:#010x}", r, want_regs[r.index()]);
        }
    }
    println!("smc_smoke ok");
}
