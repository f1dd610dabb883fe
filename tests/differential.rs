//! Differential testing: randomly generated mini-C programs must produce
//! identical results under the ARM interpreter (golden model) and every
//! DBT engine, at every optimization level and compiler style.
//!
//! This is the repository's strongest correctness check — it exercises
//! the compiler, both ISAs, the TCG backend, the JIT optimizer, and the
//! rule pipeline (rules are learned from *separate* programs and applied
//! to the generated ones).

use ldbt_compiler::{link::build_arm_image, OptLevel, Options, Style};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::sync::Arc;

/// A tiny random-program generator (distinct from the workload suite so
/// the two cannot share bugs).
fn random_program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    let _ = writeln!(src, "int gl0; int gl1; int arr[32];");
    let nfuncs = rng.gen_range(1..4);
    for f in 0..nfuncs {
        let _ = writeln!(src, "int fun{f}(int a, int b) {{");
        let _ = writeln!(src, "  int s = a;");
        let stmts = rng.gen_range(2..8);
        for _ in 0..stmts {
            match rng.gen_range(0..8) {
                0 => {
                    let c = rng.gen_range(1..100);
                    let op = ["+", "-", "*", "&", "|", "^"][rng.gen_range(0..6)];
                    let _ = writeln!(src, "  s = s {op} {c};");
                }
                1 => {
                    let sh = rng.gen_range(1..8);
                    let op = ["<<", ">>"][rng.gen_range(0..2)];
                    let _ = writeln!(src, "  s = (s {op} {sh}) ^ b;");
                }
                2 => {
                    let _ = writeln!(
                        src,
                        "  if (s > b) {{ s -= b; }} else {{ s += {}; }}",
                        rng.gen_range(1..50)
                    );
                }
                3 => {
                    let n = rng.gen_range(1..12);
                    let _ = writeln!(
                        src,
                        "  for (int i = 0; i < {n}; i += 1) {{ s += arr[i & 31] ^ i; }}"
                    );
                }
                4 => {
                    let _ = writeln!(src, "  arr[s & 31] = s + b;");
                }
                5 => {
                    let _ = writeln!(src, "  gl{} += s;", rng.gen_range(0..2));
                }
                6 => {
                    let _ = writeln!(src, "  s += (s < b) + (a == {});", rng.gen_range(0..8));
                }
                _ => {
                    let _ = writeln!(src, "  s = s + a * {};", rng.gen_range(1..9));
                }
            }
        }
        let _ = writeln!(src, "  s = s & 0xffffff;");
        let _ = writeln!(src, "  return s;");
        let _ = writeln!(src, "}}");
    }
    let _ = writeln!(src, "int main() {{");
    let _ = writeln!(src, "  for (int i = 0; i < 32; i += 1) {{ arr[i] = i * 13; }}");
    let _ = writeln!(src, "  int acc = 0;");
    let reps = rng.gen_range(2..6);
    let _ = writeln!(src, "  for (int r = 0; r < {reps}; r += 1) {{");
    for f in 0..nfuncs {
        let _ = writeln!(src, "    acc += fun{f}(acc & 1023, r + {f});");
    }
    let _ = writeln!(src, "    acc = acc & 0xfffff;");
    let _ = writeln!(src, "  }}");
    let _ = writeln!(src, "  return (acc + gl0 + gl1) & 0xff;");
    let _ = writeln!(src, "}}");
    src
}

fn reference_result(image: &ldbt_compiler::ArmImage) -> u32 {
    let mut m = ldbt_arm::ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    assert_eq!(m.run(100_000_000), ldbt_arm::ArmStop::Halt, "interpreter halts");
    m.state.reg(ldbt_arm::ArmReg::R0)
}

#[test]
fn random_programs_differential() {
    // Rules learned once from two fixed training programs.
    let training = [random_program(777_001), random_program(777_002)];
    let mut rules = ldbt_learn::RuleSet::new();
    for (i, src) in training.iter().enumerate() {
        let r = ldbt_learn::pipeline::learn_from_source(&format!("train{i}"), src, &Options::o2())
            .unwrap();
        rules.merge(&r.rules);
    }
    let rules = Arc::new(rules);

    for seed in 0..25u64 {
        let src = random_program(seed);
        for (level, style) in [
            (OptLevel::O0, Style::Llvm),
            (OptLevel::O2, Style::Llvm),
            (OptLevel::O2, Style::Gcc),
            (OptLevel::O3, Style::Llvm),
        ] {
            let options = Options { level, style };
            let image = build_arm_image(&src, &options)
                .unwrap_or_else(|e| panic!("seed {seed} {options:?}: {e}\n{src}"));
            let want = reference_result(&image);
            for translator in
                [Translator::Tcg, Translator::Jit, Translator::Rules(Arc::clone(&rules))]
            {
                let label = format!("seed {seed} {options:?} {translator:?}");
                let mut e = Engine::new(&image, translator);
                assert_eq!(e.run(3_000_000_000), RunOutcome::Halted, "{label}");
                assert_eq!(e.guest_reg(ldbt_arm::ArmReg::R0), want, "{label}\n{src}");
            }
        }
    }
}

#[test]
fn random_programs_are_deterministic_across_opt_levels() {
    for seed in 100..115u64 {
        let src = random_program(seed);
        let mut results = Vec::new();
        for level in OptLevel::ALL {
            let image = build_arm_image(&src, &Options::level(level)).unwrap();
            results.push(reference_result(&image));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {results:?}\n{src}");
    }
}
