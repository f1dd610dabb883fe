//! Cross-crate integration tests: the full learn → translate → execute
//! pipeline, validated against the ARM interpreter.

use ldbt_compiler::{link::build_arm_image, OptLevel, Options, Style};
use ldbt_core::{learn_suite, run_benchmark, Config, EngineKind};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::Engine;
use ldbt_workloads::Workload;
use std::sync::Arc;

/// Run a source program under the interpreter and all three engines and
/// require identical results; returns the common result.
fn run_everywhere(src: &str, options: &Options, rules: &ldbt_learn::RuleSet) -> u32 {
    let image = build_arm_image(src, options).expect("compiles");
    let mut m = ldbt_arm::ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    assert_eq!(m.run(200_000_000), ldbt_arm::ArmStop::Halt);
    let want = m.state.reg(ldbt_arm::ArmReg::R0);
    for translator in [
        Translator::Tcg,
        Translator::Jit,
        Translator::Rules(Arc::new(rules.clone())),
        Translator::RulesNoLazyFlags(Arc::new(rules.clone())),
    ] {
        let label = format!("{translator:?}");
        let mut e = Engine::new(&image, translator);
        assert_eq!(e.run(3_000_000_000), RunOutcome::Halted, "{label}");
        assert_eq!(e.guest_reg(ldbt_arm::ArmReg::R0), want, "{label}");
    }
    want
}

#[test]
fn representative_programs_agree_across_engines() {
    let (rules, stats) = learn_suite(&Options::o2(), None, &Config::DEFAULT).unwrap();
    assert_eq!(stats.len(), 12);
    assert!(rules.len() > 100, "rule corpus: {}", rules.len());
    let programs = [
        "int main() { int s = 0; for (int i = 0; i < 321; i += 1) { s += i ^ 3; } return s & 0xffff; }",
        "int t[40]; int main() { for (int i=0;i<40;i+=1){ t[i]=i*i; } int s=0; for (int i=0;i<40;i+=1){ s += t[i] & 63; } return s; }",
        "int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); } int main() { return f(15); }",
        "int main() { int h = 17; for (int i=0;i<100;i+=1){ h = (h << 3) ^ (h >> 2) ^ i; h = h & 0xfffff; } return h & 255; }",
    ];
    for src in programs {
        run_everywhere(src, &Options::o2(), &rules);
    }
}

#[test]
fn all_guest_configurations_are_translatable() {
    let (rules, _) = learn_suite(&Options::o2(), None, &Config::DEFAULT).unwrap();
    let src = "
int acc;
int k(int a, int b) {
  int s = a;
  for (int i = 0; i < b; i += 1) { s = (s + i) * 3; s = s & 0xffff; }
  return s;
}
int main() {
  acc = 0;
  for (int r = 0; r < 6; r += 1) { acc += k(r, 9); }
  return acc & 255;
}";
    let mut results = Vec::new();
    for style in [Style::Llvm, Style::Gcc] {
        for level in OptLevel::ALL {
            results.push(run_everywhere(src, &Options { level, style }, &rules));
        }
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

#[test]
fn leave_one_out_runs_all_benchmarks_test_workload() {
    // A smoke pass of the Figure 8 protocol on the test workload for
    // three representative benchmarks (full sweeps live in ldbt-bench).
    for name in ["mcf", "libquantum", "astar"] {
        let (rules, _) = learn_suite(&Options::o2(), Some(name), &Config::DEFAULT).unwrap();
        let (o2, d) = (Options::o2(), &Config::DEFAULT);
        let base = run_benchmark(name, Workload::Test, EngineKind::Tcg, &o2, None, d);
        let ours = run_benchmark(name, Workload::Test, EngineKind::Rules, &o2, Some(&rules), d);
        assert_eq!(base.checksum, ours.checksum, "{name}");
        assert!(ours.stats.static_coverage() > 0.2, "{name} coverage");
    }
}

#[test]
fn rules_reduce_dynamic_host_instructions() {
    let (rules, _) = learn_suite(&Options::o2(), Some("hmmer"), &Config::DEFAULT).unwrap();
    let (o2, d) = (Options::o2(), &Config::DEFAULT);
    let base = run_benchmark("hmmer", Workload::Ref, EngineKind::Tcg, &o2, None, d);
    let ours = run_benchmark("hmmer", Workload::Ref, EngineKind::Rules, &o2, Some(&rules), d);
    assert!(
        ours.stats.exec.host_instrs < base.stats.exec.host_instrs,
        "{} !< {}",
        ours.stats.exec.host_instrs,
        base.stats.exec.host_instrs
    );
    assert!(ours.speedup_over(&base) > 1.0);
}

#[test]
fn gcc_style_guests_still_benefit() {
    // Figure 9's claim in miniature: LLVM-learned rules on a GCC-built
    // guest.
    let (rules, _) = learn_suite(&Options::o2(), Some("astar"), &Config::DEFAULT).unwrap();
    let (gcc, d) = (Options::gcc(), &Config::DEFAULT);
    let base = run_benchmark("astar", Workload::Ref, EngineKind::Tcg, &gcc, None, d);
    let ours = run_benchmark("astar", Workload::Ref, EngineKind::Rules, &gcc, Some(&rules), d);
    assert_eq!(base.checksum, ours.checksum);
    assert!(ours.stats.dynamic_coverage() > 0.1, "cross-compiler coverage");
}
