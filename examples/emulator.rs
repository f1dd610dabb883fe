//! A command-line cross-ISA emulator: compile a mini-C program for the
//! ARM guest and run it under a chosen translation engine.
//!
//! ```sh
//! # Run a built-in demo under every engine and compare:
//! cargo run --release --example emulator
//!
//! # Emulate your own program (mini-C subset):
//! cargo run --release --example emulator -- path/to/prog.c rules
//! ```
//!
//! Engines: `tcg` (QEMU-style baseline), `rules` (learned-rule enhanced,
//! rules trained on the synthetic SPEC suite), `jit` (HQEMU-style).

use ldbt_core::compiler::{link::build_arm_image, Options};
use ldbt_core::dbt::engine::{RunOutcome, Translator};
use ldbt_core::dbt::Engine;
use ldbt_core::{learn_suite, Config};
use std::sync::Arc;

const DEMO: &str = "
int primes;
int is_prime(int n) {
  if (n < 2) { return 0; }
  for (int d = 2; d * d <= n; d += 1) {
    // The mini-C subset has no division (like early ARM cores): test
    // divisibility by repeated subtraction.
    int q = n;
    while (q >= d) { q -= d; }
    if (q == 0) { return 0; }
  }
  return 1;
}
int main() {
  primes = 0;
  for (int n = 2; n < 200; n += 1) {
    primes += is_prime(n);
  }
  return primes;
}
";

fn engine_of(name: &str, rules: &Arc<ldbt_core::learn::RuleSet>) -> Translator {
    match name {
        "tcg" => Translator::Tcg,
        "jit" => Translator::Jit,
        "rules" => Translator::Rules(Arc::clone(rules)),
        other => panic!("unknown engine `{other}` (use tcg / rules / jit)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let source = match args.get(1) {
        Some(path) => std::fs::read_to_string(path).expect("readable source file"),
        None => DEMO.to_string(),
    };
    let engines: Vec<&str> = match args.get(2) {
        Some(e) => vec![e.as_str()],
        None => vec!["tcg", "rules", "jit"],
    };

    println!("learning rules from the synthetic SPEC suite...");
    let cfg = Config::from_env();
    let (rules, _) = learn_suite(&Options::o2(), None, &cfg).expect("suite compiles");
    println!("  {} rules available", rules.len());
    let rules = Arc::new(rules);

    let image = build_arm_image(&source, &Options::o2()).expect("program compiles");
    println!("guest image: {} instructions, entry {:#x}", image.instr_count(), image.entry);

    for engine in engines {
        let mut e = cfg.apply(Engine::new(&image, engine_of(engine, &rules)));
        let outcome = e.run(3_000_000_000);
        assert_eq!(outcome, RunOutcome::Halted, "{engine} did not halt");
        println!(
            "[{engine:>5}] r0 = {:>10}  guest instrs {:>9}  host instrs {:>9}  \
             cycles {:>10} (translation {:>8})  coverage {:>5.1}%",
            e.guest_reg(ldbt_arm::ArmReg::R0),
            e.stats.guest_dyn(),
            e.stats.exec.host_instrs,
            e.stats.total_cycles(),
            e.stats.exec.translation_cycles,
            e.stats.dynamic_coverage() * 100.0,
        );
    }
}
