//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. duplicate-rule selection: shortest-host (paper §6.1) vs first-found,
//! 2. rule lookup: opcode-mean hash (paper §4) vs linear scan,
//! 3. condition codes: lazy host-flag save (paper §5) vs skipping
//!    flag-live-out rules,
//! 4. initial-mapping tries: the paper's 5 swept over 1..8.

use ldbt_bench::{hr, learn_everything};
use ldbt_compiler::Options;
use ldbt_core::experiment::{geomean, loo_rules};
use ldbt_core::{run_benchmark, Config, EngineKind};
use ldbt_dbt::engine::Translator;
use ldbt_dbt::Engine;
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{LearnConfig, RuleSet, VerifyCache};
use ldbt_workloads::{source, Workload, SUITE};
use std::sync::Arc;

const TARGETS: [&str; 4] = ["mcf", "hmmer", "libquantum", "astar"];

fn run_with(name: &str, translator: Translator, cfg: &Config) -> ldbt_dbt::DbtStats {
    let b = ldbt_workloads::benchmark(name).unwrap();
    let src = source(b, Workload::Ref);
    let image = ldbt_compiler::link::build_arm_image(&src, &Options::o2()).unwrap();
    let mut e = cfg.apply(Engine::new(&image, translator));
    assert_eq!(e.run(3_000_000_000), ldbt_dbt::engine::RunOutcome::Halted);
    e.stats
}

fn main() {
    let cfg = Config::from_env();
    let o2 = Options::o2();
    let all = learn_everything(&cfg);

    println!("Ablation 1: duplicate-rule selection policy (ref workload)");
    hr(72);
    for name in TARGETS {
        let shortest = loo_rules(&all, name);
        let mut first_found = RuleSet::new_first_found();
        // Re-insert in the same order; first-found keeps the first host
        // sequence seen instead of the shortest.
        for p in all.iter().filter(|p| p.name != name) {
            for r in p.rules.iter() {
                first_found.insert(r.clone());
            }
        }
        let base = run_benchmark(name, Workload::Ref, EngineKind::Tcg, &o2, None, &cfg);
        let a = run_benchmark(name, Workload::Ref, EngineKind::Rules, &o2, Some(&shortest), &cfg);
        let b =
            run_benchmark(name, Workload::Ref, EngineKind::Rules, &o2, Some(&first_found), &cfg);
        println!(
            "{:<12} shortest-host {:>5.2}x   first-found {:>5.2}x",
            name,
            a.speedup_over(&base),
            b.speedup_over(&base)
        );
    }

    println!();
    println!("Ablation 2: rule lookup scheme (translation-time probes, mcf ref)");
    hr(72);
    {
        let rules = loo_rules(&all, "mcf");
        // Count probes for every block of the program once.
        let b = ldbt_workloads::benchmark("mcf").unwrap();
        let src = source(b, Workload::Ref);
        let image = ldbt_compiler::link::build_arm_image(&src, &Options::o2()).unwrap();
        let mut mem = ldbt_isa::Memory::new();
        image.load_into(&mut mem);
        let mut hash_probes = 0usize;
        let mut linear_probes = 0usize;
        for (_, addr) in &image.func_addrs {
            let mut pc = *addr;
            loop {
                let block = ldbt_dbt::tcg::decode_block(&mem, pc);
                if block.instrs.is_empty() {
                    break;
                }
                let n = block.instrs.len();
                for i in 0..n {
                    for len in (1..=n - i).rev() {
                        let seq = &block.instrs[i..i + len];
                        hash_probes += rules.candidates(seq).count();
                        // A linear scan visits every rule up to the first
                        // match (all of them on a miss).
                        let hit = rules.iter().position(|r| r.matches(seq).is_some());
                        linear_probes += hit.map_or(rules.len(), |at| at + 1);
                    }
                }
                if !matches!(block.instrs.last(), Some(ldbt_arm::ArmInstr::B { .. })) {
                    break;
                }
                pc += 4 * n as u32;
            }
        }
        println!("hash-bucketed probes: {hash_probes:>8}");
        println!(
            "linear-scan probes:   {linear_probes:>8}  ({:.1}x more)",
            linear_probes as f64 / hash_probes.max(1) as f64
        );
    }

    println!();
    println!("Ablation 3: condition-code strategy (ref workload)");
    hr(72);
    for name in TARGETS {
        let rules = Arc::new(loo_rules(&all, name));
        let base = run_with(name, Translator::Tcg, &cfg);
        let lazy = run_with(name, Translator::Rules(Arc::clone(&rules)), &cfg);
        let strict = run_with(name, Translator::RulesNoLazyFlags(rules), &cfg);
        println!(
            "{:<12} lazy-flag-save {:>5.2}x (Dp {:>4.1}%)   no-lazy {:>5.2}x (Dp {:>4.1}%)",
            name,
            base.total_cycles() as f64 / lazy.total_cycles() as f64,
            lazy.dynamic_coverage() * 100.0,
            base.total_cycles() as f64 / strict.total_cycles() as f64,
            strict.dynamic_coverage() * 100.0,
        );
    }

    println!();
    println!("Ablation 4: initial-mapping tries (rules learned, whole suite)");
    hr(72);
    for tries in [1usize, 2, 3, 5, 8] {
        let learn = LearnConfig { max_tries: tries, ..cfg.learn() };
        let mut total = 0usize;
        for b in &SUITE {
            let src = source(b, Workload::Ref);
            let r = learn_from_source_cached(b.name, &src, &o2, &learn, &mut VerifyCache::new())
                .unwrap();
            total += r.stats.rules;
        }
        println!("max tries {tries}: {total} rules learned");
    }

    println!();
    let rows: Vec<f64> = TARGETS
        .iter()
        .map(|name| {
            let rules = loo_rules(&all, name);
            let base = run_benchmark(name, Workload::Ref, EngineKind::Tcg, &o2, None, &cfg);
            let ours =
                run_benchmark(name, Workload::Ref, EngineKind::Rules, &o2, Some(&rules), &cfg);
            ours.speedup_over(&base)
        })
        .collect();
    println!("sanity geomean over ablation targets: {:.3}x", geomean(rows.into_iter()));
}
