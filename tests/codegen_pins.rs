//! Codegen pins: the translators' output is part of the repository's
//! contract — every perfbench `host_instrs_per_ginstr` and every
//! byte-compare in `scripts/tier1.sh` rests on it — so a refactor of the
//! lowering must not move one emitted instruction and a codegen change
//! must re-record these literals on purpose.
//!
//! * [`static_code_is_pinned`]: a hash of the host code and declared
//!   exits of every block reachable in the twelve `Test` images, per
//!   translator.
//! * [`dispatch_guest_counts_are_pinned`]: the deterministic counters of
//!   one loop-heavy guest under the three engines and the three region
//!   ablations.

use ldbt_compiler::{link::build_arm_image, Options};
use ldbt_core::experiment::{learn_all, loo_rules};
use ldbt_dbt::backend::lower_block;
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::jit::optimize_block;
use ldbt_dbt::rules::{block_supported, lower_block_with_rules};
use ldbt_dbt::tcg::{decode_block, translate_block, BlockEnd};
use ldbt_dbt::{Config, Engine};
use ldbt_isa::Memory;
use ldbt_learn::cache::sig_hash;
use ldbt_learn::pipeline::learn_from_source;
use ldbt_workloads::{source, Workload, SUITE};
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::Arc;

/// Every block reachable from the entry of each of the twelve `Test`
/// images (the static superset of what the engine translates on demand),
/// lowered by the TCG path, by the JIT's op pipeline and by the rule
/// translator under the program's leave-one-out rule set; each
/// translator's `code` + `exits`, in walk order, rendered with `Debug`
/// and hashed. The tcg and jit hashes were recorded at the commit before
/// the block emitter replaced `backend::Lowerer` and `rules::RuleHomes`;
/// the rules hash when rule applications and TCG stretches started
/// sharing one register and flag state across the whole block.
#[test]
fn static_code_is_pinned() {
    let all = learn_all(&Options::o2(), &Config::DEFAULT).expect("suite compiles");
    let (mut tcg_text, mut jit_text, mut rules_text) =
        (String::new(), String::new(), String::new());
    for b in &SUITE {
        let image = build_arm_image(&source(b, Workload::Test), &Options::o2()).expect("compiles");
        let rules = loo_rules(&all, b.name);
        let mut mem = Memory::new();
        image.load_into(&mut mem);
        let mut seen = BTreeSet::new();
        let mut work = vec![image.entry];
        while let Some(pc) = work.pop() {
            if !seen.insert(pc) {
                continue;
            }
            let block = decode_block(&mem, pc);
            if block.instrs.is_empty() {
                continue;
            }
            let tcg = translate_block(&mem, &block);
            if tcg.unsupported_at == Some(0) {
                // The engine single-steps this instruction in the helper.
                work.push(pc.wrapping_add(4));
                continue;
            }
            match tcg.end {
                BlockEnd::Jump(t) => work.push(t),
                BlockEnd::Branch { taken, not_taken, .. } => work.extend([taken, not_taken]),
                BlockEnd::Indirect(_) | BlockEnd::Halt | BlockEnd::Trap(_) => {}
            }
            if matches!(block.instrs.last(), Some(ldbt_arm::ArmInstr::Bl { .. })) {
                work.push(pc.wrapping_add(4 * block.instrs.len() as u32));
            }
            let plain = lower_block(&tcg);
            writeln!(tcg_text, "{} {pc:#x} {:?} {:?}", b.name, plain.code, plain.exits).unwrap();
            let jit = lower_block(&optimize_block(&tcg));
            writeln!(jit_text, "{} {pc:#x} {:?} {:?}", b.name, jit.code, jit.exits).unwrap();
            if block_supported(&block) {
                let low = lower_block_with_rules(&mem, &block, &rules);
                writeln!(rules_text, "{} {pc:#x} {:?} {:?}", b.name, low.code, low.exits).unwrap();
            }
        }
    }
    let got = [sig_hash(&tcg_text), sig_hash(&jit_text), sig_hash(&rules_text)];
    let want = [0xb9b4_f290_a127_0a2d_u64, 0x1440_2376_d8a4_4a5e, 0x163a_d3ae_ca13_2f93];
    assert_eq!(
        got, want,
        "tcg / jit / rules code hashes: {:#018x} / {:#018x} / {:#018x}",
        got[0], got[1], got[2]
    );
}

/// The loop-heavy guest the dispatch history was recorded on.
const DISPATCH_SRC: &str = "
int a[64];
int main() {
  int s = 0;
  for (int i = 0; i < 64; i += 1) { a[i] = i * 7 + 1; }
  for (int i = 0; i < 3000; i += 1) {
    for (int j = 0; j < 64; j += 1) {
      s = s + a[j];
      s = s ^ (j & 7);
    }
  }
  return s & 0xffff;
}";

/// One run of the dispatch guest per engine and region ablation. All
/// five columns are deterministic, so each row must read exactly the
/// recorded value: a codegen change moves them on purpose and re-records
/// them here, a refactor must not move them at all. (Wall clock for the
/// same shape of guest is `guest_mips` on perfbench's `ref_exec`.)
#[test]
fn dispatch_guest_counts_are_pinned() {
    let image = build_arm_image(DISPATCH_SRC, &Options::o2()).unwrap();
    let rules = Arc::new(
        learn_from_source("dispatch", DISPATCH_SRC, &Options::o2()).expect("learning runs").rules,
    );
    let with_rules = || Engine::new(&image, Translator::Rules(Arc::clone(&rules)));
    // (row, engine, [host_instrs, mem_loads, mem_stores, ra_promoted, fuse_elim])
    let rows: [(&str, Engine, [u64; 5]); 6] = [
        ("tcg", Engine::new(&image, Translator::Tcg), [8_032_563, 916_124, 1_227_688, 0, 95]),
        ("rules", with_rules(), [3_831_645, 394_032, 591_394, 9, 42]),
        ("jit", Engine::new(&image, Translator::Jit), [8_953_028, 996_842, 1_456_209, 22, 25]),
        ("rules_nosb", with_rules().with_superblocks(None), [7_949_900, 1_167_328, 777_329, 0, 0]),
        ("rules_nofuse", with_rules().with_fusion(false), [3_996_037, 396_904, 588_458, 10, 0]),
        ("rules_nora", with_rules().with_region_alloc(false), [4_011_643, 579_967, 777_329, 0, 42]),
    ];
    for (name, mut e, want) in rows {
        assert_eq!(e.run(3_000_000_000), RunOutcome::Halted, "{name}");
        let x = &e.stats.exec;
        let got =
            [x.host_instrs, x.mem_loads, x.mem_stores, e.stats.ra_promoted(), e.stats.fuse_elim()];
        assert_eq!(got, want, "{name}: host_instrs, mem_loads, mem_stores, ra_promoted, fuse_elim");
    }
}
