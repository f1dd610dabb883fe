//! The traced pass: each half of a workload unrolled into the explicit
//! public-function calls of its layers, a span around every call.
//!
//! Learning is compile → extract → prepare → parameterize → signature →
//! memo → verify → insert instead of the `learn_from_source_cached`
//! facade (and must learn the same rules: that is checked). Execution is
//! `Engine::new` / cold `run` / `reset` + warm `run`, and beside it the
//! translation pipeline over every block reachable from the entry point:
//! decode → TCG → rule lowering → JIT optimizer → backend, then the
//! superblock passes over the loops among those blocks. `symexec` and
//! the SAT core sit inside `learn.verify` and get no span of their own
//! until tracing lands inside the program; the closest outside view of
//! `smt` is the three fixed `check_equiv` queries of [`probes`].

use crate::exec::Knobs;
use crate::inputs::{Program, Setup};
use crate::learn::Memo;
use crate::spans::Tracer;
use ldbt_arm::ArmReg;
use ldbt_compiler::{compile_arm, compile_x86, Options};
use ldbt_core::RUN_FUEL;
use ldbt_dbt::backend::lower_block;
use ldbt_dbt::jit::optimize_block;
use ldbt_dbt::rules::{block_supported, lower_block_with_rules};
use ldbt_dbt::sb::{
    allocate_region, fuse_region, optimize_region, optimize_region_pinned, specialize_part,
    strip_seam_exits, SbPart, SeamState, SB_MAX_PARTS,
};
use ldbt_dbt::tcg::{decode_block, translate_block, BlockEnd, GuestBlock};
use ldbt_dbt::{Engine, RuleCell, RunOutcome, Translator};
use ldbt_isa::{CostModel, ExecStats, Memory, Width};
use ldbt_learn::cache::{pair_signature, sig_hash};
use ldbt_learn::extract::extract_with_stats;
use ldbt_learn::param::{initial_mappings_limit, MAX_MAPPING_TRIES};
use ldbt_learn::prepare::prepare;
use ldbt_learn::verify::{verify_in_budgeted, VerifyFail};
use ldbt_learn::{Budget, RuleSet, VerifyCache, VerifyOutcome};
use ldbt_smt::{check_equiv, term::TermPool};
use ldbt_x86::interp::run_seq;
use ldbt_x86::{Gpr, X86Instr, X86State};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Counts taken at the learn-layer boundaries of the traced pass.
#[derive(Debug, Clone, Default)]
pub struct LearnCounts {
    pub ops: u64,
    pub failed: u64,
    pub pairs: u64,
    pub prepared: u64,
    pub mappings: u64,
    pub queries: u64,
    pub proved: u64,
}

/// The learning half, unrolled. The root span is `learn.pass`.
pub fn traced_learn(tr: &mut Tracer, setup: &Setup, memo: Memo) -> LearnCounts {
    let mut n = LearnCounts::default();
    let options = Options::o2();
    let budget = Budget::default();
    let mut learned: Vec<Option<RuleSet>> = Vec::with_capacity(setup.corpus.len());
    let mut reencoded = None;
    tr.span("learn.pass", |tr| {
        let mut cache = VerifyCache::new();
        if memo == Memo::Warm {
            if let Ok(db) =
                tr.span("learn.db_decode", |_| ldbt_learn::db::from_bytes(&setup.db_bytes))
            {
                cache = db.cache;
            }
        }
        let mut pool = TermPool::new();
        let mut merged = RuleSet::new();
        for (i, l) in setup.corpus.iter().enumerate() {
            tr.set_item(i);
            let rules = tr.span("learn.program", |tr| {
                let guest = tr.span("compiler.arm", |_| compile_arm(&l.source, &options)).ok()?;
                let host = tr.span("compiler.x86", |_| compile_x86(&l.source, &options)).ok()?;
                let (pairs, dropped) =
                    tr.span("learn.extract", |_| extract_with_stats(&guest, &host));
                n.pairs += (pairs.len() + dropped) as u64;
                let mut rules = RuleSet::new();
                for pair in &pairs {
                    if tr.span("learn.prepare", |_| prepare(pair)).is_err() {
                        continue;
                    }
                    n.prepared += 1;
                    let mappings =
                        tr.span("learn.param", |_| initial_mappings_limit(pair, MAX_MAPPING_TRIES));
                    let Some(mappings) = mappings.ok().filter(|m| !m.is_empty()) else { continue };
                    n.mappings += mappings.len() as u64;
                    let sig = tr.span("learn.sig", |_| {
                        let sig = pair_signature(pair, MAX_MAPPING_TRIES);
                        black_box(sig_hash(&sig));
                        sig
                    });
                    let outcome = match tr.span("learn.memo", |_| cache.get(&sig).cloned()) {
                        Some(outcome) => outcome,
                        None => {
                            // First verifying mapping wins; otherwise the
                            // last failure stands (the facade's loop).
                            let mut outcome =
                                VerifyOutcome::Failed(VerifyFail::Other("no mapping"));
                            for m in &mappings {
                                n.queries += 1;
                                let verdict = tr.span("learn.verify", |_| {
                                    pool.reset();
                                    verify_in_budgeted(&mut pool, pair, m, &budget)
                                });
                                match verdict {
                                    Ok(rule) => {
                                        n.proved += 1;
                                        outcome = VerifyOutcome::Learned(rule);
                                        break;
                                    }
                                    Err(f) => outcome = VerifyOutcome::Failed(f),
                                }
                            }
                            tr.span("learn.memo", |_| cache.insert(sig, outcome.clone()));
                            outcome
                        }
                    };
                    if let VerifyOutcome::Learned(rule) = outcome {
                        tr.span("learn.insert", |_| rules.insert(rule));
                    }
                }
                if memo == Memo::Warm {
                    tr.span("learn.merge", |_| merged.merge(&rules));
                }
                Some(rules)
            });
            learned.push(rules);
        }
        if memo == Memo::Warm {
            reencoded =
                Some(tr.span("learn.db_encode", |_| ldbt_learn::db::to_bytes(&merged, &cache)));
        }
    });
    for (l, rules) in setup.corpus.iter().zip(&learned) {
        n.ops += 1;
        if rules.as_ref().map(RuleSet::canonical_dump).as_deref() != Some(l.dump.as_str()) {
            n.failed += 1;
            eprintln!("perfbench: FAILED traced learn {}: rules differ from the facade's", l.name);
        }
    }
    if let Some(bytes) = reencoded {
        n.ops += 1;
        if bytes != setup.db_bytes {
            n.failed += 1;
            eprintln!("perfbench: FAILED traced learn: re-encoded database differs");
        }
    }
    n
}

/// Counts taken at the translation-layer boundaries of the traced pass.
#[derive(Debug, Clone, Default)]
pub struct ExecCounts {
    pub ops: u64,
    pub failed: u64,
    pub programs: u64,
    /// Host instructions the warm runs retired.
    pub warm_host_instrs: u64,
    pub blocks: u64,
    pub guest_static: u64,
    pub tcg_ops: u64,
    pub rule_hits: u64,
    pub rule_lookups: u64,
    pub host_static: u64,
    pub regions: u64,
    /// Host instructions per second of `run_seq` alone over the hottest
    /// block of `mcf`, the engine bypassed.
    pub interp_host_mips: f64,
    /// Every decoded block of the first program, for the lookup probe.
    pub sample_blocks: Vec<GuestBlock>,
}

/// The pool the backend allocates from and the region allocator pins
/// into (`backend::POOL`, which is crate-private).
const POOL: [Gpr; 6] = [Gpr::Ecx, Gpr::Edx, Gpr::Ebx, Gpr::Esi, Gpr::Edi, Gpr::Ebp];

struct Lowered {
    pc: u32,
    code: Vec<X86Instr>,
    exits: Vec<(usize, u32)>,
}

/// Translate every block reachable from the entry point through each
/// translator's public functions — the static superset of what the
/// engine translates on demand.
fn walk_blocks(tr: &mut Tracer, p: &Program, rules: &RuleSet, n: &mut ExecCounts) -> Vec<Lowered> {
    let mut mem = Memory::new();
    p.image.load_into(&mut mem);
    let mut seen = BTreeMap::new();
    let mut work = vec![p.image.entry];
    let mut lowered = Vec::new();
    while let Some(pc) = work.pop() {
        if seen.contains_key(&pc) {
            continue;
        }
        let block = tr.span("dbt.tcg.decode", |_| decode_block(&mem, pc));
        seen.insert(pc, block.instrs.len());
        if block.instrs.is_empty() {
            continue;
        }
        let tcg = tr.span("dbt.tcg.translate", |_| translate_block(&mem, &block));
        let end = pc.wrapping_add(4 * block.instrs.len() as u32);
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
            work.push(end);
        }
        n.blocks += 1;
        n.guest_static += block.instrs.len() as u64;
        n.tcg_ops += tcg.ops.len() as u64;
        black_box(tr.span("dbt.jit.optimize", |_| optimize_block(&tcg)));
        let plain = tr.span("dbt.backend.lower", |_| lower_block(&tcg));
        n.host_static += plain.code.len() as u64;
        lowered.push(if block_supported(&block) {
            let low = tr.span("dbt.rules.lower", |_| lower_block_with_rules(&mem, &block, rules));
            n.rule_hits += low.hits.len() as u64;
            n.rule_lookups += low.lookups as u64;
            Lowered { pc, code: low.code, exits: low.exits }
        } else {
            Lowered { pc, code: plain.code, exits: plain.exits }
        });
        if n.programs == 0 {
            n.sample_blocks.push(block);
        }
    }
    lowered
}

/// Form a region over every loop among `blocks` the way the engine does
/// at run time (chain the exits, follow successors from a loop head
/// until the path closes) and run the superblock passes over it.
fn region_passes(tr: &mut Tracer, blocks: &mut [Lowered], n: &mut ExecCounts) {
    let id_of: HashMap<u32, u32> =
        blocks.iter().enumerate().map(|(i, b)| (b.pc, i as u32)).collect();
    let mut heads = Vec::new();
    for b in blocks.iter_mut() {
        for &(ret, target) in &b.exits {
            if let Some(&id) = id_of.get(&target) {
                b.code[ret] = X86Instr::ChainJmp { block: id };
                if target <= b.pc {
                    heads.push(id);
                }
            }
        }
    }
    heads.sort_unstable();
    heads.dedup();
    let successors = |id: u32| -> Vec<u32> {
        blocks[id as usize].exits.iter().filter_map(|(_, t)| id_of.get(t).copied()).collect()
    };
    for head in heads {
        let mut path = vec![head];
        while path.len() < SB_MAX_PARTS {
            let next = successors(*path.last().expect("path starts at the head"));
            let Some(&step) = next
                .iter()
                .find(|s| **s == head)
                .or_else(|| next.iter().find(|s| !path.contains(s)))
            else {
                break;
            };
            path.push(step);
            if step == head {
                break;
            }
        }
        if path.last() == Some(&head) && path.len() > 2 {
            // The closing step is the resident backedge, not a part.
            path.pop();
        }
        if path.len() < 2 {
            continue;
        }
        n.regions += 1;
        tr.span("dbt.sb.passes", |_| {
            let mut seam = SeamState::entry();
            let mut parts = Vec::with_capacity(path.len());
            let mut pcs = Vec::with_capacity(path.len());
            for &id in &path {
                let b = &blocks[id as usize];
                let (code, exit) = specialize_part(&b.code, &seam);
                seam = exit;
                parts.push(SbPart { id, code: Rc::new(code), fallthrough_seam: false });
                pcs.push(b.pc);
            }
            strip_seam_exits(&mut parts, &pcs);
            optimize_region(&mut parts);
            let fused = fuse_region(&mut parts);
            let pinned = allocate_region(&mut parts, &POOL);
            if fused > 0 || !pinned.is_empty() {
                optimize_region_pinned(&mut parts, &pinned);
            }
            black_box(parts);
        });
    }
}

/// `run_seq` over one lowered block, nothing else: host Minstr/s.
fn interp_speed(p: &Program, rules: &RuleSet, pc: u32) -> f64 {
    let mut state = X86State::new();
    p.image.load_into(&mut state.mem);
    state.set_reg(Gpr::Esp, ldbt_dbt::env::HOST_STACK_TOP);
    let block = decode_block(&state.mem, pc);
    let code = if block_supported(&block) {
        lower_block_with_rules(&state.mem, &block, rules).code
    } else {
        lower_block(&translate_block(&state.mem, &block)).code
    };
    let (model, mut stats) = (CostModel::default(), ExecStats::new());
    let t = Instant::now();
    for _ in 0..20_000 {
        black_box(run_seq(&mut state, &code, 10_000, &model, &mut stats));
    }
    stats.host_instrs as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The execution half, unrolled: per program an `exec.program` root
/// span with engine construction, the cold run, the warm run, and the
/// translation pipeline walked from outside.
pub fn traced_exec(tr: &mut Tracer, setup: &Setup, knobs: &Knobs) -> ExecCounts {
    let mut n = ExecCounts::default();
    for (i, (p, rules)) in setup.programs.iter().zip(&setup.rules_for).enumerate() {
        tr.set_item(i);
        let mut hottest = None;
        tr.span("exec.program", |tr| {
            let mut e = tr.span("dbt.engine.new", |_| {
                knobs.apply(Engine::new(&p.image, Translator::Rules(Arc::clone(rules))))
            });
            let cold = tr.span("dbt.engine.cold", |_| e.run(RUN_FUEL));
            let cold_host = e.stats.exec.host_instrs;
            hottest = e.profile().hot_blocks.first().map(|b| b.pc);
            let warm = tr.span("dbt.engine.warm", |_| {
                e.reset();
                e.run(RUN_FUEL)
            });
            n.warm_host_instrs += e.stats.exec.host_instrs - cold_host;
            // The warm run re-enters `main` over the first run's memory;
            // the guest re-initialises what it reads, so the result and
            // the (doubled) instruction count must both repeat.
            n.ops += 1;
            let got = (
                cold,
                warm,
                e.guest_reg(ArmReg::R0),
                e.guest_mem(p.checksum_addr),
                e.stats.guest_dyn(),
            );
            let want = (
                RunOutcome::Halted,
                RunOutcome::Halted,
                p.want.r0,
                p.want.checksum,
                2 * p.want.steps,
            );
            if got != want {
                n.failed += 1;
                eprintln!("perfbench: FAILED traced {}: {got:x?}, want {want:x?}", p.name);
            }
            tr.span("dbt.xlate", |tr| {
                let mut blocks = walk_blocks(tr, p, rules, &mut n);
                region_passes(tr, &mut blocks, &mut n);
            });
        });
        n.programs += 1;
        if let (true, Some(pc)) = (p.name == "mcf", hottest) {
            n.interp_host_mips = interp_speed(p, rules, pc);
        }
    }
    n
}

/// Fixed micro-measurements of the layers no workload isolates. Each is
/// a mean over a fixed count; none depends on the workload.
pub struct Probes {
    pub smt_equiv_us: f64,
    pub mem_load_ns: f64,
    pub mem_store_ns: f64,
    pub mem_marked_store_ns: f64,
    pub share_load_ns: f64,
    pub rule_lookup_ns: f64,
    pub rule_merge_ms: f64,
    pub db_decode_ms: f64,
    pub db_encode_ms: f64,
    pub kernel_run_us: f64,
    pub smc_us_per_invalidation: f64,
}

/// Seconds `f` takes.
fn time_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Mean seconds per call of `f` over `reps` calls.
fn mean_s(reps: usize, mut f: impl FnMut()) -> f64 {
    time_s(|| (0..reps).for_each(|_| f())) / reps as f64
}

/// The three queries of `benches/smt.rs`: one settled syntactically,
/// one proved by SAT, one refuted.
fn smt_queries() {
    let mut p = TermPool::new();
    let (x, y, imm) = (p.var("x", 32), p.var("y", 32), p.var("imm", 32));
    let s = p.add(x, y);
    let guest = p.sub(s, imm);
    let ni = p.neg(imm);
    let s2 = p.add(y, x);
    let host = p.add(s2, ni);
    black_box(check_equiv(&mut p, guest, host).is_proved());
    let mut p = TermPool::new();
    let x = p.var("x", 16);
    let three = p.constant(3, 16);
    let lhs = p.mul(x, three);
    let one = p.constant(1, 16);
    let sh = p.shl(x, one);
    let rhs = p.add(sh, x);
    black_box(check_equiv(&mut p, lhs, rhs).is_proved());
    let mut p = TermPool::new();
    let x = p.var("x", 32);
    let one = p.constant(1, 32);
    let y = p.add(x, one);
    black_box(check_equiv(&mut p, x, y).is_proved());
}

pub fn probes(setup: &Setup, sample_blocks: &[GuestBlock]) -> Probes {
    const MEM_OPS: u32 = 1 << 20;
    let mut mem = Memory::new();
    let addr = |i: u32| 0x10_0000 + ((i * 4) & 0xffff);
    let mem_store_ns = time_s(|| {
        for i in 0..MEM_OPS {
            mem.write(addr(i), i, Width::W32);
        }
    }) * 1e9
        / f64::from(MEM_OPS);
    let mem_load_ns = time_s(|| {
        let mut sum = 0u32;
        for i in 0..MEM_OPS {
            sum = sum.wrapping_add(mem.read(addr(i), Width::W32));
        }
        black_box(sum);
    }) * 1e9
        / f64::from(MEM_OPS);
    mem.mark_code(0x10_0000, 0x1_0000);
    let mem_marked_store_ns = time_s(|| {
        for i in 0..MEM_OPS {
            mem.write(addr(i), i, Width::W32);
            if i % 1024 == 1023 {
                black_box(mem.take_code_writes());
            }
        }
    }) * 1e9
        / f64::from(MEM_OPS);

    let cell = RuleCell::from_arc(Arc::clone(&setup.full));
    let share_load_ns = mean_s(1 << 20, || {
        black_box(cell.load());
    }) * 1e9;

    let mut lookups = 0u64;
    let lookup_s = time_s(|| {
        while lookups < 200_000 && !sample_blocks.is_empty() {
            for b in sample_blocks {
                for start in 0..b.instrs.len() {
                    for len in 1..=4.min(b.instrs.len() - start) {
                        black_box(setup.full.lookup(&b.instrs[start..start + len]));
                        lookups += 1;
                    }
                }
            }
        }
    });

    let db = ldbt_learn::db::from_bytes(&setup.db_bytes);
    let db_decode_ms = mean_s(10, || {
        black_box(ldbt_learn::db::from_bytes(&setup.db_bytes).is_ok());
    }) * 1e3;
    let db_encode_ms = db.map_or(0.0, |db| {
        mean_s(10, || {
            black_box(ldbt_learn::db::to_bytes(&db.rules, &db.cache));
        }) * 1e3
    });

    // A leave-one-out composition: every program's rules but the first.
    let rule_merge_ms = mean_s(5, || {
        let mut rules = RuleSet::new();
        for l in &setup.corpus[1..] {
            rules.merge(&l.rules);
        }
        black_box(rules);
    }) * 1e3;

    let kernel_run_us = mean_s(50, || {
        black_box(ldbt_core::kernel::run_mini_kernel_dbt(
            Translator::Rules(Arc::clone(&setup.full)),
            |e| Knobs::DEFAULT.apply(e),
        ));
    }) * 1e6;

    let smc = ldbt_workloads::asm::smc_image();
    let mut invalidations = 0;
    let smc_s = mean_s(20, || {
        let mut e =
            Knobs::DEFAULT.apply(Engine::new(&smc, Translator::Rules(Arc::clone(&setup.full))));
        black_box(e.run(RUN_FUEL));
        invalidations = e.stats.smc_invalidations();
    });

    Probes {
        smt_equiv_us: mean_s(200, smt_queries) * 1e6 / 3.0,
        mem_load_ns,
        mem_store_ns,
        mem_marked_store_ns,
        share_load_ns,
        rule_lookup_ns: if lookups == 0 { 0.0 } else { lookup_s * 1e9 / lookups as f64 },
        rule_merge_ms,
        db_decode_ms,
        db_encode_ms,
        kernel_run_us,
        smc_us_per_invalidation: if invalidations == 0 {
            0.0
        } else {
            smc_s * 1e6 / invalidations as f64
        },
    }
}
