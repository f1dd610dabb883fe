//! Parallel learning must be byte-identical to sequential learning.
//!
//! The pipeline's contract (ISSUE: "parallel and sequential runs
//! byte-identical"): for every suite program, learning with 4 worker
//! threads produces exactly the rules and Table-1 counters the
//! pure-sequential path produces — contents *and* rule-store iteration
//! order. Only the wall-clock durations may differ, so those are
//! excluded from the comparison via `LearnStats::counters`.
//!
//! The suite's learned rules and memo also pin the rule store and the
//! rule database: the store is a function of its contents, and every
//! learned rule and memo outcome survives the database exactly, while no
//! truncated or mutated database can panic its decoder. They also drive
//! the configuration matrix ([`matrix`]): every cell of the knobs that
//! change what a run computes, checked in-process. The four toggle tests
//! below run each engine toggle on and off over the matrix's hot-loop
//! cells, which learn their loop once.

use ldbt_arm::ArmReg;
use ldbt_compiler::{link::build_arm_image, Options};
use ldbt_core::experiment::ProgramRules;
use ldbt_dbt::{Config, Engine};
use ldbt_learn::cache::{VerifyCache, VerifyOutcome};
use ldbt_learn::db::{from_bytes, to_bytes};
use ldbt_learn::pipeline::{learn_from_source_cached, LearnConfig};
use ldbt_learn::{Rule, RuleSet};
use ldbt_workloads::{source, Workload, SUITE};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[path = "determinism/matrix.rs"]
mod matrix;

#[test]
fn parallel_learning_matches_sequential_on_the_suite() {
    let seq_cfg = LearnConfig { threads: 1, ..LearnConfig::default() };
    let par_cfg = LearnConfig { threads: 4, ..LearnConfig::default() };
    // Each side shares one memo cache across programs, like `learn_all`,
    // so cross-program cache hits are part of the compared behavior.
    let mut seq_cache = VerifyCache::new();
    let mut par_cache = VerifyCache::new();
    for b in &SUITE {
        let src = source(b, Workload::Ref);
        let s = learn_from_source_cached(b.name, &src, &Options::o2(), &seq_cfg, &mut seq_cache)
            .unwrap();
        let p = learn_from_source_cached(b.name, &src, &Options::o2(), &par_cfg, &mut par_cache)
            .unwrap();
        assert_eq!(
            s.stats.counters(),
            p.stats.counters(),
            "{}: Table-1 counters diverge between sequential and parallel",
            b.name
        );
        let order = |r: &RuleSet| -> Vec<String> { r.iter().map(Rule::canonical_text).collect() };
        assert_eq!(
            order(&s.rules),
            order(&p.rules),
            "{}: rule contents or iteration order diverge",
            b.name
        );
    }
    assert_eq!(seq_cache.len(), par_cache.len(), "memo caches diverge");
}

/// Panic isolation is invisible when nothing panics: with no fault
/// injected, learning is byte-identical with and without `isolate`, and
/// across thread counts — counters and the canonical rule dump both.
#[test]
fn isolation_and_thread_count_do_not_change_learning() {
    let programs = ["mcf", "libquantum"];
    let reference = {
        let cfg = LearnConfig { threads: 1, isolate: false, fault: None, ..LearnConfig::default() };
        learn_programs(&programs, &cfg)
    };
    for threads in [1, 2, 4] {
        for isolate in [false, true] {
            let cfg = LearnConfig { threads, isolate, fault: None, ..LearnConfig::default() };
            let got = learn_programs(&programs, &cfg);
            assert_eq!(reference, got, "learning diverged at threads={threads} isolate={isolate}");
        }
    }
}

/// Block chaining is an invisible optimization: for every hot-loop cell
/// ([`matrix::each_hot_loop_cell`]), a chained run (`LDBT_NOCHAIN` unset)
/// and an unchained run (`LDBT_NOCHAIN=1`) produce identical guest
/// registers, guest memory, and dynamic-instruction counts.
#[test]
fn chained_execution_is_bit_identical_to_unchained() {
    matrix::each_hot_loop_cell(|name, cell, run| {
        let ctx = format!("{name} wd={:?}", cell.watchdog);
        // Superblocks pinned off: this compares host_instrs chained vs
        // unchained, which regions deliberately shrink.
        let chained = run(Config { superblocks: None, ..cell.clone() });
        let plain = run(Config { chaining: false, superblocks: None, ..cell.clone() });
        assert_eq!(plain.stats.chained_execs(), 0, "{ctx}: unchained run must not chain");
        matrix::same_guest(&chained, &plain, &ctx);
        let work =
            |e: &Engine| (e.stats.guest_dyn(), e.stats.block_execs(), e.stats.exec.host_instrs);
        assert_eq!(work(&chained), work(&plain), "{ctx}: guest_dyn, block_execs, host_instrs");
    });
}

/// Superblock formation is an invisible optimization: for every
/// hot-loop cell, a run with regions enabled (low threshold so they
/// actually form) and a run with them disabled (`LDBT_NOSB=1`) produce
/// identical guest registers, guest memory, rule attribution and — the
/// `sb_*` counters and the host work regions exist to shrink aside — an
/// identical `DbtStats` registry, including identical modeled
/// translation cycles (forming a region never re-translates).
#[test]
fn superblock_execution_is_bit_identical_to_plain() {
    // The region counters and the host work regions exist to shrink —
    // dynamic memory accesses and the pass counters included — are the
    // only accounting a region may move.
    let exempt = [
        "sb_formed",
        "sb_execs",
        "sb_invalidated",
        "host_instrs",
        "exec_cycles",
        "mem_loads",
        "mem_stores",
        "ra_promoted",
        "fuse_elim",
    ];
    matrix::each_hot_loop_cell(|name, cell, run| {
        let ctx = format!("{name} wd={:?}", cell.watchdog);
        let on = run(Config { superblocks: Some(8), ..cell.clone() });
        let off = run(Config { superblocks: None, ..cell.clone() });
        assert!(on.stats.sb_formed() > 0, "{ctx}: hot chains must form regions");
        assert!(on.stats.sb_execs() > 0, "{ctx}: regions must actually run");
        assert_eq!(off.stats.sb_formed(), 0, "{ctx}: disabled side must not form");
        matrix::same_guest(&on, &off, &ctx);
        let accounting = |e: &Engine| -> Vec<(&'static str, u64)> {
            e.stats.registry().into_iter().filter(|(n, _)| !exempt.contains(n)).collect()
        };
        assert_eq!(accounting(&on), accounting(&off), "{ctx}: accounting diverges");
        assert!(on.stats.exec.host_instrs <= off.stats.exec.host_instrs, "{ctx}: sb host work");
        assert_eq!(on.stats.hit_rules, off.stats.hit_rules, "{ctx}: hit-rule attribution");
    });
}

/// Region register allocation and guest memory access fusion are pure
/// optimizations: for every hot-loop cell, every point of the
/// {RA on/off} × {fusion on/off} matrix produces bit-identical guest
/// registers and guest memory. Both passes only shrink the host work —
/// they never change what the guest computes.
#[test]
fn region_alloc_and_fusion_are_bit_identical_on_off() {
    matrix::each_hot_loop_cell(|name, cell, run| {
        let passes = |region_alloc, fusion| {
            run(Config { superblocks: Some(8), region_alloc, fusion, ..cell.clone() })
        };
        let base = passes(false, false);
        let ctx = format!("{name} wd={:?}", cell.watchdog);
        assert_eq!(base.stats.ra_promoted(), 0, "{ctx}: RA must not run when disabled");
        assert_eq!(base.stats.fuse_elim(), 0, "{ctx}: fusion must not run when disabled");
        for (ra, fuse) in [(true, false), (false, true), (true, true)] {
            let on = passes(ra, fuse);
            let ctx = format!("{ctx} ra={ra} fuse={fuse}");
            matrix::same_guest(&on, &base, &ctx);
            assert!(on.stats.exec.host_instrs <= base.stats.exec.host_instrs, "{ctx}: host work");
            if fuse && name == "rules" {
                assert!(on.stats.fuse_elim() > 0, "{ctx}: fusion must fire on a hot loop");
            }
        }
    });
}

/// Counterexample-guided repair is invisible on clean runs: with no
/// fault injected, a rules-engine run with `LDBT_REPAIR` on and off
/// produces bit-identical guest registers, guest memory, and an
/// identical `DbtStats` registry — the repair machinery must never
/// engage (no attempts, no quarantines) when the watchdog sees no
/// divergence, whatever the check period.
#[test]
fn repair_toggle_is_bit_identical_on_clean_runs() {
    let mut cells = 0;
    matrix::each_hot_loop_cell(|name, cell, run| {
        if name != "rules" {
            return;
        }
        cells += 1;
        let ctx = format!("wd={:?}", cell.watchdog);
        let on = run(cell.clone());
        let off = run(Config { repair: false, ..cell.clone() });
        matrix::same_guest(&on, &off, &ctx);
        assert_eq!(on.stats.registry(), off.stats.registry(), "{ctx}: accounting diverges");
        assert_eq!(on.stats.quarantined_rules(), 0, "{ctx}: clean run must not quarantine");
        assert_eq!(on.stats.wd_repair_attempts(), 0, "{ctx}: clean run must not attempt repair");
    });
    assert_eq!(cells, 3, "one rules cell per watchdog period");
}

/// Per-rule attribution and rendered run reports are deterministic:
/// `hit_rules` and the execution profile sort by stable rule key, so two
/// identical runs must agree on contents, order, and the exact report
/// bytes (`hit_rules` was previously a `HashMap`, whose iteration order
/// leaked into Figure 12 and the reports).
#[test]
fn rule_attribution_and_run_report_are_deterministic() {
    let run = || {
        let (o2, d) = (Options::o2(), &Config::DEFAULT);
        let (rules, stats) = ldbt_core::learn_suite(&o2, Some("mcf"), d).unwrap();
        let rules_engine = ldbt_core::EngineKind::Rules;
        let r = ldbt_core::run_benchmark("mcf", Workload::Test, rules_engine, &o2, Some(&rules), d);
        (r, stats)
    };
    let (a, stats_a) = run();
    let (b, stats_b) = run();
    // hit_rules: identical contents in identical iteration order.
    let dump =
        |r: &ldbt_dbt::DbtStats| r.hit_rules.iter().map(|(k, l)| (*k, *l)).collect::<Vec<_>>();
    assert!(!a.stats.hit_rules.is_empty(), "rules engine records rule hits");
    assert_eq!(dump(&a.stats), dump(&b.stats));
    // The profile is sorted by stable key (strictly increasing = unique).
    assert!(a.profile.rules.windows(2).all(|w| w[0].key < w[1].key), "profile not sorted");
    assert_eq!(a.profile.rules.len(), a.stats.hit_rules.len(), "profile covers every hit rule");
    // Rendered report sections are byte-identical. (The full report's
    // `learn_workers` section snapshots a process-global registry that
    // concurrent tests also bump, so compare the pure per-run sections.)
    assert_eq!(
        ldbt_core::report::bench_report(&a).render(),
        ldbt_core::report::bench_report(&b).render(),
        "bench report bytes diverge between identical runs"
    );
    let dump_learn = |ss: &[ldbt_learn::LearnStats]| -> Vec<String> {
        ss.iter().map(|s| ldbt_core::report::learn_report(s).render()).collect()
    };
    assert_eq!(dump_learn(&stats_a), dump_learn(&stats_b));
    // And the assembled report passes its schema self-check.
    let full = ldbt_core::report::run_report(&[a], &stats_a).render();
    ldbt_obs::selfcheck::check_run_report(&full).unwrap();
}

/// The twelve per-program suite rule sets and the verification memo they
/// share, learned once per test binary as `experiment::learn_all` learns
/// them (which keeps the memo to itself).
fn suite() -> &'static (Vec<ProgramRules>, VerifyCache) {
    static SUITE_RULES: std::sync::OnceLock<(Vec<ProgramRules>, VerifyCache)> =
        std::sync::OnceLock::new();
    SUITE_RULES.get_or_init(|| {
        let (config, mut cache) = (LearnConfig::default(), VerifyCache::new());
        let sets = SUITE
            .iter()
            .map(|b| {
                let src = source(b, Workload::Ref);
                let report =
                    learn_from_source_cached(b.name, &src, &Options::o2(), &config, &mut cache)
                        .unwrap();
                ProgramRules { name: b.name.to_string(), rules: report.rules, stats: report.stats }
            })
            .collect();
        (sets, cache)
    })
}

fn suite_sets() -> &'static [ProgramRules] {
    &suite().0
}

/// The twelve suite sets merged into one store.
fn suite_merged() -> RuleSet {
    let mut all = RuleSet::new();
    suite_sets().iter().for_each(|p| all.merge(&p.rules));
    all
}

/// A rule's identity texts, spelled out the slow way — render each
/// instruction, then `str::replace` one register name after another —
/// as the reference for the single-pass renderer in `learn::rule`. The
/// texts order the store and hash into the persisted stable keys, so they
/// must not drift.
fn reference_texts(rule: &Rule) -> (String, String) {
    use std::collections::HashMap;
    fn regs<R: PartialEq>(mut uses: Vec<R>, def: Option<R>) -> Vec<R> {
        uses.extend(def);
        uses.dedup();
        uses
    }
    let mut names: HashMap<ArmReg, usize> = HashMap::new();
    let mut dedup = String::new();
    for g in &rule.guest {
        let mut text = g.to_string();
        let mut rs = regs(g.uses(), g.def());
        rs.sort_by_key(|r| std::cmp::Reverse(r.to_string().len()));
        for r in rs {
            let n = names.len();
            let id = *names.entry(r).or_insert(n);
            text = text.replace(&r.to_string(), &format!("reg{id}"));
        }
        dedup += &(text + ";");
    }
    dedup.push('|');
    for (p, param) in rule.imm_params.iter().enumerate() {
        dedup += &format!("imm{p}@{:?};", param.guest_site);
    }
    let mut names: HashMap<ArmReg, usize> = HashMap::new();
    let guest_regs = rule.guest.iter().flat_map(|g| regs(g.uses(), g.def()));
    let host_regs = rule.host.iter().flat_map(|h| regs(h.uses(), h.def()));
    for r in guest_regs.chain(host_regs.filter_map(|h| rule.host_reg_of.get(&h).copied())) {
        let n = names.len();
        names.entry(r).or_insert(n);
    }
    let mut canon = dedup.clone() + "|";
    for h in &rule.host {
        let mut text = h.to_string();
        for r in regs(h.uses(), h.def()) {
            let sub = match rule.host_reg_of.get(&r).and_then(|g| names.get(g)) {
                Some(id) => format!("hreg{id}"),
                None => "hreg?".to_string(),
            };
            text = text.replace(&r.to_string(), &sub);
        }
        canon += &(text + ";");
    }
    canon.push('|');
    for p in &rule.imm_params {
        canon += &format!("{:?};", p.host_sites);
    }
    canon += &format!("|f{:x}b{}", rule.unemulated_flags, u8::from(rule.has_branch));
    (dedup, canon)
}

#[test]
fn identity_texts_match_the_replace_based_reference_on_every_suite_rule() {
    let mut seen = 0;
    for r in suite_sets().iter().flat_map(|p| p.rules.iter()) {
        assert_eq!((r.dedup_key(), r.canonical_text()), reference_texts(r), "{r}");
        seen += 1;
    }
    assert!(seen > 200, "only {seen} rules compared");
}

/// The rule store is a function of its contents: the twelve per-program
/// sets composed rule by rule (`insert`) or set by set (`merge`), forward,
/// reversed or shuffled, iterate in the same order, serialize to the same
/// database bytes and carry the same tombstones.
#[test]
fn rule_store_is_canonical_for_any_construction_order() {
    let sets = suite_sets();
    let forward: Vec<usize> = (0..sets.len()).collect();
    let mut shuffled = forward.clone();
    let mut rng = StdRng::seed_from_u64(22);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();
    assert_ne!(shuffled, forward);
    // One rule is quarantined in the set that is composed first, so the
    // tombstone travels a different way in every order.
    let victim = sets[0].rules.iter().next().unwrap().stable_key();
    let build = |order: &[usize], by_insert: bool| {
        let mut all = RuleSet::new();
        for (nth, &k) in order.iter().enumerate() {
            let mut part = sets[k].rules.clone();
            if nth == 0 {
                part.tombstone(victim);
            }
            if by_insert {
                part.iter().for_each(|r| _ = all.insert(r.clone()));
                part.tombstoned_keys().into_iter().for_each(|t| _ = all.tombstone(t));
            } else {
                all.merge(&part);
            }
        }
        let order: Vec<Rule> = all.iter().cloned().collect();
        let bytes = to_bytes(&all, &VerifyCache::new());
        (order, bytes, all.tombstoned_keys())
    };
    let reference = build(&forward, false);
    assert!(reference.0.len() > 50, "the suite learns a real rule set");
    assert_eq!(reference.2, vec![victim]);
    for order in [&forward, &reverse, &shuffled] {
        for by_insert in [false, true] {
            let got = build(order, by_insert);
            assert!(got == reference, "order {order:?} by_insert={by_insert} diverges");
        }
    }
}

/// Every rule the suite learns — each program's set, their merge — and
/// every memo outcome survives the rule database as an equal rule or
/// outcome and re-encodes to the same bytes; and each of their guest and
/// host instructions round-trips through its ISA codec on its own, the
/// per-instruction encoding the database stores.
#[test]
fn every_suite_rule_and_memo_outcome_survives_the_rule_database() {
    let (sets, memo) = suite();
    let merged = suite_merged();
    let none = VerifyCache::new();
    let dbs = sets.iter().map(|p| (&p.rules, &none)).chain([(&merged, memo)]);
    for (rules, cache) in dbs {
        let bytes = to_bytes(rules, cache);
        let db = from_bytes(&bytes).expect("a learned database loads");
        assert!(db.rules.iter().eq(rules.iter()), "rules or their order changed");
        assert_eq!(db.rules.tombstoned_keys(), rules.tombstoned_keys());
        assert_eq!(db.cache.len(), cache.len(), "memo entries lost");
        for (sig, outcome) in cache.iter() {
            match (outcome, db.cache.get(sig).expect("memo entry survives")) {
                (VerifyOutcome::Learned(a), VerifyOutcome::Learned(b)) => assert_eq!(a, b),
                (VerifyOutcome::Failed(a), VerifyOutcome::Failed(b)) => assert_eq!(a, b),
                _ => panic!("memo outcome kind changed for {sig:?}"),
            }
        }
        assert!(to_bytes(&db.rules, &db.cache) == bytes, "re-encoding changed the bytes");
    }
    let memo_rules = memo.iter().filter_map(|(_, o)| match o {
        VerifyOutcome::Learned(r) => Some(r),
        VerifyOutcome::Failed(_) => None,
    });
    let mut instrs = 0;
    for r in sets.iter().flat_map(|p| p.rules.iter()).chain(memo_rules) {
        for g in &r.guest {
            let word = ldbt_arm::encode::encode(g).expect("learned guest encodes");
            assert_eq!(ldbt_arm::encode::decode(word), Ok(*g));
        }
        for h in &r.host {
            let bytes = ldbt_x86::encode::encode(h).expect("learned host encodes");
            assert_eq!(ldbt_x86::encode::decode(&bytes), Ok((*h, bytes.len())));
        }
        instrs += r.guest.len() + r.host.len();
    }
    assert!(instrs > 1000, "only {instrs} instructions round-tripped");
}

/// Re-seal a rule database file around an edited payload: rewrite the
/// header's payload length and checksum (FNV-1a over the payload, as
/// `cache::sig_hash` hashes a string's bytes), so the decoder proper
/// runs on the edit instead of the checksum refusing it.
fn reseal(file: &mut [u8]) {
    let len = (file.len() - 36) as u64;
    file[20..28].copy_from_slice(&len.to_le_bytes());
    let basis = ldbt_learn::cache::sig_hash(""); // FNV-1a of nothing
    let sum =
        file[36..].iter().fold(basis, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    file[28..36].copy_from_slice(&sum.to_le_bytes());
}

/// Byte-level fuzz of `db::from_bytes` on real suite databases: every
/// truncation of the merged rules and memo, every truncation of one
/// program's rules re-sealed so the decoder sees the short payload, and
/// seeded single- and multi-byte mutations of the merged database,
/// re-sealed, all end in `Ok` or `Err` — never a panic — and what loads
/// also saves.
#[test]
fn rule_database_decoder_survives_truncation_and_mutation() {
    let loads = |file: &[u8]| match from_bytes(file) {
        Ok(db) => !to_bytes(&db.rules, &db.cache).is_empty(),
        Err(_) => false,
    };
    let bytes = to_bytes(&suite_merged(), &suite().1);
    let mut same = bytes.clone();
    reseal(&mut same);
    assert!(same == bytes, "reseal must reproduce an untouched file");
    for cut in 0..bytes.len() {
        assert!(!loads(&bytes[..cut]), "a file cut to {cut} bytes loaded");
    }
    let small = suite_sets().iter().min_by_key(|p| p.rules.len()).expect("suite");
    let one = to_bytes(&small.rules, &VerifyCache::new());
    for cut in 37..one.len() {
        let mut short = one[..cut].to_vec();
        reseal(&mut short);
        assert!(!loads(&short), "{}: a payload cut to {cut} bytes loaded", small.name);
    }
    let mut rng = StdRng::seed_from_u64(25);
    let (mut ok, mut err) = (0, 0);
    for round in 0..600 {
        let mut file = bytes.clone();
        let flips = if round % 3 == 0 { rng.gen_range(2..9) } else { 1 };
        for _ in 0..flips {
            let at = rng.gen_range(36..file.len());
            file[at] = rng.next_u64() as u8;
        }
        reseal(&mut file);
        if loads(&file) {
            ok += 1;
        } else {
            err += 1;
        }
    }
    // Both outcomes occur: the mutations reach past the header checks
    // into the payload decoder.
    assert!(ok > 0 && err > 0, "{ok} mutated databases loaded, {err} refused");
}

/// `RuleSet::longest_match` against the exhaustive scan it replaced —
/// every length `n-i..1` through `lookup`, first accepted — on every
/// position of every block of the twelve `Test` images: same rule, never
/// more probes, with and without a tombstone on the most-hit rule, and
/// under an `accept` that refuses some matches.
#[test]
fn longest_match_equals_the_exhaustive_scan_on_the_suite() {
    use ldbt_arm::ArmInstr;
    let mut rules = suite_merged();
    let mut blocks: Vec<Vec<ArmInstr>> = Vec::new();
    for b in &SUITE {
        let image = build_arm_image(&source(b, Workload::Test), &Options::o2()).unwrap();
        let mut mem = ldbt_isa::Memory::new();
        image.load_into(&mut mem);
        for (_, addr) in &image.func_addrs {
            let mut pc = *addr;
            loop {
                let block = ldbt_dbt::tcg::decode_block(&mem, pc);
                pc += 4 * block.instrs.len() as u32;
                let falls_through = matches!(block.instrs.last(), Some(ArmInstr::B { .. }));
                if !block.instrs.is_empty() {
                    blocks.push(block.instrs);
                }
                if !falls_through {
                    break;
                }
            }
        }
    }
    assert!(blocks.len() > 300, "walked {} blocks", blocks.len());
    type Accept = fn(&Rule, usize) -> bool;
    let accepts: [(&str, Accept); 2] = [
        ("all", |_, _| true),
        ("picky", |r, len| r.unemulated_flags == 0 && (len != 2 || r.host.len() < 2)),
    ];
    let mut most_hit = None;
    for tombstoned in [false, true] {
        if tombstoned {
            assert!(rules.tombstone(most_hit.expect("first pass hit something")));
        }
        let mut hits = std::collections::BTreeMap::<u64, usize>::new();
        let (mut fast_probes, mut slow_probes, mut refusals) = (0, 0, 0);
        for (name, accept) in accepts {
            for (i, seq) in blocks.iter().flat_map(|b| (0..b.len()).map(move |i| (i, &b[i..]))) {
                let (fast, probes) = rules.longest_match(seq, accept);
                let mut tried = 0;
                let slow = (1..=seq.len()).rev().find_map(|len| {
                    tried += 1;
                    let m = rules.lookup(&seq[..len])?;
                    refusals += usize::from(!accept(m.rule, len));
                    accept(m.rule, len).then_some(m)
                });
                let id = |m: &Option<ldbt_learn::rule::RuleMatch>| {
                    m.as_ref().map(|m| (m.key, m.rule.len(), m.binding.clone()))
                };
                assert_eq!(id(&fast), id(&slow), "{name} tombstoned={tombstoned} at +{i}");
                assert!(probes <= tried, "{name} at +{i}: {probes} probes > {tried}");
                fast_probes += probes;
                slow_probes += tried;
                if let Some(m) = fast {
                    assert_eq!(m.key, m.rule.stable_key(), "cached key is the rule's key");
                    assert!(!rules.is_tombstoned(m.key));
                    *hits.entry(m.key).or_default() += 1;
                }
            }
        }
        assert!(refusals > 0, "the picky accept must exercise the refusal path");
        assert!(2 * fast_probes < slow_probes, "{fast_probes} vs {slow_probes} probes");
        most_hit = hits.iter().max_by_key(|&(k, n)| (*n, std::cmp::Reverse(*k))).map(|(k, _)| *k);
    }
}

/// Learn `programs` under `cfg` and return the comparable outcome:
/// per-program Table-1 counters plus the canonical rule dump.
fn learn_programs(programs: &[&str], cfg: &LearnConfig) -> Vec<([usize; 14], Vec<String>)> {
    let mut cache = VerifyCache::new();
    programs
        .iter()
        .map(|name| {
            let b = ldbt_workloads::benchmark(name).unwrap();
            let src = source(b, Workload::Ref);
            let r = learn_from_source_cached(name, &src, &Options::o2(), cfg, &mut cache).unwrap();
            (r.stats.counters(), r.rules.iter().map(Rule::canonical_text).collect())
        })
        .collect()
}
