//! One run of one workload: set-up, the timed section, the checks, and
//! the metrics made from them.
//!
//! Closed loop, one client: a pass starts when the previous one ends.
//! Every workload has an execution half and a learning half; the one
//! that names the workload fills four fifths of `--seconds`, the other
//! runs as a probe in the remaining fifth, so that each of the eight
//! end-to-end metrics is measured, from many passes, on every workload.
//! What a pass does is fixed in the source; how many fit is not.
//!
//! The untraced run yields the end-to-end metrics. The traced run
//! (`--trace 1`) yields the per-layer ones: one unrolled pass under
//! spans, fixed probes, then ablation and yardstick passes round-robin
//! for `--seconds`.

use crate::exec::{run_pass, Knobs, Pass, Tally, Which};
use crate::inputs::{threads, Setup};
use crate::layers::{probes, traced_exec, traced_learn};
use crate::learn::{learn_pass, LearnPass, Memo};
use crate::spans::Tracer;
use crate::spec::{ExecKind, Main, WorkloadSpec};
use crate::stats::{hi_quantile, quantile, wall};
use ldbt_core::experiment::geomean;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run, fewest and most; `setup_s` is their
/// median. Past the fewest, a workload whose set-up is quick repeats it
/// until `SETUP_BUDGET_S` is spent: the quicker, the noisier.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=15;
const SETUP_BUDGET_S: f64 = 1.5;

/// The main half's share of `--seconds`.
const MAIN_SHARE: f64 = 0.8;

/// Turns the two halves take within `--seconds`.
const SLICES: usize = 12;

/// Watchdog sampling period of the `wd16` ablation.
const ABLATION_WATCHDOG: u64 = 16;

/// Workers of the timed learning passes. One, not `T`: a program is
/// learned in about 2 ms, so a `T`-worker pass is mostly cross-vCPU
/// wake-ups, whose cost on a shared VM moved `learn_ms_per_rule` by 15%
/// between two batches of ten runs of the same binary (README, "Why one
/// learn worker"). `T` workers are the `learnT` configuration of the
/// traced run (`learn.threads_speedup`) and the holdout's learner.
const LEARN_WORKERS: usize = 1;

pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans, if anywhere.
    pub spans: Option<PathBuf>,
}

impl RunArgs {
    /// `smoke`'s `--seconds 0`: one set-up, one pass of everything.
    fn once(&self) -> bool {
        self.seconds < 1.0
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result: sample counts,
    /// medians and tails beside every wall number.
    pub notes: Vec<String>,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn memo_of(main: Main) -> Memo {
    match main {
        Main::LearnWarm => Memo::Warm,
        Main::Exec | Main::LearnCold => Memo::Cold,
    }
}

/// Passes back to back until `budget_s` is spent; never fewer than one.
fn sample_for<P>(out: &mut Vec<P>, budget_s: f64, mut pass: impl FnMut() -> P) {
    let t = Instant::now();
    out.push(pass());
    while t.elapsed().as_secs_f64() < budget_s {
        out.push(pass());
    }
}

fn wall_note(what: &str, walls: &[f64]) -> String {
    let hi = hi_quantile(walls.len());
    format!(
        "{what}: {} passes, wall p10 {:.3} ms, p50 {:.3} ms, p{:.0} {:.3} ms",
        walls.len(),
        wall(walls) * 1e3,
        quantile(walls, 0.5) * 1e3,
        hi * 100.0,
        quantile(walls, hi) * 1e3
    )
}

/// The child's peak resident set, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Operations attempted and failed, summed as the run goes.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A check of the benchmark's own: one operation.
    fn check(&mut self, ok: bool, what: &str) {
        self.add(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: FAILED check: {what}");
        }
    }

    fn exec(&mut self, passes: &[Pass]) {
        for p in passes {
            self.add(p.tally.ops, p.tally.failed);
        }
        let first = &passes[0].tally;
        self.check(
            passes.iter().all(|p| {
                (&p.tally.ctrs, p.tally.host_instrs, p.tally.cycles)
                    == (&first.ctrs, first.host_instrs, first.cycles)
            }),
            "engine counters repeat exactly from pass to pass",
        );
    }

    fn learn(&mut self, passes: &[LearnPass]) {
        for p in passes {
            self.add(p.ops, p.failed);
        }
        let key = |p: &LearnPass| (p.rules, p.pairs, p.memo_hits, p.memo_misses);
        self.check(
            passes.iter().all(|p| key(p) == key(&passes[0])),
            "learn counters repeat exactly from pass to pass",
        );
    }
}

/// The rules engine's deterministic counters for the workload. `serve`
/// reports the registry but not `host_instrs` or cycles, so a serving
/// workload takes them from one solo pass over the same programs and
/// rules — after checking that every tenant counted what that pass did.
fn deterministic_tally(
    ops: &mut Ops,
    setup: &Setup,
    kind: ExecKind,
    tenants: usize,
    served: &Tally,
) -> Tally {
    if kind != ExecKind::Serve {
        return served.clone();
    }
    let solo = run_pass(setup, ExecKind::Solo, 1, Which::Rules, &Knobs::DEFAULT).tally;
    ops.add(solo.ops, solo.failed);
    ops.check(
        solo.ctrs.iter().map(|c| c * tenants as u64).eq(served.ctrs.iter().copied()),
        "tenant counters are a solo engine's, times the tenants",
    );
    solo
}

/// What the holdout programs measured (see `inputs`).
struct Holdout {
    exec: Tally,
    learn: LearnPass,
}

fn holdout(ops: &mut Ops, setup: &Setup, seed: u64, workers: usize) -> Result<Holdout, String> {
    let hold = Setup::holdout(seed, &setup.full)?;
    let learn = learn_pass(&hold, Memo::Cold, workers);
    let exec = run_pass(&hold, ExecKind::Solo, 1, Which::Rules, &Knobs::DEFAULT).tally;
    ops.add(learn.ops + exec.ops, learn.failed + exec.failed);
    Ok(Holdout { exec, learn })
}

fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    let spec = args.spec;
    let workers = threads();
    let mut setup_walls = Vec::new();
    let mut setup = None;
    let (fewest, most) = if args.once() { (1, 1) } else { SETUP_REPS.into_inner() };
    let start = Instant::now();
    while setup_walls.len() < fewest
        || (setup_walls.len() < most && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        setup = Some(Setup::build(spec)?);
        setup_walls.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");

    // The two halves take turns, slice by slice, so that both sample
    // sets span the whole run: a noisy stretch of the machine then lands
    // in the upper quartiles of both instead of shifting one of them.
    let exec_share = if spec.main == Main::Exec { MAIN_SHARE } else { 1.0 - MAIN_SHARE };
    let slice = args.seconds / SLICES as f64;
    let (mut learn_passes, mut exec_passes) = (Vec::new(), Vec::new());
    for _ in 0..if args.once() { 1 } else { SLICES } {
        sample_for(&mut learn_passes, slice * (1.0 - exec_share), || {
            learn_pass(&setup, memo_of(spec.main), LEARN_WORKERS)
        });
        sample_for(&mut exec_passes, slice * exec_share, || {
            run_pass(&setup, spec.exec, workers, Which::Rules, &Knobs::DEFAULT)
        });
    }

    let mut ops = Ops::default();
    ops.exec(&exec_passes);
    ops.learn(&learn_passes);
    let served = &exec_passes[0].tally;
    let det = deterministic_tally(&mut ops, &setup, spec.exec, workers, served);
    // Before the holdout: its programs differ from seed to seed, and
    // one hard query among them can triple the resident set.
    let peak_rss = peak_rss_mb();
    holdout(&mut ops, &setup, args.seed, workers)?;

    let exec_walls: Vec<f64> = exec_passes.iter().map(|p| p.wall_s).collect();
    let learn_walls: Vec<f64> = learn_passes.iter().map(|p| p.wall_s).collect();
    let learned = &learn_passes[0];
    let guest = det.guest() as f64;
    let metrics = vec![
        ("setup_s", quantile(&setup_walls, 0.5)),
        ("guest_mips", ratio(served.guest() as f64, wall(&exec_walls)) / 1e6),
        ("model_cycles_per_ginstr", ratio(det.cycles as f64, guest)),
        ("host_instrs_per_ginstr", ratio(det.host_instrs as f64, guest)),
        ("dyn_coverage", ratio(det.get("guest_dyn_covered") as f64, guest)),
        ("learn_ms_per_rule", ratio(wall(&learn_walls) * 1e3, learned.rules as f64)),
        ("rule_yield", ratio(learned.rules as f64, learned.pairs as f64)),
        ("peak_rss_mb", peak_rss),
    ];
    let notes = vec![
        format!("set-up: {} times, median {:.3} s", setup_walls.len(), quantile(&setup_walls, 0.5)),
        wall_note("exec half", &exec_walls),
        wall_note("learn half", &learn_walls),
    ];
    Ok(RunResult { attempted: ops.attempted, failed: ops.failed, metrics, notes })
}

/// What one configuration of the round-robin section runs.
#[derive(Clone, Copy)]
enum Job {
    Exec { kind: ExecKind, tenants: usize, which: Which, knobs: Knobs },
    Learn { threads: usize },
}

/// A configuration's samples: every pass's wall, and the last pass.
struct Sampled {
    name: &'static str,
    job: Job,
    walls: Vec<f64>,
    exec: Pass,
    learn: LearnPass,
}

impl Sampled {
    fn wall(&self) -> f64 {
        wall(&self.walls)
    }

    /// Guest Minstr/s at the first-decile wall.
    fn mips(&self) -> f64 {
        ratio(self.exec.tally.guest() as f64, self.wall()) / 1e6
    }
}

fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let spec = args.spec;
    let workers = threads();
    let memo = memo_of(spec.main);
    let setup = Setup::build(spec)?;
    let mut ops = Ops::default();

    // The unrolled pass, under spans.
    let mut tr = Tracer::new();
    let lc = traced_learn(&mut tr, &setup, memo);
    let xc = traced_exec(&mut tr, &setup, &Knobs::DEFAULT);
    ops.add(lc.ops + xc.ops, lc.failed + xc.failed);
    let probe = probes(&setup, &xc.sample_blocks);

    // Ablations through the public builders, yardstick engines, and the
    // facade with and without workers, round-robin so that drift in the
    // machine lands on all of them alike. Serving takes only rule
    // engines, so a serving workload ablates solo passes.
    let kind = if spec.exec == ExecKind::Serve { ExecKind::Solo } else { spec.exec };
    let exec = |which, knobs| Job::Exec { kind, tenants: 1, which, knobs };
    let d = Knobs::DEFAULT;
    let mut configs: Vec<(&'static str, Job)> = vec![
        ("rules", exec(Which::Rules, d)),
        ("tcg", exec(Which::Tcg, d)),
        ("nosb", exec(Which::Rules, Knobs { superblocks: None, ..d })),
        ("nora", exec(Which::Rules, Knobs { region_alloc: false, ..d })),
        ("nofuse", exec(Which::Rules, Knobs { fusion: false, ..d })),
        ("nochain", exec(Which::Rules, Knobs { chaining: false, ..d })),
        ("wd16", exec(Which::Rules, Knobs { watchdog: Some(ABLATION_WATCHDOG), ..d })),
        ("serve1", Job::Exec { kind: ExecKind::Serve, tenants: 1, which: Which::Rules, knobs: d }),
        (
            "serveT",
            Job::Exec { kind: ExecKind::Serve, tenants: workers, which: Which::Rules, knobs: d },
        ),
        ("learnT", Job::Learn { threads: workers }),
        ("learn1", Job::Learn { threads: 1 }),
    ];
    if spec.exec == ExecKind::Churn {
        // The traced pass runs the programs alone; its untraced twin.
        configs.push((
            "solo",
            Job::Exec { kind: ExecKind::Solo, tenants: 1, which: Which::Rules, knobs: d },
        ));
    }
    let mut sampled: Vec<Sampled> = configs
        .into_iter()
        .map(|(name, job)| Sampled {
            name,
            job,
            walls: Vec::new(),
            exec: Pass::default(),
            learn: LearnPass::default(),
        })
        .collect();
    let t = Instant::now();
    let min_rounds = if args.once() { 1 } else { 2 };
    let mut rounds = 0;
    while rounds < min_rounds || t.elapsed().as_secs_f64() < args.seconds {
        for s in &mut sampled {
            match s.job {
                Job::Exec { kind, tenants, which, knobs } => {
                    s.exec = run_pass(&setup, kind, tenants, which, &knobs);
                    s.walls.push(s.exec.wall_s);
                    ops.add(s.exec.tally.ops, s.exec.tally.failed);
                }
                Job::Learn { threads } => {
                    s.learn = learn_pass(&setup, memo, threads);
                    s.walls.push(s.learn.wall_s);
                    ops.add(s.learn.ops, s.learn.failed);
                }
            }
        }
        rounds += 1;
    }
    let of = |name: &str| {
        sampled.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no configuration {name}"))
    };
    let jit = run_pass(&setup, kind, 1, Which::Jit, &d);
    ops.add(jit.tally.ops, jit.tally.failed);
    let hold = holdout(&mut ops, &setup, args.seed, workers)?;

    let (rules, tcg) = (of("rules"), of("tcg"));
    let r = &rules.exec.tally;
    let guest = r.guest() as f64;
    let host = |name: &str| of(name).exec.tally.host_instrs as f64;
    let saving = |name: &str| 1.0 - ratio(r.host_instrs as f64, host(name));
    // The paper's per-benchmark figures: program by program.
    let programs = || tcg.exec.per_program.iter().zip(&rules.exec.per_program);
    let speedup = geomean(programs().map(|(t, r)| ratio(t.cycles as f64, r.cycles as f64)));
    let reduction = ratio(
        programs().map(|(t, r)| 1.0 - ratio(r.host_instrs as f64, t.host_instrs as f64)).sum(),
        programs().count() as f64,
    );

    // Staged layer times from the spans, in seconds.
    let sum = |name: &str| tr.total(name).0;
    let per = |name: &str, scale: f64| {
        let (s, n) = tr.total(name);
        ratio(s * scale, n as f64)
    };
    let staged: f64 = [
        "compiler.arm",
        "compiler.x86",
        "learn.extract",
        "learn.prepare",
        "learn.param",
        "learn.sig",
        "learn.memo",
        "learn.verify",
        "learn.insert",
        "learn.merge",
        "learn.db_decode",
        "learn.db_encode",
    ]
    .iter()
    .map(|n| sum(n))
    .sum();
    let main = match spec.main {
        Main::Exec if spec.exec == ExecKind::Serve => of("serveT"),
        Main::Exec => rules,
        Main::LearnCold | Main::LearnWarm => of("learn1"),
    };
    // The traced pass against its untraced twin: the traced engine calls
    // against a solo pass over the same programs, the unrolled learning
    // pass against the one-worker facade.
    let overhead = if spec.main == Main::Exec {
        let twin = if spec.exec == ExecKind::Churn { of("solo") } else { rules };
        ratio(sum("dbt.engine.new") + sum("dbt.engine.cold"), twin.wall())
    } else {
        ratio(sum("learn.pass"), of("learn1").wall())
    };
    let hi = hi_quantile(main.walls.len());
    let learnt = &of("learnT").learn;
    let hx = &hold.exec;

    let metrics = vec![
        ("compiler.arm_ms", sum("compiler.arm") * 1e3),
        ("compiler.x86_ms", sum("compiler.x86") * 1e3),
        ("compiler.image_ms", ratio(setup.times.image_s * 1e3, setup.times.images as f64)),
        ("learn.extract_ms", sum("learn.extract") * 1e3),
        ("learn.extract_pairs", lc.pairs as f64),
        ("learn.prepare_ms", sum("learn.prepare") * 1e3),
        ("learn.prepare_pass_share", ratio(lc.prepared as f64, lc.pairs as f64)),
        ("learn.param_ms", sum("learn.param") * 1e3),
        ("learn.param_mappings", lc.mappings as f64),
        ("learn.verify_ms", sum("learn.verify") * 1e3),
        ("learn.verify_queries", lc.queries as f64),
        ("learn.verify_proved_share", ratio(lc.proved as f64, lc.queries as f64)),
        (
            "learn.memo_hit_share",
            ratio(learnt.memo_hits as f64, (learnt.memo_hits + learnt.memo_misses) as f64),
        ),
        ("learn.sig_us", per("learn.sig", 1e6)),
        ("learn.db_decode_ms", probe.db_decode_ms),
        ("learn.db_encode_ms", probe.db_encode_ms),
        ("learn.db_bytes", setup.db_bytes.len() as f64),
        ("learn.rule_lookup_ns", probe.rule_lookup_ns),
        ("learn.rule_merge_ms", probe.rule_merge_ms),
        ("learn.facade_self_ms", (of("learn1").wall() - staged) * 1e3),
        ("learn.threads_speedup", ratio(of("learn1").wall(), of("learnT").wall())),
        ("smt.equiv_us", probe.smt_equiv_us),
        ("dbt.tcg.decode_us_per_block", per("dbt.tcg.decode", 1e6)),
        ("dbt.tcg.translate_us_per_block", per("dbt.tcg.translate", 1e6)),
        ("dbt.tcg.ops_per_ginstr", ratio(xc.tcg_ops as f64, xc.guest_static as f64)),
        ("dbt.rules.lower_us_per_block", per("dbt.rules.lower", 1e6)),
        ("dbt.rules.hits_per_block", ratio(xc.rule_hits as f64, xc.blocks as f64)),
        ("dbt.rules.lookups_per_block", ratio(xc.rule_lookups as f64, xc.blocks as f64)),
        ("dbt.jit.optimize_us_per_block", per("dbt.jit.optimize", 1e6)),
        ("dbt.backend.lower_us_per_block", per("dbt.backend.lower", 1e6)),
        (
            "dbt.backend.host_per_ginstr_static",
            ratio(xc.host_static as f64, xc.guest_static as f64),
        ),
        ("dbt.sb.formed", r.get("sb_formed") as f64),
        ("dbt.sb.exec_share", ratio(r.get("sb_execs") as f64, r.get("block_execs") as f64)),
        ("dbt.sb.ra_promoted", r.get("ra_promoted") as f64),
        ("dbt.sb.fuse_elim", r.get("fuse_elim") as f64),
        ("dbt.sb.host_instr_saving", saving("nosb")),
        ("dbt.sb.ra_saving", saving("nora")),
        ("dbt.sb.fuse_saving", saving("nofuse")),
        ("dbt.sb.wall_saving", 1.0 - ratio(rules.wall(), of("nosb").wall())),
        ("dbt.sb.pass_us_per_region", ratio(sum("dbt.sb.passes") * 1e6, xc.regions as f64)),
        ("dbt.engine.new_us", per("dbt.engine.new", 1e6)),
        ("dbt.engine.cold_ms", sum("dbt.engine.cold") * 1e3),
        ("dbt.engine.warm_ms", sum("dbt.engine.warm") * 1e3),
        ("dbt.engine.xlate_ms", (sum("dbt.engine.cold") - sum("dbt.engine.warm")) * 1e3),
        ("dbt.engine.host_mips", ratio(xc.warm_host_instrs as f64, sum("dbt.engine.warm")) / 1e6),
        (
            "dbt.engine.chained_share",
            ratio(r.get("chained_execs") as f64, r.get("block_execs") as f64),
        ),
        (
            "dbt.engine.ibtc_hit_share",
            ratio(r.get("ibtc_hits") as f64, (r.get("ibtc_hits") + r.get("ibtc_misses")) as f64),
        ),
        ("dbt.engine.helper_share", ratio(r.get("helper_steps") as f64, guest)),
        ("dbt.engine.blocks", r.get("blocks") as f64),
        ("dbt.engine.nochain_wall_ratio", ratio(of("nochain").wall(), rules.wall())),
        ("dbt.engine.smc_invalidations", r.get("smc_invalidations") as f64),
        ("dbt.engine.retranslated_blocks", r.purged_blocks as f64),
        ("dbt.engine.traps", r.get("traps") as f64),
        ("dbt.engine.smc_us_per_invalidation", probe.smc_us_per_invalidation),
        ("dbt.engine.watchdog_checks", r.get("watchdog_checks") as f64),
        ("dbt.engine.repairs", r.get("wd_repaired") as f64),
        ("dbt.engine.watchdog_wall_ratio", ratio(of("wd16").wall(), rules.wall())),
        ("dbt.tcg.guest_mips", tcg.mips()),
        (
            "dbt.tcg.model_cycles_per_ginstr",
            ratio(tcg.exec.tally.cycles as f64, tcg.exec.tally.guest() as f64),
        ),
        ("dbt.tcg.host_instrs_per_ginstr", ratio(host("tcg"), tcg.exec.tally.guest() as f64)),
        (
            "dbt.jit.model_cycles_per_ginstr",
            ratio(jit.tally.cycles as f64, jit.tally.guest() as f64),
        ),
        ("dbt.share.load_ns", probe.share_load_ns),
        ("x86.interp_host_mips", xc.interp_host_mips),
        (
            "arm.interp_guest_mips",
            ratio(setup.times.interp_steps as f64, setup.times.interp_s) / 1e6,
        ),
        ("isa.mem_load_ns", probe.mem_load_ns),
        ("isa.mem_store_ns", probe.mem_store_ns),
        ("isa.mem_marked_store_ns", probe.mem_marked_store_ns),
        ("core.model_speedup_geomean", speedup),
        ("core.host_instr_reduction", reduction),
        ("core.wall_speedup", ratio(tcg.wall(), rules.wall())),
        ("core.serve_scale", ratio(of("serveT").mips(), of("serve1").mips())),
        ("core.serve_solo_mips", of("serve1").mips()),
        ("core.kernel_run_us", probe.kernel_run_us),
        ("holdout.model_cycles_per_ginstr", ratio(hx.cycles as f64, hx.guest() as f64)),
        ("holdout.host_instrs_per_ginstr", ratio(hx.host_instrs as f64, hx.guest() as f64)),
        ("holdout.dyn_coverage", ratio(hx.get("guest_dyn_covered") as f64, hx.guest() as f64)),
        ("holdout.rule_yield", ratio(hold.learn.rules as f64, hold.learn.pairs as f64)),
        ("bench.passes", main.walls.len() as f64),
        ("bench.pass_ms_p10", main.wall() * 1e3),
        ("bench.pass_ms_p50", quantile(&main.walls, 0.5) * 1e3),
        ("bench.pass_ms_hi", quantile(&main.walls, hi) * 1e3),
        ("bench.pass_hi_pct", hi * 100.0),
        ("bench.trace_overhead_pct", (overhead - 1.0) * 100.0),
    ];

    let own: f64 = tr.self_times().values().sum();
    let mut notes = vec![
        format!("{rounds} round-robin rounds over {} configurations", sampled.len()),
        format!(
            "{} spans; self times sum to {:.6} s of {:.6} s under root spans",
            tr.spans.len(),
            own,
            tr.root_time()
        ),
    ];
    notes.extend(sampled.iter().map(|s| wall_note(s.name, &s.walls)));
    if let Some(path) = &args.spans {
        std::fs::write(path, tr.to_json().render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(RunResult { attempted: ops.attempted, failed: ops.failed, metrics, notes })
}
