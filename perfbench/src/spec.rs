//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `perfbench spec` printed to a file; a unit test
//! keeps the two equal, so `compare` can trust these tables.

use ldbt_workloads::Workload;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`, and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "perfbench";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// All of them describe the rules engine and the learner — the product.
/// The tcg/jit yardsticks are layer rows, so that improving a pass the
/// engines share is never scored as a loss.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "guest_mips", unit: "Minstr/s", better: Higher, bound: 0.10 },
    EndToEnd { name: "model_cycles_per_ginstr", unit: "cycles", better: Lower, bound: 0.005 },
    EndToEnd { name: "host_instrs_per_ginstr", unit: "ratio", better: Lower, bound: 0.005 },
    EndToEnd { name: "dyn_coverage", unit: "share", better: Higher, bound: 0.005 },
    EndToEnd { name: "learn_ms_per_rule", unit: "ms", better: Lower, bound: 0.10 },
    EndToEnd { name: "rule_yield", unit: "share", better: Higher, bound: 0.005 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.10 },
];

/// A metric of a single layer; no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Named `<crate>.<part>.<what>`; the README maps each to the end-to-end
/// metric and workload it should move.
pub const PER_LAYER: &[Layer] = &[
    layer("compiler.arm_ms", "ms", Lower),
    layer("compiler.x86_ms", "ms", Lower),
    layer("compiler.image_ms", "ms", Lower),
    layer("learn.extract_ms", "ms", Lower),
    layer("learn.extract_pairs", "count", Higher),
    layer("learn.prepare_ms", "ms", Lower),
    layer("learn.prepare_pass_share", "share", Higher),
    layer("learn.param_ms", "ms", Lower),
    layer("learn.param_mappings", "count", Lower),
    layer("learn.verify_ms", "ms", Lower),
    layer("learn.verify_queries", "count", Lower),
    layer("learn.verify_proved_share", "share", Higher),
    layer("learn.memo_hit_share", "share", Higher),
    layer("learn.sig_us", "us", Lower),
    layer("learn.db_decode_ms", "ms", Lower),
    layer("learn.db_encode_ms", "ms", Lower),
    layer("learn.db_bytes", "bytes", Lower),
    layer("learn.rule_lookup_ns", "ns", Lower),
    layer("learn.rule_merge_ms", "ms", Lower),
    layer("learn.facade_self_ms", "ms", Lower),
    layer("learn.threads_speedup", "x", Higher),
    layer("smt.equiv_us", "us", Lower),
    layer("dbt.tcg.decode_us_per_block", "us", Lower),
    layer("dbt.tcg.translate_us_per_block", "us", Lower),
    layer("dbt.tcg.ops_per_ginstr", "ratio", Lower),
    layer("dbt.rules.lower_us_per_block", "us", Lower),
    layer("dbt.rules.hits_per_block", "ratio", Higher),
    layer("dbt.rules.lookups_per_block", "ratio", Lower),
    layer("dbt.jit.optimize_us_per_block", "us", Lower),
    layer("dbt.backend.lower_us_per_block", "us", Lower),
    layer("dbt.backend.host_per_ginstr_static", "ratio", Lower),
    layer("dbt.sb.formed", "count", Higher),
    layer("dbt.sb.exec_share", "share", Higher),
    layer("dbt.sb.ra_promoted", "count", Higher),
    layer("dbt.sb.fuse_elim", "count", Higher),
    layer("dbt.sb.host_instr_saving", "share", Higher),
    layer("dbt.sb.ra_saving", "share", Higher),
    layer("dbt.sb.fuse_saving", "share", Higher),
    layer("dbt.sb.wall_saving", "share", Higher),
    layer("dbt.sb.pass_us_per_region", "us", Lower),
    layer("dbt.engine.new_us", "us", Lower),
    layer("dbt.engine.cold_ms", "ms", Lower),
    layer("dbt.engine.warm_ms", "ms", Lower),
    layer("dbt.engine.xlate_ms", "ms", Lower),
    layer("dbt.engine.host_mips", "Minstr/s", Higher),
    layer("dbt.engine.chained_share", "share", Higher),
    layer("dbt.engine.ibtc_hit_share", "share", Higher),
    layer("dbt.engine.helper_share", "share", Lower),
    layer("dbt.engine.blocks", "count", Lower),
    layer("dbt.engine.nochain_wall_ratio", "x", Higher),
    layer("dbt.engine.smc_invalidations", "count", Lower),
    layer("dbt.engine.retranslated_blocks", "count", Lower),
    layer("dbt.engine.traps", "count", Lower),
    layer("dbt.engine.smc_us_per_invalidation", "us", Lower),
    layer("dbt.engine.watchdog_checks", "count", Lower),
    layer("dbt.engine.repairs", "count", Lower),
    layer("dbt.engine.watchdog_wall_ratio", "x", Lower),
    layer("dbt.tcg.guest_mips", "Minstr/s", Higher),
    layer("dbt.tcg.model_cycles_per_ginstr", "cycles", Lower),
    layer("dbt.tcg.host_instrs_per_ginstr", "ratio", Lower),
    layer("dbt.jit.model_cycles_per_ginstr", "cycles", Lower),
    layer("dbt.share.load_ns", "ns", Lower),
    layer("x86.interp_host_mips", "Minstr/s", Higher),
    layer("arm.interp_guest_mips", "Minstr/s", Higher),
    layer("isa.mem_load_ns", "ns", Lower),
    layer("isa.mem_store_ns", "ns", Lower),
    layer("isa.mem_marked_store_ns", "ns", Lower),
    layer("core.model_speedup_geomean", "x", Higher),
    layer("core.host_instr_reduction", "share", Higher),
    layer("core.wall_speedup", "x", Higher),
    layer("core.serve_scale", "x", Higher),
    layer("core.serve_solo_mips", "Minstr/s", Higher),
    layer("core.kernel_run_us", "us", Lower),
    layer("holdout.model_cycles_per_ginstr", "cycles", Lower),
    layer("holdout.host_instrs_per_ginstr", "ratio", Lower),
    layer("holdout.dyn_coverage", "share", Higher),
    layer("holdout.rule_yield", "share", Higher),
    layer("bench.passes", "count", Higher),
    layer("bench.pass_ms_p10", "ms", Lower),
    layer("bench.pass_ms_p50", "ms", Lower),
    layer("bench.pass_ms_hi", "ms", Lower),
    layer("bench.pass_hi_pct", "%", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// How a workload's guest programs are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// A cold engine per program, one after another.
    Solo,
    /// `core::serve`: every tenant thread runs every program against
    /// one shared rule generation.
    Serve,
    /// Self-modifying code, trap exits and watchdog repair: the code
    /// cache used for writes.
    Churn,
}

/// Which half of a workload fills the timed section; the other half
/// runs as a short probe so that every end-to-end metric has a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Main {
    Exec,
    LearnCold,
    LearnWarm,
}

/// One workload: what it learns from, what it runs, and which of the
/// two the timed section is made of.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload is here.
    pub why: &'static str,
    /// Generator seeds per suite program in the learning corpus
    /// (1 = the twelve suite programs, 4 = 48 programs).
    pub corpus_copies: u64,
    /// The four-program serving mix instead of all twelve programs.
    pub mix_only: bool,
    /// Guest input size.
    pub size: Workload,
    /// Leave-one-out rule sets (the paper's protocol) instead of the
    /// full learned set (deployment).
    pub leave_one_out: bool,
    pub exec: ExecKind,
    pub main: Main,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ref_exec",
        why: "long-running guests: >95% of wall is x86 interpretation and engine dispatch/chains/regions, so execution-side work shows here and translation-side work does not",
        corpus_copies: 1,
        mix_only: false,
        size: Workload::Ref,
        leave_one_out: true,
        exec: ExecKind::Solo,
        main: Main::Exec,
    },
    WorkloadSpec {
        name: "test_xlate",
        why: "short-running guests: most of the wall is Engine::new, decode, rule match, lowering and backend, so translation-side work shows here and is invisible on ref_exec",
        corpus_copies: 1,
        mix_only: false,
        size: Workload::Test,
        leave_one_out: true,
        exec: ExecKind::Solo,
        main: Main::Exec,
    },
    WorkloadSpec {
        name: "learn_cold",
        why: "the paper's contribution, cold: compile twice, extract, prepare, parameterize, symexec and SAT over a 48-program corpus with an empty memo each pass",
        corpus_copies: 4,
        mix_only: false,
        size: Workload::Test,
        leave_one_out: false,
        exec: ExecKind::Solo,
        main: Main::LearnCold,
    },
    WorkloadSpec {
        name: "learn_warm",
        why: "the same corpus against a decoded rule database at 100% memo hits: no SAT runs, time is compiler, extract, signatures, memo lookups and the db codec",
        corpus_copies: 4,
        mix_only: false,
        size: Workload::Test,
        leave_one_out: false,
        exec: ExecKind::Solo,
        main: Main::LearnWarm,
    },
    WorkloadSpec {
        name: "serve_mix",
        why: "deployment shape: tenant threads share one rule generation and fold counters per run, the only workload where cores, the RuleCell and the allocator are contended",
        corpus_copies: 1,
        mix_only: true,
        size: Workload::Ref,
        leave_one_out: false,
        exec: ExecKind::Serve,
        main: Main::Exec,
    },
    WorkloadSpec {
        name: "churn",
        why: "the code cache used for writes: SMC purges and retranslation, trap exits and re-entry, watchdog re-execution, attribution, repair and generation publish",
        corpus_copies: 1,
        mix_only: true,
        size: Workload::Test,
        leave_one_out: false,
        exec: ExecKind::Churn,
        main: Main::Exec,
    },
];

impl WorkloadSpec {
    /// Whether `metric` comes from this workload's probe half. A probe
    /// row re-measures what another workload's main half already gates:
    /// the execution rows of `learn_cold` and `learn_warm` are one and
    /// the same pass, and the learning rows of the four execution
    /// workloads are the same 12-program cold pass. They are here because
    /// the driver wants every metric from every workload; `compare` tags
    /// them so that nobody counts them as independent evidence.
    pub fn is_probe(&self, metric: &str) -> bool {
        let of_learning = matches!(metric, "learn_ms_per_rule" | "rule_yield");
        let of_execution = matches!(
            metric,
            "guest_mips" | "model_cycles_per_ginstr" | "host_instrs_per_ginstr" | "dyn_coverage"
        );
        match self.main {
            Main::Exec => of_learning,
            Main::LearnCold | Main::LearnWarm => of_execution,
        }
    }
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// `BENCHMARK.json`, one entry a line.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += &format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],\n"
    );
    s += &format!("  \"paths\": [\"{PATH}\"],\n");
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    s += "  \"workloads\": ";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    s += ",\n  \"end_to_end\": ";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                )
            })
            .collect(),
    );
    s += ",\n  \"per_layer\": ";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                )
            })
            .collect(),
    );
    s += "\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_character_sets() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "metric name {name:?}");
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
        }
        assert!(!name_ok("bad name") && !name_ok("-x") && !name_ok("a/b") && !name_ok(""));
    }

    #[test]
    fn table_sizes_and_bounds_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn probe_rows_are_the_other_halfs_metrics() {
        let ref_exec = workload("ref_exec").unwrap();
        assert!(ref_exec.is_probe("learn_ms_per_rule") && ref_exec.is_probe("rule_yield"));
        assert!(!ref_exec.is_probe("guest_mips") && !ref_exec.is_probe("setup_s"));
        let warm = workload("learn_warm").unwrap();
        assert!(warm.is_probe("guest_mips") && warm.is_probe("dyn_coverage"));
        assert!(!warm.is_probe("learn_ms_per_rule") && !warm.is_probe("peak_rss_mb"));
        for m in END_TO_END {
            assert!(WORKLOADS.iter().any(|w| !w.is_probe(m.name)), "{} is nobody's", m.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `perfbench spec > BENCHMARK.json`");
        let parsed = ldbt_obs::json::parse(on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            parsed.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
