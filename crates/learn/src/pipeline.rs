//! The end-to-end learning pipeline and its statistics (Table 1).
//!
//! The pipeline is staged so the expensive parts fan out across worker
//! threads while the observable output stays **byte-identical** to the
//! sequential per-pair loop:
//!
//! 1. **Classify** — preparation + parameterization run per pair on the
//!    [`crate::par`] worker pool; results come back in pair order.
//! 2. **Group** — surviving pairs are grouped by their exact snippet
//!    signature ([`crate::cache::pair_signature`]); each unique
//!    signature checks the [`VerifyCache`] once. Grouping happens
//!    *before* any verification, so hit/miss counts do not depend on
//!    thread scheduling.
//! 3. **Verify** — one representative per uncached signature is verified
//!    on the pool, each worker reusing one [`TermPool`] via
//!    [`TermPool::reset`]. `verify_time` is the wall-clock span of this
//!    stage.
//! 4. **Merge** — outcomes are replayed over the pairs in index order:
//!    counters bump and rules insert exactly as the sequential loop
//!    would, regardless of thread count or cache state.
//!
//! Thread count comes from [`LearnConfig::threads`] (the `LDBT_THREADS`
//! knob of a binary's configuration); `0` is the machine's available
//! parallelism, and `1` takes the pure-sequential path (no threads
//! spawned).

use crate::budget::{Budget, REASON_WORKER_PANIC};
use crate::cache::{pair_signature, sig_hash, VerifyCache, VerifyOutcome};
use crate::extract::{extract_with_stats, SnippetPair};
use crate::fault::{FaultPlan, FaultSite};
use crate::par::{run_indexed_isolated, run_indexed_with};
use crate::param::{InitialMapping, ParamFail, MAX_MAPPING_TRIES};
use crate::prepare::{prepare, PrepFail};
use crate::rule::RuleSet;
use crate::verify::{verify_in_budgeted, VerifyFail};
use ldbt_compiler::{compile_arm, compile_x86, CompileError, Options};
use ldbt_obs::registry::{SharedCounters, WorkerCounters};
use ldbt_obs::trace::{self, Scope, Val};
use ldbt_smt::TermPool;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-program learning statistics, mirroring Table 1's columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Program name.
    pub name: String,
    /// Total extracted snippet pairs.
    pub total: usize,
    /// Preparation failures: call/indirect ("CI").
    pub prep_ci: usize,
    /// Preparation failures: predicated instructions ("PI").
    pub prep_pi: usize,
    /// Preparation failures: multiple blocks ("MB").
    pub prep_mb: usize,
    /// Parameterization failures: memory-variable counts ("Num").
    pub par_num: usize,
    /// Parameterization failures: memory-variable names ("Name").
    pub par_name: usize,
    /// Parameterization failures: live-in mapping ("FailG").
    pub par_failg: usize,
    /// Verification failures: registers ("Rg").
    pub ver_rg: usize,
    /// Verification failures: memory ("Mm").
    pub ver_mm: usize,
    /// Verification failures: branch conditions ("Br").
    pub ver_br: usize,
    /// Verification failures: other (hazards, timeouts).
    pub ver_other: usize,
    /// Rules learned (before cross-program dedup).
    pub rules: usize,
    /// Verification outcomes replayed from the memo cache (duplicate
    /// snippets within the program plus cross-program repeats when the
    /// cache is shared).
    pub cache_hits: usize,
    /// Unique snippet signatures actually verified.
    pub cache_misses: usize,
    /// Wall-clock learning time.
    pub learn_time: Duration,
    /// Wall-clock span of the verification stage.
    pub verify_time: Duration,
}

impl LearnStats {
    /// Snippets that survived preparation.
    pub fn past_preparation(&self) -> usize {
        self.total - self.prep_ci - self.prep_pi - self.prep_mb
    }

    /// Yield: learned rules over total snippet pairs.
    pub fn yield_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.rules as f64 / self.total as f64
        }
    }

    /// Cache hit rate over all verification queries (0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let queries = self.cache_hits + self.cache_misses;
        if queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / queries as f64
        }
    }

    /// Every deterministic counter (everything except the wall-clock
    /// times), for determinism comparisons across thread counts.
    pub fn counters(&self) -> [usize; 14] {
        [
            self.total,
            self.prep_ci,
            self.prep_pi,
            self.prep_mb,
            self.par_num,
            self.par_name,
            self.par_failg,
            self.ver_rg,
            self.ver_mm,
            self.ver_br,
            self.ver_other,
            self.rules,
            self.cache_hits,
            self.cache_misses,
        ]
    }
}

/// The result of learning from one program.
#[derive(Debug, Clone)]
pub struct LearnReport {
    /// The learned rules.
    pub rules: RuleSet,
    /// The pipeline statistics.
    pub stats: LearnStats,
}

/// Explicit control over the learning pipeline.
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Worker threads for the classify and verify stages. `0` means the
    /// machine's available parallelism; `1` takes the pure-sequential
    /// path.
    pub threads: usize,
    /// Initial-mapping try limit per snippet (the paper uses 5).
    pub max_tries: usize,
    /// Per-query resource budgets for the verify stage.
    pub budget: Budget,
    /// Contain per-item panics in the verify stage with `catch_unwind`
    /// (the panicked item becomes a [`VerifyFail::Other`] outcome). On
    /// by default; turning it off reverts to fail-fast workers. With no
    /// panics the output is identical either way.
    pub isolate: bool,
    /// Armed fault injection; none by default.
    pub fault: Option<FaultPlan>,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            threads: 0,
            max_tries: MAX_MAPPING_TRIES,
            budget: Budget::default(),
            isolate: true,
            fault: None,
        }
    }
}

impl LearnConfig {
    /// The worker count learning runs with: [`LearnConfig::threads`],
    /// or the machine's available parallelism for `0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }

    /// The verify-stage budget after fault injection: `solver-exhaust`
    /// replaces the SAT conflict budget with the fault seed.
    fn effective_budget(&self) -> Budget {
        match self.fault {
            Some(FaultPlan { site: FaultSite::SolverExhaust, seed }) => {
                Budget { solver_conflicts: seed, ..self.budget }
            }
            _ => self.budget,
        }
    }
}

/// Registry indices for [`worker_metrics`] (see [`WORKER_METRIC_NAMES`]).
pub mod wk {
    /// Pairs classified (prepare + parameterize) in stage 1.
    pub const CLASSIFIED_PAIRS: usize = 0;
    /// Representative pairs actually verified in stage 3 (cache misses).
    pub const VERIFIED_REPS: usize = 1;
    /// Representatives whose verification learned a rule.
    pub const RULES_LEARNED: usize = 2;
    /// Representatives whose every mapping try failed.
    pub const VERIFY_FAILURES: usize = 3;
    /// Worker panics contained by `catch_unwind` isolation.
    pub const CONTAINED_PANICS: usize = 4;
}

/// Names of the shared worker metrics, in [`wk`] index order.
pub const WORKER_METRIC_NAMES: &[&str] =
    &["classified_pairs", "verified_reps", "rules_learned", "verify_failures", "contained_panics"];

/// The process-wide aggregation target for parallel learn workers. Each
/// worker bumps a private [`WorkerCounters`] block that flushes here on
/// drop (scope join, or teardown after a contained panic), so the verify
/// hot loop never touches contended cache lines. Cumulative across every
/// pipeline run in the process; run reports snapshot it at exit.
pub fn worker_metrics() -> &'static SharedCounters {
    static METRICS: OnceLock<SharedCounters> = OnceLock::new();
    METRICS.get_or_init(|| SharedCounters::new(WORKER_METRIC_NAMES))
}

/// Per-pair outcome of the classify stage.
enum Classified {
    /// Rejected by preparation.
    Prep(PrepFail),
    /// Rejected by parameterization (an empty mapping list counts as
    /// "FailG", like [`ParamFail::LiveIns`]).
    Param(ParamFail),
    /// Survived; carries the candidate initial mappings.
    Ready(Vec<InitialMapping>),
}

impl Classified {
    /// Stable outcome tag for `classify` trace events (Table 1 column
    /// abbreviations).
    fn trace_name(&self) -> &'static str {
        match self {
            Classified::Prep(PrepFail::CallIndirect) => "prep_ci",
            Classified::Prep(PrepFail::Predicated) => "prep_pi",
            Classified::Prep(PrepFail::MultiBlock) => "prep_mb",
            Classified::Param(ParamFail::MemCount) => "par_num",
            Classified::Param(ParamFail::MemName) => "par_name",
            Classified::Param(ParamFail::LiveIns) => "par_failg",
            Classified::Ready(_) => "ready",
        }
    }
}

/// Stable outcome tag for `verify_item` trace events.
fn outcome_name(o: &VerifyOutcome) -> &'static str {
    match o {
        VerifyOutcome::Learned(_) => "learned",
        VerifyOutcome::Failed(VerifyFail::Registers) => "fail_rg",
        VerifyOutcome::Failed(VerifyFail::Memory) => "fail_mm",
        VerifyOutcome::Failed(VerifyFail::Branch) => "fail_br",
        VerifyOutcome::Failed(VerifyFail::Other(_)) => "fail_other",
    }
}

fn classify(pair: &SnippetPair, max_tries: usize) -> Classified {
    if let Err(f) = prepare(pair) {
        return Classified::Prep(f);
    }
    match crate::param::initial_mappings_limit(pair, max_tries) {
        Ok(m) if !m.is_empty() => Classified::Ready(m),
        Ok(_) | Err(ParamFail::LiveIns) => Classified::Param(ParamFail::LiveIns),
        Err(f) => Classified::Param(f),
    }
}

/// Run the mapping-try loop for one pair: first verifying mapping wins;
/// otherwise only the last failure is reported (as in the paper).
fn verify_pair(
    pool: &mut TermPool,
    pair: &SnippetPair,
    mappings: &[InitialMapping],
    budget: &Budget,
) -> VerifyOutcome {
    let mut last = VerifyFail::Other("no mapping");
    for m in mappings {
        pool.reset();
        match verify_in_budgeted(pool, pair, m, budget) {
            Ok(rule) => return VerifyOutcome::Learned(rule),
            Err(f) => last = f,
        }
    }
    VerifyOutcome::Failed(last)
}

/// Learn translation rules from one source program.
///
/// Compiles the program for both ISAs with `options`, extracts per-line
/// snippet pairs, and runs preparation → parameterization → verification,
/// retrying with up to 5 initial mappings (only the last verification
/// failure is counted, as in the paper). Uses the default
/// [`LearnConfig`] and a private memo cache.
///
/// # Errors
///
/// Returns a [`CompileError`] if the source does not compile.
pub fn learn_from_source(
    name: &str,
    source: &str,
    options: &Options,
) -> Result<LearnReport, CompileError> {
    learn_from_source_cached(
        name,
        source,
        options,
        &LearnConfig::default(),
        &mut VerifyCache::new(),
    )
}

/// The full pipeline with explicit configuration and a caller-provided
/// memo cache (share one cache across programs to also memoize
/// cross-program repeats).
///
/// The output — rules, counters, cache hit/miss counts — is a pure
/// function of the inputs: independent of `config.threads` and of how
/// worker threads are scheduled. Only the two wall-clock durations vary.
///
/// # Errors
///
/// Returns a [`CompileError`] if the source does not compile.
pub fn learn_from_source_cached(
    name: &str,
    source: &str,
    options: &Options,
    config: &LearnConfig,
    cache: &mut VerifyCache,
) -> Result<LearnReport, CompileError> {
    let start = Instant::now();
    let guest = compile_arm(source, options)?;
    let host = compile_x86(source, options)?;
    let (pairs, dropped) = extract_with_stats(&guest, &host);
    let mut stats = LearnStats {
        name: name.to_string(),
        total: pairs.len() + dropped,
        prep_mb: dropped,
        ..Default::default()
    };
    let threads = config.effective_threads();
    if trace::enabled(Scope::Learn) {
        trace::emit(
            Scope::Learn,
            "phase",
            &[
                ("name", Val::S("extract")),
                ("program", Val::S(name)),
                ("pairs", Val::U(pairs.len() as u64)),
                ("dropped", Val::U(dropped as u64)),
            ],
        );
        if let Some(FaultPlan { site, seed }) = config.fault {
            trace::emit(
                Scope::Learn,
                "fault_armed",
                &[("site", Val::S(site.name())), ("seed", Val::U(seed))],
            );
        }
        trace::emit(
            Scope::Learn,
            "phase",
            &[("name", Val::S("classify")), ("items", Val::U(pairs.len() as u64))],
        );
    }

    // Stage 1: classify every pair (prepare + parameterize) on the pool.
    // Worker counters flush into the shared registry when the scope joins.
    let classified: Vec<Classified> = run_indexed_with(
        threads,
        pairs.len(),
        || WorkerCounters::new(worker_metrics()),
        |wc, i| {
            let c = classify(&pairs[i], config.max_tries);
            wc.bump(wk::CLASSIFIED_PAIRS);
            if trace::enabled(Scope::Learn) {
                trace::emit(
                    Scope::Learn,
                    "classify",
                    &[("item", Val::U(i as u64)), ("outcome", Val::S(c.trace_name()))],
                );
            }
            c
        },
    );

    // Stage 2: group verification work by snippet signature, consulting
    // the memo cache once per unique signature. `Fresh` groups remember
    // their first (representative) pair; later duplicates replay its
    // outcome.
    enum Group {
        Cached(VerifyOutcome),
        Fresh { rep: usize, sig: String },
    }
    let mut group_of: Vec<Option<usize>> = vec![None; pairs.len()];
    let mut group_ids: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (i, c) in classified.iter().enumerate() {
        if !matches!(c, Classified::Ready(_)) {
            continue;
        }
        let sig = pair_signature(&pairs[i], config.max_tries);
        let gid = match group_ids.get(&sig) {
            Some(&gid) => gid,
            None => {
                let gid = groups.len();
                let hit = cache.get(&sig);
                if trace::enabled(Scope::Learn) {
                    let ev = if hit.is_some() { "cache_hit" } else { "cache_miss" };
                    trace::emit(Scope::Learn, ev, &[("sig", Val::U(sig_hash(&sig)))]);
                }
                groups.push(match hit {
                    Some(o) => Group::Cached(o.clone()),
                    None => Group::Fresh { rep: i, sig: sig.clone() },
                });
                group_ids.insert(sig, gid);
                gid
            }
        };
        group_of[i] = Some(gid);
        stats.cache_hits += 1; // representatives are re-counted as misses below
    }

    // Stage 3: verify one representative per fresh group on the pool,
    // one reusable term pool per worker.
    let fresh: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .filter_map(|(gid, g)| match g {
            Group::Fresh { rep, .. } => Some((gid, *rep)),
            Group::Cached(_) => None,
        })
        .collect();
    stats.cache_misses = fresh.len();
    stats.cache_hits -= fresh.len();
    if trace::enabled(Scope::Learn) {
        trace::emit(
            Scope::Learn,
            "phase",
            &[
                ("name", Val::S("verify")),
                ("fresh", Val::U(fresh.len() as u64)),
                ("cached", Val::U((groups.len() - fresh.len()) as u64)),
            ],
        );
    }
    let vstart = Instant::now();
    let budget = config.effective_budget();
    // Fault injection: `worker-panic` poisons exactly one verify item,
    // chosen deterministically by the seed.
    let panic_at = match config.fault {
        Some(FaultPlan { site: FaultSite::WorkerPanic, seed }) if !fresh.is_empty() => {
            Some(seed as usize % fresh.len())
        }
        _ => None,
    };
    // Each worker owns one reusable term pool plus a private counter
    // block; the block flushes into the shared registry when the worker
    // state drops (scope join, or teardown after a contained panic).
    let make_state = || (TermPool::new(), WorkerCounters::new(worker_metrics()));
    let job = {
        let pairs = &pairs;
        let classified = &classified;
        let fresh = &fresh;
        let budget = &budget;
        move |state: &mut (TermPool, WorkerCounters), k: usize| {
            if panic_at == Some(k) {
                panic!("injected worker panic (LDBT_FAULT=worker-panic)");
            }
            let (pool, wc) = state;
            let (_, rep) = fresh[k];
            let outcome = match &classified[rep] {
                Classified::Ready(mappings) => verify_pair(pool, &pairs[rep], mappings, budget),
                _ => unreachable!("fresh groups come from Ready pairs"),
            };
            wc.bump(wk::VERIFIED_REPS);
            wc.bump(match &outcome {
                VerifyOutcome::Learned(_) => wk::RULES_LEARNED,
                VerifyOutcome::Failed(_) => wk::VERIFY_FAILURES,
            });
            if trace::enabled(Scope::Learn) {
                let mut fields =
                    vec![("item", Val::U(rep as u64)), ("outcome", Val::S(outcome_name(&outcome)))];
                if let VerifyOutcome::Failed(VerifyFail::Other(r)) = &outcome {
                    fields.push(("reason", Val::S(r)));
                }
                trace::emit(Scope::Learn, "verify_item", &fields);
            }
            outcome
        }
    };
    let outcomes: Vec<VerifyOutcome> = if config.isolate {
        run_indexed_isolated(threads, fresh.len(), make_state, job, |k| {
            // The panicked worker's counters flush when its discarded
            // state drops; only the panic itself is recorded here,
            // directly on the shared block.
            worker_metrics().add(wk::CONTAINED_PANICS, 1);
            if trace::enabled(Scope::Learn) {
                trace::emit(Scope::Learn, "contained_panic", &[("item", Val::U(k as u64))]);
            }
            VerifyOutcome::Failed(VerifyFail::Other(REASON_WORKER_PANIC))
        })
    } else {
        run_indexed_with(threads, fresh.len(), make_state, job)
    };
    stats.verify_time = vstart.elapsed();

    // Record fresh outcomes in the cache and resolve every group.
    let mut resolved: Vec<Option<VerifyOutcome>> = groups
        .iter()
        .map(|g| match g {
            Group::Cached(o) => Some(o.clone()),
            Group::Fresh { .. } => None,
        })
        .collect();
    for ((gid, _), outcome) in fresh.iter().zip(outcomes) {
        if let Group::Fresh { sig, .. } = &groups[*gid] {
            cache.insert(sig.clone(), outcome.clone());
        }
        resolved[*gid] = Some(outcome);
    }

    // Stage 4: replay outcomes over the pairs in index order — exactly
    // the sequence of counter bumps and rule insertions the sequential
    // per-pair loop performs.
    let mut rules = RuleSet::new();
    for (i, c) in classified.iter().enumerate() {
        match c {
            Classified::Prep(PrepFail::CallIndirect) => stats.prep_ci += 1,
            Classified::Prep(PrepFail::Predicated) => stats.prep_pi += 1,
            Classified::Prep(PrepFail::MultiBlock) => stats.prep_mb += 1,
            Classified::Param(ParamFail::MemCount) => stats.par_num += 1,
            Classified::Param(ParamFail::MemName) => stats.par_name += 1,
            Classified::Param(ParamFail::LiveIns) => stats.par_failg += 1,
            Classified::Ready(_) => {
                let gid = group_of[i].expect("ready pairs are grouped");
                match resolved[gid].as_ref().expect("group resolved") {
                    VerifyOutcome::Learned(rule) => {
                        rules.insert(rule.clone());
                        stats.rules += 1;
                    }
                    VerifyOutcome::Failed(VerifyFail::Registers) => stats.ver_rg += 1,
                    VerifyOutcome::Failed(VerifyFail::Memory) => stats.ver_mm += 1,
                    VerifyOutcome::Failed(VerifyFail::Branch) => stats.ver_br += 1,
                    VerifyOutcome::Failed(VerifyFail::Other(_)) => stats.ver_other += 1,
                }
            }
        }
    }
    stats.learn_time = start.elapsed();
    if trace::enabled(Scope::Learn) {
        trace::emit(
            Scope::Learn,
            "phase",
            &[
                ("name", Val::S("merge")),
                ("rules", Val::U(stats.rules as u64)),
                ("cache_hits", Val::U(stats.cache_hits as u64)),
                ("cache_misses", Val::U(stats.cache_misses as u64)),
            ],
        );
    }
    Ok(LearnReport { rules, stats })
}

/// Learn from a collection of programs, merging the rule sets and
/// sharing one memo cache across them.
///
/// # Errors
///
/// Returns the first [`CompileError`].
pub fn learn_rules(
    programs: &[(&str, &str)],
    options: &Options,
) -> Result<(RuleSet, Vec<LearnStats>), CompileError> {
    let config = LearnConfig::default();
    let mut cache = VerifyCache::new();
    let mut all = RuleSet::new();
    let mut stats = Vec::new();
    for (name, src) in programs {
        let report = learn_from_source_cached(name, src, options, &config, &mut cache)?;
        all.merge(&report.rules);
        stats.push(report.stats);
    }
    Ok((all, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "
int total;
int data[64];
int hash(int x) {
  x = x ^ 2166136261;
  x = x * 599;
  x = x & 0xffff;
  return x;
}
int fill(int n) {
  for (int i = 0; i < n; i += 1) {
    data[i] = hash(i) + i * 4 - 1;
  }
  return data[n - 1];
}
int main() {
  total = fill(64);
  int acc = 0;
  for (int i = 0; i < 64; i += 1) {
    acc += data[i];
    if (acc > 100000) { acc -= total; }
  }
  return acc & 255;
}";

    #[test]
    fn learns_rules_from_a_real_program() {
        let report = learn_from_source("demo", PROGRAM, &Options::o2()).unwrap();
        let s = &report.stats;
        assert!(s.total > 10, "snippets: {}", s.total);
        assert!(s.rules > 0, "no rules learned: {s:?}");
        assert_eq!(
            s.total,
            s.prep_ci
                + s.prep_pi
                + s.prep_mb
                + s.par_num
                + s.par_name
                + s.par_failg
                + s.ver_rg
                + s.ver_mm
                + s.ver_br
                + s.ver_other
                + s.rules,
            "categories partition the snippets: {s:?}"
        );
        assert!(report.rules.len() <= s.rules, "dedup only shrinks");
        assert!(!report.rules.is_empty());
    }

    #[test]
    fn leave_one_out_merging() {
        let other = "int f(int a, int b) { return a + b - 1; }\nint main() { return f(1, 2); }";
        let (rules, stats) =
            learn_rules(&[("demo", PROGRAM), ("tiny", other)], &Options::o2()).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(!rules.is_empty());
        assert!(rules.len() <= stats.iter().map(|s| s.rules).sum::<usize>());
    }

    #[test]
    fn rules_have_bounded_length() {
        let report = learn_from_source("demo", PROGRAM, &Options::o2()).unwrap();
        for rule in report.rules.iter() {
            assert!(!rule.is_empty() && rule.len() <= 16, "rule length {}", rule.len());
            assert!(!rule.host.is_empty());
        }
    }

    #[test]
    fn timing_is_recorded() {
        let report = learn_from_source("demo", PROGRAM, &Options::o2()).unwrap();
        assert!(report.stats.learn_time >= report.stats.verify_time);
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let seq = LearnConfig { threads: 1, ..LearnConfig::default() };
        let par = LearnConfig { threads: 4, ..LearnConfig::default() };
        let s = learn_from_source_cached(
            "demo",
            PROGRAM,
            &Options::o2(),
            &seq,
            &mut VerifyCache::new(),
        )
        .unwrap();
        let p = learn_from_source_cached(
            "demo",
            PROGRAM,
            &Options::o2(),
            &par,
            &mut VerifyCache::new(),
        )
        .unwrap();
        assert_eq!(s.stats.counters(), p.stats.counters());
        // Contents *and* iteration order must agree.
        let dump = |r: &RuleSet| {
            r.iter().map(crate::rule::Rule::canonical_text).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(dump(&s.rules), dump(&p.rules));
    }

    #[test]
    fn memo_cache_partitioning_and_replay() {
        let config = LearnConfig::default();
        let mut cache = VerifyCache::new();
        let first =
            learn_from_source_cached("demo", PROGRAM, &Options::o2(), &config, &mut cache).unwrap();
        let s = &first.stats;
        // Hits + misses cover exactly the pairs that reached verification.
        assert_eq!(
            s.cache_hits + s.cache_misses,
            s.ver_rg + s.ver_mm + s.ver_br + s.ver_other + s.rules,
            "{s:?}"
        );
        assert_eq!(cache.len(), s.cache_misses);
        // A second run over the same program replays everything from the
        // cache with identical counters and rules.
        let second =
            learn_from_source_cached("demo", PROGRAM, &Options::o2(), &config, &mut cache).unwrap();
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, s.cache_hits + s.cache_misses);
        assert_eq!(second.stats.counters()[..12], s.counters()[..12]);
        let dump = |r: &RuleSet| {
            r.iter().map(crate::rule::Rule::canonical_text).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(dump(&first.rules), dump(&second.rules));
    }

    #[test]
    fn explicit_tries_limit_still_learns() {
        let tries = |max_tries| {
            let config = LearnConfig { max_tries, ..LearnConfig::default() };
            learn_from_source_cached(
                "demo",
                PROGRAM,
                &Options::o2(),
                &config,
                &mut VerifyCache::new(),
            )
        };
        let (one, five) = (tries(1).unwrap(), tries(5).unwrap());
        assert!(one.stats.rules <= five.stats.rules, "more tries can only help");
    }

    #[test]
    fn worker_metrics_aggregate_across_a_run() {
        // The registry is process-global and cumulative, so other tests
        // running concurrently may also bump it: assert on deltas with
        // `>=` where their contribution could interleave.
        let before: Vec<u64> =
            (0..WORKER_METRIC_NAMES.len()).map(|i| worker_metrics().get(i)).collect();
        let report = learn_from_source("demo", PROGRAM, &Options::o2()).unwrap();
        let delta = |i: usize| worker_metrics().get(i) - before[i];
        assert!(report.stats.total > 0, "fixture program extracts pairs");
        // Every extracted-and-kept pair was classified by some worker
        // (`total` also counts extraction drops, recorded as MB).
        assert!(delta(wk::CLASSIFIED_PAIRS) >= (report.stats.total - report.stats.prep_mb) as u64);
        // Each fresh signature was verified by some worker.
        assert!(delta(wk::VERIFIED_REPS) >= report.stats.cache_misses as u64);
        if report.stats.rules > 0 {
            assert!(delta(wk::RULES_LEARNED) >= 1);
        }
    }
}
