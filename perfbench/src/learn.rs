//! The learning half of a workload: one *pass* learns every corpus
//! program once through the public facade and checks each program's
//! rules against the sequential reference pass of set-up.
//!
//! An *operation* is one program learned (plus, on the warm path, the
//! database decode and the re-encode). The clock runs over the facade
//! and codec calls only; dumping and comparing rules is outside it.

use crate::inputs::{learn_config, Setup};
use ldbt_compiler::Options;
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{RuleSet, VerifyCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the memo holds when a pass starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memo {
    /// Empty: every unique signature is symbolically executed and
    /// SAT-checked.
    Cold,
    /// Decoded from the database set-up saved: every signature hits,
    /// and the pass ends by encoding the database again.
    Warm,
}

/// One learning pass.
#[derive(Debug, Clone, Default)]
pub struct LearnPass {
    pub wall_s: f64,
    pub ops: u64,
    pub failed: u64,
    /// Snippet pairs that became rules, and pairs extracted.
    pub rules: u64,
    pub pairs: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl LearnPass {
    fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.ops += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: FAILED learn {what}: {why}");
        }
    }
}

pub fn learn_pass(setup: &Setup, memo: Memo, threads: usize) -> LearnPass {
    let mut pass = LearnPass::default();
    let config = learn_config(threads);
    let mut cache = VerifyCache::new();
    if memo == Memo::Warm {
        let t = Instant::now();
        let db = ldbt_learn::db::from_bytes(&setup.db_bytes);
        pass.wall_s += t.elapsed().as_secs_f64();
        match db {
            Ok(db) => {
                pass.op("db decode", Ok(()));
                cache = db.cache;
            }
            Err(e) => pass.op("db decode", Err(e.to_string())),
        }
    }
    let mut merged = RuleSet::new();
    for l in &setup.corpus {
        let t = Instant::now();
        let learned = catch_unwind(AssertUnwindSafe(|| {
            learn_from_source_cached(&l.name, &l.source, &Options::o2(), &config, &mut cache)
        }));
        pass.wall_s += t.elapsed().as_secs_f64();
        let verdict = match learned {
            Err(_) => Err("panicked".to_string()),
            Ok(Err(e)) => Err(format!("does not compile: {e}")),
            Ok(Ok(report)) => {
                pass.rules += report.stats.rules as u64;
                pass.pairs += report.stats.total as u64;
                pass.memo_hits += report.stats.cache_hits as u64;
                pass.memo_misses += report.stats.cache_misses as u64;
                if memo == Memo::Warm {
                    let t = Instant::now();
                    merged.merge(&report.rules);
                    pass.wall_s += t.elapsed().as_secs_f64();
                }
                if report.rules.canonical_dump() == l.dump {
                    Ok(())
                } else {
                    Err("rules differ from the sequential reference pass".to_string())
                }
            }
        };
        pass.op(&l.name, verdict);
    }
    if memo == Memo::Warm {
        let t = Instant::now();
        let bytes = ldbt_learn::db::to_bytes(&merged, &cache);
        pass.wall_s += t.elapsed().as_secs_f64();
        let verdict = if pass.memo_misses != 0 {
            Err(format!("{} memo misses against a warm database", pass.memo_misses))
        } else if bytes != setup.db_bytes {
            Err("re-encoded database differs from the one decoded".to_string())
        } else {
            Ok(())
        };
        pass.op("db encode", verdict);
    }
    pass
}
