//! A verification memo cache keyed by canonicalized snippet signatures.
//!
//! Verification dominates learning time (Table 1; the paper reports
//! ~95%), and real programs repeat the same guest/host snippet shapes
//! many times — both within one program (unrolled loops, repeated
//! idioms) and across the suite. The outcome of the whole
//! mapping-try loop (`prepare` → `initial_mappings` → `verify`) is a
//! pure function of the snippet pair's instruction content, so it can be
//! memoized: the first occurrence pays for verification, every repeat
//! replays the recorded outcome.
//!
//! The key is deliberately an *exact* rendering of both instruction
//! sequences (plus their memory-variable annotations and the mapping-try
//! limit), **not** a register-canonicalized one: a hit must reproduce
//! byte-for-byte what `verify` would compute for that pair, and the
//! learned [`Rule`] embeds the pair's actual registers and immediates.
//! Source location and function name are excluded — they influence none
//! of the pipeline stages.

use crate::extract::SnippetPair;
use crate::rule::Rule;
use crate::verify::VerifyFail;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The memoized result of verifying one snippet signature: the learned
/// rule, or the last verification failure across its mapping tries
/// (Table 1 counts only the last failure, as in the paper).
#[derive(Debug, Clone)]
pub enum VerifyOutcome {
    /// Verification succeeded with this rule.
    Learned(Rule),
    /// Every candidate mapping failed; this was the last failure.
    Failed(VerifyFail),
}

/// The memo key for a snippet pair. See the module docs for why the
/// rendering is exact rather than register-canonicalized.
pub fn pair_signature(pair: &SnippetPair, max_tries: usize) -> String {
    let mut sig = String::with_capacity(64);
    let _ = write!(sig, "t{max_tries};");
    for (instr, var) in &pair.guest {
        let _ = write!(sig, "{instr}");
        if let Some(v) = var {
            let _ = write!(sig, "@{v}");
        }
        sig.push('\n');
    }
    sig.push('|');
    for (instr, var) in &pair.host {
        let _ = write!(sig, "{instr}");
        if let Some(v) = var {
            let _ = write!(sig, "@{v}");
        }
        sig.push('\n');
    }
    sig
}

/// FNV-1a hash of a signature, for trace events: a full signature is
/// multi-line and can run to kilobytes, so cache hit/miss events carry
/// this stable 64-bit digest instead. Collisions only smear trace
/// attribution; the cache itself always keys on the full string.
pub fn sig_hash(sig: &str) -> u64 {
    fnv1a(sig.as_bytes())
}

/// 64-bit FNV-1a over raw bytes: [`sig_hash`] and the rule database
/// checksum, so a string and its bytes hash alike.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The memo cache itself. One instance is shared across all programs of
/// an experiment run (see `ldbt-core::experiment::learn_all`), so
/// cross-program repeats also hit.
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    map: HashMap<String, VerifyOutcome>,
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> Self {
        VerifyCache::default()
    }

    /// Number of memoized signatures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a signature.
    pub fn get(&self, sig: &str) -> Option<&VerifyOutcome> {
        self.map.get(sig)
    }

    /// Record the outcome for a signature.
    pub fn insert(&mut self, sig: String, outcome: VerifyOutcome) {
        self.map.insert(sig, outcome);
    }

    /// Iterate over all memoized `(signature, outcome)` entries, in
    /// arbitrary (hash-map) order. `db` sorts by signature before
    /// serializing so the on-disk bytes are deterministic.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &VerifyOutcome)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbt_arm::{ArmInstr, ArmReg, Operand2};
    use ldbt_isa::SourceLoc;
    use ldbt_x86::{Gpr, X86Instr};

    fn pair(loc: u32, imm: u32) -> SnippetPair {
        SnippetPair {
            loc: SourceLoc::line(loc),
            func: format!("f{loc}"),
            guest: vec![(ArmInstr::mov(ArmReg::R0, Operand2::Imm(imm)), None)],
            host: vec![(X86Instr::mov_imm(Gpr::Eax, imm as i32), Some("v".into()))],
        }
    }

    #[test]
    fn signature_ignores_location_but_not_content() {
        // Same instructions at different source locations: same key.
        assert_eq!(pair_signature(&pair(1, 7), 5), pair_signature(&pair(42, 7), 5));
        // Different immediate: different key.
        assert_ne!(pair_signature(&pair(1, 7), 5), pair_signature(&pair(1, 8), 5));
        // Different try limit: different key.
        assert_ne!(pair_signature(&pair(1, 7), 5), pair_signature(&pair(1, 7), 1));
    }

    #[test]
    fn signature_distinguishes_annotations() {
        let mut a = pair(1, 7);
        let b = a.clone();
        a.host[0].1 = None;
        assert_ne!(pair_signature(&a, 5), pair_signature(&b, 5));
    }

    #[test]
    fn sig_hash_is_stable_and_content_sensitive() {
        // FNV-1a reference values: hash of "" is the offset basis.
        assert_eq!(sig_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(sig_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            sig_hash(&pair_signature(&pair(1, 7), 5)),
            sig_hash(&pair_signature(&pair(42, 7), 5))
        );
        assert_ne!(
            sig_hash(&pair_signature(&pair(1, 7), 5)),
            sig_hash(&pair_signature(&pair(1, 8), 5))
        );
    }

    #[test]
    fn cache_round_trip() {
        let mut cache = VerifyCache::new();
        assert!(cache.is_empty());
        let sig = pair_signature(&pair(1, 7), 5);
        assert!(cache.get(&sig).is_none());
        cache.insert(sig.clone(), VerifyOutcome::Failed(VerifyFail::Other("test")));
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.get(&sig), Some(VerifyOutcome::Failed(VerifyFail::Other("test")))));
    }
}
