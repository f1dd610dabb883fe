//! Hash-consed bit-vector terms with local simplification.
//!
//! Terms live in a [`TermPool`]; structurally identical terms always get
//! the same [`TermId`], so syntactic equality is an `==` on ids. Every
//! constructor applies local rewrites (constant folding, identities,
//! canonical operand order, constant gathering), which resolves the large
//! majority of the verifier's equivalence queries without touching the
//! SAT solver.
//!
//! Booleans are width-1 bit-vectors. All widths are 1–64; constants are
//! stored masked to their width.

use std::collections::HashMap;
use std::fmt;

/// An interned term handle. Equal ids ⇔ structurally equal terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Unary bit-vector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Binary bit-vector operators. `Eq`/`Ult`/`Slt` produce width-1 terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,
    Shl,
    Lshr,
    Ashr,
    Eq,
    Ult,
    Slt,
}

impl BinOp {
    /// Whether operands can be reordered freely.
    pub fn commutative(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Add | BinOp::Mul | BinOp::Eq)
    }
}

/// A bit-vector term node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant (value masked to `width`).
    Const {
        /// The value.
        value: u64,
        /// Bit width (1–64).
        width: u32,
    },
    /// A free variable.
    Var {
        /// Interned symbol id (see [`TermPool::sym_name`]).
        sym: u32,
        /// Bit width.
        width: u32,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        a: TermId,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: TermId,
        /// Right operand.
        b: TermId,
    },
    /// Zero-extension to a wider width.
    ZExt {
        /// Operand.
        a: TermId,
        /// Target width.
        width: u32,
    },
    /// Sign-extension to a wider width.
    SExt {
        /// Operand.
        a: TermId,
        /// Target width.
        width: u32,
    },
    /// Bit slice `a[hi:lo]`, inclusive.
    Extract {
        /// Operand.
        a: TermId,
        /// High bit index.
        hi: u32,
        /// Low bit index.
        lo: u32,
    },
    /// If-then-else on a width-1 condition.
    Ite {
        /// Condition (width 1).
        c: TermId,
        /// Then branch.
        t: TermId,
        /// Else branch.
        e: TermId,
    },
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn sext64(value: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

/// The arena interning [`Term`]s.
#[derive(Debug, Clone)]
pub struct TermPool {
    terms: Vec<Term>,
    index: HashMap<Term, TermId>,
    sym_names: Vec<String>,
    sym_index: HashMap<String, u32>,
    soft_cap: usize,
}

impl Default for TermPool {
    fn default() -> Self {
        TermPool {
            terms: Vec::new(),
            index: HashMap::new(),
            sym_names: Vec::new(),
            sym_index: HashMap::new(),
            soft_cap: usize::MAX,
        }
    }
}

impl TermPool {
    /// An empty pool.
    pub fn new() -> Self {
        TermPool::default()
    }

    /// Clear the pool for reuse, keeping its allocations.
    ///
    /// Every outstanding [`TermId`] is invalidated. Long-running callers
    /// (the rule learner issues thousands of independent verification
    /// queries) reset one pool per query instead of allocating a fresh
    /// pool, which keeps the hash-cons tables' capacity warm.
    pub fn reset(&mut self) {
        self.terms.clear();
        self.index.clear();
        self.sym_names.clear();
        self.sym_index.clear();
    }

    /// Set a soft cap on the number of live terms. The pool never refuses
    /// an allocation (term construction stays infallible); instead callers
    /// poll [`TermPool::over_cap`] at natural checkpoints and abandon the
    /// query when the cap is exceeded. [`TermPool::reset`] keeps the cap.
    pub fn set_soft_cap(&mut self, cap: usize) {
        self.soft_cap = cap;
    }

    /// Whether the pool has grown past its soft cap.
    pub fn over_cap(&self) -> bool {
        self.terms.len() > self.soft_cap
    }

    /// The term behind an id.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The bit width of a term.
    pub fn width(&self, id: TermId) -> u32 {
        match *self.term(id) {
            Term::Const { width, .. } | Term::Var { width, .. } => width,
            Term::Unary { a, .. } => self.width(a),
            Term::Binary { op, a, .. } => match op {
                BinOp::Eq | BinOp::Ult | BinOp::Slt => 1,
                _ => self.width(a),
            },
            Term::ZExt { width, .. } | Term::SExt { width, .. } => width,
            Term::Extract { hi, lo, .. } => hi - lo + 1,
            Term::Ite { t, .. } => self.width(t),
        }
    }

    /// The symbol name of interned symbol `sym`.
    pub fn sym_name(&self, sym: u32) -> &str {
        &self.sym_names[sym as usize]
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(id) = self.index.get(&t) {
            return *id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.index.insert(t, id);
        id
    }

    /// A constant of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn constant(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width {width} out of range");
        self.intern(Term::Const { value: value & mask(width), width })
    }

    /// The width-1 constant 1.
    pub fn tru(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The width-1 constant 0.
    pub fn fls(&mut self) -> TermId {
        self.constant(0, 1)
    }

    /// A fresh-or-existing variable named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name was previously used with a different width.
    pub fn var(&mut self, name: &str, width: u32) -> TermId {
        let sym = match self.sym_index.get(name) {
            Some(s) => *s,
            None => {
                let s = self.sym_names.len() as u32;
                self.sym_names.push(name.to_string());
                self.sym_index.insert(name.to_string(), s);
                s
            }
        };
        let id = self.intern(Term::Var { sym, width });
        assert_eq!(self.width(id), width, "variable {name} reused at different width");
        id
    }

    fn as_const(&self, id: TermId) -> Option<u64> {
        match *self.term(id) {
            Term::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Bitwise NOT.
    pub fn not_(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(!v, w);
        }
        if let Term::Unary { op: UnaryOp::Not, a: inner } = *self.term(a) {
            return inner;
        }
        self.intern(Term::Unary { op: UnaryOp::Not, a })
    }

    /// Two's-complement negation, canonicalized as `~a + 1` so that
    /// negations participate in sum normalization (a guest `sub` and a
    /// host `lea` with a negative displacement parameter then meet
    /// syntactically).
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(v.wrapping_neg(), w);
        }
        let n = self.not_(a);
        let one = self.constant(1, w);
        self.add(n, one)
    }

    fn binary(&mut self, op: BinOp, mut a: TermId, mut b: TermId) -> TermId {
        debug_assert_eq!(self.width(a), self.width(b), "width mismatch in {op:?}");
        let w = self.width(a);
        // Constant folding.
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let m = mask(w);
            let v = match op {
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Shl => {
                    if y >= w as u64 {
                        0
                    } else {
                        x << y
                    }
                }
                BinOp::Lshr => {
                    if y >= w as u64 {
                        0
                    } else {
                        x >> y
                    }
                }
                BinOp::Ashr => {
                    let sx = sext64(x, w);
                    let sh = y.min(w as u64 - 1);
                    (sx >> sh) as u64
                }
                BinOp::Eq => return self.constant((x == y) as u64, 1),
                BinOp::Ult => return self.constant((x < y) as u64, 1),
                BinOp::Slt => return self.constant((sext64(x, w) < sext64(y, w)) as u64, 1),
            };
            return self.constant(v & m, w);
        }
        // Canonical order for commutative ops: constants last, ids sorted.
        if op.commutative() {
            let a_const = self.as_const(a).is_some();
            let b_const = self.as_const(b).is_some();
            if !b_const && (a_const || b < a) {
                std::mem::swap(&mut a, &mut b);
            }
        }
        // Subtraction canonicalizes to `a + ~b + 1`, so `sub r0, r0, imm`
        // and `lea -imm(r0, r1)` (and any other mixed add/sub chains)
        // normalize into one flattened sum.
        if op == BinOp::Sub {
            if a == b {
                return self.constant(0, w);
            }
            let nb = self.not_(b);
            let one = self.constant(1, w);
            let s = self.add(a, nb);
            return self.add(s, one);
        }
        // Identities.
        let m = mask(w);
        match op {
            BinOp::And => {
                if a == b {
                    return a;
                }
                if let Some(y) = self.as_const(b) {
                    if y == 0 {
                        return b;
                    }
                    if y == m {
                        return a;
                    }
                }
            }
            BinOp::Or => {
                if a == b {
                    return a;
                }
                if let Some(y) = self.as_const(b) {
                    if y == 0 {
                        return a;
                    }
                    if y == m {
                        return b;
                    }
                }
            }
            BinOp::Xor => {
                if a == b {
                    return self.constant(0, w);
                }
                if let Some(y) = self.as_const(b) {
                    if y == 0 {
                        return a;
                    }
                    if y == m {
                        return self.not_(a);
                    }
                }
            }
            BinOp::Add => return self.normalize_add(a, b, w),
            BinOp::Sub => unreachable!("sub canonicalized above"),
            BinOp::Mul => {
                if let Some(y) = self.as_const(b) {
                    if y == 0 {
                        return b;
                    }
                    if y == 1 {
                        return a;
                    }
                    // Multiply by a power of two canonicalizes to a left
                    // shift, so ARM's `lsl #2` index scaling and x86's SIB
                    // scale 4 meet syntactically.
                    if y.is_power_of_two() {
                        let sh = self.constant(y.trailing_zeros() as u64, w);
                        return self.shl(a, sh);
                    }
                }
            }
            BinOp::Shl | BinOp::Lshr | BinOp::Ashr => {
                if let Some(y) = self.as_const(b) {
                    if y == 0 {
                        return a;
                    }
                }
            }
            BinOp::Eq => {
                if a == b {
                    return self.constant(1, 1);
                }
                // For width-1: eq(x, 1) = x, eq(x, 0) = not x.
                if w == 1 {
                    if let Some(y) = self.as_const(b) {
                        return if y == 1 { a } else { self.not_(a) };
                    }
                }
            }
            BinOp::Ult | BinOp::Slt => {
                if a == b {
                    return self.constant(0, 1);
                }
            }
        }
        self.intern(Term::Binary { op, a, b })
    }

    /// Flatten nested additions, fold all constants into one, and rebuild
    /// the sum left-associated with operands in canonical (id) order and
    /// the constant last. This is what lets `(r0 + r1) - 5`, `r0 + (r1 -
    /// 5)` and `lea -5(r0, r1)` hash-cons to the same term.
    fn normalize_add(&mut self, a: TermId, b: TermId, w: u32) -> TermId {
        let mut ops: Vec<TermId> = Vec::new();
        let mut acc_const: u64 = 0;
        let mut stack = vec![a, b];
        while let Some(t) = stack.pop() {
            match *self.term(t) {
                Term::Const { value, .. } => acc_const = acc_const.wrapping_add(value),
                Term::Binary { op: BinOp::Add, a, b } => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => ops.push(t),
            }
        }
        // Cancel complement pairs: x + ~x ≡ -1 (mod 2^w).
        ops.sort();
        let m = mask(w);
        let mut i = 0;
        while i < ops.len() {
            let t = ops[i];
            let partner = match *self.term(t) {
                Term::Unary { op: UnaryOp::Not, a } => Some(a),
                _ => None,
            };
            let hit = match partner {
                Some(inner) => ops.iter().position(|&o| o == inner),
                None => {
                    let nt = self.not_(t);
                    ops.iter().position(|&o| o == nt)
                }
            };
            match hit {
                Some(j) if j != i => {
                    let (lo, hi) = (i.min(j), i.max(j));
                    ops.remove(hi);
                    ops.remove(lo);
                    acc_const = acc_const.wrapping_add(m); // + (2^w - 1)
                    i = 0; // restart; indices shifted
                }
                _ => i += 1,
            }
        }
        acc_const &= m;
        let Some(&first) = ops.first() else {
            return self.constant(acc_const, w);
        };
        let mut acc = first;
        for &t in &ops[1..] {
            acc = self.intern(Term::Binary { op: BinOp::Add, a: acc, b: t });
        }
        if acc_const != 0 {
            let c = self.constant(acc_const, w);
            acc = self.intern(Term::Binary { op: BinOp::Add, a: acc, b: c });
        }
        acc
    }

    /// Bitwise AND.
    pub fn and_(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn or_(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor_(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Xor, a, b)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Sub, a, b)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Mul, a, b)
    }

    /// Left shift (`b` interpreted as unsigned; over-shift yields 0).
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Shl, a, b)
    }

    /// Logical right shift.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Lshr, a, b)
    }

    /// Arithmetic right shift.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Ashr, a, b)
    }

    /// Equality (width-1 result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Eq, a, b)
    }

    /// Disequality (width-1 result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not_(e)
    }

    /// Unsigned less-than (width-1 result).
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Ult, a, b)
    }

    /// Signed less-than (width-1 result).
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::Slt, a, b)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not_(gt)
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.slt(b, a);
        self.not_(gt)
    }

    /// Zero-extend to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand's width.
    pub fn zext(&mut self, a: TermId, width: u32) -> TermId {
        let w = self.width(a);
        assert!(width >= w, "zext narrows");
        if width == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v, width);
        }
        self.intern(Term::ZExt { a, width })
    }

    /// Sign-extend to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand's width.
    pub fn sext(&mut self, a: TermId, width: u32) -> TermId {
        let w = self.width(a);
        assert!(width >= w, "sext narrows");
        if width == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(sext64(v, w) as u64, width);
        }
        self.intern(Term::SExt { a, width })
    }

    /// Extract bits `hi..=lo`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(a);
        assert!(hi >= lo && hi < w, "bad extract [{hi}:{lo}] of width {w}");
        if lo == 0 && hi == w - 1 {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v >> lo, hi - lo + 1);
        }
        // extract of zext: entirely within the original → extract there;
        // entirely within the zero padding → 0.
        if let Term::ZExt { a: inner, .. } = *self.term(a) {
            let iw = self.width(inner);
            if hi < iw {
                return self.extract(inner, hi, lo);
            }
            if lo >= iw {
                return self.constant(0, hi - lo + 1);
            }
        }
        self.intern(Term::Extract { a, hi, lo })
    }

    /// If-then-else on a width-1 condition.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not width 1 or the branches' widths differ.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        assert_eq!(self.width(c), 1, "ite condition must be width 1");
        assert_eq!(self.width(t), self.width(e), "ite branch width mismatch");
        if let Some(v) = self.as_const(c) {
            return if v == 1 { t } else { e };
        }
        if t == e {
            return t;
        }
        // ite(c, 1, 0) = c and ite(c, 0, 1) = !c at width 1.
        if self.width(t) == 1 {
            if let (Some(tv), Some(ev)) = (self.as_const(t), self.as_const(e)) {
                if tv == 1 && ev == 0 {
                    return c;
                }
                if tv == 0 && ev == 1 {
                    return self.not_(c);
                }
            }
        }
        self.intern(Term::Ite { c, t, e })
    }

    /// Boolean AND over width-1 terms (alias of [`TermPool::and_`]).
    pub fn band(&mut self, a: TermId, b: TermId) -> TermId {
        self.and_(a, b)
    }

    /// Evaluate a term under a variable assignment (symbol id → value).
    ///
    /// Unassigned variables evaluate to 0.
    pub fn eval(&self, id: TermId, env: &HashMap<u32, u64>) -> u64 {
        let w = self.width(id);
        let v = match *self.term(id) {
            Term::Const { value, .. } => value,
            Term::Var { sym, .. } => env.get(&sym).copied().unwrap_or(0),
            Term::Unary { op, a } => {
                let x = self.eval(a, env);
                match op {
                    UnaryOp::Not => !x,
                    UnaryOp::Neg => x.wrapping_neg(),
                }
            }
            Term::Binary { op, a, b } => {
                let wa = self.width(a);
                let x = self.eval(a, env);
                let y = self.eval(b, env);
                match op {
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Shl => {
                        if y >= wa as u64 {
                            0
                        } else {
                            x << y
                        }
                    }
                    BinOp::Lshr => {
                        if y >= wa as u64 {
                            0
                        } else {
                            x >> y
                        }
                    }
                    BinOp::Ashr => {
                        let sh = y.min(wa as u64 - 1);
                        (sext64(x, wa) >> sh) as u64
                    }
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Ult => (x < y) as u64,
                    BinOp::Slt => (sext64(x, wa) < sext64(y, wa)) as u64,
                }
            }
            Term::ZExt { a, .. } => self.eval(a, env),
            Term::SExt { a, .. } => sext64(self.eval(a, env), self.width(a)) as u64,
            Term::Extract { a, lo, .. } => self.eval(a, env) >> lo,
            Term::Ite { c, t, e } => {
                if self.eval(c, env) == 1 {
                    self.eval(t, env)
                } else {
                    self.eval(e, env)
                }
            }
        };
        v & mask(w)
    }

    /// The free variables (symbol ids) of a term.
    pub fn vars(&self, id: TermId) -> Vec<u32> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match *self.term(t) {
                Term::Var { sym, .. } => {
                    if !out.contains(&sym) {
                        out.push(sym);
                    }
                }
                Term::Const { .. } => {}
                Term::Unary { a, .. }
                | Term::ZExt { a, .. }
                | Term::SExt { a, .. }
                | Term::Extract { a, .. } => stack.push(a),
                Term::Binary { a, b, .. } => {
                    stack.push(a);
                    stack.push(b);
                }
                Term::Ite { c, t, e } => {
                    stack.push(c);
                    stack.push(t);
                    stack.push(e);
                }
            }
        }
        out
    }

    /// Render a term as an S-expression (for diagnostics).
    pub fn display(&self, id: TermId) -> String {
        match *self.term(id) {
            Term::Const { value, width } => format!("{value}#{width}"),
            Term::Var { sym, .. } => self.sym_name(sym).to_string(),
            Term::Unary { op, a } => {
                let o = match op {
                    UnaryOp::Not => "not",
                    UnaryOp::Neg => "neg",
                };
                format!("({o} {})", self.display(a))
            }
            Term::Binary { op, a, b } => {
                let o = match op {
                    BinOp::And => "and",
                    BinOp::Or => "or",
                    BinOp::Xor => "xor",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Shl => "<<",
                    BinOp::Lshr => ">>u",
                    BinOp::Ashr => ">>s",
                    BinOp::Eq => "=",
                    BinOp::Ult => "<u",
                    BinOp::Slt => "<s",
                };
                format!("({o} {} {})", self.display(a), self.display(b))
            }
            Term::ZExt { a, width } => format!("(zext{width} {})", self.display(a)),
            Term::SExt { a, width } => format!("(sext{width} {})", self.display(a)),
            Term::Extract { a, hi, lo } => format!("({}[{hi}:{lo}])", self.display(a)),
            Term::Ite { c, t, e } => {
                format!("(ite {} {} {})", self.display(c), self.display(t), self.display(e))
            }
        }
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let a = p.add(x, y);
        let b = p.add(x, y);
        assert_eq!(a, b);
        let c = p.add(y, x); // commutative canonicalization
        assert_eq!(a, c);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.constant(7, 32);
        let b = p.constant(5, 32);
        let s = p.add(a, b);
        assert_eq!(p.as_const(s), Some(12));
        let d = p.sub(b, a);
        assert_eq!(p.as_const(d), Some((-2i64 as u64) & 0xffff_ffff));
        let sl = p.slt(d, a);
        assert_eq!(p.as_const(sl), Some(1), "-2 <s 7");
        let ul = p.ult(d, a);
        assert_eq!(p.as_const(ul), Some(0), "0xfffffffe >=u 7");
    }

    #[test]
    fn identities() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let zero = p.constant(0, 32);
        let ones = p.constant(u64::MAX, 32);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.and_(x, ones), x);
        assert_eq!(p.and_(x, zero), zero);
        assert_eq!(p.or_(x, zero), x);
        assert_eq!(p.xor_(x, x), zero);
        assert_eq!(p.sub(x, x), zero);
        let one = p.constant(1, 32);
        assert_eq!(p.mul(x, one), x);
        assert_eq!(p.mul(x, zero), zero);
        let nn = p.not_(x);
        assert_eq!(p.not_(nn), x);
    }

    #[test]
    fn sub_const_becomes_add() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let five = p.constant(5, 32);
        let minus5 = p.constant((-5i64) as u64, 32);
        let a = p.sub(x, five);
        let b = p.add(x, minus5);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_gathering() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let c3 = p.constant(3, 32);
        let c4 = p.constant(4, 32);
        let c7 = p.constant(7, 32);
        let t = p.add(x, c3);
        let t = p.add(t, c4);
        let want = p.add(x, c7);
        assert_eq!(t, want);
    }

    #[test]
    fn lea_matches_add_then_sub() {
        // The paper's flagship rule: (x + y) - 5 == x + y + (-5).
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let five = p.constant(5, 32);
        let sum = p.add(x, y);
        let guest = p.sub(sum, five);
        let m5 = p.constant((-5i64) as u64, 32);
        let sum2 = p.add(y, x);
        let host = p.add(sum2, m5);
        assert_eq!(guest, host, "syntactic equality after simplification");
    }

    #[test]
    fn extract_and_extensions() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        assert_eq!(p.zext(x, 32), x);
        let b = p.extract(x, 31, 0);
        assert_eq!(b, x);
        let c = p.constant(0xabcd, 32);
        let lo = p.extract(c, 7, 0);
        assert_eq!(p.as_const(lo), Some(0xcd));
        let z = p.zext(lo, 32);
        assert_eq!(p.as_const(z), Some(0xcd));
        let byte = p.constant(0x80, 8);
        let s = p.sext(byte, 32);
        assert_eq!(p.as_const(s), Some(0xffff_ff80));
        // Extract inside zext padding.
        let v8 = p.var("v", 8);
        let zx = p.zext(v8, 32);
        let hi = p.extract(zx, 31, 8);
        assert_eq!(p.as_const(hi), Some(0));
        let within = p.extract(zx, 7, 0);
        assert_eq!(within, v8);
    }

    #[test]
    fn ite_simplifications() {
        let mut p = TermPool::new();
        let c = p.var("c", 1);
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(f, x, y), y);
        assert_eq!(p.ite(c, x, x), x);
        let one = p.tru();
        let zero = p.fls();
        assert_eq!(p.ite(c, one, zero), c);
        let ncc = p.ite(c, zero, one);
        let nc = p.not_(c);
        assert_eq!(ncc, nc);
    }

    #[test]
    fn eval_matches_concrete_ops() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let mut env = HashMap::new();
        let xs = match *p.term(x) {
            Term::Var { sym, .. } => sym,
            _ => unreachable!(),
        };
        let ys = match *p.term(y) {
            Term::Var { sym, .. } => sym,
            _ => unreachable!(),
        };
        env.insert(xs, 0x8000_0000u64);
        env.insert(ys, 3u64);
        let t = p.ashr(x, y);
        assert_eq!(p.eval(t, &env), 0xf000_0000);
        let t = p.lshr(x, y);
        assert_eq!(p.eval(t, &env), 0x1000_0000);
        let t = p.slt(x, y);
        assert_eq!(p.eval(t, &env), 1);
        let t = p.ult(x, y);
        assert_eq!(p.eval(t, &env), 0);
        let t = p.mul(x, y);
        assert_eq!(p.eval(t, &env), 0x8000_0000u64.wrapping_mul(3) & 0xffff_ffff);
    }

    #[test]
    fn vars_collects_free_variables() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let s = p.add(x, y);
        let t = p.mul(s, x);
        let vars = p.vars(t);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn width_of_predicates_is_one() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let e = p.eq(x, y);
        assert_eq!(p.width(e), 1);
        let u = p.ult(x, y);
        assert_eq!(p.width(u), 1);
    }

    #[test]
    fn display_is_readable() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let c = p.constant(4, 32);
        let t = p.add(x, c);
        assert_eq!(p.display(t), "(+ x 4#32)");
    }

    /// The width check is a `debug_assert`: release builds skip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics_in_debug() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 8);
        let _ = p.add(x, y);
    }
}
