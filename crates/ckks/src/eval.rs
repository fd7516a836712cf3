//! The homomorphic evaluator: every CKKS basic operation of the paper's
//! §II-A, implemented over the RNS substrates.
//!
//! | paper operation | method |
//! |---|---|
//! | HAdd (ct+ct, ct+pt)   | [`Evaluator::try_add`], [`Evaluator::try_add_plain`] |
//! | PMult                 | [`Evaluator::try_mul_plain`]; by a real constant, a per-limb scalar: [`Evaluator::mul_const`] |
//! | CMult + relinearise   | [`Evaluator::try_mul`], [`Evaluator::try_square`] (a key-switch engine output that joins `d_0`, `d_1`) |
//! | Rescale               | [`Evaluator::try_rescale`] |
//! | Keyswitch (Modup/RNSconv/Moddown) | [`Evaluator::keyswitch`] |
//! | Rotation (automorphism + keyswitch) | [`Evaluator::try_rotate`], [`Evaluator::try_rotate_many`] |
//! | Conjugation           | [`Evaluator::try_conjugate`] |
//! | Σ pt_r ⊙ Rotation_r (a BSGS layer) | [`Evaluator::try_rotate_sum`], [`Evaluator::try_rotate_sums`] |
//!
//! Every key switch runs one private two-stage engine (`switch_fan`) whose
//! outputs are sums of terms: Keyswitch is one output of one term; Rotation,
//! Conjugation and a fan are `R` outputs of one term; the weighted sum is one
//! output of `R` terms. One function (`lift_limb`) lifts the digits, hoisted
//! or not: one per group of α = `special_len` chain primes, exactly.
//!
//! Every operation that can fail on caller input has one form, which
//! returns [`EvalError`].

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use he_math::modops::{add_mod, reduce_i64};
use he_math::ShoupMul;
use he_rns::conv::{lift_exact, rescale as rns_rescale, ModdownSplit};
use he_rns::integrity::fnv1a_words;
use he_rns::poly::automorphism_add_row;
use he_rns::{Form, LazyDot, RnsBasis, RnsPoly, ShoupOperand};

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::keys::{EvalKeyRows, KeySet, KeySwitchKey};

/// The evaluator's telemetry scopes: process-wide, shared by every
/// `Evaluator`.
mod tel {
    poseidon_telemetry::scope_fn! {
        pub mul = "eval.mul";
        /// One event per key-switched output (items = digits·N).
        pub keyswitch = "eval.keyswitch";
        /// The inner-product kernel, one span per extended limb and output
        /// (items = digits·N).
        pub digit = "keyswitch.digit";
        pub rotate = "eval.rotate";
        /// One span per call (items = terms·limbs·N).
        pub rotate_sum = "eval.rotate_sum";
        pub conjugate = "eval.conjugate";
        pub rescale = "eval.rescale";
        pub hoist = "keyswitch.hoist";
        pub reuse = "keyswitch.reuse";
        pub saved_ntt = "keyswitch.saved_ntt";
    }
}

/// The reusable half of a rotation: the digit decomposition of `c_1`,
/// lifted to the extended basis `Q_l ∪ P` and forward-NTT'd **once**
/// (Halevi–Shoup hoisting).
///
/// The lift + forward NTTs of `c_1` are identical for every rotation amount;
/// [`Evaluator::hoist`] pays them once, and the automorphism then acts on the
/// evaluation-form digits as a pure index permutation — the redundant-NTT
/// traffic Poseidon's operator-reuse analysis (§III) targets on the rotation
/// hot path. It records the level of the ciphertext it was hoisted from and
/// an `O(limbs)` fingerprint of its `c_1`;
/// [`Evaluator::apply_galois_hoisted`] refuses any other ciphertext.
#[derive(Debug)]
pub struct HoistedDecomposition {
    level: usize,
    /// Fingerprint of the `c_1` the digits were lifted from.
    source: u64,
    /// Eval-form digit lifts of `c_1` over `Q_l ∪ P`, limb-major: per
    /// extended limb its `dnum` rows, one per digit group.
    rows: Vec<Vec<Vec<u64>>>,
    /// Number of rotations served, for reuse/saved-NTT accounting.
    uses: AtomicU64,
}

impl HoistedDecomposition {
    /// Level of the ciphertext this was hoisted from.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// How many rotations this decomposition has served so far.
    #[inline]
    pub fn uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

/// A plaintext prepared as a weight of [`Evaluator::try_rotate_sum`]: its
/// evaluation-form residues over `Q_level ∪ P`, and its scale.
///
/// A rotation's key-switch output lives over `Q ∪ P` until Moddown divides
/// `P` away; a plaintext that is to multiply it *there* needs its residues on
/// the special primes too, and exactly — [`Evaluator::prepare_plain`] lifts
/// them with [`he_rns::conv::lift_exact`]. The rows do not depend on the
/// ciphertext, so an operand is built once and serves every sum at its level
/// or below.
#[derive(Debug, Clone)]
pub struct PlainOperand {
    level: usize,
    /// `level + 1` chain limbs, then the special limbs.
    rows: Vec<Vec<u64>>,
    scale: f64,
}

impl PlainOperand {
    /// The level it was prepared at: the highest it can weigh a sum at.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The encoding scale Δ of the plaintext.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The row on extended limb `i` of `Q_l ∪ P`, where `q_len = l + 1` does
    /// not exceed the operand's own chain limbs.
    #[inline]
    fn row(&self, i: usize, q_len: usize) -> &[u64] {
        let own = self.level + 1;
        &self.rows[if i < q_len { i } else { own + (i - q_len) }]
    }
}

/// Stateless evaluator bound to a context.
///
/// # Examples
///
/// ```
/// use he_ckks::prelude::*;
/// use he_ckks::encoding::Complex;
/// let ctx = CkksContext::new(CkksParams::toy());
/// let mut rng = rand::thread_rng();
/// let keys = KeySet::generate(&ctx, &mut rng);
/// let eval = Evaluator::new(&ctx);
/// let z = vec![Complex::new(2.0, 0.0); 4];
/// let ct = keys.public().encrypt(&ctx.encoder().encode_rns(ctx.chain_basis(), &z, ctx.default_scale()).into(), &mut rng);
/// # let _ = (eval, ct);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    ctx: CkksContext,
}

impl From<he_rns::RnsPoly> for Plaintext {
    /// Wraps a coefficient polynomial at scale 1 — prefer
    /// [`CkksContext::encoder`] paths, which track the scale.
    fn from(poly: he_rns::RnsPoly) -> Self {
        Plaintext::new(poly, 1.0)
    }
}

impl Evaluator {
    /// Creates an evaluator for `ctx`.
    pub fn new(ctx: &CkksContext) -> Self {
        Self { ctx: ctx.clone() }
    }

    /// The bound context.
    #[inline]
    pub fn context(&self) -> &CkksContext {
        &self.ctx
    }

    /// Both operands at the lower of their levels: borrowed where the level
    /// already matches, so aligned operands cost no copy.
    fn align<'a>(
        &self,
        a: &'a Ciphertext,
        b: &'a Ciphertext,
    ) -> (Cow<'a, Ciphertext>, Cow<'a, Ciphertext>) {
        let level = a.level().min(b.level());
        (truncated(a, level), truncated(b, level))
    }

    /// Drops a ciphertext to a lower level without rescaling (modulus
    /// truncation).
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if `level` exceeds the current level
    /// (truncation can only lower a level).
    pub fn try_drop_to_level(
        &self,
        ct: &Ciphertext,
        level: usize,
    ) -> Result<Ciphertext, EvalError> {
        if level > ct.level() {
            return Err(EvalError::LevelMismatch {
                a: ct.level(),
                b: level,
            });
        }
        Ok(truncated(ct, level).into_owned())
    }

    /// Homomorphic addition (paper HAdd, ct+ct). Operands are aligned to
    /// the lower level; scales must match to within floating slack.
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] if the scales differ by more than
    /// 0.01 %.
    pub fn try_add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let (a, b) = self.align(a, b);
        EvalError::check_scales(a.scale(), b.scale())?;
        Ok(Ciphertext::new(
            a.c0().add(b.c0()),
            a.c1().add(b.c1()),
            a.scale(),
        ))
    }

    /// Homomorphic subtraction; operands are aligned as in
    /// [`try_add`](Self::try_add).
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] if the scales differ by more than
    /// 0.01 %.
    pub fn try_sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let (a, b) = self.align(a, b);
        EvalError::check_scales(a.scale(), b.scale())?;
        Ok(Ciphertext::new(
            a.c0().sub(b.c0()),
            a.c1().sub(b.c1()),
            a.scale(),
        ))
    }

    /// Negation.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        Ciphertext::new(a.c0().neg(), a.c1().neg(), a.scale())
    }

    /// Ciphertext + plaintext addition (paper HAdd, ct+pt): adds `m` to
    /// `c_0` only.
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] if ciphertext and plaintext scales
    /// disagree; [`EvalError::LevelMismatch`] if the plaintext sits below
    /// the ciphertext's level.
    pub fn try_add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        EvalError::check_scales(a.scale(), pt.scale())?;
        let m = pt.poly_at_level(a.level())?;
        Ok(Ciphertext::new(a.c0().add(&m), a.c1().clone(), a.scale()))
    }

    /// Ciphertext − plaintext.
    ///
    /// # Errors
    ///
    /// As [`try_add_plain`](Self::try_add_plain).
    pub fn try_sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        EvalError::check_scales(a.scale(), pt.scale())?;
        let m = pt.poly_at_level(a.level())?;
        Ok(Ciphertext::new(a.c0().sub(&m), a.c1().clone(), a.scale()))
    }

    /// Plaintext multiplication (paper PMult): `(c_0·m, c_1·m)` with scale
    /// Δ_ct · Δ_pt. Rescale afterwards to restore the working scale.
    ///
    /// The plaintext is a fixed multiplicand known ahead of the
    /// ciphertext, so its residues are lifted to Shoup lanes once
    /// ([`he_rns::ShoupOperand`]) and reused for both components — no
    /// Barrett reduction on the pointwise path.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if the plaintext sits below the
    /// ciphertext's level.
    pub fn try_mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let m = ShoupOperand::new(&pt.poly_at_level(a.level())?.into_eval());
        let mut c0 = a.c0().clone().into_eval();
        c0.mul_assign_shoup(&m);
        let mut c1 = a.c1().clone().into_eval();
        c1.mul_assign_shoup(&m);
        Ok(Ciphertext::new(
            c0.into_coeff(),
            c1.into_coeff(),
            a.scale() * pt.scale(),
        ))
    }

    /// [`try_mul_plain`](Self::try_mul_plain), unwrapped. The one panicking
    /// twin left: the benchmark's adapter (`perf/src/adapter.rs`, which a
    /// library change may not edit) calls `mul_plain` as `-> Ciphertext`.
    /// Library code calls the fallible form.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext sits below the ciphertext's level.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.try_mul_plain(a, pt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Multiplies by a real constant at the context scale Δ: both
    /// components times `[round(c·Δ)]_{q_i}` per limb, in coefficient form.
    /// That is the constant polynomial a real constant encodes to, so this
    /// is [`try_mul_plain`](Self::try_mul_plain) by it bit for bit, with no
    /// encode and no transform. Rescale afterwards.
    pub fn mul_const(&self, a: &Ciphertext, c: f64) -> Ciphertext {
        let scale = self.ctx.default_scale();
        mul_integer(a, (c * scale).round() as i64, a.scale() * scale)
    }

    /// Encodes a (replicated) slot vector at a specific level.
    pub fn encode_at_level(&self, z: &[Complex], scale: f64, level: usize) -> Plaintext {
        let basis = self.ctx.level_basis(level);
        Plaintext::new(self.ctx.encoder().encode_rns(&basis, z, scale), scale)
    }

    /// Ciphertext multiplication with relinearisation (paper CMult):
    /// computes `(d̂_0, d̂_1, d̂_2)` in evaluation form and folds `d_2` back
    /// with the relin key through the key-switch engine, which joins `d̂_0`
    /// and `d̂_1` before Moddown (see [`keyswitch`](Self::keyswitch)).
    /// Result scale is Δ_a · Δ_b; rescale afterwards.
    ///
    /// The plain path always succeeds; it shares the signature of the
    /// checked evaluation layer so callers can swap in checked execution
    /// without changing control flow.
    ///
    /// # Errors
    ///
    /// Reserved for [`EvalError::IntegrityFault`] under checked execution.
    pub fn try_mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let (a, b) = self.align(a, b);
        let _span = tel::mul().span(((a.level() + 1) * self.ctx.n()) as u64);
        let a0 = a.c0().clone().into_eval();
        let a1 = a.c1().clone().into_eval();
        let b0 = b.c0().clone().into_eval();
        let b1 = b.c1().clone().into_eval();
        let d0 = a0.mul(&b0);
        let d1 = a0.mul(&b1).add(&a1.mul(&b0));
        let d2 = a1.mul(&b1);
        Ok(self.relinearise([d0, d1, d2], keys, a.scale() * b.scale()))
    }

    /// Squares a ciphertext (saves one eval-form product vs
    /// [`try_mul`](Self::try_mul), whose error contract it shares, and
    /// two forward transforms per limb; bit-identical to `try_mul(a, a)`).
    pub fn try_square(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let _span = tel::mul().span(((a.level() + 1) * self.ctx.n()) as u64);
        let a0 = a.c0().clone().into_eval();
        let a1 = a.c1().clone().into_eval();
        let d0 = a0.mul(&a0);
        let cross = a0.mul(&a1);
        let d1 = cross.add(&cross);
        let d2 = a1.mul(&a1);
        Ok(self.relinearise([d0, d1, d2], keys, a.scale() * a.scale()))
    }

    /// The evaluation-form products `(d̂_0, d̂_1, d̂_2)` relinearised as one
    /// output of the key-switch engine: only `d_2` is inverse-transformed
    /// (its digits need coefficient form); `d̂_2`'s own residue is the row of
    /// limb `i`'s own digit group on limb `i`, and `[P]·d̂_0`, `[P]·d̂_1`
    /// join the chain-limb rows before their inverse NTT, so Moddown returns
    /// `d + Moddown(y)` exactly (`[P·d]_P = 0`).
    fn relinearise(&self, d: [RnsPoly; 3], keys: &KeySet, scale: f64) -> Ciphertext {
        let d2 = d[2].clone().into_coeff();
        let term = [Term::switch((1, keys.relin()))];
        let digits = Digits::new(&self.ctx, &d2);
        let source = Source::Lift(&digits, Some(&d));
        let mut fan = self.switch_fan(d2.level_count() - 1, source, &[&term]);
        let (c0, c1) = fan.pop().expect("a fan of one");
        Ciphertext::new(c0, c1, scale)
    }

    /// The raw keyswitch primitive (paper Keyswitch): given `d` in the
    /// level basis, returns `(e_0, e_1)` with `e_0 + e_1·s ≈ d·s'`.
    ///
    /// Per digit group of α chain primes: lift `[d]_{Q_g}` exactly to the
    /// extended basis `Q_l ∪ P` (Modup, Eq. 3, by Garner's recombination),
    /// multiply by key pair `g`, accumulate, then Moddown (Eq. 2) divides
    /// the `P` factor away: one output of one term through the key-switch
    /// engine.
    pub fn keyswitch(&self, d: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let term = [Term::switch((1, key))];
        let digits = Digits::new(&self.ctx, d);
        let source = Source::Lift(&digits, None);
        let mut fan = self.switch_fan(d.level_count() - 1, source, &[&term]);
        fan.pop().expect("a fan of one")
    }

    /// The key-switch engine, which every key switch runs: one digit
    /// decomposition and a list of outputs, each a sum of [`Term`]s, in two
    /// dispatches whatever their number — the paper's MM → MA → shared SBT →
    /// NTT core → Moddown chain walked limb-major, so that a row serves every
    /// consumer while it is in cache. *Stage A* (items: output × special
    /// limb): inner products, the two rows inverse-NTT'd, Moddown's
    /// `[·p̂_j⁻¹]_{p_j}` scaling — all that lives between the stages. *Stage
    /// B* (items: chain limbs) walks every output past the limb's digit rows
    /// once: inner products, inverse NTT, the limb's Moddown.
    ///
    /// The operand joins as the [`Source`] says, exactly either way: a
    /// rotation adds `σ_g(c_0)` after Moddown; a sum, held unreduced
    /// ([`he_rns::LazyRow`]), joins `[P]·σ_g(ĉ_0)` (one forward NTT of the
    /// limb of `c_0`, read through each term's permutation) to each rotation's
    /// `b` before Moddown divides `P` away, and `[P]·ĉ` for an identity term;
    /// a product joins `[P]·d̂_0` and `[P]·d̂_1` to its `b` and `a`, already
    /// in evaluation form.
    fn switch_fan(
        &self,
        level: usize,
        source: Source<'_>,
        outputs: &[&[Term<'_>]],
    ) -> Vec<(RnsPoly, RnsPoly)> {
        // An armed plan fires `RnsResidue` inside the items: run them here,
        // in item order, so the firing sequence ignores the thread count.
        if poseidon_faults::armed() && poseidon_par::threads() > 1 {
            return poseidon_par::with_threads(1, || self.switch_fan(level, source, outputs));
        }
        let started = std::time::Instant::now();
        let n = self.ctx.n();
        let (q_len, outs) = (level + 1, outputs.len());
        let dnum = self.ctx.params().dnum(q_len);
        let q_basis = self.ctx.level_basis(level);
        let ext_basis = q_basis.concat(self.ctx.special_basis());
        let p_len = ext_basis.len() - q_len;
        let split = ModdownSplit::new(&ext_basis, q_len);
        let summed = matches!(source, Source::Sum(..));
        // Per term: its key rows, by reference into the evaluation-form
        // cache, and on hoisted digits its slot permutation (one table of
        // (N, g) serves every digit and limb); `None` for the identity.
        let hoisted = !matches!(source, Source::Lift(..));
        let switches: Vec<Vec<_>> = outputs
            .iter()
            .map(|terms| {
                let keyed = terms.iter().map(|term| {
                    let (g, key) = term.switch?;
                    let perm = hoisted.then(|| he_ntt::galois_permutation(n, g));
                    Some((key.eval_rows(&self.ctx, level), perm))
                });
                keyed.collect()
            })
            .collect();
        let switched = switches.iter().flatten().flatten().count();
        let identity = switches.iter().flatten().any(Option::is_none);
        // Output `r` on extended limb `i`, from the limb's digit rows and, on
        // a chain limb, `pc = [P]·ĉ` there (a sum's `c_0`, then `c_1` when a
        // term is the identity; a product's `d_0` and `d_1`): its two rows,
        // reduced and inverse-NTT'd.
        let output_rows = |i: usize, digits: &[&[u64]], r: usize, pc: &[Vec<u64>]| {
            let red = ext_basis.reducers()[i];
            let dot = LazyDot::new(red);
            let inner =
                |(rows, perm): &(EvalKeyRows<'_>, Option<Vec<usize>>), b: &mut _, a: &mut _| {
                    let keys: Vec<_> = (0..dnum).map(|g| rows.pair(g, i)).collect();
                    let _span = tel::digit().span((dnum * n) as u64);
                    dot.dot_pair(digits, perm.as_deref(), &keys, b, a);
                };
            let (mut out_b, mut out_a) = (vec![0; n], vec![0; n]);
            if summed {
                // A sum row holds terms `(s + P·c_0)·w` with all three reduced.
                let q = u128::from(red.modulus());
                let rule = LazyDot::with_term_bound(red, 2 * q * q);
                let (mut row_b, mut row_a) = (rule.row(n), rule.row(n));
                let mut sum_b = poseidon_par::scratch::take(n);
                let mut sum_a = poseidon_par::scratch::take(n);
                for (term, switch) in outputs[r].iter().zip(&switches[r]) {
                    let (b, a) = match (switch, pc) {
                        (None, [pc0, pc1]) => (pc0, pc1),
                        (None, _) => continue,
                        (Some(switch), _) => {
                            inner(switch, &mut sum_b, &mut sum_a);
                            if let (Some(pc0), Some(perm)) = (pc.first(), &switch.1) {
                                for (s, &src) in sum_b.iter_mut().zip(perm) {
                                    *s += pc0[src];
                                }
                            }
                            (&sum_b, &sum_a)
                        }
                    };
                    let w = term.weight.map(|w| w.row(i, q_len));
                    row_b.add_weighted(b, w);
                    row_a.add_weighted(a, w);
                }
                poseidon_par::scratch::recycle(sum_b);
                poseidon_par::scratch::recycle(sum_a);
                row_b.reduce_into(&mut out_b);
                row_a.reduce_into(&mut out_a);
            } else {
                let switch = switches[r][0].as_ref().expect("a key switch");
                inner(switch, &mut out_b, &mut out_a);
                let q = red.modulus();
                for (out, pc) in [&mut out_b, &mut out_a].into_iter().zip(pc) {
                    out.iter_mut()
                        .zip(pc)
                        .for_each(|(o, &x)| *o = add_mod(*o, x, q));
                }
            }
            for out in [&mut out_b, &mut out_a] {
                // The `RnsResidue` fault site, where `into_coeff` has it.
                poseidon_faults::tamper(poseidon_faults::FaultSite::RnsResidue, out);
                ext_basis.tables()[i].inverse(out);
            }
            (out_b, out_a)
        };
        let p_mod_q = self.ctx.special_basis().product_mod_other(&q_basis);
        // Weights, in element operations: a digit lifted in the task is a lift
        // and a forward NTT; a switched term is a read and two multiply–adds
        // per digit (in a sum also the join and two weighted adds); an output
        // is two inverse NTTs and two Moddown passes; a sum transforms `c_0`.
        let ntt = ext_basis.tables()[0].weight();
        let lifts = if hoisted { 0 } else { dnum * (n + ntt) };
        let term = (3 * dnum + if summed { 4 } else { 0 }) * n;
        let output = 2 * ntt + 2 * (p_len + 2) * n;
        let total = switched * term + outs * output + if summed { ntt } else { 0 };

        let (t_b, t_a) = poseidon_par::par_map_unzip(outs * p_len, lifts + total / outs, |item| {
            let (r, j) = (item / p_len, item % p_len);
            source.with_digit_rows(&ext_basis, q_len + j, |digits| {
                let (mut t_b, mut t_a) = output_rows(q_len + j, digits, r, &[]);
                split.scale_p_limb(j, &mut t_b);
                split.scale_p_limb(j, &mut t_a);
                (t_b, t_a)
            })
        });
        let mut limbs = poseidon_par::par_map(q_len, lifts + total, |i| {
            source.with_digit_rows(&ext_basis, i, |digits| {
                // `[P]_{q_i}·ĉ` for each component `c` a sum or a product joins.
                let p_mod = ShoupMul::new(p_mod_q[i], q_basis.primes()[i]);
                let scaled_eval = |c: &&RnsPoly| {
                    let mut row = c.residues(i).to_vec();
                    // `RnsResidue`, as `into_eval` fires it.
                    poseidon_faults::tamper(poseidon_faults::FaultSite::RnsResidue, &mut row);
                    ext_basis.tables()[i].forward(&mut row);
                    row.iter_mut().for_each(|x| *x = p_mod.mul(*x));
                    row
                };
                let pc: Vec<_> = match source {
                    Source::Sum(_, a) => [a.c0(), a.c1()][..1 + usize::from(identity)]
                        .iter()
                        .map(scaled_eval)
                        .collect(),
                    // Already in evaluation form: no transform.
                    Source::Lift(_, Some(d)) => d[..2]
                        .iter()
                        .map(|c| c.residues(i).iter().map(|&x| p_mod.mul(x)).collect())
                        .collect(),
                    _ => Vec::new(),
                };
                let finished = |r: usize| {
                    let (mut k_b, mut k_a) = output_rows(i, digits, r, &pc);
                    let scaled = r * p_len..(r + 1) * p_len;
                    split.finish_q_limb(i, &t_b[scaled.clone()], &mut k_b);
                    split.finish_q_limb(i, &t_a[scaled], &mut k_a);
                    if let (Source::Rotations(_, c0), [term]) = (source, outputs[r]) {
                        let (g, _) = term.switch.expect("a rotation");
                        automorphism_add_row(&mut k_b, c0.residues(i), g, q_basis.primes()[i]);
                    }
                    (k_b, k_a)
                };
                (0..outs).map(finished).collect::<Vec<_>>()
            })
        });
        tel::keyswitch().record_shared(switched, (dnum * n) as u64, started.elapsed());
        // Limb-major rows back into one polynomial pair per output.
        let poly = |rows| RnsPoly::from_residues(&q_basis, rows, Form::Coeff);
        let output = |r: usize| {
            let (b, a) = limbs
                .iter_mut()
                .map(|limb| std::mem::take(&mut limb[r]))
                .unzip();
            (poly(b), poly(a))
        };
        (0..outs).map(output).collect()
    }

    /// Precomputes the rotation-independent half of a keyswitch: digit
    /// lift of `c_1` to `Q_l ∪ P`, forward-NTT'd once (Halevi–Shoup
    /// hoisting). Feed the result to [`apply_galois_hoisted`] to rotate
    /// the same ciphertext many times for one lift.
    ///
    /// [`apply_galois_hoisted`]: Self::apply_galois_hoisted
    pub fn hoist(&self, a: &Ciphertext) -> HoistedDecomposition {
        // As in the engine: an armed plan fires `RnsResidue` inside the items.
        if poseidon_faults::armed() && poseidon_par::threads() > 1 {
            return poseidon_par::with_threads(1, || self.hoist(a));
        }
        let level = a.level();
        let ext_basis = self.ctx.level_basis(level).concat(self.ctx.special_basis());
        let digits = Digits::new(&self.ctx, a.c1());
        let dnum = digits.groups.len();
        let _span = tel::hoist().span((dnum * ext_basis.len() * a.n()) as u64);
        // A limb's rows are a lift and a forward NTT per digit.
        let limb_weight = dnum * (a.n() + ext_basis.tables()[0].weight());
        let rows = poseidon_par::par_map(ext_basis.len(), limb_weight, |i| {
            lift_limb(&digits, None, &ext_basis, i)
        });
        HoistedDecomposition {
            level,
            source: fingerprint(a.c1()),
            rows,
            uses: AtomicU64::new(0),
        }
    }

    /// Applies Galois element `g` to `a` using its hoisted decomposition
    /// `h`: the automorphism acts on the pre-NTT'd digits as a pure index
    /// permutation (see [`he_ntt::galois_permutation`]), so no lift and no
    /// forward NTT of ciphertext data happens here — a fan of one through
    /// the key-switch engine, as is every single rotation.
    ///
    /// # Panics
    ///
    /// Panics if `h` was hoisted at a different level than `a`, or from
    /// another ciphertext (see [`HoistedDecomposition`]).
    pub fn apply_galois_hoisted(
        &self,
        a: &Ciphertext,
        h: &HoistedDecomposition,
        g: u64,
        key: &KeySwitchKey,
    ) -> Ciphertext {
        let (level, source) = (a.level(), fingerprint(a.c1()));
        assert_eq!(
            level, h.level,
            "hoisted decomposition level must match the ciphertext"
        );
        assert_eq!(
            source, h.source,
            "hoisted decomposition was lifted from another ciphertext"
        );
        self.note_uses(h, 1);
        let term = [Term::switch((g, key))];
        let mut fan = self.switch_fan(level, Source::Rotations(&h.rows, a.c0()), &[&term]);
        let (c0, c1) = fan.pop().expect("a fan of one");
        Ciphertext::new(c0, c1, a.scale())
    }

    /// Reuse accounting for `count` more rotations served by `h`: every
    /// application after the first rides on the hoisted digits and skips
    /// `dnum` lifts of ext_len forward NTTs.
    fn note_uses(&self, h: &HoistedDecomposition, count: usize) {
        let prior = h.uses.fetch_add(count as u64, Ordering::Relaxed);
        for _ in usize::from(prior == 0)..count {
            let q_len = h.level + 1;
            let ext_len = self.ctx.special_basis().len() + q_len;
            let saved = self.ctx.params().dnum(q_len) * ext_len;
            tel::reuse().add(saved as u64);
            tel::saved_ntt().add(saved as u64);
        }
    }

    /// Rescale (paper Rescale): divides by the last chain prime and drops a
    /// level; the tracked scale shrinks by exactly that prime.
    ///
    /// # Errors
    ///
    /// [`EvalError::RescaleAtLevelZero`] at level 0 (no prime left to
    /// drop).
    pub fn try_rescale(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        if a.level() == 0 {
            return Err(EvalError::RescaleAtLevelZero);
        }
        let _span = tel::rescale().span(((a.level() + 1) * self.ctx.n()) as u64);
        let dropped = *a.c0().basis().primes().last().expect("non-empty") as f64;
        Ok(Ciphertext::new(
            rns_rescale(a.c0()),
            rns_rescale(a.c1()),
            a.scale() / dropped,
        ))
    }

    /// Brings a ciphertext to exactly (`target_level`, ≈`target_scale`) by
    /// modulus truncation plus, when the scales disagree, one multiplication
    /// by the integer `round(correction)` — the constant 1 at the correcting
    /// scale, as a per-limb scalar — followed by a rescale. Used to align
    /// circuit branches of different depth.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if `target_level` exceeds the current
    /// level (truncation cannot raise a level);
    /// [`EvalError::ScaleMismatch`] if a scale correction is needed but is
    /// not an up-scaling, or if the drift is too large to absorb with no
    /// spare level to correct on.
    pub fn try_adjust(
        &self,
        ct: &Ciphertext,
        target_level: usize,
        target_scale: f64,
    ) -> Result<Ciphertext, EvalError> {
        if target_level > ct.level() {
            return Err(EvalError::LevelMismatch {
                a: ct.level(),
                b: target_level,
            });
        }
        let rel = (ct.scale() - target_scale).abs() / target_scale;
        if rel <= 1e-9 || ct.level() == target_level {
            if rel > 1e-4 {
                // No spare level to correct with and the drift is beyond
                // the tolerated approximate-rescaling slack; absorbing it
                // would silently corrupt values.
                return Err(EvalError::ScaleMismatch {
                    a: ct.scale(),
                    b: target_scale,
                });
            }
            let mut out = truncated(ct, target_level).into_owned();
            out.set_scale(target_scale);
            return Ok(out);
        }
        // Drop to one level above the target, multiply by 1 at the
        // correcting scale, rescale down onto the target level.
        let staged = truncated(ct, target_level + 1);
        let dropped = *staged.c0().basis().primes().last().expect("non-empty") as f64;
        let correction = target_scale * dropped / staged.scale();
        if correction <= 1.0 {
            return Err(EvalError::ScaleMismatch {
                a: staged.scale(),
                b: target_scale,
            });
        }
        let one = mul_integer(
            &staged,
            correction.round() as i64,
            staged.scale() * correction,
        );
        let mut out = self.try_rescale(&one)?;
        out.set_scale(target_scale);
        Ok(out)
    }

    /// Rotation (paper Rotation): left-rotates the slot vector by `steps`
    /// (automorphism with `g = 5^steps` + keyswitch).
    ///
    /// A rotation by a multiple of the slot count `N/2` is the identity: it
    /// returns the operand and needs no key.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::MissingRotationKey`] if no rotation key for
    /// `steps` was generated.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_ckks::prelude::*;
    /// use he_ckks::encoding::Complex;
    /// let ctx = CkksContext::new(CkksParams::toy());
    /// let mut rng = rand::thread_rng();
    /// let keys = KeySet::generate(&ctx, &mut rng); // no rotation keys
    /// let eval = Evaluator::new(&ctx);
    /// let pt = Plaintext::new(
    ///     ctx.encoder().encode_rns(ctx.chain_basis(), &[Complex::new(1.0, 0.0)], ctx.default_scale()),
    ///     ctx.default_scale(),
    /// );
    /// let ct = keys.public().encrypt(&pt, &mut rng);
    /// assert!(matches!(
    ///     eval.try_rotate(&ct, 1, &keys),
    ///     Err(EvalError::MissingRotationKey { steps: 1 })
    /// ));
    /// ```
    pub fn try_rotate(
        &self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let Some((g, key)) = keys.rotation_switch(steps)? else {
            return Ok(a.clone());
        };
        let _span = tel::rotate().span(((a.level() + 1) * self.ctx.n()) as u64);
        Ok(self.apply_galois_hoisted(a, &self.hoist(a), g, key))
    }

    /// Rotates one ciphertext by every step in `steps` as one fan of the
    /// key-switch engine: the digit decomposition is hoisted once
    /// (Halevi–Shoup) and each of its rows is loaded once for all the
    /// rotations, in two dispatches. Each output is bit-identical to the
    /// corresponding [`try_rotate`] call — for an identity step, the operand
    /// at its position. All keys are resolved before any work starts, so a
    /// missing key fails fast without a wasted hoist.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::MissingRotationKey`] for the first step whose
    /// rotation key is absent.
    ///
    /// [`try_rotate`]: Self::try_rotate
    pub fn try_rotate_many(
        &self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        let resolved: Vec<Option<(u64, &KeySwitchKey)>> = steps
            .iter()
            .map(|&s| keys.rotation_switch(s))
            .collect::<Result<_, _>>()?;
        let fan: Vec<Term<'_>> = resolved
            .iter()
            .flatten()
            .copied()
            .map(Term::switch)
            .collect();
        if fan.is_empty() {
            return Ok(vec![a.clone(); steps.len()]);
        }
        let h = self.hoist(a);
        self.note_uses(&h, fan.len());
        let started = std::time::Instant::now();
        let outputs: Vec<&[Term<'_>]> = fan.chunks(1).collect();
        let source = Source::Rotations(&h.rows, a.c0());
        let switched = self.switch_fan(a.level(), source, &outputs);
        let items = ((a.level() + 1) * self.ctx.n()) as u64;
        tel::rotate().record_shared(fan.len(), items, started.elapsed());
        let mut rotated = switched.into_iter();
        let rotation = |r: &Option<_>| match r {
            Some(_) => {
                let (c0, c1) = rotated.next().expect("one output per key");
                Ciphertext::new(c0, c1, a.scale())
            }
            None => a.clone(),
        };
        Ok(resolved.iter().map(rotation).collect())
    }

    /// Prepares `pt` as a weight of [`try_rotate_sum`](Self::try_rotate_sum)
    /// for ciphertexts at `level` or below: its residues on `Q_level`, an
    /// exact lift of them to the special primes, and one forward NTT per
    /// extended limb. The operand does not depend on any ciphertext; build it
    /// once and keep it.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if the plaintext sits below `level`;
    /// [`EvalError::InvalidParams`] if a coefficient lies within `Q_level/4`
    /// of the wrap, where the lift is no longer exact (an encoding never
    /// does: its coefficients are near the scale).
    pub fn prepare_plain(&self, pt: &Plaintext, level: usize) -> Result<PlainOperand, EvalError> {
        let m = pt.poly_at_level(level)?;
        let special = self.ctx.special_basis();
        let lifted = lift_exact(&m, special)
            .map_err(|e| EvalError::InvalidParams(format!("plaintext is no weight: {e}")))?;
        let ext_basis = m.basis().concat(special);
        let mut rows = m.into_residues();
        rows.extend(lifted.into_residues());
        // Not `into_eval`: the rows are kept, and an upset that entered them
        // at a fault site would outlive the retry that is meant to clear it.
        let tables = ext_basis.tables();
        poseidon_par::par_for_each_mut(&mut rows, tables[0].weight(), |i, row| {
            tables[i].forward(row);
        });
        Ok(PlainOperand {
            level,
            rows,
            scale: pt.scale(),
        })
    }

    /// A weighted sum of rotations of one ciphertext, `Σ_r pt_r ⊙ rot_r(a)`
    /// — a diagonal matrix–vector layer — as **one** key-switch pass.
    ///
    /// # Errors
    ///
    /// As [`try_rotate_sums`](Self::try_rotate_sums), of which this is the
    /// one-sum case.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_ckks::prelude::*;
    /// use he_ckks::encoding::Complex;
    /// let ctx = CkksContext::new(CkksParams::toy());
    /// let mut rng = rand::thread_rng();
    /// let mut keys = KeySet::generate(&ctx, &mut rng);
    /// keys.add_rotation_key(1, &mut rng);
    /// let eval = Evaluator::new(&ctx);
    /// let encode = |v: f64| eval.encode_at_level(&[Complex::new(v, 0.0)], ctx.default_scale(), ctx.max_level());
    /// let ct = keys.public().encrypt(&encode(2.0), &mut rng);
    /// // 0.5·ct + 0.25·rot_1(ct), every slot holding 2.
    /// let half = eval.prepare_plain(&encode(0.5), ct.level())?;
    /// let quarter = eval.prepare_plain(&encode(0.25), ct.level())?;
    /// let sum = eval.try_rotate_sum(&ct, &[(0, Some(&half)), (1, Some(&quarter))], &keys)?;
    /// let dec = keys.secret().decrypt(&eval.try_rescale(&sum)?);
    /// let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 1)[0].re;
    /// assert!((got - 1.5).abs() < 1e-2);
    /// # Ok::<(), EvalError>(())
    /// ```
    pub fn try_rotate_sum(
        &self,
        a: &Ciphertext,
        terms: &[(i64, Option<&PlainOperand>)],
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let mut sums = self.try_rotate_sums(a, &[terms], keys)?;
        Ok(sums.pop().expect("one sum"))
    }

    /// Several weighted sums of rotations of one ciphertext, each
    /// `Σ_r pt_r ⊙ rot_r(a)`, over **one** hoist and one key-switch pass:
    /// every rotation's key-switch output stays over `Q ∪ P` in evaluation
    /// form and meets its plaintext there, and only the sums are
    /// inverse-NTT'd and Moddown'd (double hoisting, Bossuat et al.,
    /// Eurocrypt 2021). `q(q+k) + q + 2S(q+k)` transforms for `S` sums at
    /// `q = level + 1` limbs and `k` special primes, whatever the number of
    /// terms; the composition [`try_rotate_many`] → [`try_mul_plain`] →
    /// [`try_add`] costs `5q + 2(q+k)` more per term.
    ///
    /// A term without a weight is the bare rotation; a term whose step is a
    /// multiple of the slot count is the operand itself and needs no key. A
    /// sum's scale is the operand's times its weights' (rescale afterwards);
    /// it decrypts to the composition's value but rounds once where that
    /// rounds per term, so its bits differ. Each sum is bit-identical to its
    /// own [`try_rotate_sum`] call.
    ///
    /// [`try_rotate_many`]: Self::try_rotate_many
    /// [`try_mul_plain`]: Self::try_mul_plain
    /// [`try_add`]: Self::try_add
    /// [`try_rotate_sum`]: Self::try_rotate_sum
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] for no sums or a sum of no terms;
    /// [`EvalError::LevelMismatch`] for a weight prepared below the
    /// ciphertext's level; [`EvalError::ScaleMismatch`] for weights of
    /// different scales within a sum, or weighted terms beside bare ones;
    /// [`EvalError::MissingRotationKey`] for the first step without a key —
    /// all before any work.
    pub fn try_rotate_sums(
        &self,
        a: &Ciphertext,
        sums: &[&[(i64, Option<&PlainOperand>)]],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        if sums.is_empty() {
            return Err(EvalError::EmptyOperands);
        }
        let level = a.level();
        let term_scale = |w: Option<&PlainOperand>| a.scale() * w.map_or(1.0, PlainOperand::scale);
        let fans = sums.iter().map(|terms| {
            let first = terms.first().ok_or(EvalError::EmptyOperands)?.1;
            let fan = terms.iter().map(|&(steps, weight)| {
                if let Some(w) = weight.filter(|w| w.level() < level) {
                    return Err(EvalError::LevelMismatch {
                        a: level,
                        b: w.level(),
                    });
                }
                EvalError::check_scales(term_scale(first), term_scale(weight))?;
                let switch = keys.rotation_switch(steps)?;
                Ok(Term { switch, weight })
            });
            fan.collect::<Result<Vec<_>, _>>()
        });
        let fans = fans.collect::<Result<Vec<_>, _>>()?;
        let terms = fans.iter().flatten();
        let rotations = terms.clone().filter(|term| term.switch.is_some()).count();
        let items = ((level + 1) * self.ctx.n()) as u64;
        let _span = tel::rotate_sum().span(terms.count() as u64 * items);
        let hoisted = (rotations > 0).then(|| self.hoist(a));
        if let Some(h) = &hoisted {
            self.note_uses(h, rotations);
        }
        let started = std::time::Instant::now();
        let rows = hoisted.as_ref().map_or(&[][..], |h| &h.rows);
        let outputs: Vec<&[Term<'_>]> = fans.iter().map(Vec::as_slice).collect();
        let summed = self.switch_fan(level, Source::Sum(rows, a), &outputs);
        tel::rotate().record_shared(rotations, items, started.elapsed());
        // A sum's scale is its first term's.
        let scales = sums.iter().map(|terms| term_scale(terms[0].1));
        let sum = |((c0, c1), scale)| Ciphertext::new(c0, c1, scale);
        Ok(summed.into_iter().zip(scales).map(sum).collect())
    }

    /// Complex conjugation of every slot (`g = 2N − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::MissingConjugationKey`] if no conjugation key
    /// was generated.
    pub fn try_conjugate(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let g = keys.conjugation_element();
        let key = keys.galois_key(g).ok_or(EvalError::MissingConjugationKey)?;
        let _span = tel::conjugate().span(((a.level() + 1) * self.ctx.n()) as u64);
        Ok(self.apply_galois_hoisted(a, &self.hoist(a), g, key))
    }
}

/// One term of a key-switch engine output: a key switch under `(g, key)`,
/// or the operand itself (`None`, an identity step), bare or weighted.
struct Term<'a> {
    switch: Option<(u64, &'a KeySwitchKey)>,
    weight: Option<&'a PlainOperand>,
}

impl<'a> Term<'a> {
    /// A bare key switch.
    fn switch(switch: (u64, &'a KeySwitchKey)) -> Self {
        Term {
            switch: Some(switch),
            weight: None,
        }
    }
}

/// Where a key-switch engine call takes its evaluation-form digit rows from,
/// and how the operand joins its outputs.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The digit groups of `d`, lifted inside each limb's task by
    /// [`lift_limb`]. Bare (a key switch), no operand joins; for a product,
    /// the evaluation-form `(d̂_0, d̂_1, d̂_2)` with `d = d_2`: `d̂_2` gives
    /// limb `i` the row of its own group, and `[P]·d̂_0`, `[P]·d̂_1` join
    /// before Moddown.
    Lift(&'a Digits<'a>, Option<&'a [RnsPoly; 3]>),
    /// Hoisted rows, read through each term's slot permutation; each output
    /// is one rotation, and `σ_g` of this `c_0` joins after Moddown.
    Rotations(&'a [Vec<Vec<u64>>], &'a RnsPoly),
    /// The same (none when no term rotates); each output is a sum, and this
    /// ciphertext joins as `[P]·ĉ` before Moddown.
    Sum(&'a [Vec<Vec<u64>>], &'a Ciphertext),
}

impl Source<'_> {
    /// Runs `f` on every digit's evaluation-form row on extended limb `i`.
    fn with_digit_rows<R>(self, ext: &RnsBasis, i: usize, f: impl FnOnce(&[&[u64]]) -> R) -> R {
        match self {
            Source::Lift(digits, product) => {
                let lifted = lift_limb(digits, product.map(|d| &d[2]), ext, i);
                let out = f(&lifted.iter().map(Vec::as_slice).collect::<Vec<_>>());
                lifted.into_iter().for_each(poseidon_par::scratch::recycle);
                out
            }
            Source::Rotations(limbs, _) | Source::Sum(limbs, _) => {
                let limb = limbs.get(i).map_or(&[][..], Vec::as_slice);
                f(&limb.iter().map(Vec::as_slice).collect::<Vec<_>>())
            }
        }
    }
}

/// An `O(limbs)` fingerprint of a polynomial: the first, middle and last
/// residue of every limb, chained through FNV-1a into one word.
fn fingerprint(p: &RnsPoly) -> u64 {
    let tap = |h, row: &Vec<u64>| fnv1a_words(&[h, row[0], row[row.len() / 2], row[row.len() - 1]]);
    p.all_residues().iter().fold(0, tap)
}

/// A coefficient-form `d` at one level, split into its key-switch digits:
/// per group of α chain primes its limbs and, for a group of two or more,
/// the integers `x_g ∈ [0, Q_g)` its residues stand for, recombined once per
/// call ([`he_rns::conv::GroupLift`]) so that each limb task only reduces
/// them.
struct Digits<'a> {
    d: &'a RnsPoly,
    groups: Vec<(Range<usize>, Option<Vec<u128>>)>,
}

impl<'a> Digits<'a> {
    fn new(ctx: &CkksContext, d: &'a RnsPoly) -> Self {
        let level = d.level_count() - 1;
        let group = |g: usize| {
            let limbs = ctx.digit_group(level, g);
            let wide = (limbs.len() > 1).then(|| {
                let rows: Vec<&[u64]> = limbs.clone().map(|j| d.residues(j)).collect();
                let mut x = vec![0; d.n()];
                ctx.digit_lift(g).combine(&rows, &mut x);
                x
            });
            (limbs, wide)
        };
        let groups = (0..ctx.params().dnum(level + 1)).map(group).collect();
        Self { d, groups }
    }
}

/// Every digit of `d` lifted exactly to extended limb `i` of `ext_basis` (a
/// row of Modup, Eq. 3) and forward-NTT'd, one scratch row each, in digit
/// order: the one digit lifter, run inside an unhoisted key switch's limb
/// tasks and by [`Evaluator::hoist`]. On a limb of its own group a digit is
/// that limb's residue; given `d`'s evaluation form `d_eval` it is that
/// residue, copied: no lift and no transform. On any other limb it is `x_g`
/// reduced, or for a one-prime group the residue, copied where already below
/// the target prime and reduced otherwise.
/// Rows of their own, not one `dnum·N` buffer per limb: the hoist measured
/// slower that way on the 2-core reference host (EXPERIMENTS.md §3).
fn lift_limb(
    digits: &Digits<'_>,
    d_eval: Option<&RnsPoly>,
    ext_basis: &RnsBasis,
    i: usize,
) -> Vec<Vec<u64>> {
    let red = &ext_basis.reducers()[i];
    let p = red.modulus();
    let lift = |(limbs, wide): &(Range<usize>, Option<Vec<u128>>)| {
        let mut row = poseidon_par::scratch::take(digits.d.n());
        let own = limbs.contains(&i);
        if let Some(d_eval) = d_eval.filter(|_| own) {
            row.copy_from_slice(d_eval.residues(i));
            return row;
        }
        match wide.as_ref().filter(|_| !own) {
            Some(x) => {
                for (o, &x) in row.iter_mut().zip(x) {
                    *o = red.reduce(x);
                }
            }
            None => {
                // One residue row: the limb's own, or a one-prime group's.
                let t = digits.d.residues(if own { i } else { limbs.start });
                for (o, &v) in row.iter_mut().zip(t) {
                    *o = if v < p { v } else { red.reduce(u128::from(v)) };
                }
            }
        }
        // `RnsResidue`, as `into_eval` fires it on a digit.
        poseidon_faults::tamper(poseidon_faults::FaultSite::RnsResidue, &mut row);
        ext_basis.tables()[i].forward(&mut row);
        row
    };
    digits.groups.iter().map(lift).collect()
}

/// Both components of `ct` times the integer `k`, per limb in coefficient
/// form, at `scale`.
fn mul_integer(ct: &Ciphertext, k: i64, scale: f64) -> Ciphertext {
    let primes = ct.c0().basis().primes();
    let scalars: Vec<u64> = primes.iter().map(|&q| reduce_i64(k, q)).collect();
    Ciphertext::new(
        ct.c0().mul_scalar_per_prime(&scalars),
        ct.c1().mul_scalar_per_prime(&scalars),
        scale,
    )
}

/// `ct` truncated to `level`, which must not exceed its own: itself when it
/// already sits there.
fn truncated(ct: &Ciphertext, level: usize) -> Cow<'_, Ciphertext> {
    if level == ct.level() {
        return Cow::Borrowed(ct);
    }
    Cow::Owned(Ciphertext::new(
        ct.c0().truncate_basis(level + 1),
        ct.c1().truncate_basis(level + 1),
        ct.scale(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        (ctx, keys, eval, rng)
    }

    fn encrypt(
        ctx: &CkksContext,
        keys: &KeySet,
        rng: &mut rand::rngs::StdRng,
        vals: &[f64],
    ) -> Ciphertext {
        let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    }

    fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext, n: usize) -> Vec<f64> {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder()
            .decode_rns(pt.poly(), pt.scale(), n)
            .iter()
            .map(|c| c.re)
            .collect()
    }

    #[test]
    fn add_sub_neg_are_slotwise() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[1.0, 2.0, -3.0, 0.5]);
        let b = encrypt(&ctx, &keys, &mut rng, &[0.25, -1.0, 7.0, 2.0]);
        let sum = decrypt(&ctx, &keys, &eval.try_add(&a, &b).unwrap(), 4);
        let diff = decrypt(&ctx, &keys, &eval.try_sub(&a, &b).unwrap(), 4);
        let neg = decrypt(&ctx, &keys, &eval.neg(&a), 4);
        for (g, w) in sum.iter().zip([1.25, 1.0, 4.0, 2.5]) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
        for (g, w) in diff.iter().zip([0.75, 3.0, -10.0, -1.5]) {
            assert!((g - w).abs() < 1e-4);
        }
        for (g, w) in neg.iter().zip([-1.0, -2.0, 3.0, -0.5]) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn plain_ops_match_semantics() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[1.0, -2.0]);
        let pt = eval.encode_at_level(
            &[Complex::new(0.5, 0.0), Complex::new(4.0, 0.0)],
            ctx.default_scale(),
            a.level(),
        );
        let got = decrypt(&ctx, &keys, &eval.try_add_plain(&a, &pt).unwrap(), 2);
        assert!((got[0] - 1.5).abs() < 1e-4 && (got[1] - 2.0).abs() < 1e-4);
        let prod = eval
            .try_rescale(&eval.try_mul_plain(&a, &pt).unwrap())
            .unwrap();
        let got = decrypt(&ctx, &keys, &prod, 2);
        assert!(
            (got[0] - 0.5).abs() < 1e-3 && (got[1] + 8.0).abs() < 1e-3,
            "{got:?}"
        );
    }

    #[test]
    fn cmult_with_relin_multiplies_slotwise() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[1.5, -2.0, 0.0, 3.0]);
        let b = encrypt(&ctx, &keys, &mut rng, &[2.0, 2.5, 5.0, -1.0]);
        let prod = eval
            .try_rescale(&eval.try_mul(&a, &b, &keys).unwrap())
            .unwrap();
        let got = decrypt(&ctx, &keys, &prod, 4);
        for (g, w) in got.iter().zip([3.0, -5.0, 0.0, -3.0]) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn square_matches_mul_self() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[1.25, -0.5]);
        let s1 = decrypt(
            &ctx,
            &keys,
            &eval
                .try_rescale(&eval.try_square(&a, &keys).unwrap())
                .unwrap(),
            2,
        );
        let s2 = decrypt(
            &ctx,
            &keys,
            &eval
                .try_rescale(&eval.try_mul(&a, &a, &keys).unwrap())
                .unwrap(),
            2,
        );
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-2);
        }
        assert!((s1[0] - 1.5625).abs() < 1e-2);
    }

    #[test]
    fn rotation_shifts_slots_left() {
        let (ctx, keys, eval, mut rng) = setup();
        let mut keys = keys;
        keys.add_rotation_key(1, &mut rng);
        // Use a full-slot vector so rotation is a clean cyclic shift.
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 17) as f64 / 4.0).collect();
        let a = encrypt(&ctx, &keys, &mut rng, &vals);
        let rot = eval.try_rotate(&a, 1, &keys).unwrap();
        let got = decrypt(&ctx, &keys, &rot, slots);
        for i in 0..8 {
            let want = vals[(i + 1) % slots];
            assert!(
                (got[i] - want).abs() < 1e-3,
                "slot {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn conjugation_flips_imaginary_parts() {
        let (ctx, keys, eval, mut rng) = setup();
        let mut keys = keys;
        keys.add_conjugation_key(&mut rng);
        let z = vec![Complex::new(1.0, 2.0), Complex::new(-0.5, -1.5)];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let conj = eval.try_conjugate(&ct, &keys).unwrap();
        let dec = keys.secret().decrypt(&conj);
        let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 2);
        assert!((got[0].im + 2.0).abs() < 1e-3);
        assert!((got[1].im - 1.5).abs() < 1e-3);
        assert!((got[0].re - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rescale_preserves_value_and_drops_level() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[4.0]);
        let b = encrypt(&ctx, &keys, &mut rng, &[0.25]);
        let prod = eval.try_mul(&a, &b, &keys).unwrap();
        let level_before = prod.level();
        let rs = eval.try_rescale(&prod).unwrap();
        assert_eq!(rs.level(), level_before - 1);
        let got = decrypt(&ctx, &keys, &rs, 1);
        assert!((got[0] - 1.0).abs() < 1e-2, "{}", got[0]);
    }

    #[test]
    fn deep_circuit_three_multiplications() {
        let (ctx, keys, eval, mut rng) = setup();
        // ((2·1.5)·0.5) = 1.5 over 3 CMults on the toy 4-prime chain.
        let a = encrypt(&ctx, &keys, &mut rng, &[2.0]);
        let b = encrypt(&ctx, &keys, &mut rng, &[1.5]);
        let c = encrypt(&ctx, &keys, &mut rng, &[0.5]);
        let ab = eval
            .try_rescale(&eval.try_mul(&a, &b, &keys).unwrap())
            .unwrap();
        let abc = eval
            .try_rescale(&eval.try_mul(&ab, &c, &keys).unwrap())
            .unwrap();
        let got = decrypt(&ctx, &keys, &abc, 1);
        assert!((got[0] - 1.5).abs() < 0.05, "{}", got[0]);
    }

    #[test]
    fn try_rotate_reports_missing_key() {
        let (ctx, keys, eval, mut rng) = setup(); // no rotation keys generated
        let a = encrypt(&ctx, &keys, &mut rng, &[1.0]);
        match eval.try_rotate(&a, 5, &keys) {
            Err(EvalError::MissingRotationKey { steps }) => assert_eq!(steps, 5),
            other => panic!("expected MissingRotationKey, got {other:?}"),
        }
        assert!(matches!(
            eval.try_conjugate(&a, &keys),
            Err(EvalError::MissingConjugationKey)
        ));
    }

    #[test]
    fn try_rotate_succeeds_with_key() {
        let (ctx, mut keys, eval, mut rng) = setup();
        keys.add_rotation_key(1, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64).collect();
        let a = encrypt(&ctx, &keys, &mut rng, &vals);
        let rot = eval.try_rotate(&a, 1, &keys).expect("key present");
        let got = decrypt(&ctx, &keys, &rot, slots);
        assert!((got[0] - vals[1]).abs() < 1e-3);
    }

    #[test]
    fn hoisted_rotation_is_bit_identical_to_rotate() {
        let (ctx, mut keys, eval, mut rng) = setup();
        keys.add_rotation_key(1, &mut rng);
        keys.add_rotation_key(2, &mut rng);
        let slots = ctx.params().slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 / 3.0).collect();
        let a = encrypt(&ctx, &keys, &mut rng, &vals);
        let h = eval.hoist(&a);
        assert_eq!(h.level(), a.level());
        for steps in [1i64, 2] {
            let g = keys.galois_element(steps);
            let key = keys.galois_key(g).expect("key present");
            let hoisted = eval.apply_galois_hoisted(&a, &h, g, key);
            let plain = eval.try_rotate(&a, steps, &keys).unwrap();
            assert_eq!(hoisted, plain, "steps {steps}");
        }
        assert_eq!(h.uses(), 2);
        let batch = eval.try_rotate_many(&a, &[1, 2], &keys).unwrap();
        assert_eq!(batch[0], eval.try_rotate(&a, 1, &keys).unwrap());
        assert_eq!(batch[1], eval.try_rotate(&a, 2, &keys).unwrap());
    }

    #[test]
    fn rotate_many_fails_fast_on_missing_key() {
        let (ctx, mut keys, eval, mut rng) = setup();
        keys.add_rotation_key(1, &mut rng);
        let a = encrypt(&ctx, &keys, &mut rng, &[1.0]);
        match eval.try_rotate_many(&a, &[1, 4], &keys) {
            Err(EvalError::MissingRotationKey { steps }) => assert_eq!(steps, 4),
            other => panic!("expected MissingRotationKey, got {other:?}"),
        }
        assert!(eval
            .try_rotate_many(&a, &[], &keys)
            .expect("empty")
            .is_empty());
    }

    #[test]
    fn add_rejects_scale_mismatch() {
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, &[1.0]);
        let mut b = encrypt(&ctx, &keys, &mut rng, &[1.0]);
        b.set_scale(b.scale() * 3.0);
        let want = EvalError::ScaleMismatch {
            a: a.scale(),
            b: b.scale(),
        };
        assert_eq!(eval.try_add(&a, &b), Err(want.clone()));
        assert_eq!(eval.try_sub(&a, &b), Err(want));
    }
}
