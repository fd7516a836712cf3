//! The Poseidon functional machine: executes real CKKS basic operations
//! end-to-end through the five pooled operator cores.
//!
//! This is the "functional simulation" tier of the reproduction: the same
//! datapath structure as the hardware (Fig. 2) — eval-resident operands,
//! MA/MM/NTT/Automorphism/SBT cores time-multiplexed, keyswitch as
//! lift → NTT → key product → accumulate → Moddown — operating on genuine
//! ciphertexts. Results decrypt correctly (validated against the
//! `he-ckks` evaluator), and the pool's usage counters give the exact
//! operator mix each operation consumed.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::retry_once;
use he_ckks::keys::{KeySet, KeySwitchKey};
use he_rns::{Form, RnsBasis, RnsPoly};

use crate::operator::OperatorCounts;
use crate::ops::{rotate_sum_composed, HomomorphicOps, Weight};
use crate::pool::OperatorPool;

/// One of the MA core's two checked modes, add or subtract.
type CheckedMa = fn(&mut OperatorPool, &[u64], &[u64], u64) -> Option<Vec<u64>>;

/// A functional Poseidon executor bound to a CKKS context. Its operations
/// are its [`HomomorphicOps`] impl; the key switch and Moddown they share
/// are public for custom dataflows.
///
/// # Examples
///
/// See `tests/machine.rs`: typical use is `machine.try_mul(&a, &b, &keys)?`
/// with [`HomomorphicOps`] in scope, followed by normal decryption, and
/// `machine.usage()` for the operator mix it consumed.
#[derive(Debug)]
pub struct PoseidonMachine {
    ctx: CkksContext,
    pool: OperatorPool,
}

impl PoseidonMachine {
    /// Builds a machine with `lanes` vector lanes and NTT fusion degree
    /// `fusion_k` for the given context.
    pub fn new(ctx: &CkksContext, lanes: usize, fusion_k: u32) -> Self {
        Self {
            ctx: ctx.clone(),
            pool: OperatorPool::new(ctx.n(), lanes, fusion_k),
        }
    }

    /// Cumulative operator usage across everything executed so far.
    pub fn usage(&self) -> OperatorCounts {
        self.pool.usage()
    }

    /// Resets the usage counters.
    pub fn reset_usage(&mut self) {
        self.pool.reset_usage();
    }

    // ---- residue-level helpers ------------------------------------------

    fn ntt_poly(&mut self, p: &RnsPoly) -> RnsPoly {
        assert_eq!(p.form(), Form::Coeff);
        let residues = p
            .all_residues()
            .iter()
            .zip(p.basis().primes())
            .map(|(r, &q)| {
                let mut d = r.clone();
                self.pool.ntt(&mut d, q);
                d
            })
            .collect();
        RnsPoly::from_residues(p.basis(), residues, Form::Eval)
    }

    fn intt_poly(&mut self, p: &RnsPoly) -> RnsPoly {
        assert_eq!(p.form(), Form::Eval);
        let residues = p
            .all_residues()
            .iter()
            .zip(p.basis().primes())
            .map(|(r, &q)| {
                let mut d = r.clone();
                self.pool.intt(&mut d, q);
                d
            })
            .collect();
        RnsPoly::from_residues(p.basis(), residues, Form::Coeff)
    }

    fn add_poly(&mut self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        assert_eq!(a.basis(), b.basis());
        assert_eq!(a.form(), b.form());
        let residues = (0..a.level_count())
            .map(|j| {
                self.pool
                    .ma(a.residues(j), b.residues(j), a.basis().primes()[j])
            })
            .collect();
        RnsPoly::from_residues(a.basis(), residues, a.form())
    }

    /// The MA core in mode `ma` (add or subtract) through its
    /// retire-boundary sum check on every limb; `None` as soon as one
    /// limb's check fails.
    fn ma_poly_checked(&mut self, a: &RnsPoly, b: &RnsPoly, ma: CheckedMa) -> Option<RnsPoly> {
        assert_eq!(a.basis(), b.basis());
        assert_eq!(a.form(), b.form());
        let residues = (0..a.level_count())
            .map(|j| {
                ma(
                    &mut self.pool,
                    a.residues(j),
                    b.residues(j),
                    a.basis().primes()[j],
                )
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RnsPoly::from_residues(a.basis(), residues, a.form()))
    }

    fn sub_poly(&mut self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        assert_eq!(a.basis(), b.basis());
        let residues = (0..a.level_count())
            .map(|j| {
                self.pool
                    .sub(a.residues(j), b.residues(j), a.basis().primes()[j])
            })
            .collect();
        RnsPoly::from_residues(a.basis(), residues, a.form())
    }

    fn mul_poly(&mut self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        assert_eq!(a.form(), Form::Eval);
        assert_eq!(b.form(), Form::Eval);
        let residues = (0..a.level_count())
            .map(|j| {
                self.pool
                    .mm(a.residues(j), b.residues(j), a.basis().primes()[j])
            })
            .collect();
        RnsPoly::from_residues(a.basis(), residues, Form::Eval)
    }

    fn auto_poly(&mut self, a: &RnsPoly, g: u64) -> RnsPoly {
        assert_eq!(a.form(), Form::Coeff);
        let residues = (0..a.level_count())
            .map(|j| {
                self.pool
                    .automorphism(a.residues(j), g, a.basis().primes()[j])
            })
            .collect();
        RnsPoly::from_residues(a.basis(), residues, Form::Coeff)
    }

    /// Evaluation-domain automorphism: one index-permutation pass through
    /// the Automorphism core per residue (no NTT, no sign logic).
    fn auto_eval_poly(&mut self, a: &RnsPoly, perm: &[usize]) -> RnsPoly {
        assert_eq!(a.form(), Form::Eval);
        let residues = (0..a.level_count())
            .map(|j| self.pool.automorphism_eval(a.residues(j), perm))
            .collect();
        RnsPoly::from_residues(a.basis(), residues, Form::Eval)
    }

    /// Exact lift of key-switch digit `g` of `d` — the integer `x_g ∈ [0,
    /// Q_g)` its group's residues stand for — into the extended basis `ext`,
    /// forward-transformed (hardware: the Modup unit's reduction path — one
    /// SBT per element per target prime).
    fn lift_digit(&mut self, d: &RnsPoly, g: usize, ext: &RnsBasis) -> RnsPoly {
        let limbs = self.ctx.digit_group(d.level_count() - 1, g);
        let rows: Vec<&[u64]> = limbs.map(|j| d.residues(j)).collect();
        let mut x = vec![0; d.n()];
        self.ctx.digit_lift(g).combine(&rows, &mut x);
        let residues: Vec<Vec<u64>> = ext
            .primes()
            .iter()
            .map(|&f| x.iter().map(|&v| (v % u128::from(f)) as u64).collect())
            .collect();
        self.ntt_poly(&RnsPoly::from_residues(ext, residues, Form::Coeff))
    }

    // ---- shared datapaths ------------------------------------------------

    /// HAdd in MA mode `ma` (add or subtract) on both components. The MA
    /// cores run with the retire-boundary sum check, and [`retry_once`]
    /// answers a failed one for the whole operation. Operands must be
    /// level-aligned before they reach the machine.
    fn hadd(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        ma: CheckedMa,
    ) -> Result<Ciphertext, EvalError> {
        if a.level() != b.level() {
            return Err(EvalError::LevelMismatch {
                a: a.level(),
                b: b.level(),
            });
        }
        EvalError::check_scales(a.scale(), b.scale())?;
        retry_once("pool.retire", || {
            let sum = self.ma_poly_checked(a.c0(), b.c0(), ma).and_then(|c0| {
                let c1 = self.ma_poly_checked(a.c1(), b.c1(), ma)?;
                Some(Ciphertext::new(c0, c1, a.scale()))
            });
            Ok(sum)
        })
    }

    /// The automorphism `X → X^g` on both components, then the key switch
    /// back to `s` (rotation and conjugation, unhoisted).
    fn apply_galois(&mut self, a: &Ciphertext, g: u64, key: &KeySwitchKey) -> Ciphertext {
        let t0 = self.auto_poly(a.c0(), g);
        let t1 = self.auto_poly(a.c1(), g);
        let (k0, k1) = self.keyswitch(&t1, key);
        Ciphertext::new(self.add_poly(&t0, &k0), k1, a.scale())
    }

    /// The keyswitch dataflow on machine cores: per digit group, exact lift
    /// of `[d]_{Q_g}` into the extended basis, NTT, key product, MA
    /// accumulate; then Moddown through the MA/MM cascade (Fig. 4).
    pub fn keyswitch(&mut self, d: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let level = d.level_count() - 1;
        let ext = self.ctx.level_basis(level).concat(self.ctx.special_basis());
        let mut acc0: Option<RnsPoly> = None;
        let mut acc1: Option<RnsPoly> = None;
        for g in 0..self.ctx.params().dnum(level + 1) {
            let lifted = self.lift_digit(d, g, &ext);
            let (kb, ka) = key.sliced(&self.ctx, g, level);
            let kb = self.ntt_poly(&kb);
            let ka = self.ntt_poly(&ka);
            let p0 = self.mul_poly(&lifted, &kb);
            let p1 = self.mul_poly(&lifted, &ka);
            acc0 = Some(match acc0 {
                None => p0,
                Some(a) => self.add_poly(&a, &p0),
            });
            acc1 = Some(match acc1 {
                None => p1,
                Some(a) => self.add_poly(&a, &p1),
            });
        }
        let a0 = self.intt_poly(&acc0.expect("level ≥ 0"));
        let a1 = self.intt_poly(&acc1.expect("level ≥ 0"));
        (self.moddown(&a0, level + 1), self.moddown(&a1, level + 1))
    }

    /// Moddown (Eq. 2) through the MA/MM cascade: RNSconv of the special
    /// residues into the chain basis, subtract, scale by `P⁻¹`.
    pub fn moddown(&mut self, a: &RnsPoly, q_len: usize) -> RnsPoly {
        assert_eq!(a.form(), Form::Coeff);
        let total = a.level_count();
        assert!(q_len >= 1 && q_len < total);
        let q_basis = a.basis().prefix(q_len);
        // `P` is a sub-range of the input's own basis: no table is built.
        let p_basis = a.basis().range(q_len..total);

        // RNSconv (Eq. 1) on the cascade: t_j = [a_j · q̂_j⁻¹] via the MM
        // core, then per target prime an MM·(q̂_j mod p) + MA accumulate.
        let hat_inv = p_basis.qhat_inv_mod_self();
        let hats = p_basis.qhat_mod_other(&q_basis);
        let t: Vec<Vec<u64>> = (0..p_basis.len())
            .map(|j| {
                self.pool
                    .mm_scalar(a.residues(q_len + j), hat_inv[j], p_basis.primes()[j])
            })
            .collect();
        let conv_residues: Vec<Vec<u64>> = (0..q_basis.len())
            .map(|i| {
                let q = q_basis.primes()[i];
                let mut acc = vec![0u64; a.basis().n()];
                for (j, tj) in t.iter().enumerate() {
                    // t_j is reduced mod p_j, which can exceed q_i: reduce
                    // into the target prime's range before the MM core
                    // (hardware: the cascade's input SBT stage).
                    let tj_q: Vec<u64> = tj.iter().map(|&v| v % q).collect();
                    let term = self.pool.mm_scalar(&tj_q, hats[i][j], q);
                    self.pool.ma_acc(&mut acc, &term, q);
                }
                acc
            })
            .collect();
        let conv = RnsPoly::from_residues(&q_basis, conv_residues, Form::Coeff);

        let a_q = RnsPoly::from_residues(&q_basis, a.all_residues()[..q_len].to_vec(), Form::Coeff);
        let diff = self.sub_poly(&a_q, &conv);
        let p_inv = p_basis.product_inv_mod_other(&q_basis);
        let residues = (0..q_len)
            .map(|i| {
                self.pool
                    .mm_scalar(diff.residues(i), p_inv[i], q_basis.primes()[i])
            })
            .collect();
        RnsPoly::from_residues(&q_basis, residues, Form::Coeff)
    }
}

/// The basic operations on the machine's cores. Every check the evaluator
/// makes, the machine makes too, with the same [`EvalError`]; ct+ct
/// operands must already be level-aligned (the machine does not drop
/// levels on its own).
impl HomomorphicOps for PoseidonMachine {
    /// HAdd: pure MA traffic on both components, retire-checked.
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.hadd(a, b, OperatorPool::ma_checked)
    }

    /// HSub: the MA core in subtract mode (HAdd operator cost class).
    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.hadd(a, b, OperatorPool::sub_checked)
    }

    /// HAdd ct+pt: adds `m` to `c_0` only, through the checked MA core.
    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        EvalError::check_scales(a.scale(), pt.scale())?;
        let m = pt.poly_at_level(a.level())?;
        retry_once("pool.retire", || {
            let c0 = self.ma_poly_checked(a.c0(), &m, OperatorPool::ma_checked);
            Ok(c0.map(|c0| Ciphertext::new(c0, a.c1().clone(), a.scale())))
        })
    }

    /// PMult: NTT the operands, MM, INTT back (scale multiplies).
    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let m = self.ntt_poly(&pt.poly_at_level(a.level())?);
        let c0 = {
            let e = self.ntt_poly(a.c0());
            let p = self.mul_poly(&e, &m);
            self.intt_poly(&p)
        };
        let c1 = {
            let e = self.ntt_poly(a.c1());
            let p = self.mul_poly(&e, &m);
            self.intt_poly(&p)
        };
        Ok(Ciphertext::new(c0, c1, a.scale() * pt.scale()))
    }

    /// CMult with relinearisation, entirely on machine cores.
    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        if a.level() != b.level() {
            return Err(EvalError::LevelMismatch {
                a: a.level(),
                b: b.level(),
            });
        }
        let a0 = self.ntt_poly(a.c0());
        let a1 = self.ntt_poly(a.c1());
        let b0 = self.ntt_poly(b.c0());
        let b1 = self.ntt_poly(b.c1());
        let d0 = {
            let p = self.mul_poly(&a0, &b0);
            self.intt_poly(&p)
        };
        let d1 = {
            let x = self.mul_poly(&a0, &b1);
            let y = self.mul_poly(&a1, &b0);
            let s = self.add_poly(&x, &y);
            self.intt_poly(&s)
        };
        let d2 = {
            let p = self.mul_poly(&a1, &b1);
            self.intt_poly(&p)
        };
        let (k0, k1) = self.keyswitch(&d2, keys.relin());
        Ok(Ciphertext::new(
            self.add_poly(&d0, &k0),
            self.add_poly(&d1, &k1),
            a.scale() * b.scale(),
        ))
    }

    /// Squaring, executed as [`try_mul`](Self::try_mul) of `a` with itself.
    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        self.try_mul(a, a, keys)
    }

    /// Rescale through the MA/MM cascade: subtract the last component's
    /// lifted residues and scale by `q_l⁻¹` per remaining prime.
    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        if a.level() == 0 {
            return Err(EvalError::RescaleAtLevelZero);
        }
        let rescale_poly = |m: &mut Self, p: &RnsPoly| {
            let l = p.level_count();
            let last_prime = p.basis().primes()[l - 1];
            let lower = p.basis().prefix(l - 1);
            let last = p.residues(l - 1).to_vec();
            let residues: Vec<Vec<u64>> = (0..l - 1)
                .map(|j| {
                    let qj = lower.primes()[j];
                    let last_mod: Vec<u64> = last.iter().map(|&v| v % qj).collect();
                    let diff = m.pool.sub(p.residues(j), &last_mod, qj);
                    let inv = he_math::modops::inv_mod_prime(last_prime % qj, qj)
                        .expect("distinct primes");
                    m.pool.mm_scalar(&diff, inv, qj)
                })
                .collect();
            RnsPoly::from_residues(&lower, residues, Form::Coeff)
        };
        let dropped = *a.c0().basis().primes().last().expect("non-empty") as f64;
        let c0 = rescale_poly(self, a.c0());
        let c1 = rescale_poly(self, a.c1());
        Ok(Ciphertext::new(c0, c1, a.scale() / dropped))
    }

    /// Drops a ciphertext to a lower level by modulus truncation — a pure
    /// data movement, no operator-core traffic.
    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        if level > a.level() {
            return Err(EvalError::LevelMismatch {
                a: a.level(),
                b: level,
            });
        }
        if level == a.level() {
            return Ok(a.clone());
        }
        Ok(Ciphertext::new(
            a.c0().truncate_basis(level + 1),
            a.c1().truncate_basis(level + 1),
            a.scale(),
        ))
    }

    /// Rotation: HFAuto on both components, then keyswitch back to `s`. A
    /// multiple of the slot count is the identity: the operand comes back,
    /// no key is needed and no core sees traffic.
    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        match keys.rotation_switch(steps)? {
            Some((g, key)) => Ok(self.apply_galois(a, g, key)),
            None => Ok(a.clone()),
        }
    }

    /// Conjugation (rotation cost class): the conjugation automorphism on
    /// both components, then keyswitch back to `s`.
    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let g = keys.conjugation_element();
        let key = keys.galois_key(g).ok_or(EvalError::MissingConjugationKey)?;
        Ok(self.apply_galois(a, g, key))
    }

    /// Hoisted batch rotation (Halevi–Shoup): the digit lift + forward
    /// NTTs of `c_1` run once on the machine cores and serve every step in
    /// `steps`; each rotation then costs one coefficient automorphism of
    /// `c_0`, an evaluation-domain index permutation of the hoisted digits
    /// through the Automorphism core, the key products, and a Moddown.
    ///
    /// The key slices are the stored evaluation-form rows — the
    /// paper keeps keyswitch keys HBM-resident in evaluation
    /// representation (§IV-C), so no NTT-core traffic is charged for key
    /// material. [`try_rotate`](Self::try_rotate) keeps the unhoisted per-call
    /// dataflow whose operator mix matches Table I exactly. Keys are
    /// resolved before any core traffic happens.
    fn try_rotate_many(
        &mut self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        // `None`: an identity step, which is the operand at its position.
        let resolved: Vec<Option<(u64, &KeySwitchKey)>> = steps
            .iter()
            .map(|&s| keys.rotation_switch(s))
            .collect::<Result<_, _>>()?;
        if resolved.iter().all(Option::is_none) {
            return Ok(vec![a.clone(); steps.len()]);
        }
        let level = a.level();
        let ext = self.ctx.level_basis(level).concat(self.ctx.special_basis());
        // Hoist: lift + forward-NTT each digit of c1 exactly once.
        let digits: Vec<RnsPoly> = (0..self.ctx.params().dnum(level + 1))
            .map(|g| self.lift_digit(a.c1(), g, &ext))
            .collect();
        let mut out = Vec::with_capacity(resolved.len());
        for switch in resolved {
            let Some((g, key)) = switch else {
                out.push(a.clone());
                continue;
            };
            let perm = he_ntt::galois_permutation(self.ctx.n(), g);
            let t0 = self.auto_poly(a.c0(), g);
            let mut acc0: Option<RnsPoly> = None;
            let mut acc1: Option<RnsPoly> = None;
            for (g, digit) in digits.iter().enumerate() {
                let rotated = self.auto_eval_poly(digit, &perm);
                let (kb, ka) = key.eval_sliced(&self.ctx, g, level);
                let p0 = self.mul_poly(&rotated, &kb);
                let p1 = self.mul_poly(&rotated, &ka);
                acc0 = Some(match acc0 {
                    None => p0,
                    Some(acc) => self.add_poly(&acc, &p0),
                });
                acc1 = Some(match acc1 {
                    None => p1,
                    Some(acc) => self.add_poly(&acc, &p1),
                });
            }
            let a0 = self.intt_poly(&acc0.expect("level ≥ 0"));
            let a1 = self.intt_poly(&acc1.expect("level ≥ 0"));
            let k0 = self.moddown(&a0, level + 1);
            let k1 = self.moddown(&a1, level + 1);
            out.push(Ciphertext::new(self.add_poly(&t0, &k0), k1, a.scale()));
        }
        Ok(out)
    }

    /// The rotations, products and additions the sum stands for, each on
    /// the machine's cores ([`rotate_sum_composed`]).
    fn try_rotate_sum(
        &mut self,
        a: &Ciphertext,
        terms: &[(i64, Option<Weight<'_>>)],
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        rotate_sum_composed(self, a, terms, keys)
    }

    /// Fallible ciphertext refresh: runs the full bootstrapping pipeline
    /// (ModRaise → SubSum → CoeffToSlot → EvalMod → SlotToCoeff) on a
    /// level-0 ciphertext. The pipeline itself is orchestrated by the
    /// software [`Bootstrapper`] over a scheme-level evaluator on this
    /// machine's context — the paper's accelerator likewise reuses the
    /// basic-op datapath for bootstrapping rather than dedicating one.
    ///
    /// [`Bootstrapper`]: he_ckks::bootstrap::Bootstrapper
    fn try_bootstrap(
        &mut self,
        a: &Ciphertext,
        bs: &he_ckks::bootstrap::Bootstrapper,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let eval = Evaluator::new(&self.ctx);
        bs.try_bootstrap(&eval, keys, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_ckks::encoding::Complex;
    use he_ckks::params::CkksParams;
    use rand::SeedableRng;

    /// Per-operator snapshot items must equal `usage()` exactly — they are
    /// two views over the same atomics, so any drift is a double-count bug.
    #[test]
    fn snapshot_items_equal_usage_exactly() {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E1E);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_key(1, &mut rng);
        let mut encrypt = |v: f64| {
            let z = [Complex::new(v, 0.0)];
            let pt = ctx
                .encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale());
            keys.public()
                .encrypt(&Plaintext::new(pt, ctx.default_scale()), &mut rng)
        };
        let (a, b) = (encrypt(1.5), encrypt(-2.0));
        let mut m = PoseidonMachine::new(&ctx, 8, 1);
        let s = m.try_add(&a, &b).unwrap();
        let p = m.try_mul(&s, &a, &keys).unwrap();
        let r = m.try_rescale(&p).unwrap();
        let _ = m.try_rotate(&r, 1, &keys).unwrap();

        let usage = m.usage();
        assert!(usage.total() > 0, "workload produced no operator traffic");
        let snap = m.pool.snapshot();
        for (scope, expected) in [
            ("pool.ma", usage.ma),
            ("pool.mm", usage.mm),
            ("pool.ntt", usage.ntt),
            ("pool.auto", usage.auto),
            ("pool.sbt", usage.sbt),
        ] {
            let stats = snap.get(scope).expect("scope registered");
            assert_eq!(stats.items, expected, "{scope} diverged from usage()");
            assert!(stats.count > 0, "{scope} recorded items but no events");
        }
    }
}
