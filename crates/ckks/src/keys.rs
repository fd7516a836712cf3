//! Key generation: secret, public, relinearisation, and Galois keys.
//!
//! Keyswitching keys use the hybrid RNS layout of the paper's Eq. 1–3 with
//! α = `special_len` consecutive chain primes per digit, `dnum = ⌈(level +
//! 1)/α⌉` ([`CkksParams::dnum`](crate::params::CkksParams::dnum)). Digit
//! `g` of a key for source secret `s'` under target secret `s` is
//! `(b_g, a_g) ∈ R²_{PQ}`, `b_g = −a_g·s + e_g + P·s'` on every component of
//! group `g` and `−a_g·s + e_g` on every other (`P` the special primes'
//! product). Using it is Modup → multiply → Moddown. (The recorder prices
//! the paper's machine, which extends the whole polynomial at once:
//! `OpParams::with_dnum(.., 1)` in `poseidon_core::decompose`.)

use std::collections::HashMap;

use he_rns::{Form, RnsBasis, RnsPoly};
use rand::Rng;

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::error::EvalError;
use crate::sampling;

/// The secret key: a ternary polynomial `s`.
///
/// Raw signed coefficients are retained so `s` can be instantiated in any
/// basis (full, level-truncated) and composed with automorphisms.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        Self {
            coeffs: sampling::ternary_coeffs(ctx.n(), rng),
        }
    }

    /// Rebuilds a secret key from its signed coefficients — the
    /// deserialization entry point for the wire format.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not exactly `N` long.
    pub fn from_coeffs(ctx: &CkksContext, coeffs: Vec<i64>) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "secret must have N coefficients");
        Self { coeffs }
    }

    /// The signed ternary coefficients of `s`.
    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Instantiates `s` in `basis`, coefficient form.
    fn poly_in(&self, basis: &RnsBasis) -> RnsPoly {
        RnsPoly::from_i64_coeffs(basis, &self.coeffs)
    }

    /// Decrypts: `m = c_0 + c_1·s (mod Q_level)` at the ciphertext's scale.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let basis = ct.c0().basis().clone();
        let s = self.poly_in(&basis).into_eval();
        let c1s = ct.c1().clone().into_eval().mul(&s).into_coeff();
        Plaintext::new(ct.c0().add(&c1s), ct.scale())
    }
}

/// The public encryption key `(b, a) = (−a·s + e, a) mod Q`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    ctx: CkksContext,
    b: RnsPoly,
    a: RnsPoly,
}

impl PublicKey {
    /// Derives a public key from the secret key.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, sk: &SecretKey, rng: &mut R) -> Self {
        let basis = ctx.chain_basis();
        let a = sampling::uniform_poly(basis, Form::Coeff, rng);
        let e = RnsPoly::from_i64_coeffs(
            basis,
            &sampling::gaussian_coeffs(ctx.n(), ctx.params().error_std, rng),
        );
        let s = sk.poly_in(basis).into_eval();
        let b = a.clone().into_eval().mul(&s).into_coeff().neg().add(&e);
        Self {
            ctx: ctx.clone(),
            b,
            a,
        }
    }

    /// Rebuilds a public key from its `(b, a)` components (chain basis,
    /// coefficient form) — the deserialization entry point.
    pub fn from_parts(ctx: &CkksContext, b: RnsPoly, a: RnsPoly) -> Self {
        Self {
            ctx: ctx.clone(),
            b,
            a,
        }
    }

    /// The masked component `b = −a·s + e`.
    #[inline]
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The uniform component `a`.
    #[inline]
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }

    /// Encrypts a plaintext: `(v·b + e_0 + m, v·a + e_1)`.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let basis = pt.poly().basis().clone();
        let level = basis.len();
        let n = self.ctx.n();
        let std = self.ctx.params().error_std;
        let v = RnsPoly::from_i64_coeffs(&basis, &sampling::ternary_coeffs(n, rng)).into_eval();
        let e0 = RnsPoly::from_i64_coeffs(&basis, &sampling::gaussian_coeffs(n, std, rng));
        let e1 = RnsPoly::from_i64_coeffs(&basis, &sampling::gaussian_coeffs(n, std, rng));
        let b = self.b.truncate_basis(level).into_eval();
        let a = self.a.truncate_basis(level).into_eval();
        let c0 = v.mul(&b).into_coeff().add(&e0).add(pt.poly());
        let c1 = v.mul(&a).into_coeff().add(&e1);
        Ciphertext::new(c0, c1, pt.scale())
    }
}

/// A keyswitching key for one source secret (s², or s∘τ_g), in the RNS
/// digit-decomposed hybrid form: one `(b_g, a_g)` pair per digit group of α
/// chain primes, where `b_g = −a_g·s + e_g` everywhere **except** on the
/// RNS components of group `g`, which additionally carry `P·s'`.
///
/// At apply time the operand's residues on group `g` are lifted *exactly*
/// to the integer `x_g ∈ [0, Q_g)` they stand for, reduced onto the
/// extended basis and multiplied against pair `g`. On a component of group
/// `h` only `x_h ≡ d` meets the gadget, so the sum decrypts to
/// `P·d·s' + Σ_g x_g·e_g`, and Moddown divides the `P` away. The key
/// structure is level-independent: at a level whose last group is partial
/// the same identity holds on the primes left (CRT uniqueness).
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// One `(b_g, a_g)` pair per digit group, over `Q ∪ P`, in evaluation
    /// form only — as Poseidon keeps keys HBM-resident (§IV-C). The NTT is
    /// per-prime, so a level-`l` keyswitch reads a subset of these rows.
    pub(crate) pairs: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Generates a key switching `source` (coefficients of `s'`) to `sk`.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        sk: &SecretKey,
        source: &[i64],
        rng: &mut R,
    ) -> Self {
        let full = ctx.full_basis();
        let s = sk.poly_in(full).into_eval();
        let chain = ctx.chain_basis();
        let p_mod_q = ctx.special_basis().product_mod_other(chain);
        // This digit loop stays serial on purpose: each iteration draws
        // from the shared `rng`, and the draw order defines the key. The
        // heavy math inside (NTT/mul/add on RnsPoly) still dispatches
        // limb-parallel, and stays thread-count-invariant.
        let pairs = (0..ctx.params().dnum(chain.len()))
            .map(|g| {
                let a = sampling::uniform_poly(full, Form::Coeff, rng).into_eval();
                let mut e = RnsPoly::from_i64_coeffs(
                    full,
                    &sampling::gaussian_coeffs(ctx.n(), ctx.params().error_std, rng),
                );
                // Add P·s' on the components of group g only, before the
                // transform: the NTT is linear, so `NTT(e + P·s') − â·ŝ` is
                // `b_g`.
                for j in ctx.digit_group(ctx.max_level(), g) {
                    let qj = chain.primes()[j];
                    let red = he_math::BarrettReducer::new(qj);
                    let comp = &mut e.all_residues_mut()[j];
                    for (c, &sv) in comp.iter_mut().zip(source) {
                        let sv_mod = he_math::modops::reduce_i64(sv, qj);
                        *c = he_math::modops::add_mod(*c, red.mul(p_mod_q[j], sv_mod), qj);
                    }
                }
                (e.into_eval().sub(&a.mul(&s)), a)
            })
            .collect();
        Self::from_pairs(pairs)
    }

    /// Builds a key from its digit pairs over `Q ∪ P`, one per digit group
    /// — also the deserialization entry point for the wire format.
    ///
    /// # Panics
    ///
    /// Panics unless every row is in evaluation form.
    pub fn from_pairs(pairs: Vec<(RnsPoly, RnsPoly)>) -> Self {
        let eval = |p: &RnsPoly| p.form() == Form::Eval;
        assert!(
            pairs.iter().all(|(b, a)| eval(b) && eval(a)),
            "key rows must be in eval form"
        );
        Self { pairs }
    }

    /// The per-digit key pairs `(b_g, a_g)` over `Q ∪ P`, in evaluation form.
    pub fn pairs(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.pairs
    }

    /// Pair `g` restricted to level `l` plus the special primes, inverse-
    /// transformed to coefficient form for an executor (the Poseidon
    /// functional machine) that runs the keyswitch on its own NTT cores.
    pub fn sliced(&self, ctx: &CkksContext, g: usize, level: usize) -> (RnsPoly, RnsPoly) {
        let (b, a) = self.slice(ctx, g, level);
        (b.into_coeff(), a.into_coeff())
    }

    /// Pair `g` restricted to level `l` plus the special primes, in
    /// evaluation form: a residue copy with **zero** NTT work.
    pub fn eval_sliced(&self, ctx: &CkksContext, g: usize, level: usize) -> (RnsPoly, RnsPoly) {
        #[allow(unused_mut)]
        let (mut b, mut a) = self.slice(ctx, g, level);
        // Injection point for the `KeyCache` fault site: a corrupted
        // HBM-resident key digit read from the key store. The tamper lands
        // on the sliced copy, never the store itself, so a retry re-reads
        // clean key material.
        for p in [&mut b, &mut a] {
            poseidon_faults::tamper_rows(
                poseidon_faults::FaultSite::KeyCache,
                p.all_residues_mut(),
            );
        }
        (b, a)
    }

    /// A copy of pair `g`'s rows on `Q_level ∪ P`, in evaluation form.
    fn slice(&self, ctx: &CkksContext, g: usize, level: usize) -> (RnsPoly, RnsPoly) {
        let keep = level + 1;
        let chain_len = ctx.chain_basis().len();
        let basis = ctx.level_basis(level).concat(ctx.special_basis());
        let rows = |p: &RnsPoly| {
            let residues = (0..basis.len())
                .map(|i| p.residues(ext_row(i, keep, chain_len)).to_vec())
                .collect();
            RnsPoly::from_residues(&basis, residues, Form::Eval)
        };
        let (b, a) = &self.pairs[g];
        (rows(b), rows(a))
    }

    /// The evaluation-form rows a level-`level` keyswitch reads, by
    /// reference into the store: nothing is copied and key memory does not
    /// grow. Digits `0..dnum(level + 1)`, extended limbs `Q_level ∪ P`.
    pub(crate) fn eval_rows(&self, ctx: &CkksContext, level: usize) -> EvalKeyRows<'_> {
        let keep = level + 1;
        let chain_len = ctx.chain_basis().len();
        // Injection point for the `KeyCache` fault site: a corrupted
        // HBM-resident key digit read from the key store. The tamper lands
        // on a private copy made serially before the kernel fans out —
        // never on the store, so a retry re-reads clean key material, and
        // in digit order, so the firing sequence does not depend on the
        // thread count.
        let tampered = poseidon_faults::armed().then(|| {
            let copy = |p: RnsPoly| {
                let mut rows = p.into_residues();
                poseidon_faults::tamper_rows(poseidon_faults::FaultSite::KeyCache, &mut rows);
                rows
            };
            (0..ctx.params().dnum(keep))
                .map(|g| {
                    let (b, a) = self.slice(ctx, g, level);
                    (copy(b), copy(a))
                })
                .collect()
        });
        EvalKeyRows {
            pairs: &self.pairs,
            keep,
            chain_len,
            tampered,
        }
    }
}

/// Row of a full-basis (`Q ∪ P`) key polynomial that holds extended limb
/// `i` of `Q_level ∪ P`, where `keep = level + 1`.
#[inline]
fn ext_row(i: usize, keep: usize, chain_len: usize) -> usize {
    if i < keep {
        i
    } else {
        chain_len + (i - keep)
    }
}

/// A by-reference view of a key's evaluation-form rows at one level (see
/// [`KeySwitchKey::eval_rows`]).
pub(crate) struct EvalKeyRows<'k> {
    pairs: &'k [(RnsPoly, RnsPoly)],
    keep: usize,
    chain_len: usize,
    #[allow(clippy::type_complexity)]
    tampered: Option<Vec<(Vec<Vec<u64>>, Vec<Vec<u64>>)>>,
}

impl EvalKeyRows<'_> {
    /// Rows `(b_g, a_g)` of digit `g` on extended limb `i`.
    #[inline]
    pub(crate) fn pair(&self, g: usize, i: usize) -> (&[u64], &[u64]) {
        if let Some(copies) = &self.tampered {
            let (b, a) = &copies[g];
            return (&b[i], &a[i]);
        }
        let row = ext_row(i, self.keep, self.chain_len);
        let (b, a) = &self.pairs[g];
        (b.residues(row), a.residues(row))
    }
}

/// The full key material: secret, public, relinearisation, and Galois keys.
///
/// # Examples
///
/// ```
/// use he_ckks::prelude::*;
/// let ctx = CkksContext::new(CkksParams::toy());
/// let mut rng = rand::thread_rng();
/// let mut keys = KeySet::generate(&ctx, &mut rng);
/// keys.add_rotation_key(1, &mut rng);
/// assert!(keys.galois_key_for_rotation(1).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct KeySet {
    ctx: CkksContext,
    secret: SecretKey,
    public: PublicKey,
    relin: KeySwitchKey,
    /// Galois keys by Galois element `g`.
    galois: HashMap<u64, KeySwitchKey>,
}

impl KeySet {
    /// Generates secret, public, and relinearisation keys.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        let secret = SecretKey::generate(ctx, rng);
        Self::from_secret(ctx, secret, rng)
    }

    /// Generates keys with a sparse ternary secret of the given Hamming
    /// weight — bootstrapping needs the small `‖s‖₁` to bound the ModRaise
    /// overflow polynomial `I`.
    pub fn generate_sparse<R: Rng + ?Sized>(
        ctx: &CkksContext,
        hamming: usize,
        rng: &mut R,
    ) -> Self {
        let secret = SecretKey {
            coeffs: sampling::sparse_ternary_coeffs(ctx.n(), hamming, rng),
        };
        Self::from_secret(ctx, secret, rng)
    }

    fn from_secret<R: Rng + ?Sized>(ctx: &CkksContext, secret: SecretKey, rng: &mut R) -> Self {
        let public = PublicKey::generate(ctx, &secret, rng);
        // s² as signed coefficients: compute in a scratch basis wide enough
        // to hold |s²|∞ ≤ N, then centre.
        let s2 = square_signed(&secret.coeffs);
        let relin = KeySwitchKey::generate(ctx, &secret, &s2, rng);
        Self {
            ctx: ctx.clone(),
            secret,
            public,
            relin,
            galois: HashMap::new(),
        }
    }

    /// Rebuilds a key set from deserialized components. Galois keys are
    /// keyed by their raw Galois element `g` (rotations use `5^k mod 2N`,
    /// conjugation uses `2N − 1`).
    pub fn from_parts(
        ctx: &CkksContext,
        secret: SecretKey,
        public: PublicKey,
        relin: KeySwitchKey,
        galois: Vec<(u64, KeySwitchKey)>,
    ) -> Self {
        Self {
            ctx: ctx.clone(),
            secret,
            public,
            relin,
            galois: galois.into_iter().collect(),
        }
    }

    /// All Galois keys as `(g, key)` pairs, sorted by `g` — a deterministic
    /// iteration order for serialization (the backing map is unordered).
    pub fn galois_entries(&self) -> Vec<(u64, &KeySwitchKey)> {
        let mut entries: Vec<(u64, &KeySwitchKey)> =
            self.galois.iter().map(|(&g, k)| (g, k)).collect();
        entries.sort_unstable_by_key(|&(g, _)| g);
        entries
    }

    /// The context the key set was built for: a handle on the one copy
    /// its builder (or the key-set decoder) shares.
    #[inline]
    pub fn context(&self) -> &CkksContext {
        &self.ctx
    }

    /// The secret key.
    #[inline]
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The public key.
    #[inline]
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The relinearisation key (for `s²`).
    #[inline]
    pub fn relin(&self) -> &KeySwitchKey {
        &self.relin
    }

    /// The Galois element for a left rotation by `steps` slots:
    /// `g = 5^steps mod 2N` (negative steps rotate right).
    pub fn galois_element(&self, steps: i64) -> u64 {
        let two_n = 2 * self.ctx.n() as u64;
        let slots = self.ctx.n() as i64 / 2;
        let k = steps.rem_euclid(slots) as u64;
        he_math::modops::pow_mod(5, k, two_n)
    }

    /// The Galois element for complex conjugation: `2N − 1`.
    pub fn conjugation_element(&self) -> u64 {
        2 * self.ctx.n() as u64 - 1
    }

    /// Adds a Galois key enabling rotation by `steps`.
    pub fn add_rotation_key<R: Rng + ?Sized>(&mut self, steps: i64, rng: &mut R) {
        let g = self.galois_element(steps);
        self.add_galois_key(g, rng);
    }

    /// Adds a Galois key for raw element `g` (rotations use `5^k`,
    /// conjugation uses `2N − 1`).
    fn add_galois_key<R: Rng + ?Sized>(&mut self, g: u64, rng: &mut R) {
        if self.galois.contains_key(&g) {
            return;
        }
        // Source secret: s(X^g).
        let s_g = automorphism_signed(&self.secret.coeffs, g);
        let key = KeySwitchKey::generate(&self.ctx, &self.secret, &s_g, rng);
        self.galois.insert(g, key);
    }

    /// Adds Galois keys for every step in `steps` (duplicates are free).
    pub fn add_rotation_keys<R, I>(&mut self, steps: I, rng: &mut R)
    where
        R: Rng + ?Sized,
        I: IntoIterator<Item = i64>,
    {
        for s in steps {
            self.add_rotation_key(s, rng);
        }
    }

    /// Adds a conjugation key.
    pub fn add_conjugation_key<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.add_galois_key(self.conjugation_element(), rng);
    }

    /// What a left rotation by `steps` switches with: its Galois element and
    /// key, or `None` for a multiple of the slot count — the identity, whose
    /// element is 1 and for which no key is ever generated.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] if a key is needed and absent.
    pub fn rotation_switch(&self, steps: i64) -> Result<Option<(u64, &KeySwitchKey)>, EvalError> {
        let g = self.galois_element(steps);
        if g == 1 {
            return Ok(None);
        }
        let key = self
            .galois_key(g)
            .ok_or(EvalError::MissingRotationKey { steps })?;
        Ok(Some((g, key)))
    }

    /// Looks up the Galois key for rotation by `steps`.
    pub fn galois_key_for_rotation(&self, steps: i64) -> Option<&KeySwitchKey> {
        self.galois.get(&self.galois_element(steps))
    }

    /// Looks up the Galois key for raw element `g`.
    pub fn galois_key(&self, g: u64) -> Option<&KeySwitchKey> {
        self.galois.get(&g)
    }
}

/// Squares a signed ternary polynomial in `Z[X]/(X^N+1)` exactly.
fn square_signed(s: &[i64]) -> Vec<i64> {
    let n = s.len();
    let mut out = vec![0i64; n];
    for i in 0..n {
        if s[i] == 0 {
            continue;
        }
        for j in 0..n {
            if s[j] == 0 {
                continue;
            }
            let k = i + j;
            let v = s[i] * s[j];
            if k < n {
                out[k] += v;
            } else {
                out[k - n] -= v;
            }
        }
    }
    out
}

/// Applies `X ↦ X^g` to signed coefficients (paper Eq. 4).
pub(crate) fn automorphism_signed(s: &[i64], g: u64) -> Vec<i64> {
    let n = s.len() as u64;
    let two_n = 2 * n;
    assert_eq!(g % 2, 1, "Galois element must be odd");
    let mut out = vec![0i64; n as usize];
    for (i, &v) in s.iter().enumerate() {
        let e = (i as u64 * g) % two_n;
        if e < n {
            out[e as usize] = v;
        } else {
            out[(e - n) as usize] = -v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, rand::rngs::StdRng) {
        (
            CkksContext::new(CkksParams::toy()),
            rand::rngs::StdRng::seed_from_u64(7),
        )
    }

    #[test]
    fn fresh_encryption_decrypts_with_small_noise() {
        let (ctx, mut rng) = setup();
        let keys = KeySet::generate(&ctx, &mut rng);
        // Encrypt zero; decryption must be only noise.
        let zero = Plaintext::new(
            he_rns::RnsPoly::from_i64_coeffs(ctx.chain_basis(), &vec![0i64; ctx.n()]),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&zero, &mut rng);
        let dec = keys.secret().decrypt(&ct);
        let noise = dec.poly().to_centered_coeffs();
        let max = noise.iter().map(|v| v.abs()).max().unwrap();
        assert!(max > 0, "noise must be present");
        assert!(max < 1 << 20, "noise too large: {max}");
    }

    #[test]
    fn encryption_of_message_preserves_it() {
        let (ctx, mut rng) = setup();
        let keys = KeySet::generate(&ctx, &mut rng);
        let mut m = vec![0i64; ctx.n()];
        m[0] = 1 << 30;
        m[5] = -(1 << 29);
        let pt = Plaintext::new(
            he_rns::RnsPoly::from_i64_coeffs(ctx.chain_basis(), &m),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let dec = keys.secret().decrypt(&ct).poly().to_centered_coeffs();
        assert!((dec[0] - (1 << 30)).abs() < 1 << 16);
        assert!((dec[5] + (1 << 29)).abs() < 1 << 16);
    }

    #[test]
    fn square_signed_matches_small_case() {
        // (1 + X)² = 1 + 2X + X² in Z[X]/(X⁴+1)
        let got = square_signed(&[1, 1, 0, 0]);
        assert_eq!(got, vec![1, 2, 1, 0]);
        // X³·X³ = X⁶ = −X²
        let got = square_signed(&[0, 0, 0, 1]);
        assert_eq!(got, vec![0, 0, -1, 0]);
    }

    #[test]
    fn automorphism_signed_is_invertible() {
        // g·g⁻¹ ≡ 1 (mod 2N) composes to the identity.
        let s: Vec<i64> = (0..16).map(|i| (i % 3) as i64 - 1).collect();
        let g = 5u64; // unit mod 32
        let g_inv = 13u64; // 5·13 = 65 ≡ 1 (mod 32)
        let round = automorphism_signed(&automorphism_signed(&s, g), g_inv);
        assert_eq!(round, s);
    }

    #[test]
    fn fold_keys_cover_powers_of_two() {
        let (ctx, mut rng) = setup();
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_keys([1, 2, 4], &mut rng);
        for s in [1i64, 2, 4] {
            assert!(keys.galois_key_for_rotation(s).is_some(), "step {s}");
        }
        assert!(keys.galois_key_for_rotation(8).is_none());
        // Bulk add with duplicates is idempotent.
        keys.add_rotation_keys([1, 2, 3, 3], &mut rng);
        assert!(keys.galois_key_for_rotation(3).is_some());
    }

    #[test]
    fn galois_elements_compose_rotations() {
        let (ctx, _) = setup();
        let keys = KeySet {
            galois: HashMap::new(),
            relin: KeySwitchKey { pairs: Vec::new() },
            secret: SecretKey {
                coeffs: vec![0; ctx.n()],
            },
            public: PublicKey {
                ctx: ctx.clone(),
                b: he_rns::RnsPoly::from_i64_coeffs(ctx.chain_basis(), &vec![0; ctx.n()]),
                a: he_rns::RnsPoly::from_i64_coeffs(ctx.chain_basis(), &vec![0; ctx.n()]),
            },
            ctx: ctx.clone(),
        };
        let two_n = 2 * ctx.n() as u64;
        let g1 = keys.galois_element(1);
        let g2 = keys.galois_element(2);
        assert_eq!(he_math::modops::mul_mod(g1, g1, two_n), g2);
        // Rotation by 0 is the identity element.
        assert_eq!(keys.galois_element(0), 1);
    }
}
