//! Bootstrapping precision in bits, gated.
//!
//! `bootstrap_demo`, 4 slots, six doublings, a sparse secret of Hamming
//! weight 8: messages `amp·[1, −1, 0.9, −0.6]` at four amplitudes, under
//! two key seeds (one key set per seed, reused across amplitudes). The
//! test prints the bits of the largest slot error per amplitude,
//! `−log2 max_j |got_j − want_j|`, and fails below a floor: the bits
//! ROADMAP item 18 measured, less [`MARGIN_BITS`].
//!
//! The error is deterministic in the message and grows as the cube of the
//! amplitude: it is EvalMod's sine-for-identity term, not noise. Eight
//! bootstraps take minutes in a debug build, so the test runs in release
//! builds only (`cargo test --release -p he-ckks --test bootstrap_precision`).

use he_ckks::bootstrap::{encode_for_bootstrap, exhaust_to_level0, Bootstrapper};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use rand::SeedableRng;

const SLOTS: usize = 4;
const DOUBLINGS: u32 = 6;
const HAMMING: usize = 8;
const SHAPE: [f64; SLOTS] = [1.0, -1.0, 0.9, -0.6];
const SEEDS: [u64; 2] = [0xB007, 0x5EED];

/// `(amplitude, bits)`: the largest slot error ROADMAP item 18 measured.
const MEASURED: [(f64, f64); 4] = [(0.25, 10.9), (0.5, 7.9), (0.75, 6.1), (1.0, 4.9)];

/// How far below the measured bits a run may land: one bit, a doubled
/// error.
const MARGIN_BITS: f64 = 1.0;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eight bootstraps; run with --release (CI's default job does)"
)]
fn bootstrap_precision_holds_its_floor_at_every_amplitude() {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let eval = Evaluator::new(&ctx);
    let bs = Bootstrapper::new(&ctx, SLOTS, DOUBLINGS);
    let mut worst = [0.0f64; MEASURED.len()];
    for seed in SEEDS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut keys = KeySet::generate_sparse(&ctx, HAMMING, &mut rng);
        for step in bs.required_rotations() {
            keys.add_rotation_key(step, &mut rng);
        }
        keys.add_conjugation_key(&mut rng);
        for (worst, &(amp, _)) in worst.iter_mut().zip(&MEASURED) {
            let want: Vec<Complex> = SHAPE.iter().map(|&v| Complex::new(amp * v, 0.0)).collect();
            let ct = keys
                .public()
                .encrypt(&encode_for_bootstrap(&ctx, &want), &mut rng);
            let exhausted = exhaust_to_level0(&eval, &ct).expect("drops to level 0");
            let refreshed = bs
                .try_bootstrap(&eval, &keys, &exhausted)
                .expect("bootstraps");
            let dec = keys.secret().decrypt(&refreshed);
            let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), SLOTS);
            let err = want
                .iter()
                .zip(&got)
                .map(|(&w, &g)| (g - w).abs())
                .fold(0.0, f64::max);
            *worst = worst.max(err);
        }
    }

    println!("amplitude  max error  bits  floor");
    let mut short = Vec::new();
    for (&err, &(amp, measured)) in worst.iter().zip(&MEASURED) {
        let bits = -err.log2();
        let floor = measured - MARGIN_BITS;
        println!("{amp:>9}  {err:>9.3e}  {bits:>4.1}  {floor:>5.1}");
        if bits < floor {
            short.push(format!(
                "amplitude {amp}: {bits:.2} bits < floor {floor:.1}"
            ));
        }
    }
    assert!(short.is_empty(), "bootstrap precision fell: {short:?}");
}
