//! The slot-semantics oracle: a floating-point interpreter of an
//! [`EvalGraph`] over the `N/2` complex slots a ciphertext packs.
//!
//! It shares no arithmetic with the stack — no RNS, no NTT, no encoder, no
//! `poseidon-par`: a value is `N/2` pairs of `f64`, and a plaintext operand
//! is the slot values its maker kept beside it
//! ([`EvalGraph::plaintext_slots`]). Each operation is its definition on
//! slots: `Add`, `Sub`, `Mul` and `Square` slotwise; `AddPlain` and
//! `MulPlain` by the plaintext's slots; `Rescale`, `DropToLevel` and
//! `Bootstrap` the identity on values; `Rotate` by `k` a cyclic shift
//! (slot `j` takes slot `j + k`); `Conjugate`; `RotateMany` one rotation per
//! output; `RotateSum` the weighted sum of its rotations.

use std::collections::HashMap;

use poseidon_core::plan::{EvalGraph, GraphOp, ValueId};

/// One slot value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct C {
    pub re: f64,
    pub im: f64,
}

impl C {
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// `|self − o|`.
    pub fn dist(self, o: Self) -> f64 {
        (self.re - o.re).hypot(self.im - o.im)
    }
}

type Slots = Vec<C>;

fn zip(a: &[C], b: &[C], f: impl Fn(C, C) -> C) -> Slots {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn rotate(a: &[C], k: i64) -> Slots {
    let n = a.len() as i64;
    (0..n).map(|j| a[(j + k).rem_euclid(n) as usize]).collect()
}

/// The graph's outputs, in [`EvalGraph::outputs`] order, for `inputs`
/// bound in [`EvalGraph::inputs`] order (each `slots` long).
///
/// # Panics
///
/// Panics if a plaintext operand has no slot values kept beside it.
pub fn run(g: &EvalGraph, inputs: &[Slots], slots: usize) -> Vec<Slots> {
    let mut memo = HashMap::new();
    g.outputs()
        .iter()
        .map(|&v| value(g, inputs, slots, v, &mut memo))
        .collect()
}

/// Plaintext `pt`'s slots, sparse packing unrolled.
fn plain(g: &EvalGraph, pt: usize, slots: usize) -> Slots {
    let z = g
        .plaintext_slots(pt)
        .unwrap_or_else(|| panic!("plaintext {pt} kept no slot values"));
    (0..slots)
        .map(|j| C::new(z[j % z.len()].re, z[j % z.len()].im))
        .collect()
}

fn value(
    g: &EvalGraph,
    inputs: &[Slots],
    slots: usize,
    v: ValueId,
    memo: &mut HashMap<ValueId, Slots>,
) -> Slots {
    if let Some(s) = memo.get(&v) {
        return s.clone();
    }
    let node = g.node(g.value(v).producer);
    let mut arg = |i: usize| value(g, inputs, slots, node.inputs[i], memo);
    let out = match &node.op {
        GraphOp::Input { slot } => inputs[*slot].clone(),
        GraphOp::Add => zip(&arg(0), &arg(1), C::add),
        GraphOp::Sub => zip(&arg(0), &arg(1), C::sub),
        GraphOp::Mul => zip(&arg(0), &arg(1), C::mul),
        GraphOp::Square => {
            let a = arg(0);
            zip(&a, &a, C::mul)
        }
        GraphOp::AddPlain { pt } => zip(&arg(0), &plain(g, *pt, slots), C::add),
        GraphOp::MulPlain { pt } => zip(&arg(0), &plain(g, *pt, slots), C::mul),
        GraphOp::Rescale | GraphOp::DropToLevel { .. } | GraphOp::Bootstrap { .. } => arg(0),
        GraphOp::Rotate { steps } => rotate(&arg(0), *steps),
        GraphOp::Conjugate => arg(0).into_iter().map(C::conj).collect(),
        GraphOp::RotateMany { steps } => {
            let k = node
                .outputs
                .iter()
                .position(|&o| o == v)
                .expect("an output");
            rotate(&arg(0), steps[k])
        }
        GraphOp::RotateSum { steps, weights } => {
            let a = arg(0);
            let mut sum = vec![C::default(); slots];
            for (&k, weight) in steps.iter().zip(weights) {
                let mut term = rotate(&a, k);
                if let Some(pt) = weight {
                    term = zip(&term, &plain(g, *pt, slots), C::mul);
                }
                sum = zip(&sum, &term, C::add);
            }
            sum
        }
    };
    memo.insert(v, out.clone());
    out
}
