//! Pins elementwise-chain semantics: a chain of elementwise tensor ops is
//! bitwise identical to the plain scalar formulas applied element by element
//! (signed zeros and infinities included; any NaN matches any NaN), and
//! `0 · inf` stays NaN through a chain — no op may skip a "trivial" multiply.

use lmmir_tensor::Tensor;
use proptest::prelude::*;

fn step_scalar(i: usize) -> f32 {
    (i as f32).mul_add(0.25, -1.0)
}

/// Applies the op sequence to tensors. `codes` drives which op runs at each
/// step; `b` is the second operand for the binary steps.
fn run_chain(a: &Tensor, b: &Tensor, codes: &[u8]) -> Tensor {
    let mut t = a.clone();
    for (i, &c) in codes.iter().enumerate() {
        let k = step_scalar(i);
        t = match c % 10 {
            0 => t.relu(),
            1 => t.neg(),
            2 => t.add(b).expect("same shape"),
            3 => t.sub(b).expect("same shape"),
            4 => t.mul(b).expect("same shape"),
            5 => t.maximum(b).expect("same shape"),
            6 => t.scale(k),
            7 => t.add_scalar(k),
            8 => t.clamp(-2.0, 2.0),
            _ => t.div(b).expect("same shape"),
        };
    }
    t
}

/// The same op sequence as [`run_chain`], one element at a time.
fn run_chain_scalar(a: f32, b: f32, codes: &[u8]) -> f32 {
    let mut x = a;
    for (i, &c) in codes.iter().enumerate() {
        let k = step_scalar(i);
        x = match c % 10 {
            0 => x.max(0.0),
            1 => -x,
            2 => x + b,
            3 => x - b,
            4 => x * b,
            5 => x.max(b),
            6 => x * k,
            7 => x + k,
            8 => x.clamp(-2.0, 2.0),
            _ => x / b,
        };
    }
    x
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bitwise equality, except that any two NaNs match: Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified, and an optimised
/// loop's vector body and scalar tail can differ in them.
fn same_bits_up_to_nan(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Operand values spanning the awkward cases: zeros, infinities, NaN.
fn awkward_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        10 => -3.0f32..3.0,
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(f32::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any elementwise chain must be bitwise identical to the scalar
    /// formulas, up to NaN sign and payload.
    #[test]
    fn realized_matches_eager_bitwise(
        (a, b, codes) in (1usize..64).prop_flat_map(|n| (
            proptest::collection::vec(awkward_f32(), n),
            proptest::collection::vec(awkward_f32(), n),
            proptest::collection::vec(0u8..10, 1..12),
        )),
    ) {
        let reference: Vec<f32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| run_chain_scalar(x, y, &codes))
            .collect();
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let chained = run_chain(&a, &b, &codes);
        prop_assert!(same_bits_up_to_nan(chained.data(), &reference));
    }

    /// `0 · inf` must produce NaN, and the NaN must survive the ops after it.
    #[test]
    fn zero_times_inf_is_nan_through_fusion(n in 1usize..32) {
        let zeros = Tensor::zeros(&[n]);
        let infs = Tensor::full(&[n], f32::INFINITY);
        // A chain around the product. NaN is checked before the relu (relu
        // maps NaN to 0).
        let chained = zeros.mul(&infs).unwrap().add_scalar(1.0);
        prop_assert!(chained.data().iter().all(|v| v.is_nan()));
        prop_assert_eq!(bits(chained.relu().data()), vec![0.0f32.to_bits(); n]);
    }
}
