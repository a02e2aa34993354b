//! Property tests: broadcasting algebra (NaN/±Inf operands included),
//! autograd-vs-numeric gradients, and parallel-kernel-vs-naive-reference
//! agreement on randomized shapes and values (including degenerate ones).

use lmmir_tensor::conv::{conv2d, ConvSpec};
use lmmir_tensor::{linalg, Tensor, Var};
use proptest::prelude::*;

/// Naive triple-loop matmul: the reference the row-partitioned gemm must
/// agree with for every shape.
fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Naive 7-loop conv2d reference.
fn conv2d_reference(x: &Tensor, w: &Tensor, spec: ConvSpec) -> Tensor {
    let (nb, c, h, ww) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (o, _, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let oh = spec.conv_out(h, kh).unwrap();
    let ow = spec.conv_out(ww, kw).unwrap();
    let mut out = Tensor::zeros(&[nb, o, oh, ow]);
    for ni in 0..nb {
        for oi in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < ww as isize {
                                    acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                        * w.at(&[oi, ci, ky, kx]);
                                }
                            }
                        }
                    }
                    out.set(&[ni, oi, oy, ox], acc);
                }
            }
        }
    }
    out
}

fn pseudo(count: usize, seed: u64) -> Vec<f32> {
    (0..count)
        .map(|i| (((seed + i as u64) as f32) * 0.53).sin())
        .collect()
}

/// Above-threshold companion to the randomized conv property below: the
/// small proptest shapes all fall under the parallel-work gates (they pin
/// the sequential boundary), so this fixed shape — im2col buffer 72×1600,
/// gemm 16·72·1600 MACs — genuinely drives the partitioned path and checks
/// it against both the naive reference and the sequential run bitwise.
#[test]
fn large_conv2d_crosses_parallel_threshold_and_matches() {
    let x = Tensor::from_vec(pseudo(8 * 40 * 40, 3), &[1, 8, 40, 40]).unwrap();
    let w = Tensor::from_vec(pseudo(16 * 8 * 9, 41), &[16, 8, 3, 3]).unwrap();
    let spec = ConvSpec::new(1, 1);
    let slow = conv2d_reference(&x, &w, spec);
    let sequential = lmmir_par::with_threads(1, || conv2d(&x, &w, None, spec).unwrap());
    for threads in [2, 3, 7] {
        let fast = lmmir_par::with_threads(threads, || conv2d(&x, &w, None, spec).unwrap());
        assert_eq!(
            fast.data(),
            sequential.data(),
            "bitwise drift at {threads} threads"
        );
        assert!(close(&fast, &slow, 1e-4), "reference mismatch at {threads}");
    }
}

/// Operand values spanning the awkward cases: signed zeros, infinities,
/// NaN. Elementwise ops must apply the plain IEEE formula to them — no
/// "trivial" multiply may be skipped, so `0 · inf` stays NaN.
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

/// Bitwise equality, except that any two NaNs match (IEEE leaves the NaN
/// payload of a two-NaN operation to the hardware).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, 1..=max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("vector shape")
    })
}

/// Central-difference gradient of a scalar-valued tensor function.
fn numeric_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut g = Tensor::zeros(x.dims());
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        g.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
    }
    g
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_commutes(
        (a, b) in (1usize..32).prop_flat_map(|n| (
            prop::collection::vec(awkward_f32(), n),
            prop::collection::vec(awkward_f32(), n),
        )),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(same_bits(ab.data(), ba.data()));
        let scalar: Vec<f32> = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
        prop_assert!(same_bits(ab.data(), &scalar));
    }

    #[test]
    fn mul_distributes_over_add(
        (a, b, c) in (1usize..16).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let b = Tensor::from_vec(b, &[n]).unwrap();
        let c = Tensor::from_vec(c, &[n]).unwrap();
        let lhs = a.mul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.mul(&b).unwrap().add(&a.mul(&c).unwrap()).unwrap();
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn scalar_broadcast_matches_scale(
        a in prop::collection::vec(awkward_f32(), 1..32),
        k in awkward_f32(),
    ) {
        let n = a.len();
        let a = Tensor::from_vec(a, &[n]).unwrap();
        let s = Tensor::scalar(k);
        let via_broadcast = a.mul(&s).unwrap();
        let via_scale = a.scale(k);
        let via_full = a.mul(&Tensor::full(&[n], k)).unwrap();
        prop_assert!(same_bits(via_broadcast.data(), via_scale.data()));
        prop_assert!(same_bits(via_full.data(), via_scale.data()));
        for (&x, &y) in a.data().iter().zip(via_scale.data()) {
            if (x == 0.0 && k.is_infinite()) || (x.is_infinite() && k == 0.0) {
                prop_assert!(y.is_nan(), "0 * inf must be NaN, got {}", y);
            }
        }
        // Downstream ops see the NaN too; relu maps it to 0, not to NaN.
        let shifted = via_scale.add_scalar(1.0);
        let relu = shifted.relu();
        for (&x, &r) in shifted.data().iter().zip(relu.data()) {
            prop_assert_eq!(r.to_bits(), x.max(0.0).to_bits());
        }
    }

    #[test]
    fn reduce_to_shape_preserves_total(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let n = rows * cols;
        let data: Vec<f32> = (0..n).map(|i| ((seed as f32 + i as f32) * 0.37).sin()).collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let reduced = t.reduce_to_shape(&[cols]).unwrap();
        prop_assert!((reduced.sum_all() - t.sum_all()).abs() < 1e-3);
        let reduced2 = t.reduce_to_shape(&[rows, 1]).unwrap();
        prop_assert!((reduced2.sum_all() - t.sum_all()).abs() < 1e-3);
    }

    #[test]
    fn autograd_matches_numeric_elementwise(x in tensor_strategy(12)) {
        // f(x) = sum(sigmoid(x) * x)
        let v = Var::parameter(x.clone());
        v.sigmoid().mul(&v).unwrap().sum().backward();
        let auto = v.grad().unwrap();
        let num = numeric_grad(
            |t| t.map(|u| u / (1.0 + (-u).exp())).sum_all(),
            &x,
            1e-2,
        );
        prop_assert!(close(&auto, &num, 5e-2), "auto {:?} vs num {:?}", auto, num);
    }

    #[test]
    fn autograd_matches_numeric_add(
        (a0, b0) in (1usize..12).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        // f(a, b) = sum((a + b) * a)  =>  df/da = 2a + b, df/db = a.
        let n = a0.len();
        let a0 = Tensor::from_vec(a0, &[n]).unwrap();
        let b0 = Tensor::from_vec(b0, &[n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.add(&b).unwrap().mul(&a).unwrap().sum().backward();

        let num_a = numeric_grad(
            |t| t.add(&b0).unwrap().mul(t).unwrap().sum_all(),
            &a0,
            1e-2,
        );
        let num_b = numeric_grad(
            |t| a0.add(t).unwrap().mul(&a0).unwrap().sum_all(),
            &b0,
            1e-2,
        );
        prop_assert!(close(&a.grad().unwrap(), &num_a, 5e-2));
        prop_assert!(close(&b.grad().unwrap(), &num_b, 5e-2));
    }

    #[test]
    fn autograd_matches_numeric_mul_both_operands(
        (a0, b0) in (1usize..12).prop_flat_map(|n| (
            prop::collection::vec(-3.0f32..3.0, n),
            prop::collection::vec(-3.0f32..3.0, n),
        )),
    ) {
        // f(a, b) = sum(a * b)  =>  df/da = b, df/db = a.
        let n = a0.len();
        let a0 = Tensor::from_vec(a0, &[n]).unwrap();
        let b0 = Tensor::from_vec(b0, &[n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.mul(&b).unwrap().sum().backward();
        prop_assert!(close(&a.grad().unwrap(), &b0, 1e-5));
        prop_assert!(close(&b.grad().unwrap(), &a0, 1e-5));
    }

    #[test]
    fn autograd_matches_numeric_matmul_rhs(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..100) {
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.47).sin()).collect()
        };
        let a0 = Tensor::from_vec(gen(m * k, seed), &[m, k]).unwrap();
        let b0 = Tensor::from_vec(gen(k * n, seed + 13), &[k, n]).unwrap();
        let a = Var::constant(a0.clone());
        let b = Var::parameter(b0.clone());
        a.matmul(&b).unwrap().sum().backward();
        let num = numeric_grad(|t| linalg::matmul(&a0, t).unwrap().sum_all(), &b0, 1e-2);
        prop_assert!(close(&b.grad().unwrap(), &num, 5e-2));
    }

    #[test]
    fn matmul_shape_contract(m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let a = Tensor::zeros(&[m, k]);
        let b = Tensor::zeros(&[k, n]);
        prop_assert_eq!(linalg::matmul(&a, &b).unwrap().dims(), &[m, n]);
        // Mismatched inner dimension must refuse, never panic.
        let bad = Tensor::zeros(&[k + 1, n]);
        prop_assert!(linalg::matmul(&a, &bad).is_err());
    }

    #[test]
    fn elementwise_ops_preserve_shape(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((seed + i as u64) as f32) * 0.91).sin())
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let dims = t.dims().to_vec();
        prop_assert_eq!(t.add(&t).unwrap().dims(), &dims[..]);
        prop_assert_eq!(t.mul(&t).unwrap().dims(), &dims[..]);
        prop_assert_eq!(t.scale(2.5).dims(), &dims[..]);
        prop_assert_eq!(t.map(f32::abs).dims(), &dims[..]);
        // Broadcasting against a scalar keeps the larger shape.
        prop_assert_eq!(t.add(&Tensor::scalar(1.0)).unwrap().dims(), &dims[..]);
    }

    #[test]
    fn autograd_matches_numeric_matmul(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..100) {
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.61).sin()).collect()
        };
        let a0 = Tensor::from_vec(gen(m * k, seed), &[m, k]).unwrap();
        let b0 = Tensor::from_vec(gen(k * n, seed + 7), &[k, n]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::constant(b0.clone());
        a.matmul(&b).unwrap().sum().backward();
        let auto = a.grad().unwrap();
        let num = numeric_grad(|t| linalg::matmul(t, &b0).unwrap().sum_all(), &a0, 1e-2);
        prop_assert!(close(&auto, &num, 5e-2));
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((seed + i as u64) as f32) * 1.3).sin() * 4.0)
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let s = t.softmax_last();
        for row in s.data().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn reshape_permute_round_trip(d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4) {
        let n = d0 * d1 * d2;
        let t = Tensor::arange(n).reshape(&[d0, d1, d2]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap().permute(&[1, 2, 0]).unwrap();
        prop_assert_eq!(p.data(), t.data());
    }

    #[test]
    fn large_matmul_crosses_parallel_threshold_and_matches(
        threads in 2usize..8, seed in 0u64..20,
    ) {
        // 72·96·64 ≈ 4.4e5 MACs — past the gemm parallel threshold, so this
        // genuinely exercises the row-partitioned path (unlike the small
        // randomized shapes above, which validate the sequential boundary).
        let a = Tensor::from_vec(pseudo(72 * 96, seed), &[72, 96]).unwrap();
        let b = Tensor::from_vec(pseudo(96 * 64, seed + 13), &[96, 64]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&a, &b).unwrap());
        let slow = lmmir_par::with_threads(1, || linalg::matmul(&a, &b).unwrap());
        prop_assert_eq!(fast.data(), slow.data(), "bitwise drift at {} threads", threads);
        prop_assert!(close(&fast, &matmul_reference(&a, &b), 1e-4));
    }

    #[test]
    fn concat_then_slice_identity(parts in prop::collection::vec(tensor_strategy(8), 1..4)) {
        let refs: Vec<&Tensor> = parts.iter().collect();
        let joined = Tensor::concat(&refs, 0).unwrap();
        let mut off = 0;
        for p in &parts {
            let s = joined.slice_axis(0, off, off + p.numel()).unwrap();
            prop_assert_eq!(s.data(), p.data());
            off += p.numel();
        }
    }

    #[test]
    fn parallel_matmul_matches_naive_reference(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        threads in 1usize..8, seed in 0u64..500,
    ) {
        // Degenerate row counts (1×N) and thread counts exceeding the row
        // count are all legal partitions.
        let a = Tensor::from_vec(pseudo(m * k, seed), &[m, k]).unwrap();
        let b = Tensor::from_vec(pseudo(k * n, seed + 101), &[k, n]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&a, &b).unwrap());
        let slow = matmul_reference(&a, &b);
        prop_assert!(close(&fast, &slow, 1e-5), "matmul mismatch at {} threads", threads);
    }

    #[test]
    fn parallel_matmul_row_vector_and_tall_shapes(
        n in 1usize..64, threads in 1usize..8, seed in 0u64..200,
    ) {
        // 1×N row vector times N×1 column: the extreme degenerate shapes.
        let row = Tensor::from_vec(pseudo(n, seed), &[1, n]).unwrap();
        let col = Tensor::from_vec(pseudo(n, seed + 7), &[n, 1]).unwrap();
        let fast = lmmir_par::with_threads(threads, || linalg::matmul(&row, &col).unwrap());
        prop_assert!(close(&fast, &matmul_reference(&row, &col), 1e-5));
        let outer = lmmir_par::with_threads(threads, || linalg::matmul(&col, &row).unwrap());
        prop_assert!(close(&outer, &matmul_reference(&col, &row), 1e-5));
    }

    #[test]
    fn parallel_conv2d_matches_naive_reference(
        nb in 0usize..3, c in 1usize..9, side in 3usize..10,
        threads in 1usize..8, seed in 0u64..200,
    ) {
        // `nb == 0` is the empty batch; `c` may exceed `threads`.
        let o = 2;
        let x = Tensor::from_vec(pseudo(nb * c * side * side, seed), &[nb, c, side, side]).unwrap();
        let w = Tensor::from_vec(pseudo(o * c * 9, seed + 31), &[o, c, 3, 3]).unwrap();
        let spec = ConvSpec::new(1, 1);
        let fast = lmmir_par::with_threads(threads, || conv2d(&x, &w, None, spec).unwrap());
        let slow = conv2d_reference(&x, &w, spec);
        prop_assert_eq!(fast.dims(), slow.dims());
        prop_assert!(close(&fast, &slow, 1e-4), "conv mismatch at {} threads", threads);
    }

    #[test]
    fn conv2d_linearity(seed in 0u64..50, alpha in -2.0f32..2.0) {
        use lmmir_tensor::conv::{conv2d, ConvSpec};
        let gen = |count: usize, s: u64| -> Vec<f32> {
            (0..count).map(|i| (((s + i as u64) as f32) * 0.83).sin()).collect()
        };
        let x = Tensor::from_vec(gen(2 * 5 * 5, seed), &[1, 2, 5, 5]).unwrap();
        let w = Tensor::from_vec(gen(3 * 2 * 3 * 3, seed + 3), &[3, 2, 3, 3]).unwrap();
        let spec = ConvSpec::new(1, 1);
        let y1 = conv2d(&x.scale(alpha), &w, None, spec).unwrap();
        let y2 = conv2d(&x, &w, None, spec).unwrap().scale(alpha);
        prop_assert!(close(&y1, &y2, 1e-3));
    }
}
