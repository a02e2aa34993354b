//! Differentiable operations on [`Var`].
//!
//! Every op computes its result eagerly on the underlying [`Tensor`]s and
//! registers a backward closure. Backward closures capture parent `Var`s
//! (cheap `Rc` clones) and read their values lazily at backward time, plus
//! small saved tensors (e.g. the softmax output) where the math needs them.

use crate::autograd::Var;
use crate::conv::{
    conv2d, conv2d_backward, conv_transpose2d, conv_transpose2d_backward, max_pool2d,
    max_pool2d_backward, upsample_nearest2d, upsample_nearest2d_backward, ConvSpec,
};
use crate::error::TensorError;
use crate::linalg;
use crate::tensor::Tensor;
use crate::Result;

impl Var {
    // ------------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // ------------------------------------------------------------------

    /// Broadcast addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn add(&self, rhs: &Var) -> Result<Var> {
        let out = self.value().add(&rhs.value())?;
        let (ad, bd) = (self.dims(), rhs.dims());
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                vec![
                    Some(g.reduce_to_shape(&ad).expect("add backward reduce")),
                    Some(g.reduce_to_shape(&bd).expect("add backward reduce")),
                ]
            }),
        ))
    }

    /// Broadcast subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn sub(&self, rhs: &Var) -> Result<Var> {
        let out = self.value().sub(&rhs.value())?;
        let (ad, bd) = (self.dims(), rhs.dims());
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                vec![
                    Some(g.reduce_to_shape(&ad).expect("sub backward reduce")),
                    Some(g.neg().reduce_to_shape(&bd).expect("sub backward reduce")),
                ]
            }),
        ))
    }

    /// Broadcast multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn mul(&self, rhs: &Var) -> Result<Var> {
        let out = self.value().mul(&rhs.value())?;
        let (a, b) = (self.clone(), rhs.clone());
        let (ad, bd) = (self.dims(), rhs.dims());
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                let da = g
                    .mul(&b.value())
                    .and_then(|t| t.reduce_to_shape(&ad))
                    .expect("mul backward");
                let db = g
                    .mul(&a.value())
                    .and_then(|t| t.reduce_to_shape(&bd))
                    .expect("mul backward");
                vec![Some(da), Some(db)]
            }),
        ))
    }

    /// Broadcast division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn div(&self, rhs: &Var) -> Result<Var> {
        let out = self.value().div(&rhs.value())?;
        let (a, b) = (self.clone(), rhs.clone());
        let (ad, bd) = (self.dims(), rhs.dims());
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                let bv = b.value();
                let da = g
                    .div(&bv)
                    .and_then(|t| t.reduce_to_shape(&ad))
                    .expect("div backward");
                // db = -g * a / b^2
                let b2 = bv.mul(&bv).expect("same shape");
                let db = g
                    .mul(&a.value())
                    .and_then(|t| t.div(&b2))
                    .map(|t| t.neg())
                    .and_then(|t| t.reduce_to_shape(&bd))
                    .expect("div backward");
                vec![Some(da), Some(db)]
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Elementwise unary
    // ------------------------------------------------------------------

    /// Elementwise negation.
    #[must_use]
    pub fn neg(&self) -> Var {
        let out = self.value().neg();
        Ok_unary(self, out, |g, _| g.neg())
    }

    /// Elementwise ReLU.
    #[must_use]
    pub fn relu(&self) -> Var {
        let out = self.value().relu();
        let x = self.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mask = x.value().relu_mask();
                vec![Some(g.mul(&mask).expect("same shape"))]
            }),
        )
    }

    /// Elementwise logistic sigmoid.
    #[must_use]
    pub fn sigmoid(&self) -> Var {
        let y = self.value().sigmoid();
        let saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| {
                // s * (1 - s)
                let one_minus = Tensor::scalar(1.0).sub(&saved).expect("same shape");
                let dy = saved.mul(&one_minus).expect("same shape");
                vec![Some(g.mul(&dy).expect("same shape"))]
            }),
        )
    }

    /// Elementwise hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Var {
        let y = self.value().tanh();
        let saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| {
                let dy = Tensor::scalar(1.0)
                    .sub(&saved.square())
                    .expect("same shape");
                vec![Some(g.mul(&dy).expect("same shape"))]
            }),
        )
    }

    /// Elementwise exponential.
    #[must_use]
    pub fn exp(&self) -> Var {
        let y = self.value().exp();
        let saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.mul(&saved).expect("same shape"))]),
        )
    }

    /// Elementwise natural logarithm.
    #[must_use]
    pub fn ln(&self) -> Var {
        let y = self.value().ln();
        let x = self.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.div(&x.value()).expect("same shape"))]),
        )
    }

    /// Elementwise square root.
    #[must_use]
    pub fn sqrt(&self) -> Var {
        let y = self.value().sqrt();
        let saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| {
                // 0.5 / max(s, 1e-12)
                let guarded = saved.maximum(&Tensor::scalar(1e-12)).expect("same shape");
                let dy = Tensor::scalar(0.5).div(&guarded).expect("same shape");
                vec![Some(g.mul(&dy).expect("same shape"))]
            }),
        )
    }

    /// Multiplies every element by a constant.
    #[must_use]
    pub fn scale(&self, k: f32) -> Var {
        let out = self.value().scale(k);
        Ok_unary(self, out, move |g, _| g.scale(k))
    }

    /// Adds a constant to every element.
    #[must_use]
    pub fn add_scalar(&self, k: f32) -> Var {
        let out = self.value().add_scalar(k);
        Ok_unary(self, out, |g, _| g.clone())
    }

    /// Elementwise square (`x * x` without a second graph edge).
    #[must_use]
    pub fn square(&self) -> Var {
        let y = self.value().square();
        let x = self.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| {
                let two_x = x.value().scale(2.0);
                vec![Some(g.mul(&two_x).expect("same shape"))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sums all elements into a scalar.
    #[must_use]
    pub fn sum(&self) -> Var {
        let out = Tensor::scalar(self.value().sum_all());
        let dims = self.dims();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(Tensor::full(&dims, g.item()))]),
        )
    }

    /// Mean of all elements as a scalar.
    #[must_use]
    pub fn mean(&self) -> Var {
        let n = self.value().numel().max(1);
        self.sum().scale(1.0 / n as f32)
    }

    /// Sum along `axes`, keeping reduced axes as size 1 when `keepdim`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] on a bad axis.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Result<Var> {
        let out = self.value().sum_axes(axes, keepdim)?;
        let in_dims = self.dims();
        let mut keep_dims = in_dims.clone();
        for &a in axes {
            keep_dims[a] = 1;
        }
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                // View g with kept axes then broadcast-expand to the input.
                let gk = g.reshape(&keep_dims).expect("sum_axes backward reshape");
                let expanded = Tensor::zeros(&in_dims)
                    .add(&gk)
                    .expect("sum_axes backward broadcast");
                vec![Some(expanded)]
            }),
        ))
    }

    /// Mean along `axes`; see [`Var::sum_axes`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] on a bad axis.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Result<Var> {
        let mut n = 1usize;
        for &a in axes {
            crate::shape::check_axis(a, self.value().rank())?;
            n *= self.value().dims()[a];
        }
        Ok(self.sum_axes(axes, keepdim)?.scale(1.0 / n as f32))
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self [..., k] @ rhs [k, n]`.
    ///
    /// Leading axes of `self` are treated as a flattened batch of rows (the
    /// `Linear`-layer contraction).
    ///
    /// # Errors
    ///
    /// Returns shape errors from [`linalg::matmul_nd`].
    pub fn matmul(&self, rhs: &Var) -> Result<Var> {
        let out = linalg::matmul_nd(&self.value(), &rhs.value())?;
        let (a, b) = (self.clone(), rhs.clone());
        let a_dims = self.dims();
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                let av = a.value();
                let bv = b.value();
                let k = *a_dims.last().expect("matmul lhs rank >= 1");
                let rows = av.numel() / k;
                let n = bv.dims()[1];
                let g_flat = g.reshape(&[rows, n]).expect("matmul grad flatten");
                let a_flat = av.reshape(&[rows, k]).expect("matmul lhs flatten");
                let da = linalg::matmul_nt(&g_flat, &bv)
                    .and_then(|t| t.reshape(&a_dims))
                    .expect("matmul backward lhs");
                let db = linalg::matmul_tn(&a_flat, &g_flat).expect("matmul backward rhs");
                vec![Some(da), Some(db)]
            }),
        ))
    }

    /// Batched matrix product `[B,m,k] @ [B,k,n] -> [B,m,n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from [`linalg::bmm`].
    pub fn bmm(&self, rhs: &Var) -> Result<Var> {
        let out = linalg::bmm(&self.value(), &rhs.value())?;
        let (a, b) = (self.clone(), rhs.clone());
        Ok(Var::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g| {
                let da = linalg::bmm_nt(g, &b.value()).expect("bmm backward lhs");
                let db = linalg::bmm_tn(&a.value(), g).expect("bmm backward rhs");
                vec![Some(da), Some(db)]
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshapes without changing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Var> {
        let out = self.value().reshape(dims)?;
        let in_dims = self.dims();
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.reshape(&in_dims).expect("reshape backward"))]),
        ))
    }

    /// Permutes axes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for a bad permutation.
    pub fn permute(&self, perm: &[usize]) -> Result<Var> {
        let out = self.value().permute(perm)?;
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.permute(&inv).expect("permute backward"))]),
        ))
    }

    /// Slices `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns index/axis errors from [`Tensor::slice_axis`].
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Var> {
        let out = self.value().slice_axis(axis, start, end)?;
        let in_dims = self.dims();
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                // Scatter g back into a zeros tensor of the input shape.
                let mut dx = Tensor::zeros(&in_dims);
                let outer: usize = in_dims[..axis].iter().product();
                let inner: usize = in_dims[axis + 1..].iter().product();
                let span = end - start;
                let gd = g.data();
                let dd = dx.data_mut();
                for o in 0..outer {
                    let src = o * span * inner;
                    let dst = o * in_dims[axis] * inner + start * inner;
                    dd[dst..dst + span * inner].copy_from_slice(&gd[src..src + span * inner]);
                }
                vec![Some(dx)]
            }),
        ))
    }

    /// Concatenates variables along `axis`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from [`Tensor::concat`].
    pub fn concat(parts: &[&Var], axis: usize) -> Result<Var> {
        let tensors: Vec<_> = parts.iter().map(|v| v.to_tensor()).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let out = Tensor::concat(&refs, axis)?;
        let sizes: Vec<usize> = tensors.iter().map(|t| t.dims()[axis]).collect();
        let parents: Vec<Var> = parts.iter().map(|v| (*v).clone()).collect();
        Ok(Var::from_op(
            out,
            parents,
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut off = 0;
                for &s in &sizes {
                    grads.push(Some(
                        g.slice_axis(axis, off, off + s).expect("concat backward"),
                    ));
                    off += s;
                }
                grads
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Convolution family
    // ------------------------------------------------------------------

    /// 2-D convolution (see [`crate::conv::conv2d`] for layouts).
    ///
    /// # Errors
    ///
    /// Returns shape errors from the raw kernel.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, spec: ConvSpec) -> Result<Var> {
        let out = conv2d(
            &self.value(),
            &weight.value(),
            bias.map(|b| b.to_tensor()).as_ref(),
            spec,
        )?;
        let (x, w) = (self.clone(), weight.clone());
        let has_bias = bias.is_some();
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Ok(Var::from_op(
            out,
            parents,
            Box::new(move |g| {
                let (dx, dw, db) = conv2d_backward(&x.value(), &w.value(), g, spec)
                    .expect("conv2d backward shapes");
                if has_bias {
                    vec![Some(dx), Some(dw), Some(db)]
                } else {
                    vec![Some(dx), Some(dw)]
                }
            }),
        ))
    }

    /// Transposed 2-D convolution (see [`crate::conv::conv_transpose2d`]).
    ///
    /// # Errors
    ///
    /// Returns shape errors from the raw kernel.
    pub fn conv_transpose2d(
        &self,
        weight: &Var,
        bias: Option<&Var>,
        spec: ConvSpec,
    ) -> Result<Var> {
        let out = conv_transpose2d(
            &self.value(),
            &weight.value(),
            bias.map(|b| b.to_tensor()).as_ref(),
            spec,
        )?;
        let (x, w) = (self.clone(), weight.clone());
        let has_bias = bias.is_some();
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Ok(Var::from_op(
            out,
            parents,
            Box::new(move |g| {
                let (dx, dw, db) = conv_transpose2d_backward(&x.value(), &w.value(), g, spec)
                    .expect("conv_transpose2d backward shapes");
                if has_bias {
                    vec![Some(dx), Some(dw), Some(db)]
                } else {
                    vec![Some(dx), Some(dw)]
                }
            }),
        ))
    }

    /// Max-pooling over `k`×`k` windows.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the raw kernel.
    pub fn max_pool2d(&self, k: usize, stride: usize) -> Result<Var> {
        let (out, indices) = max_pool2d(&self.value(), k, stride)?;
        let in_dims = self.dims();
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(
                    max_pool2d_backward(g, &indices, &in_dims).expect("max_pool backward"),
                )]
            }),
        ))
    }

    /// Nearest-neighbour upsampling by an integer factor.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the raw kernel.
    pub fn upsample_nearest2d(&self, factor: usize) -> Result<Var> {
        let out = upsample_nearest2d(&self.value(), factor)?;
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(
                    upsample_nearest2d_backward(g, factor).expect("upsample backward"),
                )]
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Softmax / attention / embedding
    // ------------------------------------------------------------------

    /// Numerically stable softmax along the last axis.
    #[must_use]
    pub fn softmax_last(&self) -> Var {
        let y = self.value().softmax_last();
        let saved = y.clone();
        Var::from_op(
            y,
            vec![self.clone()],
            Box::new(move |g| {
                // dx = (g - sum(g*y, last, keepdim)) * y
                let gy = g.mul(&saved).expect("same shape");
                let rank = gy.rank();
                let s = gy.sum_axes(&[rank - 1], true).expect("softmax backward");
                let dx = g
                    .sub(&s)
                    .and_then(|t| t.mul(&saved))
                    .expect("softmax backward");
                vec![Some(dx)]
            }),
        )
    }

    /// Row gather from a rank-2 parameter (embedding lookup):
    /// `out[i,:] = self[indices[i],:]`.
    ///
    /// # Errors
    ///
    /// Returns index errors from [`Tensor::gather_rows`].
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Var> {
        let out = self.value().gather_rows(indices)?;
        let num_rows = self.value().dims()[0];
        let ixs = indices.to_vec();
        Ok(Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(
                    Tensor::scatter_add_rows(g, &ixs, num_rows).expect("gather backward"),
                )]
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean-squared-error loss against a target variable.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mse_loss(&self, target: &Var) -> Result<Var> {
        if self.dims() != target.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims(),
                rhs: target.dims(),
                op: "mse_loss",
            });
        }
        Ok(self.sub(target)?.square().mean())
    }
}

/// Helper for unary ops with a simple `g -> dx` rule.
#[allow(non_snake_case)]
fn Ok_unary(x: &Var, out: Tensor, df: impl Fn(&Tensor, &Var) -> Tensor + 'static) -> Var {
    let parent = x.clone();
    Var::from_op(
        out,
        vec![x.clone()],
        Box::new(move |g| vec![Some(df(g, &parent))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f32], dims: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data.to_vec(), dims).unwrap())
    }

    /// Central-difference numerical gradient of `f` w.r.t. `x`.
    fn numerical_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
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

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "gradient mismatch: {x} vs {y}"
            );
        }
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn add_broadcast_gradcheck() {
        let xa = Tensor::from_vec(pseudo_random(6, 1), &[2, 3]).unwrap();
        let xb = Tensor::from_vec(pseudo_random(3, 2), &[3]).unwrap();
        let a = Var::parameter(xa.clone());
        let b = Var::parameter(xb.clone());
        a.add(&b).unwrap().sum().backward();
        let ga = a.grad().unwrap();
        let gb = b.grad().unwrap();
        assert_eq!(ga.data(), Tensor::ones(&[2, 3]).data());
        assert_eq!(gb.data(), &[2.0, 2.0, 2.0]); // each bias element used twice
        let _ = (xa, xb);
    }

    #[test]
    fn mul_gradcheck_numeric() {
        let x0 = Tensor::from_vec(pseudo_random(6, 3), &[2, 3]).unwrap();
        let y0 = Tensor::from_vec(pseudo_random(3, 4), &[3]).unwrap();
        let x = Var::parameter(x0.clone());
        let y = Var::parameter(y0.clone());
        x.mul(&y).unwrap().sum().backward();
        let gx = x.grad().unwrap();
        let y0c = y0.clone();
        let num = numerical_grad(|t| t.mul(&y0c).unwrap().sum_all(), &x0, 1e-3);
        assert_close(&gx, &num, 1e-2);
    }

    #[test]
    fn div_gradcheck_numeric() {
        let x0 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let y0 = Tensor::from_vec(vec![2.0, 4.0, 8.0, 5.0], &[2, 2]).unwrap();
        let x = Var::parameter(x0.clone());
        let y = Var::parameter(y0.clone());
        x.div(&y).unwrap().sum().backward();
        let y0c = y0.clone();
        let numx = numerical_grad(|t| t.div(&y0c).unwrap().sum_all(), &x0, 1e-3);
        assert_close(&x.grad().unwrap(), &numx, 1e-2);
        let x0c = x0.clone();
        let numy = numerical_grad(|t| x0c.div(t).unwrap().sum_all(), &y0, 1e-3);
        assert_close(&y.grad().unwrap(), &numy, 1e-2);
    }

    #[test]
    fn activation_gradchecks() {
        let x0 = Tensor::from_vec(vec![-1.5, -0.2, 0.3, 2.0], &[4]).unwrap();
        // sigmoid
        let x = Var::parameter(x0.clone());
        x.sigmoid().sum().backward();
        let num = numerical_grad(|t| t.map(|v| 1.0 / (1.0 + (-v).exp())).sum_all(), &x0, 1e-3);
        assert_close(&x.grad().unwrap(), &num, 1e-2);
        // tanh
        let x = Var::parameter(x0.clone());
        x.tanh().sum().backward();
        let num = numerical_grad(|t| t.map(f32::tanh).sum_all(), &x0, 1e-3);
        assert_close(&x.grad().unwrap(), &num, 1e-2);
        // exp
        let x = Var::parameter(x0.clone());
        x.exp().sum().backward();
        let num = numerical_grad(|t| t.map(f32::exp).sum_all(), &x0, 1e-3);
        assert_close(&x.grad().unwrap(), &num, 1e-2);
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let x = v(&[-1.0, 2.0, -3.0, 4.0], &[4]);
        x.relu().sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_gradcheck_numeric() {
        let a0 = Tensor::from_vec(pseudo_random(6, 5), &[2, 3]).unwrap();
        let b0 = Tensor::from_vec(pseudo_random(12, 6), &[3, 4]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.matmul(&b).unwrap().sum().backward();
        let b0c = b0.clone();
        let numa = numerical_grad(|t| linalg::matmul(t, &b0c).unwrap().sum_all(), &a0, 1e-3);
        assert_close(&a.grad().unwrap(), &numa, 1e-2);
        let a0c = a0.clone();
        let numb = numerical_grad(|t| linalg::matmul(&a0c, t).unwrap().sum_all(), &b0, 1e-3);
        assert_close(&b.grad().unwrap(), &numb, 1e-2);
    }

    #[test]
    fn matmul_nd_gradient_shape() {
        let a = v(&pseudo_random(12, 9), &[2, 2, 3]);
        let b = v(&pseudo_random(9, 10), &[3, 3]);
        a.matmul(&b).unwrap().sum().backward();
        assert_eq!(a.grad().unwrap().dims(), &[2, 2, 3]);
        assert_eq!(b.grad().unwrap().dims(), &[3, 3]);
    }

    #[test]
    fn bmm_gradcheck_numeric() {
        let a0 = Tensor::from_vec(pseudo_random(12, 11), &[2, 2, 3]).unwrap();
        let b0 = Tensor::from_vec(pseudo_random(12, 12), &[2, 3, 2]).unwrap();
        let a = Var::parameter(a0.clone());
        let b = Var::parameter(b0.clone());
        a.bmm(&b).unwrap().sum().backward();
        let b0c = b0.clone();
        let numa = numerical_grad(|t| linalg::bmm(t, &b0c).unwrap().sum_all(), &a0, 1e-3);
        assert_close(&a.grad().unwrap(), &numa, 1e-2);
    }

    #[test]
    fn softmax_gradcheck_numeric() {
        let x0 = Tensor::from_vec(pseudo_random(6, 13), &[2, 3]).unwrap();
        let x = Var::parameter(x0.clone());
        // weighted sum so the gradient is non-trivial (plain sum gives 0).
        let wdata = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0], &[2, 3]).unwrap();
        let w = Var::constant(wdata.clone());
        x.softmax_last().mul(&w).unwrap().sum().backward();
        let num = numerical_grad(
            |t| t.softmax_last().mul(&wdata).unwrap().sum_all(),
            &x0,
            1e-3,
        );
        assert_close(&x.grad().unwrap(), &num, 2e-2);
    }

    #[test]
    fn conv2d_gradcheck_numeric() {
        let x0 = Tensor::from_vec(pseudo_random(2 * 5 * 5, 21), &[1, 2, 5, 5]).unwrap();
        let w0 = Tensor::from_vec(pseudo_random(3 * 2 * 3 * 3, 22), &[3, 2, 3, 3]).unwrap();
        let b0 = Tensor::from_vec(pseudo_random(3, 23), &[3]).unwrap();
        let spec = ConvSpec::new(1, 1);
        let x = Var::parameter(x0.clone());
        let w = Var::parameter(w0.clone());
        let b = Var::parameter(b0.clone());
        x.conv2d(&w, Some(&b), spec).unwrap().sum().backward();
        let (w0c, b0c) = (w0.clone(), b0.clone());
        let numx = numerical_grad(
            |t| conv2d(t, &w0c, Some(&b0c), spec).unwrap().sum_all(),
            &x0,
            1e-2,
        );
        assert_close(&x.grad().unwrap(), &numx, 3e-2);
        let (x0c, b0c2) = (x0.clone(), b0.clone());
        let numw = numerical_grad(
            |t| conv2d(&x0c, t, Some(&b0c2), spec).unwrap().sum_all(),
            &w0,
            1e-2,
        );
        assert_close(&w.grad().unwrap(), &numw, 3e-2);
        // bias gradient: each output position contributes 1.
        assert_close(&b.grad().unwrap(), &Tensor::full(&[3], 25.0), 1e-3);
    }

    #[test]
    fn conv_transpose2d_gradcheck_numeric() {
        let x0 = Tensor::from_vec(pseudo_random(2 * 3 * 3, 31), &[1, 2, 3, 3]).unwrap();
        let w0 = Tensor::from_vec(pseudo_random(2 * 2 * 2 * 2, 32), &[2, 2, 2, 2]).unwrap();
        let spec = ConvSpec::new(2, 0);
        let x = Var::parameter(x0.clone());
        let w = Var::parameter(w0.clone());
        x.conv_transpose2d(&w, None, spec).unwrap().sum().backward();
        let w0c = w0.clone();
        let numx = numerical_grad(
            |t| conv_transpose2d(t, &w0c, None, spec).unwrap().sum_all(),
            &x0,
            1e-2,
        );
        assert_close(&x.grad().unwrap(), &numx, 3e-2);
        let x0c = x0.clone();
        let numw = numerical_grad(
            |t| conv_transpose2d(&x0c, t, None, spec).unwrap().sum_all(),
            &w0,
            1e-2,
        );
        assert_close(&w.grad().unwrap(), &numw, 3e-2);
    }

    #[test]
    fn pooling_and_upsample_gradients_flow() {
        let x = v(&pseudo_random(16, 41), &[1, 1, 4, 4]);
        x.max_pool2d(2, 2).unwrap().sum().backward();
        assert_eq!(x.grad().unwrap().sum_all(), 4.0);

        let y = v(&pseudo_random(4, 42), &[1, 1, 2, 2]);
        y.upsample_nearest2d(3).unwrap().sum().backward();
        assert_eq!(y.grad().unwrap().data(), &[9.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn reshape_permute_slice_concat_gradients() {
        let x = v(&pseudo_random(12, 51), &[3, 4]);
        let y = x
            .reshape(&[2, 6])
            .unwrap()
            .permute(&[1, 0])
            .unwrap()
            .slice_axis(0, 1, 5)
            .unwrap();
        y.sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.dims(), &[3, 4]);
        // 4 of 6 permuted rows survive the slice, each row has 2 elements =>
        // 8 ones somewhere in the gradient.
        assert_eq!(g.sum_all(), 8.0);

        let a = v(&[1.0, 2.0], &[1, 2]);
        let b = v(&[3.0, 4.0], &[1, 2]);
        let c = Var::concat(&[&a, &b], 0).unwrap();
        c.slice_axis(0, 1, 2).unwrap().sum().backward();
        assert_eq!(a.grad().unwrap().sum_all(), 0.0);
        assert_eq!(b.grad().unwrap().sum_all(), 2.0);
    }

    #[test]
    fn sum_axes_gradient_broadcasts_back() {
        let x = v(&pseudo_random(6, 61), &[2, 3]);
        x.sum_axes(&[0], false).unwrap().sum().backward();
        assert_eq!(x.grad().unwrap().data(), Tensor::ones(&[2, 3]).data());
        let y = v(&pseudo_random(6, 62), &[2, 3]);
        y.mean_axes(&[1], true).unwrap().sum().backward();
        for g in y.grad().unwrap().data() {
            assert!((g - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gather_rows_gradient_scatters() {
        let w = v(&pseudo_random(12, 71), &[4, 3]);
        let e = w.gather_rows(&[1, 1, 3]).unwrap();
        e.sum().backward();
        let g = w.grad().unwrap();
        assert_eq!(g.at(&[1, 0]), 2.0);
        assert_eq!(g.at(&[3, 2]), 1.0);
        assert_eq!(g.at(&[0, 0]), 0.0);
    }

    #[test]
    fn mse_loss_gradient_and_value() {
        let x = v(&[1.0, 2.0], &[2]);
        let t = Var::constant(Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap());
        let loss = x.mse_loss(&t).unwrap();
        assert!((loss.value().item() - 2.5).abs() < 1e-6); // (1+4)/2
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 2.0]); // 2(x-t)/n
    }

    #[test]
    fn mse_loss_shape_mismatch_errors() {
        let x = v(&[1.0, 2.0], &[2]);
        let t = Var::constant(Tensor::zeros(&[3]));
        assert!(x.mse_loss(&t).is_err());
    }

    #[test]
    fn composite_layernorm_gradcheck() {
        // LayerNorm composed from primitives must gradcheck end-to-end.
        let x0 = Tensor::from_vec(pseudo_random(8, 81), &[2, 4]).unwrap();
        let f = |t: &Tensor| -> f32 {
            let mu = t.mean_axes(&[1], true).unwrap();
            let centered = t.sub(&mu).unwrap();
            let var = centered
                .mul(&centered)
                .unwrap()
                .mean_axes(&[1], true)
                .unwrap();
            let denom = var.add_scalar(1e-5).map(f32::sqrt);
            let weights = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], &[4]).unwrap();
            centered
                .div(&denom)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum_all()
        };
        let x = Var::parameter(x0.clone());
        let mu = x.mean_axes(&[1], true).unwrap();
        let centered = x.sub(&mu).unwrap();
        let var = centered.square().mean_axes(&[1], true).unwrap();
        let denom = var.add_scalar(1e-5).sqrt();
        let wconst = Var::constant(Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], &[4]).unwrap());
        centered
            .div(&denom)
            .unwrap()
            .mul(&wconst)
            .unwrap()
            .sum()
            .backward();
        let num = numerical_grad(f, &x0, 1e-3);
        assert_close(&x.grad().unwrap(), &num, 3e-2);
    }
}
