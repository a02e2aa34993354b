//! The [`Module`] trait and checkpoint helpers.

use lmmir_tensor::{Result, TensorError, Var};

/// A neural-network building block: maps one variable to another and exposes
/// its trainable parameters.
///
/// Layers that distinguish train/eval behaviour (batch-norm running
/// statistics, dropout masks) override [`Module::set_training`]; the default
/// is a no-op. Layers with int8 inference support override
/// [`Module::quantize`]. The trait is object-safe so heterogeneous stacks
/// can be composed with [`crate::Sequential`].
pub trait Module {
    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when the input shape is incompatible with
    /// the layer.
    fn forward(&self, x: &Var) -> Result<Var>;

    /// Trainable parameters in a deterministic order.
    fn parameters(&self) -> Vec<Var>;

    /// Switches train/eval behaviour (default: no-op).
    ///
    /// Containers must propagate this to **every** child: layers that
    /// support int8 inference drop their quantized state when switched to
    /// training, so a missed child would silently keep serving stale
    /// gradient-free int8 weights into a training loop.
    fn set_training(&self, _training: bool) {}

    /// Switches the layer to int8 inference where supported, quantizing its
    /// current weights in place with per-output-channel scales. Returns the
    /// number of layers now running quantized (default: 0 — most layers
    /// have nothing to quantize). Quantized state is inference-only: it is
    /// discarded by `set_training(true)` and never carries gradients.
    fn quantize(&self) -> usize {
        0
    }
}

/// Simple activation functions as composable modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through.
    Identity,
}

impl Module for Activation {
    fn forward(&self, x: &Var) -> Result<Var> {
        Ok(match self {
            Activation::Relu => x.relu(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x.clone(),
        })
    }

    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

/// Snapshot of a module's parameters as `(index-name, tensor)` pairs.
///
/// Parameter ordering is defined by [`Module::parameters`], which is
/// deterministic for every layer in this crate, so the snapshot can be
/// restored into a freshly constructed model of the same architecture.
#[must_use]
pub fn state_dict(module: &dyn Module) -> Vec<(String, lmmir_tensor::Tensor)> {
    module
        .parameters()
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("param.{i}"), p.to_tensor()))
        .collect()
}

/// Restores a snapshot produced by [`state_dict`] into `module`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] when the parameter count differs and
/// [`TensorError::ShapeMismatch`] when a tensor shape disagrees.
pub fn load_state_dict(
    module: &dyn Module,
    entries: &[(String, lmmir_tensor::Tensor)],
) -> Result<()> {
    let params = module.parameters();
    if params.len() != entries.len() {
        return Err(TensorError::Io(format!(
            "state dict has {} entries but module has {} parameters",
            entries.len(),
            params.len()
        )));
    }
    for (p, (_, t)) in params.iter().zip(entries) {
        if p.value().dims() != t.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: p.value().dims().to_vec(),
                rhs: t.dims().to_vec(),
                op: "load_state_dict",
            });
        }
    }
    for (p, (_, t)) in params.iter().zip(entries) {
        p.set_value(t.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_tensor::{Tensor, Var};

    #[test]
    fn activations_forward() {
        let x = Var::constant(Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap());
        assert_eq!(
            Activation::Relu.forward(&x).unwrap().value().data(),
            &[0.0, 2.0]
        );
        assert_eq!(
            Activation::Identity.forward(&x).unwrap().value().data(),
            &[-1.0, 2.0]
        );
        let s = Activation::Sigmoid.forward(&x).unwrap();
        assert!(s.value().data()[1] > 0.8);
        let t = Activation::Tanh.forward(&x).unwrap();
        assert!(t.value().data()[0] < 0.0);
    }

    struct TwoParams {
        a: Var,
        b: Var,
    }

    impl Module for TwoParams {
        fn forward(&self, x: &Var) -> Result<Var> {
            x.mul(&self.a)?.add(&self.b)
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.a.clone(), self.b.clone()]
        }
    }

    #[test]
    fn state_dict_round_trip() {
        let m = TwoParams {
            a: Var::parameter(Tensor::full(&[2], 3.0)),
            b: Var::parameter(Tensor::full(&[2], -1.0)),
        };
        let snapshot = state_dict(&m);
        m.a.set_value(Tensor::zeros(&[2]));
        load_state_dict(&m, &snapshot).unwrap();
        assert_eq!(m.a.value().data(), &[3.0, 3.0]);
    }

    #[test]
    fn load_rejects_wrong_count_and_shape() {
        let m = TwoParams {
            a: Var::parameter(Tensor::zeros(&[2])),
            b: Var::parameter(Tensor::zeros(&[2])),
        };
        assert!(load_state_dict(&m, &[]).is_err());
        let bad = vec![
            ("param.0".to_string(), Tensor::zeros(&[3])),
            ("param.1".to_string(), Tensor::zeros(&[2])),
        ];
        assert!(load_state_dict(&m, &bad).is_err());
    }
}
