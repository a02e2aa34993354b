//! Reverse-mode automatic differentiation.
//!
//! A [`Var`] wraps a [`Tensor`] in a dynamically built computation graph
//! (a "tape"). Non-leaf variables remember their parents and a backward
//! closure that maps the output gradient to per-parent gradients. Calling
//! [`Var::backward`] on a scalar loss walks the graph in reverse topological
//! order and accumulates gradients on every parameter leaf.
//!
//! The graph is a DAG of `Rc` nodes built per forward pass and freed when the
//! loss variable is dropped, mirroring PyTorch's define-by-run semantics.
//!
//! Inference needs no tape: inside [`no_grad`], [`Var::from_op`] keeps no
//! parents and no backward closure, so each intermediate is freed as soon
//! as its consumers are done with it. Values are identical either way.

use crate::tensor::Tensor;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Runs `f` with the tape off on this thread: every op result is a
/// constant (no parents, no backward closure, `needs_grad() == false`).
/// Restores the previous state on exit, also on panic.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let prev = GRAD_ENABLED.with(|g| g.replace(false));
    let _restore = Restore(prev);
    f()
}

/// Closure mapping the gradient at a node to gradients for each parent
/// (aligned with the `parents` vector; `None` skips a parent).
pub type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    id: u64,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    /// Leaf created with `parameter` (receives gradient accumulation).
    is_param: bool,
    /// Whether gradient must flow through this node at all.
    needs_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

/// An autograd variable: shared handle to a tensor plus its graph node.
///
/// Cloning a `Var` clones the *handle*, not the data — both clones see the
/// same value and gradient, which is how optimizers hold parameters.
///
/// ```
/// use lmmir_tensor::{Tensor, Var};
/// # fn main() -> Result<(), lmmir_tensor::TensorError> {
/// let w = Var::parameter(Tensor::from_vec(vec![2.0], &[1])?);
/// let loss = w.mul(&w)?.sum(); // w^2
/// loss.backward();
/// assert_eq!(w.grad().expect("grad").data(), &[4.0]); // d(w^2)/dw = 2w
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Var(pub(crate) Rc<Node>);

impl Var {
    /// Creates a trainable leaf. Gradients accumulate here during
    /// [`Var::backward`].
    #[must_use]
    pub fn parameter(value: Tensor) -> Self {
        Var(Rc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            is_param: true,
            needs_grad: true,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Creates a non-trainable leaf (inputs, targets, masks).
    #[must_use]
    pub fn constant(value: Tensor) -> Self {
        Var(Rc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            is_param: false,
            needs_grad: false,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Builds an interior graph node from an op result.
    ///
    /// `backward` receives the gradient flowing into this node and must
    /// return one optional gradient per entry of `parents`. Inside
    /// [`no_grad`] both are dropped immediately.
    #[must_use]
    pub fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Self {
        let needs_grad = GRAD_ENABLED.with(Cell::get) && parents.iter().any(Var::needs_grad);
        Var(Rc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            is_param: false,
            needs_grad,
            parents: if needs_grad { parents } else { Vec::new() },
            backward: if needs_grad { Some(backward) } else { None },
        }))
    }

    /// Unique id of the underlying graph node (stable across clones).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether gradient flows through this variable.
    #[must_use]
    pub fn needs_grad(&self) -> bool {
        self.0.needs_grad
    }

    /// Whether this is a trainable parameter leaf.
    #[must_use]
    pub fn is_parameter(&self) -> bool {
        self.0.is_param
    }

    /// Borrow of the current value.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed (only optimizers borrow
    /// mutably, and never during a forward/backward pass).
    #[must_use]
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.0.value.borrow()
    }

    /// Copy of the current value (cheap: the buffer is shared
    /// copy-on-write).
    #[must_use]
    pub fn to_tensor(&self) -> Tensor {
        self.0.value.borrow().clone()
    }

    /// Shape of the current value.
    #[must_use]
    pub fn dims(&self) -> Vec<usize> {
        self.0.value.borrow().dims().to_vec()
    }

    /// Deep copy of the accumulated gradient, if any.
    #[must_use]
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Replaces the accumulated gradient (used by gradient clipping).
    pub fn set_grad(&self, grad: Option<Tensor>) {
        *self.0.grad.borrow_mut() = grad;
    }

    /// Replaces the stored value (used by optimizers and checkpoint loading).
    pub fn set_value(&self, value: Tensor) {
        *self.0.value.borrow_mut() = value;
    }

    /// Applies `f` to the stored value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.0.value.borrow_mut());
    }

    /// Runs reverse-mode differentiation seeded with `dL/dself = 1`.
    ///
    /// Intended for scalar losses: the seed is a ones tensor of this
    /// variable's shape.
    pub fn backward(&self) {
        let seed = Tensor::ones(self.value().dims());
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient.
    ///
    /// # Panics
    ///
    /// Panics when `seed`'s shape differs from this variable's shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.dims(),
            self.value().dims(),
            "backward seed shape mismatch"
        );
        if !self.needs_grad() {
            return;
        }
        let order = self.topo_order();
        accumulate(&self.0, seed);
        // `order` is post-order (parents before children), so iterate in
        // reverse: children first.
        for node in order.iter().rev() {
            let Some(backward) = node.0.backward.as_ref() else {
                continue;
            };
            let grad = {
                let g = node.0.grad.borrow();
                match g.as_ref() {
                    Some(g) => g.clone(),
                    None => continue, // branch never reached by the seed
                }
            };
            let parent_grads = backward(&grad);
            debug_assert_eq!(parent_grads.len(), node.0.parents.len());
            for (parent, pg) in node.0.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.needs_grad() {
                        accumulate(&parent.0, pg);
                    }
                }
            }
            // Interior gradients are scratch space; free them eagerly.
            if !node.0.is_param {
                *node.0.grad.borrow_mut() = None;
            }
        }
    }

    /// Post-order (parents first) over the sub-graph that needs gradients.
    fn topo_order(&self) -> Vec<Var> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative DFS with an explicit stack: (node, children_pushed).
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((var, expanded)) = stack.pop() {
            if expanded {
                order.push(var);
                continue;
            }
            if visited.contains(&var.id()) {
                continue;
            }
            visited.insert(var.id());
            stack.push((var.clone(), true));
            for p in &var.0.parents {
                if p.needs_grad() && !visited.contains(&p.id()) {
                    stack.push((p.clone(), false));
                }
            }
        }
        order
    }
}

fn accumulate(node: &Rc<Node>, grad: Tensor) {
    let mut slot = node.grad.borrow_mut();
    match slot.as_mut() {
        Some(existing) => {
            existing
                .add_assign(&grad)
                .expect("gradient shape stable across accumulations");
        }
        None => *slot = Some(grad),
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("value", &*self.value())
            .field("needs_grad", &self.needs_grad())
            .field("parents", &self.0.parents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_receives_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let y = x.mul(&x).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[6.0]);
    }

    #[test]
    fn constant_receives_no_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let c = Var::constant(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let y = x.mul(&c).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
        assert!(c.grad().is_none());
    }

    #[test]
    fn gradient_accumulates_across_backward_calls() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let y1 = x.scale(2.0).sum();
        y1.backward();
        let y2 = x.scale(3.0).sum();
        y2.backward();
        assert_eq!(x.grad().unwrap().data(), &[5.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // y = x + x   => dy/dx = 2
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let y = x.add(&x).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 2_000 chained adds exercise the iterative topo sort.
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut y = x.clone();
        for _ in 0..2_000 {
            y = y.add_scalar(1.0);
        }
        let loss = y.sum();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    fn clone_shares_storage() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let x2 = x.clone();
        x.update_value(|t| t.data_mut()[0] = 9.0);
        assert_eq!(x2.value().data(), &[9.0]);
        assert_eq!(x.id(), x2.id());
    }

    #[test]
    fn backward_on_constant_is_noop() {
        let c = Var::constant(Tensor::scalar(5.0));
        c.backward(); // must not panic
        assert!(c.grad().is_none());
    }

    #[test]
    fn interior_grads_are_freed_but_params_kept() {
        let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mid = x.scale(3.0);
        let loss = mid.sum();
        loss.backward();
        assert!(mid.grad().is_none(), "interior grad should be freed");
        assert_eq!(x.grad().unwrap().data(), &[3.0]);
    }
}
