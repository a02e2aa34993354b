//! The grad-off scope (`autograd::no_grad`): a forward inside it computes
//! the same bits as a taped forward but keeps no tape, and it never leaks
//! out of its scope — training right after it, also after a panic inside
//! it, still gets gradients.

use lmmir_nn::{Activation, BatchNorm2d, Conv2d, Module, Sequential};
use lmmir_tensor::autograd::no_grad;
use lmmir_tensor::conv::ConvSpec;
use lmmir_tensor::{Adam, Optimizer, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn bits(v: &Var) -> Vec<u32> {
    v.value().data().iter().map(|x| x.to_bits()).collect()
}

/// One Adam step; asserts every parameter received a gradient.
fn train_step(net: &Sequential, x: &Var, target: &Var) {
    net.set_training(true);
    let mut opt = Adam::new(net.parameters(), 0.01);
    opt.zero_grad();
    let loss = net.forward(x).unwrap().mse_loss(target).unwrap();
    assert!(loss.needs_grad(), "the tape must be back on after no_grad");
    loss.backward();
    for (i, p) in net.parameters().iter().enumerate() {
        assert!(p.grad().is_some(), "parameter {i} got no gradient");
    }
    opt.step();
    net.set_training(false);
}

#[test]
fn no_grad_forward_matches_taped_forward_and_training_resumes() {
    let mut rng = StdRng::seed_from_u64(3);
    let spec = ConvSpec::new(1, 1);
    let net = Sequential::new()
        .push(Conv2d::new(2, 4, 3, spec, true, &mut rng))
        .push(BatchNorm2d::new(4))
        .push(Activation::Relu)
        .push(Conv2d::new(4, 1, 3, spec, true, &mut rng))
        .push(Activation::Sigmoid);
    let pixels: Vec<f32> = (0..2 * 8 * 8).map(|i| (i as f32 * 0.37).sin()).collect();
    let x = Var::constant(Tensor::from_vec(pixels, &[1, 2, 8, 8]).unwrap());
    let target = Var::constant(Tensor::full(&[1, 1, 8, 8], 0.25));
    net.set_training(false);

    let taped = net.forward(&x).unwrap();
    assert!(taped.needs_grad());
    let untaped = no_grad(|| net.forward(&x)).unwrap();
    assert!(!untaped.needs_grad(), "no_grad forward must keep no tape");
    assert_eq!(bits(&untaped), bits(&taped), "no_grad changed the forward");

    train_step(&net, &x, &target);

    let panicked = catch_unwind(AssertUnwindSafe(|| {
        no_grad(|| {
            let _ = net.forward(&x);
            panic!("inside no_grad");
        })
    }));
    assert!(panicked.is_err());
    train_step(&net, &x, &target);
}
