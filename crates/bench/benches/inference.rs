//! TAT micro-benchmark (Table III's TAT column): single-sample inference
//! time of every model column at the quick reproduction scale.

use criterion::{criterion_group, criterion_main, Criterion};
use lmm_ir::build_sample;
use lmmir_bench::{label, Harness, TABLE3_COLUMNS};
use lmmir_pdn::{CaseKind, CaseSpec};
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let h = Harness::quick();
    let spec = CaseSpec::new("bench", 48, 48, 99, CaseKind::Hidden);
    let sample = build_sample(&spec, h.lmm.input_size).expect("sample builds");
    let mut group = c.benchmark_group("inference_tat");
    group.sample_size(10);
    for arch in TABLE3_COLUMNS {
        let model = h.build_model(arch);
        model.set_training(false);
        let images = sample.images_for(model.input_channels());
        let cloud = model.uses_netlist().then_some(&sample.cloud);
        group.bench_function(label(arch), |b| {
            b.iter(|| {
                let y = model.forward(black_box(&images), cloud).expect("forward");
                black_box(y.to_tensor());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
