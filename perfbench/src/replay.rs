//! The traced replay: times calls into each layer's public functions from
//! outside the program, on the designs the timed window sent first and
//! the checkpoint the server loaded. Nothing inside the program is
//! instrumented; each call is one span around a public entry point.

use crate::workload::{Stream, Workload};
use lmm_ir::{
    hotspot_mask, restore_prediction, FeatureSet, InferenceSession, IrPredictor, PointCloud,
    HOTSPOT_FRAC,
};
use lmmir_features::{effective_resistance_map, pad_distance_map, FeatureStack};
use lmmir_serve::http::{parse_request, Parsed};
use lmmir_serve::{prepare_request, PredictRequest, PredictResponse};
use lmmir_solver::{solve_cg, stamp, CgConfig};
use lmmir_spice::Netlist;
use lmmir_tensor::lazy;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each sub-millisecond call per design.
const FAST_REPS: usize = 5;
/// Repetitions of each forward variant per design.
const FORWARD_REPS: usize = 3;

/// Per-layer samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Times `f` and records its wall time in milliseconds under `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = black_box(f());
        self.push(name, t.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// The samples of `name` (empty when never recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Replays `designs` timed-stream designs of `workload` under `seed`.
///
/// # Errors
///
/// When a replayed call fails on a generated design.
pub fn run(
    workload: Workload,
    seed: u64,
    model: &dyn IrPredictor,
    designs: usize,
) -> Result<Samples, String> {
    let session = InferenceSession::new(model);
    let spec = session.spec();
    let feature_set = FeatureSet::for_channels(spec.channels)
        .ok_or_else(|| format!("no feature set has {} channels", spec.channels))?;
    let mut s = Samples::default();
    for i in 0..designs {
        let req = workload.request(&workload.spec(seed, Stream::Timed, i).generate());
        let body = req.encode();
        #[allow(clippy::cast_precision_loss)]
        s.push("serve.proto.request_kb", body.len() as f64 / 1024.0);

        // serve: the front end's per-request work.
        let mut wire = format!(
            "POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        for _ in 0..FAST_REPS {
            match s.time("serve.http.parse_ms", || parse_request(black_box(&wire))) {
                Ok(Parsed::Ready { .. }) => {}
                other => return Err(format!("http::parse_request: {other:?}")),
            }
            s.time("serve.proto.decode_ms", || {
                PredictRequest::decode(black_box(&body))
            })
            .map_err(|e| format!("PredictRequest::decode: {e}"))?;
            s.time("serve.proto.fingerprint_ms", || {
                black_box(&req).fingerprint()
            });
        }

        // spice
        let text = req
            .netlist
            .as_deref()
            .ok_or("generated request has no netlist")?;
        let netlist = s
            .time("spice.parse_ms", || Netlist::parse_str(black_box(text)))
            .map_err(|e| format!("Netlist::parse_str: {e}"))?;
        #[allow(clippy::cast_precision_loss)]
        s.push("spice.nodes", netlist.stats().nodes as f64);

        // features
        let power = req.power_map();
        let dbu = i64::from(req.dbu_per_um);
        let (w, h) = (power.width(), power.height());
        let stack = s.time("features.stack_ms", || match feature_set {
            FeatureSet::Comprehensive => FeatureStack::comprehensive_parts(&power, &netlist, dbu),
            FeatureSet::Basic => FeatureStack::basic_parts(&power, &netlist, dbu),
            _ => FeatureStack::extended_parts(&power, &netlist, dbu),
        });
        s.time("features.adjust_ms", || {
            stack.adjusted_normalized(spec.size)
        });
        s.time("features.eff_resistance_ms", || {
            effective_resistance_map(&netlist, w, h, dbu)
        });
        s.time("features.pad_distance_ms", || {
            pad_distance_map(&netlist, w, h, dbu)
        });

        // solver: the solve effective_resistance_map runs.
        let sys = s
            .time("solver.stamp_ms", || stamp(&netlist))
            .map_err(|e| format!("stamp: {e}"))?;
        let n = sys.unknowns.len();
        #[allow(clippy::cast_precision_loss)]
        let rhs = vec![1.0 / n as f64; n];
        let sol = s
            .time("solver.cg_ms", || {
                solve_cg(&sys.matrix, &rhs, CgConfig::default())
            })
            .map_err(|e| format!("solve_cg: {e}"))?;
        #[allow(clippy::cast_precision_loss)]
        s.push("solver.cg_iters", sol.iterations as f64);

        // core
        #[allow(clippy::cast_precision_loss)]
        let cloud = s.time("core.pointcloud_ms", || {
            PointCloud::from_netlist(&netlist, dbu, w as f64, h as f64)
        });
        #[allow(clippy::cast_precision_loss)]
        s.push("core.points", cloud.len() as f64);
        let input = s.time("core.prepare_ms", || prepare_request(spec, &req))?;
        // One untimed forward first: the first pass of a design pays for
        // allocations every later pass reuses.
        session.forward(&input).map_err(|e| e.to_string())?;
        let mut pred = None;
        for _ in 0..FORWARD_REPS {
            let (p, _) = s
                .time("core.forward_ms", || session.forward(&input))
                .map_err(|e| e.to_string())?;
            pred = Some(p);
            s.time("par.forward_1t_ms", || {
                lmmir_par::with_threads(1, || session.forward(&input))
            })
            .map_err(|e| e.to_string())?;
            s.time("tensor.forward_eager_ms", || {
                lazy::with_eager(|| session.forward(&input))
            })
            .map_err(|e| e.to_string())?;
        }
        lazy::reset_stats();
        session.forward(&input).map_err(|e| e.to_string())?;
        let stats = lazy::stats();
        #[allow(clippy::cast_precision_loss)]
        {
            s.push("tensor.lazy.programs_per_forward", stats.programs as f64);
            s.push(
                "tensor.lazy.fresh_allocs_per_forward",
                stats.fresh_allocs as f64,
            );
        }
        let pred = pred.expect("FORWARD_REPS > 0");
        let (map, (threshold, mask)) = s.time("core.restore_ms", || {
            let map = restore_prediction(input.info, &pred);
            let hot = hotspot_mask(&map, HOTSPOT_FRAC);
            (map, hot)
        });

        // serve: encoding the answer.
        #[allow(clippy::cast_possible_truncation)]
        let response = PredictResponse {
            width: map.width() as u32,
            height: map.height() as u32,
            threshold,
            cache_hit: false,
            map: map.data().to_vec(),
            mask,
        };
        for _ in 0..FAST_REPS {
            s.time("serve.proto.encode_ms", || black_box(&response).encode());
        }
    }
    Ok(s)
}
