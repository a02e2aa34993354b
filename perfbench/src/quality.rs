//! The output-correctness gate and the quality metrics.
//!
//! Every served answer for a quality design must be bitwise equal to the
//! in-process prediction on the same checkpoint, prepared through
//! `serve::prepare_request`, and every answer for one design must equal
//! every other. The served maps are then scored against golden solver
//! maps. These scores guard the numerics; they do not reproduce the
//! paper's accuracy (the checkpoints are trained for seconds).

use crate::load;
use crate::workload::{Stream, Workload};
use lmm_ir::{confusion, mae, Confusion, InferenceSession, IrPredictor, Prediction, HOTSPOT_FRAC};
use lmmir_features::{ir_drop_map, Raster};
use lmmir_serve::{prepare_request, PredictRequest, PredictResponse};
use std::net::SocketAddr;

/// In-process prediction for `req`, through the server's own preparation.
///
/// # Errors
///
/// When preparation or the forward pass fails.
pub fn reference(model: &dyn IrPredictor, req: &PredictRequest) -> Result<Prediction, String> {
    let session = InferenceSession::new(model);
    let input = prepare_request(session.spec(), req)?;
    session.predict(&input).map_err(|e| e.to_string())
}

/// Whether a served answer is bitwise the in-process prediction.
#[must_use]
pub fn matches(resp: &PredictResponse, p: &Prediction) -> bool {
    resp.width as usize == p.map.width()
        && resp.height as usize == p.map.height()
        && resp.threshold.to_bits() == p.threshold.to_bits()
        && resp.mask == p.mask
        && resp.map.len() == p.map.data().len()
        && resp
            .map
            .iter()
            .zip(p.map.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Quality of the served maps and the outcome of the gate.
#[derive(Debug, Default)]
pub struct Quality {
    /// Mean absolute error against the golden maps, in 1e-4 V, averaged
    /// over the designs.
    pub mae_e4: f64,
    /// Hotspot F1 against the golden maps, over the pixels of all designs
    /// (pooled, so one flipped pixel moves it little).
    pub f1: f64,
    /// Designs scored.
    pub designs: usize,
    /// Requests sent.
    pub attempted: u64,
    /// Gate failures, one line each.
    pub failures: Vec<String>,
}

/// Sends every quality design twice and checks and scores the answers.
///
/// # Errors
///
/// When a golden solve or an in-process prediction fails (a defect of
/// the inputs, not of the served answers).
pub fn run(
    addr: SocketAddr,
    workload: Workload,
    model: &dyn IrPredictor,
) -> Result<Quality, String> {
    let n = workload.quality_designs();
    let cases: Vec<_> = (0..n)
        .map(|i| workload.spec(0, Stream::Quality, i).generate())
        .collect();
    let requests: Vec<PredictRequest> = cases.iter().map(|c| workload.request(c)).collect();
    let bodies: Vec<Vec<u8>> = requests.iter().map(PredictRequest::encode).collect();
    // First every design once (misses), then every design again (hits).
    let twice: Vec<Vec<u8>> = bodies.iter().chain(&bodies).cloned().collect();
    let answers = load::send_all(addr, &twice, 2);
    let mut q = Quality {
        designs: n,
        attempted: twice.len() as u64,
        ..Quality::default()
    };
    let mut pooled = Confusion::default();
    for (i, (case, req)) in cases.iter().zip(&requests).enumerate() {
        let expected = reference(model, req)?;
        let ir = case
            .solve()
            .map_err(|e| format!("golden solve of {}: {e}", case.spec.id))?;
        let (w, h) = (case.power.width(), case.power.height());
        let golden = ir_drop_map(&ir, &case.netlist, w, h, case.tech.dbu_per_um);
        let mut served = None;
        for answer in [&answers[i], &answers[i + n]] {
            let resp = match answer {
                Ok((200, body)) => PredictResponse::decode(body).map_err(|e| e.to_string()),
                Ok((status, _)) => Err(format!("HTTP {status}")),
                Err(e) => Err(format!("transport: {e}")),
            };
            match resp {
                Ok(resp) if matches(&resp, &expected) => served = Some(resp),
                Ok(_) => q.failures.push(format!(
                    "{}: served answer differs from the in-process prediction",
                    case.spec.id
                )),
                Err(e) => q.failures.push(format!("{}: {e}", case.spec.id)),
            }
        }
        let map = match served {
            Some(resp) => Raster::from_vec(w, h, resp.map),
            None => expected.map,
        };
        q.mae_e4 += mae(&map, &golden) * 1e4;
        let c = confusion(&map, &golden, HOTSPOT_FRAC);
        pooled.tp += c.tp;
        pooled.fp += c.fp;
        pooled.fn_ += c.fn_;
        pooled.tn += c.tn;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        q.mae_e4 /= n as f64;
    }
    q.f1 = pooled.f1();
    Ok(q)
}
