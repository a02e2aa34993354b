//! The serving benchmark.
//!
//! Launches the release `serve` binary as a child process with its
//! default configuration, drives it with a closed loop of two clients on
//! one keep-alive connection each, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
//! as the last line of standard output. A run record with the machine,
//! the revision and the sample count behind every metric precedes it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir DIR
//! ```
//!
//! `run.sh` builds both binaries and supplies the last two flags.

mod client;
mod counters;
mod load;
mod quality;
mod replay;
mod report;
mod server;
mod stats;
mod workload;

use counters::{ratio, Deltas};
use lmmir_features::Fnv1a;
use lmmir_serve::{ModelRegistry, RegistrySpec};
use load::{Cursor, Designs, Pool, Window};
use report::{Json, END_TO_END, PER_LAYER};
use server::ServeChild;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{Stream, Workload, CKPT_SEED, CKPT_SIZE, WARM_DESIGNS};

/// Concurrent closed-loop clients, one keep-alive connection each.
const CLIENTS: usize = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// Untimed unique designs sent before a cold window: more than the
/// server's default 64-entry feature and result caches hold, so the
/// window starts with both caches full and evicting, as they stay.
const COLD_WARMUP_DESIGNS: usize = 66;
/// Untimed seconds of repeated requests before the warm window.
const WARM_WARMUP_SECONDS: f64 = 1.0;
/// Pre-encoded cold designs cover this multiple of the warm-up rate over
/// the run; designs beyond the pool are generated on demand.
const POOL_MARGIN: f64 = 1.15;
/// Period of the `/metrics` sampler in the traced window.
const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} wants a value"))?;
            flags.insert(name, value);
        }
        let mut take = |name: &str| {
            flags
                .remove(name)
                .ok_or_else(|| format!("--{name} is required"))
        };
        let workload = take("workload")?;
        let parsed = Args {
            workload: Workload::parse(workload).ok_or_else(|| {
                let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {workload:?} (known: {})",
                    known.join(", ")
                )
            })?,
            seed: take("seed")?
                .parse()
                .map_err(|_| "--seed wants an unsigned integer".to_string())?,
            seconds: take("seconds")?
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .ok_or("--seconds wants a positive number")?,
            trace: match take("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
            },
            serve_bin: take("serve-bin")?.into(),
            work_dir: take("work-dir")?.into(),
        };
        if let Some(extra) = flags.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 --serve-bin PATH --work-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", Json::obj([("run_record", out.record)]));
            println!("{}", out.result);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness or validity check failed (see failures)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run prints.
struct Outcome {
    record: Json,
    result: Json,
    correct: bool,
}

/// FNV-1a hash of a file's bytes.
fn file_hash(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut h = Fnv1a::new();
    h.write(&bytes);
    Ok(h.finish())
}

/// The workload's checkpoint, trained by this build's own
/// `serve demo-ckpt` at the fixed seed. Training takes seconds, so the
/// file is kept in `cache` under the hash of the `serve` binary: later
/// runs of the same build reuse it, and another build trains its own.
/// Returns the path, the checkpoint's hash and whether this run trained it.
fn checkpoint(bin: &Path, w: Workload, cache: &Path) -> Result<(PathBuf, u64, bool), String> {
    let (epochs, cases) = w.ckpt_training();
    let path = cache.join(format!(
        "{}-{:016x}-s{CKPT_SIZE}-seed{CKPT_SEED}-e{epochs}-c{cases}.lmmt",
        w.arch(),
        file_hash(bin)?
    ));
    let trained = !path.exists();
    if trained {
        std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        let tmp = cache.join(format!("partial-{}.lmmt", std::process::id()));
        let out = Command::new(bin)
            .arg("demo-ckpt")
            .arg(&tmp)
            .args(["--arch", w.arch(), "--size", &CKPT_SIZE.to_string()])
            .args(["--seed", &CKPT_SEED.to_string()])
            .args([
                "--epochs",
                &epochs.to_string(),
                "--cases",
                &cases.to_string(),
            ])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("running {} demo-ckpt: {e}", bin.display()))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "serve demo-ckpt failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let hash = file_hash(&path)?;
    Ok((path, hash, trained))
}

/// One timed window with its counter deltas.
struct Measured {
    window: Window,
    deltas: Deltas,
    guard: Result<(), String>,
    scrapes: u64,
}

/// Runs one window between two `/metrics` scrapes; with `sample`, a
/// third thread also scrapes `/metrics` every [`SAMPLE_PERIOD`].
fn measure(
    server: &ServeChild,
    w: Workload,
    designs: &Designs,
    cursor: &Cursor,
    seconds: f64,
    sample: bool,
) -> Result<Measured, String> {
    let before = server.counters()?;
    let stop = AtomicBool::new(false);
    let (window, scrapes) = std::thread::scope(|s| {
        let sampler = sample.then(|| {
            s.spawn(|| {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_PERIOD);
                    n += u64::from(server.counters().is_ok());
                }
                n
            })
        });
        let window = load::run(
            server.addr(),
            designs,
            w.design_px(),
            cursor,
            CLIENTS,
            seconds,
        );
        stop.store(true, Ordering::Relaxed);
        let scrapes = sampler.map_or(0, |h| h.join().expect("sampler panicked"));
        (window, scrapes)
    });
    let after = server.counters()?;
    let deltas = Deltas::between(&before, &after, w.model())?;
    let guard = counters::check(w.cold(), &deltas, window.ok, window.error_frames);
    Ok(Measured {
        window,
        deltas,
        guard,
        scrapes,
    })
}

/// Requests attempted and failed over a run, and what failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// Failed requests and failed validity guards, one line each.
    failures: Vec<String>,
}

/// Warms the server and returns the designs the timed windows send.
fn prepare_designs(
    server: &ServeChild,
    a: &Args,
    model: &dyn lmm_ir::IrPredictor,
    gate: &mut Gate,
) -> Result<Designs, String> {
    let w = a.workload;
    let addr = server.addr();
    let all_ok = |answers: &[load::Answer]| -> Result<(), String> {
        match answers.iter().find(|r| !matches!(r, Ok((200, _)))) {
            None => Ok(()),
            Some(Ok((status, _))) => Err(format!("warm-up request answered HTTP {status}")),
            Some(Err(e)) => Err(format!("warm-up request failed: {e}")),
        }
    };
    if w.cold() {
        let warm = w.bodies(a.seed, Stream::Warmup, 0..COLD_WARMUP_DESIGNS);
        let t = Instant::now();
        all_ok(&load::send_all(addr, &warm, CLIENTS))?;
        #[allow(clippy::cast_precision_loss)]
        let rate = COLD_WARMUP_DESIGNS as f64 / t.elapsed().as_secs_f64();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let want = (rate * a.seconds * POOL_MARGIN).ceil() as usize + 16;
        let path = a.work_dir.join(format!("pool-{}.bin", std::process::id()));
        let pool = Pool::create(&path, w, a.seed, want, CLIENTS)?;
        return Ok(Designs::Unique {
            workload: w,
            seed: a.seed,
            pool,
        });
    }
    let bodies = w.bodies(a.seed, Stream::Timed, 0..WARM_DESIGNS);
    let first = load::send_all(addr, &bodies, 1);
    all_ok(&first)?;
    let reference: Vec<Vec<u8>> = first
        .into_iter()
        .map(|r| r.expect("checked above").1)
        .collect();
    // Every warm answer must equal these first ones, which must in turn
    // equal the in-process prediction.
    gate.attempted += bodies.len() as u64;
    for (i, (body, frame)) in bodies.iter().zip(&reference).enumerate() {
        let req = lmmir_serve::PredictRequest::decode(body).map_err(|e| e.to_string())?;
        let expected = quality::reference(model, &req)?;
        match lmmir_serve::PredictResponse::decode(frame) {
            Ok(resp) if quality::matches(&resp, &expected) => {}
            _ => {
                gate.failed += 1;
                gate.failures.push(format!(
                    "warm design {i}: served answer differs from the in-process prediction"
                ));
            }
        }
    }
    let designs = Designs::Repeated { bodies, reference };
    let warmup = load::run(
        addr,
        &designs,
        w.design_px(),
        &Cursor::default(),
        CLIENTS,
        WARM_WARMUP_SECONDS,
    );
    if warmup.failed() > 0 {
        return Err(format!("warm-up failed: {}", warmup.failures.join("; ")));
    }
    Ok(designs)
}

/// Starts `serve` [`SETUP_SPAWNS`] times, keeping the last start-up;
/// returns it with every start-up's seconds to ready.
fn start_server(bin: &Path, w: Workload, ckpt: &Path) -> Result<(ServeChild, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(previous) = server.take() {
            ServeChild::shutdown(previous)?;
        }
        let (child, seconds) = ServeChild::spawn(bin, w.model(), ckpt)?;
        setups.push(seconds);
        server = Some(child);
    }
    Ok((server.expect("SETUP_SPAWNS > 0"), setups))
}

/// First line of a command's output, or `"unavailable"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn window_json(kind: &str, m: &Measured) -> Json {
    let w = &m.window;
    let d = &m.deltas;
    Json::obj([
        ("kind", Json::str(kind)),
        ("attempted", Json::Int(w.attempted)),
        ("ok", Json::Int(w.ok)),
        ("failed", Json::Int(w.failed())),
        ("elapsed_s", Json::Num(w.elapsed_s)),
        ("window_throughput_rps", Json::Num(w.throughput_rps())),
        ("latency_samples", Json::Int(w.samples.len() as u64)),
        (
            "batches",
            Json::Arr(
                w.batches()
                    .iter()
                    .map(|b| {
                        let opt_ms = |v: Option<f64>| Json::Num(v.map_or(f64::NAN, ms));
                        Json::obj([
                            ("samples", Json::Int(b.samples as u64)),
                            ("rate_rps", Json::Num(b.rate)),
                            ("p50_ms", opt_ms(b.p50)),
                            ("p95_ms", opt_ms(b.p95)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("designs_generated_in_window", Json::Int(w.generated)),
        ("metrics_scrapes", Json::Int(m.scrapes)),
        (
            "server_deltas",
            Json::obj([
                ("predict_ok", Json::Num(d.ok)),
                ("predict_error", Json::Num(d.errors)),
                ("result_cache_hits", Json::Num(d.result_hits)),
                ("result_cache_misses", Json::Num(d.result_misses)),
                ("feature_cache_hits", Json::Num(d.feature_hits)),
                ("feature_cache_misses", Json::Num(d.feature_misses)),
                ("dedup_saved", Json::Num(d.dedup_saved)),
                ("forwards", Json::Num(d.forwards)),
                ("batches", Json::Num(d.batches)),
            ]),
        ),
        (
            "guard",
            match &m.guard {
                Ok(()) => Json::str("passed"),
                Err(e) => Json::str(e.clone()),
            },
        ),
    ])
}

/// Every value a run measured: name → (value, samples behind it).
type Values = BTreeMap<&'static str, (f64, usize)>;

/// The end-to-end values of the run's (last) window.
fn end_to_end(
    values: &mut Values,
    setups: &[f64],
    window: &Window,
    gate: &Gate,
    peak_rss_mb: f64,
    q: &quality::Quality,
) {
    values.insert(
        "setup_s",
        (stats::median(setups).expect("spawned"), setups.len()),
    );
    let batches = window.batches();
    let n = window.samples.len();
    if let Some(rate) = stats::batch_median(&batches, |b| Some(b.rate)) {
        values.insert("throughput_rps", (rate, n));
    }
    if let Some(p50) = stats::batch_median(&batches, |b| b.p50) {
        values.insert("latency_p50_ms", (ms(p50), n));
    }
    if let Some(p95) = stats::batch_median(&batches, |b| b.p95) {
        values.insert("latency_p95_ms", (ms(p95), n));
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    values.insert(
        "success_rate",
        (
            1.0 - gate.failed as f64 / gate.attempted.max(1) as f64,
            gate.attempted as usize,
        ),
    );
    values.insert("server_peak_rss_mb", (peak_rss_mb, 1));
    values.insert("mae_e4", (q.mae_e4, q.designs));
    values.insert("f1", (q.f1, q.designs));
}

/// The per-layer values: counter deltas of the traced window, then the
/// replay. Adds the tracing overhead and the replayed-over-served forward
/// ratio to the record.
fn per_layer(
    values: &mut Values,
    record: &mut Vec<(&'static str, Json)>,
    a: &Args,
    model: &dyn lmm_ir::IrPredictor,
    untraced: &Measured,
    traced: &Measured,
) -> Result<(), String> {
    let (d, w) = (&traced.deltas, &traced.window);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = |x: f64| x as usize;
    let server_mean = ms(ratio(d.latency_s, d.latency_count));
    let client_mean = ms(stats::mean(&w.latencies()).unwrap_or(0.0));
    let requests = count(d.latency_count);
    for (name, value, samples) in [
        ("serve.server_latency_mean_ms", server_mean, requests),
        (
            "serve.forward_mean_ms",
            ms(ratio(d.forward_s, d.forwards)),
            count(d.forwards),
        ),
        (
            "serve.nonforward_mean_ms",
            ms(ratio(d.latency_s - d.forward_s, d.latency_count)),
            requests,
        ),
        (
            "serve.client_overhead_ms",
            client_mean - server_mean,
            w.samples.len(),
        ),
        (
            "serve.batch_mean_size",
            ratio(d.batched_jobs, d.batches),
            count(d.batches),
        ),
        (
            "serve.forwards_per_request",
            ratio(d.forwards, d.ok),
            requests,
        ),
        (
            "serve.result_cache_hit_ratio",
            d.result_hit_ratio(),
            count(d.result_hits + d.result_misses),
        ),
        (
            "serve.feature_cache_hit_ratio",
            d.feature_hit_ratio(),
            count(d.feature_hits + d.feature_misses),
        ),
    ] {
        values.insert(name, (value, samples));
    }
    let samples = replay::run(a.workload, a.seed, model, a.workload.replay_designs())?;
    for (name, _) in &PER_LAYER {
        let s = samples.get(name);
        if let Some(v) = stats::median(s) {
            values.insert(name, (v, s.len()));
        }
    }
    let (untraced_rps, traced_rps) = (untraced.window.throughput_rps(), w.throughput_rps());
    record.push((
        "tracing_overhead",
        Json::obj([
            ("untraced_throughput_rps", Json::Num(untraced_rps)),
            ("traced_throughput_rps", Json::Num(traced_rps)),
            (
                "traced_over_untraced",
                Json::Num(ratio(traced_rps, untraced_rps)),
            ),
        ]),
    ));
    let value = |k: &str| values.get(k).map_or(0.0, |v| v.0);
    record.push((
        "replayed_over_served_forward",
        Json::Num(ratio(
            value("core.forward_ms"),
            value("serve.forward_mean_ms"),
        )),
    ));
    Ok(())
}

/// The machine, revision and checkpoint a run measured.
fn machine_record(a: &Args, ckpt_hash: u64, ckpt_trained: bool) -> Vec<(&'static str, Json)> {
    let w = a.workload;
    let (epochs, cases) = w.ckpt_training();
    vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(a.seed)),
        ("seconds", Json::Num(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("clients", Json::Int(CLIENTS as u64)),
        ("loop", Json::str("closed")),
        ("design_px", Json::Int(w.design_px() as u64)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "lmmir_threads",
            std::env::var("LMMIR_THREADS").map_or(Json::str("unset (pool default)"), Json::Str),
        ),
        (
            "git_revision",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "checkpoint",
            Json::obj([
                ("arch", Json::str(w.arch())),
                ("size", Json::Int(CKPT_SIZE as u64)),
                ("seed", Json::Int(CKPT_SEED)),
                ("epochs", Json::Int(epochs as u64)),
                ("cases", Json::Int(cases as u64)),
                ("fnv1a", Json::str(format!("{ckpt_hash:016x}"))),
                ("trained_this_run", Json::Bool(ckpt_trained)),
            ]),
        ),
    ]
}

/// Wall time of a run's phases, for the run record.
struct Phases {
    last: Instant,
    seconds: Vec<(&'static str, Json)>,
}

impl Phases {
    fn start() -> Phases {
        Phases {
            last: Instant::now(),
            seconds: Vec::new(),
        }
    }

    /// Ends phase `name`, started when the previous one ended.
    fn done(&mut self, name: &'static str) {
        let now = Instant::now();
        let seconds = now.duration_since(self.last).as_secs_f64();
        self.seconds.push((name, Json::Num(seconds)));
        self.last = now;
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let mut phases = Phases::start();
    let (ckpt, ckpt_hash, ckpt_trained) =
        checkpoint(&a.serve_bin, w, &a.work_dir.join("checkpoints"))?;
    let registry = ModelRegistry::load(RegistrySpec::single(w.model(), &ckpt))
        .map_err(|e| format!("loading {} in process: {e}", ckpt.display()))?;
    let model = registry
        .resolve(w.model())
        .ok_or("registry lost its only model")?
        .model
        .as_ref();
    phases.done("checkpoint");
    let (server, setups) = start_server(&a.serve_bin, w, &ckpt)?;
    phases.done("setup");

    let mut gate = Gate::default();
    let designs = prepare_designs(&server, a, model, &mut gate)?;
    phases.done("warmup_and_designs");
    let cursor = Cursor::default();
    let mut windows = Vec::new();
    if a.trace {
        let half = a.seconds / 2.0;
        windows.push((
            "untraced",
            measure(&server, w, &designs, &cursor, half, false)?,
        ));
        windows.push((
            "traced",
            measure(&server, w, &designs, &cursor, half, true)?,
        ));
    } else {
        windows.push((
            "untraced",
            measure(&server, w, &designs, &cursor, a.seconds, false)?,
        ));
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(designs);
    phases.done("windows");
    let q = quality::run(server.addr(), w, model)?;
    server.shutdown()?;
    phases.done("quality");

    for (kind, m) in &windows {
        gate.attempted += m.window.attempted;
        gate.failed += m.window.failed();
        let failures = m
            .window
            .failures
            .iter()
            .map(|f| format!("{kind} window: {f}"));
        gate.failures.extend(failures);
        if let Err(e) = &m.guard {
            gate.failures.push(format!("{kind} window guard: {e}"));
        }
    }
    gate.attempted += q.attempted;
    gate.failed += q.failures.len() as u64;
    gate.failures.extend(q.failures.iter().cloned());

    let mut values = Values::new();
    let last = &windows.last().expect("at least one window").1;
    end_to_end(&mut values, &setups, &last.window, &gate, peak_rss_mb, &q);
    let mut record = machine_record(a, ckpt_hash, ckpt_trained);
    record.push((
        "setup_s_samples",
        Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
    ));
    record.push((
        "windows",
        Json::Arr(windows.iter().map(|(k, m)| window_json(k, m)).collect()),
    ));
    let printed: &[(&str, &str)] = if a.trace {
        per_layer(&mut values, &mut record, a, model, &windows[0].1, last)?;
        phases.done("replay");
        &PER_LAYER
    } else {
        &END_TO_END
    };

    let mut metrics = Vec::new();
    for (name, unit) in printed {
        let (value, _) = values.get(name).ok_or_else(|| {
            format!(
                "{name} could not be measured ({} latency samples)",
                last.window.samples.len()
            )
        })?;
        if !value.is_finite() {
            return Err(format!("{name} measured as {value}"));
        }
        metrics.push((
            (*name).to_string(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        ));
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u)
    };
    let all = values.iter().map(|(name, (value, samples))| {
        Json::obj([
            ("name", Json::str(*name)),
            ("value", Json::Num(*value)),
            ("unit", Json::str(unit_of(name))),
            ("samples", Json::Int(*samples as u64)),
        ])
    });
    record.push(("metrics", Json::Arr(all.collect())));
    record.push(("phase_s", Json::obj(phases.seconds)));
    record.push((
        "failures",
        Json::Arr(gate.failures.iter().map(|f| Json::str(f.clone())).collect()),
    ));
    let correct = gate.failures.is_empty() && gate.failed == 0;
    Ok(Outcome {
        record: Json::obj(record),
        result: Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(gate.attempted)),
            ("failed", Json::Int(gate.failed)),
            ("metrics", Json::Obj(metrics)),
        ]),
        correct,
    })
}
