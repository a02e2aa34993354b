//! The `serve` CLI: run the batched inference server (a worker), run a
//! shard router over several workers, or produce a demo checkpoint to
//! serve.
//!
//! ```text
//! serve [--addr A] --ckpt NAME=PATH [--ckpt NAME=PATH ...] [--default NAME]
//!       [--max-batch N] [--max-wait-ms N] [--cache N] [--threads N] [--quantized]
//!       [--watch-checkpoints] [--watch-interval-ms N]
//! serve route --workers N --ckpt NAME=PATH [--worker-addr HOST:PORT ...]
//!       [--health-interval-ms N] [--fail-threshold K] [--forwarders N]
//!       [--no-respawn] [--addr A]
//! serve demo-ckpt PATH [--arch NAME] [--size 16] [--widths 12,24,48] [--windows 4]
//!       [--epochs 2] [--cases 2] [--seed 7]
//! ```
//!
//! `--arch` takes any canonical architecture name (`ArchSpec::known_names`;
//! default `IREDGe`); `--windows` configures `DynIR`, `--widths` `LMM-IR`.
//!
//! Environment fallbacks: `LMMIR_SERVE_ADDR`, `LMMIR_MAX_BATCH`,
//! `LMMIR_MAX_WAIT_MS`, `LMMIR_CACHE_CAP`, `LMMIR_RESULT_CACHE_CAP`,
//! `LMMIR_IDLE_TIMEOUT_MS`, `LMMIR_MAX_REQS_PER_CONN`,
//! `LMMIR_MAX_CONNECTIONS`, `LMMIR_EVENT_THREADS`, `LMMIR_QUANTIZED`,
//! `LMMIR_WATCH_CHECKPOINTS`, `LMMIR_WATCH_INTERVAL_MS` (flags win).

use lmm_ir::{
    build_dynamic_sample, build_sample, save_predictor, train, train_dynamic, CheckpointMeta,
    DynamicIrConfig, DynamicIrPredictor, LmmIr, LmmIrConfig, TrainConfig,
};
use lmmir_pdn::{CaseKind, CaseSpec};
use lmmir_serve::{
    instantiate, ModelSpec, RegistrySpec, RouterSpec, ServeConfig, Server, WorkerCmd,
};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    let arches = lmm_ir::ArchSpec::known_names();
    eprintln!(
        "usage:\n  serve [--addr A] --ckpt NAME=PATH [--ckpt ...] [--default NAME] \
         [--max-batch N] [--max-wait-ms N] [--cache N] [--result-cache N] \
         [--idle-timeout-ms N] [--max-requests-per-conn N] [--max-connections N] \
         [--event-threads N] [--threads N] [--quantized] \
         [--watch-checkpoints] [--watch-interval-ms N]\n  \
         serve route --workers N --ckpt NAME=PATH [--ckpt ...] \
         [--worker-addr HOST:PORT ...] [--addr A] [--health-interval-ms N] \
         [--fail-threshold K] [--forwarders N] [--probe-timeout-ms N] \
         [--respawn-backoff-ms N] [--no-respawn] + worker flags to pass through\n  \
         serve demo-ckpt PATH [--arch NAME] [--size 16] [--widths 12,24,48] [--windows 4] \
         [--epochs 2] [--cases 2] [--seed 7]\n    \
         --arch NAME: one of {arches} (default IREDGe)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo-ckpt") => demo_ckpt(&args[1..]),
        Some("route") => run_router(&args[1..]),
        Some(_) => run_server(&args),
        None => usage(),
    }
}

/// A parsed `--flag VALUE` pair.
type Flag = (String, String);

/// Flags that take no value; parsed as `(name, "true")`.
const BOOL_FLAGS: &[&str] = &["quantized", "watch-checkpoints", "no-respawn"];

/// Parses `--flag VALUE` pairs into a list, rejecting unknown flags.
fn parse_flags(args: &[String], positional_max: usize) -> Option<(Vec<String>, Vec<Flag>)> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it.next()?;
            flags.push((name.to_string(), value.clone()));
        } else {
            if positional.len() >= positional_max {
                return None;
            }
            positional.push(a.clone());
        }
    }
    Some((positional, flags))
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid --{name} {value:?}"))
}

fn run_server(args: &[String]) -> ExitCode {
    let Some((positional, flags)) = parse_flags(args, 0) else {
        return usage();
    };
    debug_assert!(positional.is_empty());
    let mut cfg = match ServeConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = RegistrySpec {
        models: Vec::new(),
        default_model: None,
        quantized: false,
    };
    for (name, value) in &flags {
        let result: Result<(), String> = match name.as_str() {
            "addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "ckpt" => match value.split_once('=') {
                Some((n, p)) if !n.is_empty() && !p.is_empty() => {
                    spec.models.push(ModelSpec {
                        name: n.to_string(),
                        path: p.into(),
                    });
                    Ok(())
                }
                _ => Err(format!("--ckpt wants NAME=PATH, got {value:?}")),
            },
            "default" => {
                spec.default_model = Some(value.clone());
                Ok(())
            }
            "max-batch" => parse("max-batch", value).map(|n: usize| cfg.max_batch = n.max(1)),
            "max-wait-ms" => {
                parse("max-wait-ms", value).map(|n: u64| cfg.max_wait = Duration::from_millis(n))
            }
            "cache" => parse("cache", value).map(|n| cfg.cache_capacity = n),
            "result-cache" => parse("result-cache", value).map(|n| cfg.result_cache_capacity = n),
            "idle-timeout-ms" => parse("idle-timeout-ms", value)
                .map(|n: u64| cfg.idle_timeout = Duration::from_millis(n.max(1))),
            "max-requests-per-conn" => parse("max-requests-per-conn", value)
                .map(|n: usize| cfg.max_requests_per_conn = n.max(1)),
            "max-connections" => {
                parse("max-connections", value).map(|n: usize| cfg.max_connections = n.max(1))
            }
            "event-threads" => {
                parse("event-threads", value).map(|n: usize| cfg.event_threads = n.max(1))
            }
            "threads" => parse("threads", value).map(|n: usize| cfg.threads = Some(n.max(1))),
            "quantized" => {
                cfg.quantized = true;
                Ok(())
            }
            "watch-checkpoints" => {
                cfg.watch_checkpoints = true;
                Ok(())
            }
            "watch-interval-ms" => parse("watch-interval-ms", value)
                .map(|n: u64| cfg.watch_interval = Duration::from_millis(n.max(1))),
            other => Err(format!("unknown flag --{other}")),
        };
        if let Err(e) = result {
            eprintln!("serve: {e}");
            return usage();
        }
    }
    if spec.models.is_empty() {
        eprintln!("serve: at least one --ckpt NAME=PATH is required");
        return usage();
    }
    let server = match Server::start(cfg.clone(), spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[serve] listening on http://{} (max_batch {}, max_wait {:?}, cache {}, \
         result-cache {}, idle-timeout {:?}, max-reqs/conn {}, max-conns {}, \
         event-threads {}, weights {}) — \
         POST /predict, GET /healthz, GET /metrics, POST /reload, POST /shutdown",
        server.addr(),
        cfg.max_batch,
        cfg.max_wait,
        cfg.cache_capacity,
        cfg.result_cache_capacity,
        cfg.idle_timeout,
        cfg.max_requests_per_conn,
        cfg.max_connections,
        cfg.event_threads,
        if cfg.quantized { "int8" } else { "f32" },
    );
    server.wait();
    eprintln!("[serve] drained, bye");
    ExitCode::SUCCESS
}

/// Worker flags `serve route` forwards verbatim to each spawned worker
/// (everything that configures the worker's own serving, none of the
/// router's knobs or the bind address the router chooses per worker).
const WORKER_PASSTHROUGH: &[&str] = &[
    "ckpt",
    "default",
    "max-batch",
    "max-wait-ms",
    "cache",
    "result-cache",
    "idle-timeout-ms",
    "max-requests-per-conn",
    "max-connections",
    "event-threads",
    "threads",
    "quantized",
    "watch-checkpoints",
    "watch-interval-ms",
];

/// Runs the shard router: spawns `--workers N` supervised worker
/// processes (this same binary, with the pass-through flags), attaches
/// any `--worker-addr` peers, and serves the router front end.
fn run_router(args: &[String]) -> ExitCode {
    let Some((positional, flags)) = parse_flags(args, 0) else {
        return usage();
    };
    debug_assert!(positional.is_empty());
    let mut cfg = match ServeConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = RouterSpec::default();
    let mut workers = 0usize;
    let mut has_ckpt = false;
    let mut worker_args: Vec<String> = Vec::new();
    for (name, value) in &flags {
        if WORKER_PASSTHROUGH.contains(&name.as_str()) {
            has_ckpt |= name == "ckpt";
            worker_args.push(format!("--{name}"));
            if !BOOL_FLAGS.contains(&name.as_str()) {
                worker_args.push(value.clone());
            }
            continue;
        }
        let result: Result<(), String> = match name.as_str() {
            "addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "workers" => parse("workers", value).map(|n| workers = n),
            "worker-addr" => {
                spec.attach.push(value.clone());
                Ok(())
            }
            "health-interval-ms" => parse("health-interval-ms", value)
                .map(|n: u64| spec.health_interval = Duration::from_millis(n.max(1))),
            "fail-threshold" => {
                parse("fail-threshold", value).map(|k: u32| spec.fail_threshold = k.max(1))
            }
            "forwarders" => parse("forwarders", value).map(|n| spec.forwarders = n),
            "probe-timeout-ms" => parse("probe-timeout-ms", value)
                .map(|n: u64| spec.probe_timeout = Duration::from_millis(n.max(1))),
            "respawn-backoff-ms" => parse("respawn-backoff-ms", value)
                .map(|n: u64| spec.respawn_backoff = Duration::from_millis(n.max(1))),
            "no-respawn" => {
                spec.respawn = false;
                Ok(())
            }
            other => Err(format!("unknown flag --{other}")),
        };
        if let Err(e) = result {
            eprintln!("serve: {e}");
            return usage();
        }
    }
    if workers > 0 && !has_ckpt {
        eprintln!("serve: --workers needs at least one --ckpt NAME=PATH to spawn with");
        return usage();
    }
    if workers > 0 {
        let program = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("serve: cannot locate own executable to spawn workers: {e}");
                return ExitCode::FAILURE;
            }
        };
        spec.spawn = (0..workers)
            .map(|_| WorkerCmd {
                program: program.clone(),
                args: worker_args.clone(),
            })
            .collect();
    }
    let server = match Server::start_router(cfg.clone(), spec.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (i, addr) in server.worker_addrs().iter().enumerate() {
        let kind = if i < workers { "spawned" } else { "attached" };
        eprintln!("[router] worker {i} at {addr} ({kind})");
    }
    eprintln!(
        "[router] routing on http://{} ({} spawned + {} attached workers, \
         health every {:?}, evict after {} failures, respawn {}) — \
         POST /predict, GET /healthz, GET /metrics, POST /reload, POST /shutdown",
        server.addr(),
        workers,
        spec.attach.len(),
        spec.health_interval,
        spec.fail_threshold,
        if spec.respawn { "on" } else { "off" },
    );
    server.wait();
    eprintln!("[router] drained, bye");
    ExitCode::SUCCESS
}

/// Trains a small model on generated cases and writes a checkpoint the
/// server can load — the zero-to-serving path used by CI's smoke job.
fn demo_ckpt(args: &[String]) -> ExitCode {
    let Some((positional, flags)) = parse_flags(args, 1) else {
        return usage();
    };
    let Some(path) = positional.first() else {
        return usage();
    };
    let mut arch = "IREDGe".to_string();
    let mut size = 16usize;
    let mut epochs = 2usize;
    let mut cases = 2usize;
    let mut seed = 7u64;
    let mut widths: Option<Vec<usize>> = None;
    let mut windows = 4usize;
    let mut windows_set = false;
    for (name, value) in &flags {
        let result: Result<(), String> = match name.as_str() {
            "arch" => {
                arch = value.clone();
                Ok(())
            }
            "size" => parse("size", value).map(|v| size = v),
            "epochs" => parse("epochs", value).map(|v| epochs = v),
            "cases" => parse("cases", value).map(|v| cases = v),
            "seed" => parse("seed", value).map(|v| seed = v),
            "widths" => value
                .split(',')
                .map(|w| parse("widths", w.trim()))
                .collect::<Result<Vec<usize>, _>>()
                .map(|v| widths = Some(v)),
            "windows" => parse("windows", value).map(|v| {
                windows = v;
                windows_set = true;
            }),
            other => Err(format!("unknown flag --{other}")),
        };
        if let Err(e) = result {
            eprintln!("serve: {e}");
            return usage();
        }
    }
    if windows_set && arch != "DynIR" {
        eprintln!("serve: --windows only configures --arch DynIR");
        return ExitCode::FAILURE;
    }
    if arch == "DynIR" {
        return demo_dynamic_ckpt(path, size, windows, widths, epochs, cases, seed);
    }
    let channels = match lmm_ir::ArchSpec::from_name(&arch) {
        Some(spec) => spec.default_input_channels(),
        None => {
            eprintln!(
                "serve: unknown --arch {arch:?} (known: {})",
                lmm_ir::ArchSpec::known_names()
            );
            return ExitCode::FAILURE;
        }
    };
    if widths.is_some() && arch != "LMM-IR" {
        eprintln!("serve: --widths only configures --arch LMM-IR or DynIR");
        return ExitCode::FAILURE;
    }
    // A custom width plan produces a *full-config* (format v3) checkpoint:
    // the saved file records the exact architecture, and the registry
    // rebuilds it from that record rather than assuming quick() widths.
    let model = if let Some(widths) = widths {
        let cfg = LmmIrConfig {
            input_size: size,
            widths,
            seed,
            ..LmmIrConfig::quick()
        };
        if let Err(e) = cfg.validate() {
            eprintln!("serve: invalid LMM-IR config: {e}");
            return ExitCode::FAILURE;
        }
        Box::new(LmmIr::new(cfg)) as Box<dyn lmm_ir::IrPredictor>
    } else {
        let meta = CheckpointMeta {
            model: arch.clone(),
            input_channels: channels,
            input_size: size,
            config: None,
            quant_scales: Default::default(),
        };
        match instantiate(&meta) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let samples: Result<Vec<_>, _> = (0..cases)
        .map(|i| {
            build_sample(
                &CaseSpec::new(
                    format!("demo{i}"),
                    size,
                    size,
                    seed + i as u64,
                    CaseKind::Fake,
                ),
                size,
            )
        })
        .collect();
    let samples = match samples {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: demo case generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let train_cfg = TrainConfig {
        epochs,
        pretrain_epochs: 0,
        oversample: (1, 1),
        seed,
        ..TrainConfig::quick()
    };
    if let Err(e) = train(model.as_ref(), &samples, &train_cfg) {
        eprintln!("serve: demo training failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = save_predictor(model.as_ref(), path) {
        eprintln!("serve: saving checkpoint failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[serve] wrote {path}: {arch} ({channels} channels, {size} px), \
         trained {epochs} epoch(s) on {cases} generated case(s)"
    );
    ExitCode::SUCCESS
}

/// The `demo-ckpt --arch DynIR` path: generates vector-based dynamic
/// workloads, golden-solves every window for the max-over-windows targets,
/// and writes a full-config (v4 `config.dynamic`) checkpoint.
fn demo_dynamic_ckpt(
    path: &str,
    size: usize,
    windows: usize,
    widths: Option<Vec<usize>>,
    epochs: usize,
    cases: usize,
    seed: u64,
) -> ExitCode {
    let mut cfg = DynamicIrConfig {
        windows,
        input_size: size,
        seed,
        ..DynamicIrConfig::quick()
    };
    if let Some(widths) = widths {
        cfg.widths = widths;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("serve: invalid DynIR config: {e}");
        return ExitCode::FAILURE;
    }
    let model = DynamicIrPredictor::new(cfg);
    let samples: Result<Vec<_>, _> = (0..cases)
        .map(|i| {
            build_dynamic_sample(
                &CaseSpec::new(
                    format!("demo{i}"),
                    size,
                    size,
                    seed + i as u64,
                    CaseKind::Fake,
                ),
                windows,
                size,
            )
        })
        .collect();
    let samples = match samples {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: dynamic demo case generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let train_cfg = TrainConfig {
        epochs,
        pretrain_epochs: 0,
        oversample: (1, 1),
        seed,
        ..TrainConfig::quick()
    };
    if let Err(e) = train_dynamic(&model, &samples, &train_cfg) {
        eprintln!("serve: dynamic demo training failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = save_predictor(&model, path) {
        eprintln!("serve: saving checkpoint failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[serve] wrote {path}: DynIR ({windows} windows, {size} px), \
         trained {epochs} epoch(s) on {cases} generated case(s)"
    );
    ExitCode::SUCCESS
}
