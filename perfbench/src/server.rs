//! The `serve` child process: spawn with its default configuration, wait
//! for readiness, scrape counters, read peak memory, shut down.

use crate::client::Conn;
use crate::counters::Counters;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long `serve` may take to bind, load and report ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful shutdown may take before the child is killed.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `serve` child. Dropping it kills the child and waits for it.
pub struct ServeChild {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl ServeChild {
    /// Spawns `bin` serving checkpoint `ckpt` as `model` on an ephemeral
    /// port and waits until `/healthz` reports ready. Returns the child
    /// and the seconds from spawn to ready.
    ///
    /// The child gets the default configuration: every `LMMIR_*` serve
    /// override is removed from its environment except `LMMIR_THREADS`,
    /// which the run record reports.
    ///
    /// # Errors
    ///
    /// When the child cannot start, exits, or is not ready in time.
    pub fn spawn(bin: &Path, model: &str, ckpt: &Path) -> Result<(ServeChild, f64), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--ckpt")
            .arg(format!("{model}={}", ckpt.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, _) in std::env::vars_os() {
            let key = key.to_string_lossy();
            if key.starts_with("LMMIR_") && key != "LMMIR_THREADS" {
                cmd.env_remove(key.as_ref());
            }
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stderr for the child's whole life (a full pipe would block
        // it), forwarding the bound address and keeping the tail for error
        // reports.
        let stderr = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.split_once("listening on http://").map(|(_, r)| r) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = tx.send(addr.to_string());
                }
                tail.push(line);
                if tail.len() > 20 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut server = ServeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(stderr),
        };
        let addr = rx.recv_timeout(READY_TIMEOUT).map_err(|_| {
            format!(
                "serve did not report its address: {}",
                server.stop_and_tail()
            )
        })?;
        server.addr = addr
            .parse()
            .map_err(|_| format!("serve reported an unparsable address {addr:?}"))?;
        let mut conn = Conn::new(server.addr);
        loop {
            if let Ok((200, body)) = conn.exchange("GET", "/healthz", &[]) {
                if body.starts_with(b"ready") {
                    break;
                }
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("serve not ready: {}", server.stop_and_tail()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// The address the child serves on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scrapes `/metrics`.
    ///
    /// # Errors
    ///
    /// On a transport failure or a non-200 answer.
    pub fn counters(&self) -> Result<Counters, String> {
        match Conn::new(self.addr).exchange("GET", "/metrics", &[]) {
            Ok((200, body)) => Ok(Counters::parse(&String::from_utf8_lossy(&body))),
            Ok((status, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc` has no readable status for the child.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the child to drain and exit, killing it if it does not.
    ///
    /// # Errors
    ///
    /// When the child had to be killed or exited unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = Conn::new(self.addr).exchange("POST", "/shutdown", &[]);
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    self.join_stderr();
                    return Ok(());
                }
                Ok(Some(status)) => {
                    return Err(format!(
                        "serve exited with {status}: {}",
                        self.stop_and_tail()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err(format!("serve did not shut down: {}", self.stop_and_tail())),
            }
        }
    }

    /// Kills the child, waits for it, and returns its last stderr lines.
    fn stop_and_tail(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stderr().join(" | ")
    }

    fn join_stderr(&mut self) -> Vec<String> {
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.stop_and_tail();
        }
    }
}
