//! The closed-loop load generator: a fixed number of clients, each on one
//! keep-alive connection, each sending its next design only after the
//! previous answer arrived.

use crate::client::Conn;
use crate::stats::{self, Batch};
use crate::workload::{Stream, Workload};
use lmmir_serve::PredictResponse;
use std::fs::File;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Pre-encoded unique request bodies, kept in one file: a cold window on
/// large designs sends about half a gigabyte, which belongs in the page
/// cache rather than in this process. The file is removed on drop.
pub struct Pool {
    path: PathBuf,
    file: File,
    /// `(offset, length)` of body `i`.
    spans: Vec<(u64, usize)>,
}

impl Pool {
    /// Encodes timed designs `0..count` of `workload` under `seed` into
    /// `path`, generating on `threads` threads.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn create(
        path: &Path,
        workload: Workload,
        seed: u64,
        count: usize,
        threads: usize,
    ) -> Result<Pool, String> {
        let io_err = |e: io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        let mut spans = vec![(0, 0); count];
        let next = &AtomicUsize::new(0);
        let (tx, rx) = mpsc::sync_channel::<(usize, Vec<u8>)>(2 * threads);
        std::thread::scope(|s| -> io::Result<()> {
            for _ in 0..threads {
                let tx = tx.clone();
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count || tx.send((i, workload.body(seed, Stream::Timed, i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut offset = 0;
            for (i, body) in rx {
                file.write_all(&body)?;
                spans[i] = (offset, body.len());
                offset += body.len() as u64;
            }
            Ok(())
        })
        .map_err(io_err)?;
        // Write-back finishes here, not during the window.
        file.sync_all().map_err(io_err)?;
        Ok(Pool {
            path: path.to_path_buf(),
            file,
            spans,
        })
    }

    /// Reads body `i` into `buf`; `false` when the pool has no body `i`.
    fn read(&self, i: usize, buf: &mut Vec<u8>) -> io::Result<bool> {
        let Some(&(offset, len)) = self.spans.get(i) else {
            return Ok(false);
        };
        buf.resize(len, 0);
        self.file.read_exact_at(buf, offset)?;
        Ok(true)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The request bodies a window sends.
pub enum Designs {
    /// Unique designs: request `i` sends design `i` of the timed stream,
    /// read from the pool, or generated on demand beyond it.
    Unique {
        workload: Workload,
        seed: u64,
        pool: Pool,
    },
    /// A fixed set sent round-robin; every answer must equal the
    /// reference frame recorded for its design.
    Repeated {
        bodies: Vec<Vec<u8>>,
        reference: Vec<Vec<u8>>,
    },
}

impl Designs {
    /// The body of request `i` (read into `buf` when it is not held in
    /// memory) and whether it had to be generated.
    fn body<'a>(&'a self, i: usize, buf: &'a mut Vec<u8>) -> io::Result<(&'a [u8], bool)> {
        match self {
            Designs::Unique {
                workload,
                seed,
                pool,
            } => {
                let generated = !pool.read(i, buf)?;
                if generated {
                    *buf = workload.body(*seed, Stream::Timed, i);
                }
                Ok((buf.as_slice(), generated))
            }
            Designs::Repeated { bodies, .. } => Ok((&bodies[i % bodies.len()], false)),
        }
    }

    /// Checks one successful answer to request `i`.
    fn check(&self, i: usize, body: &[u8], px: usize) -> Result<(), String> {
        match self {
            Designs::Unique { .. } => {
                let resp =
                    PredictResponse::decode(body).map_err(|e| format!("undecodable body: {e}"))?;
                let n = px * px;
                if resp.width as usize != px
                    || resp.height as usize != px
                    || resp.map.len() != n
                    || resp.map.iter().any(|v| !v.is_finite())
                {
                    return Err(format!(
                        "malformed map: {}×{} with {} values for a {px}×{px} design",
                        resp.width,
                        resp.height,
                        resp.map.len()
                    ));
                }
                Ok(())
            }
            Designs::Repeated { reference, .. } => {
                if body == reference[i % reference.len()].as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "answer drifted from the first answer for design {}",
                        i % reference.len()
                    ))
                }
            }
        }
    }
}

/// Shared request counter: every request of a run draws the next index,
/// so no design repeats across the windows of one run.
#[derive(Default)]
pub struct Cursor(AtomicUsize);

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Every successful request as `(completion, latency)`: seconds after
    /// the window start and client-observed seconds, in completion order.
    pub samples: Vec<(f64, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered 200 with a correct body.
    pub ok: u64,
    /// Requests answered with a non-200 status.
    pub error_frames: u64,
    /// Transport failures, undecodable bodies and drifted answers.
    pub other_failures: u64,
    /// Seconds from the window start to the last completion.
    pub elapsed_s: f64,
    /// Designs generated on demand because the pool ran out.
    pub generated: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Window {
    /// Requests that failed, for any reason.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.error_frames + self.other_failures
    }

    /// The window's samples in consecutive batches (see [`stats::batches`]).
    #[must_use]
    pub fn batches(&self) -> Vec<Batch> {
        stats::batches(&self.samples)
    }

    /// Client-observed latencies, seconds, ascending.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        let mut lat: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        lat.sort_by(f64::total_cmp);
        lat
    }

    /// Successful predicts per second over the whole window.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ok = self.ok as f64;
        if self.elapsed_s > 0.0 {
            ok / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Runs `clients` closed-loop clients against `addr` for `seconds`,
/// drawing request indices from `cursor`. Requests in flight at the
/// deadline complete and count.
#[must_use]
pub fn run(
    addr: SocketAddr,
    designs: &Designs,
    px: usize,
    cursor: &Cursor,
    clients: usize,
    seconds: f64,
) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let merged = Mutex::new(Window::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut mine = Window::default();
                let mut conn = Conn::new(addr);
                let mut last_done = Duration::ZERO;
                let mut buf = Vec::new();
                while start.elapsed() < window {
                    let i = cursor.0.fetch_add(1, Ordering::Relaxed);
                    mine.attempted += 1;
                    let (body, generated) = match designs.body(i, &mut buf) {
                        Ok(b) => b,
                        Err(e) => {
                            mine.other_failures += 1;
                            mine.failures
                                .push(format!("request {i}: reading the pool: {e}"));
                            break;
                        }
                    };
                    mine.generated += u64::from(generated);
                    let sent = Instant::now();
                    let outcome = conn.exchange("POST", "/predict", body);
                    let latency = sent.elapsed();
                    last_done = start.elapsed();
                    let failure = match outcome {
                        Ok((200, answer)) => match designs.check(i, &answer, px) {
                            Ok(()) => {
                                mine.ok += 1;
                                mine.samples
                                    .push((last_done.as_secs_f64(), latency.as_secs_f64()));
                                None
                            }
                            Err(e) => {
                                mine.other_failures += 1;
                                Some(e)
                            }
                        },
                        Ok((status, answer)) => {
                            mine.error_frames += 1;
                            let why = PredictResponse::decode(&answer)
                                .err()
                                .map_or_else(String::new, |e| e.to_string());
                            Some(format!("HTTP {status}: {why}"))
                        }
                        Err(e) => {
                            mine.other_failures += 1;
                            Some(format!("transport: {e}"))
                        }
                    };
                    if let Some(f) = failure {
                        if mine.failures.len() < 5 {
                            mine.failures.push(format!("request {i}: {f}"));
                        }
                    }
                }
                let mut all = merged.lock().expect("no client panics while holding it");
                all.samples.extend(mine.samples);
                all.attempted += mine.attempted;
                all.ok += mine.ok;
                all.error_frames += mine.error_frames;
                all.other_failures += mine.other_failures;
                all.generated += mine.generated;
                all.failures.extend(mine.failures);
                all.elapsed_s = all.elapsed_s.max(last_done.as_secs_f64());
            });
        }
    });
    let mut out = merged.into_inner().expect("clients joined");
    out.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// One answer: `(status, body)`, or the transport error.
pub type Answer = Result<(u16, Vec<u8>), String>;

/// Sends `bodies` split over `clients` closed-loop clients (each body
/// once) and returns the answers in body order: `(status, body)` or the
/// transport error.
#[must_use]
pub fn send_all(addr: SocketAddr, bodies: &[Vec<u8>], clients: usize) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let answers: Vec<Mutex<Option<Answer>>> = bodies.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(body) = bodies.get(i) else { break };
                    let answer = conn
                        .exchange("POST", "/predict", body)
                        .map_err(|e| e.to_string());
                    *answers[i]
                        .lock()
                        .expect("no client panics while holding it") = Some(answer);
                }
            });
        }
    });
    answers
        .into_iter()
        .map(|a| {
            a.into_inner()
                .expect("clients joined")
                .expect("every body was sent")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reads_back_every_body_by_index() {
        let path = std::env::temp_dir().join(format!("perfbench-pool-{}.bin", std::process::id()));
        let w = Workload::ColdLmmir;
        let pool = Pool::create(&path, w, 5, 6, 2).unwrap();
        let mut buf = Vec::new();
        for i in 0..6 {
            assert!(pool.read(i, &mut buf).unwrap());
            assert_eq!(buf, w.body(5, Stream::Timed, i), "body {i}");
        }
        assert!(!pool.read(6, &mut buf).unwrap());
        drop(pool);
        assert!(!path.exists(), "the pool file outlived the pool");
    }
}
