//! The server under test, started in-process with production defaults,
//! and the provenance block printed with every result.

use rumor_serve::{serve, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scratch space inside the checkout, removed when the run ends.
pub const WORK_DIR: &str = ".bench_work";

/// The thread-count variables a production server would read. The
/// benchmark clears them so the server resolves its defaults.
pub const THREAD_VARS: [&str; 2] = ["RUMOR_THREADS", "RUMOR_INNER_THREADS"];

/// A running server under test.
pub struct Target {
    server: Option<Server>,
    pub config: ServeConfig,
    pub addr: SocketAddr,
    pub jobs_dir: PathBuf,
    /// Worker threads the server resolved.
    pub workers: usize,
    /// Intra-solve threads a single optimize resolves.
    pub inner_threads: usize,
}

impl Target {
    /// `ServeConfig::default()` except an ephemeral port and a fresh
    /// jobs directory.
    pub fn start() -> Result<Target, String> {
        static SERIAL: AtomicUsize = AtomicUsize::new(0);
        let jobs_dir = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(WORK_DIR)
            .join(format!(
                "jobs-{}-{}",
                std::process::id(),
                SERIAL.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&jobs_dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs_dir: Some(jobs_dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let server = serve(&config).map_err(|e| format!("server failed to start: {e}"))?;
        Ok(Target {
            addr: server.local_addr(),
            workers: server.workers(),
            inner_threads: rumor_par::resolve_inner_threads(None),
            server: Some(server),
            config,
            jobs_dir,
        })
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until stop")
    }

    /// Stops the server, joins its threads and removes its jobs
    /// directory.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
        let _ = std::fs::remove_dir_all(&self.jobs_dir);
    }
}

/// Total size of the regular files under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path`, from mountinfo.
fn fs_type(path: &Path) -> String {
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*kind).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line recording where and how the figures were measured.
pub fn provenance(target: &Target, workload: &str, seed: u64) -> String {
    use rumor_serve::wire::{serialize, Value};
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let value = Value::obj([
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(seed as f64)),
        ("available_parallelism", Value::Num(cores as f64)),
        ("workers", Value::Num(target.workers as f64)),
        ("inner_threads", Value::Num(target.inner_threads as f64)),
        (
            "io_backend",
            Value::Str(format!("{:?}", target.config.io_backend).to_lowercase()),
        ),
        ("jobs_dir_fs", Value::Str(fs_type(&target.jobs_dir))),
        ("git_commit", Value::Str(git_commit())),
        ("rustc", Value::Str(rustc_version())),
    ]);
    format!("provenance {}", serialize(&value))
}

/// Set-ups are repeated until there are at least `MIN_SETUPS` of them
/// and `SETUP_WINDOW` has passed, so a sub-millisecond set-up is
/// sampled across a second of host noise; `setup_s` is their median.
const MIN_SETUPS: usize = 11;
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// Runs `once` repeatedly, stopping every server but the last, and
/// returns the median set-up time and the number of set-ups with the
/// kept server and state.
pub fn set_up<S>(
    mut once: impl FnMut() -> Result<(Target, S), String>,
) -> Result<(f64, usize, Target, S), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let (target, state) = once()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && began.elapsed() >= SETUP_WINDOW {
            return Ok((crate::stats::median(&times), times.len(), target, state));
        }
        target.stop();
    }
}

/// Server-side counters a traced run diffs around the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub shed: u64,
    pub timeouts: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub stream_chunks: u64,
}

impl Counters {
    pub fn read(target: &Target) -> Counters {
        let m = target.server().metrics();
        Counters {
            shed: m.rejected_queue_full.get() + m.rejected_max_connections.get(),
            timeouts: m.deadline_exceeded.get() + m.read_timeouts.get(),
            hits: m.cache_hits.get(),
            misses: m.cache_misses.get(),
            evictions: m.cache_evictions.get(),
            stream_chunks: m.stream_chunks.get(),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            shed: self.shed - before.shed,
            timeouts: self.timeouts - before.timeouts,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            stream_chunks: self.stream_chunks - before.stream_chunks,
        }
    }
}
