//! The server under test: built from the checkout, spawned as its own
//! process on a loopback port, observed through `/proc` and its metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the `mda-server` binary of the workspace at `root` (release,
/// offline) into `target_dir`, or Cargo's default target directory when
/// `None`, and returns the executable's path.
///
/// # Errors
///
/// A message when Cargo fails or reports no executable.
pub fn build(root: &Path, target_dir: Option<&Path>) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() {
        return Err(format!("no workspace manifest at {}", manifest.display()));
    }
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.current_dir(root).args([
        "build",
        "--release",
        "--offline",
        "--quiet",
        "-p",
        "mda-server",
        "--bin",
        "mda-server",
        "--message-format=json-render-diagnostics",
    ]);
    if let Some(dir) = target_dir {
        cmd.env("CARGO_TARGET_DIR", dir);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building mda-server failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"name\":\"mda-server\""))
        .find_map(|l| json_string_field(l, "executable"))
        .map(PathBuf::from)
        .ok_or_else(|| "cargo reported no mda-server executable".to_string())
}

/// The string value of `"key":"…"` in one line of Cargo's JSON output.
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// A running `mda-server` process.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the server reported.
    pub addr: String,
}

impl ServerProcess {
    /// Spawns `exe` on an OS-chosen loopback port and waits until it
    /// reports its address.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start or never reports ready.
    pub fn spawn(exe: &Path) -> Result<ServerProcess, String> {
        let mut cmd = Command::new(exe);
        // glibc moves its mmap and trim thresholds as large blocks are
        // freed, so whether a search's megabyte-sized buffers come back
        // from the heap or as freshly faulted pages depends on the heap's
        // layout. That swung a run's median search latency by half (0 vs
        // ~530 page faults a search). Fixed thresholds that keep such
        // blocks on the heap and never return it make every run recycle
        // them alike. See README.md, probe numbers.
        cmd.env("MALLOC_MMAP_THRESHOLD_", "33554432")
            .env("MALLOC_TRIM_THRESHOLD_", "1073741824");
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some((server_cpu, _)) = cpu_split() {
            // SAFETY: the closure runs in the forked child before exec and
            // only makes one async-signal-safe system call.
            unsafe {
                cmd.pre_exec(move || pin_to(&[server_cpu]));
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).is_ok();
        let addr = line
            .trim()
            .strip_prefix("mda-server listening on ")
            .map(str::to_string);
        match (ready, addr) {
            (true, Some(addr)) => Ok(ServerProcess {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("mda-server did not report ready (got {line:?})"))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the server process has used so far (user + system, all
    /// threads, including exited ones), from `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> f64 {
        process_cpu_seconds(self.pid()).unwrap_or(f64::NAN)
    }

    /// Asks the server to drain (SIGTERM) and waits for it to exit,
    /// killing it if the drain takes longer than `grace`.
    pub fn stop(mut self, grace: Duration) -> bool {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        // SAFETY: `kill` only sends a signal; `pid` is our own child, which
        // has not been reaped yet, so the id cannot have been reused.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

/// How the host's CPUs are split between the server and the load
/// generator: the server gets the last CPU, the generator the others.
/// `None` on a single-CPU host, where nothing is pinned.
pub fn cpu_split() -> Option<(usize, Vec<usize>)> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (n >= 2).then(|| (n - 1, (0..n - 1).collect()))
}

/// Pins the calling thread (and the threads it later creates) to `cpus`.
///
/// # Errors
///
/// The `sched_setaffinity` failure.
pub fn pin_to(cpus: &[usize]) -> std::io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Fields 14 and 15 (`utime`, `stime`) of `/proc/<pid>/stat`, in seconds.
fn process_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_second())
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    // SAFETY: `sysconf` reads a constant system parameter.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// A scrape of the server's metrics text: `name{labels}` → value. Each
/// histogram also gets a `…_us_sum` series (count × mean), so differences
/// of scrapes can yield interval means.
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus-style `name value` lines.
    pub fn parse(text: &str) -> Scrape {
        let mut map: BTreeMap<String, f64> = text
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        let sums: Vec<(String, f64)> = map
            .iter()
            .filter_map(|(name, count)| {
                let hist = name.strip_suffix("_us_count")?;
                let mean = map.get(&format!("{hist}_us_mean"))?;
                Some((format!("{hist}_us_sum"), count * mean))
            })
            .collect();
        map.extend(sums);
        Scrape(map)
    }

    /// A series' value (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds `after − before` of every series to `self`.
    pub fn accumulate(&mut self, before: &Scrape, after: &Scrape) {
        for (name, value) in &after.0 {
            *self.0.entry(name.clone()).or_default() += value - before.get(name);
        }
    }
}
