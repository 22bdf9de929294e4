//! Small helpers shared by the workloads: order statistics, digests,
//! peak memory, child processes and the `key value` report lines children
//! print for their parent.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The median of `v` (mean of the middle pair for even lengths), `0` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `v`, `0` when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a 64 over bytes — the digest the expected-output file stores.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// The `key value` lines a child prints after its `result` marker.
pub type Report = BTreeMap<String, String>;

/// Reads a numeric report entry, `0` when absent.
pub fn num(r: &Report, key: &str) -> f64 {
    r.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Prints a report to stdout between `result` and `end` lines.
pub fn print_report(r: &Report) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "result");
    for (k, v) in r {
        let _ = writeln!(out, "{k} {v}");
    }
    let _ = writeln!(out, "end");
    let _ = out.flush();
}

/// A child process of this binary, killed and reaped on drop so no error
/// path leaves one running.
pub struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// When the child was spawned.
    pub spawned: Instant,
}

impl Proc {
    /// Re-executes this binary with `args`; stdin and stdout are pipes,
    /// stderr is inherited.
    pub fn spawn(args: &[String]) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc {
            child,
            stdin,
            stdout,
            spawned,
        })
    }

    /// Reads one line from the child's stdout (without the newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited early".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("child stdout: {e}")),
        }
    }

    /// Waits for the child's `ready` line.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        match self.read_line()?.as_str() {
            "ready" => Ok(()),
            other => Err(format!("expected `ready` from child, got `{other}`")),
        }
    }

    /// Sends one line to the child's stdin.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("child stdin: {e}"))
    }

    /// Reads the next report the child prints.
    pub fn read_report(&mut self) -> Result<Report, String> {
        while self.read_line()? != "result" {}
        let mut report = Report::new();
        loop {
            let line = self.read_line()?;
            if line == "end" {
                return Ok(report);
            }
            if let Some((k, v)) = line.split_once(' ') {
                report.insert(k.to_owned(), v.to_owned());
            }
        }
    }

    /// Closes stdin, reads the child's final report and reaps it; a
    /// nonzero exit is an error.
    pub fn finish(mut self) -> Result<Report, String> {
        self.stdin = None;
        let report = self.read_report()?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("child failed: {status}"));
        }
        Ok(report)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Threads and connections the benchmark drives the program with: one
/// per core (experiment workers, daemon workers, reference threads).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Tells the parent this child finished starting up.
pub fn print_ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}
