//! The real `sama` binary as a child process: locating (and, outside
//! tests, building) it, running one command to completion, keeping a
//! `sama serve` alive for a phase, and reading peak memory.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root: the ledger package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger package lives in the repository")
        .to_path_buf()
}

/// Where the repository's `cargo build --release` puts `sama`: under
/// `CARGO_TARGET_DIR` when set (relative to the working directory, as
/// cargo reads it), else `<repo>/target`.
fn sama_path() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => repo_root().join("target"),
    };
    target.join("release").join("sama")
}

/// The `sama` binary if it is already built (tests skip without it).
pub fn existing_sama() -> Option<PathBuf> {
    let path = sama_path();
    path.is_file().then_some(path)
}

/// Build `sama` from the repository's sources (a no-op when current)
/// and return its path. The benchmark checkout holds no binaries, so
/// the first run pays the build.
pub fn build_sama() -> Result<PathBuf, String> {
    let path = sama_path();
    let target_dir = path
        .parent()
        .and_then(Path::parent)
        .expect("<target>/release/sama");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "sama",
            "--target-dir",
        ])
        .arg(target_dir)
        .current_dir(repo_root())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release --bin sama failed ({status})"
        ));
    }
    path.is_file()
        .then_some(path.clone())
        .ok_or_else(|| format!("cargo built no {path:?}"))
}

/// What one finished `sama` command left behind.
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error, for failure messages.
    pub stderr: String,
}

/// Run `sama <args>` to completion, timing spawn → exit. The child
/// inherits no `SAMA_*` switches (main scrubs them).
pub fn run_sama(sama: &Path, args: &[&std::ffi::OsStr]) -> Result<Finished, String> {
    let start = Instant::now();
    let output = Command::new(sama)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn {sama:?}: {e}"))?;
    Ok(Finished {
        wall: start.elapsed(),
        code: output.status.code(),
        stdout: output.stdout,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

/// A live `sama serve` child. Dropping it kills and reaps the process,
/// so no exit path of the ledger leaves a server behind.
pub struct Server {
    child: Child,
    /// The address it announced.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `sama serve <index> --mmap --addr 127.0.0.1:0` and wait
    /// for the announced address.
    pub fn spawn(sama: &Path, index: &Path) -> Result<Server, String> {
        let mut child = Command::new(sama)
            .arg("serve")
            .arg(index)
            .args(["--mmap", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {sama:?} serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(Server { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("sama serve did not announce an address: {line:?}"))
            }
        }
    }

    /// Peak resident set of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of `/proc/<pid>/status` in MB (`pid` may be `self`); `0.0`
/// where `/proc` has no such field.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of one `sama <args>` run, in MB: `VmHWM` polled
/// until the process exits. (`getrusage(RUSAGE_CHILDREN)` cannot tell:
/// Linux carries the pre-`exec` image's peak — the ledger's own — into
/// the child's `ru_maxrss`.) The peak of a query process is reached
/// once the index is open, long before exit, so the last poll has it.
pub fn peak_rss_of(sama: &Path, args: &[&std::ffi::OsStr]) -> Result<f64, String> {
    let mut child = Command::new(sama)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {sama:?}: {e}"))?;
    let pid = child.id().to_string();
    let mut peak = 0.0f64;
    loop {
        peak = peak.max(vm_hwm_mb(&pid));
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(peak),
            Ok(Some(status)) => return Err(format!("{sama:?} exited {status}")),
            Ok(None) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for {sama:?}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_mb("self") > 1.0);
        assert_eq!(vm_hwm_mb("not-a-pid"), 0.0);
    }

    #[test]
    fn a_child_peak_rss_is_polled_until_it_exits() {
        let sh = Path::new("/bin/sh");
        let peak = peak_rss_of(sh, &["-c".as_ref(), "sleep 0.05".as_ref()]).unwrap();
        assert!(peak > 0.1, "{peak}");
        assert!(peak_rss_of(sh, &["-c".as_ref(), "exit 3".as_ref()]).is_err());
    }

    #[test]
    fn repo_root_holds_the_engine_crates() {
        assert!(repo_root().join("crates").join("core").is_dir());
    }
}
