//! Child processes under test: real `bdi serve` / `bdi route`
//! binaries on ephemeral loopback ports, killed and reaped when their
//! handle drops (normal return, `?`, or a panic's unwind). A Ctrl-C
//! reaches the children directly — they share the benchmark's process
//! group.
//!
//! The servers run on one core and the generator on another
//! ([`Cores`]). Left to the scheduler on this two-core virtual machine,
//! the same binary measures up to twice as fast or slow from one minute
//! to the next, depending on which threads happen to share a core and
//! so wake each other without an inter-processor interrupt. Pinned,
//! every wake-up between client and server crosses cores and every one
//! inside the server stays on its core, on every run.

use std::io::{BufRead, BufReader, Error, ErrorKind, Result};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Build `bdi` in release mode from the checkout in the current
/// directory and return the binary's path. A warm build is a freshness
/// check; the benchmark never runs a binary it did not just build, so
/// a debug or stale `bdi` cannot be measured by accident.
pub fn build_bdi() -> Result<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "bdi"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(Error::other(format!("building bdi failed: {status}")));
    }
    let bdi = target_dir().join("release").join("bdi");
    if !bdi.is_file() {
        return Err(Error::new(
            ErrorKind::NotFound,
            format!("{} not found after the build", bdi.display()),
        ));
    }
    Ok(bdi)
}

/// The two cores a run uses: the first two this process may run on.
#[derive(Clone, Copy)]
pub struct Cores {
    pub servers: usize,
    pub generator: usize,
}

impl Cores {
    /// Read the allowed cores from `/proc/self/status`.
    pub fn allowed() -> Result<Self> {
        let status = std::fs::read_to_string("/proc/self/status")?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("");
        // "0-1", "2,5-7": ranges and single cores, comma-separated
        let mut cores = list.trim().split(',').flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let ends = lo.parse::<usize>().ok().zip(hi.parse::<usize>().ok());
            ends.map_or(Vec::new(), |(lo, hi)| (lo..=hi).collect())
        });
        match (cores.next(), cores.next()) {
            (Some(servers), Some(generator)) => Ok(Self { servers, generator }),
            _ => Err(Error::other(format!(
                "the servers and the generator need a core each; allowed: {list:?}"
            ))),
        }
    }

    /// Move this process, which must still be single-threaded, onto the
    /// generator's core; threads it starts later stay there.
    pub fn pin_generator(&self) -> Result<()> {
        let status = Command::new("taskset")
            .args(["-cp", &self.generator.to_string()])
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .status()?;
        match status.success() {
            true => Ok(()),
            false => Err(Error::other(format!("taskset failed: {status}"))),
        }
    }

    /// `program`, started on the servers' core.
    fn server(&self, program: &Path) -> Command {
        let mut cmd = Command::new("taskset");
        cmd.args(["-c", &self.servers.to_string()]).arg(program);
        cmd
    }
}

/// Cargo's target directory for a build started in the current
/// directory: where `bdi` lands, and where scratch data dirs go (it is
/// inside the checkout and ignored by git).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// A scratch directory removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(tag: &str) -> Result<Self> {
        let path = target_dir()
            .join("livebench-run")
            .join(format!("{}-{tag}", std::process::id()));
        // a previous run with this pid that was killed hard
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One running `bdi serve` or `bdi route`.
pub struct Proc {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Proc {
    /// `bdi serve`, durable on `data_dir`, every other setting at its
    /// default (sync-interval 64, snapshot-every 4096, workers = cores).
    /// Returns once the server printed its address, which it does after
    /// recovery: the listener answers from then on.
    pub fn serve(bdi: &Path, cores: Cores, data_dir: &Path) -> Result<Self> {
        let mut cmd = cores.server(bdi);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir);
        Self::spawn(cmd, "bdi-serve listening on ")
    }

    /// `bdi route` over one backend, defaults otherwise.
    pub fn route(bdi: &Path, cores: Cores, backend: SocketAddr) -> Result<Self> {
        let mut cmd = cores.server(bdi);
        cmd.args(["route", "--addr", "127.0.0.1:0", "--backends"])
            .arg(backend.to_string());
        Self::spawn(cmd, "bdi-route listening on ")
    }

    fn spawn(mut cmd: Command, banner: &str) -> Result<Self> {
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .strip_prefix(banner)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Error::other(format!(
                "child did not announce an address (printed {line:?})"
            )));
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// SIGKILL and reap. Dropping a live server *is* the crash the
/// recovery path must survive; nothing is ever shut down gracefully.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
