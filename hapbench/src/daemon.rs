//! Real `hap-serve` processes and line-protocol connections to them.
//!
//! The benchmark speaks the wire protocol itself: request lines rendered
//! with `hap_codec`, responses read up to `\n`. It does not go through
//! `hap_service::Client`, so refactors of the client API leave the
//! benchmark — and its baseline — unchanged.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::verb_line;

/// How long a daemon may take to exit after `shutdown`.
const DAEMON_PATIENCE: Duration = Duration::from_secs(60);

/// A running `hap-serve` child process, killed if still alive on drop.
pub struct Daemon {
    child: Child,
    /// Holds the pipe open so the daemon's exit summary never hits EPIPE.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `hap-serve --port <port> <flags>` (port 0: any free port) and
    /// waits for its banner.
    pub fn spawn(bin: &Path, port: u16, flags: &[String]) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", &port.to_string()])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let Some(addr) = banner.trim().strip_prefix("hap-serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("hap-serve did not start: {banner:?}")));
        };
        let addr = addr.to_string();
        Ok(Daemon { child, _stdout: stdout, addr, spawned })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.call(verb_line("shutdown", 0).as_bytes())?;
        let deadline = Instant::now() + DAEMON_PATIENCE;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("hap-serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: newline-framed request/response lines.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as lines.
    consumed: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024), consumed: 0 })
    }

    /// Sends one request line; `line` must not contain a newline.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line);
        framed.push(b'\n');
        self.stream.write_all(&framed)
    }

    /// Blocks until the next response line arrives.
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// The next response line if it arrives before `deadline`.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !wait_readable(&self.stream, left)? {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    /// One round trip.
    pub fn call(&mut self, line: &[u8]) -> io::Result<Vec<u8>> {
        self.send(line)?;
        self.recv()
    }

    fn take_line(&mut self) -> Option<Vec<u8>> {
        let pending = &self.buf[self.consumed..];
        let end = pending.iter().position(|&b| b == b'\n')?;
        let line = pending[..end].to_vec();
        self.consumed += end + 1;
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        Some(line)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "daemon closed the connection"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x001;

/// Waits up to `timeout` for `stream` to become readable. Socket read
/// timeouts tick in scheduler jiffies (milliseconds), far too coarse for an
/// open-loop generator that must send on time; `ppoll` takes a nanosecond
/// timeout.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd` and
    // `struct timespec` values for the duration of the call, `nfds` is 1
    // to match the single descriptor, and a null sigmask leaves the
    // signal mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}

/// A scratch directory inside the run's work area, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> io::Result<ScratchDir> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
