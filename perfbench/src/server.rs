//! The `edge-cli serve` child process, and a minimal HTTP/1.1 client for
//! it that keeps the load generator's own cost small.

use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;
/// CPU mask words: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPU that the server child and the load generator share: the last
/// one this process may run on. On one CPU every wake-up between them is
/// a local context switch; across CPUs it is an inter-processor wake-up,
/// whose cost on a virtual machine follows the host.
pub fn serve_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes to `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    (0..MASK_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| "no CPU in this process's affinity mask".to_string())
}

/// Restricts the calling thread (and what it later spawns or forks) to
/// `cpu`. Only a system call on a stack buffer, so it may run between
/// fork and exec.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A running server child. Dropping it kills and reaps the child, so no
/// exit path of the benchmark leaves a server behind.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `edge-cli serve <args> --addr 127.0.0.1:0` on CPU `cpu` with
    /// stderr going to `log`, and returns once the server has printed its
    /// bound address, i.e. once every artifact is open and the listeners
    /// are up.
    pub fn spawn(
        edge_cli: &Path,
        args: &[String],
        log: &Path,
        cpu: usize,
    ) -> Result<ServerProc, String> {
        let log_file = fs::File::create(log).map_err(|e| format!("creating {log:?}: {e}"))?;
        let mut command = Command::new(edge_cli);
        // SAFETY: the closure runs in the forked child before exec and only
        // makes system calls, which are async-signal-safe. `prctl` makes
        // the kernel kill the server if this process dies without stopping
        // it; the affinity mask is inherited by every server thread.
        unsafe {
            command.pre_exec(move || {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                pin_current_thread(cpu)
            });
        }
        let child = command
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {edge_cli:?}: {e}"))?;
        let mut proc = ServerProc { child: Some(child), addr: "127.0.0.1:0".parse().unwrap() };
        let started = Instant::now();
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // Only whole lines: the server may be mid-write.
            let mut lines = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
            if let Some((_, addr)) = lines.find_map(|l| l.split_once(" on http://")) {
                proc.addr = addr.trim().parse().map_err(|_| format!("bad address {addr:?}"))?;
                return Ok(proc);
            }
            if let Some(status) = proc.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited with {status} before listening:\n{text}"));
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err(format!("server did not listen within 60 s:\n{text}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child is present until stop")
    }

    /// The child's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let pid = self.child_mut().id();
        vm_hwm_mb(&PathBuf::from(format!("/proc/{pid}/status")))
    }

    /// Graceful stop: SIGTERM, then wait for the drain to finish (SIGKILL
    /// after 10 s). Returns the exit status as text.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child is present until stop");
        // SAFETY: `kill` has no memory-safety preconditions; the pid is our
        // own unreaped child, so it cannot name a recycled process.
        unsafe { kill(child.id() as i32, SIGTERM) };
        let started = Instant::now();
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status} after SIGTERM"))
                };
            }
            if started.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not drain within 10 s of SIGTERM".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status: &Path) -> Result<f64, String> {
    let text = fs::read_to_string(status).map_err(|e| format!("reading {status:?}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status:?}"))?;
    Ok(kb / 1024.0)
}

/// The wire bytes of one request with `Content-Length` framing.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Parses one response off the front of `buf`: `Ok(None)` until it is
/// complete, otherwise the status, the body range and the bytes consumed.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-utf8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response without content-length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((status, body_start, body_start + length)))
}

/// A keep-alive connection: one request, then its response.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16) })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// One `read` into the buffer; 0 means the peer closed.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// The next complete buffered response, if any.
    fn take_response(&mut self) -> io::Result<Option<Response>> {
        match parse_response(&self.buf).map_err(io::Error::other)? {
            None => Ok(None),
            Some((status, start, end)) => {
                let body = self.buf[start..end].to_vec();
                self.buf.drain(..end);
                Ok(Some(Response { status, body }))
            }
        }
    }

    /// Blocks until the next response is complete.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            if let Some(resp) = self.take_response()? {
                return Ok(resp);
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
        }
    }

    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(&request_bytes(method, path, body))?;
        self.recv()
    }
}

/// Scrapes `/metrics` and parses it with the repository's OpenMetrics
/// parser.
pub fn scrape_metrics(conn: &mut Conn) -> Result<edge_obs::openmetrics::Scrape, String> {
    let resp = conn.call("GET", "/metrics", b"").map_err(|e| format!("GET /metrics: {e}"))?;
    let text = String::from_utf8(resp.body).map_err(|_| "non-utf8 /metrics")?;
    edge_obs::openmetrics::parse(&text)
}

/// Per-stage microseconds of the server's most recent `n` requests, from
/// its `/debug/requests` ring: `(stage name, values)` in ring order.
pub fn recent_stages(conn: &mut Conn, n: usize) -> Result<Vec<(String, Vec<f64>)>, String> {
    let resp = conn
        .call("GET", &format!("/debug/requests?n={n}"), b"")
        .map_err(|e| format!("GET /debug/requests: {e}"))?;
    let text = String::from_utf8(resp.body).map_err(|_| "non-utf8 /debug/requests")?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("/debug/requests: {e}"))?;
    let records = value.get("requests").and_then(|r| r.as_array()).ok_or("no requests array")?;
    let mut stages: Vec<(String, Vec<f64>)> = Vec::new();
    for record in records {
        if record.get("endpoint").and_then(|e| e.as_str()) != Some("predict") {
            continue;
        }
        let Some(map) = record.get("stage_us").and_then(|s| s.as_object()) else { continue };
        for (name, v) in map {
            let us = v.as_f64().unwrap_or(0.0);
            match stages.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(us),
                None => stages.push((name.clone(), vec![us])),
            }
        }
    }
    Ok(stages)
}
