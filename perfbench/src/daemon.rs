//! The `phishinghook` processes the benchmark runs: `train` once, then
//! `serve` as a separate daemon it spawns, waits for, samples and stops.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to become ready before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `phishinghook train` and returns its wall time.
///
/// # Errors
/// Spawn failures and a non-zero exit.
pub fn train(bin: &Path, csv: &Path, spec: &str, snapshot: &Path) -> io::Result<Duration> {
    let t0 = Instant::now();
    let out = Command::new(bin)
        .arg("train")
        .arg(csv)
        .args(["--model", spec, "--save"])
        .arg(snapshot)
        .stdin(Stdio::null())
        .output()?;
    let elapsed = t0.elapsed();
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "train failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    Ok(elapsed)
}

/// Which front door the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// stdin/stdout bulk mode: ready at the `loaded` banner.
    Stdin,
    /// HTTP (and optionally TCP JSONL) listeners: ready when `/readyz`
    /// answers 200.
    Listeners {
        /// Whether a TCP JSONL listener is expected too.
        tcp: bool,
    },
}

/// One spawned `phishinghook serve`.
pub struct Daemon {
    child: Child,
    front: Front,
    /// The HTTP listener, when serving one.
    pub http: Option<SocketAddr>,
    /// The TCP JSONL listener, when serving one.
    pub tcp: Option<SocketAddr>,
    /// The daemon's stdin (stdin mode), for the load generator to take.
    pub stdin: Option<ChildStdin>,
    /// The daemon's stdout (stdin mode), for the load generator to take.
    pub stdout: Option<ChildStdout>,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin serve <args>` and waits until it answers; returns the
    /// daemon and the spawn-to-ready time. Its stderr is copied to `log`.
    ///
    /// # Errors
    /// Spawn failures, and a daemon that exits or stays unready.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        front: Front,
        log: &Path,
    ) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(if front == Front::Stdin {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stdout(if front == Front::Stdin {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel::<String>();
        let mut file = File::create(log)?;
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = writeln!(file, "{line}");
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            stdin: child.stdin.take(),
            stdout: child.stdout.take(),
            child,
            front,
            http: None,
            tcp: None,
            log: Some(log),
        };
        let deadline = t0 + READY_TIMEOUT;
        let banner_wait =
            |deadline: Instant| rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        match front {
            Front::Stdin => loop {
                match banner_wait(deadline) {
                    Ok(line) if line.starts_with("loaded ") => break,
                    Ok(_) => {}
                    Err(_) => {
                        return Err(io::Error::other("daemon never printed its `loaded` banner"))
                    }
                }
            },
            Front::Listeners { tcp } => {
                while daemon.http.is_none() || (tcp && daemon.tcp.is_none()) {
                    let Ok(line) = banner_wait(deadline) else {
                        return Err(io::Error::other(
                            "daemon never printed its listener banners",
                        ));
                    };
                    if let Some(addr) = banner_addr(&line, "http://") {
                        daemon.http = Some(addr);
                    } else if let Some(addr) = banner_addr(&line, "tcp://") {
                        daemon.tcp = Some(addr);
                    }
                }
                let http = daemon.http.expect("banner parsed");
                while !matches!(http_get(http, "/readyz"), Ok((200, _))) {
                    if Instant::now() > deadline {
                        return Err(io::Error::other("daemon never became ready"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        Ok((daemon, t0.elapsed()))
    }

    /// The daemon's peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Stops the daemon: stdin mode drains to the end of its input (for a
    /// bounded time), listeners are killed. Dropping reaps it.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        if self.front == Front::Stdin {
            let deadline = Instant::now() + Duration::from_secs(30);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

impl Drop for Daemon {
    /// Kills the daemon if it still runs, then waits for it and its log
    /// copier, so no process outlives the run, error paths included.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        drop(self.stdout.take());
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// The address in a `serving … on <scheme><addr> …` banner.
pub fn banner_addr(line: &str, scheme: &str) -> Option<SocketAddr> {
    if !line.starts_with("serving ") {
        return None;
    }
    let rest = &line[line.find(scheme)? + scheme.len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// One `GET` on a fresh connection: status and body.
///
/// # Errors
/// Connection and framing errors.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut reader = BufReader::new(stream);
    match crate::wire::read_http_response(&mut reader)? {
        Some((status, body)) => Ok((status, String::from_utf8_lossy(&body).into_owned())),
        None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response")),
    }
}

/// Sum of every sample of `name` (labelled or not) in Prometheus text.
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let metric = key.split('{').next()?;
            (metric == name)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_yield_listener_addresses() {
        let tcp = "serving Random Forest on tcp://127.0.0.1:4101 (V2, 2 shard(s), batch 64)";
        let http = "serving Random Forest on http://127.0.0.1:4102 (POST /predict, GET /healthz)";
        assert_eq!(
            banner_addr(tcp, "tcp://"),
            Some("127.0.0.1:4101".parse().unwrap())
        );
        assert_eq!(
            banner_addr(http, "http://"),
            Some("127.0.0.1:4102".parse().unwrap())
        );
        assert_eq!(banner_addr(http, "tcp://"), None);
        assert_eq!(
            banner_addr("loaded x from http://1.2.3.4:5", "http://"),
            None
        );
    }

    #[test]
    fn prometheus_samples_sum_across_labels() {
        let text = "# TYPE phishinghook_queue_depth gauge\nphishinghook_queue_depth 3\n\
                    phishinghook_shard_queue_depth{shard=\"0\"} 2\nphishinghook_shard_queue_depth{shard=\"1\"} 5\n\
                    phishinghook_queue_depth_max 9\n";
        assert_eq!(prom_value(text, "phishinghook_queue_depth"), 3.0);
        assert_eq!(prom_value(text, "phishinghook_shard_queue_depth"), 7.0);
        assert_eq!(prom_value(text, "absent"), 0.0);
    }
}
