//! The service under test, as child processes: `act serve` daemons and the
//! `act gate` gateway, each booted from the release binary with explicit
//! flags, watched from outside (STATUS, `/proc` peak RSS) and always
//! stopped and reaped.

use act_client::Client;
use act_obs::snapshot::{HistogramSnapshot, MetricValue};
use act_obs::MetricsSnapshot;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every daemon and of the gateway (the host has 2 cores).
const WORKERS: &str = "2";

/// One running daemon or gateway.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// `act serve` on an ephemeral loopback port, with a corpus when given.
    pub fn serve(act: &Path, corpus: Option<&Path>) -> Result<Daemon, String> {
        let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--workers", WORKERS];
        let corpus = corpus.map(|p| p.display().to_string());
        if let Some(dir) = &corpus {
            args.extend(["--corpus", dir.as_str()]);
        }
        Daemon::spawn(act, &args, "act-serve listening on tcp://")
    }

    /// `act gate` on an ephemeral port in front of `backends`.
    pub fn gate(act: &Path, backends: &[&Daemon]) -> Result<Daemon, String> {
        let list: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
        let list = list.join(",");
        let args = ["gate", "--listen", "127.0.0.1:0", "--backends", &list, "--workers", WORKERS];
        Daemon::spawn(act, &args, "act-gate listening on tcp://")
    }

    fn spawn(act: &Path, args: &[&str], banner: &str) -> Result<Daemon, String> {
        let mut child = Command::new(act)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", act.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("`act {}` exited before listening", args.join(" ")));
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix(banner) {
                let addr = addr.to_string();
                return Ok(Daemon { child, stdout, addr });
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The metrics snapshot from a one-shot STATUS.
    pub fn status(&self) -> Result<MetricsSnapshot, String> {
        let status = client(&self.addr)?.status().map_err(|e| e.to_string())?;
        status.metrics.ok_or_else(|| format!("{}: STATUS carried no metrics", self.addr))
    }

    /// Restart the peak-RSS count (`VmHWM`) from the current RSS, so a
    /// later [`Daemon::peak_rss_mb`] covers only what happened after.
    pub fn reset_peak_rss(&self) -> Result<(), String> {
        let path = format!("/proc/{}/clear_refs", self.pid());
        std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// SHUTDOWN over the wire, then wait for the process to exit (killing
    /// it if it does not drain within ten seconds).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client(&self.addr).and_then(|c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return match (asked, status.success()) {
                        (Ok(()), true) => Ok(()),
                        (Err(e), _) => Err(format!("{}: shutdown failed: {e}", self.addr)),
                        (_, false) => Err(format!("{}: exited with {status}", self.addr)),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{}: did not exit after SHUTDOWN", self.addr));
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon still running here was abandoned by an error path: kill and
    /// reap it, so no run leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The processes one workload runs against: one daemon, or a gateway in
/// front of two daemons that each keep a corpus.
pub struct Fleet {
    pub serves: Vec<Daemon>,
    pub gate: Option<Daemon>,
}

impl Fleet {
    /// Boot the fleet; corpora (gateway fleets only) live under `dir`.
    pub fn boot(act: &Path, gateway: bool, dir: &Path) -> Result<Fleet, String> {
        if !gateway {
            return Ok(Fleet { serves: vec![Daemon::serve(act, None)?], gate: None });
        }
        let serves = (0..2)
            .map(|i| Daemon::serve(act, Some(&dir.join(format!("corpus{i}")))))
            .collect::<Result<Vec<_>, _>>()?;
        let gate = Daemon::gate(act, &serves.iter().collect::<Vec<_>>())?;
        Ok(Fleet { serves, gate: Some(gate) })
    }

    /// The address the client talks to.
    pub fn entry(&self) -> &str {
        self.gate.as_ref().unwrap_or(&self.serves[0]).addr.as_str()
    }

    /// Every process, gateway first.
    pub fn all(&self) -> impl Iterator<Item = &Daemon> {
        self.gate.iter().chain(&self.serves)
    }

    /// Restart every process's peak-RSS count.
    pub fn reset_peak_rss(&self) -> Result<(), String> {
        self.all().try_for_each(Daemon::reset_peak_rss)
    }

    /// Sum of the processes' peak RSS, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.all().map(Daemon::peak_rss_mb).sum()
    }

    /// Stop the gateway, then the daemons; every process is reaped even
    /// when an earlier one fails to stop cleanly.
    pub fn stop(self) -> Result<(), String> {
        let mut result = Ok(());
        for d in self.gate.into_iter().chain(self.serves) {
            if let Err(e) = d.stop() {
                result = result.and(Err(e));
            }
        }
        result
    }
}

/// A one-shot `act-client` for `addr` (the `act request` path).
pub fn client(addr: &str) -> Result<Client, String> {
    Client::builder()
        .addr(addr)
        .timeouts(Duration::from_secs(5), Duration::from_secs(120))
        .build()
        .map_err(|e| e.to_string())
}

/// What changed between two STATUS snapshots of one process: counters and
/// histograms as differences; gauges are dropped.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    for (name, value) in &after.entries {
        match (value, before.get(name)) {
            (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                out.push_counter(name, a.saturating_sub(*b))
            }
            (MetricValue::Counter(a), None) => out.push_counter(name, *a),
            (MetricValue::Histogram(a), b) => {
                let b = match b {
                    Some(MetricValue::Histogram(b)) if b.bounds == a.bounds => Some(b),
                    _ => None,
                };
                let counts = a
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c.saturating_sub(b.map_or(0, |b| b.counts[i])))
                    .collect();
                let sum = a.sum.saturating_sub(b.map_or(0, |b| b.sum));
                out.push_histogram(
                    name,
                    HistogramSnapshot { bounds: a.bounds.clone(), counts, sum },
                );
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let h = |counts: Vec<u64>, sum| HistogramSnapshot { bounds: vec![1, 10], counts, sum };
        let mut before = MetricsSnapshot::new();
        before.push_counter("served", 5);
        before.push_gauge("uptime_ms", 10);
        before.push_histogram("service_us", h(vec![1, 2, 0], 21));
        let mut after = MetricsSnapshot::new();
        after.push_counter("served", 9);
        after.push_counter("fresh", 2);
        after.push_gauge("uptime_ms", 99);
        after.push_histogram("service_us", h(vec![1, 5, 1], 70));
        let d = delta(&before, &after);
        assert_eq!(d.counter("served"), Some(4));
        assert_eq!(d.counter("fresh"), Some(2));
        assert_eq!(d.gauge("uptime_ms"), None);
        assert_eq!(d.histogram("service_us"), Some(&h(vec![0, 3, 1], 49)));
    }
}
