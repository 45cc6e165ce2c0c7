//! Structured events with pluggable sinks.
//!
//! Events are for *rare* occurrences — server start/stop, worker crash,
//! campaign progress — not per-request or per-dependence traffic (that is
//! what counters are for). Each event carries a level, a static target
//! (dotted subsystem path like `serve.worker`), a wall-clock timestamp,
//! and a small text payload. Sinks see every event as it is emitted;
//! nothing is retained, so with no sink attached an event costs one lock.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (BUSY rejections, cache churn).
    Debug,
    /// Lifecycle milestones (server started, campaign finished).
    Info,
    /// Something degraded but survivable (worker crash, deadline expiry).
    Warn,
    /// Something failed outright.
    Error,
}

impl Level {
    /// Lower-case name (`"warn"`), as rendered in sinks.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Static subsystem path, e.g. `"serve.worker"` or `"fleet.campaign"`.
    pub target: &'static str,
    /// Wall-clock microseconds since the Unix epoch.
    pub unix_us: u64,
    /// Small human-readable payload.
    pub message: String,
}

impl Event {
    /// Render as one JSON line (hand-rolled; the workspace has no serde).
    pub fn to_jsonl(&self) -> String {
        let mut msg = String::with_capacity(self.message.len());
        for c in self.message.chars() {
            match c {
                '"' => msg.push_str("\\\""),
                '\\' => msg.push_str("\\\\"),
                '\n' => msg.push_str("\\n"),
                '\t' => msg.push_str("\\t"),
                '\r' => msg.push_str("\\r"),
                c if (c as u32) < 0x20 => msg.push_str(&format!("\\u{:04x}", c as u32)),
                c => msg.push(c),
            }
        }
        format!(
            "{{\"ts_us\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"}}",
            self.unix_us, self.level, self.target, msg
        )
    }
}

/// Where emitted events go.
pub trait EventSink: Send + Sync {
    /// Handle one event. Called with the bus's sink list locked, so a sink
    /// must not emit events itself.
    fn emit(&self, event: &Event);
}

/// JSONL sink: one JSON object per line, flushed per event so a crash or
/// SIGKILL loses at most the event in flight.
pub struct JsonlSink {
    file: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (or truncate) the log file at `path`.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(JsonlSink { file: Mutex::new(BufWriter::new(file)) })
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut file = self.file.lock().unwrap();
        let _ = writeln!(file, "{}", event.to_jsonl());
        let _ = file.flush();
    }
}

/// An event bus: the sinks every emitted event is forwarded to.
#[derive(Default)]
pub struct Events {
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
}

impl Events {
    /// An event bus with no sinks.
    pub fn new() -> Events {
        Events::default()
    }

    /// Emit one event: stamp it and forward it to every sink. With no sink
    /// attached the event is dropped unstamped.
    pub fn emit(&self, level: Level, target: &'static str, message: impl Into<String>) {
        let sinks = self.sinks.lock().expect("event sink lock");
        if sinks.is_empty() {
            return;
        }
        let event = Event { level, target, unix_us: unix_us(), message: message.into() };
        for sink in sinks.iter() {
            sink.emit(&event);
        }
    }

    /// Attach a sink; it sees every event emitted from now on.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        self.sinks.lock().unwrap().push(sink);
    }
}

fn unix_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// The process-wide event bus. Sinks are installed by the binary (e.g.
/// `act serve --event-log FILE` attaches a [`JsonlSink`]); libraries just
/// [`emit`](Events::emit).
pub fn events() -> &'static Events {
    static GLOBAL: OnceLock<Events> = OnceLock::new();
    GLOBAL.get_or_init(Events::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sinks_see_every_event() {
        struct CountingSink(AtomicUsize);
        static HITS: AtomicUsize = AtomicUsize::new(0);
        impl EventSink for CountingSink {
            fn emit(&self, _: &Event) {
                HITS.fetch_add(1, Ordering::SeqCst);
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let bus = Events::new();
        bus.emit(Level::Debug, "test", "before sink"); // not seen
        bus.add_sink(Box::new(CountingSink(AtomicUsize::new(0))));
        bus.emit(Level::Warn, "test", "after sink");
        assert_eq!(HITS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn jsonl_escapes_payload() {
        let event = Event {
            level: Level::Warn,
            target: "serve.worker",
            unix_us: 42,
            message: "crash: \"boom\"\nline2\u{1}".to_string(),
        };
        assert_eq!(
            event.to_jsonl(),
            "{\"ts_us\":42,\"level\":\"warn\",\"target\":\"serve.worker\",\
             \"msg\":\"crash: \\\"boom\\\"\\nline2\\u0001\"}"
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join(format!("act-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let bus = Events::new();
        bus.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        bus.emit(Level::Info, "test", "hello");
        bus.emit(Level::Warn, "test", "world");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "{text}");
        assert!(text.contains("\"msg\":\"hello\""), "{text}");
    }
}
