//! Plain-data snapshots of metrics, with a compact little-endian wire
//! form (carried by the act-serve STATUS reply) and a text-table
//! renderer (what `act request status` prints).
//!
//! A snapshot is just `Vec<(name, value)>` — subsystems with live
//! [`Registry`](crate::Registry) cells snapshot those, and subsystems with
//! plain-field stats structs (act-sim `Stats`, act-core `ModuleStats`)
//! build one directly with the `push_*` methods. Either way the same type
//! serializes, merges, and renders.

use std::fmt;

/// Plain-data copy of a fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The upper edge of the bucket holding the `q`-quantile observation
    /// (so "p99 <= this value"). The overflow bucket reports twice the
    /// last bound as a sentinel upper edge. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().map_or(0, |&b| b * 2),
                };
            }
        }
        self.bounds.last().map_or(0, |&b| b * 2)
    }
}

/// One metric's value inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Last-value gauge.
    Gauge(i64),
    /// Fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

/// A named set of metric values — the one type every subsystem's counters
/// serialize through.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs; [`Registry::snapshot`](crate::Registry::snapshot)
    /// emits them sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// Wire-format tags (one byte per entry).
const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

/// Decode limits: a snapshot is a small control-plane payload, so reject
/// anything claiming absurd cardinality before allocating for it.
const MAX_ENTRIES: usize = 4096;
const MAX_BUCKETS: usize = 1024;

/// Why a serialized snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad metrics snapshot: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError(format!("truncated at byte {}", self.pos)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(DecodeError(format!("name of {len} bytes")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("non-utf8 name".into()))
    }
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Append a counter.
    pub fn push_counter(&mut self, name: &str, v: u64) {
        self.entries.push((name.to_string(), MetricValue::Counter(v)));
    }

    /// Append a gauge.
    pub fn push_gauge(&mut self, name: &str, v: i64) {
        self.entries.push((name.to_string(), MetricValue::Gauge(v)));
    }

    /// Append a histogram.
    pub fn push_histogram(&mut self, name: &str, h: HistogramSnapshot) {
        self.entries.push((name.to_string(), MetricValue::Histogram(h)));
    }

    /// Append every entry of `other` under a `prefix.` namespace.
    pub fn merge_prefixed(&mut self, prefix: &str, other: MetricsSnapshot) {
        for (name, value) in other.entries {
            self.entries.push((format!("{prefix}.{name}"), value));
        }
    }

    /// Sum `other` into `self`, entry-by-entry by name — the fleet-wide
    /// rollup an aggregating gateway computes over per-backend snapshots.
    /// Counters and gauges add; histograms add bucket-wise when their
    /// bounds match. An entry absent from `self` is appended; a name whose
    /// kinds (or histogram bounds) disagree keeps `self`'s value, since a
    /// sum across mismatched shapes would be meaningless.
    pub fn merge_sum(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.entries {
            let Some(mine) = self.entries.iter_mut().find(|(n, _)| n == name) else {
                self.entries.push((name.clone(), value.clone()));
                continue;
            };
            match (&mut mine.1, value) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                (MetricValue::Histogram(a), MetricValue::Histogram(b))
                    if a.bounds == b.bounds && a.counts.len() == b.counts.len() =>
                {
                    for (c, d) in a.counts.iter_mut().zip(&b.counts) {
                        *c += d;
                    }
                    a.sum += b.sum;
                }
                _ => {}
            }
        }
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Look up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Look up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Serialize to the compact little-endian wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 24);
        out.extend((self.entries.len() as u32).to_le_bytes());
        for (name, value) in &self.entries {
            out.extend((name.len() as u32).to_le_bytes());
            out.extend(name.as_bytes());
            match value {
                MetricValue::Counter(v) => {
                    out.push(TAG_COUNTER);
                    out.extend(v.to_le_bytes());
                }
                MetricValue::Gauge(v) => {
                    out.push(TAG_GAUGE);
                    out.extend(v.to_le_bytes());
                }
                MetricValue::Histogram(h) => {
                    out.push(TAG_HISTOGRAM);
                    out.extend((h.bounds.len() as u32).to_le_bytes());
                    for b in &h.bounds {
                        out.extend(b.to_le_bytes());
                    }
                    for c in &h.counts {
                        out.extend(c.to_le_bytes());
                    }
                    out.extend(h.sum.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode the wire form. Trailing bytes after the last entry are
    /// rejected (the snapshot owns its whole buffer).
    pub fn from_bytes(buf: &[u8]) -> Result<MetricsSnapshot, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let n = r.u32()? as usize;
        if n > MAX_ENTRIES {
            return Err(DecodeError(format!("{n} entries (max {MAX_ENTRIES})")));
        }
        let mut snap = MetricsSnapshot::new();
        for _ in 0..n {
            let name = r.str()?;
            let value = match r.u8()? {
                TAG_COUNTER => MetricValue::Counter(r.u64()?),
                TAG_GAUGE => MetricValue::Gauge(r.u64()? as i64),
                TAG_HISTOGRAM => {
                    let nb = r.u32()? as usize;
                    if nb > MAX_BUCKETS {
                        return Err(DecodeError(format!("{nb} buckets (max {MAX_BUCKETS})")));
                    }
                    let mut bounds = Vec::with_capacity(nb);
                    for _ in 0..nb {
                        bounds.push(r.u64()?);
                    }
                    let mut counts = Vec::with_capacity(nb + 1);
                    for _ in 0..nb + 1 {
                        counts.push(r.u64()?);
                    }
                    let sum = r.u64()?;
                    MetricValue::Histogram(HistogramSnapshot { bounds, counts, sum })
                }
                tag => return Err(DecodeError(format!("unknown tag {tag:#04x}"))),
            };
            snap.entries.push((name, value));
        }
        if r.pos != buf.len() {
            return Err(DecodeError(format!("{} trailing bytes", buf.len() - r.pos)));
        }
        Ok(snap)
    }

    /// Render as an aligned two-column text table. Histograms get a
    /// summary line (`count/mean/p50/p99`) followed by one row per
    /// non-empty bucket.
    pub fn render_table(&self) -> String {
        let width =
            self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max("metric".len());
        let mut out = String::new();
        out.push_str(&format!("{:width$}  value\n", "metric"));
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{name:width$}  {v}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{name:width$}  {v}\n")),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name:width$}  count={} mean={} p50<={} p99<={}\n",
                        h.count(),
                        render_us(h.mean() as u64),
                        render_us(h.quantile(0.5)),
                        render_us(h.quantile(0.99)),
                    ));
                    for (i, &c) in h.counts.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        let edge = match h.bounds.get(i) {
                            Some(&b) => format!("<= {:>9}", render_us(b)),
                            None => format!("{:>12}", "overflow"),
                        };
                        out.push_str(&format!("{:width$}    {edge}  {c}\n", ""));
                    }
                }
            }
        }
        out
    }
}

/// Human-scale a microsecond quantity (`850us`, `1.2ms`, `3.5s`).
fn render_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.1}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("requests_served", 12);
        snap.push_gauge("queue_depth", -3);
        snap.push_histogram(
            "service_us",
            HistogramSnapshot {
                bounds: vec![100, 1000, 10000],
                counts: vec![5, 3, 1, 1],
                sum: 12345,
            },
        );
        snap
    }

    #[test]
    fn wire_round_trip_is_identity() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(MetricsSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_garbage() {
        let snap = sample();
        let bytes = snap.to_bytes();
        // Truncation anywhere must error, never panic.
        for cut in 0..bytes.len() {
            assert!(MetricsSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(MetricsSnapshot::from_bytes(&padded).is_err());
        // Unknown tag.
        let mut bad = bytes;
        let tag_at = 4 + 4 + "requests_served".len();
        bad[tag_at] = 9;
        assert!(MetricsSnapshot::from_bytes(&bad).is_err());
        // Absurd entry count.
        assert!(MetricsSnapshot::from_bytes(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn quantiles_walk_buckets() {
        let h = HistogramSnapshot { bounds: vec![10, 20, 30], counts: vec![98, 1, 0, 1], sum: 0 };
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.99), 20);
        assert_eq!(h.quantile(1.0), 60); // overflow sentinel: 2 * last bound
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn table_lists_every_metric() {
        let text = sample().render_table();
        assert!(text.contains("requests_served"), "{text}");
        assert!(text.contains("queue_depth"), "{text}");
        assert!(text.contains("service_us"), "{text}");
        assert!(text.contains("count=10"), "{text}");
        assert!(text.contains("overflow"), "{text}");
    }

    #[test]
    fn merge_prefixed_namespaces_entries() {
        let mut base = MetricsSnapshot::new();
        base.push_counter("x", 1);
        base.merge_prefixed("sim", sample());
        assert_eq!(base.counter("sim.requests_served"), Some(12));
    }

    #[test]
    fn merge_sum_adds_matching_entries_and_appends_new_ones() {
        let mut total = sample();
        total.merge_sum(&sample());
        assert_eq!(total.counter("requests_served"), Some(24));
        assert_eq!(total.gauge("queue_depth"), Some(-6));
        let h = total.histogram("service_us").unwrap();
        assert_eq!(h.counts, vec![10, 6, 2, 2]);
        assert_eq!(h.sum, 24690);

        let mut extra = MetricsSnapshot::new();
        extra.push_counter("cache_trained", 3);
        total.merge_sum(&extra);
        assert_eq!(total.counter("cache_trained"), Some(3), "absent entries append");
    }

    #[test]
    fn merge_sum_leaves_mismatched_shapes_alone() {
        let mut total = sample();
        let mut other = MetricsSnapshot::new();
        other.push_gauge("requests_served", 5); // counter vs gauge
        other.push_histogram(
            "service_us",
            HistogramSnapshot { bounds: vec![7], counts: vec![1, 1], sum: 9 },
        );
        total.merge_sum(&other);
        assert_eq!(total.counter("requests_served"), Some(12), "kind mismatch: keep ours");
        assert_eq!(total.histogram("service_us").unwrap().sum, 12345, "bounds mismatch: keep ours");
    }
}
