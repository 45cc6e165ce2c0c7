//! Store metrics, registered on an `act-obs` [`Registry`] so a corpus
//! embedded in the daemon surfaces through the same STATUS snapshot as the
//! serving counters. Until then a corpus counts into cells of its own.

use act_obs::metrics::{Counter, Gauge, Registry};

/// Handles to the store's instruments. Cheap to clone (each instrument is a
/// shared atomic cell); the default is a set of cells on no registry.
#[derive(Clone, Default)]
pub struct StoreMetrics {
    /// Uncompressed payload bytes accepted by `put` operations.
    pub bytes_in: Counter,
    /// Compressed bytes handed out by `get`/stream reads.
    pub bytes_out: Counter,
    /// Blocks rejected for CRC/structure damage (recovery drops + read
    /// failures).
    pub corrupt_blocks: Counter,
    /// Corpus-cumulative compression ratio ×1000 (raw/encoded; 3000 = 3×).
    pub compression_ratio_milli: Gauge,
    /// Most recent measured decode throughput, whole MB/s of compressed
    /// input.
    pub decode_mb_per_sec: Gauge,
}

impl StoreMetrics {
    /// Register (or re-attach to) the store instruments on `registry`.
    pub fn register(registry: &Registry) -> Self {
        StoreMetrics {
            bytes_in: registry.counter("store_bytes_in"),
            bytes_out: registry.counter("store_bytes_out"),
            corrupt_blocks: registry.counter("store_corrupt_blocks"),
            compression_ratio_milli: registry.gauge("store_compression_ratio_milli"),
            decode_mb_per_sec: registry.gauge("store_decode_mb_per_sec"),
        }
    }

    /// Register on `registry`, carrying over what these cells have counted
    /// (an opened corpus's recovery drops), so the registry's snapshot
    /// shows them.
    pub fn move_to(&self, registry: &Registry) -> Self {
        let moved = Self::register(registry);
        moved.bytes_in.add(self.bytes_in.get());
        moved.bytes_out.add(self.bytes_out.get());
        moved.corrupt_blocks.add(self.corrupt_blocks.get());
        moved.compression_ratio_milli.set(self.compression_ratio_milli.get());
        moved.decode_mb_per_sec.set(self.decode_mb_per_sec.get());
        moved
    }

    /// Update the cumulative compression-ratio gauge.
    pub fn set_ratio(&self, raw_bytes: u64, encoded_bytes: u64) {
        if let Some(ratio_milli) = (raw_bytes * 1000).checked_div(encoded_bytes) {
            self.compression_ratio_milli.set(ratio_milli as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_gauge_is_milli_scaled() {
        let r = Registry::new();
        let m = StoreMetrics::register(&r);
        m.set_ratio(3000, 1000);
        let snap = r.snapshot();
        let (_, v) =
            snap.entries.iter().find(|(n, _)| n == "store_compression_ratio_milli").unwrap();
        assert_eq!(*v, act_obs::snapshot::MetricValue::Gauge(3000));
    }

    #[test]
    fn moving_to_a_registry_carries_the_counts() {
        let m = StoreMetrics::default();
        m.corrupt_blocks.inc();
        m.bytes_in.add(10);
        m.set_ratio(3000, 1000);
        let r = Registry::new();
        let moved = m.move_to(&r);
        moved.corrupt_blocks.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("store_corrupt_blocks"), Some(2));
        assert_eq!(snap.counter("store_bytes_in"), Some(10));
        assert_eq!(snap.gauge("store_compression_ratio_milli"), Some(3000));
    }

    #[test]
    fn zero_encoded_does_not_divide() {
        let r = Registry::new();
        let m = StoreMetrics::register(&r);
        m.set_ratio(100, 0);
    }
}
