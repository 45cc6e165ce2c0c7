//! Crash-safety: a segment truncated at *every* byte boundary of its tail
//! entry must recover exactly the committed prefix — no panic, no lost
//! committed entry, no phantom tail entry — and the dropped tail must be
//! reported.

use act_sim::events::RawDep;
use act_store::{Corpus, EntryKind};
use act_trace::io::trace_to_bytes;
use act_trace::{Trace, TraceKind, TraceRecord};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("act-store-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_trace(n: u64, salt: u64) -> Trace {
    let mut records =
        vec![TraceRecord { seq: 0, cycle: 0, tid: 0, pc: 0, kind: TraceKind::ThreadStart }];
    for i in 0..n {
        let pc = (1 + (i + salt) % 11) as u32;
        let addr = 8 * (i + salt + 1);
        let kind = match i % 3 {
            0 => TraceKind::Store { addr },
            1 => TraceKind::Load {
                addr,
                dep: Some(RawDep { store_pc: pc, load_pc: pc + 1, inter_thread: i % 2 == 0 }),
            },
            _ => TraceKind::Branch { taken: i % 2 == 0 },
        };
        records.push(TraceRecord { seq: i + 1, cycle: i + 2, tid: (i % 2) as u32, pc, kind });
    }
    Trace { records, code_len: 16 }
}

/// A stored trace's text, read both ways: streamed from the columns
/// (`get_trace_text`) and materialized then written (`get_trace`).
fn text_of(c: &Corpus, key: &str) -> Vec<u8> {
    let text = c.get_trace_text(key).unwrap();
    assert_eq!(text, trace_to_bytes(&c.get_trace(key).unwrap()), "{key}");
    text
}

fn copy_corpus(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for ent in fs::read_dir(src).unwrap() {
        let ent = ent.unwrap();
        fs::copy(ent.path(), dst.join(ent.file_name())).unwrap();
    }
}

#[test]
fn recovery_at_every_truncation_point_of_the_tail_entry() {
    let base = tmp_dir("truncate-base");
    let t0 = small_trace(24, 0);
    let t1 = small_trace(24, 7);
    let t2 = small_trace(24, 13);
    let mut c = Corpus::init(&base).unwrap();
    c.put_trace("t0", "wl", &t0).unwrap();
    c.put_trace("t1", "wl", &t1).unwrap();
    let committed = fs::metadata(base.join("active.seg")).unwrap().len();
    c.put_trace("t2", "wl", &t2).unwrap();
    let full = fs::metadata(base.join("active.seg")).unwrap().len();
    drop(c);
    assert!(full > committed);

    // Cut exactly at the committed boundary: a clean file, nothing dropped.
    let scratch = tmp_dir("truncate-scratch");
    copy_corpus(&base, &scratch);
    let f = fs::OpenOptions::new().write(true).open(scratch.join("active.seg")).unwrap();
    f.set_len(committed).unwrap();
    drop(f);
    let c = Corpus::open(&scratch).unwrap();
    assert!(!c.open_report().dropped_tail);
    assert_eq!(c.entries(None).len(), 2);
    drop(c);

    // Every byte boundary inside the tail entry's blocks.
    for cut in committed + 1..full {
        copy_corpus(&base, &scratch);
        let f = fs::OpenOptions::new().write(true).open(scratch.join("active.seg")).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let c = Corpus::open(&scratch).unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let report = c.open_report().clone();
        assert!(report.dropped_tail, "cut {cut}: tail drop not reported");
        assert_eq!(report.dropped_bytes, cut - committed, "cut {cut}: wrong dropped byte count");
        let entries = c.entries(None);
        assert_eq!(entries.len(), 2, "cut {cut}: committed entries lost or tail resurrected");
        assert!(!c.contains(EntryKind::Trace, "t2"), "cut {cut}: uncommitted entry visible");
        assert_eq!(text_of(&c, "t0"), trace_to_bytes(&t0));
        assert_eq!(text_of(&c, "t1"), trace_to_bytes(&t1));

        // The recovered corpus must accept appends again.
        let mut c = c;
        c.put_trace("t3", "wl", &t2).unwrap();
        assert_eq!(text_of(&c, "t3"), trace_to_bytes(&t2));
    }

    // Untruncated file: everything is there, nothing is reported dropped.
    let c = Corpus::open(&base).unwrap();
    assert!(!c.open_report().dropped_tail);
    assert_eq!(c.entries(None).len(), 3);
    assert_eq!(text_of(&c, "t2"), trace_to_bytes(&t2));

    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn flipped_byte_in_tail_is_dropped_not_served() {
    let base = tmp_dir("bitrot");
    let t0 = small_trace(24, 0);
    let t1 = small_trace(24, 5);
    let mut c = Corpus::init(&base).unwrap();
    c.put_trace("t0", "wl", &t0).unwrap();
    let committed = fs::metadata(base.join("active.seg")).unwrap().len();
    c.put_trace("t1", "wl", &t1).unwrap();
    drop(c);

    // Flip one byte inside the tail entry's bytes: CRC catches it, recovery
    // truncates back to the committed prefix.
    let path = base.join("active.seg");
    let mut bytes = fs::read(&path).unwrap();
    let victim = committed as usize + 12;
    bytes[victim] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let c = Corpus::open(&base).unwrap();
    assert!(c.open_report().dropped_tail);
    assert_eq!(c.entries(None).len(), 1);
    assert_eq!(text_of(&c, "t0"), trace_to_bytes(&t0));
    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sealed_segment_with_damaged_footer_falls_back_to_scan() {
    let base = tmp_dir("footer");
    let mut c = Corpus::init(&base).unwrap();
    c.set_seal_bytes(64);
    c.put_trace("t0", "wl", &small_trace(40, 0)).unwrap();
    let stat = c.stat().unwrap();
    assert_eq!(stat.sealed_segments, 1);
    drop(c);

    // Damage the trailer magic of the sealed segment: open must still find
    // the entry by scanning.
    let seg = base.join("seg-000001.seg");
    let mut bytes = fs::read(&seg).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0xff;
    fs::write(&seg, &bytes).unwrap();

    let c = Corpus::open(&base).unwrap();
    assert_eq!(c.open_report().scanned_segments, 1);
    assert_eq!(text_of(&c, "t0"), trace_to_bytes(&small_trace(40, 0)));
    fs::remove_dir_all(&base).unwrap();
}
