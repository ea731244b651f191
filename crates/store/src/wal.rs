//! The archive itself: an append-only write-ahead log of CRC32-framed
//! records with an in-memory index rebuilt on open.
//!
//! ## File format
//!
//! ```text
//! [8-byte magic "DCST" 0x01 0x00 0x00 0x00]
//! record*   where record = [kind u8][key_len u32 LE][val_len u32 LE]
//!                          [crc32 u32 LE][key bytes][val bytes]
//! ```
//!
//! The CRC covers everything except itself (kind, both lengths, key, val).
//! Record kinds: `1` = report (key = [`StoreKey::encode`] bytes, val =
//! binary `SolveReport`), `2` = footer (empty key; val = live-record count
//! and generation, written by [`Store::close_clean`] so a reopened archive
//! can tell a clean shutdown from a crash). Appends continue *after* a
//! footer — interior footers are skipped when the index is rebuilt and
//! dropped by compaction — so the persisted generation stamp survives a
//! crash that happens after later appends.
//!
//! ## Crash safety
//!
//! Appends are single `write(2)` calls in log order with no in-place
//! mutation, so a crash (including `kill -9`) can only leave a *torn tail*:
//! a final record whose bytes are incomplete or whose CRC fails. [`Store::open`]
//! scans the log, stops at the first invalid frame, and truncates the file
//! there — the torn record is dropped, every earlier record is intact, and
//! the archive is immediately writable again. Corruption can never
//! propagate backwards because records are never rewritten in place.
//!
//! ## Compaction and generations
//!
//! The log grows monotonically (superseded duplicates, interior footers).
//! [`Store::compact`] writes the live records to a sibling temp file,
//! fsyncs it, and atomically renames it over the archive, then swaps the
//! file handle, index, and generation stamp under the same lock that every
//! reader takes — a reader observes either generation `g` with `g`'s
//! offsets or `g+1` with `g+1`'s offsets, never a half-compacted mix. The
//! generation is persisted in the footer, so cross-process readers can
//! detect a swap too. As defense in depth, [`Store::get`] re-verifies the
//! record CRC on every read.
//!
//! One writer per archive: the store serializes all access behind a mutex
//! in-process, but does no cross-process file locking — run one writing
//! server (or CLI) per archive at a time. Concurrent read-only opens of a
//! clean archive are safe.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::crc32::Crc32;
use crate::key::{hash_key_bytes, StoreKey};

/// Archive magic: "DCST" + format version 1.
pub const MAGIC: [u8; 8] = *b"DCST\x01\x00\x00\x00";

const RECORD_HEADER_LEN: usize = 13; // kind + key_len + val_len + crc
const KIND_REPORT: u8 = 1;
const KIND_FOOTER: u8 = 2;
const FOOTER_VAL_LEN: usize = 16; // live u64 + generation u64

/// Sanity bounds: lengths beyond these are treated as corruption, not
/// allocation requests.
const MAX_KEY_LEN: u32 = 1 << 24;
const MAX_VAL_LEN: u32 = 1 << 28;

/// What [`Store::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Report records scanned (including superseded duplicates).
    pub records_scanned: u64,
    /// Live records after index dedup.
    pub live: u64,
    /// Records replaced by a later append of the same key.
    pub superseded: u64,
    /// Bytes dropped from a torn tail (0 on a clean log).
    pub torn_bytes_dropped: u64,
    /// The log ended with a clean-shutdown footer.
    pub clean_footer: bool,
    /// Generation stamp recovered from the footer (0 if none).
    pub generation: u64,
}

/// Point-in-time archive counters (`dclab store stats`, `/metrics`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub live: u64,
    /// Log length in bytes (header + records + footers).
    pub bytes: u64,
    pub generation: u64,
    pub clean_footer: bool,
    /// Appends accepted since open (deduped appends not counted).
    pub appends: u64,
    /// fsyncs since open.
    pub flushes: u64,
}

/// What [`Store::compact`] reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    pub live: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
    pub generation: u64,
}

/// What [`Store::import`] merged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Live records in the source archive.
    pub scanned: u64,
    /// Records appended (key not already present).
    pub added: u64,
    /// Records skipped (key already present).
    pub skipped: u64,
}

struct IndexEntry {
    key: Vec<u8>,
    offset: u64,
    key_len: u32,
    val_len: u32,
}

impl IndexEntry {
    fn record_len(&self) -> u64 {
        RECORD_HEADER_LEN as u64 + self.key_len as u64 + self.val_len as u64
    }
}

struct Inner {
    file: File,
    /// key-bytes hash → entries whose key hashed there (collisions probe).
    index: HashMap<u64, Vec<IndexEntry>>,
    /// Next append offset (the current log length). Shutdown footers stay
    /// in place as interior records; appends go after them.
    tail: u64,
    live: u64,
    generation: u64,
    clean_footer: bool,
    appends: u64,
    flushes: u64,
}

/// The persistent solution archive (see module docs).
pub struct Store {
    path: PathBuf,
    inner: Mutex<Inner>,
}

/// One frame found by the scanner.
struct ScanRecord {
    kind: u8,
    offset: usize,
    key_start: usize,
    key_len: usize,
    val_len: usize,
}

impl ScanRecord {
    fn key_range(&self) -> std::ops::Range<usize> {
        self.key_start..self.key_start + self.key_len
    }

    fn val_range(&self) -> std::ops::Range<usize> {
        let start = self.key_start + self.key_len;
        start..start + self.val_len
    }
}

struct Scanned {
    /// Length of the valid prefix (everything after it is torn/garbage).
    valid_end: usize,
    records: Vec<ScanRecord>,
}

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Walk the frames of `buf` (which must start with [`MAGIC`]); stops —
/// without error — at the first torn or corrupt frame.
fn scan(buf: &[u8]) -> std::io::Result<Scanned> {
    if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
        return Err(bad_data("not a dclab-store archive (bad magic)"));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        if pos + RECORD_HEADER_LEN > buf.len() {
            break; // torn header (or exact EOF)
        }
        let kind = buf[pos];
        let key_len = u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().unwrap());
        let val_len = u32::from_le_bytes(buf[pos + 5..pos + 9].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 9..pos + 13].try_into().unwrap());
        if !(kind == KIND_REPORT || kind == KIND_FOOTER)
            || key_len > MAX_KEY_LEN
            || val_len > MAX_VAL_LEN
        {
            break; // corrupt frame
        }
        let payload_len = key_len as usize + val_len as usize;
        let end = pos + RECORD_HEADER_LEN + payload_len;
        if end > buf.len() {
            break; // torn payload
        }
        let mut check = Crc32::new();
        check.update(&buf[pos..pos + 9]); // kind + lengths
        check.update(&buf[pos + RECORD_HEADER_LEN..end]); // key + val
        if check.finish() != crc {
            break; // bit rot or torn overwrite
        }
        records.push(ScanRecord {
            kind,
            offset: pos,
            key_start: pos + RECORD_HEADER_LEN,
            key_len: key_len as usize,
            val_len: val_len as usize,
        });
        pos = end;
    }
    Ok(Scanned {
        valid_end: pos,
        records,
    })
}

/// Assemble one framed record.
fn frame_record(kind: u8, key: &[u8], val: &[u8]) -> Vec<u8> {
    let mut head = [0u8; 9];
    head[0] = kind;
    head[1..5].copy_from_slice(&(key.len() as u32).to_le_bytes());
    head[5..9].copy_from_slice(&(val.len() as u32).to_le_bytes());
    let mut check = Crc32::new();
    check.update(&head);
    check.update(key);
    check.update(val);
    let crc = check.finish();
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + key.len() + val.len());
    buf.extend_from_slice(&head);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(val);
    buf
}

fn footer_record(live: u64, generation: u64) -> Vec<u8> {
    let mut val = Vec::with_capacity(FOOTER_VAL_LEN);
    val.extend_from_slice(&live.to_le_bytes());
    val.extend_from_slice(&generation.to_le_bytes());
    frame_record(KIND_FOOTER, &[], &val)
}

/// Index the report records of a scan, later appends of a key superseding
/// earlier ones. Returns `(index, live, superseded, generation, clean_footer, tail)`.
#[allow(clippy::type_complexity)]
fn build_index(buf: &[u8], scanned: &Scanned) -> (HashMap<u64, Vec<IndexEntry>>, OpenStats, u64) {
    let mut index: HashMap<u64, Vec<IndexEntry>> = HashMap::new();
    let mut stats = OpenStats::default();
    let tail = scanned.valid_end as u64;
    for rec in &scanned.records {
        if rec.kind == KIND_FOOTER {
            if rec.val_len == FOOTER_VAL_LEN {
                let val = &buf[rec.val_range()];
                let gen = u64::from_le_bytes(val[8..16].try_into().unwrap());
                stats.generation = stats.generation.max(gen);
            }
            continue;
        }
        stats.records_scanned += 1;
        let key = buf[rec.key_range()].to_vec();
        let hash = hash_key_bytes(&key);
        let entry = IndexEntry {
            key,
            offset: rec.offset as u64,
            key_len: rec.key_len as u32,
            val_len: rec.val_len as u32,
        };
        let bucket = index.entry(hash).or_default();
        if let Some(existing) = bucket.iter_mut().find(|e| e.key == entry.key) {
            *existing = entry;
            stats.superseded += 1;
        } else {
            bucket.push(entry);
        }
    }
    stats.live = index.values().map(|b| b.len() as u64).sum();
    // A footer at the exact end of the valid prefix marks a clean
    // shutdown. Appends continue *after* it — interior footers are skipped
    // by the scan and dropped at compaction — so the generation stamp the
    // footer carries survives crashes that happen mid-append later on.
    if let Some(last) = scanned.records.last() {
        let last_end = last.offset + RECORD_HEADER_LEN + last.key_len + last.val_len;
        if last.kind == KIND_FOOTER && last_end == scanned.valid_end {
            stats.clean_footer = true;
        }
    }
    (index, stats, tail)
}

impl Store {
    /// Open (or create) the archive at `path`, rebuilding the in-memory
    /// index. A torn final record is dropped by truncation; earlier records
    /// are untouched.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Store, OpenStats)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        if buf.is_empty() {
            file.write_all(&MAGIC)?;
            buf.extend_from_slice(&MAGIC);
        }
        let scanned = scan(&buf)?;
        let mut torn = 0u64;
        if scanned.valid_end < buf.len() {
            torn = (buf.len() - scanned.valid_end) as u64;
            file.set_len(scanned.valid_end as u64)?;
        }
        let (index, mut stats, tail) = build_index(&buf, &scanned);
        stats.torn_bytes_dropped = torn;
        let inner = Inner {
            file,
            index,
            tail,
            live: stats.live,
            generation: stats.generation,
            clean_footer: stats.clean_footer,
            appends: 0,
            flushes: 0,
        };
        Ok((
            Store {
                path,
                inner: Mutex::new(inner),
            },
            stats,
        ))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock poisoned")
    }

    /// The archive path this store was opened on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current generation stamp (bumped by [`Store::compact`]).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.lock().live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the report bytes for `key`. The record's CRC is re-verified
    /// on read, so a hit is never served from a damaged frame.
    pub fn get(&self, key: &StoreKey) -> std::io::Result<Option<Vec<u8>>> {
        self.get_encoded(&key.encode())
    }

    fn get_encoded(&self, key_bytes: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
        let mut inner = self.lock();
        let hash = hash_key_bytes(key_bytes);
        let Some(entry) = inner
            .index
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|e| e.key == key_bytes))
        else {
            return Ok(None);
        };
        let (offset, len) = (entry.offset, entry.record_len() as usize);
        let key_len = entry.key_len as usize;
        let mut record = vec![0u8; len];
        inner.file.seek(SeekFrom::Start(offset))?;
        inner.file.read_exact(&mut record)?;
        let stored_crc = u32::from_le_bytes(record[9..13].try_into().unwrap());
        let mut check = Crc32::new();
        check.update(&record[..9]);
        check.update(&record[RECORD_HEADER_LEN..]);
        if check.finish() != stored_crc {
            return Err(bad_data(format!(
                "record at offset {offset} failed its CRC on read"
            )));
        }
        Ok(Some(record[RECORD_HEADER_LEN + key_len..].to_vec()))
    }

    /// Append `key → val`. Returns `Ok(false)` if the key is already
    /// archived (the existing record is kept — reports are deterministic,
    /// so re-appending would only grow the log).
    ///
    /// The record reaches the OS in one `write(2)` before this returns
    /// (durable against process death); call [`Store::flush`] to also
    /// survive power loss.
    pub fn append(&self, key: &StoreKey, val: &[u8]) -> std::io::Result<bool> {
        self.append_encoded(key.encode(), val)
    }

    fn append_encoded(&self, key_bytes: Vec<u8>, val: &[u8]) -> std::io::Result<bool> {
        // Enforce the same bounds the recovery scan enforces: a frame the
        // scanner would treat as corrupt must never be written, or the next
        // open would truncate it *and every record appended after it*.
        if key_bytes.len() > MAX_KEY_LEN as usize || val.len() > MAX_VAL_LEN as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record too large for the archive format (key {} bytes > {MAX_KEY_LEN} \
                     or val {} bytes > {MAX_VAL_LEN})",
                    key_bytes.len(),
                    val.len()
                ),
            ));
        }
        let mut inner = self.lock();
        let hash = hash_key_bytes(&key_bytes);
        if inner
            .index
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|e| e.key == key_bytes))
        {
            return Ok(false);
        }
        // A previous shutdown footer stays in place (interior footers are
        // skipped on open); the log just stops being clean.
        inner.clean_footer = false;
        let record = frame_record(KIND_REPORT, &key_bytes, val);
        let offset = inner.tail;
        inner.file.seek(SeekFrom::Start(offset))?;
        inner.file.write_all(&record)?;
        inner.tail += record.len() as u64;
        inner.live += 1;
        inner.appends += 1;
        let entry = IndexEntry {
            key_len: key_bytes.len() as u32,
            val_len: val.len() as u32,
            key: key_bytes,
            offset,
        };
        inner.index.entry(hash).or_default().push(entry);
        Ok(true)
    }

    /// fsync the log (crash-consistency down to the platters).
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        inner.file.sync_data()?;
        inner.flushes += 1;
        Ok(())
    }

    /// Clean shutdown: stamp a footer (live count + generation), fsync.
    /// Idempotent; later appends continue after the footer (it becomes an
    /// interior record, preserving the generation stamp across crashes).
    pub fn close_clean(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if inner.clean_footer {
            inner.file.sync_data()?;
            inner.flushes += 1;
            return Ok(());
        }
        let tail = inner.tail;
        let footer = footer_record(inner.live, inner.generation);
        inner.file.seek(SeekFrom::Start(tail))?;
        inner.file.write_all(&footer)?;
        inner.file.sync_data()?;
        inner.tail += footer.len() as u64;
        inner.clean_footer = true;
        inner.flushes += 1;
        Ok(())
    }

    /// Serialize the live records (offset order) into a fresh archive
    /// image, footer included.
    fn snapshot_image(inner: &mut Inner, generation: u64) -> std::io::Result<Vec<u8>> {
        let mut entries: Vec<(u64, usize, usize)> = inner
            .index
            .values()
            .flat_map(|bucket| {
                bucket
                    .iter()
                    .map(|e| (e.offset, e.key_len as usize, e.val_len as usize))
            })
            .collect();
        entries.sort_unstable();
        let mut image = Vec::with_capacity(MAGIC.len() + inner.tail as usize);
        image.extend_from_slice(&MAGIC);
        for (offset, key_len, val_len) in entries {
            let len = RECORD_HEADER_LEN + key_len + val_len;
            let mut record = vec![0u8; len];
            inner.file.seek(SeekFrom::Start(offset))?;
            inner.file.read_exact(&mut record)?;
            image.extend_from_slice(&record);
        }
        let live = inner.live;
        image.extend_from_slice(&footer_record(live, generation));
        Ok(image)
    }

    /// Rewrite the archive to live records only and atomically swap it in:
    /// write a sibling temp file, fsync, rename over the log, bump the
    /// generation. Readers synchronize on the same lock, so no reader ever
    /// observes a half-compacted file.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut inner = self.lock();
        let bytes_before = inner.tail;
        let generation = inner.generation + 1;
        let image = Self::snapshot_image(&mut inner, generation)?;
        let tmp_path = self.path.with_file_name(format!(
            "{}.compact-tmp",
            self.path
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "archive".into())
        ));
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&image)?;
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(parent) = self.path.parent() {
            if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            }) {
                let _ = dir.sync_all();
            }
        }
        // `tmp` now *is* the archive inode; swap handle + index + stamp
        // together under the lock.
        inner.file = tmp;
        let scanned = scan(&image)?;
        let (index, stats, tail) = build_index(&image, &scanned);
        inner.index = index;
        inner.live = stats.live;
        inner.tail = tail;
        inner.generation = generation;
        inner.clean_footer = true;
        Ok(CompactStats {
            live: inner.live,
            bytes_before,
            bytes_after: inner.tail,
            generation,
        })
    }

    /// Write a standalone snapshot of the live records to `dest` (a fresh
    /// generation-0 archive with a clean footer) — the portable export
    /// format for sharing solved corpora. Returns the record count.
    pub fn export(&self, dest: impl AsRef<Path>) -> std::io::Result<u64> {
        let mut inner = self.lock();
        let image = Self::snapshot_image(&mut inner, 0)?;
        let live = inner.live;
        drop(inner);
        let mut out = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dest.as_ref())?;
        out.write_all(&image)?;
        out.sync_all()?;
        Ok(live)
    }

    /// Merge another archive's live records into this one (keys already
    /// present are skipped). The source is only read, never repaired.
    pub fn import(&self, src: impl AsRef<Path>) -> std::io::Result<ImportStats> {
        let buf = std::fs::read(src.as_ref())?;
        let scanned = scan(&buf)?;
        // Later records supersede earlier ones, mirroring open().
        let mut live: HashMap<&[u8], &ScanRecord> = HashMap::new();
        for rec in &scanned.records {
            if rec.kind == KIND_REPORT {
                live.insert(&buf[rec.key_range()], rec);
            }
        }
        let mut stats = ImportStats {
            scanned: live.len() as u64,
            ..ImportStats::default()
        };
        let mut records: Vec<&ScanRecord> = live.into_values().collect();
        records.sort_unstable_by_key(|r| r.offset);
        for rec in records {
            let key = buf[rec.key_range()].to_vec();
            if self.append_encoded(key, &buf[rec.val_range()])? {
                stats.added += 1;
            } else {
                stats.skipped += 1;
            }
        }
        Ok(stats)
    }

    /// Decode every live record (offset order) — the warm-boot and export
    /// iteration path. The log is read back in one sequential pass (not a
    /// seek per record, which would make a large warm boot syscall-bound).
    /// Records whose key no longer decodes (foreign writer, future key
    /// version) are skipped rather than failing the boot.
    pub fn iter_live(&self) -> std::io::Result<Vec<(StoreKey, Vec<u8>)>> {
        let mut inner = self.lock();
        inner.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::with_capacity(inner.tail as usize);
        inner.file.read_to_end(&mut buf)?;
        let mut entries: Vec<(u64, Vec<u8>, usize, usize)> = inner
            .index
            .values()
            .flat_map(|bucket| {
                bucket.iter().map(|e| {
                    (
                        e.offset,
                        e.key.clone(),
                        e.key_len as usize,
                        e.val_len as usize,
                    )
                })
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        let mut out = Vec::with_capacity(entries.len());
        for (offset, key_bytes, key_len, val_len) in entries {
            let Ok(key) = StoreKey::decode(&key_bytes) else {
                continue;
            };
            let start = offset as usize + RECORD_HEADER_LEN + key_len;
            let Some(val) = buf.get(start..start + val_len) else {
                continue;
            };
            out.push((key, val.to_vec()));
        }
        Ok(out)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            live: inner.live,
            bytes: inner.tail,
            generation: inner.generation,
            clean_footer: inner.clean_footer,
            appends: inner.appends,
            flushes: inner.flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_engine::{Budget, OraclePolicy, Strategy};

    /// A temp directory for one test, removed when its owner drops: at the
    /// end of the test, and on a failed assertion too.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("dclab-store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            Scratch(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn key(i: u64) -> StoreKey {
        StoreKey {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            pvec: vec![i + 1, 1],
            strategy: Strategy::Greedy,
            budget: Budget::default(),
            oracle: OraclePolicy::Auto,
        }
    }

    #[test]
    fn append_get_reopen_round_trip() {
        let dir = Scratch::new("round-trip");
        let path = dir.join("round-trip.dcst");
        {
            let (store, open) = Store::open(&path).unwrap();
            assert_eq!(open.live, 0);
            assert!(store.append(&key(0), b"report-zero").unwrap());
            assert!(store.append(&key(1), b"report-one").unwrap());
            assert!(!store.append(&key(0), b"ignored-dup").unwrap(), "dedup");
            assert_eq!(store.len(), 2);
            assert_eq!(store.get(&key(0)).unwrap().unwrap(), b"report-zero");
        }
        let (store, open) = Store::open(&path).unwrap();
        assert_eq!(open.live, 2);
        assert_eq!(open.torn_bytes_dropped, 0);
        assert!(!open.clean_footer, "no close_clean → no footer");
        assert_eq!(store.get(&key(1)).unwrap().unwrap(), b"report-one");
        assert_eq!(store.get(&key(9)).unwrap(), None);
    }

    #[test]
    fn close_clean_leaves_footer_and_appends_resume() {
        let dir = Scratch::new("footer");
        let path = dir.join("footer.dcst");
        {
            let (store, _) = Store::open(&path).unwrap();
            store.append(&key(0), b"a").unwrap();
            store.close_clean().unwrap();
        }
        let (store, open) = Store::open(&path).unwrap();
        assert!(open.clean_footer);
        assert_eq!(open.live, 1);
        // Appending truncates the footer and keeps going.
        assert!(store.append(&key(1), b"b").unwrap());
        assert!(!store.stats().clean_footer);
        store.close_clean().unwrap();
        let (_, open) = Store::open(&path).unwrap();
        assert!(open.clean_footer);
        assert_eq!(open.live, 2);
    }

    #[test]
    fn torn_tail_is_dropped_earlier_records_intact() {
        let dir = Scratch::new("torn");
        let path = dir.join("torn.dcst");
        {
            let (store, _) = Store::open(&path).unwrap();
            store.append(&key(0), b"first-report").unwrap();
            store.append(&key(1), b"second-report").unwrap();
        }
        // Tear the final record by chopping 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (store, open) = Store::open(&path).unwrap();
        assert_eq!(open.live, 1, "torn record dropped");
        assert!(open.torn_bytes_dropped > 0);
        assert_eq!(store.get(&key(0)).unwrap().unwrap(), b"first-report");
        assert_eq!(store.get(&key(1)).unwrap(), None);
        // The archive is immediately writable again.
        assert!(store.append(&key(1), b"second-report").unwrap());
        assert_eq!(store.get(&key(1)).unwrap().unwrap(), b"second-report");
    }

    #[test]
    fn corrupt_mid_record_truncates_from_there() {
        let dir = Scratch::new("bitrot");
        let path = dir.join("bitrot.dcst");
        let second_offset;
        {
            let (store, _) = Store::open(&path).unwrap();
            store.append(&key(0), b"aaaa").unwrap();
            second_offset = store.stats().bytes;
            store.append(&key(1), b"bbbb").unwrap();
            store.append(&key(2), b"cccc").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second_offset as usize + RECORD_HEADER_LEN] ^= 0xFF; // flip a key byte of record 2
        std::fs::write(&path, &bytes).unwrap();
        let (store, open) = Store::open(&path).unwrap();
        assert_eq!(open.live, 1, "records at and after the flip are dropped");
        assert_eq!(store.get(&key(0)).unwrap().unwrap(), b"aaaa");
    }

    #[test]
    fn compact_drops_dead_space_and_bumps_generation() {
        let dir = Scratch::new("compact");
        let path = dir.join("compact.dcst");
        let (store, _) = Store::open(&path).unwrap();
        for i in 0..8 {
            store
                .append(&key(i), format!("val-{i}").as_bytes())
                .unwrap();
        }
        store.close_clean().unwrap();
        assert_eq!(store.generation(), 0);
        let stats = store.compact().unwrap();
        assert_eq!(stats.live, 8);
        assert_eq!(stats.generation, 1);
        assert_eq!(store.generation(), 1);
        for i in 0..8 {
            assert_eq!(
                store.get(&key(i)).unwrap().unwrap(),
                format!("val-{i}").as_bytes()
            );
        }
        // Reopen: generation survives via the footer.
        drop(store);
        let (store, open) = Store::open(&path).unwrap();
        assert_eq!(open.generation, 1);
        assert!(open.clean_footer);
        assert_eq!(store.len(), 8);
    }

    #[test]
    fn export_then_import_merges_without_duplicates() {
        let dir = Scratch::new("exp");
        let a_path = dir.join("exp-a.dcst");
        let b_path = dir.join("exp-b.dcst");
        let dump = dir.join("exp-dump.dcst");
        let (a, _) = Store::open(&a_path).unwrap();
        a.append(&key(0), b"zero").unwrap();
        a.append(&key(1), b"one").unwrap();
        assert_eq!(a.export(&dump).unwrap(), 2);
        let (b, _) = Store::open(&b_path).unwrap();
        b.append(&key(1), b"one").unwrap();
        b.append(&key(2), b"two").unwrap();
        let imported = b.import(&dump).unwrap();
        assert_eq!(imported.scanned, 2);
        assert_eq!(imported.added, 1, "only key 0 is new");
        assert_eq!(imported.skipped, 1);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(&key(0)).unwrap().unwrap(), b"zero");
    }

    #[test]
    fn iter_live_returns_decoded_keys_in_offset_order() {
        let dir = Scratch::new("iter");
        let path = dir.join("iter.dcst");
        let (store, _) = Store::open(&path).unwrap();
        for i in 0..4 {
            store.append(&key(i), format!("v{i}").as_bytes()).unwrap();
        }
        let live = store.iter_live().unwrap();
        assert_eq!(live.len(), 4);
        for (i, (k, v)) in live.iter().enumerate() {
            assert_eq!(*k, key(i as u64));
            assert_eq!(v, format!("v{i}").as_bytes());
        }
    }

    #[test]
    fn generation_survives_a_crash_after_later_appends() {
        let dir = Scratch::new("gen-crash");
        let path = dir.join("gen-crash.dcst");
        {
            let (store, _) = Store::open(&path).unwrap();
            store.append(&key(0), b"a").unwrap();
            store.compact().unwrap();
            assert_eq!(store.generation(), 1);
            // Append after the compaction footer, then "crash" (drop with
            // no close_clean): the interior footer must keep the stamp.
            store.append(&key(1), b"b").unwrap();
        }
        let (store, open) = Store::open(&path).unwrap();
        assert!(!open.clean_footer, "crash → not clean");
        assert_eq!(open.generation, 1, "generation stamp survives the crash");
        assert_eq!(open.live, 2);
        let c = store.compact().unwrap();
        assert_eq!(c.generation, 2, "next compaction does not reuse a stamp");
    }

    #[test]
    fn oversized_records_are_rejected_not_written() {
        let dir = Scratch::new("oversized");
        let path = dir.join("oversized.dcst");
        let (store, _) = Store::open(&path).unwrap();
        store.append(&key(0), b"small").unwrap();
        let huge = vec![0u8; MAX_VAL_LEN as usize + 1];
        let err = store.append(&key(1), &huge).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // The refusal left the log fully valid: a good record still appends
        // and a reopen sees everything.
        store.append(&key(2), b"after").unwrap();
        drop(store);
        let (_, open) = Store::open(&path).unwrap();
        assert_eq!(open.live, 2);
        assert_eq!(open.torn_bytes_dropped, 0);
    }

    #[test]
    fn non_archive_file_is_rejected() {
        let dir = Scratch::new("not-an-archive");
        let path = dir.join("not-an-archive.dcst");
        std::fs::write(&path, b"definitely not DCST magic").unwrap();
        assert!(Store::open(&path).is_err());
    }
}
