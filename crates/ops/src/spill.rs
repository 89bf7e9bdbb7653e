//! Disk tier for compacted join-state runs.
//!
//! One [`SpillFile`] per [`crate::JoinState`]: an anonymous temp file
//! (created then immediately unlinked on unix, so the OS reclaims it the
//! moment the state drops) holding append-only run blobs. Each blob stores
//! one immutable columnar run — value columns back to back, each column
//! either a fixed 9-byte-per-row block or a var-length block with a row
//! offset table — closed by a footer index of column offsets and kinds, so
//! a reader can address any (column, row range) without scanning.
//!
//! Reads go through positioned `pread`s (`std::os::unix::fs::FileExt::
//! read_exact_at`) against the OS page cache. A true `mmap` mapping would
//! need the `libc`/`memmap2` crates, which the offline vendor set does not
//! carry; the access pattern — shared, page-granular reads of an
//! append-only file — is the same, and `pread` keeps the reader `&self`
//! (no seek cursor), which the probe path requires.
//!
//! Timestamps are *not* written here: the in-memory run keeps its sorted
//! `Vec<Timestamp>` resident so punctuation can retire a spilled run — and
//! the floor can `partition_point` into it — without touching the disk
//! tier at all (the frontier-addressing requirement).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use millstream_types::{Timestamp, Value};

/// Blob footer magic ("MSRN").
const MAGIC: u32 = 0x4D53_524E;

/// Column block kinds.
const KIND_FIXED: u8 = 0;
const KIND_VAR: u8 = 1;

/// Fixed-block cell: 1 tag byte + 8 payload bytes.
const FIXED_CELL: usize = 9;

/// Value tags shared by both block kinds.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;

/// Distinguishes concurrently-created spill files of one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Positioned read: `pread` on unix (no cursor, works through `&File`),
/// a cloned-handle seek+read elsewhere.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// The append-only disk tier of one join state.
pub struct SpillFile {
    file: File,
    /// Bytes appended so far (= offset of the next blob).
    len: u64,
    /// Retained only on platforms where the open file cannot be unlinked;
    /// deleted on drop.
    cleanup_path: Option<PathBuf>,
}

impl SpillFile {
    /// Creates the state's temp file. On unix the path is unlinked
    /// immediately, so the file is anonymous and cannot leak.
    pub fn create() -> io::Result<SpillFile> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "millstream-join-spill-{}-{}.run",
            std::process::id(),
            seq
        ));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path)?;
        let cleanup_path = if cfg!(unix) {
            std::fs::remove_file(&path)?;
            None
        } else {
            Some(path)
        };
        Ok(SpillFile {
            file,
            len: 0,
            cleanup_path,
        })
    }

    /// True when no blob is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reclaims the file once every spilled run has been dropped by
    /// punctuation — the wholesale analogue of a run drop.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    /// Appends one run blob. `values` is column-major (`values[c * rows +
    /// r]` is column `c` of row `r`, `values.len() == rows * width`).
    /// Returns the blob's `(offset, length)`.
    pub fn append_run(
        &mut self,
        rows: usize,
        width: usize,
        values: &[Value],
    ) -> io::Result<(u64, u64)> {
        debug_assert_eq!(values.len(), rows * width);
        let offset = self.len;
        let mut blob: Vec<u8> = Vec::with_capacity(values.len() * FIXED_CELL + width * 9 + 12);
        let mut col_offs = Vec::with_capacity(width);
        let mut col_kinds = Vec::with_capacity(width);
        for c in 0..width {
            col_offs.push(blob.len() as u64);
            let col = &values[c * rows..(c + 1) * rows];
            let kind = if col.iter().any(|v| matches!(v, Value::Str(_))) {
                KIND_VAR
            } else {
                KIND_FIXED
            };
            col_kinds.push(kind);
            blob.push(kind);
            match kind {
                KIND_FIXED => {
                    for v in col {
                        let mut cell = [0u8; FIXED_CELL];
                        encode_fixed(v, &mut cell);
                        blob.extend_from_slice(&cell);
                    }
                }
                _ => {
                    // Row offset table (rows + 1 entries, relative to the
                    // byte stream that follows it), then the byte stream.
                    let table_at = blob.len();
                    blob.resize(table_at + 4 * (rows + 1), 0);
                    let mut bytes: Vec<u8> = Vec::new();
                    for (r, v) in col.iter().enumerate() {
                        let off = bytes.len() as u32;
                        blob[table_at + 4 * r..table_at + 4 * (r + 1)]
                            .copy_from_slice(&off.to_le_bytes());
                        encode_var(v, &mut bytes);
                    }
                    let end = bytes.len() as u32;
                    blob[table_at + 4 * rows..table_at + 4 * (rows + 1)]
                        .copy_from_slice(&end.to_le_bytes());
                    blob.extend_from_slice(&bytes);
                }
            }
        }
        // Footer index: column offsets, column kinds, geometry, magic.
        for off in &col_offs {
            blob.extend_from_slice(&off.to_le_bytes());
        }
        blob.extend_from_slice(&col_kinds);
        blob.extend_from_slice(&(rows as u32).to_le_bytes());
        blob.extend_from_slice(&(width as u32).to_le_bytes());
        blob.extend_from_slice(&MAGIC.to_le_bytes());
        self.file.write_all(&blob)?;
        self.len += blob.len() as u64;
        Ok((offset, blob.len() as u64))
    }

    /// Reads rows `[start, start + count)` of a spilled blob of `width`
    /// columns back into row-major value vectors. Only the footer, the
    /// needed slice of each fixed column, and the needed offset/byte
    /// ranges of var columns are read — never the whole file and never
    /// rows outside the range. Bytes that do not describe such a blob are
    /// `InvalidData`, never a panic or an outsized allocation.
    pub fn read_rows(
        &self,
        offset: u64,
        blob_len: u64,
        width: usize,
        start: usize,
        count: usize,
        out: &mut Vec<Vec<Value>>,
    ) -> io::Result<()> {
        // Footer first: it is the blob's index.
        let footer_len = (8 + 1) * width as u64 + 12;
        if blob_len < footer_len {
            return Err(corrupt("spill blob shorter than its footer"));
        }
        let mut tail = [0u8; 12];
        read_at(&self.file, &mut tail, offset + blob_len - 12)?;
        let rows = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
        let stored_width = u32::from_le_bytes(tail[4..8].try_into().unwrap()) as usize;
        let magic = u32::from_le_bytes(tail[8..12].try_into().unwrap());
        if magic != MAGIC || stored_width != width || start + count > rows {
            return Err(corrupt("spill blob footer corrupt"));
        }
        let mut footer = vec![0u8; footer_len as usize - 12];
        read_at(&self.file, &mut footer, offset + blob_len - footer_len)?;
        let col_off = |c: usize| -> u64 {
            u64::from_le_bytes(footer[8 * c..8 * (c + 1)].try_into().unwrap())
        };
        let col_kind = |c: usize| -> u8 { footer[8 * width + c] };

        out.clear();
        out.resize_with(count, || Vec::with_capacity(width));
        let mut buf: Vec<u8> = Vec::new();
        for c in 0..width {
            if col_off(c) >= blob_len {
                return Err(corrupt("spill blob column offset corrupt"));
            }
            let block = offset + col_off(c);
            match col_kind(c) {
                KIND_FIXED => {
                    buf.resize(FIXED_CELL * count, 0);
                    read_at(
                        &self.file,
                        &mut buf,
                        block + 1 + (FIXED_CELL * start) as u64,
                    )?;
                    let (cells, _) = buf.as_chunks::<FIXED_CELL>();
                    for (r, cell) in cells.iter().enumerate() {
                        out[r].push(decode_fixed(cell)?);
                    }
                }
                KIND_VAR => {
                    // Row offsets for [start, start + count], then exactly
                    // the byte range those offsets span.
                    let mut offs = vec![0u8; 4 * (count + 1)];
                    read_at(&self.file, &mut offs, block + 1 + (4 * start) as u64)?;
                    let off_at = |i: usize| -> usize {
                        u32::from_le_bytes(offs[4 * i..4 * (i + 1)].try_into().unwrap()) as usize
                    };
                    let bytes_base = block + 1 + (4 * (rows + 1)) as u64;
                    // Every pair must be monotone; the range then lies in
                    // [lo, hi], which must lie in the blob.
                    let (lo, hi) = (off_at(0), off_at(count));
                    if (0..count).any(|r| off_at(r) > off_at(r + 1)) || (hi - lo) as u64 > blob_len
                    {
                        return Err(corrupt("spill blob offsets corrupt"));
                    }
                    buf.resize(hi - lo, 0);
                    read_at(&self.file, &mut buf, bytes_base + lo as u64)?;
                    for r in 0..count {
                        let cell = &buf[off_at(r) - lo..off_at(r + 1) - lo];
                        out[r].push(decode_var(cell)?);
                    }
                }
                _ => return Err(corrupt("spill blob column kind corrupt")),
            }
        }
        Ok(())
    }
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some(path) = self.cleanup_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn encode_fixed(v: &Value, cell: &mut [u8; FIXED_CELL]) {
    match v {
        Value::Null => cell[0] = TAG_NULL,
        Value::Int(i) => {
            cell[0] = TAG_INT;
            cell[1..9].copy_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            cell[0] = TAG_FLOAT;
            cell[1..9].copy_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            cell[0] = TAG_BOOL;
            cell[1] = *b as u8;
        }
        Value::Str(_) => unreachable!("var column routed to KIND_VAR"),
    }
}

fn decode_fixed(cell: &[u8; FIXED_CELL]) -> io::Result<Value> {
    let [tag, payload @ ..] = *cell;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(payload))),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(payload)))),
        TAG_BOOL => Ok(Value::Bool(payload[0] != 0)),
        _ => Err(corrupt("spill cell tag corrupt")),
    }
}

/// Bytes of its fixed encoding a non-string var cell keeps.
fn var_len(tag: u8) -> usize {
    match tag {
        TAG_NULL => 1,
        TAG_BOOL => 2,
        _ => FIXED_CELL,
    }
}

fn encode_var(v: &Value, bytes: &mut Vec<u8>) {
    match v {
        Value::Str(s) => {
            bytes.push(TAG_STR);
            bytes.extend_from_slice(s.as_bytes());
        }
        other => {
            let mut cell = [0u8; FIXED_CELL];
            encode_fixed(other, &mut cell);
            bytes.extend_from_slice(&cell[..var_len(cell[0])]);
        }
    }
}

/// Decodes one var cell; a non-string cell must be exactly as long as its
/// tag's encoding.
fn decode_var(cell: &[u8]) -> io::Result<Value> {
    let Some(&tag) = cell.first() else {
        return Err(corrupt("spill var cell empty"));
    };
    if tag == TAG_STR {
        let s = std::str::from_utf8(&cell[1..]).map_err(|_| corrupt("spill string not utf-8"))?;
        // Interned: repeated spilled payloads rehydrate to one shared Arc.
        return Ok(Value::str(s));
    }
    if cell.len() != var_len(tag) {
        return Err(corrupt("spill cell length does not match its tag"));
    }
    let mut fixed = [0u8; FIXED_CELL];
    fixed[..cell.len()].copy_from_slice(cell);
    decode_fixed(&fixed)
}

/// Resident-footprint estimate of one value (the 16 B enum slot, whose
/// string handle is one pointer, plus the string payload's bytes; shared
/// payloads are charged per reference, an upper bound).
pub fn value_bytes(v: &Value) -> u64 {
    let base = std::mem::size_of::<Value>() as u64;
    match v {
        Value::Str(s) => base + s.len() as u64,
        _ => base,
    }
}

/// Resident-footprint estimate of a run's timestamp column.
pub fn ts_bytes(rows: usize) -> u64 {
    (rows * std::mem::size_of::<Timestamp>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rows: usize, width: usize, values: Vec<Value>, start: usize, count: usize) {
        let mut f = SpillFile::create().expect("temp spill file");
        let (off, len) = f.append_run(rows, width, &values).unwrap();
        let mut got = Vec::new();
        f.read_rows(off, len, width, start, count, &mut got)
            .unwrap();
        assert_eq!(got.len(), count);
        for (i, row) in got.iter().enumerate() {
            let r = start + i;
            for c in 0..width {
                assert_eq!(row[c], values[c * rows + r], "row {r} col {c}");
            }
        }
    }

    #[test]
    fn fixed_columns_roundtrip() {
        let rows = 7;
        let mut values = Vec::new();
        // col 0: ints; col 1: mixed null/float/bool (still fixed-width).
        for r in 0..rows {
            values.push(Value::Int(r as i64 * 3 - 5));
        }
        for r in 0..rows {
            values.push(match r % 3 {
                0 => Value::Null,
                1 => Value::Float(r as f64 / 2.0),
                _ => Value::Bool(r % 2 == 0),
            });
        }
        roundtrip(rows, 2, values.clone(), 0, rows);
        roundtrip(rows, 2, values, 3, 2);
    }

    #[test]
    fn var_columns_roundtrip() {
        let rows = 5;
        let mut values = Vec::new();
        for r in 0..rows {
            values.push(if r % 2 == 0 {
                Value::str(format!("payload-{r}"))
            } else {
                Value::Int(r as i64)
            });
        }
        roundtrip(rows, 1, values.clone(), 0, rows);
        roundtrip(rows, 1, values, 2, 2);
    }

    #[test]
    fn multiple_runs_are_independent_and_reset_reclaims() {
        let mut f = SpillFile::create().unwrap();
        let a = vec![Value::Int(1), Value::Int(2)];
        let b = vec![Value::str("x"), Value::str("y"), Value::str("z")];
        let (oa, la) = f.append_run(2, 1, &a).unwrap();
        let (ob, lb) = f.append_run(3, 1, &b).unwrap();
        assert_eq!(
            ob, la,
            "append-only: second blob starts where the first ends"
        );
        let mut got = Vec::new();
        f.read_rows(oa, la, 1, 0, 2, &mut got).unwrap();
        assert_eq!(got[1][0], Value::Int(2));
        f.read_rows(ob, lb, 1, 1, 2, &mut got).unwrap();
        assert_eq!(got[0][0], Value::str("y"));
        f.reset().unwrap();
        assert!(f.is_empty());
        let (oc, _) = f.append_run(2, 1, &a).unwrap();
        assert_eq!(oc, 0, "reset reclaims the file wholesale");
    }

    /// Appends hand-written bytes as one blob, bypassing the encoder.
    fn append_raw(f: &mut SpillFile, blob: &[u8]) -> (u64, u64) {
        let offset = f.len;
        f.file.write_all(blob).unwrap();
        f.len += blob.len() as u64;
        (offset, blob.len() as u64)
    }

    /// One var column (kind byte, row offset table, byte stream) and its
    /// footer, with the given offsets and bytes verbatim.
    fn var_blob(offsets: &[u32], bytes: &[u8], width_in_footer: u32) -> Vec<u8> {
        let mut blob = vec![KIND_VAR];
        for off in offsets {
            blob.extend_from_slice(&off.to_le_bytes());
        }
        blob.extend_from_slice(bytes);
        blob.extend_from_slice(&0u64.to_le_bytes());
        blob.push(KIND_VAR);
        blob.extend_from_slice(&(offsets.len() as u32 - 1).to_le_bytes());
        blob.extend_from_slice(&width_in_footer.to_le_bytes());
        blob.extend_from_slice(&MAGIC.to_le_bytes());
        blob
    }

    #[test]
    fn non_monotone_var_offsets_are_invalid_data() {
        let mut f = SpillFile::create().unwrap();
        let (off, len) = append_raw(&mut f, &var_blob(&[0, 10, 5, 12], &[TAG_NULL; 12], 1));
        let err = f.read_rows(off, len, 1, 0, 3, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The same bytes with monotone offsets are rejected only for the
        // cell lengths (a 10-byte null cell), never by a panic.
        let (off, len) = append_raw(&mut f, &var_blob(&[0, 1, 2, 12], &[TAG_NULL; 12], 1));
        assert!(f.read_rows(off, len, 1, 0, 2, &mut Vec::new()).is_ok());
        assert!(f.read_rows(off, len, 1, 0, 3, &mut Vec::new()).is_err());
    }

    #[test]
    fn short_var_cell_is_invalid_data() {
        let mut f = SpillFile::create().unwrap();
        // A cell tagged INT that holds 2 bytes instead of 9.
        let (off, len) = append_raw(&mut f, &var_blob(&[0, 2], &[TAG_INT, 0], 1));
        let err = f.read_rows(off, len, 1, 0, 1, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn footer_width_must_match_the_run() {
        let mut f = SpillFile::create().unwrap();
        // The footer claims u32::MAX columns: refused before allocating
        // 9 bytes per claimed column.
        let (off, len) = append_raw(&mut f, &var_blob(&[0, 1], &[TAG_NULL], u32::MAX));
        let err = f.read_rows(off, len, 1, 0, 1, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // A blob too short for the run's own footer.
        let (off, len) = append_raw(&mut f, &[0u8; 5]);
        assert!(f.read_rows(off, len, 1, 0, 1, &mut Vec::new()).is_err());
    }
}
