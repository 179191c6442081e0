#![warn(missing_docs)]

//! Versioned binary snapshots of fitted PhishingHook artifacts.
//!
//! Training a detector is expensive (fitting 100 random-forest trees on a
//! multi-thousand-contract corpus); scoring one is cheap. This crate is the
//! boundary between the two: fitted artifacts — forests, histogram
//! vocabularies, n-gram tables, NN weights — implement [`Snapshot`] /
//! [`Restore`] and travel as self-describing byte envelopes, so a detector
//! is trained once, saved, and served forever.
//!
//! The format is deliberately dependency-free (the build environment has no
//! registry access, so `serde`/`bincode` are not options) and fully
//! deterministic: saving the same fitted artifact twice yields byte-identical
//! snapshots.
//!
//! # Envelope layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PHISHSNP"
//! 8       2     format version (u16 LE) — currently 1
//! 10      2     kind length K (u16 LE)
//! 12      K     kind tag (UTF-8), e.g. "hsc-detector"
//! 12+K    8     payload length P (u64 LE)
//! 20+K    P     payload (artifact-defined, written via `Writer`)
//! 20+K+P  4     CRC-32 (IEEE) of every preceding byte (u32 LE)
//! ```
//!
//! Every multi-byte integer is little-endian; floats are stored as their IEEE
//! 754 bit patterns, so restored models reproduce *bit-identical*
//! predictions. Malformed inputs never panic: truncation, corruption,
//! version skew and kind mismatches all surface as typed [`PersistError`]s.
//!
//! The trailer is a table-driven (slice-by-8) [`crc32`], so sealing and
//! verifying cost about a millisecond per megabyte. It detects
//! accidental corruption, not tampering: anyone can re-seal edited bytes,
//! so [`Restore`] implementations must validate what they read as well.
//!
//! # Version / compatibility policy
//!
//! * The envelope version is bumped only when the *envelope* layout changes.
//!   Artifact payloads version themselves through their kind tag (e.g. a
//!   breaking `HscDetector` payload change renames the kind).
//! * Readers reject versions they do not know ([`PersistError::UnsupportedVersion`])
//!   rather than guessing; there is no silent fallback.
//! * Snapshots are architecture-independent: explicit little-endian
//!   encoding, no `usize` in the wire format (widths are fixed `u16`/`u32`/
//!   `u64`).
//!
//! # Example
//!
//! ```
//! use phishinghook_persist::{from_envelope, to_envelope, PersistError, Reader, Restore,
//!                            Snapshot, Writer};
//!
//! struct Fitted { weights: Vec<f64> }
//!
//! impl Snapshot for Fitted {
//!     fn snapshot(&self, w: &mut Writer) { self.weights.snapshot(w); }
//! }
//! impl Restore for Fitted {
//!     fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
//!         Ok(Fitted { weights: Vec::restore(r)? })
//!     }
//! }
//!
//! let bytes = to_envelope("fitted", &Fitted { weights: vec![1.0, -0.5] });
//! let back: Fitted = from_envelope("fitted", &bytes).unwrap();
//! assert_eq!(back.weights, vec![1.0, -0.5]);
//! assert!(matches!(from_envelope::<Fitted>("other", &bytes),
//!                  Err(PersistError::WrongKind { .. })));
//! ```

use std::fmt;
use std::path::Path;

/// The 8-byte envelope magic.
pub const MAGIC: [u8; 8] = *b"PHISHSNP";

/// The envelope format version this build writes and accepts.
pub const FORMAT_VERSION: u16 = 1;

/// Typed failure modes of snapshot decoding.
///
/// Every variant corresponds to a distinct way a snapshot can be unusable;
/// callers can match on them to distinguish "file corrupt" from "produced by
/// a newer build" from "wrong artifact".
#[derive(Debug)]
pub enum PersistError {
    /// The leading bytes are not [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The envelope was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u16,
        /// Version this build supports ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// The envelope carries a different artifact kind than requested.
    WrongKind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind stored in the envelope.
        found: String,
    },
    /// The input ends before the declared structure does.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The CRC-32 trailer does not match the recomputed checksum.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// Well-formed envelope, but bytes remain after the payload decoded.
    TrailingBytes {
        /// Number of unconsumed payload bytes.
        count: usize,
    },
    /// The payload decoded structurally but carries an impossible value
    /// (unknown enum tag, out-of-range index, non-UTF-8 string, …).
    Malformed(String),
    /// Filesystem error while reading or writing a snapshot file.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a PhishingHook snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            PersistError::WrongKind { expected, found } => {
                write!(f, "snapshot holds a `{found}` artifact, expected `{expected}`")
            }
            PersistError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more byte(s), {available} available"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot corrupted: stored checksum {stored:#010x} != computed {computed:#010x}"
            ),
            PersistError::TrailingBytes { count } => {
                write!(f, "snapshot has {count} trailing byte(s) after the payload")
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
            PersistError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serializes a fitted artifact into a [`Writer`].
///
/// Implementations must be deterministic (iterate hash maps in sorted order)
/// and must round-trip bit-identically through [`Restore`].
pub trait Snapshot {
    /// Appends this value's wire encoding to `w`.
    fn snapshot(&self, w: &mut Writer);
}

/// Reconstructs an artifact from a [`Reader`].
pub trait Restore: Sized {
    /// Decodes one value, consuming exactly the bytes [`Snapshot::snapshot`]
    /// wrote.
    ///
    /// # Errors
    /// Returns a [`PersistError`] on truncated or malformed input; never
    /// panics on untrusted bytes.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Append-only little-endian byte sink for [`Snapshot`] implementations.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the wire format has no `usize`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its IEEE 754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE 754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over a snapshot payload for [`Restore`] implementations.
///
/// All `take_*` methods fail with [`PersistError::Truncated`] instead of
/// panicking when the buffer runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] when fewer than `n` bytes remain.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take_raw(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take_raw(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take_raw(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    /// [`PersistError::Malformed`] when the value does not fit in `usize`.
    pub fn take_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Malformed(format!("length {v} overflows usize")))
    }

    /// Reads a `u64` length prefix, validating it against the bytes left.
    ///
    /// `bytes_per_item` lets collection decoders reject absurd lengths
    /// *before* allocating: a corrupted prefix claiming 2⁶⁰ elements fails
    /// here as [`PersistError::Truncated`] rather than aborting on OOM.
    pub fn take_len(&mut self, bytes_per_item: usize) -> Result<usize, PersistError> {
        let len = self.take_usize()?;
        let needed = len.saturating_mul(bytes_per_item.max(1));
        if needed > self.remaining() {
            return Err(PersistError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads an `f32` from its bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Malformed(format!(
                "invalid bool byte {b:#04x}"
            ))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.take_len(1)?;
        self.take_raw(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|e| PersistError::Malformed(format!("invalid UTF-8 string: {e}")))
    }
}

// --- Snapshot/Restore for primitives and std containers -------------------

macro_rules! primitive_persist {
    ($($ty:ty => $put:ident, $take:ident;)*) => {$(
        impl Snapshot for $ty {
            fn snapshot(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Restore for $ty {
            fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                r.$take()
            }
        }
    )*};
}

primitive_persist! {
    u8 => put_u8, take_u8;
    u16 => put_u16, take_u16;
    u32 => put_u32, take_u32;
    u64 => put_u64, take_u64;
    usize => put_usize, take_usize;
    f32 => put_f32, take_f32;
    f64 => put_f64, take_f64;
    bool => put_bool, take_bool;
}

impl Snapshot for String {
    fn snapshot(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Restore for String {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.take_str()?.to_owned())
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snapshot(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for item in self {
            item.snapshot(w);
        }
    }
}

impl<T: Restore> Restore for Vec<T> {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // Every element costs ≥ 1 byte, so the length check bounds the
        // allocation by the remaining payload size.
        let len = r.take_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snapshot(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snapshot(w);
            }
        }
    }
}

impl<T: Restore> Restore for Option<T> {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            b => Err(PersistError::Malformed(format!(
                "invalid Option tag {b:#04x}"
            ))),
        }
    }
}

// --- Envelope --------------------------------------------------------------

/// Slice-by-8 tables for the reflected IEEE polynomial, built at compile
/// time: `CRC_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through, and `CRC_TABLES[k][b]` the same followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`: the checksum
/// every envelope trailer carries.
///
/// Slice-by-8: each 8-byte word costs eight lookups in [`CRC_TABLES`]
/// instead of 64 shift-and-mask steps, and the last `len % 8` bytes go
/// through the one-byte table. About 1 ms per MB on a 2-CPU Xeon, where
/// the bitwise loop took about 8 ms; sealing and verifying a snapshot are
/// the same pass.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Wraps an artifact into a self-describing envelope (see the crate docs for
/// the byte layout). `kind` tags the artifact type, e.g. `"hsc-detector"`.
pub fn to_envelope(kind: &str, artifact: &impl Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    artifact.snapshot(&mut w);
    let payload = w.into_bytes();

    let mut out = Vec::with_capacity(MAGIC.len() + 16 + kind.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let kind_len = u16::try_from(kind.len()).expect("kind tag fits u16");
    out.extend_from_slice(&kind_len.to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates an envelope's framing (magic, version, lengths) and returns
/// the artifact kind it declares, without decoding the payload and
/// **without verifying the checksum** — peeking stays O(header) so kind
/// dispatch does not double the cost of the full decode that follows
/// (which does verify the CRC).
///
/// This is the dispatch point for callers that accept more than one artifact
/// kind behind a single front door (e.g. a scanner that serves both
/// single-detector and ensemble snapshots): peek the kind, then decode with
/// the matching [`Restore`] type.
///
/// # Errors
/// Any framing-level [`PersistError`] ([`PersistError::BadMagic`],
/// [`PersistError::UnsupportedVersion`], [`PersistError::Truncated`],
/// [`PersistError::TrailingBytes`]).
pub fn envelope_kind(bytes: &[u8]) -> Result<&str, PersistError> {
    parse_envelope(bytes, false).map(|(kind, _)| kind)
}

/// Validates an envelope (magic, version, checksum, kind) and returns its
/// payload slice without decoding it.
///
/// # Errors
/// Any [`PersistError`] variant except `TrailingBytes`/`Malformed`, which
/// belong to payload decoding.
pub fn open_envelope<'a>(kind: &str, bytes: &'a [u8]) -> Result<&'a [u8], PersistError> {
    let (found_kind, payload) = parse_envelope(bytes, true)?;
    if found_kind != kind {
        return Err(PersistError::WrongKind {
            expected: kind.to_owned(),
            found: found_kind.to_owned(),
        });
    }
    Ok(payload)
}

/// Shared envelope walk: checks magic, version and framing (plus the CRC
/// trailer when `check_crc`), then returns `(kind, payload)` borrowed from
/// `bytes`.
fn parse_envelope(bytes: &[u8], check_crc: bool) -> Result<(&str, &[u8]), PersistError> {
    let mut r = Reader::new(bytes);
    if r.take_raw(MAGIC.len())? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.take_u16()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind_len = usize::from(r.take_u16()?);
    let found_kind = std::str::from_utf8(r.take_raw(kind_len)?)
        .map_err(|e| PersistError::Malformed(format!("invalid kind tag: {e}")))?;
    let payload_len = r.take_usize()?;
    // The payload plus the 4-byte CRC trailer must close the buffer exactly.
    // Saturating add: a crafted length near usize::MAX must report
    // truncation, not overflow.
    if r.remaining() < payload_len.saturating_add(4) {
        return Err(PersistError::Truncated {
            needed: payload_len.saturating_add(4),
            available: r.remaining(),
        });
    }
    let payload = r.take_raw(payload_len)?;
    let stored_crc = r.take_u32()?;
    if r.remaining() != 0 {
        return Err(PersistError::TrailingBytes {
            count: r.remaining(),
        });
    }
    if check_crc {
        let computed = crc32(&bytes[..bytes.len() - 4]);
        if stored_crc != computed {
            return Err(PersistError::ChecksumMismatch {
                stored: stored_crc,
                computed,
            });
        }
    }
    Ok((found_kind, payload))
}

/// Decodes a `T` from an envelope, enforcing that the payload is consumed
/// exactly.
///
/// # Errors
/// Every [`PersistError`] variant is reachable: envelope problems from
/// [`open_envelope`], then `Malformed`/`Truncated`/`TrailingBytes` from the
/// payload decode.
pub fn from_envelope<T: Restore>(kind: &str, bytes: &[u8]) -> Result<T, PersistError> {
    let payload = open_envelope(kind, bytes)?;
    let mut r = Reader::new(payload);
    let value = T::restore(&mut r)?;
    if r.remaining() != 0 {
        return Err(PersistError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(value)
}

/// The temp-file sibling `write_bytes_atomic` stages into before the
/// rename: `<name>.<pid>.tmp` next to the destination, so the rename
/// never crosses a filesystem boundary and concurrent processes writing
/// the same path cannot clobber each other's staging file.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_else(|| "snapshot".into());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Writes `bytes` to `path` crash-safely: stage into a temp sibling,
/// `fsync`, then atomically rename over the destination.
///
/// A crash at any instant leaves either the old complete file or the new
/// complete file — never a torn mix of the two. A leftover `*.tmp`
/// sibling from an interrupted write is inert: loads read only the
/// destination path. After the rename the parent directory is fsynced
/// (best-effort) so the new directory entry is durable too.
///
/// # Errors
/// Any I/O error from the staging write, sync, or rename; on a failed
/// rename the staging file is removed before the error is returned.
pub fn write_bytes_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Directory fsync is platform-dependent; failing to open or sync
        // the directory must not fail an already-complete write.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Saves an artifact envelope to a file via [`write_bytes_atomic`]: a
/// crash mid-save cannot leave a torn snapshot behind.
///
/// # Errors
/// [`PersistError::Io`] on filesystem failure.
pub fn save_file(
    path: impl AsRef<Path>,
    kind: &str,
    artifact: &impl Snapshot,
) -> Result<(), PersistError> {
    write_bytes_atomic(path, &to_envelope(kind, artifact))?;
    Ok(())
}

/// Loads an artifact of the given kind from a snapshot file.
///
/// # Errors
/// [`PersistError::Io`] on filesystem failure, otherwise any decode error
/// from [`from_envelope`].
pub fn load_file<T: Restore>(path: impl AsRef<Path>, kind: &str) -> Result<T, PersistError> {
    let bytes = std::fs::read(path)?;
    from_envelope(kind, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        weights: Vec<f64>,
        bias: f64,
        name: String,
        threads: Option<u64>,
    }

    impl Snapshot for Toy {
        fn snapshot(&self, w: &mut Writer) {
            self.weights.snapshot(w);
            self.bias.snapshot(w);
            self.name.snapshot(w);
            self.threads.snapshot(w);
        }
    }

    impl Restore for Toy {
        fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
            Ok(Toy {
                weights: Vec::restore(r)?,
                bias: f64::restore(r)?,
                name: String::restore(r)?,
                threads: Option::restore(r)?,
            })
        }
    }

    fn toy() -> Toy {
        Toy {
            weights: vec![0.25, -1.5, f64::MIN_POSITIVE, 1e308],
            bias: -0.125,
            name: "toy".to_owned(),
            threads: Some(4),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let bytes = to_envelope("toy", &toy());
        let back: Toy = from_envelope("toy", &bytes).expect("round-trips");
        assert_eq!(back, toy());
    }

    #[test]
    fn snapshots_are_deterministic() {
        assert_eq!(to_envelope("toy", &toy()), to_envelope("toy", &toy()));
    }

    #[test]
    fn nan_and_signed_zero_round_trip_bitwise() {
        let t = Toy {
            weights: vec![f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY],
            ..toy()
        };
        let back: Toy = from_envelope("toy", &to_envelope("toy", &t)).expect("round-trips");
        for (a, b) in back.weights.iter().zip(&t.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_envelope("toy", &toy());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            from_envelope::<Toy>("toy", &bytes),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = to_envelope("toy", &toy());
        bytes[8] = 99; // version u16 LE lives at offset 8
        bytes[9] = 0;
        let err = from_envelope::<Toy>("toy", &bytes).unwrap_err();
        match err {
            PersistError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_is_rejected_by_checksum() {
        let bytes = to_envelope("toy", &toy());
        // Flip one payload byte (after the header, before the CRC trailer).
        for i in (MAGIC.len() + 4)..bytes.len() - 4 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let err = from_envelope::<Toy>("toy", &corrupt).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::ChecksumMismatch { .. }
                        | PersistError::Truncated { .. }
                        | PersistError::Malformed(_)
                ),
                "byte {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = to_envelope("toy", &toy());
        for cut in 0..bytes.len() {
            let err = from_envelope::<Toy>("toy", &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated { .. } | PersistError::BadMagic),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_envelope("toy", &toy());
        bytes.push(0xAB);
        assert!(matches!(
            from_envelope::<Toy>("toy", &bytes),
            Err(PersistError::TrailingBytes { .. }) | Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = to_envelope("toy", &toy());
        match from_envelope::<Toy>("forest", &bytes).unwrap_err() {
            PersistError::WrongKind { expected, found } => {
                assert_eq!(expected, "forest");
                assert_eq!(found, "toy");
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        // A payload whose Vec length prefix claims u64::MAX elements must
        // fail with Truncated, not attempt the allocation. Build it by hand
        // with a valid envelope around a bogus payload.
        struct Huge;
        impl Snapshot for Huge {
            fn snapshot(&self, w: &mut Writer) {
                w.put_u64(u64::MAX);
            }
        }
        let bytes = to_envelope("toy", &Huge);
        assert!(matches!(
            from_envelope::<Toy>("toy", &bytes),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn huge_declared_payload_length_is_rejected_not_overflowed() {
        // A hand-crafted header declaring a payload of u64::MAX bytes must
        // fail as Truncated — not overflow `payload_len + 4` (a debug-build
        // panic before the saturating check).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&3u16.to_le_bytes());
        bytes.extend_from_slice(b"toy");
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_envelope::<Toy>("toy", &bytes),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("phishinghook-persist-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("toy.snap");
        save_file(&path, "toy", &toy()).expect("saves");
        let back: Toy = load_file(&path, "toy").expect("loads");
        assert_eq!(back, toy());
        assert!(matches!(
            load_file::<Toy>(dir.join("missing.snap"), "toy"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn atomic_save_leaves_no_staging_file_behind() {
        let dir = std::env::temp_dir().join("phishinghook-persist-atomic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("toy.snap");
        save_file(&path, "toy", &toy()).expect("saves");
        save_file(&path, "toy", &toy()).expect("overwrites in place");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("readable")
            .map(|e| e.expect("entry").file_name())
            .collect();
        // The staging temp was renamed away — only the snapshot remains.
        assert_eq!(entries, vec![std::ffi::OsString::from("toy.snap")]);
        let back: Toy = load_file(&path, "toy").expect("loads");
        assert_eq!(back, toy());
    }

    #[test]
    fn torn_staging_write_does_not_corrupt_the_snapshot() {
        // Simulate a crash mid-save: a partial staging file sits next to a
        // complete snapshot. Loading must see only the complete file, and
        // the next save must replace the snapshot atomically regardless.
        let dir = std::env::temp_dir().join("phishinghook-persist-torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("toy.snap");
        save_file(&path, "toy", &toy()).expect("saves");

        let torn = to_envelope("toy", &toy());
        let stale_tmp = dir.join(format!("toy.snap.{}.tmp", std::process::id()));
        std::fs::write(&stale_tmp, &torn[..torn.len() / 2]).expect("torn write");

        let back: Toy = load_file(&path, "toy").expect("recovers");
        assert_eq!(back, toy());
        // And the stale staging file is simply overwritten by the next
        // save's staging pass, then renamed away.
        save_file(&path, "toy", &toy()).expect("saves again");
        assert!(!stale_tmp.exists());
        // A torn *snapshot* itself (the pre-atomic failure mode) is the
        // thing the rename prevents; decoding one is a typed error, not UB.
        std::fs::write(&path, &torn[..torn.len() / 2]).expect("simulate old format");
        assert!(load_file::<Toy>(&path, "toy").is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The definition the tables must reproduce: one bit at a time.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn sealed_envelope_bytes_are_pinned() {
        // Every byte of a small sealed artifact, trailer included. A change
        // to the header, the payload encoding or the checksum fails here
        // instead of silently orphaning every saved snapshot.
        const GOLDEN: &str = "\
            5048495348534e5001000300746f794400000000000000040000000000000000\
            0000000000d03f000000000000f8bf0000000000001000a0c8eb85f3cce17f00\
            0000000000c0bf0300000000000000746f79010400000000000000752ff6a8";
        let hex: String = to_envelope("toy", &toy())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN);
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bitwise_definition(
            bytes in proptest::collection::vec(any::<u8>(), 0..4097),
            start in 0usize..8,
        ) {
            // Offsets 0-7 move the 8-byte words across every alignment and
            // leave every tail length from 0 to 7.
            let slice = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), bitwise_crc32(slice));
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding untrusted input must always return a typed error (or,
            // vanishingly unlikely, succeed) — never panic.
            let _ = from_envelope::<Toy>("toy", &bytes);
        }

        #[test]
        fn f64_vectors_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
            let t = Toy {
                weights: values.iter().map(|&b| f64::from_bits(b)).collect(),
                ..toy()
            };
            let back: Toy = from_envelope("toy", &to_envelope("toy", &t)).expect("round-trips");
            let a: Vec<u64> = back.weights.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = t.weights.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }
}
