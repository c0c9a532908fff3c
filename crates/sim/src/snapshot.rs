//! Cycle-exact state serialization (`docs/robustness.md`).
//!
//! Every stateful [`crate::ClockedComponent`] implements [`Snapshot`]:
//! a dependency-free flat-binary encoding with a versioned, checksummed
//! header, so an engine can persist its complete microarchitectural
//! state at a committed cycle boundary and later restore it into a
//! bit-identical continuation — same cycles, same metrics, on any host.
//!
//! # Wire format
//!
//! A snapshot is `header || payload`:
//!
//! ```text
//! magic    b"HGSN"            4 bytes
//! version  u32 little-endian  4 bytes   (SNAPSHOT_VERSION)
//! length   u64 little-endian  8 bytes   (payload byte count)
//! checksum u64 little-endian  8 bytes   (FNV-1a over the payload)
//! payload  …                  length bytes
//! ```
//!
//! The payload is a concatenation of little-endian scalars framed by
//! four-byte ASCII tags (`b"FIFO"`, `b"DRAM"`, …). Tags carry no length
//! information — they exist so a corrupted or version-skewed stream
//! fails with a precise [`SnapError`] at the first divergent component
//! instead of silently misinterpreting bytes.
//!
//! # Load-into contract
//!
//! [`Snapshot::load`] restores state *into an existing structure* that
//! was rebuilt from the same configuration and graph. Structural
//! parameters (capacities, channel counts, latencies) are not
//! serialized; loads verify the structure matches (e.g. a FIFO checks
//! its capacity) and reject mismatches. This keeps snapshots small and
//! makes a restore against the wrong configuration a diagnosable error,
//! never a corrupt continuation.

use crate::fifo::Fifo;
use std::collections::VecDeque;
use std::fmt;

/// Current snapshot wire-format version. Bump on any layout change;
/// loads reject other versions with a precise error. Version 2 dropped
/// the sharded executor's chip event wheel from the `MCHP` layout;
/// version 3 dropped the DRAM event wheel from the `DSYS` layout.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Leading magic of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HGSN";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a digest snapshots use for payload checksums, exposed so
/// engine checkpoints can fingerprint their identity context (graph
/// hash, configuration encoding) with the same dependency-free hash.
pub fn content_checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// A failed snapshot load: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Human-readable description of the first divergence.
    pub context: String,
}

impl SnapError {
    /// A new error with the given context.
    pub fn new(context: impl Into<String>) -> Self {
        SnapError {
            context: context.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.context)
    }
}

impl std::error::Error for SnapError {}

/// Serializes component state into the flat payload.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far (payload only, no header).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a four-byte ASCII framing tag.
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (portable across host widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` by bit pattern (exact round trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes any [`SnapValue`].
    pub fn value<T: SnapValue>(&mut self, v: &T) {
        v.save_value(self);
    }

    /// Writes a length-prefixed sequence of [`SnapValue`]s.
    pub fn seq<'a, T: SnapValue + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.u64(items.len() as u64);
        for item in items {
            item.save_value(self);
        }
    }

    /// Seals the payload into a full snapshot (header + payload).
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 24);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Deserializes a snapshot payload, verifying tags and bounds.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Copies the first `N` bytes of `bytes` into a fixed array without any
/// panicking length assertion: every caller passes a slice whose length
/// was already checked (`take(N)` or the 24-byte header bound), and a
/// shorter slice — impossible by construction — would zero-fill rather
/// than abort, keeping the decode path panic-free on any input.
fn array_of<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes) {
        *dst = *src;
    }
    out
}

impl<'a> SnapReader<'a> {
    /// Opens a full snapshot: verifies magic, version, length, and the
    /// payload checksum, then positions the reader at the payload start.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] naming the first header field that fails
    /// verification.
    pub fn open(snapshot: &'a [u8]) -> Result<Self, SnapError> {
        if snapshot.len() < 24 {
            return Err(SnapError::new(format!(
                "truncated header: {} bytes, need 24",
                snapshot.len()
            )));
        }
        if snapshot[..4] != SNAPSHOT_MAGIC {
            return Err(SnapError::new("bad magic (not an HGSN snapshot)"));
        }
        let version = u32::from_le_bytes(array_of(&snapshot[4..8]));
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::new(format!(
                "version {version} unsupported (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let length = u64::from_le_bytes(array_of(&snapshot[8..16])) as usize;
        let checksum = u64::from_le_bytes(array_of(&snapshot[16..24]));
        let payload = &snapshot[24..];
        if payload.len() != length {
            return Err(SnapError::new(format!(
                "payload length {} does not match header {length}",
                payload.len()
            )));
        }
        if fnv1a(payload) != checksum {
            return Err(SnapError::new(
                "payload checksum mismatch (corrupt snapshot)",
            ));
        }
        Ok(SnapReader {
            bytes: payload,
            pos: 0,
        })
    }

    /// Whether every payload byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Requires the payload to be fully consumed (a trailing-bytes check
    /// for top-level loads).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when bytes remain.
    pub fn expect_exhausted(&self) -> Result<(), SnapError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapError::new(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapError::new(format!(
                "payload underrun at byte {} (wanted {n} more)",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes and verifies a four-byte framing tag.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on a tag mismatch (component skew).
    pub fn expect_tag(&mut self, tag: &[u8; 4]) -> Result<(), SnapError> {
        let at = self.pos;
        let got = self.take(4)?;
        if got != tag {
            return Err(SnapError::new(format!(
                "expected tag {:?} at byte {at}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(got)
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on payload underrun.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on payload underrun.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(array_of(self.take(4)?)))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on payload underrun.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(array_of(self.take(8)?)))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on payload underrun.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(array_of(self.take(8)?)))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values beyond the
    /// host's address width.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on underrun or overflow.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on payload underrun.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting bytes other than 0/1.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on underrun or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads any [`SnapValue`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on underrun or malformed encoding.
    pub fn value<T: SnapValue>(&mut self) -> Result<T, SnapError> {
        T::load_value(self)
    }

    /// Reads a length-prefixed sequence written by [`SnapWriter::seq`],
    /// bounded by `max` elements so corrupt lengths fail fast instead of
    /// attempting a huge allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on underrun, malformed elements, or a
    /// length beyond `max`.
    pub fn seq<T: SnapValue>(&mut self, max: usize) -> Result<Vec<T>, SnapError> {
        let len = self.usize()?;
        if len > max {
            return Err(SnapError::new(format!(
                "sequence length {len} exceeds bound {max}"
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load_value(self)?);
        }
        Ok(out)
    }
}

/// A plain-old-data value with an exact binary encoding — the element
/// type of serialized queues, arenas, and in-flight buffers.
pub trait SnapValue: Copy {
    /// Appends this value's encoding to the writer.
    fn save_value(&self, w: &mut SnapWriter);
    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on underrun or malformed bytes.
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl SnapValue for u8 {
    fn save_value(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl SnapValue for u32 {
    fn save_value(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl SnapValue for u64 {
    fn save_value(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl SnapValue for i64 {
    fn save_value(&self, w: &mut SnapWriter) {
        w.i64(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.i64()
    }
}

impl SnapValue for usize {
    fn save_value(&self, w: &mut SnapWriter) {
        w.usize(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.usize()
    }
}

impl SnapValue for f64 {
    fn save_value(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl SnapValue for bool {
    fn save_value(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl<T: SnapValue> SnapValue for Option<T> {
    fn save_value(&self, w: &mut SnapWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save_value(w);
            }
        }
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        if r.bool()? {
            Ok(Some(T::load_value(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: SnapValue, B: SnapValue> SnapValue for (A, B) {
    fn save_value(&self, w: &mut SnapWriter) {
        self.0.save_value(w);
        self.1.save_value(w);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load_value(r)?, B::load_value(r)?))
    }
}

impl<A: SnapValue, B: SnapValue, C: SnapValue> SnapValue for (A, B, C) {
    fn save_value(&self, w: &mut SnapWriter) {
        self.0.save_value(w);
        self.1.save_value(w);
        self.2.save_value(w);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load_value(r)?, B::load_value(r)?, C::load_value(r)?))
    }
}

/// Component state with a cycle-exact binary encoding. `load` restores
/// into an existing, structurally matching instance (see the module
/// docs for the contract).
pub trait Snapshot {
    /// Appends this component's state to the payload.
    fn save(&self, w: &mut SnapWriter);

    /// Restores state from the payload into `self`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on structural mismatch, underrun, or a
    /// malformed encoding.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// The bounded FIFO serializes its occupancy through the public API, so
/// the queue's audited `unsafe` interior stays untouched by snapshot
/// code (`higraph-lint` forbids `unsafe` in snapshot paths).
impl<T: SnapValue> Snapshot for Fifo<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"FIFO");
        w.usize(self.capacity());
        w.seq(ExactLen(self.iter(), self.len()));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"FIFO")?;
        let capacity = r.usize()?;
        if capacity != self.capacity() {
            return Err(SnapError::new(format!(
                "FIFO capacity mismatch: snapshot {capacity}, live {}",
                self.capacity()
            )));
        }
        let items: Vec<T> = r.seq(capacity)?;
        self.clear();
        for item in items {
            if self.push(item).is_err() {
                return Err(SnapError::new("FIFO overflow during restore"));
            }
        }
        Ok(())
    }
}

impl<T: SnapValue> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"DEQE");
        w.seq(ExactLen(self.iter(), self.len()));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"DEQE")?;
        let items: Vec<T> = r.seq(usize::MAX)?;
        self.clear();
        self.extend(items);
        Ok(())
    }
}

/// A `Vec` restores in place: lengths must match the live structure
/// (they are sized by configuration and graph shape, not by traffic).
impl<T: SnapValue> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"VECT");
        w.seq(ExactLen(self.iter(), self.len()));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"VECT")?;
        let items: Vec<T> = r.seq(usize::MAX)?;
        if items.len() != self.len() {
            return Err(SnapError::new(format!(
                "Vec length mismatch: snapshot {}, live {}",
                items.len(),
                self.len()
            )));
        }
        *self = items;
        Ok(())
    }
}

impl<C: Snapshot> Snapshot for [C] {
    fn save(&self, w: &mut SnapWriter) {
        for c in self {
            c.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for c in self {
            c.load(r)?;
        }
        Ok(())
    }
}

/// Adapter giving any iterator an exact length for [`SnapWriter::seq`].
struct ExactLen<I>(I, usize);

impl<I: Iterator> Iterator for ExactLen<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.0.next();
        if item.is_some() {
            self.1 -= 1;
        }
        item
    }
}

impl<I: Iterator> ExactSizeIterator for ExactLen<I> {
    fn len(&self) -> usize {
        self.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip_and_corruption_detection() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u64(42);
        w.f64(1.5);
        w.bool(true);
        let bytes = w.finish();

        let mut r = SnapReader::open(&bytes).expect("opens");
        r.expect_tag(b"TEST").expect("tag");
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert!(r.bool().unwrap());
        r.expect_exhausted().expect("fully consumed");

        // flip a payload byte: checksum must catch it
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        assert!(SnapReader::open(&corrupt)
            .unwrap_err()
            .context
            .contains("checksum"));

        // wrong magic
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SnapReader::open(&bad)
            .unwrap_err()
            .context
            .contains("magic"));

        // a previous and a future version
        for version in [1u32, 99] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(SnapReader::open(&skewed)
                .unwrap_err()
                .context
                .contains(&format!("version {version} unsupported")));
        }

        // truncation
        assert!(SnapReader::open(&bytes[..10]).is_err());
        assert!(SnapReader::open(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn fifo_round_trips_contents_and_rejects_capacity_mismatch() {
        let mut fifo: Fifo<u64> = Fifo::new(8);
        fifo.push(3).unwrap();
        fifo.push(9).unwrap();
        fifo.pop();
        fifo.push(27).unwrap(); // wrapped occupancy: [9, 27]
        let mut w = SnapWriter::new();
        fifo.save(&mut w);
        let bytes = w.finish();

        let mut restored: Fifo<u64> = Fifo::new(8);
        restored.push(999).unwrap(); // stale state must be cleared
        let mut r = SnapReader::open(&bytes).unwrap();
        restored.load(&mut r).expect("loads");
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.pop(), Some(9));
        assert_eq!(restored.pop(), Some(27));

        let mut wrong: Fifo<u64> = Fifo::new(4);
        let mut r = SnapReader::open(&bytes).unwrap();
        assert!(wrong.load(&mut r).unwrap_err().context.contains("capacity"));
    }

    #[test]
    fn vecdeque_and_vec_round_trip() {
        let mut dq: VecDeque<(u64, u32)> = VecDeque::new();
        dq.push_back((7, 1));
        dq.push_back((8, 2));
        let v: Vec<u64> = vec![10, 20, 30];
        let mut w = SnapWriter::new();
        dq.save(&mut w);
        v.save(&mut w);
        let bytes = w.finish();

        let mut dq2: VecDeque<(u64, u32)> = VecDeque::from(vec![(0, 0)]);
        let mut v2: Vec<u64> = vec![0; 3];
        let mut r = SnapReader::open(&bytes).unwrap();
        dq2.load(&mut r).unwrap();
        v2.load(&mut r).unwrap();
        assert_eq!(dq2, dq);
        assert_eq!(v2, v);

        // a Vec with a different live length is a structural mismatch
        let mut wrong: Vec<u64> = vec![0; 2];
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert!(wrong.load(&mut r).unwrap_err().context.contains("length"));
    }

    #[test]
    fn option_and_tuple_values_round_trip() {
        let mut w = SnapWriter::new();
        w.value(&Some((1u64, 2u64, 3u64)));
        w.value::<Option<u64>>(&None);
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(
            r.value::<Option<(u64, u64, u64)>>().unwrap(),
            Some((1, 2, 3))
        );
        assert_eq!(r.value::<Option<u64>>().unwrap(), None);
    }

    #[test]
    fn tag_mismatch_names_both_tags() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        let bytes = w.finish();
        let mut r = SnapReader::open(&bytes).unwrap();
        let err = r.expect_tag(b"BBBB").unwrap_err();
        assert!(err.context.contains("AAAA") && err.context.contains("BBBB"));
    }
}
