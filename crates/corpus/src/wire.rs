//! The byte-level wire layer: a little-endian, length-prefixed binary
//! encoding with a **panic-free** decoder.
//!
//! Every decode operation is bounds-checked and returns
//! [`WireError`] on any anomaly — short input, bad enum tag, invalid
//! UTF-8, an implausible collection length. The corpus loader turns
//! any such error into a cold section, never a crash, which is the
//! file format's one hard rule (a corrupt corpus must only cost time,
//! not correctness).

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Why a decode failed. The variants exist for diagnostics only; every
/// one of them means "treat this section as cold".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// An enum tag, index or flag byte had no meaning.
    BadTag(&'static str),
    /// A collection length larger than the remaining input could
    /// possibly encode (corruption guard: prevents pre-allocating
    /// gigabytes off a flipped length byte).
    BadLength,
    /// A string payload was not UTF-8.
    BadUtf8,
    /// A trailing-byte check failed: the payload decoded but did not
    /// consume the section exactly.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadTag(what) => write!(f, "invalid tag for {what}"),
            WireError::BadLength => write!(f, "implausible collection length"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::TrailingBytes => write!(f, "payload has trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE bit pattern (bit-exact round trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked cursor over encoded bytes.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the input was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; anything but 0/1 is an error.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadTag("bool")),
        }
    }

    /// Reads a usize written by [`Encoder::usize`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadLength)
    }

    /// Reads a collection length and sanity-checks it against the
    /// remaining input (each element costs ≥ 1 byte in this format).
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(WireError::BadLength);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        self.str().map(str::to_owned)
    }

    /// Reads a string and interns it to `&'static str` (see
    /// [`intern`]); only a string not seen before allocates.
    pub fn static_str(&mut self) -> Result<&'static str, WireError> {
        Ok(intern(self.str()?))
    }
}

/// Interns a string, leaking at most one copy per distinct content.
///
/// Several serialized types carry `&'static str` fields (curation
/// reasons, compile-error messages) that in a live process point at
/// string literals. A deserialized corpus has no literal to point at,
/// so the decoder leaks one copy per distinct string into a global
/// pool. The pool is tiny in practice — the universe of such strings
/// is the finite set of literals in the codebase — and bounded per
/// process regardless of how many corpus files are loaded.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut g = pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&found) = g.get(s) {
        return found;
    }
    let leaked: &'static str = Box::leak(s.into());
    g.insert(leaked);
    leaked
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice (the `srcid` source fingerprints and the
/// corpus fingerprints are built from it).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mixes a u64 into a running FNV-1a hash (for fingerprint
/// composition).
pub fn fnv_mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One FNV-1a step over a whole word.
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The integrity checksum of a corpus section payload (format v3):
/// FNV-1a steps over the payload's little-endian 8-byte words, then
/// over its tail bytes, then over its length.
///
/// Every step `h ← (h ^ x) · prime` is a bijection of the running
/// state for a fixed input `x` (the prime is odd), so two payloads of
/// equal length that differ within one word (or one tail byte) always
/// leave different states behind that step, and the later steps keep
/// them different: a change confined to one word is always detected.
/// One multiply per eight bytes makes it about eight times cheaper
/// than byte-wise [`fnv1a`].
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] over a payload fed in pieces of any size: the result
/// depends only on the concatenated bytes.
#[derive(Clone)]
pub struct Checksum {
    h: u64,
    /// Bytes of a word not yet complete.
    pending: [u8; 8],
    npending: usize,
    len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum { h: FNV_OFFSET, pending: [0; 8], npending: 0, len: 0 }
    }
}

impl Checksum {
    /// Feeds the next piece of the payload.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        if self.npending > 0 {
            let take = (8 - self.npending).min(bytes.len());
            self.pending[self.npending..self.npending + take].copy_from_slice(&bytes[..take]);
            self.npending += take;
            bytes = &bytes[take..];
            if self.npending < 8 {
                return;
            }
            self.h = fnv_step(self.h, u64::from_le_bytes(self.pending));
            self.npending = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.h = fnv_step(self.h, u64::from_le_bytes(w.try_into().expect("len 8")));
        }
        let tail = words.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.npending = tail.len();
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u64 {
        let tail = self.pending[..self.npending].iter();
        let h = tail.fold(self.h, |h, &b| fnv_step(h, b as u64));
        fnv_step(h, self.len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i32(-5);
        e.i64(i64::MIN);
        e.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        e.bool(true);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i32().unwrap(), -5);
        assert_eq!(d.i64().unwrap(), i64::MIN);
        assert_eq!(d.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(d.bool().unwrap());
        assert_eq!(d.string().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.u64(42);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert_eq!(d.u64(), Err(WireError::Truncated));
        }
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut e = Encoder::new();
        e.usize(usize::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.seq_len(), Err(WireError::BadLength));
    }

    #[test]
    fn interning_deduplicates() {
        let a = intern("igjit-corpus-test-string");
        let b = intern(&String::from("igjit-corpus-test-string"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let payload: Vec<u8> = (0u8..37).map(|i| i.wrapping_mul(29)).collect();
        let pristine = checksum(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), pristine, "flip of byte {byte} bit {bit}");
            }
        }
        // The length is mixed in: zero tails of different lengths differ.
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 9]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn checksum_is_independent_of_how_the_payload_is_split() {
        let payload: Vec<u8> = (0u8..=250).map(|i| i.wrapping_mul(151)).collect();
        let whole = checksum(&payload);
        for piece in 1..20 {
            let mut sum = Checksum::default();
            for chunk in payload.chunks(piece) {
                sum.update(chunk);
            }
            assert_eq!(sum.finish(), whole, "pieces of {piece}");
        }
        let mut sum = Checksum::default();
        sum.update(&payload[..3]);
        sum.update(&[]);
        sum.update(&payload[3..]);
        assert_eq!(sum.finish(), whole);
    }

    #[test]
    fn bad_bool_and_utf8_are_errors() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.bool(), Err(WireError::BadTag("bool")));
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).string(), Err(WireError::BadUtf8));
    }
}
