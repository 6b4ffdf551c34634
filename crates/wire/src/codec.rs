//! A small deterministic binary codec.
//!
//! All integers are big-endian; byte strings are `u32`-length-prefixed.
//! The codec is deliberately minimal: the protocol's security rests on the
//! AEAD layer, so the codec only needs to be unambiguous and total on
//! valid inputs, and to fail cleanly on malformed ones.

use std::error::Error;
use std::fmt;

/// Maximum length accepted for a single length-prefixed byte string.
pub const MAX_BYTES_LEN: usize = 1 << 20;

/// Errors from encoding, decoding, framing, or identifier validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before a complete value was decoded.
    UnexpectedEnd,
    /// A length prefix exceeded [`MAX_BYTES_LEN`].
    LengthOverflow,
    /// An enum tag byte was not recognized.
    UnknownTag {
        /// The offending tag value.
        tag: u8,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes,
    /// An actor identifier was empty, too long, or contained control
    /// characters.
    InvalidActorId,
    /// A group identifier was empty, too long, or contained control
    /// characters.
    InvalidGroupId,
    /// A roster's names were not strictly ascending (unsorted or
    /// duplicated).
    RosterOrder,
    /// A frame exceeded the transport's maximum frame size.
    FrameTooLarge,
    /// An I/O error occurred while framing (message preserved as text).
    Io,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::LengthOverflow => write!(f, "length prefix too large"),
            WireError::UnknownTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::InvalidActorId => write!(f, "invalid actor identifier"),
            WireError::InvalidGroupId => write!(f, "invalid group identifier"),
            WireError::RosterOrder => write!(f, "roster names not strictly ascending"),
            WireError::FrameTooLarge => write!(f, "frame exceeds maximum size"),
            WireError::Io => write!(f, "i/o error during framing"),
        }
    }
}

impl Error for WireError {}

/// An append-only encode buffer.
///
/// Backed by a plain `Vec<u8>` so [`finish`](Self::finish) is a move, not
/// a copy, and so a caller on a hot path can recycle one allocation across
/// encodes via [`with_buffer`](Self::with_buffer) / [`encode_into`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer that reuses `buf`'s allocation, clearing any
    /// previous contents.
    #[must_use]
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= MAX_BYTES_LEN);
        self.buf.extend_from_slice(&(v.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(v);
    }

    /// Appends a fixed-size array with no length prefix.
    pub fn put_array(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Finishes encoding, returning the bytes (no copy).
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A consuming decode cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Remaining unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if the input is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        if self.buf.is_empty() {
            return Err(WireError::UnexpectedEnd);
        }
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        Ok(v)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than four bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        if self.buf.len() < 4 {
            return Err(WireError::UnexpectedEnd);
        }
        let v = u32::from_be_bytes(self.buf[..4].try_into().expect("length checked"));
        self.buf = &self.buf[4..];
        Ok(v)
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than eight bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        if self.buf.len() < 8 {
            return Err(WireError::UnexpectedEnd);
        }
        let v = u64::from_be_bytes(self.buf[..8].try_into().expect("length checked"));
        self.buf = &self.buf[8..];
        Ok(v)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] if the prefix exceeds
    /// [`MAX_BYTES_LEN`]; [`WireError::UnexpectedEnd`] if the input is
    /// shorter than the prefix promises.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_u32()? as usize;
        if len > MAX_BYTES_LEN {
            return Err(WireError::LengthOverflow);
        }
        if self.buf.len() < len {
            return Err(WireError::UnexpectedEnd);
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    /// Reads exactly `N` bytes with no length prefix.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.buf.len() < N {
            return Err(WireError::UnexpectedEnd);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[..N]);
        self.buf = &self.buf[N..];
        Ok(out)
    }

    /// The unread input, without consuming it.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// A type with a deterministic binary encoding.
pub trait Encode {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut Writer);
}

/// A type decodable from the binary encoding.
pub trait Decode: Sized {
    /// Reads one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the malformation.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value to a fresh byte vector.
#[must_use]
pub fn encode<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.finish()
}

/// Encodes a value into `buf`, reusing its allocation.
///
/// The buffer is cleared first; on return it holds exactly the encoding.
/// This is the hot-path variant of [`encode`] — a broadcast loop can
/// encode thousands of frames without allocating once warm.
pub fn encode_into<T: Encode>(value: &T, buf: &mut Vec<u8>) {
    let mut w = Writer::with_buffer(std::mem::take(buf));
    value.encode(&mut w);
    *buf = w.finish();
}

/// Decodes a value, requiring the input to be fully consumed.
///
/// # Errors
///
/// Any [`WireError`] from the type's decoder, or
/// [`WireError::TrailingBytes`].
pub fn decode<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take_bytes()?.to_vec())
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_bytes(b"hello");
        w.put_array(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.take_bytes().unwrap(), b"hello");
        assert_eq!(r.take_array::<3>().unwrap(), [1, 2, 3]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn short_input_errors() {
        let mut r = Reader::new(&[]);
        assert_eq!(r.take_u8(), Err(WireError::UnexpectedEnd));
        let mut r = Reader::new(&[0, 0]);
        assert_eq!(r.take_u32(), Err(WireError::UnexpectedEnd));
        let mut r = Reader::new(&[0, 0, 0, 9, 1, 2]);
        assert_eq!(r.take_bytes(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn length_overflow_rejected() {
        let mut w = Writer::new();
        w.put_u32((MAX_BYTES_LEN + 1) as u32);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_bytes(), Err(WireError::LengthOverflow));
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = encode(&42u64);
        let mut with_extra = bytes.clone();
        with_extra.push(0);
        assert_eq!(decode::<u64>(&bytes), Ok(42));
        assert_eq!(decode::<u64>(&with_extra), Err(WireError::TrailingBytes));
    }

    #[test]
    fn vec_roundtrip() {
        let v: Vec<u8> = (0..100).collect();
        assert_eq!(decode::<Vec<u8>>(&encode(&v)).unwrap(), v);
        let empty: Vec<u8> = vec![];
        assert_eq!(decode::<Vec<u8>>(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn encode_into_reuses_allocation() {
        let v: Vec<u8> = (0..200).collect();
        let mut buf = Vec::with_capacity(1024);
        let cap_before = buf.capacity();
        for _ in 0..10 {
            encode_into(&v, &mut buf);
            assert_eq!(buf, encode(&v));
        }
        assert_eq!(buf.capacity(), cap_before, "hot-path encode reallocated");
    }

    #[test]
    fn with_buffer_clears_stale_contents() {
        let mut w = Writer::with_buffer(vec![9, 9, 9]);
        w.put_u8(1);
        assert_eq!(w.finish(), vec![1]);
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            WireError::UnknownTag { tag: 0xAB }.to_string(),
            "unknown tag byte 0xab"
        );
        assert!(!WireError::Io.to_string().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(decode::<Vec<u8>>(&encode(&v)).unwrap(), v);
        }

        #[test]
        fn u64_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(decode::<u64>(&encode(&v)).unwrap(), v);
        }

        // Decoding arbitrary garbage never panics.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode::<Vec<u8>>(&bytes);
            let _ = decode::<u64>(&bytes);
            let _ = decode::<crate::ActorId>(&bytes);
        }
    }
}
