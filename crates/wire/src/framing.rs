//! Length-prefixed framing over byte streams.
//!
//! Frames are `u32` big-endian length followed by that many payload bytes.
//! Used by the TCP transport in `enclaves-net`; the simulated transport
//! passes frames directly.

use crate::codec::WireError;
use std::io::{Read, Write};

/// Maximum frame payload size (1 MiB): larger frames are rejected on both
/// ends before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The most [`read_frame`] reserves on the strength of a length prefix
/// alone; beyond it the buffer grows with the bytes that arrive.
const FIRST_RESERVATION: usize = 64 * 1024;

/// Writes one frame to `w`. A `&mut W` also works since `Write` is
/// implemented for mutable references.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if `payload` exceeds [`MAX_FRAME_LEN`];
/// [`WireError::Io`] on transport failure.
pub fn write_frame<W: Write>(mut w: W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge);
    }
    let len = (payload.len() as u32).to_be_bytes();
    w.write_all(&len).map_err(|_| WireError::Io)?;
    w.write_all(payload).map_err(|_| WireError::Io)?;
    w.flush().map_err(|_| WireError::Io)?;
    Ok(())
}

/// Reads one frame from `r`. A `&mut R` also works since `Read` is
/// implemented for mutable references.
///
/// The length prefix is a claim by a peer that may have proved nothing,
/// so it sizes no allocation beyond 64 KiB: a sender that claims 1 MiB
/// and then stalls pins what it sent, not what it claimed.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the header promises more than
/// [`MAX_FRAME_LEN`] bytes; [`WireError::Io`] on transport failure
/// (including a cleanly closed stream).
pub fn read_frame<R: Read>(mut r: R) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(|_| WireError::Io)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge);
    }
    let mut payload = Vec::with_capacity(len.min(FIRST_RESERVATION));
    let got = r
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|_| WireError::Io)?;
    if got < len {
        return Err(WireError::Io); // closed mid-frame
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let got = read_frame(Cursor::new(&buf)).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        let frames: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 1000]];
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = Cursor::new(&buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        // Stream exhausted: clean Io error, not a panic.
        assert_eq!(read_frame(&mut cursor), Err(WireError::Io));
    }

    #[test]
    fn oversize_write_rejected() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(write_frame(&mut buf, &huge), Err(WireError::FrameTooLarge));
        assert!(buf.is_empty(), "nothing must be written on rejection");
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert_eq!(read_frame(Cursor::new(&buf)), Err(WireError::FrameTooLarge));
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert_eq!(read_frame(Cursor::new(&buf)), Err(WireError::Io));
    }

    /// A reader that hands out its bytes `step` at a time.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// 200 kB is past the first reservation, so the buffer grows while the
    /// frame arrives, whatever the size of the reads.
    #[test]
    fn frame_is_reassembled_across_arbitrary_read_boundaries() {
        let payload: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        for step in [1usize << 16, 4097, 7] {
            let got = read_frame(Trickle { bytes: &buf, step }).unwrap();
            assert!(got == payload, "step {step}");
        }
    }

    #[test]
    fn max_size_frame_roundtrips() {
        let payload = vec![0xA5u8; MAX_FRAME_LEN];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(Cursor::new(&buf)).unwrap(), payload);
    }
}
