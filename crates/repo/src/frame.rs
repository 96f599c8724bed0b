//! The file header and the frame: the layout the workload repository
//! and the match-history sidecar share, written down, encoded and read
//! here only. Integers are little-endian.
//!
//! ```text
//! header (16 B)  file magic [u8; 8] · version u8 · 7 bytes written as zeros
//! frame          frame magic [u8; 2] · payload length u32 · CRC-32 of the
//!                payload u32 · payload (encoded with `wire`)
//! ```
//!
//! A file is a header, then frames. The repository's magic is
//! `OPTIREPO`, its frames are `QR` records and one `IX` footer, and header
//! byte 9 is its append-in-progress flag; the sidecar's magic is
//! `OPTISTAT` and its frames are `MS` matches. Reads check every bound:
//! an offset or a length that points outside the bytes is an error,
//! never a panic or an overflowing addition.

use crate::crc::crc32;
use crate::wire::put_u32;

/// Length of the file header.
pub const HEADER_LEN: usize = 16;
/// Length of a frame's magic, payload length and CRC.
pub const FRAME_LEN: usize = 10;

/// The file header for `magic` at `version`.
pub fn header(magic: &[u8; 8], version: u8) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(magic);
    header[8] = version;
    header
}

/// Why a file header was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Shorter than a header, or another file magic.
    Magic,
    /// Version 0, or newer than the reader knows.
    Version(u8),
}

/// Check the header of `data` against `magic`; returns its version,
/// which must lie in `1..=newest`.
pub fn read_header(data: &[u8], magic: &[u8; 8], newest: u8) -> Result<u8, HeaderError> {
    if data.len() < HEADER_LEN || &data[..8] != magic {
        return Err(HeaderError::Magic);
    }
    match data[8] {
        version @ 1.. if version <= newest => Ok(version),
        version => Err(HeaderError::Version(version)),
    }
}

/// Append a frame holding `payload` to `buf`; returns the payload's CRC.
pub fn encode(buf: &mut Vec<u8>, magic: &[u8; 2], payload: &[u8]) -> u32 {
    let crc = crc32(payload);
    buf.reserve(FRAME_LEN + payload.len());
    buf.extend_from_slice(magic);
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc);
    buf.extend_from_slice(payload);
    crc
}

/// One frame as read; its payload is checked against the CRC on access.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'d> {
    /// File offset of the frame magic.
    pub offset: usize,
    /// The stored payload length.
    pub len: u32,
    /// The stored payload CRC.
    pub crc: u32,
    body: &'d [u8],
}

impl<'d> Frame<'d> {
    /// File offset just past the payload, where the next frame starts.
    pub fn end(&self) -> usize {
        self.offset + FRAME_LEN + self.body.len()
    }

    /// The payload if it matches the stored CRC; otherwise the CRC
    /// computed over it.
    pub fn payload(&self) -> Result<&'d [u8], u32> {
        let computed = crc32(self.body);
        (computed == self.crc).then_some(self.body).ok_or(computed)
    }
}

/// Why no frame could be read at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_LEN`] bytes between the offset and the limit.
    Truncated,
    /// A frame with another magic (the one found).
    Magic([u8; 2]),
    /// The payload runs past the limit.
    Overrun,
}

/// Read the frame at `offset`, which must carry `magic` and end by
/// `limit` (at most `data.len()`). The checks run in that order: room
/// for the frame's own fields, the magic, room for the payload.
pub fn read_at<'d>(
    data: &'d [u8],
    offset: u64,
    limit: usize,
    magic: &[u8; 2],
) -> Result<Frame<'d>, FrameError> {
    let start = usize::try_from(offset).map_err(|_| FrameError::Truncated)?;
    let rest = data.get(..limit).and_then(|data| data.get(start..));
    let Some(&[m0, m1, l0, l1, l2, l3, c0, c1, c2, c3]) = rest.and_then(|r| r.get(..FRAME_LEN))
    else {
        return Err(FrameError::Truncated);
    };
    if [m0, m1] != *magic {
        return Err(FrameError::Magic([m0, m1]));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let body = rest.and_then(|r| r[FRAME_LEN..].get(..len as usize));
    Ok(Frame {
        offset: start,
        len,
        crc: u32::from_le_bytes([c0, c1, c2, c3]),
        body: body.ok_or(FrameError::Overrun)?,
    })
}

/// The frames carrying `magic` from `start` on, in file order. The walk
/// ends cleanly at the end of `data`, and right after the first error; a
/// frame whose payload fails its CRC has a known extent, so the walk
/// goes on past it. Whether a bad frame stops the caller or is skipped
/// is the caller's policy.
pub fn walk<'d>(
    data: &'d [u8],
    start: usize,
    magic: &[u8; 2],
) -> impl Iterator<Item = Result<Frame<'d>, FrameError>> + 'd {
    let magic = *magic;
    let mut next = Some(start);
    std::iter::from_fn(move || {
        let at = next.take().filter(|&at| at != data.len())?;
        let frame = read_at(data, at as u64, data.len(), &magic);
        next = frame.as_ref().ok().map(Frame::end);
        Some(frame)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_frames() -> Vec<u8> {
        let mut data = header(b"TESTFILE", 3).to_vec();
        encode(&mut data, b"AB", b"first");
        encode(&mut data, b"AB", b"");
        data
    }

    #[test]
    fn header_round_trips_and_refuses_others() {
        let data = two_frames();
        assert_eq!(&data[..9], b"TESTFILE\x03");
        assert!(data[9..HEADER_LEN].iter().all(|&b| b == 0));
        assert_eq!(read_header(&data, b"TESTFILE", 3), Ok(3));
        assert_eq!(
            read_header(&data, b"TESTFILE", 2),
            Err(HeaderError::Version(3))
        );
        assert_eq!(read_header(&data, b"OTHERMAG", 3), Err(HeaderError::Magic));
        assert_eq!(
            read_header(&data[..15], b"TESTFILE", 3),
            Err(HeaderError::Magic)
        );
        let zero = header(b"TESTFILE", 0);
        assert_eq!(
            read_header(&zero, b"TESTFILE", 3),
            Err(HeaderError::Version(0))
        );
    }

    #[test]
    fn encoded_frames_read_back() {
        let data = two_frames();
        let first = read_at(&data, HEADER_LEN as u64, data.len(), b"AB").unwrap();
        assert_eq!((first.offset, first.len), (HEADER_LEN, 5));
        assert_eq!(first.payload(), Ok(&b"first"[..]));
        let second = read_at(&data, first.end() as u64, data.len(), b"AB").unwrap();
        assert_eq!(second.payload(), Ok(&b""[..]));
        assert_eq!(second.end(), data.len());
    }

    #[test]
    fn reads_check_bounds_magic_and_crc() {
        let data = two_frames();
        let at = HEADER_LEN as u64;
        for offset in [
            u64::MAX,
            u64::MAX - 4,
            data.len() as u64,
            data.len() as u64 - 9,
        ] {
            assert_eq!(
                read_at(&data, offset, data.len(), b"AB").unwrap_err(),
                FrameError::Truncated
            );
        }
        assert_eq!(
            read_at(&data, at, data.len() + 1, b"AB").unwrap_err(),
            FrameError::Truncated
        );
        assert_eq!(
            read_at(&data, at, data.len(), b"QR").unwrap_err(),
            FrameError::Magic(*b"AB")
        );
        // The first payload ends at byte 31; a limit of 30 cuts it.
        assert_eq!(
            read_at(&data, at, 30, b"AB").unwrap_err(),
            FrameError::Overrun
        );
        let mut huge = data.clone();
        huge[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_at(&huge, at, huge.len(), b"AB").unwrap_err(),
            FrameError::Overrun
        );
        let mut rotted = data.clone();
        rotted[HEADER_LEN + FRAME_LEN] ^= 1;
        let rotted = read_at(&rotted, at, rotted.len(), b"AB").unwrap();
        assert_eq!(rotted.crc, crc32(b"first"));
        assert_eq!(rotted.payload(), Err(crc32(b"girst")));
    }

    #[test]
    fn walks_end_cleanly_or_after_the_first_error() {
        let data = two_frames();
        let lens = |data: &[u8]| -> Vec<Result<u32, FrameError>> {
            walk(data, HEADER_LEN, b"AB")
                .map(|f| f.map(|f| f.len))
                .collect()
        };
        assert_eq!(lens(&data), [Ok(5), Ok(0)]);
        assert_eq!(
            lens(&data[..data.len() - 3]),
            [Ok(5), Err(FrameError::Truncated)]
        );
        let mut garbage = data.clone();
        garbage.extend_from_slice(b"IXjunkjunk");
        assert_eq!(
            lens(&garbage),
            [Ok(5), Ok(0), Err(FrameError::Magic(*b"IX"))]
        );
        // A CRC failure does not end the walk: the frame's extent is known.
        let mut rotted = data.clone();
        rotted[HEADER_LEN + FRAME_LEN] ^= 1;
        assert_eq!(lens(&rotted), [Ok(5), Ok(0)]);
        assert_eq!(lens(&data[..HEADER_LEN]), []);
    }
}
