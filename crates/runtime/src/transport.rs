//! Length-prefixed framing over TCP streams.
//!
//! Frames are `u32` big-endian length followed by that many payload bytes —
//! the standard minimal framing for message-oriented protocols over a
//! stream transport. A sanity cap rejects frames larger than the wire
//! codec's own limit so a malicious peer cannot force huge allocations.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Maximum accepted frame size (matches `probft_core::wire::MAX_LEN`).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// How many consecutive timed-out reads a mid-frame fill tolerates before
/// declaring the peer stalled. With the runtime's 200 ms socket read
/// timeout this bounds a mid-frame stall to ~10 s, so a peer that sends a
/// partial frame and goes silent cannot pin a reader thread forever.
pub const MAX_MID_FRAME_RETRIES: u32 = 50;

/// Errors produced by frame I/O.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME`].
    Oversized(u32),
    /// Peer stopped sending mid-frame for longer than
    /// [`MAX_MID_FRAME_RETRIES`] read timeouts; the stream can no longer
    /// be trusted to be frame-aligned.
    Stalled {
        /// Bytes of the current read received before the stall.
        filled: usize,
        /// Bytes the read needed in total.
        needed: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Oversized(len) => write!(f, "frame of {len} bytes exceeds cap"),
            FrameError::Stalled { filled, needed } => {
                write!(f, "peer stalled mid-frame after {filled} of {needed} bytes")
            }
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Oversized(_) | FrameError::Stalled { .. } => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates socket errors; rejects oversized payloads.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    // One buffer, one write: on a `TCP_NODELAY` socket a separate write of
    // the 4-byte prefix is a segment — and a reader wake-up — of its own.
    writer.write_all(&[len.to_be_bytes().as_slice(), payload].concat())?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// EOF *inside* a frame — after 1–3 of the 4 length-prefix bytes, or mid
/// payload — is a torn frame and reported as [`FrameError::Io`] with kind
/// `UnexpectedEof`, never as a clean end of stream. Timeouts
/// (`WouldBlock`/`TimedOut` from a socket read deadline) are propagated
/// only at a frame boundary, where the caller can poll for shutdown and
/// retry; once any byte of a frame has been consumed, the read retries
/// internally (so a slow peer cannot desynchronise the stream framing)
/// up to [`MAX_MID_FRAME_RETRIES`] consecutive timeouts, after which the
/// peer is declared [`FrameError::Stalled`] (so a silent peer cannot pin
/// the reading thread forever).
///
/// # Errors
///
/// Propagates socket errors; rejects oversized frames; reports mid-frame
/// stalls.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !fill(reader, &mut len_bytes, false)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    fill(reader, &mut payload, true)?;
    Ok(Some(payload))
}

/// Fills `buf` completely. Returns `Ok(false)` on EOF before the first
/// byte when `mid_frame` is false (a clean frame boundary); any other
/// short read is a torn frame.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8], mid_frame: bool) -> Result<bool, FrameError> {
    let mut filled = 0;
    let mut timeouts = 0u32;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match reader.read(rest) {
            Ok(0) => {
                if filled == 0 && !mid_frame {
                    return Ok(false);
                }
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("torn frame: EOF after {filled} of {} bytes", buf.len()),
                )));
            }
            Ok(n) => {
                filled += n;
                timeouts = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (filled > 0 || mid_frame)
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                timeouts += 1;
                if timeouts >= MAX_MID_FRAME_RETRIES {
                    return Err(FrameError::Stalled {
                        filled,
                        needed: buf.len(),
                    });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAA; 1000]).unwrap();

        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), vec![0xAA; 1000]);
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    /// A frame is one `write` — prefix and payload together — so a vote
    /// does not cost two syscalls and two segments on a no-delay socket.
    #[test]
    fn each_frame_is_written_in_one_call() {
        #[derive(Default)]
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter::default();
        let payloads: [&[u8]; 3] = [b"hello", b"", &[0xAA; 1000]];
        for (i, payload) in payloads.into_iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, i + 1);
        }
        // An oversized payload is refused before anything is written.
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(
            write_frame(&mut w, &huge),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(w.writes, 3);

        let mut cur = Cursor::new(w.bytes);
        for payload in payloads {
            assert_eq!(read_frame(&mut cur).unwrap().unwrap(), payload);
        }
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    /// Regression: EOF after 1–3 of the 4 length-prefix bytes used to be
    /// misreported as a clean EOF (`Ok(None)`), silently discarding the
    /// torn frame. It must surface as an I/O error.
    #[test]
    fn torn_length_prefix_is_an_error() {
        for cut in 1..4 {
            let mut buf = Vec::new();
            write_frame(&mut buf, b"hello").unwrap();
            buf.truncate(cut);
            let mut cur = Cursor::new(buf);
            let got = read_frame(&mut cur);
            assert!(
                matches!(
                    &got,
                    Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
                ),
                "cut at {cut} bytes must be a torn-frame error, got {got:?}"
            );
        }
    }

    /// A torn frame followed by nothing must not be re-read as a shorter
    /// valid frame (framing stays byte-exact after the fix).
    #[test]
    fn clean_eof_only_at_frame_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        let boundary = buf.len();
        write_frame(&mut buf, b"second").unwrap();
        buf.truncate(boundary + 3); // 3 of the second frame's 4 prefix bytes
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"first");
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    /// Reads spanning many short chunks still assemble whole frames (the
    /// internal fill loop handles partial reads from the OS).
    #[test]
    fn chunked_reads_reassemble() {
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = buf.len().min(1);
                self.0.read(&mut buf[..take])
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, b"drip-fed payload").unwrap();
        let mut r = OneByte(Cursor::new(buf));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"drip-fed payload");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A peer that sends part of a frame and then produces only timeouts
    /// must be declared stalled after a bounded number of retries, not pin
    /// the reading thread forever.
    #[test]
    fn mid_frame_stall_is_bounded() {
        struct StallAfter {
            bytes: Vec<u8>,
            pos: usize,
        }
        impl Read for StallAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos < self.bytes.len() && !buf.is_empty() {
                    buf[0] = self.bytes[self.pos];
                    self.pos += 1;
                    Ok(1)
                } else {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
                }
            }
        }
        // Two of the four length-prefix bytes, then silence.
        let mut r = StallAfter {
            bytes: vec![0, 0],
            pos: 0,
        };
        let got = read_frame(&mut r);
        assert!(
            matches!(
                got,
                Err(FrameError::Stalled {
                    filled: 2,
                    needed: 4
                })
            ),
            "{got:?}"
        );

        // At a frame boundary (no bytes yet) the timeout is propagated so
        // callers can poll for shutdown.
        let mut idle = StallAfter {
            bytes: vec![],
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut idle),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock
        ));
    }

    #[test]
    fn error_display() {
        let e = FrameError::Oversized(99);
        assert!(!e.to_string().is_empty());
        let s = FrameError::Stalled {
            filled: 2,
            needed: 4,
        };
        assert!(s.to_string().contains("2 of 4"));
    }
}
