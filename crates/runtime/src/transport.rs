//! Length-prefixed framing over TCP streams.
//!
//! Frames are `u32` big-endian length followed by that many payload bytes —
//! the standard minimal framing for message-oriented protocols over a
//! stream transport. A sanity cap rejects frames larger than the wire
//! codec's own limit so a malicious peer cannot force huge allocations.
//!
//! [`read_frame`] / [`write_frame`] serve blocking streams (the client
//! side); the replica host reads non-blocking sockets through a frame
//! assembler, which applies the same checks to whatever chunks the socket
//! yields.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Maximum accepted frame size (matches `probft_core::wire::MAX_LEN`).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of the length prefix.
const PREFIX: usize = 4;

/// How long a connection may stay silent in the middle of a frame before
/// the replica host, which reads non-blocking sockets on its event loop,
/// declares it torn and drops it — so a peer that sends a partial frame
/// and goes silent holds no buffer for longer.
pub(crate) const MID_FRAME_SILENCE: Duration = Duration::from_secs(10);

/// How many consecutive timed-out reads a mid-frame [`read_frame`] on a
/// blocking stream tolerates before declaring the peer stalled: the bound
/// is this many read timeouts — 2.5 s for an `SmrClient`, which reads with
/// a 50 ms timeout — so a replica that sends a partial reply and goes
/// silent cannot pin a client forever.
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
                filled = filled.saturating_add(n);
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
                timeouts = timeouts.saturating_add(1);
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

/// The payload length a prefix announces, refused above [`MAX_FRAME`].
fn frame_len(prefix: [u8; PREFIX]) -> Result<usize, FrameError> {
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    usize::try_from(len).map_err(|_| FrameError::Oversized(len))
}

/// Reassembles frames from the chunks a non-blocking socket yields, in
/// whatever sizes they come: the incremental counterpart of
/// [`read_frame`], with the same length cap. Whole frames in a chunk are
/// handed out as slices of it; only a frame split across chunks is
/// copied, and never beyond [`MAX_FRAME`] plus its prefix.
#[derive(Debug, Default)]
pub(crate) struct FrameAssembler {
    /// The frame begun but not finished, prefix included.
    partial: Vec<u8>,
    /// When the last byte of `partial` arrived (`None` while empty).
    last_byte: Option<Instant>,
}

impl FrameAssembler {
    /// Takes `chunk`, received at `now`, and hands every frame it
    /// completes to `on_frame`, in stream order. A prefix announcing more
    /// than [`MAX_FRAME`] is [`FrameError::Oversized`]: the frames before
    /// it were handed out, and nothing after it can be trusted to be
    /// frame-aligned.
    pub(crate) fn feed(
        &mut self,
        chunk: &[u8],
        now: Instant,
        mut on_frame: impl FnMut(&[u8]),
    ) -> Result<(), FrameError> {
        let mut chunk = chunk;
        if chunk.is_empty() {
            return Ok(());
        }
        // Finish the frame the last chunk left open: its prefix, then its
        // payload.
        while !self.partial.is_empty() {
            let want = match self.partial.first_chunk::<PREFIX>() {
                Some(prefix) => PREFIX.saturating_add(frame_len(*prefix)?),
                None => PREFIX,
            };
            let missing = want.saturating_sub(self.partial.len());
            if missing == 0 {
                on_frame(self.partial.get(PREFIX..).unwrap_or_default());
                self.partial.clear();
                break;
            }
            if chunk.is_empty() {
                break;
            }
            let (head, rest) = chunk
                .split_at_checked(missing.min(chunk.len()))
                .unwrap_or((chunk, &[]));
            self.partial.extend_from_slice(head);
            chunk = rest;
        }
        // Whole frames straight out of the chunk; keep the tail.
        if self.partial.is_empty() {
            while let Some((prefix, rest)) = chunk.split_first_chunk::<PREFIX>() {
                let Some((frame, after)) = rest.split_at_checked(frame_len(*prefix)?) else {
                    break;
                };
                on_frame(frame);
                chunk = after;
            }
            self.partial.extend_from_slice(chunk);
        }
        self.last_byte = (!self.partial.is_empty()).then_some(now);
        Ok(())
    }

    /// Whether the stream stopped inside a frame: an end of stream here
    /// tears that frame.
    pub(crate) fn mid_frame(&self) -> bool {
        !self.partial.is_empty()
    }

    /// Whether a frame has been open and silent for [`MID_FRAME_SILENCE`]
    /// by `now`.
    pub(crate) fn stalled(&self, now: Instant) -> bool {
        self.last_byte
            .is_some_and(|at| now.saturating_duration_since(at) >= MID_FRAME_SILENCE)
    }
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

    /// `payloads` framed back to back, as `write_frame` puts them on the
    /// wire.
    fn stream_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for payload in payloads {
            write_frame(&mut stream, payload).unwrap();
        }
        stream
    }

    /// Feeds `stream` cut at `cuts` (offsets, any order, out-of-range
    /// ones ignored) and returns the frames, or the first error.
    fn assemble(
        asm: &mut FrameAssembler,
        stream: &[u8],
        cuts: &[usize],
        now: Instant,
    ) -> (Vec<Vec<u8>>, Result<(), FrameError>) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut frames = Vec::new();
        let mut from = 0;
        for cut in cuts {
            let result = asm.feed(&stream[from..cut], now, |f| frames.push(f.to_vec()));
            if result.is_err() {
                return (frames, result);
            }
            from = cut;
        }
        (frames, Ok(()))
    }

    #[test]
    fn assembler_hands_out_whole_frames_and_keeps_the_tail() {
        let payloads = vec![b"hello".to_vec(), Vec::new(), vec![0xAA; 1000]];
        let stream = stream_of(&payloads);
        let now = Instant::now();

        // One chunk: every frame, nothing left open.
        let mut asm = FrameAssembler::default();
        let (frames, result) = assemble(&mut asm, &stream, &[], now);
        assert!(result.is_ok());
        assert_eq!(frames, payloads);
        assert!(!asm.mid_frame());

        // One byte at a time, through every prefix boundary.
        let mut asm = FrameAssembler::default();
        let cuts: Vec<usize> = (0..stream.len()).collect();
        let (frames, result) = assemble(&mut asm, &stream, &cuts, now);
        assert!(result.is_ok());
        assert_eq!(frames, payloads);

        // Cut inside the second prefix: the first frame out, the rest
        // waiting, and the stream now open mid-frame.
        let mut asm = FrameAssembler::default();
        let (frames, _) = assemble(&mut asm, &stream[..9 + 2], &[], now);
        assert_eq!(frames, [b"hello".to_vec()]);
        assert!(asm.mid_frame());
        let (frames, _) = assemble(&mut asm, &stream[11..], &[], now);
        assert_eq!(frames, payloads[1..]);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_refuses_an_oversized_prefix_after_the_frames_before_it() {
        let mut stream = stream_of(&[b"ok".to_vec()]);
        stream.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        stream.extend_from_slice(&[0; 16]);
        let mut asm = FrameAssembler::default();
        let (frames, result) = assemble(&mut asm, &stream, &[7], Instant::now());
        assert_eq!(frames, [b"ok".to_vec()]);
        assert!(matches!(result, Err(FrameError::Oversized(len)) if len == MAX_FRAME + 1));
        // The cap itself is a frame like any other (announced, not sent).
        let mut asm = FrameAssembler::default();
        let at_cap = MAX_FRAME.to_be_bytes();
        assert!(asm.feed(&at_cap, Instant::now(), |_| {}).is_ok());
        assert!(asm.mid_frame());
    }

    #[test]
    fn assembler_declares_a_silent_partial_frame_stalled() {
        let t0 = Instant::now();
        let mut asm = FrameAssembler::default();
        assert!(!asm.stalled(t0 + MID_FRAME_SILENCE), "nothing open");
        asm.feed(&[0, 0], t0, |_| {}).unwrap();
        assert!(!asm.stalled(t0 + MID_FRAME_SILENCE - Duration::from_millis(1)));
        assert!(asm.stalled(t0 + MID_FRAME_SILENCE));
        // A byte restarts the clock; finishing the frame stops it.
        let t1 = t0 + Duration::from_secs(5);
        asm.feed(&[0, 1], t1, |_| {}).unwrap();
        assert!(!asm.stalled(t0 + MID_FRAME_SILENCE));
        assert!(asm.stalled(t1 + MID_FRAME_SILENCE));
        asm.feed(&[7], t1, |_| {}).unwrap();
        assert!(!asm.mid_frame());
        assert!(!asm.stalled(t1 + MID_FRAME_SILENCE * 2));
    }

    proptest::proptest! {
        /// Any chunking of a frame stream yields the frames written, in
        /// order, and ends at a frame boundary.
        #[test]
        fn any_chunking_yields_the_same_frames(
            sizes in proptest::collection::vec(0usize..600, 0..12),
            fill in proptest::any::<u8>(),
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..40),
        ) {
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| fill ^ (i + j) as u8).collect())
                .collect();
            let stream = stream_of(&payloads);
            let mut asm = FrameAssembler::default();
            let (frames, result) = assemble(&mut asm, &stream, &cuts, Instant::now());
            proptest::prop_assert!(result.is_ok());
            proptest::prop_assert_eq!(frames, payloads);
            proptest::prop_assert!(!asm.mid_frame());
        }

        /// A stream that ends anywhere but a frame boundary ends mid-frame
        /// (the host counts it torn), having handed out exactly the frames
        /// completed before the cut.
        #[test]
        fn eof_inside_a_frame_is_mid_frame(
            sizes in proptest::collection::vec(0usize..300, 1..8),
            end in proptest::any::<usize>(),
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..20),
        ) {
            let payloads: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0x5A; n]).collect();
            let stream = stream_of(&payloads);
            let mut boundaries = vec![0];
            for payload in &payloads {
                boundaries.push(boundaries.last().unwrap() + PREFIX + payload.len());
            }
            let end = end % stream.len();
            proptest::prop_assume!(!boundaries.contains(&end));
            let mut asm = FrameAssembler::default();
            let (frames, result) = assemble(&mut asm, &stream[..end], &cuts, Instant::now());
            proptest::prop_assert!(result.is_ok());
            proptest::prop_assert!(asm.mid_frame());
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= end).count();
            proptest::prop_assert_eq!(frames, payloads[..whole].to_vec());
        }

        /// A length above the cap, however it is chunked, is refused once
        /// its prefix is whole — after every frame before it.
        #[test]
        fn a_length_above_the_cap_is_refused(
            before in proptest::collection::vec(0usize..200, 0..5),
            len in (MAX_FRAME + 1)..u32::MAX,
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..20),
        ) {
            let payloads: Vec<Vec<u8>> = before.iter().map(|&n| vec![1; n]).collect();
            let mut stream = stream_of(&payloads);
            stream.extend_from_slice(&len.to_be_bytes());
            stream.extend_from_slice(&[0xEE; 32]);
            let mut asm = FrameAssembler::default();
            let (frames, result) = assemble(&mut asm, &stream, &cuts, Instant::now());
            proptest::prop_assert!(matches!(result, Err(FrameError::Oversized(l)) if l == len));
            proptest::prop_assert_eq!(frames, payloads);
        }

        /// A partial frame is stalled exactly when it has been silent for
        /// the bound, wherever the stream stopped.
        #[test]
        fn a_partial_frame_silent_past_the_bound_is_stalled(
            size in 1usize..300,
            end in proptest::any::<usize>(),
            silent_ms in 0u64..20_000,
        ) {
            let stream = stream_of(&[vec![3; size]]);
            let end = 1 + end % (stream.len() - 1);
            let t0 = Instant::now();
            let mut asm = FrameAssembler::default();
            asm.feed(&stream[..end], t0, |_| {}).unwrap();
            let silent = Duration::from_millis(silent_ms);
            proptest::prop_assert_eq!(asm.stalled(t0 + silent), silent >= MID_FRAME_SILENCE);
        }
    }
}
