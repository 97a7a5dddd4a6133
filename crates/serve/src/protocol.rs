//! The oracle wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is a 4-byte big-endian payload length followed by the payload;
//! the first payload byte is the message type. Requests flow client→server,
//! responses server→client, and a session is fully pipelined: a client may
//! have many requests in flight, and the server answers strictly in request
//! order, so responses need no correlation IDs.
//!
//! ```text
//! frame    := u32_be(len) payload[len]            len <= MAX_FRAME_LEN
//! request  := 0x01 u16_be(cfg_len) cfg trace      check `trace` against `cfg`
//!           | 0x02                                server stats line
//!           | 0x03                                metrics snapshot
//! response := 0x81 verdict-text                   rendered checked trace
//!           | 0x82 u32_be(line) u32_be(col) msg   error (0,0 = no location)
//!           | 0x83 stats-text                     one stats line
//!           | 0x84 metrics-v1-text                full metrics exposition
//! ```
//!
//! `cfg` is a [`SpecConfig`](sibylfs_core::flavor::SpecConfig) in its
//! `Display` syntax (`linux`, `posix,no-perms`, `mac,non-root`, ...);
//! [`parse_spec_config`] round-trips it, and a config it rejects gets an
//! error response. Verdict text is exactly what
//! `sibylfs_check::render_checked_trace` produces, which is what makes
//! "server verdicts are bit-identical to batch checking" a meaningful,
//! CI-checkable property.

use std::io::{self, Read, Write};

pub use sibylfs_core::flavor::parse_spec_config;

/// Hard ceiling on a frame payload; anything larger is a protocol error.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// Default per-name byte limit enforced at the protocol boundary (see
/// [`oversized_name_len`]); a server may configure a different value.
pub const DEFAULT_MAX_NAME_LEN: usize = 512;

/// Message type tags.
pub const TAG_CHECK: u8 = 0x01;
pub const TAG_STATS: u8 = 0x02;
pub const TAG_METRICS: u8 = 0x03;
pub const TAG_VERDICT: u8 = 0x81;
pub const TAG_ERROR: u8 = 0x82;
pub const TAG_STATS_RESP: u8 = 0x83;
pub const TAG_METRICS_RESP: u8 = 0x84;

/// A client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Check a trace (text form) against a model config (Display form).
    Check { config: String, trace_text: String },
    /// Ask for the server's one-line stats summary.
    Stats,
    /// Ask for a full metrics snapshot (`@type metrics-v1` text).
    Metrics,
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The rendered checked trace for an accepted Check request.
    Verdict(String),
    /// The request failed; `line`/`col` locate parse errors (0,0 otherwise).
    Error { line: u32, col: u32, message: String },
    /// The stats line for a Stats request.
    StatsLine(String),
    /// The metrics exposition for a Metrics request: `@type metrics-v1` text,
    /// parseable back into a structured snapshot with
    /// [`sibylfs_core::obs::MetricsSnapshot::parse`].
    Metrics(String),
}

/// A framing or payload decoding failure. Framing errors are fatal to the
/// session (the stream position is unrecoverable); payload errors are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The 4-byte length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLong(u32),
    /// The payload was empty or its type byte is unknown.
    BadTag(Option<u8>),
    /// The payload body did not decode (truncated field, bad UTF-8, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::FrameTooLong(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            ProtocolError::BadTag(Some(t)) => write!(f, "unknown message type 0x{t:02x}"),
            ProtocolError::BadTag(None) => write!(f, "empty frame payload"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too long"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary; a
/// connection cut mid-frame is an `UnexpectedEof` error, and an oversized
/// length prefix surfaces as [`ProtocolError::FrameTooLong`] wrapped in
/// `InvalidData` (the session must be dropped — the stream position is lost).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLong(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Check { config, trace_text } => {
            let mut out = Vec::with_capacity(3 + config.len() + trace_text.len());
            out.push(TAG_CHECK);
            let cfg_len = u16::try_from(config.len()).unwrap_or(u16::MAX);
            out.extend_from_slice(&cfg_len.to_be_bytes());
            out.extend_from_slice(&config.as_bytes()[..cfg_len as usize]);
            out.extend_from_slice(trace_text.as_bytes());
            out
        }
        Request::Stats => vec![TAG_STATS],
        Request::Metrics => vec![TAG_METRICS],
    }
}

/// Decode a frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    match payload.first().copied() {
        Some(TAG_CHECK) => {
            let body = &payload[1..];
            if body.len() < 2 {
                return Err(ProtocolError::Malformed("missing config length"));
            }
            let cfg_len = u16::from_be_bytes([body[0], body[1]]) as usize;
            let rest = &body[2..];
            if rest.len() < cfg_len {
                return Err(ProtocolError::Malformed("config length exceeds payload"));
            }
            let config = std::str::from_utf8(&rest[..cfg_len])
                .map_err(|_| ProtocolError::Malformed("config is not UTF-8"))?
                .to_string();
            let trace_text = std::str::from_utf8(&rest[cfg_len..])
                .map_err(|_| ProtocolError::Malformed("trace is not UTF-8"))?
                .to_string();
            Ok(Request::Check { config, trace_text })
        }
        Some(TAG_STATS) => {
            if payload.len() != 1 {
                return Err(ProtocolError::Malformed("stats request carries a body"));
            }
            Ok(Request::Stats)
        }
        Some(TAG_METRICS) => {
            if payload.len() != 1 {
                return Err(ProtocolError::Malformed("metrics request carries a body"));
            }
            Ok(Request::Metrics)
        }
        other => Err(ProtocolError::BadTag(other)),
    }
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Verdict(text) => {
            let mut out = Vec::with_capacity(1 + text.len());
            out.push(TAG_VERDICT);
            out.extend_from_slice(text.as_bytes());
            out
        }
        Response::Error { line, col, message } => {
            let mut out = Vec::with_capacity(9 + message.len());
            out.push(TAG_ERROR);
            out.extend_from_slice(&line.to_be_bytes());
            out.extend_from_slice(&col.to_be_bytes());
            out.extend_from_slice(message.as_bytes());
            out
        }
        Response::StatsLine(text) => {
            let mut out = Vec::with_capacity(1 + text.len());
            out.push(TAG_STATS_RESP);
            out.extend_from_slice(text.as_bytes());
            out
        }
        Response::Metrics(text) => {
            let mut out = Vec::with_capacity(1 + text.len());
            out.push(TAG_METRICS_RESP);
            out.extend_from_slice(text.as_bytes());
            out
        }
    }
}

/// Decode a frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    match payload.first().copied() {
        Some(TAG_VERDICT) => {
            let text = std::str::from_utf8(&payload[1..])
                .map_err(|_| ProtocolError::Malformed("verdict is not UTF-8"))?;
            Ok(Response::Verdict(text.to_string()))
        }
        Some(TAG_ERROR) => {
            let body = &payload[1..];
            if body.len() < 8 {
                return Err(ProtocolError::Malformed("error response too short"));
            }
            let line = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
            let col = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
            let message = std::str::from_utf8(&body[8..])
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?
                .to_string();
            Ok(Response::Error { line, col, message })
        }
        Some(TAG_STATS_RESP) => {
            let text = std::str::from_utf8(&payload[1..])
                .map_err(|_| ProtocolError::Malformed("stats line is not UTF-8"))?;
            Ok(Response::StatsLine(text.to_string()))
        }
        Some(TAG_METRICS_RESP) => {
            let text = std::str::from_utf8(&payload[1..])
                .map_err(|_| ProtocolError::Malformed("metrics text is not UTF-8"))?;
            Ok(Response::Metrics(text.to_string()))
        }
        other => Err(ProtocolError::BadTag(other)),
    }
}

/// Scan a script/trace text for quoted names longer than `max` bytes,
/// returning the length of the first offender. Runs **before** parsing, so a
/// hostile client cannot grow the process-wide interner with giant unique
/// path components: parsing is what interns names, and oversized requests are
/// rejected here without ever reaching the parser.
pub fn oversized_name_len(text: &str, max: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1; // skip the escaped byte
                }
                j += 1;
            }
            let len = j.saturating_sub(start);
            if len > max {
                return Some(len);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_round_trip() {
        for req in [
            Request::Check { config: "linux".into(), trace_text: "@type trace\n".into() },
            Request::Check { config: "posix,no-perms".into(), trace_text: String::new() },
            Request::Stats,
            Request::Metrics,
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip() {
        for resp in [
            Response::Verdict("@type checked-trace\n".into()),
            Response::Error { line: 3, col: 17, message: "uid out of range: -5".into() },
            Response::Error { line: 0, col: 0, message: "interner budget exceeded".into() },
            Response::StatsLine("sessions=1 checked=2".into()),
            Response::Metrics("@type metrics-v1\ncounter sibylfs_pool_jobs_total 5\n".into()),
        ] {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_without_panicking(){
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7f, 1, 2, 3]).is_err());
        assert!(decode_request(&[TAG_CHECK]).is_err());
        assert!(decode_request(&[TAG_CHECK, 0xff, 0xff, b'x']).is_err());
        assert!(decode_request(&[TAG_CHECK, 0, 1, 0xff, 0xfe]).is_err());
        assert!(decode_request(&[TAG_STATS, 0]).is_err());
        assert!(decode_request(&[TAG_METRICS, 0]).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[TAG_ERROR, 0, 0]).is_err());
        assert!(decode_response(&[TAG_VERDICT, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn frame_io_round_trip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at frame boundary");
    }

    #[test]
    fn truncated_and_oversized_frames_are_io_errors() {
        // Length prefix promises more bytes than the stream holds.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&10u32.to_be_bytes());
        truncated.extend_from_slice(b"abc");
        let err = read_frame(&mut io::Cursor::new(truncated)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Length prefix over the hard limit.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(oversized)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF mid-length-prefix.
        let err = read_frame(&mut io::Cursor::new(vec![0u8, 0])).unwrap();
        assert_eq!(err, None, "a 2-byte stream never starts a frame");
    }

    #[test]
    fn oversized_names_are_detected_before_parse() {
        let ok = format!("1: mkdir \"{}\" 0o755\n", "a".repeat(64));
        assert_eq!(oversized_name_len(&ok, 64), None);
        let bad = format!("1: mkdir \"{}\" 0o755\n", "a".repeat(65));
        assert_eq!(oversized_name_len(&bad, 64), Some(65));
        // Escaped quotes do not end the scan early.
        let esc = format!("1: write (FD 3) \"x\\\"{}\"\n", "y".repeat(100));
        assert!(oversized_name_len(&esc, 64).is_some());
        // Unterminated quote at EOF terminates cleanly.
        assert_eq!(oversized_name_len("mkdir \"abc", 64), None);
    }

    proptest! {
        #[test]
        fn framing_round_trips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            let mut r = io::Cursor::new(buf);
            let back = read_frame(&mut r).unwrap().unwrap();
            prop_assert_eq!(back, payload);
            prop_assert_eq!(read_frame(&mut r).unwrap(), None);
        }

        #[test]
        fn decode_never_panics_on_garbage(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&payload);
            let _ = decode_response(&payload);
        }

        #[test]
        fn check_request_round_trips(
            cfg_bytes in proptest::collection::vec(any::<u8>(), 0..24),
            trace_bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Map arbitrary bytes into printable ASCII so both fields are
            // valid UTF-8 of the same byte length.
            let ascii = |bs: &[u8]| -> String {
                bs.iter().map(|b| (b' ' + (b % 95)) as char).collect()
            };
            let req = Request::Check { config: ascii(&cfg_bytes), trace_text: ascii(&trace_bytes) };
            prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }
}
