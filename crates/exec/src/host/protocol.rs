//! The length-prefixed pipe protocol between the parent and a worker
//! process.
//!
//! Frames are `[tag: 1 byte][len: 4 bytes LE][payload: len bytes]`, in both
//! directions. A worker's first script needs no frame: it rides the fork
//! that creates the worker. The parent sends every later script as one
//! [`TAG_EXEC`] request. The worker answers each script with exactly one
//! reply frame:
//!
//! * [`TAG_TRACE`] — the rendered trace of an executed script;
//! * [`TAG_ERROR`] — a request-level failure (unparseable request); the jail
//!   was not touched, so the worker stays usable;
//! * [`TAG_SANDBOX`] — the worker could not build its jail (chroot failed),
//!   ran nothing, and exits; only ever a worker's first reply. Jail-reset
//!   failures after a reply do not get a frame; the worker exits and the
//!   parent sees EOF on the next request.
//!
//! EOF on the request pipe is the shutdown signal; EOF on the reply pipe
//! means the worker died, and the parent runs the script in flight once more
//! on another worker. All I/O is blocking; a frame larger than [`MAX_FRAME`]
//! is treated as a protocol failure (the reader gives up, killing the
//! worker) rather than an allocation.

use super::raw;

pub(super) const TAG_EXEC: u8 = b'X';
pub(super) const TAG_TRACE: u8 = b'T';
pub(super) const TAG_ERROR: u8 = b'E';
pub(super) const TAG_SANDBOX: u8 = b'S';

/// Upper bound on one frame's payload. Traces are bounded by script size and
/// [`MAX_TRANSFER`](super::MAX_TRANSFER)-capped reads, so anything larger is
/// corruption, not data.
pub(super) const MAX_FRAME: usize = 64 << 20;

/// Write all of `buf` to `fd`; `false` on any write error (broken pipe ⇒
/// the peer is gone).
fn write_all(fd: i32, mut buf: &[u8]) -> bool {
    while !buf.is_empty() {
        // SAFETY: `buf` is a live slice of `buf.len()` readable bytes.
        let n = unsafe { raw::write(fd, buf.as_ptr().cast(), buf.len()) };
        if n <= 0 {
            return false;
        }
        buf = &buf[n as usize..];
    }
    true
}

/// Read exactly `buf.len()` bytes; `false` on EOF or error.
fn read_exact(fd: i32, buf: &mut [u8]) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        let rest = &mut buf[filled..];
        // SAFETY: `rest` is a live slice of `rest.len()` writable bytes.
        let n = unsafe { raw::read(fd, rest.as_mut_ptr().cast(), rest.len()) };
        if n <= 0 {
            return false;
        }
        filled += n as usize;
    }
    true
}

/// Send one frame; `false` if the peer is gone.
pub(super) fn write_frame(fd: i32, tag: u8, payload: &[u8]) -> bool {
    let mut header = [0u8; 5];
    header[0] = tag;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    write_all(fd, &header) && write_all(fd, payload)
}

/// Receive one frame; `None` on EOF, short read, or an oversized length
/// (all of which mean the worker/parent is unusable).
pub(super) fn read_frame(fd: i32) -> Option<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    if !read_exact(fd, &mut header) {
        return None;
    }
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return None;
    }
    let mut payload = vec![0u8; len];
    if !read_exact(fd, &mut payload) {
        return None;
    }
    Some((header[0], payload))
}

/// Encode a [`TAG_EXEC`] payload: one options byte, then the rendered
/// script.
pub(super) fn encode_exec_request(
    script: &sibylfs_script::Script,
    opts: crate::ExecOptions,
) -> Vec<u8> {
    let rendered = sibylfs_script::render_script(script);
    let mut payload = Vec::with_capacity(1 + rendered.len());
    payload.push(u8::from(opts.root_user));
    payload.extend_from_slice(rendered.as_bytes());
    payload
}

/// Decode a [`TAG_EXEC`] payload back into the script and options.
pub(super) fn decode_exec_request(
    payload: &[u8],
) -> Result<(sibylfs_script::Script, crate::ExecOptions), String> {
    let (&opts_byte, text) = payload.split_first().ok_or("empty exec request")?;
    let text = std::str::from_utf8(text).map_err(|e| format!("non-UTF-8 script: {e}"))?;
    let script =
        sibylfs_script::parse_script(text).map_err(|e| format!("unparseable script: {e}"))?;
    Ok((script, crate::ExecOptions { root_user: opts_byte != 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::OsCommand;
    use sibylfs_core::flags::FileMode;
    use sibylfs_script::Script;

    #[test]
    fn exec_request_round_trips_script_and_options() {
        let mut s = Script::new("mkdir___proto", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        for root_user in [true, false] {
            let payload = encode_exec_request(&s, crate::ExecOptions { root_user });
            let (back, opts) = decode_exec_request(&payload).expect("round-trip");
            assert_eq!(opts.root_user, root_user);
            assert_eq!(back.steps, s.steps);
        }
        assert!(decode_exec_request(&[]).is_err());
        assert!(decode_exec_request(&[1, 0xff, 0xfe]).is_err(), "non-UTF-8 rejected");
    }

    #[test]
    fn frames_round_trip_over_a_real_pipe() {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live array of exactly the two c_ints the kernel
        // writes.
        assert_eq!(unsafe { raw::pipe(fds.as_mut_ptr()) }, 0);
        // Larger than the default 64 KiB pipe buffer, so the writer must run
        // on its own thread for the frame to drain.
        let payload = vec![7u8; 70_000];
        let wr = fds[1];
        let send = {
            let payload = payload.clone();
            std::thread::spawn(move || {
                assert!(write_frame(wr, TAG_TRACE, &payload));
                // SAFETY: `wr` is owned by this test and closed exactly once.
                unsafe { raw::close(wr) };
            })
        };
        let (tag, got) = read_frame(fds[0]).expect("frame");
        assert_eq!(tag, TAG_TRACE);
        assert_eq!(got, payload);
        assert!(read_frame(fds[0]).is_none(), "EOF after the writer closes");
        // SAFETY: the read end is owned by this test and closed exactly once.
        unsafe { raw::close(fds[0]) };
        send.join().unwrap();
    }
}
