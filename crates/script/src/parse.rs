//! Parser for the script and trace text formats.
//!
//! The grammar is exactly what [`crate::print`] produces, so parsing and
//! printing round-trip, overlapping calls included: `tests/round_trip.rs`
//! and the workspace's `tests/trace_round_trip.rs` check this.

use std::fmt;
use std::str::FromStr;

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue, Stat};
use sibylfs_core::errno::Errno;
use sibylfs_core::flags::{FileMode, OpenFlags, SeekWhence};
use sibylfs_core::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid, INITIAL_PID};

use crate::{Script, ScriptStep, Trace};

/// A parse error, with the (1-based) line and column at which it occurred.
///
/// The span locates the error in the file the user actually wrote (comments,
/// blank lines and `[pN]` prefixes included), so diagnostics tools — and
/// remote clients of the trace-checking server, who only ever see this
/// structure — can anchor the error without re-parsing. Render through
/// `sibylfs_check::render::render_parse_error` for the Fig. 4 diagnostic
/// shape shared with lint findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line number of the offending line.
    pub line: usize,
    /// 1-based column within that line where the offending token starts.
    /// Column 1 for errors that concern the whole line (e.g. a malformed
    /// directive or a missing header).
    pub col: usize,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> ParseError {
        ParseError { line, col: 1, message: message.into() }
    }

    fn new_at(line: usize, col: usize, message: impl Into<String>) -> ParseError {
        ParseError { line, col, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A cursor over a single line.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
    /// 0-based offset of `s` within the raw source line (the `[pN]` prefix,
    /// leading whitespace and trace line-number tag stripped by the caller),
    /// so error columns point into the line as written.
    col_base: usize,
}

impl<'a> Cursor<'a> {
    fn with_col_base(s: &'a str, line: usize, col_base: usize) -> Cursor<'a> {
        Cursor { s, pos: 0, line, col_base }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    /// The 1-based source column of the current position.
    fn col(&self) -> usize {
        self.col_base + self.pos + 1
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new_at(self.line, self.col(), msg)
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(' ') || self.rest().starts_with('\t') {
            self.pos += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?} at {:?}", self.rest())))
        }
    }

    /// A bare word: letters, digits, `_`, `-`.
    fn word(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        while self.pos < self.s.len() {
            let c = bytes[self.pos] as char;
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err(format!("expected a word at {:?}", self.rest())))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    /// A signed decimal integer.
    fn int(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        if self.pos < self.s.len() && (bytes[self.pos] == b'-' || bytes[self.pos] == b'+') {
            self.pos += 1;
        }
        while self.pos < self.s.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.s[start..self.pos]
            .parse::<i64>()
            .map_err(|_| {
                ParseError::new_at(
                    self.line,
                    self.col_base + start + 1,
                    format!("expected an integer at {:?}", &self.s[start..]),
                )
            })
    }

    /// A decimal integer constrained to the argument's actual domain.
    ///
    /// The script grammar writes every numeric argument as a plain signed
    /// decimal, but most arguments are unsigned (uid/gid, counts, sizes) or
    /// narrower than `i64` (fd/dh numbers). A bare `as` cast here would
    /// silently wrap — `read fd -1` becoming a ~2^64-byte count — so
    /// out-of-domain values are a positioned [`ParseError`] instead.
    fn int_as<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T, ParseError> {
        self.skip_ws();
        let col = self.col();
        let n = self.int()?;
        T::try_from(n).map_err(|_| {
            ParseError::new_at(self.line, col, format!("{what} out of range: {n}"))
        })
    }

    /// An octal mode, `0o777` or plain octal digits.
    fn mode(&mut self) -> Result<FileMode, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        if self.rest().starts_with("0o") {
            self.pos += 2;
        }
        while self.pos < self.s.len() && (b'0'..=b'7').contains(&bytes[self.pos]) {
            self.pos += 1;
        }
        let text = &self.s[start..self.pos];
        text.parse::<FileMode>().map_err(|_| self.err(format!("expected an octal mode, got {text:?}")))
    }

    /// A double-quoted string with `\"`, `\\`, `\n`, `\t`, `\r`, `\0` escapes.
    fn quoted(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if !self.rest().starts_with('"') {
            return Err(self.err(format!("expected a quoted string at {:?}", self.rest())));
        }
        self.pos += 1;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        loop {
            let Some((i, c)) = chars.next() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, esc)) = chars.next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        '0' => out.push('\0'),
                        'u' => {
                            // Rust-style \u{XX} escape produced by {:?}.
                            let rest = &self.rest()[i + 2..];
                            let Some(close) = rest.find('}') else {
                                return Err(self.err("bad unicode escape"));
                            };
                            let hex = &rest[1..close];
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            // Consume "{…}" — `close` characters of braced
                            // payload plus the closing brace itself.
                            for _ in 0..=close {
                                chars.next();
                            }
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{other}")));
                        }
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// What `inner` parses, between `open` and `)`.
    fn delimited<T>(
        &mut self,
        open: &str,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.expect(open)?;
        let value = inner(self)?;
        self.expect(")")?;
        Ok(value)
    }

    /// A `(FD n)` form.
    fn fd(&mut self) -> Result<Fd, ParseError> {
        self.delimited("(FD", |c| c.int_as("file descriptor")).map(Fd)
    }

    /// A `(DH n)` form.
    fn dh(&mut self) -> Result<DirHandleId, ParseError> {
        self.delimited("(DH", |c| c.int_as("directory handle")).map(DirHandleId)
    }

    /// A `[FLAG;FLAG;…]` list.
    fn flags(&mut self) -> Result<OpenFlags, ParseError> {
        self.expect("[")?;
        let mut flags = OpenFlags::empty();
        loop {
            let w = self.word()?;
            let f: OpenFlags =
                w.parse().map_err(|_| self.err(format!("unknown open flag {w:?}")))?;
            flags = flags | f;
            if self.eat(";") {
                continue;
            }
            self.expect("]")?;
            return Ok(flags);
        }
    }
}

/// Parse a single command line (without any process prefix).
pub fn parse_command(text: &str, line: usize) -> Result<OsCommand, ParseError> {
    parse_command_at(text, line, 0)
}

/// Parse a command line whose text starts `col_base` columns into the raw
/// source line (after a `[pN]` prefix or a trace call tag), so error columns
/// point into the line as written.
fn parse_command_at(text: &str, line: usize, col_base: usize) -> Result<OsCommand, ParseError> {
    let mut c = Cursor::with_col_base(text, line, col_base);
    let name = c.word()?.to_string();
    let cmd = match name.as_str() {
        "chdir" => OsCommand::Chdir(c.quoted()?.into()),
        "chmod" => OsCommand::Chmod(c.quoted()?.into(), c.mode()?),
        "chown" => {
            let p = c.quoted()?;
            let uid = c.int_as::<u32>("uid")?;
            let gid = c.int_as::<u32>("gid")?;
            OsCommand::Chown(p.into(), Uid(uid), Gid(gid))
        }
        "close" => OsCommand::Close(c.fd()?),
        "closedir" => OsCommand::Closedir(c.dh()?),
        "link" => OsCommand::Link(c.quoted()?.into(), c.quoted()?.into()),
        "lseek" => {
            let fd = c.fd()?;
            let off = c.int()?;
            let w = c.word()?;
            let whence: SeekWhence =
                w.parse().map_err(|_| c.err(format!("unknown whence {w:?}")))?;
            OsCommand::Lseek(fd, off, whence)
        }
        "lstat" => OsCommand::Lstat(c.quoted()?.into()),
        "mkdir" => OsCommand::Mkdir(c.quoted()?.into(), c.mode()?),
        "open" => {
            let p = c.quoted()?;
            let flags = c.flags()?;
            let mode = if c.at_end() { None } else { Some(c.mode()?) };
            OsCommand::Open(p.into(), flags, mode)
        }
        "opendir" => OsCommand::Opendir(c.quoted()?.into()),
        "pread" => {
            let fd = c.fd()?;
            let count = c.int_as::<usize>("count")?;
            let off = c.int()?;
            OsCommand::Pread(fd, count, off)
        }
        "pwrite" => {
            let fd = c.fd()?;
            let data = c.quoted()?.into_bytes();
            let off = c.int()?;
            OsCommand::Pwrite(fd, data, off)
        }
        "read" => OsCommand::Read(c.fd()?, c.int_as::<usize>("count")?),
        "readdir" => OsCommand::Readdir(c.dh()?),
        "readlink" => OsCommand::Readlink(c.quoted()?.into()),
        "rename" => OsCommand::Rename(c.quoted()?.into(), c.quoted()?.into()),
        "rewinddir" => OsCommand::Rewinddir(c.dh()?),
        "rmdir" => OsCommand::Rmdir(c.quoted()?.into()),
        "stat" => OsCommand::Stat(c.quoted()?.into()),
        "symlink" => OsCommand::Symlink(c.quoted()?.into(), c.quoted()?.into()),
        "truncate" => OsCommand::Truncate(c.quoted()?.into(), c.int()?),
        "umask" => OsCommand::Umask(c.mode()?),
        "unlink" => OsCommand::Unlink(c.quoted()?.into()),
        "write" => OsCommand::Write(c.fd()?, c.quoted()?.into_bytes()),
        "add_user_to_group" => {
            let uid = c.int_as::<u32>("uid")?;
            let gid = c.int_as::<u32>("gid")?;
            OsCommand::AddUserToGroup(Uid(uid), Gid(gid))
        }
        other => return Err(c.err(format!("unknown command {other:?}"))),
    };
    if !c.at_end() {
        return Err(c.err(format!("trailing input: {:?}", c.rest())));
    }
    Ok(cmd)
}

/// Parse a return-value line: an errno name or an `RV_*` form.
pub fn parse_return(text: &str, line: usize) -> Result<ErrorOrValue, ParseError> {
    parse_return_at(text, line, 0)
}

/// Like [`parse_return`] but with the column offset of `text` within the raw
/// source line, so error columns point into the line as written.
fn parse_return_at(text: &str, line: usize, col_base: usize) -> Result<ErrorOrValue, ParseError> {
    let trimmed = text.trim_start();
    let col_base = col_base + (text.len() - trimmed.len());
    let trimmed = trimmed.trim_end();
    if let Ok(e) = Errno::from_str(trimmed) {
        return Ok(ErrorOrValue::Error(e));
    }
    let mut c = Cursor::with_col_base(trimmed, line, col_base);
    let head = c.word()?;
    let value = match head {
        "RV_none" => RetValue::None,
        "RV_num" => RetValue::Num(c.delimited("(", Cursor::int)?),
        "RV_fd" => RetValue::Fd(Fd(c.delimited("(", |c| c.int_as("file descriptor"))?)),
        "RV_dh" => {
            RetValue::DirHandle(DirHandleId(c.delimited("(", |c| c.int_as("directory handle"))?))
        }
        "RV_bytes" => RetValue::Bytes(c.delimited("(", Cursor::quoted)?.into_bytes()),
        "RV_path" => RetValue::Path(c.delimited("(", Cursor::quoted)?),
        "RV_readdir" => RetValue::ReaddirEntry(Some(c.delimited("(", Cursor::quoted)?)),
        "RV_readdir_end" => RetValue::ReaddirEntry(None),
        "RV_stat" => {
            c.expect("{")?;
            c.expect("kind=")?;
            let kind_word = c.word()?;
            let kind = match kind_word {
                "FILE" => FileKind::Regular,
                "DIR" => FileKind::Directory,
                "SYMLINK" => FileKind::Symlink,
                other => return Err(c.err(format!("unknown file kind {other:?}"))),
            };
            c.expect(";")?;
            c.expect("size=")?;
            let size = c.int_as::<u64>("size")?;
            c.expect(";")?;
            c.expect("nlink=")?;
            let nlink = c.int_as::<u32>("nlink")?;
            c.expect(";")?;
            c.expect("mode=")?;
            let mode = c.mode()?;
            c.expect(";")?;
            c.expect("uid=")?;
            let uid = c.int_as::<u32>("uid")?;
            c.expect(";")?;
            c.expect("gid=")?;
            let gid = c.int_as::<u32>("gid")?;
            c.expect("}")?;
            RetValue::Stat(Box::new(Stat { kind, size, nlink, mode, uid: Uid(uid), gid: Gid(gid) }))
        }
        other => return Err(c.err(format!("unknown return value {other:?}"))),
    };
    if !c.at_end() {
        return Err(c.err(format!("trailing input: {:?}", c.rest())));
    }
    Ok(ErrorOrValue::Value(value))
}

/// Parse an optional `[pN]` process prefix; returns the pid, if tagged, and
/// the rest of the line.
fn parse_pid_prefix(text: &str) -> (Option<Pid>, &str) {
    let t = text.trim_start();
    if let Some(rest) = t.strip_prefix("[p") {
        if let Some(end) = rest.find(']') {
            if let Ok(n) = rest[..end].parse::<u32>() {
                return (Some(Pid(n)), rest[end + 1..].trim_start());
            }
        }
    }
    (None, t)
}

fn parse_process_directive(text: &str, line: usize) -> Result<Option<ScriptStep>, ParseError> {
    let Some(rest) = text.trim().strip_prefix("@process ") else {
        return Ok(None);
    };
    let num = |s: &str, what| s.parse::<u32>().map_err(|_| ParseError::new(line, what));
    match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["create", pid, uid, gid] => Ok(Some(ScriptStep::CreateProcess {
            pid: Pid(num(pid, "bad number")?),
            uid: Uid(num(uid, "bad number")?),
            gid: Gid(num(gid, "bad number")?),
        })),
        ["destroy", pid] => Ok(Some(ScriptStep::DestroyProcess { pid: Pid(num(pid, "bad pid")?) })),
        _ => Err(ParseError::new(line, format!("bad @process directive: {rest:?}"))),
    }
}

/// Walk the lines of a file headed `@type {kind}`. Blank lines, the header
/// and comments are handled here, a `# Test NAME` comment naming the file
/// and its group; every other line goes to `each` with its number and its
/// indentation. Returns the name and the group.
fn parse_lines<'a>(
    text: &'a str,
    kind: &str,
    mut each: impl FnMut(usize, usize, &'a str) -> Result<(), ParseError>,
) -> Result<(String, String), ParseError> {
    let (mut name, mut group) = (String::new(), String::new());
    let mut seen_type = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("@type") {
            let got = rest.trim();
            if got != kind {
                let message = format!("expected '@type {kind}', got {got:?}");
                return Err(ParseError::new(lineno, message));
            }
            seen_type = true;
        } else if let Some(comment) = line.strip_prefix('#') {
            if let Some(test) = comment.trim().strip_prefix("Test ") {
                name = test.trim().to_string();
                if group.is_empty() {
                    group = name.split("___").next().unwrap_or("misc").to_string();
                }
            }
        } else if !line.is_empty() {
            each(lineno, raw.len() - raw.trim_start().len(), line)?;
        }
    }
    if !seen_type {
        return Err(ParseError::new(1, format!("missing '@type {kind}' header")));
    }
    Ok((name, group))
}

/// Parse a complete script file.
pub fn parse_script(text: &str) -> Result<Script, ParseError> {
    parse_script_spanned(text).map(|(script, _)| script)
}

/// Parse a complete script file, also returning the 1-based source line of
/// each step (parallel to `script.steps`). Diagnostics tools use the spans
/// to anchor findings to the file the user actually wrote, where comments
/// and blank lines shift steps away from `step index + 1`.
pub fn parse_script_spanned(text: &str) -> Result<(Script, Vec<usize>), ParseError> {
    let (mut steps, mut linenos) = (Vec::new(), Vec::new());
    let (name, group) = parse_lines(text, "script", |lineno, leading, line| {
        let step = match parse_process_directive(line, lineno)? {
            Some(step) => step,
            None => {
                let (pid, rest) = parse_pid_prefix(line);
                let cmd = parse_command_at(rest, lineno, leading + (line.len() - rest.len()))?;
                ScriptStep::Call { pid: pid.unwrap_or(INITIAL_PID), cmd }
            }
        };
        steps.push(step);
        linenos.push(lineno);
        Ok(())
    })?;
    Ok((Script { name, group, steps }, linenos))
}

/// Parse a complete trace file.
///
/// A call line starts with its number, `<n>:`. A return line tagged `[pN]`
/// is pN's return. An untagged one answers the last call line before it,
/// and is an error if a return line came in between. A tagged return for a
/// process with no call in flight still parses: the checker, not the
/// parser, rejects it.
pub fn parse_trace(text: &str) -> Result<Trace, ParseError> {
    let mut trace = Trace::default();
    let mut pending_call: Option<Pid> = None;
    let (name, group) = parse_lines(text, "trace", |lineno, leading, line| {
        let call = line
            .split_once(':')
            .filter(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        let label = if let Some(step) = parse_process_directive(line, lineno)? {
            match step {
                ScriptStep::CreateProcess { pid, uid, gid } => OsLabel::Create(pid, uid, gid),
                ScriptStep::DestroyProcess { pid } => OsLabel::Destroy(pid),
                ScriptStep::Call { .. } => unreachable!("directives never produce calls"),
            }
        } else if let Some((_, rest)) = call {
            let (pid, rest) = parse_pid_prefix(rest);
            let pid = pid.unwrap_or(INITIAL_PID);
            pending_call = Some(pid);
            OsLabel::Call(pid, parse_command_at(rest, lineno, leading + (line.len() - rest.len()))?)
        } else {
            let (tag, rest) = parse_pid_prefix(line);
            let above = pending_call.take();
            let Some(pid) = tag.or(above) else {
                return Err(ParseError::new(lineno, "return value without a preceding call"));
            };
            let col = leading + (line.len() - rest.len());
            OsLabel::Return(pid, parse_return_at(rest, lineno, col)?)
        };
        trace.push_label(label);
        Ok(())
    })?;
    trace.name = name;
    trace.group = group;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_rename_script() {
        let text = r#"@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
"#;
        let s = parse_script(text).unwrap();
        assert_eq!(s.name, "rename___rename_emptydir___nonemptydir");
        assert_eq!(s.group, "rename");
        assert_eq!(s.call_count(), 4);
        match &s.steps[2] {
            ScriptStep::Call { cmd: OsCommand::Open(p, flags, Some(mode)), .. } => {
                assert_eq!(p, "nonemptydir/f");
                assert!(flags.contains(OpenFlags::O_CREAT));
                assert!(flags.contains(OpenFlags::O_WRONLY));
                assert_eq!(*mode, FileMode::new(0o666));
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn parse_trace_with_error_and_value_returns() {
        let text = r#"@type trace
# Test rename___x
1: mkdir "emptydir" 0o777
RV_none
3: rename "emptydir" "nonemptydir"
EPERM
"#;
        let t = parse_trace(text).unwrap();
        assert_eq!(t.call_count(), 2);
        assert_eq!(t.steps.len(), 4);
        match &t.steps[3].label {
            sibylfs_core::commands::OsLabel::Return(_, ErrorOrValue::Error(e)) => {
                assert_eq!(*e, Errno::EPERM)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_every_command_form() {
        let lines = [
            r#"chdir "/d""#,
            r#"chmod "/f" 0o644"#,
            r#"chown "/f" 1000 1000"#,
            "close (FD 3)",
            "closedir (DH 1)",
            r#"link "/a" "/b""#,
            "lseek (FD 3) -10 SEEK_END",
            r#"lstat "/f""#,
            r#"mkdir "/d" 0o777"#,
            r#"open "/f" [O_CREAT;O_RDWR] 0o644"#,
            r#"open "/f" [O_RDONLY]"#,
            r#"opendir "/d""#,
            "pread (FD 3) 100 5",
            r#"pwrite (FD 3) "data" 5"#,
            "read (FD 3) 100",
            "readdir (DH 1)",
            r#"readlink "/s""#,
            r#"rename "/a" "/b""#,
            "rewinddir (DH 1)",
            r#"rmdir "/d""#,
            r#"stat "/f""#,
            r#"symlink "target" "/s""#,
            r#"truncate "/f" 100"#,
            "umask 0o22",
            r#"unlink "/f""#,
            r#"write (FD 3) "hello\nworld""#,
            "add_user_to_group 1000 500",
        ];
        for l in lines {
            let cmd = parse_command(l, 1).unwrap_or_else(|e| panic!("failed on {l:?}: {e}"));
            // Round trip through Display and back.
            let printed = cmd.to_string();
            let reparsed = parse_command(&printed, 1)
                .unwrap_or_else(|e| panic!("round trip failed on {printed:?}: {e}"));
            assert_eq!(cmd, reparsed, "round trip mismatch for {l:?}");
        }
    }

    #[test]
    fn parse_return_values() {
        for (text, expect_err) in [
            ("RV_none", false),
            ("RV_num(42)", false),
            ("RV_num(-1)", false),
            ("RV_fd(3)", false),
            ("RV_dh(1)", false),
            (r#"RV_bytes("abc")"#, false),
            (r#"RV_path("/x")"#, false),
            (r#"RV_readdir("f")"#, false),
            ("RV_readdir_end", false),
            ("ENOENT", false),
            ("EWHATEVER", true),
            ("RV_gibberish", true),
        ] {
            let r = parse_return(text, 1);
            assert_eq!(r.is_err(), expect_err, "case {text:?}: {r:?}");
        }
        let stat = parse_return(
            "RV_stat {kind=DIR; size=0; nlink=2; mode=0o755; uid=0; gid=0}",
            1,
        )
        .unwrap();
        match stat {
            ErrorOrValue::Value(RetValue::Stat(s)) => {
                assert_eq!(s.kind, FileKind::Directory);
                assert_eq!(s.nlink, 2);
                assert_eq!(s.mode, FileMode::new(0o755));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "@type script\nmkdir \"/d\" 0o777\nbogus \"/x\"\n";
        let err = parse_script(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown command"));
    }

    #[test]
    fn multiprocess_script_round_trip() {
        let text = r#"@type script
# Test permissions___multiproc
add_user_to_group 1000 1000
@process create 2 1000 1000
[p2] mkdir "/d" 0o700
[p2] stat "/d"
@process destroy 2
"#;
        let s = parse_script(text).unwrap();
        assert_eq!(s.steps.len(), 5);
        assert!(matches!(s.steps[1], ScriptStep::CreateProcess { pid: Pid(2), .. }));
        assert!(matches!(
            s.steps[2],
            ScriptStep::Call { pid: Pid(2), cmd: OsCommand::Mkdir(..) }
        ));
        assert!(matches!(s.steps[4], ScriptStep::DestroyProcess { pid: Pid(2) }));
    }

    #[test]
    fn spanned_parse_tracks_source_lines() {
        let text = "@type script\n# Test t\n\nmkdir \"/d\" 0o777\n\n# comment\nstat \"/d\"\n@process destroy 1\n";
        let (s, spans) = parse_script_spanned(text).unwrap();
        assert_eq!(s.steps.len(), 3);
        assert_eq!(spans, vec![4, 7, 8]);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(parse_script("mkdir \"/d\" 0o777\n").is_err());
        assert!(parse_trace("1: mkdir \"/d\" 0o777\nRV_none\n").is_err());
    }

    #[test]
    fn out_of_range_integers_are_rejected() {
        // Each of these used to truncate silently through a bare `as` cast.
        for (text, what) in [
            ("read (FD 3) -1", "count"),
            ("pread (FD 3) -1 0", "count"),
            (r#"chown "/f" -1 0"#, "uid"),
            (r#"chown "/f" 0 -1"#, "gid"),
            (r#"chown "/f" 4294967296 0"#, "uid"),
            ("close (FD 4294967296)", "file descriptor"),
            ("closedir (DH -4294967296)", "directory handle"),
            ("add_user_to_group -1 0", "uid"),
            ("add_user_to_group 0 99999999999", "gid"),
        ] {
            let err = parse_command(text, 1)
                .expect_err(&format!("{text:?} should be out of range"));
            assert!(
                err.message.contains("out of range") && err.message.contains(what),
                "case {text:?}: {err}"
            );
        }
        for (text, what) in [
            ("RV_fd(4294967296)", "file descriptor"),
            ("RV_dh(-4294967296)", "directory handle"),
            ("RV_stat {kind=FILE; size=-1; nlink=1; mode=0o644; uid=0; gid=0}", "size"),
            ("RV_stat {kind=FILE; size=0; nlink=-1; mode=0o644; uid=0; gid=0}", "nlink"),
            ("RV_stat {kind=FILE; size=0; nlink=1; mode=0o644; uid=-1; gid=0}", "uid"),
            ("RV_stat {kind=FILE; size=0; nlink=1; mode=0o644; uid=0; gid=-1}", "gid"),
        ] {
            let err = parse_return(text, 1)
                .expect_err(&format!("{text:?} should be out of range"));
            assert!(
                err.message.contains("out of range") && err.message.contains(what),
                "case {text:?}: {err}"
            );
        }
        // In-range extremes still parse.
        assert!(parse_command("read (FD 3) 0", 1).is_ok());
        assert!(parse_command(r#"chown "/f" 4294967295 0"#, 1).is_ok());
        assert!(parse_command("lseek (FD 3) -10 SEEK_END", 1).is_ok(), "signed offsets stay legal");
        assert!(parse_return("RV_fd(-1)", 1).is_ok(), "RV_fd(-1) is a legal sentinel");
    }

    #[test]
    fn tagged_returns_bind_to_their_process() {
        // A tagged return for a process with no call in flight parses; the
        // checker, not the parser, rejects it.
        let t = parse_trace("@type trace\n1: mkdir \"/a\" 0o777\nRV_none\n[p3] RV_none\n").unwrap();
        assert_eq!(t.steps[2].label, OsLabel::Return(Pid(3), ErrorOrValue::Value(RetValue::None)));
        // An untagged return answers the last call only if no return came since.
        let err = parse_trace("@type trace\n1: [p2] mkdir \"/a\" 0o777\n[p1] RV_none\nRV_none\n")
            .unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (4, "return value without a preceding call"));
        // Error columns count the tag.
        let trace = "@type trace\n1: stat \"/f\"\n[p2] RV_fd(4294967296)\n";
        let err = parse_trace(trace).unwrap_err();
        let raw_line = trace.lines().nth(2).unwrap();
        assert_eq!(&raw_line[err.col - 1..err.col + 1], "42", "col {} in {raw_line:?}", err.col);
    }

    #[test]
    fn errors_carry_columns() {
        // Column points at the offending token in the raw source line,
        // counting the `[pN]` prefix and leading indentation.
        let text = "@type script\n# Test t\n[p2] chown \"/f\" -5 0\n";
        let err = parse_script(text).unwrap_err();
        assert_eq!(err.line, 3);
        let raw_line = text.lines().nth(2).unwrap();
        assert_eq!(&raw_line[err.col - 1..err.col + 1], "-5", "col {} in {raw_line:?}", err.col);
        assert!(err.to_string().starts_with("line 3:"), "{err}");

        // Same through the trace parser, with the call-tag prefix.
        let trace = "@type trace\n# Test t\n1: read (FD 3) -1\nRV_none\n";
        let err = parse_trace(trace).unwrap_err();
        assert_eq!(err.line, 3);
        let raw_line = trace.lines().nth(2).unwrap();
        assert_eq!(&raw_line[err.col - 1..err.col + 1], "-1", "col {} in {raw_line:?}", err.col);

        // Return lines too.
        let trace = "@type trace\n# Test t\n1: stat \"/f\"\n  RV_stat {kind=FILE; size=-1; nlink=1; mode=0o644; uid=0; gid=0}\n";
        let err = parse_trace(trace).unwrap_err();
        assert_eq!(err.line, 4);
        let raw_line = trace.lines().nth(3).unwrap();
        assert_eq!(&raw_line[err.col - 1..err.col + 1], "-1", "col {} in {raw_line:?}", err.col);
    }
}
