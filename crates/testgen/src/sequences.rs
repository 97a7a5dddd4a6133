//! Hand-written test scripts for behaviour that is inherently sequential:
//! descriptor I/O (`read`/`write`/`pread`/`pwrite`/`lseek`), directory
//! iteration under modification, permissions with multiple processes, and the
//! specific defect scenarios reported in §7.3 of the paper.
//!
//! Because the oracle binds whatever descriptor number the implementation
//! returns, these scripts rely on the conventional allocation order (the
//! first descriptor opened by a fresh process is `(FD 3)`, the first
//! directory handle `(DH 1)`), which both the simulated implementations and
//! real systems follow.

use sibylfs_core::commands::OsCommand;
use sibylfs_core::flags::{FileMode, OpenFlags, SeekWhence};
use sibylfs_core::types::{DirHandleId, Fd, Gid, Pid, Uid};
use sibylfs_script::Script;

fn s(name: &str, group: &str) -> Script {
    Script::new(format!("{group}___{name}"), group)
}

const FD3: Fd = Fd(3);
const FD4: Fd = Fd(4);
const DH1: DirHandleId = DirHandleId(1);

fn mode(m: u32) -> FileMode {
    FileMode::new(m)
}

/// Sequential I/O scripts: write/read round trips, offsets, append mode,
/// short counts, `pread`/`pwrite`, `lseek` edge cases, `O_TRUNC`.
pub fn io_sequence_scripts() -> Vec<Script> {
    let mut out = Vec::new();

    {
        let mut sc = s("write_then_read_roundtrip", "read");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"hello world".to_vec()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Read(FD3, 5))
            .call(OsCommand::Read(FD3, 100))
            .call(OsCommand::Read(FD3, 10))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("read_at_eof_returns_empty", "read");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Read(FD3, 16))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("read_bad_fd", "read");
        sc.call(OsCommand::Read(Fd(42), 16));
        out.push(sc);
    }
    {
        let mut sc = s("read_write_only_fd", "read");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Read(FD3, 4));
        out.push(sc);
    }
    {
        let mut sc = s("write_read_only_fd", "write");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Open("f".into(), OpenFlags::O_RDONLY, None))
            .call(OsCommand::Write(FD4, b"nope".to_vec()));
        out.push(sc);
    }
    {
        let mut sc = s("write_zero_bytes_bad_fd", "write");
        sc.call(OsCommand::Write(Fd(42), Vec::new()));
        out.push(sc);
    }
    {
        let mut sc = s("sparse_write_via_lseek", "write");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Lseek(FD3, 100, SeekWhence::Set))
            .call(OsCommand::Write(FD3, b"tail".to_vec()))
            .call(OsCommand::Stat("f".into()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Read(FD3, 4))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("append_mode_appends", "write");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"AAAA".to_vec()))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Open("f".into(), OpenFlags::O_RDWR | OpenFlags::O_APPEND, None))
            .call(OsCommand::Write(FD3, b"BB".to_vec()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Read(FD3, 10))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("pread_pwrite_do_not_move_offset", "pwrite");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"0123456789".to_vec()))
            .call(OsCommand::Pread(FD3, 4, 2))
            .call(OsCommand::Pwrite(FD3, b"XY".to_vec(), 4))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Cur))
            .call(OsCommand::Pread(FD3, 10, 0))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        // §7.3.3: pwrite on an O_APPEND descriptor — POSIX honours the offset,
        // Linux appends.
        let mut sc = s("pwrite_with_o_append", "pwrite");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR | OpenFlags::O_APPEND, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"AAAA".to_vec()))
            .call(OsCommand::Pwrite(FD3, b"BB".to_vec(), 0))
            .call(OsCommand::Pread(FD3, 10, 0))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        // §7.3.4: POSIX requires EINVAL for a negative pwrite offset.
        let mut sc = s("pwrite_negative_offset", "pwrite");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Pwrite(FD3, b"x".to_vec(), -1))
            .call(OsCommand::Pread(FD3, 4, -1))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("lseek_whence_and_errors", "lseek");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"0123456789".to_vec()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Lseek(FD3, 3, SeekWhence::Cur))
            .call(OsCommand::Lseek(FD3, -2, SeekWhence::End))
            .call(OsCommand::Lseek(FD3, -100, SeekWhence::Set))
            .call(OsCommand::Lseek(Fd(42), 0, SeekWhence::Set))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("o_trunc_discards_contents", "open");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"important".to_vec()))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Open("f".into(), OpenFlags::O_RDWR | OpenFlags::O_TRUNC, None))
            .call(OsCommand::Stat("f".into()))
            .call(OsCommand::Close(FD4));
        out.push(sc);
    }
    {
        let mut sc = s("unlinked_file_remains_readable_through_fd", "unlink");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"persist".to_vec()))
            .call(OsCommand::Unlink("f".into()))
            .call(OsCommand::Stat("f".into()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Read(FD3, 7))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        let mut sc = s("truncate_then_stat_sizes", "truncate");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"0123456789".to_vec()))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Truncate("f".into(), 4))
            .call(OsCommand::Stat("f".into()))
            .call(OsCommand::Truncate("f".into(), 20))
            .call(OsCommand::Stat("f".into()));
        out.push(sc);
    }
    out
}

/// Directory-iteration scripts, including modification of the directory while
/// a handle is open (the must/may semantics of §3).
pub fn readdir_scripts() -> Vec<Script> {
    let mut out = Vec::new();
    {
        let mut sc = s("list_all_entries", "readdir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/a".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/b".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/c".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Closedir(DH1));
        out.push(sc);
    }
    {
        let mut sc = s("empty_dir_reports_end", "readdir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Closedir(DH1));
        out.push(sc);
    }
    {
        let mut sc = s("entry_removed_while_open", "readdir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/a".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/b".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Rmdir("d/a".into()))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Closedir(DH1));
        out.push(sc);
    }
    {
        let mut sc = s("entry_added_while_open", "readdir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/a".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Mkdir("d/b".into(), mode(0o777)))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Closedir(DH1));
        out.push(sc);
    }
    {
        let mut sc = s("rewinddir_resets_stream", "rewinddir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/a".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Mkdir("d/b".into(), mode(0o777)))
            .call(OsCommand::Rewinddir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Readdir(DH1))
            .call(OsCommand::Closedir(DH1));
        out.push(sc);
    }
    {
        let mut sc = s("bad_handle_operations", "closedir");
        sc.call(OsCommand::Readdir(DirHandleId(9)))
            .call(OsCommand::Rewinddir(DirHandleId(9)))
            .call(OsCommand::Closedir(DirHandleId(9)));
        out.push(sc);
    }
    out
}

/// Multi-process scripts exercising ownership and permissions (§6.3 notes
/// that interleaved calls from multiple processes are important precisely for
/// permissions testing).
pub fn permission_scripts() -> Vec<Script> {
    let mut out = Vec::new();
    let user = (Uid(1000), Gid(1000));
    let other = (Uid(2000), Gid(2000));
    {
        let mut sc = s("private_dir_blocks_other_users", "permissions");
        sc.call(OsCommand::Mkdir("private".into(), mode(0o700)))
            .call(OsCommand::Chown("private".into(), user.0, user.1))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Opendir("private".into()))
            .call_as(Pid(2), OsCommand::Open("private/f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call_as(Pid(2), OsCommand::Stat("private/f".into()))
            .destroy_process(Pid(2));
        out.push(sc);
    }
    {
        let mut sc = s("owner_can_use_own_dir", "permissions");
        sc.call(OsCommand::Mkdir("home".into(), mode(0o755)))
            .call(OsCommand::Mkdir("home/user".into(), mode(0o700)))
            .call(OsCommand::Chown("home/user".into(), user.0, user.1))
            .create_process(Pid(2), user.0, user.1)
            .call_as(Pid(2), OsCommand::Open("home/user/f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o600))))
            .call_as(Pid(2), OsCommand::Write(FD3, b"mine".to_vec()))
            .call_as(Pid(2), OsCommand::Close(FD3))
            .call_as(Pid(2), OsCommand::Stat("home/user/f".into()))
            .destroy_process(Pid(2));
        out.push(sc);
    }
    {
        let mut sc = s("group_membership_grants_group_bits", "permissions");
        sc.call(OsCommand::AddUserToGroup(other.0, Gid(500)))
            .call(OsCommand::Mkdir("shared".into(), mode(0o770)))
            .call(OsCommand::Chown("shared".into(), user.0, Gid(500)))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Open("shared/f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o660))))
            .destroy_process(Pid(2))
            .create_process(Pid(3), Uid(3000), Gid(3000))
            .call_as(Pid(3), OsCommand::Open("shared/g".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o660))))
            .destroy_process(Pid(3));
        out.push(sc);
    }
    {
        let mut sc = s("umask_applies_to_creation", "umask");
        sc.call(OsCommand::Umask(mode(0o077)))
            .call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Stat("d".into()))
            .call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o666))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Stat("f".into()))
            .call(OsCommand::Umask(mode(0o022)));
        out.push(sc);
    }
    {
        let mut sc = s("chmod_then_access_denied", "permissions");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Chown("d".into(), user.0, user.1))
            .call(OsCommand::Chmod("d".into(), mode(0o000)))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Stat("d/x".into()))
            .call_as(Pid(2), OsCommand::Open("d/x".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .destroy_process(Pid(2));
        out.push(sc);
    }
    out
}

/// Scripts that directly target the defect scenarios of §7.3, so that
/// `sibylfs survey` reproduces each finding.
pub fn defect_scenario_scripts() -> Vec<Script> {
    let mut out = Vec::new();
    {
        // The paper's running example (Figs. 2–4): renaming an empty directory
        // onto a non-empty one. SSHFS answers EPERM where only EEXIST or
        // ENOTEMPTY are allowed.
        let mut sc = s("rename_emptydir___nonemptydir", "rename");
        sc.call(OsCommand::Mkdir("emptydir".into(), mode(0o777)))
            .call(OsCommand::Mkdir("nonemptydir".into(), mode(0o777)))
            .call(OsCommand::Open(
                "nonemptydir/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(mode(0o666)),
            ))
            .call(OsCommand::Rename("emptydir".into(), "nonemptydir".into()));
        out.push(sc);
    }
    {
        // Fig. 8: the OpenZFS-on-OS X disconnected-directory scenario.
        let mut sc = s("create_in_deleted_cwd", "open");
        sc.call(OsCommand::Mkdir("deserted".into(), mode(0o700)))
            .call(OsCommand::Chdir("deserted".into()))
            .call(OsCommand::Rmdir("../deserted".into()))
            .call(OsCommand::Open("party".into(), OpenFlags::O_CREAT | OpenFlags::O_RDONLY, Some(mode(0o600))));
        out.push(sc);
    }
    {
        // §7.3.2 Invariants: O_CREAT|O_DIRECTORY|O_EXCL on a symlink to a dir.
        let mut sc = s("creat_excl_directory_on_symlink", "open");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Symlink("d".into(), "s".into()))
            .call(OsCommand::Open("s".into(), OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_DIRECTORY, Some(mode(0o644))))
            .call(OsCommand::Lstat("s".into()));
        out.push(sc);
    }
    {
        // §7.3.5 posixovl: rename-based hard-link churn.
        let mut sc = s("rename_hard_link_churn", "rename");
        sc.call(OsCommand::Open("a".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, vec![7u8; 1024]))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Link("a".into(), "l".into()))
            .call(OsCommand::Open("b".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD4))
            .call(OsCommand::Rename("a".into(), "b".into()))
            .call(OsCommand::Stat("b".into()))
            .call(OsCommand::Unlink("b".into()))
            .call(OsCommand::Stat("l".into()));
        out.push(sc);
    }
    {
        // §7.3.4 old Linux HFS+: chmod support.
        let mut sc = s("chmod_supported", "chmod");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Chmod("f".into(), mode(0o600)))
            .call(OsCommand::Stat("f".into()));
        out.push(sc);
    }
    {
        // §7.3.4 OpenZFS 0.6.3: O_APPEND must seek to end before writing.
        let mut sc = s("o_append_seeks_to_end", "write");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR | OpenFlags::O_APPEND, Some(mode(0o644))))
            .call(OsCommand::Write(FD3, b"AAAA".to_vec()))
            .call(OsCommand::Lseek(FD3, 0, SeekWhence::Set))
            .call(OsCommand::Write(FD3, b"BB".to_vec()))
            .call(OsCommand::Pread(FD3, 6, 0))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        // §7.3.2 Core behaviour: directory and file link counts.
        let mut sc = s("link_counts_visible_in_stat", "stat");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Mkdir("d/sub".into(), mode(0o777)))
            .call(OsCommand::Stat("d".into()))
            .call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Link("f".into(), "g".into()))
            .call(OsCommand::Stat("f".into()));
        out.push(sc);
    }
    {
        // §7.3.2: hard link to a symlink (implementation-defined).
        let mut sc = s("hard_link_to_symlink", "link");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Symlink("f".into(), "s".into()))
            .call(OsCommand::Link("s".into(), "l".into()))
            .call(OsCommand::Lstat("l".into()));
        out.push(sc);
    }
    {
        // Symlink permission bits are platform-specific.
        let mut sc = s("symlink_mode_reported_by_lstat", "symlink");
        sc.call(OsCommand::Symlink("anywhere".into(), "s".into()))
            .call(OsCommand::Lstat("s".into()));
        out.push(sc);
    }
    out
}

/// Additional hand-written scripts targeting specification clauses that the
/// combinatorial groups do not reach (long names, symlink edge cases,
/// permission-denied opens and metadata changes, lseek overflow), keeping the
/// model coverage figure close to the paper's 98% (§7.2).
pub fn coverage_gap_scripts() -> Vec<Script> {
    let mut out = Vec::new();
    let user = (Uid(1000), Gid(1000));
    let other = (Uid(2000), Gid(2000));
    {
        // Component name longer than NAME_MAX and a path longer than PATH_MAX.
        let long_name = "n".repeat(300);
        let long_path = format!("/{}", "d/".repeat(2200));
        let mut sc = s("name_and_path_too_long", "stat");
        sc.call(OsCommand::Stat(format!("/{long_name}").into()))
            .call(OsCommand::Mkdir(format!("/{long_name}").into(), mode(0o777)))
            .call(OsCommand::Stat(long_path.into()));
        out.push(sc);
    }
    {
        // A symlink with an empty target cannot be created on Linux, so build
        // the equivalent state through a symlink whose target disappears and
        // then shrink it by re-creating; exercised here via readlink/stat on a
        // symlink chain that ends in an empty-target error from resolution.
        let mut sc = s("symlink_chains_and_empty_target", "symlink");
        sc.call(OsCommand::Symlink("".into(), "empty".into()))
            .call(OsCommand::Symlink("hop2".into(), "hop1".into()))
            .call(OsCommand::Symlink("hop3".into(), "hop2".into()))
            .call(OsCommand::Symlink("target".into(), "hop3".into()))
            .call(OsCommand::Mkdir("target".into(), mode(0o777)))
            .call(OsCommand::Stat("hop1".into()))
            .call(OsCommand::Readlink("hop1".into()));
        out.push(sc);
    }
    {
        // Permission-denied opens: read and write access against a 0o000 file
        // owned by another user.
        let mut sc = s("open_permission_denied", "open");
        sc.call(OsCommand::Open("secret".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o600))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Chown("secret".into(), user.0, user.1))
            .call(OsCommand::Chmod("secret".into(), mode(0o600)))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Open("secret".into(), OpenFlags::O_RDONLY, None))
            .call_as(Pid(2), OsCommand::Open("secret".into(), OpenFlags::O_WRONLY, None))
            .call_as(Pid(2), OsCommand::Truncate("secret".into(), 4))
            .destroy_process(Pid(2));
        out.push(sc);
    }
    {
        // A directory without read permission: opendir and read-only open fail
        // with EACCES; chdir into a directory without search permission.
        let mut sc = s("dir_permission_denied", "opendir");
        sc.call(OsCommand::Mkdir("vault".into(), mode(0o700)))
            .call(OsCommand::Chown("vault".into(), user.0, user.1))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Opendir("vault".into()))
            .call_as(Pid(2), OsCommand::Open("vault".into(), OpenFlags::O_RDONLY, None))
            .call_as(Pid(2), OsCommand::Chdir("vault".into()))
            .destroy_process(Pid(2));
        out.push(sc);
    }
    {
        // Metadata changes by a non-owner (EPERM), a group change by the
        // owner to a group they do *not* belong to (implementation-defined:
        // Linux refuses), and one to a group they do belong to (must
        // succeed).
        let mut sc = s("chmod_chown_by_non_owner", "chmod");
        sc.call(OsCommand::AddUserToGroup(user.0, Gid(888)))
            .call(OsCommand::Open("theirs".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Chown("theirs".into(), user.0, user.1))
            .create_process(Pid(2), other.0, other.1)
            .call_as(Pid(2), OsCommand::Chmod("theirs".into(), mode(0o777)))
            .call_as(Pid(2), OsCommand::Chown("theirs".into(), other.0, other.1))
            .destroy_process(Pid(2))
            .create_process(Pid(3), user.0, user.1)
            .call_as(Pid(3), OsCommand::Chown("theirs".into(), user.0, Gid(777)))
            .call_as(Pid(3), OsCommand::Chown("theirs".into(), user.0, Gid(888)))
            .destroy_process(Pid(3));
        out.push(sc);
    }
    {
        // lseek overflow and invalid-access-mode open.
        let mut sc = s("lseek_overflow_and_bad_open_flags", "lseek");
        sc.call(OsCommand::Open("f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))))
            .call(OsCommand::Lseek(FD3, i64::MAX, SeekWhence::Set))
            .call(OsCommand::Lseek(FD3, i64::MAX, SeekWhence::Cur))
            .call(OsCommand::Open("g".into(), OpenFlags::O_WRONLY | OpenFlags::O_RDWR | OpenFlags::O_CREAT, Some(mode(0o644))))
            .call(OsCommand::Close(FD3));
        out.push(sc);
    }
    {
        // pread on a descriptor opened on a directory.
        let mut sc = s("pread_directory_fd", "pread");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Opendir("d".into()))
            .call(OsCommand::Open("d".into(), OpenFlags::O_RDONLY, None))
            .call(OsCommand::Pread(FD3, 16, 0))
            .call(OsCommand::Read(FD3, 16));
        out.push(sc);
    }
    {
        // The posixovl/VFAT storage-leak stress (§7.3.5): repeatedly create a
        // data file, rename it over another name, and delete it. On a correct
        // file system the volume never fills; with the leak the hard-link
        // count never reaches zero and the volume reports ENOSPC even though
        // it is effectively empty.
        let mut sc = s("storage_leak_churn", "write");
        let mut fd = 3;
        for i in 0..40 {
            let a = format!("a{i}");
            let b = format!("b{i}");
            sc.call(OsCommand::Open(a.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(mode(0o644))));
            sc.call(OsCommand::Write(Fd(fd), vec![b'z'; 8192]));
            sc.call(OsCommand::Close(Fd(fd)));
            fd += 1;
            sc.call(OsCommand::Open(b.as_str().into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))));
            sc.call(OsCommand::Close(Fd(fd)));
            fd += 1;
            sc.call(OsCommand::Rename(a.into(), b.as_str().into()));
            sc.call(OsCommand::Unlink(b.into()));
        }
        out.push(sc);
    }
    out
}

/// The scripts that exposed the six model/simulation gaps found by the
/// real-host differential harness (the previous PR's findings), promoted to
/// named regression fixtures. Each is paired with the specification branch it
/// must exercise, so `tests/model_gap_regressions.rs` can assert both that the
/// behaviour still checks clean *and* that the fixed clause is still the one
/// being hit. The exploration engine also seeds its corpus from these —
/// they are exactly the "known-hard" inputs that once distinguished the model
/// from reality.
pub fn model_gap_scripts() -> Vec<(Script, &'static str)> {
    let mut out = Vec::new();
    {
        // Gap 1: O_CREAT|O_EXCL never follows the final symlink — even a
        // dangling symlink makes open fail with EEXIST instead of creating
        // the target.
        let mut sc = s("gap_creat_excl_dangling_symlink", "open");
        sc.call(OsCommand::Symlink("missing".into(), "s".into())).call(OsCommand::Open(
            "s".into(),
            OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_WRONLY,
            Some(mode(0o644)),
        ));
        out.push((sc, "open/creat_excl_on_symlink_eexist"));
    }
    {
        // Gap 2: O_CREAT|O_DIRECTORY on a missing path is a may-EINVAL
        // envelope (kernels ≥ 6.x reject the combination).
        let mut sc = s("gap_creat_with_o_directory", "open");
        sc.call(OsCommand::Open(
            "newdir".into(),
            OpenFlags::O_CREAT | OpenFlags::O_DIRECTORY | OpenFlags::O_RDONLY,
            Some(mode(0o755)),
        ));
        out.push((sc, "open/creat_with_o_directory_may_einval"));
    }
    {
        // Gap 3: O_CREAT on an existing regular file named with a trailing
        // slash fails with EISDIR (not ENOTDIR / success).
        let mut sc = s("gap_creat_trailing_slash_existing_file", "open");
        sc.call(OsCommand::Open(
            "f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Close(FD3))
        .call(OsCommand::Open("f/".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))));
        out.push((sc, "open/creat_trailing_slash_on_existing_file"));
    }
    {
        // Gap 4: chmod/chown of a regular file named with a trailing slash
        // fail with ENOTDIR.
        let mut sc = s("gap_trailing_slash_chmod_chown", "chmod");
        sc.call(OsCommand::Open(
            "f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Close(FD3))
        .call(OsCommand::Chmod("f/".into(), mode(0o600)))
        .call(OsCommand::Chown("f/".into(), Uid(0), Gid(0)));
        out.push((sc, "chmod/trailing_slash_on_file_enotdir"));
    }
    {
        // Gap 5: rmdir/unlink of `symlink/` (symlink-to-directory with a
        // trailing slash) is a may-ENOTDIR envelope.
        let mut sc = s("gap_symlink_trailing_slash_rmdir_unlink", "rmdir");
        sc.call(OsCommand::Mkdir("d".into(), mode(0o777)))
            .call(OsCommand::Symlink("d".into(), "s".into()))
            .call(OsCommand::Rmdir("s/".into()))
            .call(OsCommand::Unlink("s/".into()));
        out.push((sc, "common/symlink_with_trailing_slash_may_enotdir"));
    }
    {
        // Gap 6: a non-root owner may change a file's group only to a group
        // they belong to; changing it to a non-member group is an
        // implementation-defined envelope (Linux refuses with EPERM).
        let owner = (Uid(1000), Gid(1000));
        let mut sc = s("gap_chown_group_membership_envelope", "chown");
        sc.call(OsCommand::AddUserToGroup(owner.0, Gid(888)))
            .call(OsCommand::Open(
                "f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(mode(0o644)),
            ))
            .call(OsCommand::Close(FD3))
            .call(OsCommand::Chown("f".into(), owner.0, owner.1))
            .create_process(Pid(2), owner.0, owner.1)
            .call_as(Pid(2), OsCommand::Chown("f".into(), owner.0, Gid(888)))
            .call_as(Pid(2), OsCommand::Chown("f".into(), owner.0, Gid(777)))
            .destroy_process(Pid(2));
        out.push((sc, "chown/owner_changes_group_to_member_group"));
    }
    {
        // Gap 7 — found *by the exploration engine itself* (seed 42, worker 1,
        // iteration 60, shrunk to one call): rmdir of a path that ends in
        // ".." but whose prefix fails to resolve returns the resolution
        // error (ENOENT here), because real kernels resolve before rejecting
        // the trailing "..". The model's envelope now admits both orders.
        let mut sc = s("gap_rmdir_dotdot_after_failed_resolution", "rmdir");
        sc.call(OsCommand::Rmdir("../deserted/..".into()));
        out.push((sc, "rmdir/path_ends_in_dotdot_resolution_error"));
    }
    {
        // Gap 8 — also found by the exploration engine (as a crash, not a
        // verdict): a write after lseek to an extreme offset drove the eager
        // in-memory file stores into an i64::MAX-byte allocation. The model
        // and the simulation now agree on an EFBIG maximum-file-size
        // envelope (MAX_FILE_SIZE), as POSIX specifies and real kernels do
        // at s_maxbytes.
        // Only the pwrite spelling rides in the suite: a plain write after
        // lseek past the cap succeeds on a real kernel (whose limit is far
        // above the modelled one) and would dirty the host differential
        // harness, so that spelling is pinned sim-only in
        // `tests/model_gap_regressions.rs`. The offset stays 8 below
        // i64::MAX so `offset + count` cannot overflow. On a disk-backed
        // jail Linux answers the same EFBIG the model requires; on the
        // tmpfs jails the pooled executor prefers, s_maxbytes is i64::MAX
        // and the pwrite succeeds — a documented known divergence in
        // `tests/host_differential.rs`.
        let mut sc = s("gap_pwrite_beyond_file_size_limit", "pwrite");
        sc.call(OsCommand::Open(
            "f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_RDWR,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Pwrite(FD3, b"boom".to_vec(), i64::MAX - 8));
        out.push((sc, "pwrite/beyond_file_size_limit_efbig"));
    }
    {
        // Gap 9 — found by the exploration engine: on Linux, pwrite to an
        // O_APPEND descriptor sends the data to EOF but must NOT move the
        // file offset (pwrite never does); the model used to advance it, so
        // a subsequent read wrongly expected EOF instead of the appended
        // bytes.
        let mut sc = s("gap_pwrite_append_keeps_offset", "pwrite");
        sc.call(OsCommand::Open(
            "f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_RDWR | OpenFlags::O_APPEND,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Pwrite(FD3, b"appended".to_vec(), 0))
        .call(OsCommand::Read(FD3, 8))
        .call(OsCommand::Close(FD3));
        out.push((sc, "pwrite/append_overrides_offset_linux_convention"));
    }
    {
        // Gap 10 — found by the exploration engine: rename with an absolute
        // source and a destination that resolves inside a *deleted* working
        // directory must fail with ENOENT (the Fig. 8 disconnected-cwd rule);
        // the simulation's rename was the one entry-creating operation
        // missing the check and quietly attached the entry to the dead
        // directory.
        let mut sc = s("gap_rename_into_deleted_cwd", "rename");
        sc.call(OsCommand::Open(
            "a".into(),
            OpenFlags::O_CREAT | OpenFlags::O_RDWR,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Mkdir("deserted".into(), mode(0o700)))
        .call(OsCommand::Chdir("deserted".into()))
        .call(OsCommand::Rmdir("../deserted".into()))
        .call(OsCommand::Rename("/a".into(), "b".into()));
        out.push((sc, "common/create_in_disconnected_dir_enoent"));
    }
    {
        // Gap 8b: the truncate spelling of the same limit.
        let mut sc = s("gap_truncate_beyond_file_size_limit", "truncate");
        sc.call(OsCommand::Open(
            "f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(mode(0o644)),
        ))
        .call(OsCommand::Close(FD3))
        .call(OsCommand::Truncate("f".into(), i64::MAX));
        out.push((sc, "truncate/length_beyond_file_size_limit"));
    }
    {
        // Gap 11 — the ENAMETOOLONG envelope, enforced at the name interner:
        // a component longer than NAME_MAX (255 bytes) must fail with
        // ENAMETOOLONG in the model, the simulation, and on the real kernel
        // alike, while a component of exactly NAME_MAX is legal. The
        // overlong-component index is computed once, when the path is parsed
        // and its components interned, and both resolvers consult it at the
        // position a kernel walking the path would notice — so an overlong
        // component *behind* a failing prefix still reports the prefix error
        // (the `open` below reports ENAMETOOLONG for the first component,
        // never ENOENT for the second). Asserted against the real kernel by
        // the host differential suite, which runs every gap fixture.
        let long = "n".repeat(256);
        let edge = "e".repeat(255);
        let mut sc = s("gap_component_longer_than_name_max", "mkdir");
        sc.call(OsCommand::Mkdir(format!("/{long}").into(), mode(0o777)))
            .call(OsCommand::Stat(format!("/{long}").into()))
            .call(OsCommand::Open(
                format!("/{long}/f").into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(mode(0o644)),
            ))
            .call(OsCommand::Mkdir(format!("/{edge}").into(), mode(0o777)))
            .call(OsCommand::Rmdir(format!("/{edge}").into()));
        out.push((sc, "path/name_too_long"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_handwritten_scripts_have_unique_names_and_calls() {
        let mut all = Vec::new();
        all.extend(io_sequence_scripts());
        all.extend(readdir_scripts());
        all.extend(permission_scripts());
        all.extend(defect_scenario_scripts());
        all.extend(coverage_gap_scripts());
        all.extend(model_gap_scripts().into_iter().map(|(sc, _)| sc));
        assert!(all.len() >= 36);
        let names: BTreeSet<_> = all.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), all.len());
        for sc in &all {
            assert!(sc.call_count() >= 1, "{}", sc.name);
        }
    }

    #[test]
    fn scripts_round_trip_through_the_text_format() {
        for sc in io_sequence_scripts().iter().chain(permission_scripts().iter()) {
            let text = sibylfs_script::render_script(sc);
            let parsed = sibylfs_script::parse_script(&text).unwrap();
            assert_eq!(&parsed, sc, "{}", sc.name);
        }
    }
}
