//! Per-object metadata: ownership and permission bits.
//!
//! No time is kept: no observed value carries a timestamp (`Stat` has no
//! time field), so a time could only tell apart states that no trace can.

use crate::flags::FileMode;
use crate::types::{Gid, Uid};

/// Metadata attached to every file and directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Meta {
    /// Permission bits.
    pub mode: FileMode,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
}

impl Meta {
    /// Metadata for a new object owned by `uid:gid` with the given mode.
    pub fn new(mode: FileMode, uid: Uid, gid: Gid) -> Meta {
        Meta { mode, uid, gid }
    }
}
