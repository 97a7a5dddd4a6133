//! The permissions trait: users, groups, and access checks.
//!
//! Permission behaviour is a *trait* mixed into the core model (§4): when the
//! trait is disabled ("core without permissions") every object is accessible
//! to every user and no permission errors arise. When enabled, the classic
//! owner/group/other check is applied, with the root user bypassing all
//! checks.

use std::collections::{BTreeMap, BTreeSet};

use crate::flags::FileMode;
use crate::state::Meta;
use crate::types::{Gid, Uid, ROOT_UID};

/// The access being requested on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read access.
    Read,
    /// Write access.
    Write,
    /// Execute access on files, search access on directories.
    Exec,
}

/// The credentials a process presents when accessing the file system.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Creds {
    /// Effective user id.
    pub euid: Uid,
    /// Effective group id.
    pub egid: Gid,
    /// Supplementary groups the user belongs to.
    pub groups: BTreeSet<Gid>,
}

impl Creds {
    /// Credentials for the root user.
    pub fn root() -> Creds {
        Creds { euid: ROOT_UID, egid: Gid(0), groups: BTreeSet::new() }
    }

    /// Credentials for an ordinary user with a single primary group.
    pub fn user(euid: Uid, egid: Gid) -> Creds {
        Creds { euid, egid, groups: BTreeSet::new() }
    }

    /// Whether these credentials belong to the superuser.
    pub fn is_root(&self) -> bool {
        self.euid == ROOT_UID
    }

    /// Whether the credentials include the given group (primary or
    /// supplementary).
    pub fn in_group(&self, gid: Gid) -> bool {
        self.egid == gid || self.groups.contains(&gid)
    }
}

/// The system-wide group table: which users belong to which groups
/// (the `oss_group_table` of the Lem model).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct GroupTable {
    members: BTreeMap<Gid, BTreeSet<Uid>>,
}

impl GroupTable {
    /// An empty group table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Add a user to a group.
    pub fn add(&mut self, uid: Uid, gid: Gid) {
        self.members.entry(gid).or_default().insert(uid);
    }

    /// Whether a user is a member of a group.
    pub fn is_member(&self, uid: Uid, gid: Gid) -> bool {
        self.members.get(&gid).map(|s| s.contains(&uid)).unwrap_or(false)
    }

    /// All groups a user belongs to.
    pub fn groups_of(&self, uid: Uid) -> BTreeSet<Gid> {
        self.members
            .iter()
            .filter(|(_, users)| users.contains(&uid))
            .map(|(gid, _)| *gid)
            .collect()
    }
}

/// Whether credentials `creds` grant `access` on an object with metadata
/// `meta`, following the POSIX owner/group/other algorithm.
///
/// Pass `creds = None` when the permissions trait is disabled: every access is
/// then allowed.
pub fn access_allowed(creds: Option<&Creds>, meta: &Meta, access: Access) -> bool {
    let Some(creds) = creds else { return true };
    if creds.is_root() {
        // Root bypasses permission checks. (Strictly, execute on a regular
        // file requires some execute bit even for root, but no call in the
        // model's scope executes files.)
        return true;
    }
    let mode = meta.mode;
    let (r, w, x) = if creds.euid == meta.uid {
        (FileMode::S_IRUSR, FileMode::S_IWUSR, FileMode::S_IXUSR)
    } else if creds.in_group(meta.gid) {
        (FileMode::S_IRGRP, FileMode::S_IWGRP, FileMode::S_IXGRP)
    } else {
        (FileMode::S_IROTH, FileMode::S_IWOTH, FileMode::S_IXOTH)
    };
    match access {
        Access::Read => mode.has(r),
        Access::Write => mode.has(w),
        Access::Exec => mode.has(x),
    }
}

/// Whether `creds` may change the metadata (mode, ownership) of an object:
/// only the owner or root may.
pub fn may_change_meta(creds: Option<&Creds>, meta: &Meta) -> bool {
    match creds {
        None => true,
        Some(c) => c.is_root() || c.euid == meta.uid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FileKind;

    fn meta(mode: u32, uid: u32, gid: u32) -> Meta {
        let _ = FileKind::Regular;
        Meta::new(FileMode::new(mode), Uid(uid), Gid(gid))
    }

    #[test]
    fn disabled_permissions_allow_everything() {
        let m = meta(0o000, 1, 1);
        for a in [Access::Read, Access::Write, Access::Exec] {
            assert!(access_allowed(None, &m, a));
        }
    }

    #[test]
    fn root_bypasses_checks() {
        let m = meta(0o000, 1000, 1000);
        let root = Creds::root();
        assert!(access_allowed(Some(&root), &m, Access::Write));
    }

    #[test]
    fn owner_class_selected_for_owner() {
        let m = meta(0o700, 1000, 1000);
        let owner = Creds::user(Uid(1000), Gid(2000));
        assert!(access_allowed(Some(&owner), &m, Access::Read));
        assert!(access_allowed(Some(&owner), &m, Access::Write));
        assert!(access_allowed(Some(&owner), &m, Access::Exec));
        // Owner class is used even if it grants *less* than other classes.
        let m2 = meta(0o077, 1000, 1000);
        assert!(!access_allowed(Some(&owner), &m2, Access::Read));
    }

    #[test]
    fn group_class_for_group_members() {
        let m = meta(0o040, 1, 500);
        let mut member = Creds::user(Uid(1000), Gid(10));
        assert!(!access_allowed(Some(&member), &m, Access::Read));
        member.groups.insert(Gid(500));
        assert!(access_allowed(Some(&member), &m, Access::Read));
        assert!(!access_allowed(Some(&member), &m, Access::Write));
    }

    #[test]
    fn other_class_for_strangers() {
        let m = meta(0o004, 1, 1);
        let stranger = Creds::user(Uid(9), Gid(9));
        assert!(access_allowed(Some(&stranger), &m, Access::Read));
        assert!(!access_allowed(Some(&stranger), &m, Access::Write));
    }

    #[test]
    fn meta_changes_restricted_to_owner_or_root() {
        let m = meta(0o777, 1000, 1000);
        assert!(may_change_meta(Some(&Creds::root()), &m));
        assert!(may_change_meta(Some(&Creds::user(Uid(1000), Gid(1))), &m));
        assert!(!may_change_meta(Some(&Creds::user(Uid(2000), Gid(1))), &m));
        assert!(may_change_meta(None, &m));
    }

    #[test]
    fn group_table_membership() {
        let mut gt = GroupTable::new();
        gt.add(Uid(5), Gid(100));
        gt.add(Uid(5), Gid(200));
        gt.add(Uid(6), Gid(100));
        assert!(gt.is_member(Uid(5), Gid(100)));
        assert!(!gt.is_member(Uid(6), Gid(200)));
        assert_eq!(gt.groups_of(Uid(5)).len(), 2);
    }
}
