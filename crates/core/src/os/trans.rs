//! The transition function of the labelled transition system:
//! `os_trans : state → label → finite set of states` (§5).
//!
//! Nondeterminism is represented exactly as described in §3: a call first
//! moves the process into `InCall`, a τ step processes the call and leaves a
//! *pending return* (an error set, an exact value, or a constrained family of
//! values), and the `OS_RETURN` label resolves the nondeterminism against the
//! observed value. τ is the only step that processes a call, so a return
//! from a process still `InCall` matches nothing. No backtracking search is
//! ever required.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::commands::{ErrorOrValue, OsLabel, RetValue};
use crate::coverage::spec_point;
use crate::footprint::{footprint_of, return_effect_of, Footprint};
use crate::intern::Name;
use crate::flavor::SpecConfig;
use crate::fs_ops;
use crate::obs;
use crate::os::state_set::StateSet;
use crate::os::{FidTarget, OsState, Pending, ProcRunState, WriteAt};
use crate::types::{DirHandleId, Fd, Pid};

/// The sleep set attached to one tracked state: processes whose in-flight
/// call has already been explored from an earlier interleaving that this
/// state commutes with, paired with that call's [`Footprint`].
///
/// Invariant (the classic sleep-set invariant, extended across checker
/// labels): for every `(q, fp)` in a state's sleep set, `q`'s call is still
/// in flight, and every state reachable by processing it *first* from this
/// state is reached from some other tracked state too. Dispatching `q` from
/// here can therefore be skipped. The footprint is kept so later transitions
/// can *wake* `q` (drop it from the sleep set) when they stop commuting with
/// it.
pub type SleepSet = Vec<(Pid, Arc<Footprint>)>;

/// Apply one label to one state, handing every allowed next state to `sink`.
///
/// Emitting nothing means the label is not allowed from this state.
fn os_trans_sink(cfg: &SpecConfig, st: &OsState, label: &OsLabel, sink: &mut impl FnMut(OsState)) {
    match label {
        OsLabel::Create(pid, uid, gid) => {
            if st.procs.contains_key(pid) {
                spec_point("os/create_existing_pid_rejected");
                return;
            }
            spec_point("os/create_process");
            let mut new_st = st.clone();
            new_st.add_process(*pid, *uid, *gid);
            sink(new_st);
        }
        OsLabel::Destroy(pid) => {
            let Some(proc) = st.procs.get(pid) else {
                spec_point("os/destroy_unknown_pid_rejected");
                return;
            };
            if !matches!(proc.run_state, ProcRunState::Ready) {
                // A process cannot be destroyed in the middle of a call.
                spec_point("os/destroy_busy_pid_rejected");
                return;
            }
            spec_point("os/destroy_process");
            let mut new_st = st.clone();
            if let Some(p) = new_st.procs.remove(pid) {
                for fid in p.fds.values() {
                    new_st.fids.remove(fid);
                }
            }
            sink(new_st);
        }
        OsLabel::Call(pid, cmd) => {
            let Some(proc) = st.procs.get(pid) else {
                spec_point("os/call_from_unknown_pid_rejected");
                return;
            };
            if !matches!(proc.run_state, ProcRunState::Ready) {
                // The process is blocked until its previous call returns.
                spec_point("os/call_while_blocked_rejected");
                return;
            }
            spec_point("os/call_accepted");
            let mut new_st = st.clone();
            if let Some(p) = new_st.proc_mut(*pid) {
                p.run_state = ProcRunState::InCall(cmd.clone());
            }
            sink(new_st);
        }
        OsLabel::Tau => expand_calls_sink(cfg, st, sink),
        OsLabel::Return(pid, value) => {
            let Some(proc) = st.procs.get(pid) else {
                return;
            };
            match &proc.run_state {
                ProcRunState::Pending(pending) => {
                    if let Some(next) = match_pending(st, *pid, pending, value) {
                        sink(next);
                    }
                }
                // Only τ processes the call; its successors carry the return.
                ProcRunState::InCall(_) => {}
                ProcRunState::Ready => {
                    spec_point("os/return_without_call_rejected");
                }
            }
        }
    }
}

/// Apply one label to one state, returning every allowed next state, each
/// once.
///
/// An empty result means the label is not allowed from this state.
pub fn os_trans(cfg: &SpecConfig, st: &OsState, label: &OsLabel) -> Vec<OsState> {
    let mut out = StateSet::new();
    os_trans_sink(cfg, st, label, &mut |s| {
        out.insert(s);
    });
    out.into_states()
}

/// One τ step: for every process currently in a call, process that call and
/// emit the states with its pending return installed. The union over all
/// processes models the scheduler's freedom to pick any of them.
pub fn expand_calls_into(cfg: &SpecConfig, st: &OsState, out: &mut StateSet) {
    expand_calls_sink(cfg, st, &mut |s| {
        out.insert(s);
    });
}

/// [`expand_calls_into`], handing each state to `sink`.
fn expand_calls_sink(cfg: &SpecConfig, st: &OsState, sink: &mut impl FnMut(OsState)) {
    for (pid, proc) in &st.procs {
        if matches!(proc.run_state, ProcRunState::InCall(_)) {
            process_call_sink(cfg, st, *pid, sink);
        }
    }
}

/// Vector-returning wrapper over [`expand_calls_into`].
pub fn expand_calls(cfg: &SpecConfig, st: &OsState) -> Vec<OsState> {
    let mut out = StateSet::new();
    expand_calls_into(cfg, st, &mut out);
    out.into_states()
}

/// The states the checker tracks between two labels, each with its
/// [`SleepSet`]; the set keeps the two in sync. This is where footprint-based
/// partial-order reduction (POR, see `crates/core/DESIGN_POR.md`) lives, and
/// its five operations are the only ways the tracked set changes:
///
/// - [`close`](TrackedSet::close) closes it under τ steps, skipping the
///   dispatches the sleep sets show a sibling already covered;
/// - [`after`](TrackedSet::after) applies one observed label;
/// - [`match_lone_call`](TrackedSet::match_lone_call) applies a return whose
///   call is the only one in flight, as `close` then `after` would, without
///   building the closure;
/// - [`truncate`](TrackedSet::truncate) enforces a size bound;
/// - `From<StateSet>` starts from recovered or fresh states, nothing asleep.
///
/// Every interleaving order of commuting calls reaches equal states, so the
/// reduction never changes which states are tracked, only how many calls
/// are dispatched to find them. The deduplicating [`StateSet`] remains the
/// exact safety net: POR only prunes τ orderings, never invents states.
#[derive(Debug, Clone, Default)]
pub struct TrackedSet {
    states: StateSet,
    /// `sleeps[i]` belongs to `states.get(i)`.
    sleeps: Vec<SleepSet>,
}

impl From<StateSet> for TrackedSet {
    /// `states` with nothing asleep: recovered or fresh states carry no record
    /// of which interleavings a sibling covered.
    fn from(states: StateSet) -> TrackedSet {
        let sleeps = vec![SleepSet::new(); states.len()];
        TrackedSet { states, sleeps }
    }
}

impl TrackedSet {
    /// The tracked states, in insertion order.
    pub fn states(&self) -> &StateSet {
        &self.states
    }

    /// The sleep sets, parallel to [`states`](TrackedSet::states).
    pub fn sleep_sets(&self) -> &[SleepSet] {
        &self.sleeps
    }

    /// Number of tracked states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no state is tracked.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// See [`StateSet::take_dedup_hits`].
    pub fn take_dedup_hits(&mut self) -> u64 {
        self.states.take_dedup_hits()
    }

    /// Close the set under τ steps, in place: afterwards it contains every
    /// state reachable from a member by any sequence of internal steps,
    /// including the original members.
    ///
    /// States are expanded from a worklist in insertion order, and from each
    /// state the in-flight calls are processed in ascending pid order. This
    /// is a sleep-set exploration: each successor's sleep set records the
    /// earlier-processed calls its own call commutes with (per
    /// [`Footprint::commutes`]). A sleeping process is never expanded — the
    /// interleaving that runs it first was already explored from a sibling —
    /// so commuting calls are dispatched in one interleaving order instead of
    /// all `n!`. When a successor is already tracked, its sleep set is
    /// intersected with the new path's (a state reached two ways may only
    /// sleep what both ways may skip) and it is re-explored if that
    /// intersection woke anything.
    ///
    /// Footprints are computed only when some successor has to decide what
    /// to sleep on: with one call in flight and nothing asleep, none is
    /// computed and every state is expanded once, in insertion order.
    pub fn close(&mut self, cfg: &SpecConfig) {
        let TrackedSet { states, sleeps } = self;
        // Expansion/pruning tallies are kept in locals and flushed to the
        // global registry once per closure call: the loop below is the
        // checker's hottest path, and per-insert shared atomics would
        // ping-pong cache lines across pool workers.
        let len_before = states.len();
        let mut sleep_pruned: u64 = 0;

        // `known[i]` caches footprints of calls in flight in `states[i]`:
        // when a step with footprint `f` produces a successor, the cached
        // footprints of calls `f` commutes with remain valid there
        // (commutation means the step invalidated none of their recorded
        // reads — the same stability argument the sleep sets rest on), so
        // they are inherited instead of recomputed.
        let mut known: Vec<SleepSet> = vec![SleepSet::new(); states.len()];
        let mut queue: VecDeque<u32> = (0..states.len() as u32).collect();
        while let Some(i) = queue.pop_front() {
            let Some(st) = states.get(i as usize) else { continue };
            let st = st.clone();
            let cur_sleep = sleeps[i as usize].clone();
            let mut in_flight: u64 = 0;
            let awake: Vec<Pid> = st
                .procs
                .iter()
                .filter(|(pid, p)| {
                    let in_call = matches!(p.run_state, ProcRunState::InCall(_));
                    if in_call {
                        in_flight += 1;
                    }
                    in_call && !cur_sleep.iter().any(|(q, _)| q == *pid)
                })
                .map(|(pid, _)| *pid)
                .collect();
            // Each in-flight call skipped here is an expansion the sleep set
            // saved us (the interleaving running it first was explored from
            // a sibling).
            sleep_pruned += in_flight - awake.len() as u64;
            if awake.is_empty() {
                continue;
            }
            // `acc` is the sleep set handed to each successor in turn: the
            // transitions already explored from this state (inherited
            // sleepers plus earlier awake pids), to be filtered down to those
            // that commute with the successor's own transition.
            let mut acc = cur_sleep;
            for (k, &pid) in awake.iter().enumerate() {
                // The footprint only matters if some successor will have to
                // decide whether to sleep on this call: either `acc` is
                // non-empty (we must test commutation against it) or a later
                // awake pid will have this call in its `acc`.
                let need_fp = !acc.is_empty() || k + 1 < awake.len();
                let fp: Option<Arc<Footprint>> = if need_fp {
                    if let Some(cached) =
                        known[i as usize].iter().find(|(q, _)| *q == pid).map(|(_, f)| f.clone())
                    {
                        Some(cached)
                    } else {
                        match st.procs.get(&pid).map(|p| &p.run_state) {
                            Some(ProcRunState::InCall(cmd)) => {
                                let f = Arc::new(footprint_of(cfg, &st, pid, cmd));
                                known[i as usize].push((pid, f.clone()));
                                Some(f)
                            }
                            _ => None,
                        }
                    }
                } else {
                    None
                };
                let (succ_sleep, succ_known): (SleepSet, SleepSet) = match &fp {
                    Some(fp) => (
                        acc.iter().filter(|(_, qfp)| fp.commutes(qfp)).cloned().collect(),
                        known[i as usize]
                            .iter()
                            .filter(|(q, qfp)| *q != pid && fp.commutes(qfp))
                            .cloned()
                            .collect(),
                    ),
                    None => (SleepSet::new(), SleepSet::new()),
                };
                // Successors go straight into the main set — no scratch set,
                // and each is fingerprinted exactly once, at this insert.
                process_call_sink(cfg, &st, pid, &mut |succ| {
                    let (j, fresh) = states.insert_full(succ);
                    if fresh {
                        sleeps.push(succ_sleep.clone());
                        known.push(succ_known.clone());
                        queue.push_back(j as u32);
                    } else {
                        // Reached again along a different path: the state
                        // may only sleep what every path allows it to sleep.
                        // (The footprint cache needs no such intersection —
                        // a cached footprint is a fact about the state,
                        // sound however the state was reached — so the
                        // existing entries stand.)
                        let before = sleeps[j].len();
                        sleeps[j].retain(|(q, _)| succ_sleep.iter().any(|(q2, _)| q2 == q));
                        if sleeps[j].len() < before {
                            queue.push_back(j as u32);
                        }
                    }
                });
                if let Some(fp) = fp {
                    acc.push((pid, fp));
                }
            }
        }
        obs::m::TAU_STATES_EXPANDED_TOTAL.add((states.len() - len_before) as u64);
        obs::m::TAU_SLEEP_PRUNED_TOTAL.add(sleep_pruned);
    }

    /// The set after one observed label — a call, return, create or destroy;
    /// τ steps go through [`close`](TrackedSet::close): the union of every
    /// tracked state's next states.
    ///
    /// Each successor inherits its source state's sleep set: no such label
    /// is a step of a sleeping process (it is mid-call, so a call or destroy
    /// from it is rejected, and its return matches nothing until τ
    /// processes the call), and only a return touches the filesystem. A
    /// successor reached from several sources may only sleep what every
    /// source lets it sleep. A return can have an effect its τ step did not
    /// (a `write` applies its data at return time), so on a return the
    /// inherited sleepers that do not commute with that effect wake.
    pub fn after(&self, cfg: &SpecConfig, label: &OsLabel) -> TrackedSet {
        debug_assert!(!matches!(label, OsLabel::Tau), "τ steps go through `close`");
        let returning = match label {
            OsLabel::Return(pid, _) => Some(*pid),
            _ => None,
        };
        let mut out = TrackedSet::default();
        for (st, src) in self.states.iter().zip(&self.sleeps) {
            let effect =
                returning.filter(|_| !src.is_empty()).and_then(|pid| return_effect_of(st, pid));
            let kept: SleepSet;
            let sleep = match effect {
                Some(eff) => {
                    kept = src.iter().filter(|(_, qfp)| eff.commutes(qfp)).cloned().collect();
                    &kept
                }
                None => src,
            };
            // Successors are consumed by value: cloning would reset their
            // cached fingerprints and make `insert_full` recompute them.
            os_trans_sink(cfg, st, label, &mut |succ| {
                let (j, fresh) = out.states.insert_full(succ);
                if fresh {
                    out.sleeps.push(sleep.clone());
                } else {
                    out.sleeps[j].retain(|(q, _)| sleep.iter().any(|(q2, _)| q2 == q));
                }
            });
        }
        out
    }

    /// The set after `pid` returns `observed`, when `pid`'s call is the only
    /// one in flight: every tracked state has `pid` in its call, every other
    /// process is ready, and nothing sleeps. A call with nothing else in
    /// flight is its own persistent set, so no interleaving needs exploring:
    /// each state's call is dispatched once and every outcome is matched
    /// against `observed` as it is emitted, without building the closure or
    /// installing a pending return. The result holds the states
    /// [`close`](TrackedSet::close) then [`after`](TrackedSet::after) give,
    /// in the same order, with nothing asleep; it is empty when the return
    /// matches nothing.
    ///
    /// `None` when the call is not alone, and the caller closes the set.
    pub fn match_lone_call(
        &self,
        cfg: &SpecConfig,
        pid: Pid,
        observed: &ErrorOrValue,
    ) -> Option<TrackedSet> {
        let lone = self.sleeps.iter().all(SleepSet::is_empty)
            && self.states.iter().all(|st| {
                matches!(st.proc(pid).map(|p| &p.run_state), Some(ProcRunState::InCall(_)))
                    && st
                        .procs
                        .iter()
                        .all(|(q, p)| *q == pid || matches!(p.run_state, ProcRunState::Ready))
            });
        if !lone {
            return None;
        }
        let mut out = StateSet::new();
        for st in &self.states {
            process_and_return_sink(cfg, st, pid, observed, &mut |next| {
                out.insert(next);
            });
        }
        Some(TrackedSet::from(out))
    }

    /// Keep only the first `n` states and wake every sleeper: the dropped
    /// states may be the siblings that covered a survivor's skipped
    /// interleavings. A no-op when the set is already small enough.
    pub fn truncate(&mut self, n: usize) {
        if self.states.len() <= n {
            return;
        }
        self.states.truncate(n);
        self.sleeps.truncate(n);
        self.sleeps.iter_mut().for_each(SleepSet::clear);
    }
}

/// The τ-closure of a slice of states: [`TrackedSet::close`] with every
/// member starting awake, for callers that keep no sleep sets.
pub fn tau_closure(cfg: &SpecConfig, states: &[OsState]) -> Vec<OsState> {
    let mut tracked = TrackedSet::from(states.iter().cloned().collect::<StateSet>());
    tracked.close(cfg);
    tracked.states.into_states()
}

/// Process the call a single process has in flight, handing each state with
/// its pending return installed (one state for the error envelope, one per
/// success branch, one for "special" behaviour) to `sink`. Generic over the
/// sink so the closure can insert straight into its main set without a
/// scratch `StateSet` per expansion.
fn process_call_sink(cfg: &SpecConfig, st: &OsState, pid: Pid, sink: &mut impl FnMut(OsState)) {
    let Some(proc) = st.procs.get(&pid) else { return };
    let ProcRunState::InCall(cmd) = proc.run_state.clone() else { return };
    let outcome = fs_ops::dispatch(cfg, st, pid, &cmd);
    if !outcome.errors.is_empty() {
        let mut err_st = st.clone();
        if let Some(p) = err_st.proc_mut(pid) {
            p.run_state = ProcRunState::Pending(Pending::Errors(outcome.errors.clone()));
        }
        sink(err_st);
    }
    if !outcome.must_fail {
        for (succ_st, pending) in outcome.successes {
            let mut s = succ_st;
            if let Some(p) = s.proc_mut(pid) {
                p.run_state = ProcRunState::Pending(pending);
            }
            sink(s);
        }
    }
    if let Some(kind) = outcome.special {
        let mut sp_st = st.clone();
        if let Some(p) = sp_st.proc_mut(pid) {
            p.run_state = ProcRunState::Pending(Pending::Special(kind));
        }
        sink(sp_st);
    }
}

/// [`process_call_sink`] with each emitted state matched against `observed`
/// at once: `sink` gets the states [`match_pending`] gives for those that
/// match, in emission order. A success branch is updated in place, and the
/// error and special branches, which leave the state as it was, clone it
/// only when they match.
fn process_and_return_sink(
    cfg: &SpecConfig,
    st: &OsState,
    pid: Pid,
    observed: &ErrorOrValue,
    sink: &mut impl FnMut(OsState),
) {
    let Some(proc) = st.procs.get(&pid) else { return };
    let ProcRunState::InCall(cmd) = &proc.run_state else { return };
    let outcome = fs_ops::dispatch(cfg, st, pid, cmd);
    let ready = || {
        let mut next = st.clone();
        if let Some(p) = next.proc_mut(pid) {
            p.run_state = ProcRunState::Ready;
        }
        next
    };
    if matches!(observed, ErrorOrValue::Error(e) if outcome.errors.contains(e)) {
        sink(ready());
    }
    if !outcome.must_fail {
        for (mut next, pending) in outcome.successes {
            if resolve_pending(&mut next, pid, &pending, observed) {
                sink(next);
            }
        }
    }
    if outcome.special.is_some() {
        sink(ready());
    }
}

/// The distinct states [`process_call_sink`] emits, in order.
pub fn process_call(cfg: &SpecConfig, st: &OsState, pid: Pid) -> Vec<OsState> {
    let mut out = StateSet::new();
    process_call_sink(cfg, st, pid, &mut |s| {
        out.insert(s);
    });
    out.into_states()
}

/// Check an observed return value against a pending constraint and, when it
/// matches, apply its state update and mark the process ready again.
pub fn match_pending(
    st: &OsState,
    pid: Pid,
    pending: &Pending,
    observed: &ErrorOrValue,
) -> Option<OsState> {
    let mut new_st = st.clone();
    resolve_pending(&mut new_st, pid, pending, observed).then_some(new_st)
}

/// [`match_pending`] in place: whether `observed` matches `pending`, with
/// the match's state update applied to `new_st` and the process marked
/// ready when it does. On a mismatch `new_st` may be partly updated, and the
/// caller drops it.
fn resolve_pending(
    new_st: &mut OsState,
    pid: Pid,
    pending: &Pending,
    observed: &ErrorOrValue,
) -> bool {
    let matched = match (pending, observed) {
        (Pending::Errors(allowed), ErrorOrValue::Error(e)) => allowed.contains(e),
        (Pending::Errors(_), ErrorOrValue::Value(_)) => false,
        (Pending::Value(v), ErrorOrValue::Value(ov)) => v == ov,
        (Pending::Value(_), ErrorOrValue::Error(_)) => false,
        (
            Pending::StatValue { expected, check_mode, check_owner },
            ErrorOrValue::Value(RetValue::Stat(observed_stat)),
        ) => {
            let s = observed_stat.as_ref();
            s.kind == expected.kind
                && s.size == expected.size
                && s.nlink == expected.nlink
                && (!check_mode || s.mode == expected.mode)
                && (!check_owner || (s.uid == expected.uid && s.gid == expected.gid))
        }
        (Pending::StatValue { .. }, _) => false,
        (Pending::NewFd { fid }, ErrorOrValue::Value(RetValue::Fd(fd))) => {
            if fd.0 < 0 {
                false
            } else {
                let Some(proc) = new_st.proc_mut(pid) else { return false };
                if proc.fds.contains_key(fd) {
                    false
                } else {
                    proc.fds.insert(*fd, *fid);
                    true
                }
            }
        }
        (Pending::NewFd { .. }, _) => false,
        (Pending::NewDirHandle { handle }, ErrorOrValue::Value(RetValue::DirHandle(dh))) => {
            if dh.0 < 0 {
                false
            } else {
                let Some(proc) = new_st.proc_mut(pid) else { return false };
                if proc.dir_handles.contains_key(dh) {
                    false
                } else {
                    proc.dir_handles.insert(*dh, handle.clone());
                    true
                }
            }
        }
        (Pending::NewDirHandle { .. }, _) => false,
        (Pending::ReadData { fd, data }, ErrorOrValue::Value(RetValue::Bytes(observed_bytes))) => {
            let is_prefix = observed_bytes.len() <= data.len()
                && observed_bytes[..] == data[..observed_bytes.len()];
            // A read may return fewer bytes than requested, but returns zero
            // bytes only at end-of-file.
            let nonempty_ok = data.is_empty() || !observed_bytes.is_empty();
            if is_prefix && nonempty_ok {
                if let Some(fd) = fd {
                    if let Some(fid) = new_st.procs.get(&pid).and_then(|p| p.fds.get(fd)).copied()
                    {
                        if let Some(f) = new_st.fids.get_mut(&fid) {
                            f.offset += observed_bytes.len() as u64;
                        }
                    }
                }
                true
            } else {
                false
            }
        }
        (Pending::ReadData { .. }, _) => false,
        (Pending::WriteData { fd, data, at }, ErrorOrValue::Value(RetValue::Num(count))) => {
            let count = *count;
            let valid = if data.is_empty() {
                count == 0
            } else {
                count >= 1 && (count as usize) <= data.len()
            };
            if !valid {
                false
            } else {
                apply_write(new_st, pid, *fd, data, *at, count as usize);
                true
            }
        }
        (Pending::WriteData { .. }, _) => false,
        (Pending::ReaddirEntry { dh }, ErrorOrValue::Value(RetValue::ReaddirEntry(entry))) => {
            let Some(handle) = new_st.proc_mut(pid).and_then(|p| p.dir_handles.get_mut(dh)) else {
                return false;
            };
            match entry {
                // The observed name arrives as text; probing (not interning)
                // keeps foreign observation strings out of the table — a name
                // that was never interned cannot be a candidate.
                Some(name) => match Name::lookup(name) {
                    Some(sym) if handle.candidates().contains(&sym) => {
                        handle.note_returned(sym);
                        true
                    }
                    _ => false,
                },
                None => handle.may_finish(),
            }
        }
        (Pending::ReaddirEntry { .. }, _) => false,
        // Undefined/unspecified behaviour: any observation is accepted.
        (Pending::Special(_), _) => true,
    };
    if matched {
        if let Some(p) = new_st.proc_mut(pid) {
            p.run_state = ProcRunState::Ready;
        }
    }
    matched
}

/// Apply the observed prefix of a pending write to the file behind `fd`.
fn apply_write(st: &mut OsState, pid: Pid, fd: Fd, data: &[u8], at: WriteAt, count: usize) {
    let Some(fid) = st.procs.get(&pid).and_then(|p| p.fds.get(&fd)).copied() else { return };
    let Some(fid_state) = st.fids.get(&fid) else { return };
    let FidTarget::File(file) = fid_state.target else { return };
    let prefix = &data[..count];
    match at {
        WriteAt::Offset(off) => {
            st.heap.write_bytes(file, off, prefix);
            if let Some(f) = st.fids.get_mut(&fid) {
                f.offset = off + count as u64;
            }
        }
        WriteAt::Append => {
            let end = st.heap.file_size(file);
            st.heap.write_bytes(file, end, prefix);
            if let Some(f) = st.fids.get_mut(&fid) {
                f.offset = end + count as u64;
            }
        }
        WriteAt::AppendKeepOffset => {
            let end = st.heap.file_size(file);
            st.heap.write_bytes(file, end, prefix);
        }
        WriteAt::KeepOffset(off) => {
            st.heap.write_bytes(file, off, prefix);
        }
    }
}

/// Human-readable descriptions of the return values a pending constraint
/// allows — used for checker diagnostics ("allowed are only: …").
pub fn describe_pending(st: &OsState, pid: Pid, pending: &Pending) -> Vec<String> {
    match pending {
        Pending::Errors(errs) => errs.iter().map(|e| e.to_string()).collect(),
        Pending::Value(v) => vec![v.to_string()],
        Pending::StatValue { expected, check_mode, check_owner } => {
            let mut s = format!("RV_stat {expected}");
            if !check_mode {
                s.push_str(" (any mode)");
            }
            if !check_owner {
                s.push_str(" (any owner)");
            }
            vec![s]
        }
        Pending::NewFd { .. } => vec!["RV_fd(<any unused non-negative fd>)".to_string()],
        Pending::NewDirHandle { .. } => {
            vec!["RV_dh(<any unused non-negative handle>)".to_string()]
        }
        Pending::ReadData { data, .. } => {
            vec![format!(
                "RV_bytes(<non-empty prefix of {:?}, up to {} bytes>)",
                String::from_utf8_lossy(data),
                data.len()
            )]
        }
        Pending::WriteData { data, .. } => {
            if data.is_empty() {
                vec!["RV_num(0)".to_string()]
            } else {
                vec![format!("RV_num(1..={})", data.len())]
            }
        }
        Pending::ReaddirEntry { dh } => {
            let mut out = Vec::new();
            if let Some(handle) = st.procs.get(&pid).and_then(|p| p.dir_handles.get(dh)) {
                // Resolve symbols to text only here, at the diagnostics
                // boundary, and sort lexicographically so the rendered
                // "allowed" list is deterministic and human-ordered.
                let mut names: Vec<&'static str> =
                    handle.candidates().iter().map(|n| n.as_str()).collect();
                names.sort_unstable();
                for c in names {
                    out.push(format!("RV_readdir({c:?})"));
                }
                if handle.may_finish() {
                    out.push("RV_readdir_end".to_string());
                }
            }
            if out.is_empty() {
                out.push("RV_readdir_end".to_string());
            }
            out
        }
        Pending::Special(kind) => vec![format!("<any value: {kind:?} behaviour>")],
    }
}

/// The set of return values allowed for `pid` from a set of states (used by
/// the checker for diagnostics after τ-closure).
pub fn allowed_returns(st: &OsState, pid: Pid) -> Vec<String> {
    match st.procs.get(&pid).map(|p| &p.run_state) {
        Some(ProcRunState::Pending(p)) => describe_pending(st, pid, p),
        _ => Vec::new(),
    }
}

/// A canonical completion for a pending call, used by the checker to continue
/// after a non-conformant step ("continuing with EEXIST, ENOTEMPTY").
pub fn default_completion(st: &OsState, pid: Pid) -> Option<(ErrorOrValue, OsState)> {
    let proc = st.procs.get(&pid)?;
    let ProcRunState::Pending(pending) = &proc.run_state else { return None };
    let value = match pending {
        Pending::Errors(errs) => ErrorOrValue::Error(*errs.iter().next()?),
        Pending::Value(v) => ErrorOrValue::Value(v.clone()),
        Pending::StatValue { expected, .. } => {
            ErrorOrValue::Value(RetValue::Stat(Box::new(*expected)))
        }
        Pending::NewFd { .. } => {
            let fd = (0..).map(Fd).find(|fd| !proc.fds.contains_key(fd))?;
            ErrorOrValue::Value(RetValue::Fd(fd))
        }
        Pending::NewDirHandle { .. } => {
            let dh = (0..).map(DirHandleId).find(|dh| !proc.dir_handles.contains_key(dh))?;
            ErrorOrValue::Value(RetValue::DirHandle(dh))
        }
        Pending::ReadData { data, .. } => ErrorOrValue::Value(RetValue::Bytes(data.clone())),
        Pending::WriteData { data, .. } => {
            ErrorOrValue::Value(RetValue::Num(data.len() as i64))
        }
        Pending::ReaddirEntry { dh } => {
            let handle = proc.dir_handles.get(dh)?;
            // Lexicographically-first must entry: matches the pre-intern
            // behaviour (string-keyed sets iterated in byte order).
            match handle.must.iter().min_by_key(|n| n.as_str()) {
                Some(name) => {
                    ErrorOrValue::Value(RetValue::ReaddirEntry(Some(name.as_str().to_string())))
                }
                None => ErrorOrValue::Value(RetValue::ReaddirEntry(None)),
            }
        }
        Pending::Special(_) => ErrorOrValue::Value(RetValue::None),
    };
    let next = match_pending(st, pid, pending, &value)?;
    Some((value, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::errno::Errno;
    use crate::flags::{FileMode, OpenFlags};
    use crate::flavor::Flavor;
    use crate::types::INITIAL_PID;

    fn cfg() -> SpecConfig {
        SpecConfig::standard(Flavor::Linux)
    }

    fn initial() -> OsState {
        OsState::initial_with_process(&cfg(), INITIAL_PID)
    }

    /// The τ step that processes `pid`'s call, then its return: every state
    /// the return is allowed to reach.
    fn tau_then_return(cfg: &SpecConfig, st: &OsState, pid: Pid, ret: ErrorOrValue) -> Vec<OsState> {
        let ret = OsLabel::Return(pid, ret);
        let mut out = StateSet::new();
        for processed in process_call(cfg, st, pid) {
            out.extend(os_trans(cfg, &processed, &ret));
        }
        out.into_states()
    }

    /// Drive one call/return pair through os_trans, asserting the call is
    /// accepted.
    fn step(cfg: &SpecConfig, st: &OsState, cmd: OsCommand, ret: ErrorOrValue) -> Vec<OsState> {
        let called = os_trans(cfg, st, &OsLabel::Call(INITIAL_PID, cmd));
        assert_eq!(called.len(), 1);
        tau_then_return(cfg, &called[0], INITIAL_PID, ret)
    }

    #[test]
    fn a_return_before_tau_processes_the_call_matches_nothing() {
        let cfg = cfg();
        let called = os_trans(
            &cfg,
            &initial(),
            &OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))),
        )
        .remove(0);
        crate::coverage::scoped_begin();
        let next = os_trans(
            &cfg,
            &called,
            &OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None)),
        );
        let points = crate::coverage::scoped_end();
        assert!(next.is_empty());
        assert!(points.is_empty(), "the return dispatched the call: {points:?}");
    }

    #[test]
    fn call_then_matching_return_is_accepted() {
        let cfg = cfg();
        let st = initial();
        let next = step(
            &cfg,
            &st,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        assert_eq!(next.len(), 1);
        assert!(next[0].heap.lookup(next[0].heap.root(), "d").is_some());
    }

    #[test]
    fn non_allowed_error_is_rejected() {
        let cfg = cfg();
        let st = initial();
        // mkdir in an empty root cannot return EPERM.
        let next = step(
            &cfg,
            &st,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Error(Errno::EPERM),
        );
        assert!(next.is_empty());
    }

    #[test]
    fn allowed_error_from_envelope_is_accepted_and_leaves_state_unchanged() {
        let cfg = cfg();
        let st = initial();
        let next = step(
            &cfg,
            &st,
            OsCommand::Mkdir("/missing/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Error(Errno::ENOENT),
        );
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].heap, st.heap);
    }

    #[test]
    fn open_binds_whatever_fd_the_implementation_chose() {
        let cfg = cfg();
        let st = initial();
        let cmd = OsCommand::Open(
            "/f".into(),
            OpenFlags::O_CREAT | OpenFlags::O_RDWR,
            Some(FileMode::new(0o644)),
        );
        for fd in [3, 17, 0] {
            let next = step(&cfg, &st, cmd.clone(), ErrorOrValue::Value(RetValue::Fd(Fd(fd))));
            assert_eq!(next.len(), 1, "fd {fd} should be accepted");
            assert!(next[0].fd_entry(INITIAL_PID, Fd(fd)).is_some());
        }
        // A negative fd is never accepted.
        let next = step(&cfg, &st, cmd, ErrorOrValue::Value(RetValue::Fd(Fd(-1))));
        assert!(next.is_empty());
    }

    #[test]
    fn write_short_count_is_accepted_and_applied() {
        let cfg = cfg();
        let st = initial();
        let opened = step(
            &cfg,
            &st,
            OsCommand::Open(
                "/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(FileMode::new(0o644)),
            ),
            ErrorOrValue::Value(RetValue::Fd(Fd(3))),
        );
        let st = opened.into_iter().next().unwrap();
        // The implementation reports a short write of 3 of 5 bytes.
        let next = step(
            &cfg,
            &st,
            OsCommand::Write(Fd(3), b"hello".to_vec()),
            ErrorOrValue::Value(RetValue::Num(3)),
        );
        assert_eq!(next.len(), 1);
        let st = &next[0];
        let f = match st.heap.lookup(st.heap.root(), "f").unwrap() {
            crate::state::Entry::File(f) => f,
            _ => panic!(),
        };
        assert_eq!(st.heap.read_bytes(f, 0, 10), b"hel");
        // A count larger than requested is rejected.
        let next = step(
            &cfg,
            st,
            OsCommand::Write(Fd(3), b"xy".to_vec()),
            ErrorOrValue::Value(RetValue::Num(5)),
        );
        assert!(next.is_empty());
    }

    #[test]
    fn read_accepts_prefixes_only() {
        let cfg = cfg();
        let st = initial();
        let st = step(
            &cfg,
            &st,
            OsCommand::Open(
                "/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(FileMode::new(0o644)),
            ),
            ErrorOrValue::Value(RetValue::Fd(Fd(3))),
        )
        .remove(0);
        let st = step(
            &cfg,
            &st,
            OsCommand::Write(Fd(3), b"abcdef".to_vec()),
            ErrorOrValue::Value(RetValue::Num(6)),
        )
        .remove(0);
        let st = step(
            &cfg,
            &st,
            OsCommand::Lseek(Fd(3), 0, crate::flags::SeekWhence::Set),
            ErrorOrValue::Value(RetValue::Num(0)),
        )
        .remove(0);
        // A strict prefix is fine.
        let ok = step(
            &cfg,
            &st,
            OsCommand::Read(Fd(3), 6),
            ErrorOrValue::Value(RetValue::Bytes(b"abc".to_vec())),
        );
        assert_eq!(ok.len(), 1);
        // Wrong data is rejected.
        let bad = step(
            &cfg,
            &st,
            OsCommand::Read(Fd(3), 6),
            ErrorOrValue::Value(RetValue::Bytes(b"abX".to_vec())),
        );
        assert!(bad.is_empty());
        // An empty read while data is available is rejected.
        let bad = step(
            &cfg,
            &st,
            OsCommand::Read(Fd(3), 6),
            ErrorOrValue::Value(RetValue::Bytes(Vec::new())),
        );
        assert!(bad.is_empty());
    }

    #[test]
    fn readdir_respects_must_and_may_sets() {
        let cfg = cfg();
        let st = initial();
        let st = step(
            &cfg,
            &st,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        )
        .remove(0);
        let st = step(
            &cfg,
            &st,
            OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        )
        .remove(0);
        let st = step(
            &cfg,
            &st,
            OsCommand::Opendir("/d".into()),
            ErrorOrValue::Value(RetValue::DirHandle(DirHandleId(1))),
        )
        .remove(0);
        // End-of-dir is not allowed while "a" is still unreturned.
        let bad = step(
            &cfg,
            &st,
            OsCommand::Readdir(DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(None)),
        );
        assert!(bad.is_empty());
        // Returning "a" is allowed; afterwards end-of-dir is allowed and "a"
        // may not be returned a second time.
        let st = step(
            &cfg,
            &st,
            OsCommand::Readdir(DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(Some("a".to_string()))),
        )
        .remove(0);
        let again = step(
            &cfg,
            &st,
            OsCommand::Readdir(DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(Some("a".to_string()))),
        );
        assert!(again.is_empty());
        let done = step(
            &cfg,
            &st,
            OsCommand::Readdir(DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(None)),
        );
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn concurrent_calls_from_two_processes_interleave() {
        let cfg = cfg();
        let st = initial();
        // Create a second process.
        let st = os_trans(&cfg, &st, &OsLabel::Create(Pid(2), crate::types::Uid(0), crate::types::Gid(0)))
            .remove(0);
        // Both processes issue calls before either returns.
        let st = os_trans(
            &cfg,
            &st,
            &OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))),
        )
        .remove(0);
        let st = os_trans(
            &cfg,
            &st,
            &OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))),
        )
        .remove(0);
        // Returns can arrive in either order.
        let st = tau_then_return(&cfg, &st, Pid(2), ErrorOrValue::Value(RetValue::None));
        assert!(!st.is_empty());
        let st = tau_then_return(&cfg, &st[0], INITIAL_PID, ErrorOrValue::Value(RetValue::None));
        assert_eq!(st.len(), 1);
        let root = st[0].heap.root();
        assert!(st[0].heap.lookup(root, "a").is_some());
        assert!(st[0].heap.lookup(root, "b").is_some());
    }

    #[test]
    fn tau_closure_reaches_pending_states() {
        let cfg = cfg();
        let st = initial();
        let st = os_trans(
            &cfg,
            &st,
            &OsLabel::Call(INITIAL_PID, OsCommand::Stat("/".into())),
        )
        .remove(0);
        let closed = tau_closure(&cfg, &[st]);
        // Original InCall state plus at least one Pending state.
        assert!(closed.len() >= 2);
        assert!(closed.iter().any(|s| matches!(
            s.procs[&INITIAL_PID].run_state,
            ProcRunState::Pending(_)
        )));
    }

    #[test]
    fn default_completion_resolves_error_and_success_pendings() {
        let cfg = cfg();
        let st = initial();
        let st = os_trans(
            &cfg,
            &st,
            &OsLabel::Call(INITIAL_PID, OsCommand::Rmdir("/missing".into())),
        )
        .remove(0);
        let pendings = expand_calls(&cfg, &st);
        assert!(!pendings.is_empty());
        let (value, next) = default_completion(&pendings[0], INITIAL_PID).unwrap();
        assert!(matches!(value, ErrorOrValue::Error(_)));
        assert!(matches!(next.procs[&INITIAL_PID].run_state, ProcRunState::Ready));
    }

    #[test]
    fn describe_pending_produces_diagnostics() {
        let cfg = cfg();
        let st = initial();
        let st = os_trans(
            &cfg,
            &st,
            &OsLabel::Call(INITIAL_PID, OsCommand::Rmdir("/missing".into())),
        )
        .remove(0);
        let pendings = expand_calls(&cfg, &st);
        let descriptions = allowed_returns(&pendings[0], INITIAL_PID);
        assert!(descriptions.iter().any(|d| d.contains("ENOENT")));
    }

    #[test]
    fn process_lifecycle_labels() {
        let cfg = cfg();
        let st = initial();
        // Creating an existing pid is rejected.
        assert!(os_trans(&cfg, &st, &OsLabel::Create(INITIAL_PID, crate::types::Uid(0), crate::types::Gid(0))).is_empty());
        // Destroying an unknown pid is rejected.
        assert!(os_trans(&cfg, &st, &OsLabel::Destroy(Pid(9))).is_empty());
        // Create then destroy a second process.
        let st = os_trans(&cfg, &st, &OsLabel::Create(Pid(2), crate::types::Uid(7), crate::types::Gid(7)))
            .remove(0);
        assert!(st.procs.contains_key(&Pid(2)));
        let st = os_trans(&cfg, &st, &OsLabel::Destroy(Pid(2))).remove(0);
        assert!(!st.procs.contains_key(&Pid(2)));
    }

    /// A state with `pids` all in flight on the given calls.
    fn state_with_calls(cfg: &SpecConfig, calls: &[(Pid, OsCommand)]) -> OsState {
        let mut st = initial();
        for (pid, cmd) in calls {
            if *pid != INITIAL_PID {
                st = os_trans(
                    cfg,
                    &st,
                    &OsLabel::Create(*pid, crate::types::Uid(0), crate::types::Gid(0)),
                )
                .remove(0);
            }
            st = os_trans(cfg, &st, &OsLabel::Call(*pid, cmd.clone())).remove(0);
        }
        st
    }

    /// Whether two closures track the same states, in any order.
    fn same_states(a: &StateSet, b: &StateSet) -> bool {
        a.len() == b.len() && a.iter().all(|st| b.contains(st))
    }

    /// The unreduced τ-closure of `st`: every state reachable by τ steps,
    /// each expanded once with every call in flight dispatched.
    fn full_closure(cfg: &SpecConfig, st: &OsState) -> StateSet {
        let mut set = StateSet::singleton(st.clone());
        let mut i = 0;
        while let Some(st) = set.get(i).cloned() {
            expand_calls_into(cfg, &st, &mut set);
            i += 1;
        }
        set
    }

    #[test]
    fn por_closure_prunes_commuting_interleavings() {
        let calls = [
            (INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))),
            (Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))),
            (Pid(3), OsCommand::Mkdir("/c".into(), FileMode::new(0o777))),
        ];
        let cfg = cfg();
        let st = state_with_calls(&cfg, &calls);

        let full = full_closure(&cfg, &st);
        let mut reduced = TrackedSet::from(StateSet::singleton(st));
        reduced.close(&cfg);

        // Every creation order reaches the same state, so both closures
        // track the same set; POR gets there dispatching fewer calls, and a
        // call left asleep is one it did not dispatch.
        let (states, sleeps) = (reduced.states(), reduced.sleep_sets());
        assert!(same_states(&full, states), "{} vs {} states", full.len(), states.len());
        assert_eq!(sleeps.len(), states.len());
        assert!(sleeps.iter().any(|s| !s.is_empty()), "POR skipped no dispatch");
    }

    #[test]
    fn por_closure_fully_expands_conflicting_calls() {
        // Both processes create the *same* entry: the calls race and must be
        // explored in both orders under POR too.
        let calls = [
            (INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))),
            (Pid(2), OsCommand::Mkdir("/a".into(), FileMode::new(0o777))),
        ];
        let cfg = cfg();
        let st = state_with_calls(&cfg, &calls);

        let full = full_closure(&cfg, &st);
        let reduced = StateSet::from(tau_closure(&cfg, &[st]));

        assert!(same_states(&full, &reduced), "{} vs {} states", full.len(), reduced.len());
    }

    #[test]
    fn por_is_inert_for_a_single_process() {
        let cfg = cfg();
        let calls = [(INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777)))];
        let st = state_with_calls(&cfg, &calls);
        let full = full_closure(&cfg, &st);
        assert_eq!(tau_closure(&cfg, &[st]), full.into_states());
    }
}
