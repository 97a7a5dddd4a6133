//! The full-expansion reference checker shared by the integration tests.
//!
//! It is the paper's algorithm with nothing reduced and nothing cached:
//! plain vectors of states deduplicated by structural equality only (no
//! `StateSet`, no fingerprints), every call in flight dispatched from every
//! state in the τ-closure. The production
//! checker (fingerprint-indexed `StateSet`s, footprint-based partial-order
//! reduction) must agree with it verdict for verdict and size for size:
//! `state_set_checker` compares the two on random scripts, `por_equivalence`
//! on the suites, the contention families and the mutant replay.

use sibylfs_check::{CheckOptions, StepVerdict};
use sibylfs_core::commands::OsLabel;
use sibylfs_core::flavor::SpecConfig;
use sibylfs_core::os::trans::{allowed_returns, default_completion, expand_calls, os_trans};
use sibylfs_core::os::{OsState, ProcRunState};
use sibylfs_core::types::INITIAL_PID;
use sibylfs_script::Trace;

/// The union of `os_trans` over `states`.
pub fn ref_union_trans(cfg: &SpecConfig, states: &[OsState], label: &OsLabel) -> Vec<OsState> {
    let mut out: Vec<OsState> = Vec::new();
    for st in states {
        for next in os_trans(cfg, st, label) {
            if !out.contains(&next) {
                out.push(next);
            }
        }
    }
    out
}

/// Every state reachable from `states` by τ steps, `states` included.
pub fn ref_tau_closure(cfg: &SpecConfig, states: &[OsState]) -> Vec<OsState> {
    let mut all: Vec<OsState> = states.to_vec();
    let mut frontier: Vec<OsState> = states.to_vec();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for st in &frontier {
            for succ in expand_calls(cfg, st) {
                if !all.contains(&succ) {
                    all.push(succ.clone());
                    next.push(succ);
                }
            }
        }
        frontier = next;
    }
    all
}

/// What the reference checker reports for one trace, shaped for comparison
/// against the production `CheckedTrace`.
pub struct RefChecked {
    pub accepted: bool,
    /// Per-trace-step verdicts (same order as the trace's steps).
    pub verdicts: Vec<StepVerdict>,
    /// `(lineno, observed, allowed)` for each deviation.
    pub deviations: Vec<(usize, String, Vec<String>)>,
    /// Per-trace-step tracked-set sizes after each step.
    pub set_sizes: Vec<usize>,
    pub max_states_tracked: usize,
}

/// Check `trace` the way the production checker does, by full expansion.
pub fn ref_check_trace(cfg: &SpecConfig, trace: &Trace, opts: CheckOptions) -> RefChecked {
    let mut states: Vec<OsState> = vec![OsState::initial_with_process(cfg, INITIAL_PID)];
    let mut verdicts = Vec::new();
    let mut deviations = Vec::new();
    let mut set_sizes = Vec::new();
    let mut max_states = states.len();

    for step in &trace.steps {
        let label = &step.label;
        let (next, verdict): (Vec<OsState>, StepVerdict) = match label {
            OsLabel::Call(..) | OsLabel::Create(..) | OsLabel::Destroy(..) => {
                let next = ref_union_trans(cfg, &states, label);
                if next.is_empty() {
                    (
                        states.clone(),
                        StepVerdict::Deviation {
                            observed: label.to_string(),
                            allowed: vec![
                                "<no such transition from any tracked state>".to_string()
                            ],
                            continued_with: None,
                        },
                    )
                } else {
                    (next, StepVerdict::Ok)
                }
            }
            OsLabel::Tau => (ref_tau_closure(cfg, &states), StepVerdict::Ok),
            OsLabel::Return(pid, observed) => {
                let closed = ref_tau_closure(cfg, &states);
                let next = ref_union_trans(cfg, &closed, label);
                if !next.is_empty() {
                    (next, StepVerdict::Ok)
                } else {
                    let mut allowed: Vec<String> = Vec::new();
                    for st in &closed {
                        for a in allowed_returns(st, *pid) {
                            if !allowed.contains(&a) {
                                allowed.push(a);
                            }
                        }
                    }
                    let mut recovered: Vec<OsState> = Vec::new();
                    let mut continued_with = None;
                    for st in &closed {
                        if let Some((value, next_st)) = default_completion(st, *pid) {
                            if continued_with.is_none() {
                                continued_with = Some(value.to_string());
                            }
                            if !recovered.contains(&next_st) {
                                recovered.push(next_st);
                            }
                        }
                    }
                    if recovered.is_empty() {
                        recovered = closed
                            .iter()
                            .map(|st| {
                                let mut st = st.clone();
                                if let Some(p) = st.proc_mut(*pid) {
                                    p.run_state = ProcRunState::Ready;
                                }
                                st
                            })
                            .collect();
                    }
                    (
                        recovered,
                        StepVerdict::Deviation {
                            observed: observed.to_string(),
                            allowed,
                            continued_with,
                        },
                    )
                }
            }
        };
        if let StepVerdict::Deviation { observed, allowed, .. } = &verdict {
            deviations.push((step.lineno, observed.clone(), allowed.clone()));
        }
        verdicts.push(verdict);
        states = next;
        max_states = max_states.max(states.len());
        set_sizes.push(states.len());
        if states.len() > opts.max_states {
            states.truncate(opts.max_states);
        }
        if states.is_empty() {
            states = vec![OsState::initial_with_process(cfg, INITIAL_PID)];
        }
    }

    RefChecked {
        accepted: deviations.is_empty(),
        verdicts,
        deviations,
        set_sizes,
        max_states_tracked: max_states,
    }
}
