//! Deterministic parallel interprocedural fixpoint driver.
//!
//! The driver schedules per-function fixpoints ([`crate::summary`]) in
//! **waves**: every function whose inputs changed since its last run, sorted
//! bottom-up by the static SCC rank ([`crate::callgraph`]). Functions in a
//! wave are computed concurrently against *pre-wave snapshots* of the
//! shared maps (contexts, exit summaries, the Anywhere accumulator), then
//! merged **sequentially in wave order** — so the evolution of the shared
//! state is a pure function of the image, independent of thread count or
//! completion timing. Same image ⇒ byte-identical result under `-j1` and
//! `-jN`; the CI `cmp` gate pins this.
//!
//! Monotonicity makes the snapshot scheme sound: contexts, exits and the
//! accumulator only grow (every merge *joins*), so a run computed against a
//! stale snapshot is simply re-run when its inputs grow, and convergence is
//! reached when a whole wave produces no growth.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph;
use crate::interp::{prescan, Effects, FnView, STEP_BUDGET};
use crate::state::{Ctx, State};
use crate::summary::{analyze_fn, FnRun};

/// The converged whole-program result, ready for extraction.
pub struct Converged {
    /// Final function entries (static pre-scan plus promoted call/tail
    /// targets).
    pub entries: BTreeSet<u32>,
    /// Final run per *analyzed* (reachable) function entry. Entries absent
    /// here were never given a context: they are unreachable under the
    /// analysis' over-approximate control flow. Each run's `ctx_out`,
    /// `exit` and `anywhere` have moved into the merged maps and are empty.
    pub runs: BTreeMap<u32, FnRun>,
    /// Global analysis facts (SMC pages).
    pub fx: Effects,
    /// The global Anywhere accumulator, if any widened indirect jump was
    /// seen.
    pub acc: Option<State>,
    /// `Some(reason)` when the analysis gave up (budget exhausted).
    pub degraded: Option<String>,
    /// Total instructions transferred across all runs.
    pub steps: usize,
}

/// Runs the interprocedural fixpoint to convergence with `jobs` workers.
#[must_use]
pub fn converge(ctx: &Ctx, jobs: usize) -> Converged {
    let pre = prescan(ctx);
    let rank = callgraph::ranks(ctx, &pre);
    let mut leaders = pre.leaders;
    let mut entries = pre.fn_entries;
    let text_end = ctx.text_base + 4 * u32::try_from(ctx.words.len()).unwrap_or(u32::MAX);

    let mut contexts: BTreeMap<u32, State> = BTreeMap::new();
    contexts.insert(ctx.entry, State::entry(ctx));
    let mut exits: BTreeMap<u32, State> = BTreeMap::new();
    let mut runs: BTreeMap<u32, FnRun> = BTreeMap::new();
    let mut rdeps: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut acc: Option<State> = None;
    let mut work: BTreeSet<u32> = BTreeSet::new();
    work.insert(ctx.entry);
    let mut fx = Effects::default();
    let mut total_steps = 0usize;
    let mut degraded: Option<String> = None;

    loop {
        // Wave = every queued entry that is analyzable (has a context, or
        // the accumulator reaches everything). Entries without one are
        // dropped; they re-queue when a caller contributes a context.
        let mut wave: Vec<u32> = work
            .iter()
            .copied()
            .filter(|e| contexts.contains_key(e) || acc.is_some())
            .collect();
        work.clear();
        wave.sort_by_key(|e| (rank.get(e).copied().unwrap_or(usize::MAX), *e));
        if wave.is_empty() {
            break;
        }
        let views: Vec<FnView> = wave
            .iter()
            .map(|&e| FnView {
                lo: e,
                hi: entries
                    .range(e + 1..)
                    .next()
                    .copied()
                    .unwrap_or(text_end)
                    .min(text_end),
            })
            .collect();
        let budget = STEP_BUDGET.saturating_sub(total_steps);
        let results = run_wave(
            ctx,
            &wave,
            &views,
            jobs,
            &leaders,
            &entries,
            &contexts,
            acc.as_ref(),
            &exits,
            &rank,
            budget,
        );

        for (i, mut run) in results.into_iter().enumerate() {
            let e = wave[i];
            total_steps += run.steps;
            if run.degraded || total_steps > STEP_BUDGET {
                degraded = Some(format!("fixpoint budget exhausted ({STEP_BUDGET} steps)"));
            }
            fx.smc_pages.extend(run.smc_pages.iter().copied());
            for &d in &run.deps {
                rdeps.entry(d).or_default().insert(e);
            }
            // The run's outputs move into the shared maps: extraction
            // reads only its in-states, leaders and call edges.
            for (callee, cstate) in std::mem::take(&mut run.ctx_out) {
                match contexts.get_mut(&callee) {
                    Some(existing) => {
                        if existing.join_into(&cstate, ctx) {
                            work.insert(callee);
                        }
                    }
                    None => {
                        contexts.insert(callee, cstate);
                        work.insert(callee);
                    }
                }
            }
            if let Some(ex) = run.exit.take() {
                let grew = match exits.get_mut(&e) {
                    Some(old) => old.join_into(&ex, ctx),
                    None => {
                        exits.insert(e, ex);
                        true
                    }
                };
                if grew {
                    if let Some(callers) = rdeps.get(&e) {
                        work.extend(callers.iter().copied());
                    }
                }
            }
            if let Some(a) = run.anywhere.take() {
                let grew = match acc.as_mut() {
                    Some(old) => old.join_into(&a, ctx),
                    None => {
                        acc = Some(a);
                        true
                    }
                };
                if grew {
                    // With the accumulator grown, every function's seed
                    // grows: re-run them all.
                    work.extend(entries.iter().copied());
                }
            }
            let new_entries: Vec<u32> = run.new_entries.iter().copied().collect();
            runs.insert(e, run);
            for ne in new_entries {
                if entries.insert(ne) {
                    leaders.insert(ne);
                    // The function whose range the new entry splits must be
                    // re-analyzed under its shrunk view. Its already-merged
                    // context/exit contributions are kept: stale but sound
                    // over-approximations.
                    if let Some(&owner) = entries.range(..ne).next_back() {
                        runs.remove(&owner);
                        work.insert(owner);
                    }
                    work.insert(ne);
                }
            }
        }
        if degraded.is_some() {
            break;
        }
    }

    Converged {
        entries,
        runs,
        fx,
        acc,
        degraded,
        steps: total_steps,
    }
}

/// Computes one wave, strided across `jobs` workers. Each worker owns the
/// indices `t, t + n, t + 2n, …`; results are reassembled by index, so the
/// output vector is identical no matter how the work was divided.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    ctx: &Ctx,
    wave: &[u32],
    views: &[FnView],
    jobs: usize,
    leaders: &BTreeSet<u32>,
    entries: &BTreeSet<u32>,
    contexts: &BTreeMap<u32, State>,
    acc: Option<&State>,
    exits: &BTreeMap<u32, State>,
    rank: &BTreeMap<u32, usize>,
    budget: usize,
) -> Vec<FnRun> {
    let one = |i: usize| {
        let e = wave[i];
        analyze_fn(
            ctx,
            leaders,
            entries,
            views[i],
            contexts.get(&e),
            acc,
            exits,
            rank,
            budget,
        )
    };
    let n = jobs.clamp(1, wave.len().max(1));
    if n == 1 {
        return (0..wave.len()).map(one).collect();
    }
    let mut slots: Vec<Option<FnRun>> = (0..wave.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let one = &one;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < wave.len() {
                        out.push((i, one(i)));
                        i += n;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("analysis worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every wave slot is filled"))
        .collect()
}
