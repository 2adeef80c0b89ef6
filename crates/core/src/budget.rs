//! Shared time budgets and cooperative cancellation for every solver
//! entry point.
//!
//! The search kernels in this crate ([`crate::dense`], [`crate::bridge`],
//! [`crate::enumerate`], …) are exponential in the worst case, so a
//! production service needs two things the paper's offline experiments do
//! not: a **deadline** ("answer in 50 ms with the best you have") and
//! **cancellation** ("the client hung up, stop burning CPU"). Both are
//! carried by [`SearchBudget`], a tiny value threaded through the hot
//! loops:
//!
//! * the exhausted state is a single shared atomic, so once one worker
//!   observes the deadline every other thread sees it on its next check;
//! * wall-clock probes ([`std::time::Instant::now`]) are sampled — one
//!   probe every [`PROBE_INTERVAL`] checks — keeping the per-node cost of
//!   an armed budget to one relaxed atomic load;
//! * an **unlimited** budget (the default) is a `None` and costs one
//!   branch per check.
//!
//! How a search ended is reported as a [`Termination`] — the replacement
//! for the old scattered `complete: bool` flags, which could not say *why*
//! a run stopped.
//!
//! # Sampling cadence and overshoot bound
//!
//! The per-node check [`SearchBudget::is_exhausted`] is *sampled*: it
//! reads the shared state every call but consults the wall clock and the
//! cancel token only once per [`PROBE_INTERVAL`] (= 256) calls. The
//! contract that follows:
//!
//! * after a deadline expires or a token fires, a worker keeps searching
//!   for **at most `PROBE_INTERVAL − 1` further nodes** before its own
//!   probe notices (worst case, if no other clone probes first) — at
//!   microseconds per node, sub-millisecond overshoot per worker;
//! * once *any* clone's probe notices, the shared state flips and **every**
//!   clone stops at its next check — one relaxed load, no probe needed;
//! * coarse boundaries (stage transitions, per-centre and per-subgraph
//!   loops, parallel-pool entry) call [`SearchBudget::probe`] directly,
//!   which is unsampled, so expiry between stages is detected immediately;
//! * the residual bicore peel checks once per vertex, so a stopped peel
//!   overshoots by at most `PROBE_INTERVAL` vertices' work;
//! * three polynomial passes (the stage-1 heuristic, the two-hop index
//!   build, per-subgraph core reductions) do not check at all and run to
//!   completion — the worst-case overshoot of a whole query adds one such
//!   pass.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an armed [`SearchBudget`] pays for a wall-clock probe: one
/// [`Instant::now`] every this many [`SearchBudget::is_exhausted`] calls.
/// Search nodes cost microseconds, so the deadline overshoot stays in the
/// sub-millisecond range while the common-case check is a relaxed load.
pub const PROBE_INTERVAL: u64 = 256;

const RUNNING: u8 = 0;
const DEADLINE: u8 = 1;
const CANCELLED: u8 = 2;

/// A shareable cancellation handle: clone it, hand one clone to the query
/// and keep the other, then call [`cancel`](CancelToken::cancel) from any
/// thread to stop the search at its next budget check.
///
/// ```
/// use mbb_core::budget::CancelToken;
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        // relaxed: monotonic advisory flag (false→true once). It carries
        // no data: searches that observe it stop and return results via
        // their own join/channel happens-before edges. A delayed
        // observation only extends the search by the sampling latency.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once any clone called [`cancel`](Self::cancel).
    pub fn is_cancelled(&self) -> bool {
        // relaxed: advisory read of the monotonic flag (see cancel()).
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a query stopped. `Complete` results are exact; the other two carry
/// the best answer found before the budget ran out (anytime semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The search ran to completion; the result is exact.
    Complete,
    /// The wall-clock deadline expired; the result is the best so far.
    DeadlineExceeded,
    /// A [`CancelToken`] fired; the result is the best so far.
    Cancelled,
}

impl Termination {
    /// True for [`Termination::Complete`].
    #[inline]
    pub fn is_complete(self) -> bool {
        self == Termination::Complete
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Complete => write!(f, "complete"),
            Termination::DeadlineExceeded => write!(f, "deadline-exceeded"),
            Termination::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::str::FromStr for Termination {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) form back — the wire
    /// representation used by JSON outputs (`"complete"`,
    /// `"deadline-exceeded"`, `"cancelled"`).
    ///
    /// ```
    /// use mbb_core::budget::Termination;
    /// let t: Termination = "deadline-exceeded".parse().unwrap();
    /// assert_eq!(t, Termination::DeadlineExceeded);
    /// assert_eq!(t.to_string().parse::<Termination>().unwrap(), t);
    /// ```
    fn from_str(s: &str) -> Result<Termination, String> {
        match s {
            "complete" => Ok(Termination::Complete),
            "deadline-exceeded" => Ok(Termination::DeadlineExceeded),
            "cancelled" => Ok(Termination::Cancelled),
            other => Err(format!("unknown termination {other:?}")),
        }
    }
}

/// The budget itself. Cheap to clone (two `Arc`s); clones share the same
/// exhausted state, so one clone per worker thread is the intended use.
/// The per-clone `ticks` counter is deliberately local — it only staggers
/// the wall-clock probes.
#[derive(Debug, Clone, Default)]
pub struct SearchBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// `None` = unlimited. Shared across clones so expiry is sticky.
    state: Option<Arc<AtomicU8>>,
    ticks: u64,
}

impl SearchBudget {
    /// A budget that never expires (the default).
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }

    /// Builds a budget from an optional deadline and an optional token.
    /// `None`/`None` yields an unlimited budget.
    pub fn new(deadline: Option<Instant>, cancel: Option<CancelToken>) -> SearchBudget {
        let armed = deadline.is_some() || cancel.is_some();
        SearchBudget {
            deadline,
            cancel,
            state: armed.then(|| Arc::new(AtomicU8::new(RUNNING))),
            ticks: 0,
        }
    }

    /// A budget expiring `limit` from now.
    pub fn with_deadline(limit: Duration) -> SearchBudget {
        SearchBudget::new(Some(Instant::now() + limit), None)
    }

    /// A budget controlled only by a cancellation token.
    pub fn with_cancel_token(token: CancelToken) -> SearchBudget {
        SearchBudget::new(None, Some(token))
    }

    /// True when the budget can actually expire (deadline or token armed).
    pub fn is_limited(&self) -> bool {
        self.state.is_some()
    }

    /// The hot-loop check: true once the deadline passed or the token
    /// fired. Unlimited budgets return false after one branch; armed
    /// budgets pay one relaxed atomic load, plus a wall-clock probe every
    /// [`PROBE_INTERVAL`] calls. Once true, it stays true for every clone.
    #[inline]
    pub fn is_exhausted(&mut self) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        // relaxed: sticky RUNNING→{DEADLINE,CANCELLED} state machine; the
        // transition is monotonic and guards no data, so a stale RUNNING
        // read only delays the stop by one probe interval.
        if state.load(Ordering::Relaxed) != RUNNING {
            return true;
        }
        self.ticks = self.ticks.wrapping_add(1);
        if !self.ticks.is_multiple_of(PROBE_INTERVAL) {
            return false;
        }
        self.probe()
    }

    /// An immediate (unsampled) probe of the clock and the token. Use at
    /// coarse boundaries — stage transitions, per-subgraph loops — where
    /// the probe cost is irrelevant but prompt detection matters.
    pub fn probe(&self) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        // relaxed: sticky-state fast path, same contract as is_exhausted.
        if state.load(Ordering::Relaxed) != RUNNING {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            // relaxed: CANCELLED is terminal, so racing stores agree on
            // the value; readers treat the state as advisory only.
            state.store(CANCELLED, Ordering::Relaxed);
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            // Never overwrite a concurrent CANCELLED: cancellation is the
            // stronger (caller-initiated) signal.
            // relaxed: the CAS's atomicity alone decides the transition;
            // no data is published through this cell.
            let _ = state.compare_exchange(RUNNING, DEADLINE, Ordering::Relaxed, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// How the budgeted run ended, as the search itself observed it: this
    /// reads the sticky state and deliberately does **not** probe the
    /// clock again. A search that finished its whole tree before any
    /// check saw the deadline is exact, so it reports `Complete` even if
    /// the deadline has since passed — keeping `termination()` consistent
    /// with the payload's own completeness flags.
    pub fn termination(&self) -> Termination {
        let Some(state) = &self.state else {
            return Termination::Complete;
        };
        // relaxed: read after the search's own checks observed (or never
        // observed) the sticky state; callers joining worker threads get
        // their happens-before edge from the join, not from this load.
        match state.load(Ordering::Relaxed) {
            DEADLINE => Termination::DeadlineExceeded,
            CANCELLED => Termination::Cancelled,
            _ => Termination::Complete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = SearchBudget::unlimited();
        for _ in 0..10_000 {
            assert!(!b.is_exhausted());
        }
        assert!(!b.is_limited());
        assert_eq!(b.termination(), Termination::Complete);
    }

    #[test]
    fn expired_deadline_is_detected_and_sticky() {
        let mut b = SearchBudget::with_deadline(Duration::from_millis(0));
        assert!(b.is_limited());
        // Within PROBE_INTERVAL ticks the probe must fire.
        let mut exhausted = false;
        for _ in 0..=PROBE_INTERVAL {
            if b.is_exhausted() {
                exhausted = true;
                break;
            }
        }
        assert!(exhausted);
        assert!(b.is_exhausted(), "sticky");
        assert_eq!(b.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn cancellation_wins_and_propagates_to_clones() {
        let token = CancelToken::new();
        let mut a = SearchBudget::with_cancel_token(token.clone());
        let mut b = a.clone();
        assert!(!a.probe());
        token.cancel();
        assert!(a.probe());
        assert!(a.is_exhausted());
        // The clone sees the shared sticky state without its own probe.
        assert!(b.is_exhausted());
        assert_eq!(b.termination(), Termination::Cancelled);
        assert_eq!(a.termination(), Termination::Cancelled);
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let mut b = SearchBudget::with_deadline(Duration::from_secs(3600));
        for _ in 0..(4 * PROBE_INTERVAL) {
            assert!(!b.is_exhausted());
        }
        assert_eq!(b.termination(), Termination::Complete);
    }

    #[test]
    fn termination_display() {
        assert_eq!(Termination::Complete.to_string(), "complete");
        assert_eq!(
            Termination::DeadlineExceeded.to_string(),
            "deadline-exceeded"
        );
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn termination_round_trips_through_from_str() {
        for t in [
            Termination::Complete,
            Termination::DeadlineExceeded,
            Termination::Cancelled,
        ] {
            assert_eq!(t.to_string().parse::<Termination>().unwrap(), t);
        }
        assert!("done".parse::<Termination>().is_err());
    }
}
