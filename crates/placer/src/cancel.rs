//! Cooperative cancellation for placement runs.
//!
//! A [`CancelToken`] is a cheaply clonable handle shared between the code
//! driving a placement job (a CLI signal handler, the `mep-serve` daemon's
//! cancel endpoint) and the loops doing the work. The global-placement
//! loop ([`crate::global`]) and the multilevel driver ([`crate::flow`])
//! poll it once per iteration / stage boundary and terminate with a
//! best-so-far partial result when it trips:
//!
//! * an **explicit** [`cancel`](CancelToken::cancel) maps to
//!   [`Termination::Cancelled`];
//! * an **armed deadline** expiring maps to [`Termination::WallClock`];
//!   it is the run's only wall-clock budget and outlives one `place()`
//!   call (it spans every level of the multilevel flow).
//!
//! The token is lock-free on the polling side: one `AtomicBool` load plus
//! one `AtomicU64` load per poll, so checking it each iteration costs
//! nanoseconds. The default token is inert (never trips) and is what every
//! config embeds unless a driver installs its own.

use crate::guard::Termination;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanosecond sentinel meaning "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Deadline as nanoseconds after `created`; [`NO_DEADLINE`] when unset.
    deadline_nanos: AtomicU64,
    created: Instant,
}

/// A shared, pollable cancellation flag with an optional deadline.
///
/// Clones share state: cancelling any clone trips every clone.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(NO_DEADLINE),
                // lint:allow(determinism): cancellation deadlines are wall-clock by definition
                created: Instant::now(),
            }),
        }
    }

    /// A live token that expires `budget` after this call.
    pub fn with_deadline_in(budget: Duration) -> Self {
        let t = Self::new();
        t.arm_deadline_in(budget);
        t
    }

    /// Arms (or re-arms) the deadline to `budget` from now. A daemon
    /// creates the token at submission time so the job is cancellable
    /// while queued, then arms the execution budget when the job actually
    /// starts running.
    pub fn arm_deadline_in(&self, budget: Duration) {
        let elapsed = self.inner.created.elapsed();
        let nanos = elapsed
            .saturating_add(budget)
            .as_nanos()
            .min(NO_DEADLINE as u128 - 1) as u64;
        self.inner.deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Trips the token explicitly. Idempotent.
    ///
    /// Release pairs with the Acquire load in
    /// [`termination`](Self::termination): a loop that observes the trip
    /// also observes everything the cancelling thread wrote before
    /// tripping it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Polls the token: the [`Termination`] a loop should report if it
    /// stops now because of this token, `None` while the token is live.
    /// Explicit cancellation wins over an expired deadline so a client's
    /// cancel is reported as such even on a job whose budget also ran out.
    pub fn termination(&self) -> Option<Termination> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(Termination::Cancelled);
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::Relaxed);
        let expired =
            deadline != NO_DEADLINE && self.inner.created.elapsed().as_nanos() >= deadline as u128;
        expired.then_some(Termination::WallClock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_trips() {
        let t = CancelToken::default();
        assert_eq!(t.termination(), None);
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.termination(), Some(Termination::Cancelled));
    }

    #[test]
    fn expired_deadline_maps_to_wall_clock() {
        let t = CancelToken::with_deadline_in(Duration::ZERO);
        assert_eq!(t.termination(), Some(Termination::WallClock));
    }

    #[test]
    fn far_deadline_stays_live_and_rearm_works() {
        let t = CancelToken::with_deadline_in(Duration::from_secs(3600));
        assert_eq!(t.termination(), None);
        t.arm_deadline_in(Duration::ZERO);
        assert_eq!(t.termination(), Some(Termination::WallClock));
    }

    #[test]
    fn explicit_cancel_wins_over_expired_deadline() {
        let t = CancelToken::with_deadline_in(Duration::ZERO);
        t.cancel();
        assert_eq!(t.termination(), Some(Termination::Cancelled));
    }
}
