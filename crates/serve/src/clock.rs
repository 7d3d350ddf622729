//! Injectable time for the request scheduler.
//!
//! The dynamic-batching dispatcher ([`Scheduler`](crate::Scheduler)) makes
//! exactly one kind of timing decision: *park until either a new request
//! arrives or the oldest queued request's flush deadline passes*. Testing
//! that decision against the wall clock means sleeping and hoping — so the
//! scheduler takes its time through the [`Clock`] trait instead:
//! [`SystemClock`] (the default) reads monotonic wall time, and
//! [`VirtualClock`] is a test double whose time only moves when the test
//! calls [`advance`](VirtualClock::advance), which makes deadline behavior
//! ("flushes exactly at the deadline, never before") a deterministic
//! assertion instead of a race.
//!
//! # The park/wake protocol
//!
//! [`Clock::wait_until`] is shaped to make lost wakeups impossible without
//! the clock knowing anything about the caller's state:
//!
//! 1. the caller decides to park **while holding its own state lock** (so
//!    the decision is based on a consistent queue snapshot);
//! 2. `wait_until` first acquires the clock's internal lock, *then* releases
//!    the caller's guard — so between the caller's decision and the park
//!    there is never a window in which a waker can run to completion
//!    unobserved;
//! 3. producers call [`Clock::wake`] (after releasing the caller's state
//!    lock), which bumps a generation counter under the clock lock and
//!    notifies — if the parker has not reached its condition wait yet, the
//!    waker blocks on the clock lock until it has.
//!
//! `wait_until` may return spuriously; the caller re-acquires its lock and
//! re-evaluates, exactly like a condition-variable loop. The lock order is
//! `caller state → clock`, everywhere, so the protocol cannot deadlock.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The deadline meaning "no deadline — park until woken". Passing it to
/// [`Clock::wait_until`] parks indefinitely (the dispatcher's idle state).
pub const IDLE: Duration = Duration::MAX;

/// A source of monotonic time plus the park/wake primitive the scheduler's
/// dispatcher blocks on. See the [module docs](self) for the protocol.
pub trait Clock: Send + Sync + 'static {
    /// Monotonic time elapsed since the clock's epoch (its creation for
    /// [`SystemClock`], zero for [`VirtualClock`]).
    fn now(&self) -> Duration;

    /// Atomically releases `guard` and blocks until `deadline` may have
    /// passed or [`wake`](Clock::wake) was called — whichever is first. May
    /// also return spuriously; callers must re-acquire their lock and
    /// re-evaluate.
    fn wait_until<T>(&self, guard: MutexGuard<'_, T>, deadline: Duration);

    /// Wakes every thread blocked in [`wait_until`](Clock::wait_until).
    /// Called by producers after enqueueing work (and after releasing the
    /// state lock the parker's guard came from).
    fn wake(&self);
}

/// The production clock: monotonic wall time via [`Instant`], parking via a
/// plain timed condition wait.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
    /// Wake generation counter; bumped by [`wake`](Clock::wake).
    wakes: Mutex<u64>,
    cvar: Condvar,
}

impl Default for SystemClock {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            wakes: Mutex::new(0),
            cvar: Condvar::new(),
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn wait_until<T>(&self, guard: MutexGuard<'_, T>, deadline: Duration) {
        // Clock lock before guard release: see the module docs, step 2. Lock
        // poisoning is recovered — the protected state is a plain counter,
        // valid in any state, and panicking here would hang the dispatcher.
        let mut wakes = self.wakes.lock().unwrap_or_else(PoisonError::into_inner);
        drop(guard);
        let baseline = *wakes;
        loop {
            let now = self.now();
            if now >= deadline || *wakes != baseline {
                return;
            }
            let (next, timeout) = self
                .cvar
                .wait_timeout(wakes, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            wakes = next;
            if timeout.timed_out() {
                return;
            }
        }
    }

    fn wake(&self) {
        let mut wakes = self.wakes.lock().unwrap_or_else(PoisonError::into_inner);
        *wakes = wakes.wrapping_add(1);
        self.cvar.notify_all();
    }
}

#[derive(Debug, Default)]
struct VirtualState {
    now: Duration,
    wakes: u64,
    /// The deadline a `wait_until` caller is currently parked on
    /// ([`IDLE`] for the no-deadline park), `None` while nobody is parked —
    /// the observation hook deterministic tests synchronize on.
    parked: Option<Duration>,
}

/// A test clock: time is a counter that only [`advance`](VirtualClock::advance)
/// moves. Cloning shares the same underlying time, so a test holds one clone
/// while the scheduler under test holds another.
///
/// Two extra observation hooks make deadline tests deterministic without a
/// single sleep: [`parked_deadline`] reads which deadline the dispatcher is
/// currently parked on, and [`wait_for_park_until`] blocks the *test* thread
/// until the dispatcher has parked on a deadline at or below a bound.
///
/// [`parked_deadline`]: VirtualClock::parked_deadline
/// [`wait_for_park_until`]: VirtualClock::wait_for_park_until
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    inner: Arc<VirtualInner>,
}

#[derive(Debug, Default)]
struct VirtualInner {
    state: Mutex<VirtualState>,
    cvar: Condvar,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, VirtualState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves time forward by `delta` and wakes every parked waiter so it
    /// re-evaluates its deadline.
    pub fn advance(&self, delta: Duration) {
        let mut state = self.lock();
        state.now = state.now.saturating_add(delta);
        self.inner.cvar.notify_all();
    }

    /// The deadline a [`wait_until`](Clock::wait_until) caller is currently
    /// parked on ([`IDLE`] for the no-deadline park), or `None` while nobody
    /// is parked. While this returns `Some(d)` with the current time below
    /// `d`, the parked thread *cannot* have proceeded past its wait — which
    /// is what lets a test assert "not flushed yet" without waiting wall
    /// time.
    pub fn parked_deadline(&self) -> Option<Duration> {
        self.lock().parked
    }

    /// Blocks until a [`wait_until`](Clock::wait_until) caller is parked on
    /// a deadline `<= limit`, and returns that deadline. The deterministic
    /// way for a test to know the dispatcher has armed a flush deadline
    /// (the idle park's [`IDLE`] deadline exceeds any real limit, so this
    /// skips it).
    pub fn wait_for_park_until(&self, limit: Duration) -> Duration {
        let mut state = self.lock();
        loop {
            if let Some(deadline) = state.parked {
                if deadline <= limit {
                    return deadline;
                }
            }
            state = self
                .inner
                .cvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        self.lock().now
    }

    fn wait_until<T>(&self, guard: MutexGuard<'_, T>, deadline: Duration) {
        let mut state = self.lock();
        drop(guard); // caller lock released only after the clock lock is held
        let baseline = state.wakes;
        while state.now < deadline && state.wakes == baseline {
            state.parked = Some(deadline);
            // Park observers (wait_for_park_until) see the transition.
            self.inner.cvar.notify_all();
            state = self
                .inner
                .cvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.parked = None;
    }

    fn wake(&self) {
        let mut state = self.lock();
        state.wakes = state.wakes.wrapping_add(1);
        self.inner.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::default();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn system_clock_wait_returns_at_deadline() {
        let clock = SystemClock::default();
        let state = Mutex::new(());
        let before = clock.now();
        clock.wait_until(state.lock().unwrap(), before + Duration::from_millis(5));
        assert!(clock.now() >= before + Duration::from_millis(5));
    }

    #[test]
    fn system_clock_wake_interrupts_an_idle_park() {
        let clock = SystemClock::default();
        let state = Mutex::new(());
        let (holding_tx, holding_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let guard = state.lock().unwrap();
                holding_tx.send(()).unwrap();
                // Parked with no deadline; only the wake below can end this.
                clock.wait_until(guard, IDLE);
            });
            // Not sleep-based. Once the parker holds the state lock, taking
            // that lock here succeeds only after `wait_until` released it,
            // which it does while holding the clock lock (protocol step 2);
            // `wake` then blocks on the clock lock until the parker waits on
            // the condition variable, so the wake always lands after the
            // park — and the scope join proves the park ended.
            holding_rx.recv().unwrap();
            drop(state.lock().unwrap());
            clock.wake();
        });
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(7));
        let clone = clock.clone();
        clone.advance(Duration::from_millis(1));
        assert_eq!(clock.now(), Duration::from_millis(8), "clones share time");
    }

    #[test]
    fn virtual_clock_park_is_observable_and_deadline_gated() {
        let clock = VirtualClock::new();
        let state = Mutex::new(());
        let deadline = Duration::from_millis(2);
        std::thread::scope(|scope| {
            let parker = clock.clone();
            scope.spawn(move || {
                parker.wait_until(state.lock().unwrap(), deadline);
                // Having returned, time must have reached the deadline: the
                // test below never calls wake, so the deadline is the only
                // way out.
                assert!(parker.now() >= deadline);
            });
            assert_eq!(clock.wait_for_park_until(deadline), deadline);
            clock.advance(Duration::from_millis(2) - Duration::from_nanos(1));
            // Still short of the deadline: the parker is provably still
            // parked on it.
            assert_eq!(clock.parked_deadline(), Some(deadline));
            clock.advance(Duration::from_nanos(1));
        });
        assert_eq!(clock.parked_deadline(), None, "park cleared on exit");
    }

    #[test]
    fn virtual_clock_wake_interrupts_before_the_deadline() {
        let clock = VirtualClock::new();
        let state = Mutex::new(());
        std::thread::scope(|scope| {
            let parker = clock.clone();
            scope.spawn(move || {
                parker.wait_until(state.lock().unwrap(), IDLE);
            });
            clock.wait_for_park_until(IDLE);
            clock.wake();
        });
        assert_eq!(clock.now(), Duration::ZERO, "woke without time moving");
    }
}
