//! Cooperative cancellation and per-cell wall-clock deadlines.
//!
//! Durable sweeps (DESIGN.md §5f) need two interruption sources that share
//! one mechanism:
//!
//! * **global cancellation** — Ctrl-C / SIGTERM (bridged from
//!   [`save_signal`]) or an embedder's programmatic request stops *every*
//!   in-flight cell so the journal can be flushed and the process can exit
//!   with the "cancelled, resumable" code;
//! * **per-cell deadlines** — a cell that exceeds its wall-clock budget is
//!   stopped *alone*; the sweep records a structured
//!   [`crate::SimError::DeadlineExceeded`] (after retries) and keeps going.
//!
//! Both are delivered through a [`CancelToken`]: an `Arc<AtomicBool>` the
//! core polls every [`save_core::CANCEL_QUANTUM`] cycles (and once per
//! fast-forward jump). Nothing is ever killed; interrupted runs return
//! through the normal [`save_core::RunOutcome`] path with
//! `cancelled = true`, so no state is torn mid-cycle.
//!
//! The [`Supervisor`] owns a polling thread (a few-millisecond period) that
//! bridges the process signal flag into the global token and trips each
//! registered watch's token when its deadline passes. Cells register via
//! [`SupervisorHandle::watch`]; the returned [`WatchGuard`] deregisters on
//! drop and remembers *why* its token fired ([`WatchGuard::deadline_expired`])
//! so the runner can tell a deadline from a global cancel.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Shared cancellation flag. Cloning shares the flag (it is an `Arc`);
/// a token never un-cancels.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token. Idempotent; never cleared.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been latched.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The raw flag, in the form [`save_core::Core::set_cancel`] consumes.
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// One registered cell: its private token, optional deadline, and the
/// flag recording that the supervisor tripped it *because of the deadline*
/// (as opposed to a global cancel).
struct Watch {
    id: u64,
    token: CancelToken,
    deadline: Option<Instant>,
    expired: Arc<AtomicBool>,
}

struct Inner {
    global: CancelToken,
    watches: Mutex<Vec<Watch>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl Inner {
    /// One supervisor tick: bridge the process signal flag, then trip
    /// per-cell tokens whose deadline has passed (or everything, on a
    /// global cancel). Returns whether the global token is latched.
    fn tick(&self, now: Instant) -> bool {
        if save_signal::cancel_requested() {
            self.global.cancel();
        }
        let global = self.global.is_cancelled();
        let watches = self.watches.lock().expect("supervisor watch list poisoned");
        for w in watches.iter() {
            if global {
                w.token.cancel();
            } else if let Some(dl) = w.deadline {
                if now >= dl && !w.token.is_cancelled() {
                    w.expired.store(true, Ordering::SeqCst);
                    w.token.cancel();
                }
            }
        }
        global
    }
}

/// How often the supervisor thread wakes to check deadlines and the signal
/// flag. Deadline enforcement therefore has ~this much slack, which is
/// negligible against sweep-cell runtimes (milliseconds to minutes).
pub const SUPERVISOR_POLL: Duration = Duration::from_millis(2);

/// Owner of the supervision thread. Dropping it (or calling
/// [`Supervisor::shutdown`]) stops and joins the thread; handles obtained
/// via [`Supervisor::handle`] stay usable for token queries but no new
/// deadline enforcement happens after shutdown.
pub struct Supervisor {
    inner: Arc<Inner>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns the supervision thread. `install_signal_handlers` also
    /// registers the process SIGINT/SIGTERM handlers (binaries want this;
    /// library tests usually do not, to avoid hijacking the test runner's
    /// Ctrl-C).
    pub fn start(install_signal_handlers: bool) -> Self {
        if install_signal_handlers {
            save_signal::install();
        }
        let inner = Arc::new(Inner {
            global: CancelToken::new(),
            watches: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let worker = Arc::clone(&inner);
        let thread = thread::Builder::new()
            .name("save-supervisor".into())
            .spawn(move || {
                while !worker.shutdown.load(Ordering::SeqCst) {
                    worker.tick(Instant::now());
                    thread::sleep(SUPERVISOR_POLL);
                }
                // Final tick so a cancel that raced shutdown still lands.
                worker.tick(Instant::now());
            })
            .expect("spawn supervisor thread");
        Self { inner, thread: Some(thread) }
    }

    /// A cloneable handle for registering watches and querying the global
    /// token.
    pub fn handle(&self) -> SupervisorHandle {
        SupervisorHandle { inner: Arc::clone(&self.inner) }
    }

    /// Stops and joins the supervision thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cloneable view of a [`Supervisor`].
#[derive(Clone)]
pub struct SupervisorHandle {
    inner: Arc<Inner>,
}

impl SupervisorHandle {
    /// The sweep-wide token: latched by SIGINT/SIGTERM or
    /// [`SupervisorHandle::cancel_global`].
    pub fn global(&self) -> CancelToken {
        self.inner.global.clone()
    }

    /// Programmatic global cancel (same effect as a signal).
    pub fn cancel_global(&self) {
        self.inner.global.cancel();
    }

    /// Registers a cell for supervision: its token fires when `deadline`
    /// (measured from now) elapses or the global token latches. With
    /// `deadline = None` only global cancellation is propagated.
    pub fn watch(&self, deadline: Option<Duration>) -> WatchGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let token = CancelToken::new();
        let expired = Arc::new(AtomicBool::new(false));
        // A cancel that happened before registration must still propagate
        // even if the supervisor thread is already gone.
        if self.inner.global.is_cancelled() {
            token.cancel();
        }
        let watch = Watch {
            id,
            token: token.clone(),
            deadline: deadline.map(|d| Instant::now() + d),
            expired: Arc::clone(&expired),
        };
        self.inner.watches.lock().expect("supervisor watch list poisoned").push(watch);
        WatchGuard { inner: Arc::clone(&self.inner), id, token, expired }
    }

    /// Sleeps for `dur` in [`SUPERVISOR_POLL`] slices, returning early
    /// (with `false`) if the global token latches — used for retry backoff
    /// so Ctrl-C is not delayed by a backoff sleep.
    pub fn backoff_sleep(&self, dur: Duration) -> bool {
        let end = Instant::now() + dur;
        loop {
            if self.inner.global.is_cancelled() {
                return false;
            }
            let now = Instant::now();
            if now >= end {
                return true;
            }
            thread::sleep(SUPERVISOR_POLL.min(end - now));
        }
    }
}

/// Registration of one supervised cell; deregisters on drop.
pub struct WatchGuard {
    inner: Arc<Inner>,
    id: u64,
    token: CancelToken,
    expired: Arc<AtomicBool>,
}

impl WatchGuard {
    /// The cell's private token — hand its flag to the core(s) running
    /// this cell.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Whether the supervisor tripped this cell's token because its
    /// deadline passed (as opposed to a global cancel). This is how the
    /// runner reclassifies a cooperative stop into
    /// [`crate::SimError::DeadlineExceeded`].
    pub fn deadline_expired(&self) -> bool {
        self.expired.load(Ordering::SeqCst)
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut watches = self.inner.watches.lock().expect("supervisor watch list poisoned");
        watches.retain(|w| w.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_latches_and_shares() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
        assert!(clone.as_flag().load(Ordering::SeqCst));
    }

    #[test]
    fn deadline_trips_only_its_watch() {
        let sup = Supervisor::start(false);
        let h = sup.handle();
        let fast = h.watch(Some(Duration::from_millis(5)));
        let slow = h.watch(Some(Duration::from_secs(3600)));
        let start = Instant::now();
        while !fast.token().is_cancelled() {
            assert!(start.elapsed() < Duration::from_secs(5), "deadline never fired");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(fast.deadline_expired());
        assert!(!slow.token().is_cancelled(), "other watches are untouched");
        assert!(!slow.deadline_expired());
        assert!(!h.global().is_cancelled(), "a deadline is not a global cancel");
    }

    #[test]
    fn global_cancel_trips_every_watch() {
        let sup = Supervisor::start(false);
        let h = sup.handle();
        let a = h.watch(None);
        let b = h.watch(Some(Duration::from_secs(3600)));
        h.cancel_global();
        let start = Instant::now();
        while !(a.token().is_cancelled() && b.token().is_cancelled()) {
            assert!(start.elapsed() < Duration::from_secs(5), "cancel never propagated");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!a.deadline_expired(), "global cancel is not a deadline expiry");
        assert!(!b.deadline_expired());
        // A watch registered after the cancel is tripped immediately.
        let late = h.watch(Some(Duration::from_secs(3600)));
        assert!(late.token().is_cancelled());
    }

    #[test]
    fn guard_drop_deregisters() {
        let sup = Supervisor::start(false);
        let h = sup.handle();
        let g = h.watch(Some(Duration::from_secs(3600)));
        assert_eq!(sup.inner.watches.lock().unwrap().len(), 1);
        drop(g);
        assert_eq!(sup.inner.watches.lock().unwrap().len(), 0);
    }

    #[test]
    fn backoff_sleep_interrupts_on_cancel() {
        let sup = Supervisor::start(false);
        let h = sup.handle();
        h.cancel_global();
        let start = Instant::now();
        assert!(!h.backoff_sleep(Duration::from_secs(3600)));
        assert!(start.elapsed() < Duration::from_secs(5));
        let h2 = Supervisor::start(false).handle();
        assert!(h2.backoff_sleep(Duration::from_millis(1)), "uncancelled sleep completes");
    }
}
