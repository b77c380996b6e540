//! # save-signal — SIGINT/SIGTERM to atomic-flag bridge
//!
//! Long sweeps need graceful cancellation: on Ctrl-C or a scheduler's
//! SIGTERM, in-flight simulation cells should stop at their next
//! cycle-quantum boundary, the checkpoint journal should be flushed, and
//! the process should exit with the distinct "cancelled, resumable" code
//! (DESIGN.md §5f). The rest of the workspace forbids `unsafe`; this crate
//! confines the two `libc` calls a signal handler needs to one audited
//! module so `save-sim`/`save-bench` can stay `#![forbid(unsafe_code)]`.
//!
//! The handler itself only performs an atomic store, which is
//! async-signal-safe. Everything else (supervisor threads, journal flushes)
//! happens cooperatively on normal threads that poll [`cancel_requested`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler (or [`request_cancel`]) once a cancellation
/// signal has been observed. Never cleared in production code.
static CANCEL_REQUESTED: AtomicBool = AtomicBool::new(false);

/// `true` once SIGINT/SIGTERM was received (or [`request_cancel`] called).
pub fn cancel_requested() -> bool {
    CANCEL_REQUESTED.load(Ordering::SeqCst)
}

/// Programmatic equivalent of receiving a signal — used by tests and by
/// embedders that have their own shutdown source.
pub fn request_cancel() {
    CANCEL_REQUESTED.store(true, Ordering::SeqCst);
}

/// Test-only reset so independent tests can each observe a fresh flag.
/// Production code must never call this: a user's Ctrl-C is final.
pub fn reset_for_test() {
    CANCEL_REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    //! The one `unsafe` region in the workspace: registering a C signal
    //! handler. The handler body is a single SeqCst atomic store, the
    //! canonical async-signal-safe operation.

    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // A single atomic store — async-signal-safe.
        super::CANCEL_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        /// `signal(2)` from libc (already linked by std). The return value
        /// (previous handler) is deliberately opaque; we never restore it.
        fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the POSIX API for exactly this; the handler
        // only performs an atomic store (async-signal-safe), and the
        // function pointer has the required `extern "C" fn(i32)` ABI.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal support off unix: cancellation still works through
    /// [`super::request_cancel`], so sweeps degrade to cooperative-only.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent). After this, a Ctrl-C
/// or SIGTERM no longer kills the process; it latches the flag read by
/// [`cancel_requested`] so sweeps can flush their journals and exit with
/// the "cancelled, resumable" code. A *second* signal while the first is
/// still being honoured is latched into the same flag (the process is
/// already shutting down as fast as its cycle quantum allows).
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_latches_and_resets() {
        reset_for_test();
        assert!(!cancel_requested());
        request_cancel();
        assert!(cancel_requested());
        request_cancel();
        assert!(cancel_requested(), "latching is idempotent");
        reset_for_test();
        assert!(!cancel_requested());
    }

    #[cfg(unix)]
    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
