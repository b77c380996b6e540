//! Typed simulation errors.
//!
//! Every fallible entry point in `save-sim` returns [`SimError`] instead of
//! panicking, so figure sweeps can record a failure for one operating point
//! and keep going. The type is serializable (it rides inside the sweep-level
//! [`crate::parallel::FailureReport`]) and keeps only owned strings and
//! plain data so it crosses thread and process boundaries cleanly.

use save_core::{SanitizerReport, StallDiag};
use serde::{Deserialize, Serialize};

/// An error from running or configuring a simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SimError {
    /// A kernel ran to completion but its output disagreed with the
    /// functional reference at `index`.
    VerifyMismatch {
        /// Kernel / workload name.
        kernel: String,
        /// Core that produced the mismatch, when known (multicore runs).
        core: Option<usize>,
        /// Element index of the first mismatch.
        index: usize,
        /// Value the simulated machine produced.
        got: f32,
        /// Value the reference expected.
        want: f32,
    },
    /// The run stopped before draining: it hit the cycle budget or the
    /// retire-progress watchdog. `diag` says which and names the stalled
    /// resource.
    CycleBudgetExceeded {
        /// Kernel / workload name.
        kernel: String,
        /// Core that stalled, when known (multicore runs).
        core: Option<usize>,
        /// Pipeline snapshot at the moment the run was aborted.
        diag: Box<StallDiag>,
    },
    /// The cycle-level sanitizer detected a microarchitectural invariant
    /// violation (or an internal model-integrity check fired) and the run
    /// was aborted. `report` carries the invariant name, detection cycle
    /// and a witness of the inconsistent state.
    InvariantViolation {
        /// Kernel / workload name.
        kernel: String,
        /// Core that tripped the invariant, when known (multicore runs).
        core: Option<usize>,
        /// The sanitizer's structured witness.
        report: Box<SanitizerReport>,
    },
    /// A core or memory configuration failed validation before the run
    /// started.
    InvalidConfig {
        /// Which field is out of range, verbatim from `validate()`.
        what: String,
    },
    /// A parallel sweep job panicked; the panic was caught at the job
    /// boundary so the rest of the sweep could finish.
    WorkerPanic {
        /// Index of the job in the sweep's item list.
        job: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An I/O or serialization failure (writing results, reading configs).
    Io {
        /// Description of what failed.
        what: String,
    },
    /// The run was cancelled cooperatively (Ctrl-C / SIGTERM or an embedder's
    /// cancel token): the core stopped at its next cycle-quantum boundary.
    /// Cancelled cells are *not* failures — a resumed sweep recomputes them.
    Cancelled {
        /// Kernel / sweep cell that was interrupted.
        what: String,
    },
    /// A sweep cell exceeded its per-cell wall-clock deadline and was
    /// interrupted by the supervisor. Distinct from [`SimError::Cancelled`]:
    /// only this cell was stopped, the sweep keeps going.
    DeadlineExceeded {
        /// Kernel / sweep cell that was interrupted.
        what: String,
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// A cell's spec is unusable: the spec (or its workload) fails to
    /// serialize for its content key. Retrying the same cell reproduces
    /// the same error.
    Protocol {
        /// Description of the violation.
        what: String,
    },
    /// A measurement missed its gate: a throughput floor, a regression
    /// bound, or a purity check comparing two runs of deterministic
    /// simulations. Re-running the same measurement cannot turn a purity
    /// mismatch into a match, and a floor miss is a verdict to report, not
    /// a fault to retry.
    GateMiss {
        /// Which gate missed, with the measured and required values.
        what: String,
    },
    /// A cell that failed in an earlier run of a checkpointed sweep,
    /// restored from the journal on resume instead of being re-run (see
    /// [`crate::checkpoint::CellRecord::journaled_error`]).
    Journaled {
        /// The original error's [`SimError::kind`] tag.
        kind: String,
    },
}

/// How a durable sweep should react to a failed cell (DESIGN.md §5f).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetryClass {
    /// Retrying cannot change the outcome (deterministic model error):
    /// record the failure immediately and move on.
    Permanent,
    /// The failure may be environmental (scheduling jitter tripping a
    /// deadline, a panic from resource pressure, a transient I/O error):
    /// retry with exponential backoff up to the policy's attempt budget.
    Transient,
    /// The whole sweep is being cancelled: stop retrying, flush the
    /// journal, and exit with the "cancelled, resumable" code.
    Cancelled,
}

impl SimError {
    /// Short machine-readable tag for tables and filenames. A
    /// [`SimError::Journaled`] failure reports the tag of the error it
    /// was journaled with.
    pub fn kind(&self) -> &str {
        match self {
            SimError::VerifyMismatch { .. } => "verify-mismatch",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::WorkerPanic { .. } => "worker-panic",
            SimError::Io { .. } => "io",
            SimError::Cancelled { .. } => "cancelled",
            SimError::DeadlineExceeded { .. } => "deadline",
            SimError::Protocol { .. } => "protocol",
            SimError::GateMiss { .. } => "gate",
            SimError::Journaled { kind } => kind,
        }
    }

    /// Classifies this error for the durable sweep's retry state machine.
    ///
    /// The table is deliberately exhaustive (no `_` arm) so adding a variant
    /// forces a classification decision here; `tests::retry_classification`
    /// asserts every `kind()` tag's class.
    ///
    /// * Model-determined outcomes ([`SimError::VerifyMismatch`],
    ///   [`SimError::InvariantViolation`], [`SimError::InvalidConfig`]) are
    ///   [`RetryClass::Permanent`]: the simulator is deterministic, so
    ///   re-running the same cell reproduces the same error.
    /// * [`SimError::CycleBudgetExceeded`] is [`RetryClass::Transient`]: a
    ///   stall diagnosis depends on the configured budget/horizon, and the
    ///   durable layer's policy may raise them between attempts.
    /// * Host-side failures ([`SimError::WorkerPanic`], [`SimError::Io`],
    ///   [`SimError::DeadlineExceeded`]) are [`RetryClass::Transient`]:
    ///   they can come from resource pressure on the machine, not the model.
    /// * [`SimError::Protocol`] is [`RetryClass::Permanent`]: a spec that
    ///   does not serialize stays that way.
    /// * [`SimError::GateMiss`] is [`RetryClass::Permanent`]: it is the
    ///   verdict of a completed measurement.
    /// * [`SimError::Journaled`] is [`RetryClass::Permanent`] whatever its
    ///   original kind: a resumed sweep reports the journaled verdict
    ///   rather than spending the cell's attempts again.
    pub fn retry_class(&self) -> RetryClass {
        match self {
            SimError::VerifyMismatch { .. } => RetryClass::Permanent,
            SimError::InvariantViolation { .. } => RetryClass::Permanent,
            SimError::InvalidConfig { .. } => RetryClass::Permanent,
            SimError::CycleBudgetExceeded { .. } => RetryClass::Transient,
            SimError::WorkerPanic { .. } => RetryClass::Transient,
            SimError::Io { .. } => RetryClass::Transient,
            SimError::DeadlineExceeded { .. } => RetryClass::Transient,
            SimError::Cancelled { .. } => RetryClass::Cancelled,
            SimError::Protocol { .. } => RetryClass::Permanent,
            SimError::GateMiss { .. } => RetryClass::Permanent,
            SimError::Journaled { .. } => RetryClass::Permanent,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::VerifyMismatch { kernel, core, index, got, want } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": output mismatch at {index}: got {got} want {want}")
            }
            SimError::CycleBudgetExceeded { kernel, core, diag } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": did not complete: {diag}")
            }
            SimError::InvariantViolation { kernel, core, report } => {
                write!(f, "kernel {kernel}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, ": sanitizer abort: {report}")
            }
            SimError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            SimError::WorkerPanic { job, message } => {
                write!(f, "sweep job {job} panicked: {message}")
            }
            SimError::Io { what } => write!(f, "i/o error: {what}"),
            SimError::Cancelled { what } => write!(f, "cancelled: {what}"),
            SimError::DeadlineExceeded { what, millis } => {
                write!(f, "deadline exceeded ({millis} ms): {what}")
            }
            SimError::Protocol { what } => write!(f, "protocol error: {what}"),
            SimError::GateMiss { what } => write!(f, "gate missed: {what}"),
            SimError::Journaled { kind } => {
                write!(f, "failed in a previous run (journaled as {kind}); not re-run")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io { what: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = SimError::VerifyMismatch {
            kernel: "gemm".into(),
            core: Some(3),
            index: 7,
            got: 1.0,
            want: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("gemm") && s.contains("core 3") && s.contains("at 7"), "{s}");
        assert_eq!(e.kind(), "verify-mismatch");
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let e: SimError = io.into();
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("no such file"));
    }

    /// One sample of every `SimError` variant, so the classification table
    /// below provably covers the whole enum (adding a variant without
    /// extending this list fails the count assertion).
    fn one_of_each() -> Vec<SimError> {
        use save_core::{CoreStats, SchedulerKind, StallCause};
        vec![
            SimError::VerifyMismatch {
                kernel: "gemm".into(),
                core: None,
                index: 0,
                got: 0.0,
                want: 1.0,
            },
            SimError::CycleBudgetExceeded {
                kernel: "gemm".into(),
                core: None,
                diag: Box::new(StallDiag {
                    cause: StallCause::CycleBudget,
                    cycle: 10,
                    last_commit_cycle: 5,
                    rob_occupancy: 0,
                    rob_capacity: 224,
                    rs_occupancy: 0,
                    rs_capacity: 97,
                    loads_in_flight: 0,
                    phys_free: 1,
                    oldest_unretired: None,
                    scheduler: SchedulerKind::Baseline,
                    stats: CoreStats::default(),
                }),
            },
            SimError::InvariantViolation {
                kernel: "gemm".into(),
                core: None,
                report: Box::new(SanitizerReport {
                    invariant: "lane-conservation".into(),
                    cycle: 3,
                    rob: None,
                    witness: "mask mismatch".into(),
                }),
            },
            SimError::InvalidConfig { what: "vpus must be 1 or 2".into() },
            SimError::WorkerPanic { job: 4, message: "boom".into() },
            SimError::Io { what: "disk full".into() },
            SimError::Cancelled { what: "cell (0.5, 0.5)".into() },
            SimError::DeadlineExceeded { what: "cell (0.5, 0.5)".into(), millis: 250 },
            SimError::Protocol { what: "serialize workload".into() },
            SimError::GateMiss { what: "speedup 1.1x below the 2.0x floor".into() },
            SimError::Journaled { kind: "invalid-config".into() },
            SimError::Journaled { kind: "deadline".into() },
        ]
    }

    /// The retry-class table, one row per [`one_of_each`] sample in order:
    /// every variant appears and maps to its `kind()` tag and the
    /// documented class. Journaled failures keep their original tag but
    /// are permanent even when that tag's own class is transient.
    #[test]
    fn retry_classification() {
        let expected: &[(&str, RetryClass)] = &[
            ("verify-mismatch", RetryClass::Permanent),
            ("cycle-budget", RetryClass::Transient),
            ("invariant-violation", RetryClass::Permanent),
            ("invalid-config", RetryClass::Permanent),
            ("worker-panic", RetryClass::Transient),
            ("io", RetryClass::Transient),
            ("cancelled", RetryClass::Cancelled),
            ("deadline", RetryClass::Transient),
            ("protocol", RetryClass::Permanent),
            ("gate", RetryClass::Permanent),
            ("invalid-config", RetryClass::Permanent),
            ("deadline", RetryClass::Permanent),
        ];
        let samples = one_of_each();
        assert_eq!(
            samples.len(),
            expected.len(),
            "every SimError variant needs a row in the classification table"
        );
        for (e, (kind, want)) in samples.iter().zip(expected) {
            assert_eq!(e.kind(), *kind, "wrong kind for {e:?}");
            assert_eq!(e.retry_class(), *want, "wrong class for {e:?}");
        }
    }

    #[test]
    fn cancellation_variants_display() {
        let c = SimError::Cancelled { what: "fig14 cell 3".into() };
        assert_eq!(c.kind(), "cancelled");
        assert!(c.to_string().contains("fig14 cell 3"));
        let d = SimError::DeadlineExceeded { what: "fig14 cell 3".into(), millis: 1500 };
        assert_eq!(d.kind(), "deadline");
        assert!(d.to_string().contains("1500 ms"), "{d}");
    }

    #[test]
    fn protocol_and_gate_variants_display() {
        let p = SimError::Protocol { what: "serialize workload".into() };
        assert_eq!(p.kind(), "protocol");
        assert!(p.to_string().contains("serialize workload"), "{p}");
        let g = SimError::GateMiss { what: "speedup 1.1x below the 2.0x floor".into() };
        assert_eq!(g.kind(), "gate");
        assert!(g.to_string().contains("2.0x floor"), "{g}");
    }

    #[test]
    fn retry_class_round_trips_through_json() {
        for e in one_of_each() {
            let class = e.retry_class();
            let json = serde_json::to_string(&class).unwrap();
            let back: RetryClass = serde_json::from_str(&json).unwrap();
            assert_eq!(class, back);
        }
    }
}
