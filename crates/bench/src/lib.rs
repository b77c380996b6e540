//! # save-bench — regeneration harness for every table and figure
//!
//! One binary per experiment (`table1`-`table3`, `fig12`-`fig19`, plus the
//! reports), each printing the same rows/series the paper reports and
//! writing a machine-readable JSON copy under `target/experiments/` for
//! EXPERIMENTS.md. Criterion micro-benchmarks cover the simulator's hot
//! paths and one representative kernel per experiment.
//!
//! Every binary funnels through [`run_main`], which parses the uniform
//! durable-execution flags ([`BenchCli`]: `--checkpoint-dir`, `--resume`,
//! `--cell-deadline`, `--retries`, …), installs the SIGINT/SIGTERM
//! supervisor, and maps the run's outcome to one process exit code
//! convention (0 clean / 1 lossy / 2 usage / 130 cancelled-resumable).
//!
//! Sweeps run through [`SweepSession`]: each simulated cell is a recorded
//! job executed under the per-cell retry/deadline policy of
//! [`save_sim::durable`], a cell that fails (typed [`SimError`] or a
//! panic) becomes a `NaN` entry instead of aborting the figure, and
//! [`SweepSession::finish`] dumps a [`FailureReport`] JSON next to the
//! results. With `--checkpoint-dir`, every
//! [`SweepSession::spec_seconds_batch`] cell is journaled by label hash, so
//! a killed run resumed with `--resume` restores finished cells
//! bit-identically instead of recomputing them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use save_sim::checkpoint::{fnv1a, CellRecord, Checkpoint, SweepManifest};
use save_sim::durable::{exit_code_for, run_cell, RetryPolicy, EXIT_FAILURES, EXIT_USAGE};
use save_sim::error::{RetryClass, SimError};
use save_sim::parallel::{FailureReport, JobFailure};
use save_sim::spec::CellSpec;
use save_sim::{CancelToken, Supervisor, SupervisorHandle, TraceStore};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Directory experiment JSON results are written to.
///
/// # Errors
/// [`SimError::Io`] if the directory cannot be created.
pub fn experiments_dir() -> Result<PathBuf, SimError> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir)
        .map_err(|e| SimError::Io { what: format!("create {}: {e}", dir.display()) })?;
    Ok(dir)
}

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`.
///
/// # Errors
/// [`SimError::Io`] on serialization or filesystem failure.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), SimError> {
    let path = experiments_dir()?.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)
        .map_err(|e| SimError::Io { what: format!("create {}: {e}", path.display()) })?;
    let s = serde_json::to_string_pretty(value)
        .map_err(|e| SimError::Io { what: format!("serialize {name}: {e}") })?;
    f.write_all(s.as_bytes())
        .map_err(|e| SimError::Io { what: format!("write {}: {e}", path.display()) })?;
    eprintln!("[saved {}]", path.display());
    Ok(())
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Uniform command line shared by every experiment binary.
///
/// Durable-execution flags (`--checkpoint-dir`, `--resume`,
/// `--cell-deadline`, `--retries`) are understood identically everywhere;
/// anything unrecognised lands in [`BenchCli::rest`] for binaries with
/// extra arguments of their own (`netreport`, `simulate`, `perfstat`).
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// Reduced sweep sizes (`--quick`).
    pub quick: bool,
    /// Use the paper's full 10-level grid (`--full`).
    pub full: bool,
    /// Journal completed cells here (`--checkpoint-dir DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing journal (`--resume`).
    pub resume: bool,
    /// Per-cell wall-clock deadline in milliseconds (`--cell-deadline MS`).
    pub cell_deadline_ms: Option<u64>,
    /// Extra attempts per transiently-failing cell (`--retries N`).
    pub retries: u32,
    /// Worker threads for surface sweeps (`--threads N`).
    pub threads: Option<usize>,
    /// Positional / binary-specific arguments, in order.
    pub rest: Vec<String>,
}

/// The usage text appended to flag-parse errors.
pub const BENCH_USAGE: &str = "uniform flags: [--quick] [--full] \
     [--checkpoint-dir DIR] [--resume] [--cell-deadline MS] [--retries N] \
     [--threads N]";

impl BenchCli {
    /// Parses the process command line (without the program name).
    ///
    /// # Errors
    /// A human-readable usage message when a flag value is missing or
    /// malformed.
    pub fn parse() -> Result<Self, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests and child processes).
    ///
    /// # Errors
    /// A human-readable usage message when a flag value is missing or
    /// malformed.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut cli = BenchCli { retries: 2, ..BenchCli::default() };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next().ok_or_else(|| format!("{flag} needs a value\n{BENCH_USAGE}"))
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--full" => cli.full = true,
                "--resume" => cli.resume = true,
                "--checkpoint-dir" => cli.checkpoint_dir = Some(PathBuf::from(value(&arg)?)),
                "--cell-deadline" => {
                    let v = value(&arg)?;
                    cli.cell_deadline_ms = Some(v.parse().map_err(|_| {
                        format!("--cell-deadline takes milliseconds, got {v:?}\n{BENCH_USAGE}")
                    })?);
                }
                "--retries" => {
                    let v = value(&arg)?;
                    cli.retries = v.parse().map_err(|_| {
                        format!("--retries takes a count, got {v:?}\n{BENCH_USAGE}")
                    })?;
                }
                "--threads" => {
                    let v = value(&arg)?;
                    cli.threads = Some(v.parse().map_err(|_| {
                        format!("--threads takes a count, got {v:?}\n{BENCH_USAGE}")
                    })?);
                }
                _ => cli.rest.push(arg),
            }
        }
        if cli.resume && cli.checkpoint_dir.is_none() {
            return Err(format!("--resume requires --checkpoint-dir\n{BENCH_USAGE}"));
        }
        Ok(cli)
    }

    /// The sparsity grid implied by the flags.
    pub fn grid(&self) -> Vec<f64> {
        if self.full {
            save_sim::surface::paper_grid()
        } else if self.quick {
            vec![0.0, 0.3, 0.6, 0.9]
        } else {
            save_sim::surface::coarse_grid()
        }
    }

    /// The per-cell retry/deadline policy implied by the flags.
    pub fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            retries: self.retries,
            deadline: self.cell_deadline_ms.map(Duration::from_millis),
            ..RetryPolicy::default()
        }
    }

    /// Worker threads for sweeps: `--threads` or the host's parallelism.
    pub fn threads_or_default(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    }
}

/// Fault-isolating, durable harness for one experiment binary.
///
/// Every simulated cell goes through [`SweepSession::run`] (or a
/// [`SweepSession::spec_seconds_batch`] of seconds cells): the job runs
/// under the session's [`RetryPolicy`] via [`save_sim::durable::run_cell`]
/// — panic isolation, per-attempt wall-clock deadline, bounded retries with
/// exponential backoff — and a cell that still fails is recorded instead
/// of propagated, so the sweep continues with the remaining cells.
///
/// When built with a checkpoint (through [`run_main`] and
/// `--checkpoint-dir`), each seconds cell of a spec batch is journaled
/// under the FNV-1a hash of its label; on `--resume`, journaled cells are
/// restored bit-identically without recomputation. A global cancel
/// (Ctrl-C / SIGTERM) stops claiming cells, leaves the journal flushed,
/// and turns into exit code 130 from [`SweepSession::finish`].
pub struct SweepSession {
    name: String,
    jobs: usize,
    failures: Vec<JobFailure>,
    /// Owns the supervisor for standalone sessions ([`SweepSession::new`]);
    /// sessions built by [`run_main`] share the binary-wide supervisor.
    _own: Option<Supervisor>,
    sup: SupervisorHandle,
    policy: RetryPolicy,
    checkpoint: Option<Checkpoint>,
    resumed: usize,
    cancelled: bool,
}

impl SweepSession {
    /// Starts a standalone session for the experiment called `name` (used
    /// for the `<name>-failures.json` dump): private supervisor, no signal
    /// handlers, no checkpoint, default retry policy.
    pub fn new(name: &str) -> Self {
        let own = Supervisor::start(false);
        let sup = own.handle();
        SweepSession {
            name: name.to_string(),
            jobs: 0,
            failures: Vec::new(),
            _own: Some(own),
            sup,
            policy: RetryPolicy::default(),
            checkpoint: None,
            resumed: 0,
            cancelled: false,
        }
    }

    /// Builds the durable session [`run_main`] hands to the binary body:
    /// shared supervisor, the CLI's retry policy, and — when
    /// `--checkpoint-dir` was given — an open [`Checkpoint`] whose
    /// manifest fingerprints the session name and grid flags.
    ///
    /// # Errors
    /// Checkpoint-directory errors: manifest mismatch on `--resume`, an
    /// existing journal without `--resume`, or plain I/O failure.
    pub fn durable(name: &str, cli: &BenchCli, sup: SupervisorHandle) -> Result<Self, SimError> {
        let checkpoint = match &cli.checkpoint_dir {
            None => None,
            Some(dir) => {
                // Session journals key cells by label hash, not index, so
                // the manifest's cell count is 0; the fingerprint still
                // pins the experiment and its grid flags so two different
                // sweeps can't share a journal.
                let manifest = SweepManifest::new(
                    &format!("session:{name}"),
                    "label-keyed experiment session journal",
                    0,
                    [
                        name.to_string(),
                        format!("quick={}", cli.quick),
                        format!("full={}", cli.full),
                    ],
                );
                Some(Checkpoint::open(dir, &manifest, cli.resume)?)
            }
        };
        let resumed = checkpoint.as_ref().map(|c| c.resumed_cells()).unwrap_or(0);
        Ok(SweepSession {
            name: name.to_string(),
            jobs: 0,
            failures: Vec::new(),
            _own: None,
            sup,
            policy: cli.policy(),
            checkpoint,
            resumed,
            cancelled: false,
        })
    }

    /// The supervisor handle, for threading into [`save_sim::surface::DurableSweep`]
    /// or [`save_sim::EstimatorDurability`].
    pub fn supervisor(&self) -> &SupervisorHandle {
        &self.sup
    }

    /// `true` once a global cancel has been observed; remaining cells
    /// return `None`/`NaN` immediately.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Number of cells restored from the journal instead of recomputed.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Marks the whole session cancelled (used when a nested durable sweep
    /// reports cancellation).
    pub fn note_cancelled(&mut self) {
        self.cancelled = true;
    }

    /// Records a failure that happened outside any labelled cell (e.g. a
    /// result-serialization error at the end of a binary). A cancellation
    /// error flips the cancelled flag instead of counting as a failure.
    pub fn note_failure(&mut self, label: &str, error: SimError) {
        if error.retry_class() == RetryClass::Cancelled {
            self.cancelled = true;
            return;
        }
        let job = self.jobs;
        self.jobs += 1;
        eprintln!("[{}] {label} failed: [{}] {error}", self.name, error.kind());
        self.failures.push(JobFailure { job, label: Some(label.to_string()), attempts: 1, error });
    }

    /// Runs one labelled job under the retry/deadline policy with panic
    /// isolation. Returns `None` when the job ultimately fails (recording
    /// the failure) or when the session is cancelled (recording nothing —
    /// the cell is resumable, not failed).
    ///
    /// Generic-result cells are *not* journaled; only
    /// [`SweepSession::spec_seconds_batch`] cells participate in
    /// checkpoint/resume.
    pub fn run<R>(
        &mut self,
        label: &str,
        f: impl Fn(&CancelToken) -> Result<R, SimError>,
    ) -> Option<R> {
        let job = self.jobs;
        self.jobs += 1;
        if self.cancelled || self.sup.global().is_cancelled() {
            self.cancelled = true;
            return None;
        }
        let run = run_cell(&self.sup, &self.policy, label, job, f);
        match run.result {
            Ok(r) => Some(r),
            Err(error) => {
                if error.retry_class() == RetryClass::Cancelled {
                    self.cancelled = true;
                    return None;
                }
                eprintln!(
                    "[{}] job {job} ({label}) failed after {} attempt(s): [{}] {error}",
                    self.name,
                    run.attempts,
                    error.kind()
                );
                self.failures.push(JobFailure {
                    job,
                    label: Some(label.to_string()),
                    attempts: run.attempts as usize,
                    error,
                });
                None
            }
        }
    }

    /// Like [`SweepSession::run`] for jobs producing a duration: a failed
    /// cell reports as `NaN` so tables and JSON keep their shape.
    ///
    /// This is the journaled path: with a checkpoint, a finished cell is
    /// appended to the journal (keyed by the FNV-1a hash of `label`) and a
    /// resumed run restores it bit-identically — including journaled
    /// *failures*, which are re-reported without burning their deadline
    /// again. Cancelled cells are never journaled, so they re-run.
    fn seconds(&mut self, label: &str, f: impl Fn(&CancelToken) -> Result<f64, SimError>) -> f64 {
        let cell = fnv1a(label.as_bytes());
        if let Some(rec) = self.checkpoint.as_ref().and_then(|c| c.done(cell)).cloned() {
            self.jobs += 1;
            if rec.ok() {
                return rec.secs();
            }
            self.failures.push(JobFailure {
                job: self.jobs - 1,
                label: Some(label.to_string()),
                attempts: rec.attempts as usize,
                error: rec.journaled_error(),
            });
            return f64::NAN;
        }

        let job = self.jobs;
        self.jobs += 1;
        if self.cancelled || self.sup.global().is_cancelled() {
            self.cancelled = true;
            return f64::NAN;
        }
        let run = run_cell(&self.sup, &self.policy, label, job, f);
        let (secs, error_kind) = match run.result {
            Ok(s) => (s, String::new()),
            Err(error) => {
                if error.retry_class() == RetryClass::Cancelled {
                    // Cancelled cells are never journaled: they re-run on
                    // resume rather than count as failures.
                    self.cancelled = true;
                    return f64::NAN;
                }
                eprintln!(
                    "[{}] job {job} ({label}) failed after {} attempt(s): [{}] {error}",
                    self.name,
                    run.attempts,
                    error.kind()
                );
                let kind = error.kind().to_string();
                self.failures.push(JobFailure {
                    job,
                    label: Some(label.to_string()),
                    attempts: run.attempts as usize,
                    error,
                });
                (f64::NAN, kind)
            }
        };
        // Journal successes so a resume skips them, and failures so a
        // resume fails fast instead of burning the deadline again.
        if let Some(ck) = self.checkpoint.as_mut() {
            let rec = CellRecord {
                cell,
                secs_bits: secs.to_bits(),
                cycles: 0,
                attempts: run.attempts,
                error_kind,
            };
            if let Err(e) = ck.record(rec) {
                eprintln!("[{}] journal append failed: {e}", self.name);
            }
        }
        secs
    }

    /// Resolves a batch of self-describing `(label, spec)` cells through
    /// the journaled seconds path and returns their seconds in submission
    /// order. Journaled cells are restored without running; the rest share
    /// one bounded [`TraceStore`], so each distinct functional key is built
    /// once, every other cell with that key reuses the built kernel, and
    /// repeated cells are answered from the full-result memo,
    /// bit-identically (DESIGN.md §5h).
    pub fn spec_seconds_batch(&mut self, cells: &[(String, CellSpec)]) -> Vec<f64> {
        self.spec_seconds_in(cells, &TraceStore::with_capacity(8))
    }

    /// [`SweepSession::spec_seconds_batch`] through the caller's `store`.
    fn spec_seconds_in(&mut self, cells: &[(String, CellSpec)], store: &TraceStore) -> Vec<f64> {
        cells
            .iter()
            .map(|(label, spec)| {
                self.seconds(label, |tok| spec.run_traced(Some(tok), store).map(|r| r.seconds))
            })
            .collect()
    }

    /// The failure report accumulated so far.
    pub fn report(&self) -> FailureReport {
        FailureReport {
            total_jobs: self.jobs,
            succeeded: self.jobs - self.failures.len(),
            failures: self.failures.clone(),
        }
    }

    /// `true` when no job has failed yet.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The exit code [`SweepSession::finish`] will map to: cancellation
    /// outranks failures (the run is resumable, not broken). Delegates to
    /// [`save_sim::durable::exit_code_for`] so every binary shares one
    /// mapping.
    fn exit_code(&self) -> u8 {
        exit_code_for(self.cancelled, self.failures.is_empty())
    }

    /// Prints the failure report, persists it as
    /// `target/experiments/<name>-failures.json` when lossy, and returns
    /// the process exit code: 0 clean, 1 lossy, 130 cancelled-but-resumable.
    pub fn finish(self) -> ExitCode {
        let code = self.exit_code();
        if self.cancelled {
            eprintln!(
                "[{}] cancelled; journal flushed{}",
                self.name,
                match self.checkpoint.as_ref() {
                    Some(ck) => format!(
                        " — resume with --checkpoint-dir {} --resume",
                        ck.dir().display()
                    ),
                    None => " (no --checkpoint-dir: completed cells are lost)".to_string(),
                }
            );
            return ExitCode::from(code);
        }
        let report = self.report();
        if report.is_clean() {
            return ExitCode::from(code);
        }
        eprintln!("[{}] sweep completed with failures: {report}", self.name);
        if let Err(e) = write_json(&format!("{}-failures", self.name), &report) {
            eprintln!("[{}] could not persist failure report: {e}", self.name);
        }
        ExitCode::from(code)
    }
}

/// Entry point shared by every experiment binary: parses the uniform
/// [`BenchCli`] flags (usage errors exit 2), installs SIGINT/SIGTERM
/// handlers via the process supervisor, opens the optional checkpoint, runs
/// `body`, and maps the session outcome to the exit-code convention
/// (0 clean / 1 lossy / 2 usage / 130 cancelled).
pub fn run_main(
    name: &str,
    body: impl FnOnce(&BenchCli, &mut SweepSession) -> Result<(), SimError>,
) -> ExitCode {
    let cli = match BenchCli::parse() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{name}: {msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let sup = Supervisor::start(true);
    let mut session = match SweepSession::durable(name, &cli, sup.handle()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: [{}] {e}", e.kind());
            return ExitCode::from(EXIT_FAILURES);
        }
    };
    if session.resumed() > 0 {
        eprintln!("[{name}] resuming: {} journaled cell(s) restored", session.resumed());
    }
    if let Err(e) = body(&cli, &mut session) {
        session.note_failure("main", e);
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_sim::durable::EXIT_CANCELLED;

    #[test]
    fn session_isolates_failures_and_reports() {
        let mut s = SweepSession::new("unit");
        assert_eq!(s.run("ok", |_| Ok(41)), Some(41));
        assert_eq!(
            s.run::<u32>("typed", |_| Err(SimError::InvalidConfig { what: "x".into() })),
            None
        );
        assert_eq!(s.run::<u32>("panic", |_| panic!("cell exploded")), None);
        assert!(s.seconds("nan", |_| Err(SimError::InvalidConfig { what: "y".into() })).is_nan());
        let r = s.report();
        assert_eq!(r.total_jobs, 4);
        assert_eq!(r.succeeded, 1);
        assert_eq!(r.failures.len(), 3);
        assert!(matches!(r.failures[1].error, SimError::WorkerPanic { job: 2, .. }));
        assert_eq!(r.exit_code(), 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn clean_session_exits_zero() {
        let mut s = SweepSession::new("clean");
        assert!((s.seconds("ok", |_| Ok(1.5)) - 1.5).abs() < 1e-12);
        assert!(s.is_clean());
        assert_eq!(s.report().exit_code(), 0);
    }

    #[test]
    fn transient_failures_are_retried_by_the_session() {
        let mut s = SweepSession::new("retry");
        let calls = std::sync::atomic::AtomicU32::new(0);
        let v = s.run("flaky", |_| {
            if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                Err(SimError::Io { what: "first try flaky".into() })
            } else {
                Ok(5u32)
            }
        });
        assert_eq!(v, Some(5));
        assert!(s.is_clean(), "healed cells are not failures");
    }

    #[test]
    fn cancelled_session_skips_cells_without_recording_failures() {
        let mut s = SweepSession::new("cancel");
        s.sup.cancel_global();
        assert_eq!(s.run("skipped", |_| Ok(1u32)), None);
        assert!(s.seconds("also skipped", |_| Ok(2.0)).is_nan());
        assert!(s.is_cancelled());
        assert!(s.is_clean(), "cancelled cells are resumable, not failures");
        assert_eq!(s.exit_code(), EXIT_CANCELLED);
    }

    #[test]
    fn cli_parses_durable_flags_and_rest() {
        let cli = BenchCli::parse_from([
            "--quick",
            "--checkpoint-dir",
            "/tmp/ck",
            "--resume",
            "--cell-deadline",
            "250",
            "--retries",
            "4",
            "--threads",
            "3",
            "resnet50",
            "--mp",
        ])
        .unwrap();
        assert!(cli.quick && !cli.full);
        assert_eq!(cli.checkpoint_dir.as_deref(), Some(std::path::Path::new("/tmp/ck")));
        assert!(cli.resume);
        assert_eq!(cli.cell_deadline_ms, Some(250));
        assert_eq!(cli.retries, 4);
        assert_eq!(cli.threads, Some(3));
        assert_eq!(cli.rest, vec!["resnet50".to_string(), "--mp".to_string()]);
        let p = cli.policy();
        assert_eq!(p.retries, 4);
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn cli_rejects_malformed_values() {
        assert!(BenchCli::parse_from(["--cell-deadline"]).is_err());
        assert!(BenchCli::parse_from(["--retries", "many"]).is_err());
        assert!(BenchCli::parse_from(["--resume"]).is_err(), "--resume needs a directory");
    }

    #[test]
    fn durable_session_journals_seconds_cells_by_label() {
        let dir = std::env::temp_dir()
            .join(format!("save-bench-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cli = BenchCli::parse_from([
            "--checkpoint-dir".to_string(),
            dir.display().to_string(),
        ])
        .unwrap();

        let sup = Supervisor::start(false);
        let mut s = SweepSession::durable("unit", &cli, sup.handle()).unwrap();
        let secs = 1.0_f64 / 3.0;
        assert_eq!(s.seconds("cell-a", |_| Ok(secs)).to_bits(), secs.to_bits());
        assert!(s
            .seconds("cell-b", |_| Err(SimError::InvalidConfig { what: "bad".into() }))
            .is_nan());
        drop(s);

        // Without --resume, the journal refuses to be overwritten.
        let err = SweepSession::durable("unit", &cli, sup.handle()).err().expect("journal must refuse overwrite");
        assert!(err.to_string().contains("--resume"), "{err}");

        let cli2 = BenchCli { resume: true, ..cli.clone() };
        let mut s = SweepSession::durable("unit", &cli2, sup.handle()).unwrap();
        assert_eq!(s.resumed(), 2);
        let called = std::sync::atomic::AtomicU32::new(0);
        let restored = s.seconds("cell-a", |_| {
            called.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(0.0)
        });
        assert_eq!(called.load(std::sync::atomic::Ordering::SeqCst), 0, "no recompute");
        assert_eq!(restored.to_bits(), secs.to_bits(), "bit-identical restore");
        assert!(s.seconds("cell-b", |_| Ok(1.0)).is_nan(), "journaled failure fails fast");
        let failures = s.report().failures;
        assert_eq!(failures.len(), 1);
        let resumed = &failures[0].error;
        assert_eq!(resumed.kind(), "invalid-config", "the journaled kind is kept: {resumed}");
        assert_eq!(resumed.retry_class(), RetryClass::Permanent, "{resumed}");

        // A different experiment may not reuse the directory.
        let err = SweepSession::durable("other", &cli2, sup.handle()).err().expect("manifest must mismatch");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The batch path on a durable session: every cell equals its direct
    /// run bit for bit — including cells repeated under a second label
    /// (a named operating point, and a `Custom` baseline as the ratio
    /// binaries submit it), which the shared store answers from its memo —
    /// and a resumed session restores the whole batch from the journal
    /// with the same bits.
    #[test]
    fn spec_batch_matches_direct_runs_and_resumes_bit_identically() {
        use save_core::CoreConfig;
        use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
        use save_sim::{ConfigKind, MachineConfig};

        let w = GemmWorkload::dense(
            "batch",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            2,
        )
        .with_sparsity(0.3, 0.5);
        let spec = |kind| CellSpec::new(w.clone(), kind, MachineConfig::default(), 11);
        let custom = CellSpec::custom(w.clone(), CoreConfig::baseline(), MachineConfig::default(), 11);
        let cells = vec![
            ("base".to_string(), spec(ConfigKind::Baseline)),
            ("save2".to_string(), spec(ConfigKind::Save2Vpu)),
            ("save2-again".to_string(), spec(ConfigKind::Save2Vpu)),
            ("custom-base".to_string(), custom.clone()),
            ("custom-base-again".to_string(), custom),
        ];
        let direct: Vec<u64> =
            cells.iter().map(|(_, s)| s.run(None).unwrap().result.seconds.to_bits()).collect();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();

        let dir =
            std::env::temp_dir().join(format!("save-bench-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cli = BenchCli::parse_from([
            "--checkpoint-dir".to_string(),
            dir.display().to_string(),
        ])
        .unwrap();
        let sup = Supervisor::start(false);

        let mut s = SweepSession::durable("batch", &cli, sup.handle()).unwrap();
        let store = TraceStore::with_capacity(8);
        let first = s.spec_seconds_in(&cells, &store);
        assert_eq!(bits(&first), direct, "batch must equal direct runs bit for bit");
        assert_eq!(store.result_hits(), 2, "both repeats are answered from the memo");
        assert!(s.is_clean(), "{}", s.report());
        drop(s);

        let resume = BenchCli { resume: true, ..cli };
        let mut s = SweepSession::durable("batch", &resume, sup.handle()).unwrap();
        assert_eq!(s.resumed(), cells.len(), "every label is journaled");
        let again = s.spec_seconds_batch(&cells);
        assert_eq!(bits(&again), direct, "resumed batch must return the same bits");
        assert!(s.is_clean(), "{}", s.report());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
