//! Content-addressed sweep checkpoints: manifest + append-only journal.
//!
//! A durable sweep (DESIGN.md §5f) persists two files in its checkpoint
//! directory:
//!
//! * `manifest.json` — a [`SweepManifest`] identifying *what* is being
//!   swept: sweep name, cell count, and a content fingerprint over the
//!   kernel, grid, and machine-configuration descriptions. Written
//!   atomically (temp file + rename) so a crash can never leave a torn
//!   manifest. On `--resume`, a fingerprint mismatch is a hard error —
//!   resuming someone else's journal would silently mix results from two
//!   different experiments.
//! * `journal.jsonl` — one [`CellRecord`] JSON line per *completed* cell,
//!   appended and flushed as each cell finishes. Timing results are stored
//!   as [`f64::to_bits`] (`secs_bits`) so a resumed run reconstructs the
//!   surface **bit-identically**: no decimal round-trip is involved, and
//!   the vendored JSON layer keeps integer literals as text.
//!
//! A process killed mid-append (SIGKILL) can leave at most one truncated
//! line at the *end* of the journal; [`Checkpoint::open`] tolerates exactly
//! that (the cell is simply recomputed) while a malformed line anywhere
//! else — which no crash can produce — is reported as corruption.

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal/manifest schema version; bump on incompatible layout changes.
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// 64-bit FNV-1a over `bytes` — the workspace's dependency-free content
/// hash. Not cryptographic; it only needs to make accidental manifest
/// collisions (different kernel/grid/config under one checkpoint dir)
/// overwhelmingly unlikely.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over a sequence of parts with a separator byte between them, so
/// `["ab", "c"]` and `["a", "bc"]` hash differently.
pub fn fingerprint<I, P>(parts: I) -> u64
where
    I: IntoIterator<Item = P>,
    P: AsRef<[u8]>,
{
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(p.as_ref());
        buf.push(0x1f);
    }
    fnv1a(&buf)
}

/// Identity of a sweep: what the journal's cell indices mean.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Layout version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// Human-readable sweep name (e.g. the figure/binary name).
    pub name: String,
    /// Hex content fingerprint over kernel + grid + machine configuration.
    pub fingerprint: String,
    /// Total number of cells in the sweep (journal indices are `0..cells`).
    pub cells: usize,
    /// Free-form description shown in mismatch errors.
    pub description: String,
}

impl SweepManifest {
    /// Builds a manifest whose fingerprint covers `parts` (kernel name,
    /// grid rendering, config debug strings, …) plus the cell count.
    pub fn new<I, P>(name: &str, description: &str, cells: usize, parts: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut buf: Vec<Vec<u8>> = vec![format!("cells={cells}").into_bytes()];
        buf.extend(parts.into_iter().map(|p| p.as_ref().to_vec()));
        SweepManifest {
            schema: CHECKPOINT_SCHEMA,
            name: name.to_string(),
            fingerprint: format!("{:016x}", fingerprint(buf)),
            cells,
            description: description.to_string(),
        }
    }
}

/// One completed cell, as journaled. `secs_bits` is the cell's measured
/// seconds as raw IEEE-754 bits; failed cells journal `f64::NAN`'s bits
/// together with the error kind so a resume neither recomputes nor
/// forgets them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Flat cell index in `0..manifest.cells` (row-major over the grid).
    pub cell: u64,
    /// `f64::to_bits` of the cell's seconds value (NaN bits on failure).
    pub secs_bits: u64,
    /// Simulated cycles the cell consumed (0 on failure).
    pub cycles: u64,
    /// How many attempts the cell took (1 = first try).
    pub attempts: u32,
    /// `SimError::kind()` tag when the cell ultimately failed, else empty.
    #[serde(default)]
    pub error_kind: String,
}

impl CellRecord {
    /// The journaled seconds value.
    pub fn secs(&self) -> f64 {
        f64::from_bits(self.secs_bits)
    }

    /// Whether the cell completed successfully.
    pub fn ok(&self) -> bool {
        self.error_kind.is_empty()
    }

    /// The error a resumed sweep reports for a journaled failure: a
    /// permanent [`SimError::Journaled`] that keeps the original error's
    /// kind, so the cell fails fast instead of being retried.
    pub fn journaled_error(&self) -> SimError {
        SimError::Journaled { kind: self.error_kind.clone() }
    }
}

/// An open checkpoint directory: validated manifest, loaded journal, and
/// an append handle for new records.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    journal: Mutex<File>,
    done: HashMap<u64, CellRecord>,
    resumed_cells: usize,
}

fn io_err(what: impl std::fmt::Display) -> SimError {
    SimError::Io { what: what.to_string() }
}

impl Checkpoint {
    /// Path of the manifest file inside `dir`.
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// Path of the journal file inside `dir`.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("journal.jsonl")
    }

    /// Opens (creating if needed) the checkpoint at `dir` for `manifest`.
    ///
    /// * Fresh directory: the manifest is written atomically and an empty
    ///   journal is created.
    /// * Existing directory with `resume = true`: the stored manifest must
    ///   match `manifest` exactly (schema, fingerprint, cell count);
    ///   journaled records are loaded so the sweep can skip them.
    /// * Existing directory with a non-empty journal and `resume = false`:
    ///   refused — overwriting a journal silently discards completed work;
    ///   the caller must pass `--resume` or point at a fresh directory.
    pub fn open(dir: &Path, manifest: &SweepManifest, resume: bool) -> Result<Self, SimError> {
        fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("create checkpoint dir {}: {e}", dir.display())))?;
        let mpath = Self::manifest_path(dir);
        let jpath = Self::journal_path(dir);

        if mpath.exists() {
            let text = fs::read_to_string(&mpath)
                .map_err(|e| io_err(format!("read {}: {e}", mpath.display())))?;
            let stored: SweepManifest = serde_json::from_str(&text)
                .map_err(|e| io_err(format!("parse {}: {e}", mpath.display())))?;
            if stored != *manifest {
                return Err(io_err(format!(
                    "checkpoint at {} belongs to a different sweep: stored \
                     {}/{} ({} cells), requested {}/{} ({} cells); use a \
                     fresh --checkpoint-dir",
                    dir.display(),
                    stored.name,
                    stored.fingerprint,
                    stored.cells,
                    manifest.name,
                    manifest.fingerprint,
                    manifest.cells,
                )));
            }
            let journal_len = fs::metadata(&jpath).map(|m| m.len()).unwrap_or(0);
            if !resume && journal_len > 0 {
                return Err(io_err(format!(
                    "checkpoint at {} already has a journal with completed \
                     cells; pass --resume to continue it or choose a fresh \
                     --checkpoint-dir",
                    dir.display(),
                )));
            }
        } else {
            // Atomic create: render to a temp file in the same directory,
            // then rename over the final name. `rename` within one
            // filesystem is atomic, so readers see either no manifest or a
            // complete one.
            let tmp = dir.join("manifest.json.tmp");
            let body = serde_json::to_string_pretty(manifest)
                .map_err(|e| io_err(format!("serialize manifest: {e}")))?;
            fs::write(&tmp, body.as_bytes())
                .map_err(|e| io_err(format!("write {}: {e}", tmp.display())))?;
            fs::rename(&tmp, &mpath)
                .map_err(|e| io_err(format!("rename {} into place: {e}", tmp.display())))?;
        }

        if resume && jpath.exists() {
            // Repair the tail *before* opening the append handle: without
            // this, the first record appended by a resumed run would be
            // glued onto whatever debris the previous crash left on the
            // final line, turning a tolerated torn tail into interior
            // corruption that hard-fails the *next* resume.
            repair_tail(&jpath)?;
        }
        let done = if resume && jpath.exists() { Self::load_journal(&jpath)? } else { HashMap::new() };
        let resumed_cells = done.len();

        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&jpath)
            .map_err(|e| io_err(format!("open {}: {e}", jpath.display())))?;

        Ok(Self { dir: dir.to_path_buf(), journal: Mutex::new(journal), done, resumed_cells })
    }

    /// Parses the journal, tolerating a truncated *final* line (the one
    /// state a SIGKILL mid-append can leave behind). A later record for
    /// the same cell wins — retries append a fresh record rather than
    /// rewriting history.
    fn load_journal(path: &Path) -> Result<HashMap<u64, CellRecord>, SimError> {
        let text =
            fs::read_to_string(path).map_err(|e| io_err(format!("read {}: {e}", path.display())))?;
        let lines: Vec<&str> = text.lines().collect();
        let mut done = HashMap::new();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<CellRecord>(line) {
                Ok(rec) => {
                    done.insert(rec.cell, rec);
                }
                Err(e) if i + 1 == lines.len() => {
                    // Torn tail from an unclean death; the cell re-runs.
                    let _ = e;
                }
                Err(e) => {
                    return Err(io_err(format!(
                        "corrupt journal {}: line {} is malformed ({e}); only \
                         the final line may be truncated by a crash",
                        path.display(),
                        i + 1,
                    )));
                }
            }
        }
        Ok(done)
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journaled record for `cell`, if one was loaded on resume or
    /// recorded this run.
    pub fn done(&self, cell: u64) -> Option<&CellRecord> {
        self.done.get(&cell)
    }

    /// Number of cells loaded from a prior run's journal at open time.
    pub fn resumed_cells(&self) -> usize {
        self.resumed_cells
    }

    /// Appends `rec` to the journal and flushes it to the OS, so the
    /// record survives any subsequent process death.
    pub fn record(&mut self, rec: CellRecord) -> Result<(), SimError> {
        let line =
            serde_json::to_string(&rec).map_err(|e| io_err(format!("serialize record: {e}")))?;
        {
            let mut f = self.journal.lock().expect("journal handle poisoned");
            f.write_all(line.as_bytes())
                .and_then(|()| f.write_all(b"\n"))
                .and_then(|()| f.flush())
                .map_err(|e| io_err(format!("append journal: {e}")))?;
        }
        self.done.insert(rec.cell, rec);
        Ok(())
    }
}

/// Splits journal text into its newline-terminated prefix and the
/// unterminated tail that a crash mid-append can leave behind.
fn split_terminated(text: &str) -> (&str, &str) {
    match text.rfind('\n') {
        Some(i) => text.split_at(i + 1),
        None => ("", text),
    }
}

/// What [`repair_tail`] found (and fixed) at the end of a journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailRepair {
    /// The journal already ends on a record boundary.
    Clean,
    /// A torn partial record was truncated away (the cell re-runs).
    TruncatedTorn,
    /// The final record was complete but its `\n` terminator was missing —
    /// the *zero-length* torn-record case, where the crash landed between
    /// `write_all(line)` and `write_all(b"\n")`. The record is durable, so
    /// the terminator is appended instead of discarding the result.
    Terminated,
}

/// Repairs a journal's tail in place so subsequent appends always start on
/// a fresh line. Interior lines are left untouched; malformed interior
/// content is [`Checkpoint::open`]'s corruption error, not ours to hide.
fn repair_tail(path: &Path) -> Result<TailRepair, SimError> {
    let text =
        fs::read_to_string(path).map_err(|e| io_err(format!("read {}: {e}", path.display())))?;
    let (terminated, tail) = split_terminated(&text);
    if tail.is_empty() {
        return Ok(TailRepair::Clean);
    }
    if serde_json::from_str::<CellRecord>(tail).is_ok() {
        let mut f = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(format!("open {}: {e}", path.display())))?;
        f.write_all(b"\n")
            .and_then(|()| f.flush())
            .map_err(|e| io_err(format!("terminate journal tail {}: {e}", path.display())))?;
        Ok(TailRepair::Terminated)
    } else {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(format!("open {}: {e}", path.display())))?;
        f.set_len(terminated.len() as u64)
            .map_err(|e| io_err(format!("truncate torn tail of {}: {e}", path.display())))?;
        Ok(TailRepair::TruncatedTorn)
    }
}

/// A cell with more than one journal record (retries append rather than
/// rewrite, so duplicates are normal after a flaky run). Reported by
/// [`fsck_journal`] so operators can see latest-record-wins in action.
#[derive(Clone, Debug, Serialize)]
pub struct DuplicateCell {
    /// Flat cell index.
    pub cell: u64,
    /// How many records the journal holds for it.
    pub records: usize,
    /// `error_kind` of the *winning* (latest) record; empty = succeeded.
    pub final_kind: String,
}

/// Outcome of [`fsck_journal`]: integrity findings plus what (if anything)
/// was repaired.
#[derive(Clone, Debug, Serialize)]
pub struct FsckReport {
    /// Journal path that was checked.
    pub path: String,
    /// Total well-formed records (including the unterminated-but-complete
    /// final record, if any).
    pub records: usize,
    /// Distinct cells covered after latest-record-wins collapsing.
    pub unique_cells: usize,
    /// Cells whose winning record is a failure (`error_kind` non-empty).
    pub failed_cells: usize,
    /// Cells with more than one record, ascending by cell index.
    pub duplicate_cells: Vec<DuplicateCell>,
    /// Bytes of torn partial record at the tail (0 when none).
    pub torn_tail_bytes: u64,
    /// Final record is complete JSON but missing its `\n` terminator.
    pub missing_terminator: bool,
    /// Whether a requested repair rewrote the tail.
    pub repaired: bool,
}

impl FsckReport {
    /// Whether the journal needs (or needed) a tail repair.
    pub fn dirty(&self) -> bool {
        self.torn_tail_bytes > 0 || self.missing_terminator
    }
}

/// Validates `path` as a cell journal and optionally repairs its tail.
///
/// * Well-formed records are tallied; duplicate cells are reported with
///   their latest-record-wins winner.
/// * A torn or unterminated *tail* is reported (and fixed when `repair`),
///   exactly as [`Checkpoint::open`] would on resume.
/// * A malformed line anywhere *else* cannot come from a crash and is a
///   hard error — fsck refuses to guess which experiment the bytes
///   belonged to.
pub fn fsck_journal(path: &Path, repair: bool) -> Result<FsckReport, SimError> {
    let text =
        fs::read_to_string(path).map_err(|e| io_err(format!("read {}: {e}", path.display())))?;
    let (terminated, tail) = split_terminated(&text);

    let mut records = 0usize;
    // cell -> (record count, latest error_kind), plus first-seen order.
    let mut per_cell: HashMap<u64, (usize, String)> = HashMap::new();
    for (i, line) in terminated.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: CellRecord = serde_json::from_str(line).map_err(|e| {
            io_err(format!(
                "corrupt journal {}: line {} is malformed ({e}); only the \
                 final line may be damaged by a crash — this journal needs \
                 manual triage, not fsck --repair",
                path.display(),
                i + 1,
            ))
        })?;
        records += 1;
        let entry = per_cell.entry(rec.cell).or_insert((0, String::new()));
        entry.0 += 1;
        entry.1 = rec.error_kind;
    }

    let mut torn_tail_bytes = 0u64;
    let mut missing_terminator = false;
    if !tail.is_empty() {
        match serde_json::from_str::<CellRecord>(tail) {
            Ok(rec) => {
                missing_terminator = true;
                records += 1;
                let entry = per_cell.entry(rec.cell).or_insert((0, String::new()));
                entry.0 += 1;
                entry.1 = rec.error_kind;
            }
            Err(_) => torn_tail_bytes = tail.len() as u64,
        }
    }

    let mut repaired = false;
    if repair && (torn_tail_bytes > 0 || missing_terminator) {
        repair_tail(path)?;
        repaired = true;
    }

    let mut duplicate_cells: Vec<DuplicateCell> = per_cell
        .iter()
        .filter(|(_, (n, _))| *n > 1)
        .map(|(&cell, (n, kind))| DuplicateCell { cell, records: *n, final_kind: kind.clone() })
        .collect();
    duplicate_cells.sort_by_key(|d| d.cell);
    let failed_cells = per_cell.values().filter(|(_, kind)| !kind.is_empty()).count();

    Ok(FsckReport {
        path: path.display().to_string(),
        records,
        unique_cells: per_cell.len(),
        failed_cells,
        duplicate_cells,
        torn_tail_bytes,
        missing_terminator,
        repaired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("save-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn manifest(cells: usize) -> SweepManifest {
        SweepManifest::new("test-sweep", "unit test", cells, ["gemm", "grid=4x4", "cfg"])
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_eq!(fingerprint(["a", "b"]), fingerprint(["a", "b"]));
    }

    #[test]
    fn record_and_resume_round_trip_bits() {
        let dir = tmpdir("roundtrip");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        let secs = 1.0_f64 / 3.0; // not representable exactly
        ck.record(CellRecord {
            cell: 2,
            secs_bits: secs.to_bits(),
            cycles: 987654321,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);

        let ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 1);
        let rec = ck.done(2).expect("cell 2 journaled");
        assert_eq!(rec.secs().to_bits(), secs.to_bits(), "bit-identical resume");
        assert_eq!(rec.cycles, 987654321);
        assert!(rec.ok());
        assert!(ck.done(0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_manifest_is_refused() {
        let dir = tmpdir("mismatch");
        Checkpoint::open(&dir, &manifest(4), false).unwrap();
        let other = SweepManifest::new("test-sweep", "unit test", 4, ["gemm", "grid=5x5", "cfg"]);
        let err = Checkpoint::open(&dir, &other, true).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonempty_journal_without_resume_is_refused() {
        let dir = tmpdir("noresume");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        ck.record(CellRecord {
            cell: 0,
            secs_bits: 1.0_f64.to_bits(),
            cycles: 1,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);
        let err = Checkpoint::open(&dir, &m, false).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_tolerated_but_interior_corruption_is_not() {
        let dir = tmpdir("torn");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        for cell in 0..2u64 {
            ck.record(CellRecord {
                cell,
                secs_bits: (cell as f64).to_bits(),
                cycles: cell,
                attempts: 1,
                error_kind: String::new(),
            })
            .unwrap();
        }
        drop(ck);

        // Simulate SIGKILL mid-append: a torn final line.
        let jpath = Checkpoint::journal_path(&dir);
        let mut f = OpenOptions::new().append(true).open(&jpath).unwrap();
        f.write_all(b"{\"cell\": 3, \"secs_b").unwrap();
        drop(f);
        let ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 2, "torn tail dropped, intact records kept");
        drop(ck);

        // Interior corruption (cannot come from a crash) is a hard error.
        let text = fs::read_to_string(&jpath).unwrap();
        fs::write(&jpath, format!("garbage-not-json\n{text}")).unwrap();
        let err = Checkpoint::open(&dir, &m, true).unwrap_err();
        assert!(err.to_string().contains("corrupt journal"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The bug this PR fixes: resuming over a torn tail used to open the
    /// append handle *after* the partial bytes, so the first new record
    /// was glued onto the debris — tolerated on that resume, then fatal
    /// interior corruption on the next one. Repair must keep appends
    /// line-aligned across any number of crash/resume cycles.
    #[test]
    fn torn_tail_is_truncated_so_appends_stay_line_aligned() {
        let dir = tmpdir("repair-torn");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        ck.record(CellRecord {
            cell: 0,
            secs_bits: 0.5_f64.to_bits(),
            cycles: 7,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);
        let jpath = Checkpoint::journal_path(&dir);
        let mut f = OpenOptions::new().append(true).open(&jpath).unwrap();
        f.write_all(b"{\"cell\": 3, \"secs_b").unwrap();
        drop(f);

        let mut ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 1, "torn record dropped");
        ck.record(CellRecord {
            cell: 1,
            secs_bits: 1.5_f64.to_bits(),
            cycles: 9,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);

        // Second resume: without tail repair this failed with "corrupt
        // journal" because cell 1's record was fused onto the torn bytes.
        let ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 2);
        assert_eq!(ck.done(1).unwrap().secs(), 1.5);
        assert!(ck.done(3).is_none(), "torn cell re-runs");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The zero-length torn-record case: the crash landed between writing
    /// the record bytes and the `\n` terminator. The record is complete
    /// and must be *kept* (terminator appended), not truncated away — and
    /// the next append must not fuse onto it.
    #[test]
    fn unterminated_complete_record_is_terminated_not_glued() {
        let dir = tmpdir("repair-unterm");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        for cell in 0..2u64 {
            ck.record(CellRecord {
                cell,
                secs_bits: (cell as f64).to_bits(),
                cycles: cell,
                attempts: 1,
                error_kind: String::new(),
            })
            .unwrap();
        }
        drop(ck);
        // Strip the final newline: complete record, zero-length torn tail.
        let jpath = Checkpoint::journal_path(&dir);
        let text = fs::read_to_string(&jpath).unwrap();
        assert!(text.ends_with('\n'));
        fs::write(&jpath, &text[..text.len() - 1]).unwrap();

        let mut ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 2, "complete unterminated record kept");
        ck.record(CellRecord {
            cell: 2,
            secs_bits: 2.0_f64.to_bits(),
            cycles: 2,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);

        let ck = Checkpoint::open(&dir, &m, true).unwrap();
        assert_eq!(ck.resumed_cells(), 3, "no record lost, no line fused");
        for cell in 0..3u64 {
            assert_eq!(ck.done(cell).unwrap().secs(), cell as f64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_duplicates_and_repairs_torn_tail() {
        let dir = tmpdir("fsck");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        ck.record(CellRecord {
            cell: 1,
            secs_bits: f64::NAN.to_bits(),
            cycles: 0,
            attempts: 1,
            error_kind: "deadline".into(),
        })
        .unwrap();
        ck.record(CellRecord {
            cell: 1,
            secs_bits: 2.5_f64.to_bits(),
            cycles: 10,
            attempts: 2,
            error_kind: String::new(),
        })
        .unwrap();
        ck.record(CellRecord {
            cell: 2,
            secs_bits: f64::NAN.to_bits(),
            cycles: 0,
            attempts: 3,
            error_kind: "cycle-budget".into(),
        })
        .unwrap();
        drop(ck);
        let jpath = Checkpoint::journal_path(&dir);
        let mut f = OpenOptions::new().append(true).open(&jpath).unwrap();
        f.write_all(b"{\"cell\": 3,").unwrap();
        drop(f);

        let report = fsck_journal(&jpath, false).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.unique_cells, 2);
        assert_eq!(report.failed_cells, 1, "cell 1 healed by retry, cell 2 failed");
        assert_eq!(report.duplicate_cells.len(), 1);
        assert_eq!(report.duplicate_cells[0].cell, 1);
        assert_eq!(report.duplicate_cells[0].records, 2);
        assert_eq!(report.duplicate_cells[0].final_kind, "", "latest record wins");
        assert_eq!(report.torn_tail_bytes, 11);
        assert!(report.dirty() && !report.repaired, "validate-only leaves the file alone");

        let report = fsck_journal(&jpath, true).unwrap();
        assert!(report.repaired);
        let report = fsck_journal(&jpath, false).unwrap();
        assert!(!report.dirty(), "second fsck finds a clean journal");
        assert_eq!(report.records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_counts_unterminated_record_and_rejects_interior_corruption() {
        let dir = tmpdir("fsck-unterm");
        let m = manifest(4);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        ck.record(CellRecord {
            cell: 0,
            secs_bits: 1.0_f64.to_bits(),
            cycles: 1,
            attempts: 1,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);
        let jpath = Checkpoint::journal_path(&dir);
        let text = fs::read_to_string(&jpath).unwrap();
        fs::write(&jpath, &text[..text.len() - 1]).unwrap();

        let report = fsck_journal(&jpath, true).unwrap();
        assert_eq!(report.records, 1, "complete unterminated record counted");
        assert!(report.missing_terminator && report.repaired);

        fs::write(&jpath, format!("not-json\n{text}")).unwrap();
        let err = fsck_journal(&jpath, true).unwrap_err();
        assert!(err.to_string().contains("manual triage"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_cell_latest_record_wins() {
        let dir = tmpdir("latest");
        let m = manifest(2);
        let mut ck = Checkpoint::open(&dir, &m, false).unwrap();
        ck.record(CellRecord {
            cell: 1,
            secs_bits: f64::NAN.to_bits(),
            cycles: 0,
            attempts: 1,
            error_kind: "deadline".into(),
        })
        .unwrap();
        ck.record(CellRecord {
            cell: 1,
            secs_bits: 2.5_f64.to_bits(),
            cycles: 10,
            attempts: 2,
            error_kind: String::new(),
        })
        .unwrap();
        drop(ck);
        let ck = Checkpoint::open(&dir, &m, true).unwrap();
        let rec = ck.done(1).unwrap();
        assert!(rec.ok());
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.secs(), 2.5);
        let _ = fs::remove_dir_all(&dir);
    }
}
