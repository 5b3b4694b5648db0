//! A fault-tolerant, resumable runner for experiment grids.
//!
//! Monte-Carlo sweeps are long-running batch jobs; this runner gives them
//! the three robustness properties the fail-stop loops lacked:
//!
//! * **Panic isolation** — every cell attempt runs under `catch_unwind`
//!   inside a [`backend::ordered_stream`] producer task, so one poisoned
//!   trial becomes a [`FailureRecord`] in the output instead of an
//!   aborted sweep.
//! * **Bounded deterministic retry** — each cell gets `retries` additional
//!   attempts before being recorded as failed; cells are pure functions of
//!   their key, so retry only rescues transient failures (I/O), never
//!   changes a result.
//! * **Crash-safe resume** — completed cells stream to an append-only
//!   JSONL journal (one fsynced line per cell), committed on the calling
//!   thread in *submission order*: the journal bytes are identical at any
//!   thread count or completion order, not merely set-equal. After a crash
//!   (`kill -9` included), rerunning with [`SweepConfig::resume`] skips
//!   journaled cells, and the assembled output is byte-identical to an
//!   uninterrupted run because cell values round-trip canonically through
//!   [`Json`].

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xbar_tensor::backend;

use crate::error::BenchError;
use crate::json::Json;

/// Configuration for [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Append-only JSONL journal path. `None` disables journaling (and
    /// resume).
    pub journal: Option<PathBuf>,
    /// Skip cells already recorded as `ok` in the journal.
    pub resume: bool,
    /// Additional attempts per cell after the first failure.
    pub retries: usize,
    /// Testing hook: hard-abort the process (as `kill -9` would) after
    /// this many journal appends. Used by the CI resume-determinism gate.
    pub abort_after_cells: Option<usize>,
}

/// A cell that failed all its attempts — recorded in the output so the
/// rest of the grid still completes.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// The cell's unique key.
    pub key: String,
    /// Attempts made (1 + retries).
    pub attempts: usize,
    /// Whether the final attempt panicked (vs. returned an error).
    pub panicked: bool,
    /// The final panic message or error description.
    pub error: String,
}

impl FailureRecord {
    /// Canonical JSON rendering of this record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("key".into(), Json::Str(self.key.clone())),
            ("attempts".into(), Json::Num(self.attempts as f64)),
            ("panicked".into(), Json::Bool(self.panicked)),
            ("error".into(), Json::Str(self.error.clone())),
        ])
    }
}

/// Terminal state of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell produced a value (freshly computed or loaded from the
    /// journal).
    Ok(Json),
    /// The cell failed every attempt.
    Failed(FailureRecord),
}

/// The assembled result of a sweep: one outcome per cell, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// `(key, outcome)` per cell, in the order the cells were given.
    pub cells: Vec<(String, CellOutcome)>,
    /// Cells skipped because the journal already had them.
    pub skipped: usize,
}

impl SweepReport {
    /// All failure records, in cell order.
    pub fn failures(&self) -> Vec<&FailureRecord> {
        self.cells
            .iter()
            .filter_map(|(_, o)| match o {
                CellOutcome::Failed(f) => Some(f),
                CellOutcome::Ok(_) => None,
            })
            .collect()
    }

    /// Whether every cell completed.
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Loads the `ok` cells of a JSONL journal into a key → value map.
///
/// A torn final line (the crash happened mid-append) is tolerated and
/// ignored; a malformed line anywhere *else* means the journal cannot be
/// trusted and is a [`BenchError::Journal`].
fn load_journal(path: &PathBuf) -> Result<BTreeMap<String, Json>, BenchError> {
    let mut done = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(BenchError::io(path.clone(), &e)),
    };
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                if i == lines.len() - 1 {
                    // Torn tail from a mid-append crash: the cell never
                    // completed, so it is simply re-run.
                    continue;
                }
                return Err(BenchError::Journal(format!(
                    "malformed line {} in {}: {e}",
                    i + 1,
                    path.display()
                )));
            }
        };
        let key = entry.get("key").and_then(Json::as_str);
        let status = entry.get("status").and_then(Json::as_str);
        match (key, status) {
            (Some(k), Some("ok")) => {
                let value = entry
                    .get("value")
                    .cloned()
                    .ok_or_else(|| BenchError::Journal(format!("line {} has no value", i + 1)))?;
                done.insert(k.to_string(), value);
            }
            (Some(_), Some("failed")) => {} // informational; cell re-runs
            _ => {
                return Err(BenchError::Journal(format!(
                    "line {} in {} lacks key/status",
                    i + 1,
                    path.display()
                )))
            }
        }
    }
    Ok(done)
}

/// One fsynced append to the journal. Serialized by the caller's mutex.
struct JournalWriter {
    file: Mutex<fs::File>,
    path: PathBuf,
    appends: AtomicUsize,
    abort_after: Option<usize>,
}

impl JournalWriter {
    fn open(path: &PathBuf, abort_after: Option<usize>) -> Result<Self, BenchError> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| BenchError::io(dir, &e))?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| BenchError::io(path.clone(), &e))?;
        Ok(Self {
            file: Mutex::new(file),
            path: path.clone(),
            appends: AtomicUsize::new(0),
            abort_after,
        })
    }

    fn append(&self, entry: &Json) -> Result<(), BenchError> {
        let line = format!("{}\n", entry.render());
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| BenchError::io(self.path.clone(), &e))?;
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        if self.abort_after.is_some_and(|limit| n >= limit) {
            // Simulate a hard crash (kill -9): no unwinding, no flushing
            // beyond what is already durable.
            std::process::abort();
        }
        Ok(())
    }
}

/// Runs `cell` for every `(key, input)` pair with panic isolation, bounded
/// retry, and crash-safe journaling, returning outcomes in input order.
///
/// Keys must be unique: they identify cells across runs for resume. The
/// cell function must be a pure function of its input for resumed output
/// to be byte-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns an error only for infrastructure failures (unreadable or
/// malformed journal); cell failures are *degraded* into
/// [`FailureRecord`]s, never propagated.
pub fn run_sweep<I, F>(
    cells: Vec<(String, I)>,
    cfg: &SweepConfig,
    cell: F,
) -> Result<SweepReport, BenchError>
where
    I: Send,
    F: Fn(&str, &I) -> Result<Json, BenchError> + Sync,
{
    let done = match (&cfg.journal, cfg.resume) {
        (Some(path), true) => load_journal(path)?,
        _ => BTreeMap::new(),
    };
    let writer = match &cfg.journal {
        Some(path) => Some(JournalWriter::open(path, cfg.abort_after_cells)?),
        None => None,
    };
    let attempts_max = 1 + cfg.retries;

    // Split into already-journaled cells and work still to do, remembering
    // each cell's position so the report preserves input order.
    let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(cells.len());
    let mut todo: Vec<(usize, String, I)> = Vec::new();
    let mut skipped = 0usize;
    let mut keys: Vec<String> = Vec::with_capacity(cells.len());
    for (idx, (key, input)) in cells.into_iter().enumerate() {
        keys.push(key.clone());
        if let Some(value) = done.get(&key) {
            outcomes.push(Some(CellOutcome::Ok(value.clone())));
            skipped += 1;
        } else {
            outcomes.push(None);
            todo.push((idx, key, input));
        }
    }

    let writer_ref = writer.as_ref();
    // Produce on the pool (panic-isolated, bounded-retry cell execution —
    // no I/O), consume on the calling thread strictly in submission order
    // (journal append + outcome placement). Committing the journal in
    // submission order makes its bytes identical at any `XBAR_THREADS`
    // and in any completion order — not merely set-equal — which the
    // resume and completion-order determinism gates verify.
    backend::ordered_stream(
        todo,
        |_i, (idx, key, input)| {
            let mut last_failure: Option<FailureRecord> = None;
            for attempt in 1..=attempts_max {
                match catch_unwind(AssertUnwindSafe(|| cell(&key, &input))) {
                    Ok(Ok(value)) => return (idx, key, Ok((value, attempt))),
                    Ok(Err(e)) => {
                        last_failure = Some(FailureRecord {
                            key: key.clone(),
                            attempts: attempt,
                            panicked: false,
                            error: e.to_string(),
                        });
                    }
                    Err(payload) => {
                        last_failure = Some(FailureRecord {
                            key: key.clone(),
                            attempts: attempt,
                            panicked: true,
                            error: backend::panic_message(payload.as_ref()),
                        });
                    }
                }
            }
            let record = last_failure.expect("at least one attempt ran");
            (idx, key, Err(record))
        },
        |_i, (idx, key, run)| {
            let outcome = match run {
                Ok((value, attempt)) => {
                    let mut journal_failure = None;
                    if let Some(w) = writer_ref {
                        let entry = Json::Obj(vec![
                            ("key".into(), Json::Str(key.clone())),
                            ("status".into(), Json::Str("ok".into())),
                            ("value".into(), value.clone()),
                        ]);
                        if let Err(e) = w.append(&entry) {
                            // A cell whose result could not be made durable
                            // degrades to a failure, as before the refactor.
                            journal_failure = Some(FailureRecord {
                                key,
                                attempts: attempt,
                                panicked: false,
                                error: e.to_string(),
                            });
                        }
                    }
                    match journal_failure {
                        Some(record) => CellOutcome::Failed(record),
                        None => CellOutcome::Ok(value),
                    }
                }
                Err(record) => {
                    if let Some(w) = writer_ref {
                        let _ = w.append(&Json::Obj(vec![
                            ("key".into(), Json::Str(record.key.clone())),
                            ("status".into(), Json::Str("failed".into())),
                            ("attempts".into(), Json::Num(record.attempts as f64)),
                            ("error".into(), Json::Str(record.error.clone())),
                        ]));
                    }
                    CellOutcome::Failed(record)
                }
            };
            outcomes[idx] = Some(outcome);
        },
    );

    let cells = keys
        .into_iter()
        .zip(outcomes)
        .map(|(key, outcome)| {
            let outcome = outcome.unwrap_or_else(|| {
                CellOutcome::Failed(FailureRecord {
                    key: key.clone(),
                    attempts: attempts_max,
                    panicked: true,
                    error: "task lost (runner panic)".into(),
                })
            });
            (key, outcome)
        })
        .collect();
    Ok(SweepReport { cells, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use xbar_tensor::rng::XorShiftRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbar-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cells(n: usize) -> Vec<(String, usize)> {
        (0..n).map(|i| (format!("cell{i}"), i)).collect()
    }

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn outcomes_preserve_input_order() {
        let report = run_sweep(cells(8), &SweepConfig::default(), |_k, &i| {
            Ok(Json::Num(i as f64 * 2.0))
        })
        .unwrap();
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.skipped, 0);
        for (i, (key, outcome)) in report.cells.iter().enumerate() {
            assert_eq!(key, &format!("cell{i}"));
            assert_eq!(outcome, &CellOutcome::Ok(Json::Num(i as f64 * 2.0)));
        }
    }

    #[test]
    fn panicking_cell_degrades_to_failure_record() {
        let report = quiet_panics(|| {
            run_sweep(cells(5), &SweepConfig::default(), |k, &i| {
                if i == 2 {
                    panic!("injected failure in {k}");
                }
                Ok(Json::Num(i as f64))
            })
            .unwrap()
        });
        assert_eq!(report.failures().len(), 1);
        let f = report.failures()[0];
        assert_eq!(f.key, "cell2");
        assert!(f.panicked);
        assert!(f.error.contains("injected failure"));
        // The rest of the grid completed.
        assert_eq!(
            report
                .cells
                .iter()
                .filter(|(_, o)| matches!(o, CellOutcome::Ok(_)))
                .count(),
            4
        );
    }

    #[test]
    fn transient_errors_are_retried() {
        let attempts = AtomicUsize::new(0);
        let report = run_sweep(
            cells(1),
            &SweepConfig {
                retries: 2,
                ..SweepConfig::default()
            },
            |_k, _i| {
                if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(BenchError::Journal("transient".into()))
                } else {
                    Ok(Json::Bool(true))
                }
            },
        )
        .unwrap();
        assert!(report.all_ok());
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_record_attempt_count() {
        let report = run_sweep(
            cells(1),
            &SweepConfig {
                retries: 1,
                ..SweepConfig::default()
            },
            |_k, _i| -> Result<Json, BenchError> { Err(BenchError::Journal("permanent".into())) },
        )
        .unwrap();
        let f = report.failures()[0].clone();
        assert_eq!(f.attempts, 2);
        assert!(!f.panicked);
        assert!(f.error.contains("permanent"));
    }

    #[test]
    fn resume_skips_journaled_cells_and_reproduces_output() {
        let dir = tmp_dir("resume");
        let journal = dir.join("journal.jsonl");
        let calls = AtomicUsize::new(0);
        let run = |resume: bool| {
            run_sweep(
                cells(6),
                &SweepConfig {
                    journal: Some(journal.clone()),
                    resume,
                    ..SweepConfig::default()
                },
                |_k, &i| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(Json::Num(i as f64 + 0.25))
                },
            )
            .unwrap()
        };
        let full = run(false);
        let calls_first = calls.load(Ordering::SeqCst);
        assert_eq!(calls_first, 6);
        let resumed = run(true);
        // No cell re-ran; outcomes identical to the first pass.
        assert_eq!(calls.load(Ordering::SeqCst), calls_first);
        assert_eq!(resumed.skipped, 6);
        assert_eq!(full.cells, resumed.cells);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_tolerated() {
        let dir = tmp_dir("torn");
        let journal = dir.join("journal.jsonl");
        fs::write(
            &journal,
            "{\"key\":\"cell0\",\"status\":\"ok\",\"value\":1}\n{\"key\":\"cell1\",\"sta",
        )
        .unwrap();
        let report = run_sweep(
            cells(2),
            &SweepConfig {
                journal: Some(journal.clone()),
                resume: true,
                ..SweepConfig::default()
            },
            |_k, &i| Ok(Json::Num(i as f64)),
        )
        .unwrap();
        assert_eq!(report.skipped, 1);
        assert_eq!(report.cells[0].1, CellOutcome::Ok(Json::Num(1.0)));
        // cell1's torn line was discarded and the cell re-ran.
        assert_eq!(report.cells[1].1, CellOutcome::Ok(Json::Num(1.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_mid_journal_is_an_error() {
        let dir = tmp_dir("malformed");
        let journal = dir.join("journal.jsonl");
        fs::write(
            &journal,
            "not json\n{\"key\":\"cell0\",\"status\":\"ok\",\"value\":1}\n",
        )
        .unwrap();
        let err = run_sweep(
            cells(1),
            &SweepConfig {
                journal: Some(journal.clone()),
                resume: true,
                ..SweepConfig::default()
            },
            |_k, &i| Ok(Json::Num(i as f64)),
        )
        .unwrap_err();
        assert!(matches!(err, BenchError::Journal(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Applies one to three seeded edits to journal text: a byte replaced
    /// by a character JSON gives meaning to, a byte deleted, a line
    /// repeated, or the tail cut.
    fn corrupt_journal(bytes: &mut Vec<u8>, rng: &mut XorShiftRng) {
        const CHARS: &[u8] = b"{}[]\":,.-+eE0123456789 \\nultraesf\n";
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 => {
                    if let Some(b) = bytes.get_mut(at) {
                        *b = CHARS[rng.below(CHARS.len())];
                    }
                }
                1 => {
                    if at < bytes.len() {
                        bytes.remove(at);
                    }
                }
                2 => {
                    let start = bytes[..at]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |p| p + 1);
                    let end = bytes[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |p| at + p + 1);
                    let line = bytes[start..end].to_vec();
                    bytes.splice(end..end, line);
                }
                _ => bytes.truncate(at),
            }
        }
    }

    #[test]
    fn corrupted_journals_load_or_fail_typed() {
        // Each draw edits a real journal. Loading it returns the cells or
        // a typed error, never a panic, and a journal that loads resumes.
        let dir = tmp_dir("fuzz");
        let journal = dir.join("journal.jsonl");
        let cell = |_k: &str, &i: &usize| {
            Ok(Json::Obj(vec![
                ("v".into(), Json::Num(i as f64 * 0.25)),
                ("tag".into(), Json::Str(format!("t{i}"))),
            ]))
        };
        let write = SweepConfig {
            journal: Some(journal.clone()),
            ..SweepConfig::default()
        };
        run_sweep(cells(4), &write, cell).unwrap();
        let clean = fs::read(&journal).unwrap();
        let resume = SweepConfig {
            resume: true,
            ..write
        };
        let mut rng = XorShiftRng::new(0x10C);
        let (mut loaded, mut rejected) = (0, 0);
        for _ in 0..256 {
            let mut bytes = clean.clone();
            corrupt_journal(&mut bytes, &mut rng);
            fs::write(&journal, &bytes).unwrap();
            match load_journal(&journal) {
                Ok(_) => {
                    loaded += 1;
                    run_sweep(cells(4), &resume, cell).unwrap();
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            loaded > 0 && rejected > 0,
            "loaded {loaded}, rejected {rejected}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cells_re_run_on_resume() {
        let dir = tmp_dir("refail");
        let journal = dir.join("journal.jsonl");
        let succeed = AtomicUsize::new(0);
        let run = |resume| {
            quiet_panics(|| {
                run_sweep(
                    cells(2),
                    &SweepConfig {
                        journal: Some(journal.clone()),
                        resume,
                        ..SweepConfig::default()
                    },
                    |_k, &i| {
                        if i == 1 && succeed.load(Ordering::SeqCst) == 0 {
                            panic!("first pass fails");
                        }
                        Ok(Json::Num(i as f64))
                    },
                )
                .unwrap()
            })
        };
        let first = run(false);
        assert_eq!(first.failures().len(), 1);
        succeed.store(1, Ordering::SeqCst);
        let second = run(true);
        assert!(second.all_ok());
        assert_eq!(second.skipped, 1); // cell0 came from the journal
        let _ = fs::remove_dir_all(&dir);
    }
}
