//! Persistent GEMM autotune cache.
//!
//! The dispatch selector ([`crate::dispatch`]) files its measured
//! routine choices here, keyed by shape-class string. Two environment
//! variables control the cache:
//!
//! * `XBAR_TUNE_CACHE=<path>` — persist choices to `<path>` so the first
//!   `bench_kernels` or sweep run on a host tunes and every later run
//!   dispatches warm. Unset, tuning still happens but stays in-memory
//!   for the process.
//! * `XBAR_AUTOTUNE=0` — disable measurement entirely; the selector uses
//!   its static heuristic table.
//!
//! The file is canonical JSON (`{"version":1,"entries":[...]}`, entries
//! sorted by key — see [`crate::json`]) written with the same atomic
//! temp + fsync + rename scheme as the checkpoint writer in
//! `xbar-nn::persist`, so a cache file is never observed half-written. A
//! corrupt, truncated or wrong-version file yields a typed [`TuneError`]
//! — never a panic — and the selector falls back to the static table
//! (the broken file is left in place for inspection, not overwritten).

use crate::json::Json;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Cache file format version.
pub const CACHE_VERSION: f64 = 1.0;

/// Why a tune-cache file could not be used.
#[derive(Debug, Clone)]
pub enum TuneError {
    /// Filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`).
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The file is not valid JSON (e.g. truncated mid-write by a crash
    /// of a non-atomic writer, or hand-edited badly).
    Parse {
        /// The path involved.
        path: PathBuf,
        /// First syntax error from the JSON parser.
        detail: String,
    },
    /// The file's `version` field is one this build does not understand.
    Version {
        /// The path involved.
        path: PathBuf,
        /// The version value found (`None` when missing/non-numeric).
        found: Option<f64>,
    },
    /// The JSON parsed but does not have the expected shape.
    Schema {
        /// The path involved.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Io { path, op, detail } => {
                write!(f, "tune cache {op} failed for {}: {detail}", path.display())
            }
            TuneError::Parse { path, detail } => {
                write!(
                    f,
                    "tune cache {} is not valid JSON: {detail}",
                    path.display()
                )
            }
            TuneError::Version { path, found } => match found {
                Some(v) => write!(
                    f,
                    "tune cache {} has unsupported version {v} (expected {CACHE_VERSION})",
                    path.display()
                ),
                None => write!(
                    f,
                    "tune cache {} is missing a numeric version field",
                    path.display()
                ),
            },
            TuneError::Schema { path, detail } => {
                write!(f, "tune cache {} has bad schema: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// One cached selection.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    /// Registry name of the winning routine.
    pub routine: String,
    /// Wall-clock cost of the measurement pass that produced it (ms).
    pub tune_ms: f64,
    /// True when loaded from the persistent file (warm), false when
    /// measured by this process (cold).
    pub from_file: bool,
}

struct State {
    /// User intent (`XBAR_AUTOTUNE != "0"`).
    enabled: bool,
    /// Set when the cache file failed to load: measurement is suspended
    /// and the selector uses its static table, leaving the broken file
    /// untouched for inspection.
    broken: bool,
    path: Option<PathBuf>,
    entries: HashMap<String, CacheEntry>,
    load_error: Option<TuneError>,
    save_error: Option<TuneError>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        let enabled = !std::env::var("XBAR_AUTOTUNE").is_ok_and(|v| v.trim() == "0");
        let path = std::env::var("XBAR_TUNE_CACHE")
            .ok()
            .filter(|p| !p.trim().is_empty())
            .map(PathBuf::from);
        let mut st = State {
            enabled,
            broken: false,
            path,
            entries: HashMap::new(),
            load_error: None,
            save_error: None,
        };
        if let Some(p) = st.path.clone() {
            match load(&p) {
                Ok(entries) => st.entries = entries,
                Err(e) => {
                    st.broken = true;
                    st.load_error = Some(e);
                }
            }
        }
        Mutex::new(st)
    })
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the user left autotuning enabled (`XBAR_AUTOTUNE != "0"`).
pub fn autotune_enabled() -> bool {
    lock().enabled
}

/// Whether the selector may measure/consult the cache: enabled and the
/// cache file (if any) loaded cleanly.
pub(crate) fn active() -> bool {
    let st = lock();
    st.enabled && !st.broken
}

/// The configured persistent cache path, if any.
pub fn cache_path() -> Option<PathBuf> {
    lock().path.clone()
}

/// The error that made the cache file unusable at load time, if any.
pub fn load_error() -> Option<TuneError> {
    lock().load_error.clone()
}

/// The most recent persistence failure, if any (selections still apply
/// in-memory when saving fails).
pub fn save_error() -> Option<TuneError> {
    lock().save_error.clone()
}

/// Number of selections currently cached (file-loaded plus measured).
pub fn entry_count() -> usize {
    lock().entries.len()
}

pub(crate) fn lookup(key: &str) -> Option<CacheEntry> {
    lock().entries.get(key).cloned()
}

/// Records a measured selection and persists the cache when a path is
/// configured. Persistence failures are stashed (see [`save_error`]),
/// never panics — the in-memory entry stands regardless.
pub(crate) fn record(key: &str, routine: &'static str, tune_ms: f64) {
    let mut st = lock();
    st.entries.insert(
        key.to_string(),
        CacheEntry {
            routine: routine.to_string(),
            tune_ms,
            from_file: false,
        },
    );
    if let Some(path) = st.path.clone() {
        match save(&path, &st.entries) {
            Ok(()) => st.save_error = None,
            Err(e) => st.save_error = Some(e),
        }
    }
}

/// Swaps the cache state wholesale: new path (or none), new enabled
/// flag, entries reloaded from the file. Returns the number of entries
/// loaded. On error the state is left usable but `broken` — the selector
/// falls back to its static table and the file is not overwritten.
///
/// This is the test hook behind the warm/cold and corrupt-cache
/// integration suites; production code configures via environment
/// variables instead.
pub fn reload_from(path: Option<&Path>, enabled: bool) -> Result<usize, TuneError> {
    let mut st = lock();
    st.enabled = enabled;
    st.path = path.map(Path::to_path_buf);
    st.entries.clear();
    st.load_error = None;
    st.save_error = None;
    st.broken = false;
    let Some(p) = st.path.clone() else {
        return Ok(0);
    };
    match load(&p) {
        Ok(entries) => {
            let count = entries.len();
            st.entries = entries;
            Ok(count)
        }
        Err(e) => {
            st.broken = true;
            st.load_error = Some(e.clone());
            Err(e)
        }
    }
}

fn schema_err(path: &Path, detail: &str) -> TuneError {
    TuneError::Schema {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    }
}

/// Loads a cache file. A missing file is a clean empty cache (cold
/// start); everything else unparseable is a typed error.
fn load(path: &Path) -> Result<HashMap<String, CacheEntry>, TuneError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => {
            return Err(TuneError::Io {
                path: path.to_path_buf(),
                op: "read",
                detail: e.to_string(),
            })
        }
    };
    let doc = Json::parse(&text).map_err(|detail| TuneError::Parse {
        path: path.to_path_buf(),
        detail,
    })?;
    let version = doc.get("version").and_then(Json::as_f64);
    if version != Some(CACHE_VERSION) {
        return Err(TuneError::Version {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let items = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err(path, "missing entries array"))?;
    let mut entries = HashMap::new();
    for item in items {
        let key = item
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| schema_err(path, "entry missing string key"))?;
        let routine = item
            .get("routine")
            .and_then(Json::as_str)
            .ok_or_else(|| schema_err(path, "entry missing string routine"))?;
        let tune_ms = item
            .get("tune_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| schema_err(path, "entry missing numeric tune_ms"))?;
        entries.insert(
            key.to_string(),
            CacheEntry {
                routine: routine.to_string(),
                tune_ms,
                from_file: true,
            },
        );
    }
    Ok(entries)
}

/// Writes the cache atomically: canonical JSON (entries sorted by key)
/// to a same-directory temp file, fsync, rename over the target —
/// the same scheme the checkpoint writer uses, so an interrupted save
/// never leaves a torn file.
fn save(path: &Path, entries: &HashMap<String, CacheEntry>) -> Result<(), TuneError> {
    let mut keys: Vec<&String> = entries.keys().collect();
    keys.sort();
    let items = keys
        .into_iter()
        .map(|k| {
            let e = &entries[k];
            Json::Obj(vec![
                ("key".to_string(), Json::Str(k.clone())),
                ("routine".to_string(), Json::Str(e.routine.clone())),
                ("tune_ms".to_string(), Json::Num(e.tune_ms)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("version".to_string(), Json::Num(CACHE_VERSION)),
        ("entries".to_string(), Json::Arr(items)),
    ]);
    let mut body = doc.render();
    body.push('\n');

    let io_err = |op: &'static str| {
        let path = path.to_path_buf();
        move |e: std::io::Error| TuneError::Io {
            path,
            op,
            detail: e.to_string(),
        }
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("tune.json");
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp")),
        None => PathBuf::from(format!(".{file_name}.tmp")),
    };
    let mut f = fs::File::create(&tmp).map_err(io_err("create"))?;
    f.write_all(body.as_bytes()).map_err(io_err("write"))?;
    f.sync_all().map_err(io_err("fsync"))?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_err("rename"))?;
    // Best effort: make the rename itself durable.
    if let Some(d) = dir {
        if let Ok(dh) = fs::File::open(d) {
            let _ = dh.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared lock serializing tests that mutate the global tune state.
    use std::sync::Mutex;

    /// Tests touching [`super::reload_from`] must hold this, and so must
    /// tests that tune a blocked shape: a measured selection is saved to
    /// whatever cache file another test has configured.
    pub static TUNE_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Grabs the lock even if a prior test panicked while holding it.
    pub fn guard() -> std::sync::MutexGuard<'static, ()> {
        TUNE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A unique temp-file path for tune-cache tests.
    pub fn temp_cache(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xbar-tune-{}-{tag}.json", std::process::id()))
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{guard, temp_cache};
    use super::*;

    fn entry(routine: &str, ms: f64) -> CacheEntry {
        CacheEntry {
            routine: routine.to_string(),
            tune_ms: ms,
            from_file: false,
        }
    }

    #[test]
    fn save_then_load_round_trips_sorted() {
        let path = temp_cache("roundtrip");
        let mut entries = HashMap::new();
        entries.insert(
            "nn:m256:k256:n256:t4:simd".to_string(),
            entry("packed_wide", 1.5),
        );
        entries.insert(
            "tn:m128:k64:n32:t4:simd".to_string(),
            entry("tn_packed", 0.25),
        );
        save(&path, &entries).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"version\":1,\"entries\":["));
        // Sorted by key: nn before tn.
        assert!(text.find("nn:m256").unwrap() < text.find("tn:m128").unwrap());
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        let e = &loaded["tn:m128:k64:n32:t4:simd"];
        assert_eq!(e.routine, "tn_packed");
        assert_eq!(e.tune_ms, 0.25);
        assert!(e.from_file);
        // Saving the loaded map reproduces the file byte for byte.
        let again = temp_cache("roundtrip2");
        save(&again, &loaded).unwrap();
        assert_eq!(fs::read_to_string(&again).unwrap(), text);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&again);
    }

    #[test]
    fn missing_file_is_clean_cold_start() {
        let path = temp_cache("missing");
        let _ = fs::remove_file(&path);
        assert!(load(&path).unwrap().is_empty());
    }

    #[test]
    fn corrupt_truncated_and_wrong_version_are_typed_errors() {
        let path = temp_cache("corrupt");
        fs::write(&path, "{\"version\":1,\"entr").unwrap();
        assert!(matches!(load(&path), Err(TuneError::Parse { .. })));
        fs::write(&path, "{\"version\":99,\"entries\":[]}").unwrap();
        assert!(matches!(
            load(&path),
            Err(TuneError::Version { found: Some(v), .. }) if v == 99.0
        ));
        fs::write(&path, "{\"version\":1}").unwrap();
        assert!(matches!(load(&path), Err(TuneError::Schema { .. })));
        fs::write(&path, "{\"version\":1,\"entries\":[{\"key\":\"x\"}]}").unwrap();
        assert!(matches!(load(&path), Err(TuneError::Schema { .. })));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reload_from_broken_file_falls_back_without_clobbering() {
        let _g = guard();
        let path = temp_cache("broken");
        fs::write(&path, "not json at all").unwrap();
        let before = fs::read_to_string(&path).unwrap();
        let err = reload_from(Some(&path), true).unwrap_err();
        assert!(matches!(err, TuneError::Parse { .. }));
        assert!(!active(), "broken cache must suspend tuning");
        assert!(load_error().is_some());
        // record() must not overwrite the broken file (the selector never
        // measures while broken, but guard the invariant directly too).
        assert_eq!(fs::read_to_string(&path).unwrap(), before);
        // Restore pristine global state for other tests.
        reload_from(None, true).unwrap();
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn record_persists_and_reload_marks_from_file() {
        let _g = guard();
        let path = temp_cache("record");
        let _ = fs::remove_file(&path);
        reload_from(Some(&path), true).unwrap();
        record("nn:m64:k64:n64:t1:simd", "packed_wide", 2.0);
        assert!(save_error().is_none());
        assert_eq!(entry_count(), 1);
        assert!(!lookup("nn:m64:k64:n64:t1:simd").unwrap().from_file);
        let n = reload_from(Some(&path), true).unwrap();
        assert_eq!(n, 1);
        let e = lookup("nn:m64:k64:n64:t1:simd").unwrap();
        assert!(e.from_file);
        assert_eq!(e.routine, "packed_wide");
        reload_from(None, true).unwrap();
        let _ = fs::remove_file(&path);
    }
}
