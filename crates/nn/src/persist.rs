//! Crash-safe persistence for tensors, models, and training state.
//!
//! Monte-Carlo resilience sweeps are long-running batch jobs; this module
//! gives them durable state with a dependency-free binary codec:
//!
//! * **Container format** — every file starts with the magic `XBARCKPT`,
//!   a format version, a payload *kind* tag, the payload length, and a
//!   CRC-32 of the payload. Truncated, bit-flipped, or foreign files are
//!   rejected with a typed [`PersistError`] — never UB or silent garbage.
//! * **Atomic writes** — payloads are written to a temp file in the target
//!   directory, `fsync`ed, then renamed over the destination, so a crash
//!   mid-write can never leave a torn checkpoint; the previous checkpoint
//!   (if any) survives intact.
//! * **Bitwise fidelity** — `f32` values are stored as raw IEEE-754 bits,
//!   and RNG streams (including the Box–Muller spare) are captured via
//!   [`RngState`], so a restored training run continues *bitwise*
//!   identically to an uninterrupted one.
//!
//! The bridge between layers and the codec is [`crate::StateVisitor`]:
//! [`collect_state`] walks a network and snapshots every persistent
//! component; [`restore_state`] validates the snapshot against the target
//! network (names, kinds, shapes) and only then applies it.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use xbar_tensor::rng::{RngState, XorShiftRng};
use xbar_tensor::Tensor;

use crate::{EpochStats, Layer, StateVisitor};

/// File magic for all persisted artifacts.
pub const MAGIC: &[u8; 8] = b"XBARCKPT";
/// Current container format version. Version 2 added the resolved
/// data-parallel shard count to [`TrainCheckpoint`] so auto-tuned runs
/// resume with the shard count they were started with.
pub const FORMAT_VERSION: u32 = 2;

/// Payload kind tag: a single tensor.
pub const KIND_TENSOR: u8 = 1;
/// Payload kind tag: a model state bundle (named tensors + RNG streams).
pub const KIND_MODEL: u8 = 2;
/// Payload kind tag: a full training checkpoint.
pub const KIND_TRAIN: u8 = 3;

/// Typed errors from checkpoint save/load.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An OS-level I/O operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The operation that failed (`"open"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The OS error message.
        detail: String,
    },
    /// The file does not start with the `XBARCKPT` magic.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file holds a different payload kind than requested.
    WrongKind {
        /// The kind tag the caller expected.
        expected: u8,
        /// The kind tag found in the file.
        found: u8,
    },
    /// The file ends before the declared payload does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum does not match (bit rot / partial overwrite).
    ChecksumMismatch {
        /// CRC-32 stored in the header.
        stored: u32,
        /// CRC-32 computed over the payload.
        computed: u32,
    },
    /// The payload is internally inconsistent (valid checksum, bad data).
    Corrupt(String),
    /// The snapshot does not match the target network's state layout.
    StateMismatch(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, op, detail } => {
                write!(f, "checkpoint {op} failed for {}: {detail}", path.display())
            }
            Self::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            Self::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong checkpoint kind: expected {expected}, found {found}"
                )
            }
            Self::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated checkpoint: needed {needed} bytes, only {available} available"
                )
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt checkpoint payload: {msg}"),
            Self::StateMismatch(msg) => write!(f, "checkpoint/model mismatch: {msg}"),
        }
    }
}

impl Error for PersistError {}

fn io_err(path: &Path, op: &'static str, e: &std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the payload checksum used by the container.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode cursors
// ---------------------------------------------------------------------------

/// Append-only little-endian byte encoder.
#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte decoder.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(PersistError::Truncated {
                // A corrupted count may be near usize::MAX.
                needed: self.pos.saturating_add(n),
                available: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("non-UTF-8 name".into()))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("count {v} overflows usize")))
    }

    fn done(&self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic container I/O
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `write` + `fsync`, then `rename` over the destination. A crash at any
/// point leaves either the old file or the new file, never a mix.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::Io {
            path: path.to_path_buf(),
            op: "open",
            detail: "path has no file name".into(),
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp")),
        None => PathBuf::from(format!(".{file_name}.tmp")),
    };
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, "write", &e))?;
    f.sync_all().map_err(|e| io_err(&tmp, "fsync", &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(path, "rename", &e)
    })?;
    // Make the rename itself durable. Directory fsync is not supported on
    // every platform/filesystem, so failures here are non-fatal.
    if let Some(d) = dir {
        if let Ok(dirf) = fs::File::open(d) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// Wraps `payload` in the versioned, checksummed container and writes it
/// atomically to `path`.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on any filesystem failure.
pub fn write_container(path: &Path, kind: u8, payload: &[u8]) -> Result<(), PersistError> {
    let mut bytes = Vec::with_capacity(MAGIC.len() + 17 + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(kind);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    atomic_write(path, &bytes)
}

/// Reads a container from `path`, verifying magic, version, kind, length,
/// and checksum, and returns the validated payload.
///
/// # Errors
///
/// Returns the specific [`PersistError`] for each corruption mode: bad
/// magic, unsupported version, wrong kind, truncation, checksum mismatch.
pub fn read_container(path: &Path, expected_kind: u8) -> Result<Vec<u8>, PersistError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", &e))?;
    let mut d = Dec::new(&bytes);
    let magic = d.take(MAGIC.len()).map_err(|_| PersistError::BadMagic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let kind = d.u8()?;
    if kind != expected_kind {
        return Err(PersistError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let len = d.usize()?;
    let stored = d.u32()?;
    let payload = d.take(len)?;
    d.done()?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// Tensor / RNG payload codecs
// ---------------------------------------------------------------------------

fn encode_tensor(e: &mut Enc, t: &Tensor) {
    e.u32(t.ndim() as u32);
    for &d in t.shape() {
        e.u64(d as u64);
    }
    for &v in t.data() {
        e.f32(v);
    }
}

fn decode_tensor(d: &mut Dec<'_>) -> Result<Tensor, PersistError> {
    let ndim = d.u32()? as usize;
    if ndim > 8 {
        return Err(PersistError::Corrupt(format!("implausible rank {ndim}")));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut len = 1usize;
    for _ in 0..ndim {
        let dim = d.usize()?;
        len = len
            .checked_mul(dim)
            .ok_or_else(|| PersistError::Corrupt("tensor size overflows".into()))?;
        shape.push(dim);
    }
    // Bound the allocation by what the buffer can actually hold.
    let remaining = d.buf.len() - d.pos;
    if len > remaining / 4 {
        return Err(PersistError::Truncated {
            needed: d.pos.saturating_add(len.saturating_mul(4)),
            available: d.buf.len(),
        });
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(d.f32()?);
    }
    Tensor::from_vec(data, &shape)
        .map_err(|e| PersistError::Corrupt(format!("tensor shape invalid: {e}")))
}

fn encode_rng(e: &mut Enc, s: RngState) {
    e.u64(s.state);
    match s.spare_normal {
        Some(v) => {
            e.u8(1);
            e.f32(v);
        }
        None => {
            e.u8(0);
            e.f32(0.0);
        }
    }
}

fn decode_rng(d: &mut Dec<'_>) -> Result<RngState, PersistError> {
    let state = d.u64()?;
    let flag = d.u8()?;
    let spare = d.f32()?;
    let spare_normal = match flag {
        0 => None,
        1 => Some(spare),
        other => {
            return Err(PersistError::Corrupt(format!(
                "invalid RNG spare flag {other}"
            )))
        }
    };
    Ok(RngState {
        state,
        spare_normal,
    })
}

/// Saves a single tensor to `path` (kind [`KIND_TENSOR`]).
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_tensor(path: &Path, t: &Tensor) -> Result<(), PersistError> {
    let mut e = Enc::default();
    encode_tensor(&mut e, t);
    write_container(path, KIND_TENSOR, &e.buf)
}

/// Loads a single tensor from `path`.
///
/// # Errors
///
/// Returns a typed [`PersistError`] on any corruption or I/O failure.
pub fn load_tensor(path: &Path) -> Result<Tensor, PersistError> {
    let payload = read_container(path, KIND_TENSOR)?;
    let mut d = Dec::new(&payload);
    let t = decode_tensor(&mut d)?;
    d.done()?;
    Ok(t)
}

// ---------------------------------------------------------------------------
// Model state bundles (StateVisitor bridge)
// ---------------------------------------------------------------------------

/// One named persistent state component captured from a layer tree.
#[derive(Debug, Clone, PartialEq)]
pub enum StateItem {
    /// A tensor-valued component (weights, biases, running statistics).
    Tensor {
        /// Hierarchical component name, e.g. `"0.w.shadow"`.
        name: String,
        /// The captured value.
        value: Tensor,
    },
    /// A deterministic RNG stream.
    Rng {
        /// Hierarchical component name, e.g. `"3.rng"`.
        name: String,
        /// The captured stream state.
        value: RngState,
    },
}

impl StateItem {
    /// The component's hierarchical name.
    pub fn name(&self) -> &str {
        match self {
            Self::Tensor { name, .. } | Self::Rng { name, .. } => name,
        }
    }
}

struct Collector {
    items: Vec<StateItem>,
}

impl StateVisitor for Collector {
    fn tensor(&mut self, name: &str, value: &mut Tensor) {
        self.items.push(StateItem::Tensor {
            name: name.to_string(),
            value: value.clone(),
        });
    }

    fn rng(&mut self, name: &str, value: &mut XorShiftRng) {
        self.items.push(StateItem::Rng {
            name: name.to_string(),
            value: value.save_state(),
        });
    }
}

/// Snapshots every persistent state component of `net`, in visit order.
pub fn collect_state(net: &mut dyn Layer) -> Vec<StateItem> {
    let mut c = Collector { items: Vec::new() };
    net.visit_state("", &mut c);
    c.items
}

/// Validation pass: checks each visited component against the snapshot
/// without mutating anything.
struct Validator<'a> {
    items: &'a [StateItem],
    next: usize,
    error: Option<PersistError>,
}

impl Validator<'_> {
    fn mismatch(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(PersistError::StateMismatch(msg));
        }
    }

    fn expect(&mut self, name: &str) -> Option<&StateItem> {
        if self.error.is_some() {
            return None;
        }
        match self.items.get(self.next) {
            Some(item) => {
                self.next += 1;
                if item.name() != name {
                    self.mismatch(format!(
                        "component {}: snapshot has '{}', network expects '{name}'",
                        self.next - 1,
                        item.name()
                    ));
                    return None;
                }
                Some(item)
            }
            None => {
                self.mismatch(format!(
                    "snapshot has {} components, network expects more (next: '{name}')",
                    self.items.len()
                ));
                None
            }
        }
    }
}

impl StateVisitor for Validator<'_> {
    fn tensor(&mut self, name: &str, value: &mut Tensor) {
        let expected_shape = value.shape().to_vec();
        if let Some(item) = self.expect(name) {
            match item {
                StateItem::Tensor { value: t, .. } => {
                    if t.shape() != expected_shape {
                        let got = t.shape().to_vec();
                        self.mismatch(format!(
                            "tensor '{name}': snapshot shape {got:?}, network shape {expected_shape:?}"
                        ));
                    }
                }
                StateItem::Rng { .. } => {
                    self.mismatch(format!(
                        "component '{name}': snapshot has RNG, network expects tensor"
                    ));
                }
            }
        }
    }

    fn rng(&mut self, name: &str, _value: &mut XorShiftRng) {
        if let Some(StateItem::Tensor { .. }) = self.expect(name) {
            self.mismatch(format!(
                "component '{name}': snapshot has tensor, network expects RNG"
            ));
        }
    }

    fn checked_tensor(
        &mut self,
        name: &str,
        value: &mut Tensor,
        check: &dyn Fn(&Tensor) -> Result<(), String>,
    ) {
        self.tensor(name, value);
        if self.error.is_some() {
            return;
        }
        // `tensor` accepted the item just consumed: a same-shaped tensor.
        if let Some(StateItem::Tensor { value: t, .. }) = self.items.get(self.next - 1) {
            if let Err(msg) = check(t) {
                self.mismatch(format!("tensor '{name}': {msg}"));
            }
        }
    }
}

/// Application pass: overwrites each visited component from the snapshot.
/// Only run after [`Validator`] has passed.
struct Applier<'a> {
    items: &'a [StateItem],
    next: usize,
}

impl StateVisitor for Applier<'_> {
    fn tensor(&mut self, _name: &str, value: &mut Tensor) {
        if let Some(StateItem::Tensor { value: t, .. }) = self.items.get(self.next) {
            *value = t.clone();
        }
        self.next += 1;
    }

    fn rng(&mut self, _name: &str, value: &mut XorShiftRng) {
        if let Some(StateItem::Rng { value: s, .. }) = self.items.get(self.next) {
            value.restore_state(*s);
        }
        self.next += 1;
    }

    fn restores(&self) -> bool {
        true
    }
}

/// Restores a snapshot produced by [`collect_state`] into `net`.
///
/// The snapshot is validated first (component names, kinds, and tensor
/// shapes must all match the network's state layout, and every value
/// visited through [`StateVisitor::checked_tensor`] must pass its owner's
/// rule); the network is only mutated if validation passes, so a
/// mismatched snapshot leaves `net` untouched.
///
/// # Errors
///
/// Returns [`PersistError::StateMismatch`] describing the first
/// incompatibility found.
pub fn restore_state(net: &mut dyn Layer, items: &[StateItem]) -> Result<(), PersistError> {
    let mut v = Validator {
        items,
        next: 0,
        error: None,
    };
    net.visit_state("", &mut v);
    if let Some(e) = v.error {
        return Err(e);
    }
    if v.next != items.len() {
        return Err(PersistError::StateMismatch(format!(
            "snapshot has {} components, network expects {}",
            items.len(),
            v.next
        )));
    }
    let mut a = Applier { items, next: 0 };
    net.visit_state("", &mut a);
    Ok(())
}

const ITEM_TENSOR: u8 = 1;
const ITEM_RNG: u8 = 2;

fn encode_items(e: &mut Enc, items: &[StateItem]) {
    e.u64(items.len() as u64);
    for item in items {
        match item {
            StateItem::Tensor { name, value } => {
                e.u8(ITEM_TENSOR);
                e.str(name);
                encode_tensor(e, value);
            }
            StateItem::Rng { name, value } => {
                e.u8(ITEM_RNG);
                e.str(name);
                encode_rng(e, *value);
            }
        }
    }
}

fn decode_items(d: &mut Dec<'_>) -> Result<Vec<StateItem>, PersistError> {
    let count = d.usize()?;
    let mut items = Vec::new();
    for _ in 0..count {
        let tag = d.u8()?;
        let name = d.str()?;
        let item = match tag {
            ITEM_TENSOR => StateItem::Tensor {
                name,
                value: decode_tensor(d)?,
            },
            ITEM_RNG => StateItem::Rng {
                name,
                value: decode_rng(d)?,
            },
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown state item tag {other}"
                )))
            }
        };
        items.push(item);
    }
    Ok(items)
}

/// Saves the persistent state of `net` to `path` (kind [`KIND_MODEL`]).
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_model(path: &Path, net: &mut dyn Layer) -> Result<(), PersistError> {
    let items = collect_state(net);
    let mut e = Enc::default();
    encode_items(&mut e, &items);
    write_container(path, KIND_MODEL, &e.buf)
}

/// Loads a model state bundle from `path` and restores it into `net`.
///
/// # Errors
///
/// Returns a typed [`PersistError`] on corruption, I/O failure, or a
/// snapshot that does not match `net`'s state layout (in which case `net`
/// is left untouched).
pub fn load_model(path: &Path, net: &mut dyn Layer) -> Result<(), PersistError> {
    let payload = read_container(path, KIND_MODEL)?;
    let mut d = Dec::new(&payload);
    let items = decode_items(&mut d)?;
    d.done()?;
    restore_state(net, &items)
}

// ---------------------------------------------------------------------------
// Training checkpoints
// ---------------------------------------------------------------------------

/// A complete snapshot of an in-progress [`crate::train`] run.
///
/// Captures everything the training loop needs to continue bitwise:
/// epochs completed, current learning rate, the shuffling RNG stream, the
/// *current sample order permutation* (the loop shuffles it cumulatively
/// across epochs, so RNG state alone is not enough), the history so far,
/// and the full model state.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Number of epochs fully completed.
    pub epochs_done: usize,
    /// Learning rate for the next epoch.
    pub lr: f32,
    /// Resolved data-parallel shard count of the run (what
    /// [`crate::TrainConfig::shards`] resolved to — the recorded value,
    /// not the request). Sharding fixes the gradient reduction order, so
    /// a resumed run must reuse exactly this count to stay bitwise.
    pub shards: usize,
    /// Shuffling RNG stream state.
    pub rng: RngState,
    /// Current sample order permutation.
    pub order: Vec<usize>,
    /// Per-epoch statistics recorded so far.
    pub history: Vec<EpochStats>,
    /// Model state snapshot.
    pub model: Vec<StateItem>,
}

fn encode_stats(e: &mut Enc, s: &EpochStats) {
    e.u64(s.epoch as u64);
    e.f32(s.train_loss);
    e.f32(s.train_acc);
    match s.test_acc {
        Some(a) => {
            e.u8(1);
            e.f32(a);
        }
        None => {
            e.u8(0);
            e.f32(0.0);
        }
    }
    e.f32(s.lr);
}

fn decode_stats(d: &mut Dec<'_>) -> Result<EpochStats, PersistError> {
    let epoch = d.usize()?;
    let train_loss = d.f32()?;
    let train_acc = d.f32()?;
    let flag = d.u8()?;
    let acc = d.f32()?;
    let test_acc = match flag {
        0 => None,
        1 => Some(acc),
        other => {
            return Err(PersistError::Corrupt(format!(
                "invalid test-acc flag {other}"
            )))
        }
    };
    let lr = d.f32()?;
    Ok(EpochStats {
        epoch,
        train_loss,
        train_acc,
        test_acc,
        lr,
    })
}

/// Saves a training checkpoint to `path` (kind [`KIND_TRAIN`]),
/// atomically.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_checkpoint(path: &Path, ckpt: &TrainCheckpoint) -> Result<(), PersistError> {
    let mut e = Enc::default();
    e.u64(ckpt.epochs_done as u64);
    e.f32(ckpt.lr);
    e.u64(ckpt.shards as u64);
    encode_rng(&mut e, ckpt.rng);
    e.u64(ckpt.order.len() as u64);
    for &i in &ckpt.order {
        e.u64(i as u64);
    }
    e.u64(ckpt.history.len() as u64);
    for s in &ckpt.history {
        encode_stats(&mut e, s);
    }
    encode_items(&mut e, &ckpt.model);
    write_container(path, KIND_TRAIN, &e.buf)
}

/// Loads a training checkpoint from `path`.
///
/// # Errors
///
/// Returns a typed [`PersistError`] on any corruption or I/O failure.
pub fn load_checkpoint(path: &Path) -> Result<TrainCheckpoint, PersistError> {
    let payload = read_container(path, KIND_TRAIN)?;
    let mut d = Dec::new(&payload);
    let epochs_done = d.usize()?;
    let lr = d.f32()?;
    let shards = d.usize()?;
    let rng = decode_rng(&mut d)?;
    let order_len = d.usize()?;
    if order_len > (d.buf.len() - d.pos) / 8 {
        return Err(PersistError::Truncated {
            needed: d.pos.saturating_add(order_len.saturating_mul(8)),
            available: d.buf.len(),
        });
    }
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        order.push(d.usize()?);
    }
    let hist_len = d.usize()?;
    if hist_len > (d.buf.len() - d.pos) / 21 {
        return Err(PersistError::Truncated {
            needed: d.pos.saturating_add(hist_len.saturating_mul(21)),
            available: d.buf.len(),
        });
    }
    let mut history = Vec::with_capacity(hist_len);
    for _ in 0..hist_len {
        history.push(decode_stats(&mut d)?);
    }
    let model = decode_items(&mut d)?;
    d.done()?;
    Ok(TrainCheckpoint {
        epochs_done,
        lr,
        shards,
        rng,
        order,
        history,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn enc_dec_round_trip_primitives() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f32(-0.0);
        e.str("layer.0.w");
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.str().unwrap(), "layer.0.w");
        d.done().unwrap();
    }

    #[test]
    fn dec_reports_truncation() {
        let mut d = Dec::new(&[1, 2]);
        let err = d.u32().unwrap_err();
        assert_eq!(
            err,
            PersistError::Truncated {
                needed: 4,
                available: 2
            }
        );
    }
}
