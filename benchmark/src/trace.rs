//! In-memory span recorder and the traced `Layer` wrapper.
//!
//! Spans are recorded only while [`set_enabled`] is on; a disabled span
//! costs one atomic load. Each span keeps its name, start, end, parent
//! span, lane (recording thread) and operation id, and all of them stay
//! in memory until the benchmark reads them with [`take`].
//!
//! A span's parent is the innermost span open on the same thread. A
//! span opened on a pool lane with nothing open there takes the
//! caller's outermost open span (the operation) as its parent, so work a
//! call fans out across the pool stays linked to the call that caused it.
//! A [`Join`] records the caller's idle wait at the end of such a fan-out.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use xbar_nn::{Layer, MappedParam, NnError, QuantReadout, StateVisitor};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{scratch, Tensor};

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    /// Parent span id, 0 for none.
    pub parent: u64,
    pub name: &'static str,
    /// 0 is the thread that called [`init`]; pool lanes number from 1.
    pub lane: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
/// Id of the outermost span open on lane 0 (0 when none).
static ROOT: AtomicU64 = AtomicU64::new(0);
static SCRATCH_HITS: AtomicU64 = AtomicU64::new(0);
static SCRATCH_MISSES: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn lane() -> u32 {
    LANE.with(|l| match l.get() {
        Some(id) => id,
        None => {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(id));
            id
        }
    })
}

/// Claims lane 0 for the calling thread. Call once, first, from `main`.
pub fn init() {
    lane();
    epoch();
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened from now on with operation `op`.
pub fn set_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// Drains every recorded span and resets the scratch counters, returning
/// `(spans, scratch_hits, scratch_misses)`.
pub fn take() -> (Vec<SpanRec>, u64, u64) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer lock"));
    (
        spans,
        SCRATCH_HITS.swap(0, Ordering::Relaxed),
        SCRATCH_MISSES.swap(0, Ordering::Relaxed),
    )
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    lane: u32,
    start_ns: u64,
    /// Scratch-pool `(hits, misses)` at start, kept only for the
    /// outermost span of a lane so nested spans are not counted twice.
    scratch: Option<(u64, u64)>,
}

/// The parent of a span opened now on `lane`, given that lane's stack.
fn parent_on(lane: u32, stack: &[u64]) -> u64 {
    match stack.last() {
        Some(&p) => p,
        None if lane == 0 => 0,
        None => ROOT.load(Ordering::Relaxed),
    }
}

/// Opens span `name` (a no-op while recording is off).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let lane = lane();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, outermost) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = parent_on(lane, &s);
        let outermost = s.is_empty();
        s.push(id);
        (parent, outermost)
    });
    if outermost && lane == 0 {
        ROOT.store(id, Ordering::Relaxed);
    }
    let scratch = outermost.then(|| {
        let st = scratch::stats();
        (st.hits, st.misses)
    });
    Span {
        open: Some(Open {
            id,
            parent,
            name,
            lane,
            start_ns: now_ns(),
            scratch,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end_ns = now_ns();
        if let Some((hits, misses)) = o.scratch {
            let st = scratch::stats();
            SCRATCH_HITS.fetch_add(st.hits.saturating_sub(hits), Ordering::Relaxed);
            SCRATCH_MISSES.fetch_add(st.misses.saturating_sub(misses), Ordering::Relaxed);
        }
        let emptied = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            s.is_empty()
        });
        if emptied && o.lane == 0 {
            ROOT.store(0, Ordering::Relaxed);
        }
        let rec = SpanRec {
            id: o.id,
            parent: o.parent,
            name: o.name,
            lane: o.lane,
            op: CURRENT_OP.load(Ordering::Relaxed),
            start_ns: o.start_ns,
            end_ns,
        };
        SPANS.lock().expect("span buffer lock").push(rec);
    }
}

/// Runs `f` inside span `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = span(name);
    f()
}

/// The calling lane's wait at the join of a pool fan-out.
///
/// Open it before the fan-out, call [`Join::task_done`] at the end of
/// every task, and drop it when the fan-out returns. It then records span
/// `sched.join_wait` on the opening lane, from the end of the last task
/// that lane ran itself (the fan-out's start if it ran none) to the
/// drop: the time the lane idled in the pool while another lane finished.
/// The tasks it ran are covered by their own spans, so a task's untraced
/// work still shows as uncovered time.
pub struct Join {
    /// Lane and start time, `None` while recording is off.
    open: Option<(u32, u64)>,
    last_task_end_ns: AtomicU64,
}

pub fn join() -> Join {
    Join {
        open: enabled().then(|| (lane(), now_ns())),
        last_task_end_ns: AtomicU64::new(0),
    }
}

impl Join {
    /// Marks the end of a task; only the opening lane's tasks count.
    pub fn task_done(&self) {
        if let Some((owner, _)) = self.open {
            if lane() == owner {
                self.last_task_end_ns.fetch_max(now_ns(), Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Join {
    fn drop(&mut self) {
        let Some((lane, start_ns)) = self.open else {
            return;
        };
        let start_ns = start_ns.max(self.last_task_end_ns.load(Ordering::Relaxed));
        let rec = SpanRec {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: STACK.with(|s| parent_on(lane, &s.borrow())),
            name: "sched.join_wait",
            lane,
            op: CURRENT_OP.load(Ordering::Relaxed),
            start_ns,
            end_ns: now_ns(),
        };
        SPANS.lock().expect("span buffer lock").push(rec);
    }
}

/// Wraps a whole network and records `nn.clone_box`, `nn.forward`,
/// `nn.backward`, `nn.update`, `nn.zero_grad` and `nn.forward_quantized`
/// around the calls made on it. Every other trait method is forwarded
/// unchanged, and clones (the trainer's shard replicas, the Monte-Carlo
/// workers' copies) are wrapped too, so calls on every pool lane are seen.
pub struct Traced {
    inner: Box<dyn Layer>,
}

impl Traced {
    pub fn new(inner: Box<dyn Layer>) -> Self {
        Self { inner }
    }
}

impl Layer for Traced {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        timed("nn.clone_box", || {
            Box::new(Traced {
                inner: self.inner.clone_box(),
            }) as Box<dyn Layer>
        })
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        timed("nn.forward", || self.inner.forward(x, train))
    }

    fn calibrate(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.inner.calibrate(x)
    }

    fn forward_quantized(&mut self, x: &Tensor, mode: &QuantReadout) -> Result<Tensor, NnError> {
        timed("nn.forward_quantized", || {
            self.inner.forward_quantized(x, mode)
        })
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        timed("nn.backward", || self.inner.backward(grad))
    }

    fn update(&mut self, lr: f32) {
        timed("nn.update", || self.inner.update(lr))
    }

    fn zero_grad(&mut self) {
        timed("nn.zero_grad", || self.inner.zero_grad())
    }

    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn visit_mapped(&mut self, visit: &mut dyn FnMut(&mut MappedParam)) {
        self.inner.visit_mapped(visit)
    }

    fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        self.inner.visit_grads(visit)
    }

    fn visit_grad_segments(&mut self, visit: &mut dyn FnMut(usize)) {
        self.inner.visit_grad_segments(visit)
    }

    fn visit_forward_rngs(&mut self, visit: &mut dyn FnMut(&mut XorShiftRng)) {
        self.inner.visit_forward_rngs(visit)
    }

    fn visit_batch_stats(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        self.inner.visit_batch_stats(visit)
    }

    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn StateVisitor) {
        self.inner.visit_state(prefix, visitor)
    }
}
