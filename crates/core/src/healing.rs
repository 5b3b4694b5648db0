//! Self-healing crossbar execution: online fault detection, staged repair
//! with retry/backoff, and exact digital fallback.
//!
//! The resilience machinery elsewhere in this crate (write-verify
//! programming, null-space remap, `Mapping::Perm`) runs at *program time*
//! — a fault that arrives after mapping silently corrupts every
//! subsequent MVM. This module closes the loop at run time:
//!
//! 1. **Detection** — an ABFT-style checksum per physical tile. The
//!    expected column sums of a tile's target block form a checksum
//!    vector `c` with `Σ_d (x·Mᵀ)[d] = x·c` for every input `x`, so each
//!    tile MVM yields a residual at the cost of one extra dot product
//!    ([`SelfHealingCrossbar::forward_verified`]). The scrub loop
//!    evaluates the same residual analytically (its worst case over unit
//!    inputs, [`checksum_residual`]), which keeps detection a pure
//!    function of array state.
//! 2. **Health tracking** — a [`HealthMonitor`] holds a per-tile residual
//!    EWMA and drives the state machine `Healthy → Suspect → Repairing →
//!    Quarantined` ([`TileHealth`]). One suspect observation never
//!    triggers a repair; the residual must persist.
//! 3. **Staged repair** — a bounded retry/backoff budget walks the
//!    escalation ladder [`RepairStage::Reprogram`] (write-verify pass;
//!    clears transient upsets) → [`RepairStage::Remap`] (tile-local
//!    null-space compensation of the stuck cells) →
//!    [`RepairStage::FullRemap`] (discard accumulated shifts, remap from
//!    the pristine targets). Every attempt is recorded in a
//!    [`RepairAttempt`].
//! 4. **Digital fallback** — a tile that exhausts its budget is
//!    quarantined: its partial product is served from the ideal
//!    (fault-free, snapped) targets, exactly — accuracy is preserved and
//!    the [`ScrubReport::analog_coverage`] metric drops instead.
//!
//! Determinism contract: scrub-path programming always uses
//! `VariationModel::none()`, which writes targets exactly and consumes no
//! RNG, so the entire array state after any number of scrubs is a pure
//! function of `(reference array, lifetime model, policy, epoch)` —
//! serial and pooled execution stay bitwise identical, and a checkpoint
//! can rebuild the state exactly. With an inactive
//! [`LifetimeFaultModel`], every path is a bitwise no-op.

use xbar_device::{DeviceConfig, FaultMap, LifetimeFaultModel, ProgrammingReport, VariationModel};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{linalg, Tensor};

use crate::tiling::raw_batch;
use crate::{remap_for_faults, ColGroup, CrossbarArray, MappingError, PeripheryMatrix, TileGrid};

/// Health state of one physical tile, as tracked by the
/// [`HealthMonitor`]'s per-tile state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileHealth {
    /// Residual EWMA below threshold; the tile serves analog MVMs.
    Healthy,
    /// The residual crossed the threshold once; confirmed (and repaired)
    /// only if it persists at the next scrub.
    Suspect,
    /// Under active repair, walking the escalation ladder between
    /// backoff windows.
    Repairing,
    /// Repair budget exhausted; the tile's partial product is served by
    /// the exact digital fallback path.
    Quarantined,
}

impl TileHealth {
    /// Stable numeric code, for flat (tensor) persistence.
    pub fn code(self) -> f32 {
        match self {
            Self::Healthy => 0.0,
            Self::Suspect => 1.0,
            Self::Repairing => 2.0,
            Self::Quarantined => 3.0,
        }
    }

    /// Inverse of [`TileHealth::code`].
    pub fn from_code(code: f32) -> Option<Self> {
        [
            Self::Healthy,
            Self::Suspect,
            Self::Repairing,
            Self::Quarantined,
        ]
        .into_iter()
        .find(|s| s.code() == code)
    }
}

/// One rung of the repair escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStage {
    /// Re-run the write-verify programming pass against the current
    /// targets. Clears transient (soft) corruption; cannot fix stuck
    /// cells.
    Reprogram,
    /// Tile-local null-space remap: shift the tile's healthy cells along
    /// the local periphery's null direction to compensate the stuck
    /// ones, then re-program.
    Remap,
    /// Discard every previously accumulated shift and remap the tile
    /// from its pristine targets — recovers from a stale compensation
    /// that later arrivals invalidated.
    FullRemap,
}

impl RepairStage {
    /// Short lowercase tag for logs and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Reprogram => "reprogram",
            Self::Remap => "remap",
            Self::FullRemap => "full_remap",
        }
    }
}

/// Tuning knobs of the detection/repair loop.
///
/// The attempt counts define the escalation ladder: the first
/// `reprogram_attempts` failed attempts on a tile re-program it, the next
/// `remap_attempts` remap it, the final `full_remap_attempts` remap it
/// from scratch; a tile whose total budget is exhausted is quarantined.
/// After every failed attempt the tile backs off for
/// `backoff_base << attempts` scrub epochs (capped) before the next try.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Checksum-residual level above which a tile becomes suspect.
    pub residual_threshold: f32,
    /// Smoothing factor of the per-tile residual EWMA in `(0, 1]`
    /// (1 = no smoothing, track the raw residual).
    pub ewma_alpha: f32,
    /// Budget for the [`RepairStage::Reprogram`] rung.
    pub reprogram_attempts: u32,
    /// Budget for the [`RepairStage::Remap`] rung.
    pub remap_attempts: u32,
    /// Budget for the [`RepairStage::FullRemap`] rung.
    pub full_remap_attempts: u32,
    /// Base backoff in scrub epochs; doubles per failed attempt.
    pub backoff_base: u32,
    /// Weight-space residual (Frobenius, normalized weight units) below
    /// which a remap counts as having restored the tile's accuracy. This
    /// is the accuracy-vs-coverage knob: range clamping leaves real
    /// remaps slightly inexact, so a tolerance near machine precision
    /// quarantines every faulty tile (exact but all-digital), while a
    /// loose one keeps tiles analog at the cost of bounded weight error.
    pub weight_tolerance: f32,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self {
            residual_threshold: 1e-4,
            ewma_alpha: 0.5,
            reprogram_attempts: 1,
            remap_attempts: 1,
            full_remap_attempts: 1,
            backoff_base: 1,
            weight_tolerance: 1e-2,
        }
    }
}

impl RepairPolicy {
    /// Total repair attempts a tile is granted before quarantine.
    pub fn budget(&self) -> u32 {
        self.reprogram_attempts + self.remap_attempts + self.full_remap_attempts
    }

    /// The ladder rung for the `attempt`-th attempt (0-based).
    pub fn stage_for(&self, attempt: u32) -> RepairStage {
        if attempt < self.reprogram_attempts {
            RepairStage::Reprogram
        } else if attempt < self.reprogram_attempts + self.remap_attempts {
            RepairStage::Remap
        } else {
            RepairStage::FullRemap
        }
    }

    /// Backoff window (in scrub epochs) after the `attempt`-th failed
    /// attempt: `backoff_base << attempt`, capped at 6 doublings.
    pub fn backoff_after(&self, attempt: u32) -> u32 {
        self.backoff_base << attempt.min(6)
    }
}

/// What the monitor asks the scrub loop to do with one tile this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Residual nominal; nothing to do.
    Nothing,
    /// First threshold crossing: the tile is now suspect, confirm next
    /// scrub before repairing.
    Detected,
    /// Run one repair attempt at the given ladder rung.
    Repair(RepairStage),
    /// In a backoff window after a failed attempt; wait.
    Backoff,
    /// The tile is quarantined; it is served digitally and ignored.
    AlreadyQuarantined,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TileState {
    state: TileHealth,
    ewma: f32,
    attempts: u32,
    backoff_until: u32,
}

impl TileState {
    fn healthy() -> Self {
        Self {
            state: TileHealth::Healthy,
            ewma: 0.0,
            attempts: 0,
            backoff_until: 0,
        }
    }
}

/// Per-tile residual EWMAs and the `Healthy → Suspect → Repairing →
/// Quarantined` state machine they drive.
///
/// Tiles are indexed in the grid's deterministic order: row blocks outer,
/// column groups inner (matching [`TileGrid::row_blocks`] ×
/// [`TileGrid::col_groups`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    policy: RepairPolicy,
    tiles: Vec<TileState>,
}

impl HealthMonitor {
    /// A monitor with every tile healthy.
    pub fn new(num_tiles: usize, policy: RepairPolicy) -> Self {
        Self {
            policy,
            tiles: vec![TileState::healthy(); num_tiles],
        }
    }

    /// Number of tracked tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The policy in force.
    pub fn policy(&self) -> &RepairPolicy {
        &self.policy
    }

    /// Health state of one tile.
    pub fn state(&self, tile: usize) -> TileHealth {
        self.tiles[tile].state
    }

    /// Current residual EWMA of one tile.
    pub fn ewma(&self, tile: usize) -> f32 {
        self.tiles[tile].ewma
    }

    /// Tiles currently quarantined.
    pub fn num_quarantined(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| t.state == TileHealth::Quarantined)
            .count()
    }

    /// Tiles still serving analog MVMs.
    pub fn num_analog(&self) -> usize {
        self.num_tiles() - self.num_quarantined()
    }

    /// Folds one scrub's residual observation for `tile` into the EWMA
    /// and advances the state machine, returning the action the scrub
    /// loop should take.
    pub fn observe(&mut self, tile: usize, residual: f32, epoch: u32) -> HealthAction {
        let policy = self.policy;
        let t = &mut self.tiles[tile];
        if t.state == TileHealth::Quarantined {
            return HealthAction::AlreadyQuarantined;
        }
        t.ewma = policy.ewma_alpha * residual + (1.0 - policy.ewma_alpha) * t.ewma;
        let over = t.ewma > policy.residual_threshold;
        match t.state {
            TileHealth::Healthy => {
                if over {
                    t.state = TileHealth::Suspect;
                    HealthAction::Detected
                } else {
                    HealthAction::Nothing
                }
            }
            TileHealth::Suspect => {
                if over {
                    t.state = TileHealth::Repairing;
                    HealthAction::Repair(policy.stage_for(t.attempts))
                } else {
                    // Transient: the residual cleared on its own.
                    t.state = TileHealth::Healthy;
                    HealthAction::Nothing
                }
            }
            TileHealth::Repairing => {
                if epoch < t.backoff_until {
                    HealthAction::Backoff
                } else {
                    HealthAction::Repair(policy.stage_for(t.attempts))
                }
            }
            TileHealth::Quarantined => unreachable!("handled above"),
        }
    }

    /// Records the outcome of one repair attempt on `tile` and returns
    /// the tile's new state. A healed tile goes back to `Healthy` with a
    /// fresh budget; a failed attempt burns budget, schedules an
    /// exponential backoff window, and quarantines the tile once the
    /// budget is gone.
    pub fn record_attempt(&mut self, tile: usize, epoch: u32, healed: bool) -> TileHealth {
        let policy = self.policy;
        let t = &mut self.tiles[tile];
        if healed {
            *t = TileState::healthy();
        } else {
            t.attempts += 1;
            if t.attempts >= policy.budget() {
                t.state = TileHealth::Quarantined;
            } else {
                t.backoff_until = epoch + policy.backoff_after(t.attempts - 1);
            }
        }
        t.state
    }

    /// Flattens the monitor to `4` floats per tile
    /// (`[state code, ewma, attempts, backoff_until]`), for tensor-based
    /// checkpoint persistence.
    pub fn to_flat(&self) -> Vec<f32> {
        self.tiles
            .iter()
            .flat_map(|t| {
                [
                    t.state.code(),
                    t.ewma,
                    t.attempts as f32,
                    t.backoff_until as f32,
                ]
            })
            .collect()
    }

    /// Rebuilds a monitor from [`HealthMonitor::to_flat`] output.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the length is not a multiple of 4 or a
    /// state code is invalid.
    pub fn from_flat(flat: &[f32], policy: RepairPolicy) -> Result<Self, MappingError> {
        if !flat.len().is_multiple_of(4) {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "health monitor",
                format!("flat state length {} is not a multiple of 4", flat.len()),
            )));
        }
        let tiles = flat
            .chunks_exact(4)
            .map(|c| {
                let state = TileHealth::from_code(c[0]).ok_or_else(|| {
                    MappingError::Shape(xbar_tensor::ShapeError::new(
                        "health monitor",
                        format!("invalid tile health code {}", c[0]),
                    ))
                })?;
                Ok(TileState {
                    state,
                    ewma: c[1],
                    attempts: c[2] as u32,
                    backoff_until: c[3] as u32,
                })
            })
            .collect::<Result<Vec<_>, MappingError>>()?;
        Ok(Self { policy, tiles })
    }
}

/// One rung-of-the-ladder repair attempt on one tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairAttempt {
    /// Scrub epoch the attempt ran in.
    pub epoch: u32,
    /// Tile index (row blocks outer, column groups inner).
    pub tile: usize,
    /// The ladder rung used.
    pub stage: RepairStage,
    /// Checksum residual before the attempt.
    pub residual_before: f32,
    /// Checksum residual after the attempt.
    pub residual_after: f32,
    /// Whether the attempt restored the tile (stage-specific criterion:
    /// checksum residual for re-programming, weight-space residual for
    /// the remap rungs).
    pub healed: bool,
}

/// Outcome of one [`SelfHealingCrossbar::scrub`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// The scrub epoch this report covers.
    pub epoch: u32,
    /// Lifetime faults that arrived this epoch (new stuck cells).
    pub new_faults: usize,
    /// Tiles that newly crossed the detection threshold.
    pub detections: usize,
    /// Every repair attempt run this epoch.
    pub repairs: Vec<RepairAttempt>,
    /// Tiles quarantined during this scrub.
    pub quarantined_now: usize,
    /// Total quarantined tiles after this scrub.
    pub quarantined_total: usize,
    /// Tiles still serving analog MVMs after this scrub.
    pub analog_tiles: usize,
    /// Total tiles in the grid.
    pub total_tiles: usize,
    /// Cells that blew the write-verify retry budget across this epoch's
    /// programming passes.
    pub exhausted_cells: usize,
}

impl ScrubReport {
    /// Fraction of tiles still served by the analog array, in `[0, 1]`.
    pub fn analog_coverage(&self) -> f32 {
        if self.total_tiles == 0 {
            return 1.0;
        }
        self.analog_tiles as f32 / self.total_tiles as f32
    }
}

/// Worst-case ABFT checksum residual of a tile: the maximum over input
/// columns of the absolute column-sum mismatch between the physical and
/// target blocks. Equals the largest residual
/// [`SelfHealingCrossbar::forward_verified`] can observe over unit
/// inputs. A single column checksum can in principle be blinded by two
/// arrivals of opposite sign cancelling in the same column — rare, and
/// caught at the next arrival.
pub fn checksum_residual(physical: &Tensor, targets: &Tensor) -> f32 {
    debug_assert_eq!(physical.shape(), targets.shape());
    let (rows, cols) = (physical.shape()[0], physical.shape()[1]);
    let mut worst = 0.0f32;
    for c in 0..cols {
        let mut sum = 0.0f32;
        for r in 0..rows {
            sum += physical.data()[r * cols + c] - targets.data()[r * cols + c];
        }
        worst = worst.max(sum.abs());
    }
    worst
}

/// A [`CrossbarArray`] wrapped with the full self-healing loop: lifetime
/// fault arrivals, per-tile checksum detection, staged repair, and exact
/// digital fallback for quarantined tiles.
///
/// Built from a programmed reference array (whose snapped targets become
/// both the pristine repair reference and the digital fallback source),
/// the wrapper serves MVMs bitwise identical to the reference until
/// [`SelfHealingCrossbar::scrub`] advances the wear clock.
///
/// # Example
///
/// ```
/// use xbar_core::{CrossbarArray, Mapping, RepairPolicy, SelfHealingCrossbar};
/// use xbar_device::{DeviceConfig, LifetimeFaultModel, TileShape};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// let mut rng = XorShiftRng::new(9);
/// let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut rng);
/// let device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8)));
/// let tiled = CrossbarArray::program_signed(&w, Mapping::Acm, device, &mut rng)?;
/// let lifetime = LifetimeFaultModel::new(0.001, 7).unwrap();
/// let mut healing = SelfHealingCrossbar::new(&tiled, lifetime, RepairPolicy::default());
/// let report = healing.scrub()?;
/// assert_eq!(report.epoch, 1);
/// assert_eq!(report.total_tiles, tiled.num_tiles());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SelfHealingCrossbar {
    grid: TileGrid,
    periphery: PeripheryMatrix,
    device: DeviceConfig,
    lifetime: LifetimeFaultModel,
    monitor: HealthMonitor,
    /// Pristine snapped targets: repair reference and digital fallback.
    ideal: Tensor,
    /// Current targets, including any remap compensation shifts.
    targets: Tensor,
    /// Physical conductances, stuck cells included.
    physical: Tensor,
    /// What `forward` reads: `physical`, with every quarantined tile's
    /// block replaced by its `ideal` block.
    served: Tensor,
    faults: FaultMap,
    epoch: u32,
    log: Vec<RepairAttempt>,
}

impl SelfHealingCrossbar {
    /// Wraps a programmed reference array. Its snapped targets become the
    /// pristine repair reference (and exact digital fallback); its
    /// effective conductances seed the physical state, so with no scrubs
    /// the wrapper's [`SelfHealingCrossbar::forward`] is bitwise
    /// identical to the reference's.
    pub fn new(
        reference: &CrossbarArray,
        lifetime: LifetimeFaultModel,
        policy: RepairPolicy,
    ) -> Self {
        let grid = reference.grid().clone();
        let num_tiles = grid.num_tiles();
        Self {
            periphery: reference.periphery().clone(),
            device: *reference.device(),
            lifetime,
            monitor: HealthMonitor::new(num_tiles, policy),
            ideal: reference.targets().clone(),
            targets: reference.targets().clone(),
            physical: reference.effective_conductances().clone(),
            served: reference.effective_conductances().clone(),
            faults: reference.fault_map().clone(),
            epoch: 0,
            log: Vec::new(),
            grid,
        }
    }

    /// The current scrub epoch (0 = never scrubbed).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The health monitor.
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Every repair attempt across all scrubs, in order.
    pub fn repair_log(&self) -> &[RepairAttempt] {
        &self.log
    }

    /// The accumulated stuck-cell map, in the stacked frame.
    pub fn fault_map(&self) -> &FaultMap {
        &self.faults
    }

    /// Fraction of tiles still served by the analog array.
    pub fn analog_coverage(&self) -> f32 {
        if self.grid.num_tiles() == 0 {
            return 1.0;
        }
        self.monitor.num_analog() as f32 / self.grid.num_tiles() as f32
    }

    /// The effective signed weights the served array realises (digital
    /// fallback blocks included).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the periphery and conductances disagree
    /// (impossible by construction, surfaced rather than panicking).
    pub fn effective_weights(&self) -> Result<Tensor, MappingError> {
        self.periphery.apply(&self.served)
    }

    /// The local stencil of one column group, extracted from the
    /// block-diagonal layer periphery (so any folded-in `Perm` row order
    /// is preserved).
    fn group_periphery(&self, g: &ColGroup) -> Result<PeripheryMatrix, MappingError> {
        self.periphery
            .diagonal_block(g.out_start, g.out_len, g.dev_start, g.dev_len)
    }

    /// Advances the wear clock one scrub epoch: overlays newly arrived
    /// lifetime faults onto the physical array, re-evaluates every tile's
    /// checksum residual, and runs the detection → repair → quarantine
    /// loop. A no-op (bitwise, including the report counters) when the
    /// lifetime model is inactive and every tile is healthy.
    ///
    /// # Errors
    ///
    /// Propagates remap failures ([`MappingError`]); the array is left in
    /// a consistent (pre-attempt) state for the failing tile.
    pub fn scrub(&mut self) -> Result<ScrubReport, MappingError> {
        self.epoch += 1;
        let (nd, n_in) = (self.grid.nd_total(), self.grid.n_in());
        let range = self.device.range();
        let quarantined_before = self.monitor.num_quarantined();

        // 1. Overlay this epoch's fault arrivals onto the physical state.
        let mut new_faults = 0;
        if self.lifetime.is_active() {
            for (row, col, kind) in self.lifetime.fault_map(nd, n_in, self.epoch).iter_stuck() {
                if self.faults.get(row, col).is_none() {
                    self.faults.set(row, col, kind);
                    new_faults += 1;
                }
                *self.physical.at_mut(&[row, col]) = kind.forced_value(range);
            }
        }

        // 2. Detection + staged repair, tile by tile in grid order.
        let mut report = ScrubReport {
            epoch: self.epoch,
            new_faults,
            detections: 0,
            repairs: Vec::new(),
            quarantined_now: 0,
            quarantined_total: 0,
            analog_tiles: 0,
            total_tiles: self.grid.num_tiles(),
            exhausted_cells: 0,
        };
        let mut tile_idx = 0;
        let row_blocks = self.grid.row_blocks().to_vec();
        let col_groups = self.grid.col_groups().to_vec();
        for &(r0, rl) in &row_blocks {
            for g in &col_groups {
                let phys = self.physical.block(g.dev_start, g.dev_len, r0, rl);
                let tgt = self.targets.block(g.dev_start, g.dev_len, r0, rl);
                let residual = checksum_residual(&phys, &tgt);
                match self.monitor.observe(tile_idx, residual, self.epoch) {
                    HealthAction::Detected => report.detections += 1,
                    HealthAction::Repair(stage) => {
                        let attempt = self.repair_tile(tile_idx, g, r0, rl, stage, &mut report)?;
                        report.repairs.push(attempt);
                        self.log.push(attempt);
                    }
                    HealthAction::Nothing
                    | HealthAction::Backoff
                    | HealthAction::AlreadyQuarantined => {}
                }
                tile_idx += 1;
            }
        }

        // 3. Rebuild the served view: physical everywhere, ideal blocks
        // for quarantined tiles.
        self.served = self.physical.clone();
        let mut tile_idx = 0;
        for &(r0, rl) in &row_blocks {
            for g in &col_groups {
                if self.monitor.state(tile_idx) == TileHealth::Quarantined {
                    let ideal_block = self.ideal.block(g.dev_start, g.dev_len, r0, rl);
                    self.served.write_block(g.dev_start, r0, &ideal_block);
                }
                tile_idx += 1;
            }
        }

        report.quarantined_total = self.monitor.num_quarantined();
        report.quarantined_now = report.quarantined_total - quarantined_before;
        report.analog_tiles = self.monitor.num_analog();
        Ok(report)
    }

    /// Runs one repair attempt on a tile and records the outcome with the
    /// monitor. Scrub-path programming is deliberately noiseless
    /// (`VariationModel::none()`): it writes targets exactly, consumes no
    /// RNG, and keeps the repair a pure function of array state.
    fn repair_tile(
        &mut self,
        tile: usize,
        g: &ColGroup,
        r0: usize,
        rl: usize,
        stage: RepairStage,
        report: &mut ScrubReport,
    ) -> Result<RepairAttempt, MappingError> {
        let range = self.device.range();
        let tf = self.faults.block(g.dev_start, g.dev_len, r0, rl);
        let before = self.physical.block(g.dev_start, g.dev_len, r0, rl);
        let residual_before =
            checksum_residual(&before, &self.targets.block(g.dev_start, g.dev_len, r0, rl));

        // Stage-specific target revision.
        let (tile_targets, weight_residual) = match stage {
            RepairStage::Reprogram => (self.targets.block(g.dev_start, g.dev_len, r0, rl), None),
            RepairStage::Remap => {
                let base = self.targets.block(g.dev_start, g.dev_len, r0, rl);
                let p = self.group_periphery(g)?;
                let (shifted, rr) = remap_for_faults(&base, &p, &tf, range)?;
                (shifted, Some(rr.residual_after()))
            }
            RepairStage::FullRemap => {
                let base = self.ideal.block(g.dev_start, g.dev_len, r0, rl);
                let p = self.group_periphery(g)?;
                let (shifted, rr) = remap_for_faults(&base, &p, &tf, range)?;
                (shifted, Some(rr.residual_after()))
            }
        };

        // Noiseless write-verify pass; stuck cells keep their forced
        // values, everything else lands exactly on target.
        let mut scrub_rng = XorShiftRng::new(0x5C2B);
        let (programmed, prog_report): (Tensor, ProgrammingReport) =
            self.device.programming().program_tensor(
                &tile_targets,
                &VariationModel::none(),
                range,
                Some(&tf),
                &mut scrub_rng,
            );
        report.exhausted_cells += prog_report.num_unconverged();
        self.targets.write_block(g.dev_start, r0, &tile_targets);
        self.physical.write_block(g.dev_start, r0, &programmed);

        let residual_after = checksum_residual(&programmed, &tile_targets);
        let healed = match weight_residual {
            // Remap rungs must restore *weight* accuracy, not just agree
            // with their own revised targets.
            Some(wr) => wr <= self.monitor.policy().weight_tolerance,
            None => residual_after <= self.monitor.policy().residual_threshold,
        };
        let state = self.monitor.record_attempt(tile, self.epoch, healed);
        if state == TileHealth::Quarantined {
            // Reset the tile's intent to pristine so the digital fallback
            // and any later diagnostics agree on what it should compute.
            let ideal_block = self.ideal.block(g.dev_start, g.dev_len, r0, rl);
            self.targets.write_block(g.dev_start, r0, &ideal_block);
        }
        Ok(RepairAttempt {
            epoch: self.epoch,
            tile,
            stage,
            residual_before,
            residual_after,
            healed,
        })
    }

    /// Injects a transient (soft) corruption into one physical cell —
    /// the non-stuck error class [`RepairStage::Reprogram`] exists to
    /// clear. Test/experiment hook; real arrays get this from radiation
    /// or read disturb.
    pub fn inject_soft_error(&mut self, row: usize, col: usize, value: f32) {
        *self.physical.at_mut(&[row, col]) = value;
        *self.served.at_mut(&[row, col]) = value;
    }

    /// Batched signed MVM over the self-healed array: quarantined tiles'
    /// partial products come from the exact digital fallback, everything
    /// else from the (possibly faulty) analog state.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `(batch, n_in)`, or
    /// [`MappingError::NonFiniteInput`] on NaN/Inf inputs.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        if x.ndim() != 2 || x.shape()[1] != self.grid.n_in() {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "self-healing forward",
                format!(
                    "expected (batch, {}) input, got {:?}",
                    self.grid.n_in(),
                    x.shape()
                ),
            )));
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput {
                op: "self-healing forward",
            });
        }
        self.periphery
            .combine(&raw_batch(&self.grid, &self.served, x))
    }

    /// Like [`SelfHealingCrossbar::forward`], but also returns the ABFT
    /// checksum residual each tile's MVM produced on this batch: per tile
    /// the identity `Σ_d partial[b, d] = x_block[b] · c` (with `c` the
    /// target block's column sums) must hold; the reported value is the
    /// worst absolute violation over the batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SelfHealingCrossbar::forward`].
    pub fn forward_verified(&self, x: &Tensor) -> Result<(Tensor, Vec<f32>), MappingError> {
        if x.ndim() != 2 || x.shape()[1] != self.grid.n_in() {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "self-healing forward_verified",
                format!(
                    "expected (batch, {}) input, got {:?}",
                    self.grid.n_in(),
                    x.shape()
                ),
            )));
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput {
                op: "self-healing forward_verified",
            });
        }
        let batch = x.shape()[0];
        let nd = self.grid.nd_total();
        let mut raw = Tensor::zeros(&[batch, nd]);
        let mut residuals = Vec::with_capacity(self.grid.num_tiles());
        for &(r0, rl) in self.grid.row_blocks() {
            for g in self.grid.col_groups() {
                let x_block = x.block(0, batch, r0, rl);
                let m_block = self.served.block(g.dev_start, g.dev_len, r0, rl);
                let partial = linalg::matmul_nt(&x_block, &m_block)
                    .expect("tile dimensions agree by construction");
                // Checksum of the *expected* block: c[i] = Σ_d targets[d, i].
                let t_block = self.targets.block(g.dev_start, g.dev_len, r0, rl);
                let mut checksum = vec![0.0f32; rl];
                for d in 0..g.dev_len {
                    for (i, c) in checksum.iter_mut().enumerate() {
                        *c += t_block.data()[d * rl + i];
                    }
                }
                let mut worst = 0.0f32;
                for b in 0..batch {
                    let got: f32 = partial.data()[b * g.dev_len..(b + 1) * g.dev_len]
                        .iter()
                        .sum();
                    let want: f32 = x_block.data()[b * rl..(b + 1) * rl]
                        .iter()
                        .zip(&checksum)
                        .map(|(&xi, &ci)| xi * ci)
                        .sum();
                    worst = worst.max((got - want).abs());
                }
                residuals.push(worst);
                for b in 0..batch {
                    let dst =
                        &mut raw.data_mut()[b * nd + g.dev_start..b * nd + g.dev_start + g.dev_len];
                    for (d, &p) in dst.iter_mut().zip(&partial.data()[b * g.dev_len..]) {
                        *d += p;
                    }
                }
            }
        }
        Ok((self.periphery.combine(&raw)?, residuals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use xbar_device::{LifetimeFaultModel, TileShape};
    use xbar_tensor::backend;

    fn reference(mapping: Mapping) -> CrossbarArray {
        let mut r = XorShiftRng::new(404);
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8)));
        CrossbarArray::program_signed(&w, mapping, device, &mut r).unwrap()
    }

    #[test]
    fn monitor_walks_the_state_machine() {
        let policy = RepairPolicy::default();
        let mut m = HealthMonitor::new(1, policy);
        assert_eq!(m.state(0), TileHealth::Healthy);
        // Clean observation: nothing.
        assert_eq!(m.observe(0, 0.0, 1), HealthAction::Nothing);
        // First crossing: detected, no repair yet.
        assert_eq!(m.observe(0, 1.0, 2), HealthAction::Detected);
        assert_eq!(m.state(0), TileHealth::Suspect);
        // Persisting: repair, starting at the reprogram rung.
        assert_eq!(
            m.observe(0, 1.0, 3),
            HealthAction::Repair(RepairStage::Reprogram)
        );
        assert_eq!(m.state(0), TileHealth::Repairing);
        // Failed attempt: budget burns, backoff scheduled.
        assert_eq!(m.record_attempt(0, 3, false), TileHealth::Repairing);
        assert_eq!(m.observe(0, 1.0, 3), HealthAction::Backoff);
        // After the backoff window the ladder escalates to remap.
        assert_eq!(
            m.observe(0, 1.0, 10),
            HealthAction::Repair(RepairStage::Remap)
        );
        // Successful attempt: healthy again, fresh budget.
        assert_eq!(m.record_attempt(0, 10, true), TileHealth::Healthy);
        assert_eq!(m.ewma(0), 0.0);
        // Exhaust the whole budget: quarantined, observe becomes a no-op.
        for epoch in 20..23u32 {
            m.observe(0, 1.0, epoch);
            m.record_attempt(0, epoch, false);
        }
        assert_eq!(m.state(0), TileHealth::Quarantined);
        assert_eq!(m.observe(0, 0.0, 30), HealthAction::AlreadyQuarantined);
        assert_eq!(m.num_quarantined(), 1);
        assert_eq!(m.num_analog(), 0);
    }

    #[test]
    fn suspect_clears_on_transient_residual() {
        let mut m = HealthMonitor::new(
            1,
            RepairPolicy {
                ewma_alpha: 1.0,
                ..RepairPolicy::default()
            },
        );
        assert_eq!(m.observe(0, 1.0, 1), HealthAction::Detected);
        assert_eq!(m.observe(0, 0.0, 2), HealthAction::Nothing);
        assert_eq!(m.state(0), TileHealth::Healthy);
    }

    #[test]
    fn stage_ladder_follows_attempt_budgets() {
        let p = RepairPolicy {
            reprogram_attempts: 2,
            remap_attempts: 1,
            full_remap_attempts: 1,
            ..RepairPolicy::default()
        };
        assert_eq!(p.budget(), 4);
        assert_eq!(p.stage_for(0), RepairStage::Reprogram);
        assert_eq!(p.stage_for(1), RepairStage::Reprogram);
        assert_eq!(p.stage_for(2), RepairStage::Remap);
        assert_eq!(p.stage_for(3), RepairStage::FullRemap);
    }

    #[test]
    fn monitor_flat_round_trips() {
        let policy = RepairPolicy::default();
        let mut m = HealthMonitor::new(3, policy);
        m.observe(0, 1.0, 1);
        m.observe(1, 0.5, 1);
        m.observe(2, 2.0, 1);
        m.observe(2, 2.0, 2);
        m.record_attempt(2, 2, false);
        let flat = m.to_flat();
        assert_eq!(flat.len(), 12);
        let back = HealthMonitor::from_flat(&flat, policy).unwrap();
        assert_eq!(back, m);
        // Invalid encodings are rejected.
        assert!(HealthMonitor::from_flat(&flat[..7], policy).is_err());
        let mut bad = flat.clone();
        bad[0] = 9.0;
        assert!(HealthMonitor::from_flat(&bad, policy).is_err());
    }

    #[test]
    fn inactive_lifetime_is_a_bitwise_noop() {
        let mut r = XorShiftRng::new(11);
        let x = Tensor::rand_uniform(&[5, 24], -1.0, 1.0, &mut r);
        for mapping in Mapping::ALL {
            let tiled = reference(mapping);
            let mut healing = SelfHealingCrossbar::new(
                &tiled,
                LifetimeFaultModel::none(),
                RepairPolicy::default(),
            );
            assert_eq!(
                healing.forward(&x).unwrap().data(),
                tiled.forward(&x).unwrap().data(),
                "{mapping}: wrapper must match the reference bitwise"
            );
            for _ in 0..3 {
                let report = healing.scrub().unwrap();
                assert_eq!(report.new_faults, 0);
                assert_eq!(report.detections, 0);
                assert!(report.repairs.is_empty());
                assert_eq!(report.analog_coverage(), 1.0);
            }
            assert_eq!(
                healing.forward(&x).unwrap().data(),
                tiled.forward(&x).unwrap().data(),
                "{mapping}: scrubbing a wear-free array must change nothing"
            );
        }
    }

    #[test]
    fn forward_verified_flags_exactly_the_corrupted_tile() {
        let tiled = reference(Mapping::Acm);
        let mut healing =
            SelfHealingCrossbar::new(&tiled, LifetimeFaultModel::none(), RepairPolicy::default());
        let mut r = XorShiftRng::new(13);
        let x = Tensor::rand_uniform(&[4, 24], 0.5, 1.0, &mut r);
        let (y0, res0) = healing.forward_verified(&x).unwrap();
        assert!(res0.iter().all(|&v| v < 1e-4), "clean array: {res0:?}");
        assert_eq!(y0.data(), tiled.forward(&x).unwrap().data());
        // Corrupt one cell in tile 0 (rows 0..9 ACM group 0, cols 0..8).
        healing.inject_soft_error(2, 3, 1.0);
        let (_, res1) = healing.forward_verified(&x).unwrap();
        assert!(res1[0] > 0.1, "corrupted tile must trip: {res1:?}");
        assert!(
            res1[1..].iter().all(|&v| v < 1e-4),
            "other tiles stay clean: {res1:?}"
        );
    }

    #[test]
    fn soft_error_is_detected_and_reprogrammed_away() {
        let tiled = reference(Mapping::Acm);
        let mut healing =
            SelfHealingCrossbar::new(&tiled, LifetimeFaultModel::none(), RepairPolicy::default());
        healing.inject_soft_error(2, 3, 1.0);
        // Scrub 1: detection; scrub 2: reprogram heals it.
        let r1 = healing.scrub().unwrap();
        assert_eq!(r1.detections, 1);
        assert!(r1.repairs.is_empty());
        let r2 = healing.scrub().unwrap();
        assert_eq!(r2.repairs.len(), 1);
        assert_eq!(r2.repairs[0].stage, RepairStage::Reprogram);
        assert!(r2.repairs[0].healed);
        assert!(r2.repairs[0].residual_before > 0.1);
        assert!(r2.repairs[0].residual_after < 1e-6);
        assert_eq!(healing.monitor().num_quarantined(), 0);
        // The array is back to the reference bitwise.
        let mut r = XorShiftRng::new(17);
        let x = Tensor::rand_uniform(&[3, 24], -1.0, 1.0, &mut r);
        assert_eq!(
            healing.forward(&x).unwrap().data(),
            tiled.forward(&x).unwrap().data()
        );
    }

    #[test]
    fn lifetime_fault_escalates_to_remap_and_recovers_weights() {
        for mapping in [Mapping::Acm, Mapping::Perm] {
            let tiled = reference(mapping);
            let w_ideal = tiled.effective_weights();
            // Low rate: a few stuck cells over the first epochs.
            let lifetime = LifetimeFaultModel::new(0.002, 23).unwrap();
            let policy = RepairPolicy::default();
            let mut healing = SelfHealingCrossbar::new(&tiled, lifetime, policy);
            // Scrub until the array quiesces: three consecutive epochs
            // with no arrivals, no repair activity, and no tile pending.
            let (mut detections, mut remaps, mut quiet, mut epochs) = (0, 0, 0, 0);
            while quiet < 3 && epochs < 80 {
                let rep = healing.scrub().unwrap();
                detections += rep.detections;
                remaps += rep
                    .repairs
                    .iter()
                    .filter(|a| a.stage != RepairStage::Reprogram && a.healed)
                    .count();
                let pending = (0..healing.monitor().num_tiles()).any(|t| {
                    matches!(
                        healing.monitor().state(t),
                        TileHealth::Suspect | TileHealth::Repairing
                    )
                });
                if rep.new_faults > 0 || rep.detections > 0 || !rep.repairs.is_empty() || pending {
                    quiet = 0;
                } else {
                    quiet += 1;
                }
                epochs += 1;
            }
            assert_eq!(quiet, 3, "{mapping}: wear never quiesced");
            assert!(healing.fault_map().num_stuck() > 0, "{mapping}: no wear");
            assert!(detections > 0, "{mapping}: wear was never detected");
            assert!(remaps > 0, "{mapping}: no successful remap repair");
            // Quiescent means every tile is Healthy (fault-free, or
            // remap-healed to within the policy's weight tolerance) or
            // Quarantined (served exactly by the digital fallback), so the
            // end-to-end weight error is bounded by the tolerance.
            let w_healed = healing.effective_weights().unwrap();
            assert!(
                w_healed.all_close(&w_ideal, 1.5 * policy.weight_tolerance),
                "{mapping}: weight error {} after healing",
                w_healed.sub(&w_ideal).unwrap().abs_max()
            );
        }
    }

    #[test]
    fn total_wearout_quarantines_everything_and_falls_back_exactly() {
        let tiled = reference(Mapping::Acm);
        let lifetime = LifetimeFaultModel::new(1.0, 3).unwrap();
        let mut healing = SelfHealingCrossbar::new(&tiled, lifetime, RepairPolicy::default());
        // Every cell fails at epoch 1; no remap can absorb a fully stuck
        // tile, so the ladder runs dry and every tile quarantines.
        let mut saw_quarantine_event = false;
        for _ in 0..12 {
            let rep = healing.scrub().unwrap();
            saw_quarantine_event |= rep.quarantined_now > 0;
            if rep.analog_tiles == 0 {
                break;
            }
        }
        assert!(saw_quarantine_event);
        assert_eq!(healing.monitor().num_quarantined(), tiled.num_tiles());
        assert_eq!(healing.analog_coverage(), 0.0);
        // Digital fallback serves the ideal fault-free output *exactly*.
        let mut r = XorShiftRng::new(29);
        let x = Tensor::rand_uniform(&[6, 24], -1.0, 1.0, &mut r);
        assert_eq!(
            healing.forward(&x).unwrap().data(),
            tiled.forward(&x).unwrap().data(),
            "quarantined grid must be bitwise the ideal reference"
        );
    }

    #[test]
    fn scrub_and_forward_are_bitwise_serial_vs_pooled() {
        let tiled = reference(Mapping::Acm);
        let lifetime = LifetimeFaultModel::new(0.003, 51).unwrap();
        let run = |serial: bool| {
            backend::force_serial(serial);
            let mut healing = SelfHealingCrossbar::new(&tiled, lifetime, RepairPolicy::default());
            let mut reports = Vec::new();
            for _ in 0..8 {
                reports.push(healing.scrub().unwrap());
            }
            let mut r = XorShiftRng::new(31);
            let x = Tensor::rand_uniform(&[7, 24], -1.0, 1.0, &mut r);
            let y = healing.forward(&x).unwrap();
            backend::force_serial(false);
            (reports, y, healing.monitor().clone())
        };
        let (rep_s, y_s, mon_s) = run(true);
        let (rep_p, y_p, mon_p) = run(false);
        assert_eq!(rep_s, rep_p, "scrub reports diverged across pooling");
        assert_eq!(y_s.data(), y_p.data(), "forward diverged across pooling");
        assert_eq!(mon_s, mon_p, "health state diverged across pooling");
    }
}
