//! Self-healing primitives: online fault detection, a staged repair
//! ladder and the exact digital fallback. `xbar_nn::MappedParam::scrub_tick`
//! runs them on a parameter's own state; it is the one repair loop.
//!
//! The resilience machinery elsewhere in this crate (write-verify
//! programming, null-space remap, `Mapping::Perm`) runs at *program time*
//! — a fault that arrives after mapping silently corrupts every
//! subsequent MVM. One scrub tick per scrub epoch closes the loop at run
//! time, tile by tile in grid order:
//!
//! 1. **Detection** — an ABFT-style checksum per physical tile. The
//!    expected column sums of a tile's target block form a checksum
//!    vector `c` with `Σ_d (x·Mᵀ)[d] = x·c` for every input `x`. The tick
//!    evaluates the residual's worst case over unit inputs analytically
//!    ([`checksum_residual`]), which keeps detection a pure function of
//!    array state.
//! 2. **Health tracking** — a [`HealthMonitor`] holds a per-tile residual
//!    EWMA and drives the state machine `Healthy → Suspect → Repairing →
//!    Quarantined` ([`TileHealth`]). One suspect observation never
//!    triggers a repair; the residual must persist.
//! 3. **Staged repair** — a [`RepairPolicy`]'s bounded retry/backoff
//!    budget walks the escalation ladder [`RepairStage::Reprogram`]
//!    (write-verify pass; clears transient upsets) →
//!    [`RepairStage::Remap`] (tile-local null-space compensation of the
//!    stuck cells) → [`RepairStage::FullRemap`] (discard accumulated
//!    shifts, remap from the pristine targets). Every attempt is recorded
//!    in a [`RepairAttempt`], and each tick in a [`ScrubReport`].
//! 4. **Digital fallback** — a tile that exhausts its budget is
//!    quarantined: its partial product is served from the ideal
//!    (fault-free, snapped) conductances, exactly — accuracy is preserved
//!    and the [`ScrubReport::analog_coverage`] metric drops instead.
//!
//! Determinism contract: scrub-path programming always uses
//! `VariationModel::none()`, which writes targets exactly and consumes no
//! RNG, so the array state after any number of ticks is a pure function
//! of the persisted scrub state — serial and pooled execution stay
//! bitwise identical, and a checkpoint can rebuild the state exactly.
//! With an inactive [`xbar_device::LifetimeFaultModel`] the tick is a
//! bitwise no-op.

use xbar_tensor::Tensor;

use crate::MappingError;

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
/// column groups inner (matching [`crate::TileGrid::row_blocks`] ×
/// [`crate::TileGrid::col_groups`]).
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

/// Outcome of one scrub tick (`xbar_nn::MappedParam::scrub_tick`).
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
/// target blocks: the largest violation of the per-MVM checksum
/// identity `Σ_d (x·Mᵀ)[d] = x·c` over unit inputs `x`. A single column
/// checksum can in principle be blinded by two
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
