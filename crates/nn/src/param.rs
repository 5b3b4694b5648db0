//! The crossbar-mapped weight parameter — the training-side embodiment of
//! the paper's `W = S · M` factorization.

use xbar_core::{
    checksum_residual, magnitude_permutation, remap_for_faults, HealthAction, HealthMonitor,
    Mapping, PeripheryMatrix, QuantReadout, ReadoutImage, RepairAttempt, RepairPolicy, RepairStage,
    ScrubReport, TileGrid, TileHealth,
};
use xbar_device::{ConductanceRange, DeviceConfig};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

use crate::NnError;

/// Persistent state of the online self-healing loop of one mapped
/// parameter — present exactly when the parameter is crossbar-mapped AND
/// its device carries an active [`xbar_device::LifetimeFaultModel`]
/// (decided once at construction, so the checkpoint component count never
/// depends on runtime events).
///
/// Everything is kept as tensors so it rides the ordinary
/// [`crate::StateVisitor`] checkpoint path; the served conductance
/// override is *not* persisted — it is a pure function of
/// `(shadow, shift, health, epoch)` and is rebuilt after a restore and
/// after every weight update.
#[derive(Debug, Clone)]
struct ScrubState {
    /// Scrub epoch counter, shape `[1]` (0 = never scrubbed).
    epoch: Tensor,
    /// Flattened [`HealthMonitor`], 4 floats per tile.
    health: Tensor,
    /// Persistent remap compensation: programming targets are
    /// `clamp(q(M) + shift)` elementwise, so a compensation decided at
    /// repair time keeps tracking the trained conductances.
    shift: Tensor,
}

/// How a layer's weights are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// Conventional signed floating-point weights — the paper's *baseline*
    /// model (Fig. 5a/5e), unconstrained by any crossbar.
    Signed,
    /// Weights stored as a non-negative conductance matrix on a crossbar
    /// under the given [`Mapping`].
    Mapped(Mapping),
}

/// A weight parameter stored in crossbar form.
///
/// Logically this is a signed `(n_out, n_in)` weight matrix `W`, but what
/// is *stored and trained* is the mapping's non-negative conductance
/// matrix `M` of shape `(N_D, n_in)` plus a fixed per-layer scale `α`, so
/// that `W = α · S · q(M)` where `q` is the device quantizer (identity for
/// full-precision devices). This mirrors the paper's training setup: "`M`
/// is constrained to be non-negative and is followed by a periphery matrix
/// defined as a fixed layer with values in `{−1, +1, 0}`" (Sec. IV).
///
/// When the device carries a physical tile bound
/// ([`DeviceConfig::tile_shape`]), the parameter is laid out on a
/// [`TileGrid`]: outputs split into column groups that each fit one tile
/// width, each group carries its own local periphery (and, for BC/ACM,
/// its own reference column — the per-group `N_D = outputs + 1`
/// accounting), and `S` is block-diagonal over the groups. The stored `M`
/// stacks the per-group conductance rows; with no tile bound the grid is
/// the degenerate 1×1 monolithic case and everything reduces to the
/// classic single-array layout.
///
/// Three training-time behaviours are owned here:
///
/// * **Quantization-aware forward** — `q(M)` in the forward pass, straight-
///   through gradients in the backward pass (the paper's ref \[17\] style);
/// * **Clipped SGD** — after every update `M` is clamped back into the
///   device conductance range (non-negativity constraint);
/// * **Nonlinear in-situ updates** — when the device has a nonlinear
///   [`xbar_device::UpdateModel`], each element's SGD delta is converted to a pulse
///   distance and applied through the device transfer curve, saturating
///   near the range ends exactly as hardware would.
///
/// For inference-under-variation studies (paper Fig. 6) the parameter can
/// temporarily [`MappedParam::apply_variation`] — sampling noisy
/// conductances around the quantized states — and later
/// [`MappedParam::clear_variation`].
#[derive(Debug, Clone)]
pub struct MappedParam {
    kind: WeightKind,
    /// Tile layout of the conductance matrix (mapped weights only);
    /// monolithic 1×1 when the device has no tile bound.
    grid: Option<TileGrid>,
    /// Block-diagonal over the grid's per-group stencils (with each
    /// group's physical row permutation folded in for [`Mapping::Perm`]).
    periphery: Option<PeripheryMatrix>,
    /// Physical row order for [`Mapping::Perm`]: entry at physical row
    /// `p` is the *global logical* device row stored there (indices kept
    /// as `f32` so the permutation rides the tensor checkpoint path).
    /// `None` for every other kind. Fixed at construction; a checkpoint
    /// restore overwrites it and rebuilds the periphery to match.
    perm: Option<Tensor>,
    device: DeviceConfig,
    /// Master copy: `M (N_D × n_in)` for mapped weights (conductance
    /// units), or signed `W (n_out × n_in)` for the baseline.
    shadow: Tensor,
    /// Gradient with respect to `shadow`.
    grad: Tensor,
    /// When set, forward passes read these conductances instead of
    /// `q(shadow)` — used for Monte-Carlo variation sampling.
    variation_override: Option<Tensor>,
    /// The stuck-cell map of the last [`MappedParam::apply_faults`] call,
    /// kept so a later [`MappedParam::apply_parasitics`] can freeze stuck
    /// cells out of the drift decay (a stuck device holds its defect
    /// value; it has no programmed state left to lose).
    fault_map: Option<xbar_device::FaultMap>,
    n_out: usize,
    n_in: usize,
    /// Conductance-to-logical-weight scale.
    alpha: f32,
    /// Private stream for stochastic pulse rounding (nonlinear in-situ
    /// updates), seeded deterministically from the initial weights.
    update_rng: XorShiftRng,
    /// Online self-healing state; `Some` iff mapped with an active
    /// lifetime fault model.
    scrub: Option<ScrubState>,
    /// The readout image of the conductances currently served: built by
    /// the first [`MappedParam::forward_quantized`] after a weight
    /// change, dropped by every method that changes them, and never
    /// checkpointed.
    int8: Option<ReadoutImage>,
}

impl MappedParam {
    /// Builds a parameter from an initial signed weight matrix
    /// `w_init (n_out × n_in)`.
    ///
    /// For mapped kinds, `α` is chosen so the BC mapping can represent
    /// roughly ±4 standard deviations of the initializer — giving every
    /// mapping the same logical quantization step while preserving the
    /// paper's dynamic-range relationships (DE and ACM reach ±8σ at the
    /// same step size). The initial `M` is then constructed per mapping:
    ///
    /// * DE — positive/negative split of `w/α`;
    /// * BC — midpoint shift of `w/α`;
    /// * ACM — mean-centred suffix sums of `w/α` around the midpoint,
    ///   clamped to the range (columns whose cumulative spread exceeds the
    ///   device span are saturated; training recovers them).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] if `w_init` is not a non-empty 2-D
    /// matrix.
    pub fn from_signed(
        w_init: &Tensor,
        kind: WeightKind,
        device: DeviceConfig,
    ) -> Result<Self, NnError> {
        if w_init.ndim() != 2 || w_init.is_empty() {
            return Err(NnError::Config(format!(
                "weight init must be non-empty 2-D, got {:?}",
                w_init.shape()
            )));
        }
        let (n_out, n_in) = (w_init.shape()[0], w_init.shape()[1]);
        // Deterministic per-parameter stream: derived from the init
        // contents so two layers with different inits decorrelate.
        let seed = (w_init.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(w_init.data()[0].to_bits());
        let update_rng = XorShiftRng::new(seed | 1);
        match kind {
            WeightKind::Signed => {
                let shadow = w_init.clone();
                let grad = Tensor::zeros(shadow.shape());
                Ok(Self {
                    kind,
                    grid: None,
                    periphery: None,
                    perm: None,
                    device,
                    shadow,
                    grad,
                    variation_override: None,
                    fault_map: None,
                    n_out,
                    n_in,
                    alpha: 1.0,
                    update_rng,
                    scrub: None,
                    int8: None,
                })
            }
            WeightKind::Mapped(mapping) => {
                let range = device.range();
                let span = range.span();
                // rms of the initializer ~ He σ.
                let rms = (w_init.norm_sq() / w_init.len() as f32).sqrt().max(1e-8);
                // Every mapping represents the same logical weight range
                // [−w_lim, +w_lim]. DE and ACM spread that range over the
                // full conductance span; BC only has half the span
                // available (paper Sec. II), so its α is doubled and its
                // effective quantization step is 2× coarser — "DE
                // represents twice as many weight values as BC", with ACM
                // recovering DE's step at BC's hardware cost, limited only
                // by the column-balance coupling (paper Sec. III-D).
                //
                // The clip is bit-aware (ACIQ-style optimal clipping for a
                // Gaussian): with only 2^B levels, a tighter clip trades
                // rarely-used tails for a finer step. Without this, 1–2-bit
                // training produces ±3σ binary weights and diverges.
                let w_lim = clip_sigmas(device.bits()) * rms;
                let alpha = match mapping {
                    // Perm is BC with reordered rows: same half-span range.
                    Mapping::BiasColumn | Mapping::Perm => 2.0 * w_lim / span,
                    Mapping::DoubleElement | Mapping::Acm => w_lim / span,
                };
                let wc = w_init.scale(1.0 / alpha); // conductance units
                                                    // Lay the conductances out on the device's tile grid: each
                                                    // column group is an independent physical sub-array with
                                                    // its own stencil (and reference column), initialised from
                                                    // its own row-slice of the scaled weights.
                let grid = TileGrid::new(n_out, n_in, mapping, device.tile_shape())
                    .map_err(NnError::Mapping)?;
                let mut shadow = Tensor::zeros(&[grid.nd_total(), n_in]);
                for g in grid.col_groups() {
                    let wc_group = wc.block(g.out_start, g.out_len, 0, n_in);
                    let m_group = init_conductances(&wc_group, mapping, &device);
                    shadow.write_block(g.dev_start, 0, &m_group);
                }
                // Perm: fix each group's physical row order from the
                // initial conductances (large mid-deviation rows first,
                // nearest the drivers), store the shadow in that physical
                // order, and fold the inverse into the periphery. The
                // order is decided once here and never re-sorted during
                // training — re-sorting would physically move device rows.
                let perm = if mapping == Mapping::Perm {
                    let mid = range.midpoint();
                    let mut perm = vec![0.0f32; grid.nd_total()];
                    for g in grid.col_groups() {
                        let group = shadow.block(g.dev_start, g.dev_len, 0, n_in);
                        let local = magnitude_permutation(&group, mid);
                        shadow.write_block(g.dev_start, 0, &group.permute_rows(&local));
                        for (p, &logical) in local.iter().enumerate() {
                            perm[g.dev_start + p] = (g.dev_start + logical) as f32;
                        }
                    }
                    Some(Tensor::from_vec(perm, &[grid.nd_total()]).expect("len matches"))
                } else {
                    None
                };
                let periphery = match &perm {
                    Some(perm) => periphery_for_perm(&grid, perm),
                    None => grid.periphery(),
                };
                let grad = Tensor::zeros(shadow.shape());
                // The scrub state exists iff the device wears out, decided
                // here once: the checkpoint component list must not change
                // under runtime events, only under construction config.
                let scrub = device.lifetime().is_active().then(|| ScrubState {
                    epoch: Tensor::zeros(&[1]),
                    health: Tensor::zeros(&[grid.num_tiles() * 4]),
                    shift: Tensor::zeros(&[grid.nd_total(), n_in]),
                });
                Ok(Self {
                    kind,
                    grid: Some(grid),
                    periphery: Some(periphery),
                    perm,
                    device,
                    shadow,
                    grad,
                    variation_override: None,
                    fault_map: None,
                    n_out,
                    n_in,
                    alpha,
                    update_rng,
                    scrub,
                    int8: None,
                })
            }
        }
    }

    /// The weight-realisation kind.
    pub fn kind(&self) -> WeightKind {
        self.kind
    }

    /// The mapping, if the parameter is crossbar-mapped.
    pub fn mapping(&self) -> Option<Mapping> {
        match self.kind {
            WeightKind::Signed => None,
            WeightKind::Mapped(m) => Some(m),
        }
    }

    /// The device model.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Logical output dimension.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Logical input dimension.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Conductance-to-weight scale `α`.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The tile layout of the conductance matrix, if the parameter is
    /// crossbar-mapped (monolithic 1×1 when the device has no tile
    /// bound).
    pub fn tile_grid(&self) -> Option<&TileGrid> {
        self.grid.as_ref()
    }

    /// Device rows holding a fixed reference column: the last *logical*
    /// device row of each column group (BC/ACM layouts; callers only use
    /// this for BC and Perm, whose references are frozen at mid-range).
    /// For Perm the reference sits wherever the group's permutation put
    /// the logical last row — physically the row farthest from the
    /// driver, since its all-mid contents have zero mid-deviation.
    fn reference_rows(&self) -> Vec<usize> {
        match &self.grid {
            Some(grid) if !matches!(grid.mapping(), Mapping::DoubleElement) => grid
                .col_groups()
                .iter()
                .map(|g| {
                    let logical_ref = g.dev_start + g.dev_len - 1;
                    match &self.perm {
                        Some(perm) => {
                            let data = &perm.data()[g.dev_start..g.dev_start + g.dev_len];
                            let local = data
                                .iter()
                                .position(|&v| v as usize == logical_ref)
                                .expect("every logical row appears in the permutation");
                            g.dev_start + local
                        }
                        None => logical_ref,
                    }
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The stored physical→logical row permutation ([`Mapping::Perm`]
    /// only).
    pub fn permutation(&self) -> Option<&Tensor> {
        self.perm.as_ref()
    }

    /// Number of stored scalar parameters (crossbar elements for mapped
    /// weights — `N_D · n_in` — or `n_out · n_in` for the baseline).
    pub fn num_params(&self) -> usize {
        self.shadow.len()
    }

    /// The trained master tensor: `M` (mapped) or `W` (baseline).
    pub fn shadow(&self) -> &Tensor {
        &self.shadow
    }

    /// The device-visible conductances: `q(M)` snapped to quantizer states
    /// (mapped weights only).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::State`] for baseline (signed) parameters.
    pub fn conductances(&self) -> Result<Tensor, NnError> {
        match self.kind {
            WeightKind::Signed => Err(NnError::State(
                "baseline signed weights have no conductances".into(),
            )),
            WeightKind::Mapped(_) => Ok(self.quantized_shadow()),
        }
    }

    fn quantized_shadow(&self) -> Tensor {
        match self.device.quantizer_opt() {
            Some(q) => {
                // Uniform forward quantization (DoReFa-style, the paper's
                // ref [17]): write-verify programming reaches any of the
                // 2^B uniform target levels regardless of the pulse curve.
                // A pooled copy quantized in place skips the fresh
                // allocation a `map` would page in on every call.
                let mut out = self.shadow.clone();
                q.quantize_slice(out.data_mut());
                // Each BC reference column is a fixed, one-time-calibrated
                // analog reference at exactly mid-range (paper Fig. 1b) —
                // it is not re-programmed during training and is not
                // constrained to the weight-update state ladder. On a tile
                // grid every column group carries its own reference (the
                // last device row of the group).
                if matches!(
                    self.kind,
                    WeightKind::Mapped(Mapping::BiasColumn) | WeightKind::Mapped(Mapping::Perm)
                ) {
                    let n_in = out.shape()[1];
                    let mid = self.device.range().midpoint();
                    for row in self.reference_rows() {
                        for v in &mut out.data_mut()[row * n_in..(row + 1) * n_in] {
                            *v = mid;
                        }
                    }
                }
                out
            }
            None => self.shadow.clone(),
        }
    }

    /// The effective weights as a borrow, when no transformation
    /// separates them from stored state: the baseline (`Signed`)
    /// parameter's shadow, or its variation override while one is
    /// active. Mapped parameters — whose effective matrix `α·S·q(M)`
    /// must be computed — return `None`; materialize those with
    /// [`Self::effective_weights`]. Hot paths (the dense forward/backward
    /// pair) prefer this accessor to avoid copying the full weight
    /// matrix every step.
    pub fn effective_weights_ref(&self) -> Option<&Tensor> {
        match (&self.kind, &self.variation_override) {
            (WeightKind::Signed, Some(noisy)) => Some(noisy),
            (WeightKind::Signed, None) => Some(&self.shadow),
            _ => None,
        }
    }

    /// The effective signed logical weight matrix `W (n_out × n_in)` seen
    /// by the forward pass: `α·S·q(M)` for mapped weights (or the varied
    /// conductances while a variation override is active), `W` itself for
    /// the baseline.
    pub fn effective_weights(&self) -> Tensor {
        match (&self.kind, &self.periphery) {
            (WeightKind::Signed, _) => match &self.variation_override {
                Some(noisy) => noisy.clone(),
                None => self.shadow.clone(),
            },
            (WeightKind::Mapped(_), Some(s)) => {
                let served;
                let g = match &self.variation_override {
                    Some(noisy) => noisy,
                    None => {
                        served = self.quantized_shadow();
                        &served
                    }
                };
                let mut w = s
                    .apply(g)
                    .expect("periphery/conductance dims fixed at construction");
                w.map_inplace(|v| v * self.alpha);
                w
            }
            _ => unreachable!("mapped parameters always carry a periphery"),
        }
    }

    /// Int8 inference forward `X (batch × n_in) → Y (batch × n_out)`:
    /// the crossbar's ADC-exact integer readout
    /// ([`ReadoutImage::raw_batch`]). Activations quantize to
    /// `mode.act_bits`, conductances (the quantized shadow, or the
    /// variation override while one is active) are read on the device
    /// state grid, each tile's column sums digitize through `mode.adc`,
    /// and the digital periphery combine + `α` scaling mirror the fp32
    /// composition exactly. Off-grid conductances (BC/Perm reference
    /// rows, variation, drift) snap to the nearest state — the read
    /// discretization a digital readout cannot avoid.
    ///
    /// The [`ReadoutImage`] is built on the first call after a weight
    /// change and reused until the next one, so repeated reads of one
    /// programmed array only pay for the activations. The readout
    /// accumulates exactly in i32, so the output is bitwise identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::State`] for baseline signed weights, which have
    /// no crossbar to read out; a shape error on input mismatch; and
    /// [`NnError::Mapping`] if the device has no quantizer or more than 8
    /// bits (centered state codes must fit i8), `mode.act_bits` is outside
    /// `1..=7`, or `x` holds NaN or ±Inf.
    pub fn forward_quantized(
        &mut self,
        x: &Tensor,
        mode: &QuantReadout,
    ) -> Result<Tensor, NnError> {
        let (Some(grid), Some(s)) = (&self.grid, &self.periphery) else {
            return Err(NnError::State(
                "baseline signed weights have no crossbar to read out".into(),
            ));
        };
        if x.ndim() != 2 || x.shape()[1] != self.n_in {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "forward_quantized",
                format!("expected (batch, {}), got {:?}", self.n_in, x.shape()),
            )));
        }
        if self.int8.is_none() {
            let served;
            let g = match &self.variation_override {
                Some(noisy) => noisy,
                None => {
                    served = self.quantized_shadow();
                    &served
                }
            };
            self.int8 = Some(ReadoutImage::new(g, grid, &self.device)?);
        }
        let image = self.int8.as_ref().expect("filled above");
        Ok(s.combine(&image.raw_batch(mode, x)?)?.scale(self.alpha))
    }

    /// Accumulates the gradient of the loss with respect to the *logical*
    /// weights into the stored shadow gradient, routing through the
    /// periphery transpose for mapped weights
    /// (`∂L/∂M = α · Sᵀ · ∂L/∂W`; straight-through past the quantizer).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad_w` is not `(n_out, n_in)`.
    pub fn accumulate_grad(&mut self, grad_w: &Tensor) -> Result<(), NnError> {
        if grad_w.shape() != [self.n_out, self.n_in] {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "accumulate_grad",
                format!(
                    "expected ({}, {}), got {:?}",
                    self.n_out,
                    self.n_in,
                    grad_w.shape()
                ),
            )));
        }
        match (&self.kind, &self.periphery) {
            (WeightKind::Signed, _) => {
                self.grad.add_scaled(grad_w, 1.0)?;
            }
            (WeightKind::Mapped(mapping), Some(s)) => {
                // Route through the *preconditioned* transpose,
                // Sᵀ·(S·Sᵀ)⁻¹, so that an SGD step on M moves the logical
                // weights by exactly −lr·∂L/∂W for every mapping. Plain
                // Sᵀ routing would give ΔW = −lr·(S·Sᵀ)·∂L/∂W: identity-
                // like for DE/BC but a channel *Laplacian* for ACM, whose
                // near-null smooth modes train ~100× slower — an artefact
                // of short schedules the paper's long training absorbs.
                // Preconditioning isolates the representation effects
                // (range, quantization, update nonlinearity) that the
                // paper actually compares.
                // The Gram S·Sᵀ is block-diagonal over the grid's column
                // groups, so preconditioning happens group-locally.
                let grid = self.grid.as_ref().expect("mapped parameters carry a grid");
                let pre = match mapping {
                    // DE: S·Sᵀ = 2·I (per group, hence globally).
                    Mapping::DoubleElement => grad_w.scale(0.5),
                    // BC with frozen references: identity. Perm's Gram is
                    // S·Pᵀ·P·Sᵀ = S·Sᵀ — row permutation cancels.
                    Mapping::BiasColumn | Mapping::Perm => grad_w.clone(),
                    // ACM: each group's Gram is the tridiagonal path
                    // Laplacian tridiag(−1, 2, −1) of size out_len; solve
                    // per group per input column.
                    Mapping::Acm => {
                        let mut pre = Tensor::zeros(&[self.n_out, self.n_in]);
                        for g in grid.col_groups() {
                            let g_slice = grad_w.block(g.out_start, g.out_len, 0, self.n_in);
                            pre.write_block(g.out_start, 0, &solve_acm_gram(&g_slice));
                        }
                        pre
                    }
                };
                let mut routed = s.apply_transposed(&pre)?;
                routed.map_inplace(|v| v * self.alpha);
                // Every BC reference column is *fixed* at mid-range (paper
                // Sec. II: "the conductance of each element in this column
                // is fixed to the middle of the conductance range") — it
                // receives no training updates. Without this freeze the
                // reference accumulates the negated sum of its group's
                // output gradients and saturates, collapsing the sign
                // range.
                if matches!(mapping, Mapping::BiasColumn | Mapping::Perm) {
                    let n_in = self.n_in;
                    for row in self.reference_rows() {
                        for v in &mut routed.data_mut()[row * n_in..(row + 1) * n_in] {
                            *v = 0.0;
                        }
                    }
                }
                self.grad.add_scaled(&routed, 1.0)?;
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Applies one vanilla-SGD step `shadow ← shadow − lr·grad`, clipped to
    /// the device range (mapped weights), and — when the device has a
    /// nonlinear [`xbar_device::UpdateModel`] — routed element-wise through the pulse
    /// transfer curve. A parameter that has scrubbed then serves the
    /// refresh-programmed array of its new weights, the same array a
    /// checkpoint restore rebuilds.
    pub fn apply_update(&mut self, lr: f32) {
        self.int8 = None;
        match self.kind {
            WeightKind::Signed => {
                let g = self.grad.clone();
                self.shadow
                    .add_scaled(&g, -lr)
                    .expect("shadow/grad shapes fixed at construction");
            }
            WeightKind::Mapped(_) => {
                // The stored gradient is d L / d M = α·Sᵀ·(dL/dW); stepping
                // M by −lr·grad would move the *logical* weights by
                // α²·lr·S·Sᵀ·(dL/dW). Rescale by 1/α² so the same learning
                // rate produces logical-weight updates of baseline
                // magnitude — this is what lets the paper compare all four
                // model types under identical hyper-parameters.
                let step = lr / (self.alpha * self.alpha);
                let range = self.device.range();
                let update = self.device.update();
                if update.is_linear() {
                    let g = self.grad.clone();
                    self.shadow
                        .add_scaled(&g, -step)
                        .expect("shadow/grad shapes fixed at construction");
                    self.shadow.clamp_inplace(range.g_min(), range.g_max());
                } else {
                    // In-situ blind pulsing: the update controller only
                    // knows the device's *average* step, so it requests
                    // n = Δg/mean_step pulses (stochastically rounded to an
                    // integer — unbiased); the device then executes them
                    // along its nonlinear transfer curve, overshooting
                    // where steps are large and sticking near saturation
                    // where they vanish. This granular, state-dependent
                    // mismatch is the accuracy-degradation mechanism behind
                    // the paper's Fig. 5f–h.
                    let total = self.device.total_pulses();
                    let mean_step = update.mean_step(total, range);
                    let grad = self.grad.data();
                    for (g, &dg) in self.shadow.data_mut().iter_mut().zip(grad) {
                        let desired = -step * dg;
                        if desired != 0.0 {
                            let raw = desired / mean_step;
                            let floor = raw.floor();
                            let frac = raw - floor;
                            let pulses =
                                floor as i64 + i64::from(self.update_rng.next_f32() < frac);
                            if pulses != 0 {
                                *g = update.apply_fractional(*g, pulses as f32, total, range);
                            }
                        }
                    }
                }
            }
        }
        self.rebuild_scrub_override();
    }

    /// Samples device variation around the quantized conductances and
    /// makes subsequent forward passes use the noisy copy — one
    /// Monte-Carlo sample of the paper's Fig. 6 methodology. For baseline
    /// weights, noise of `σ·span` (in conductance units, scaled by `α`) is
    /// added directly to the signed weights.
    ///
    /// Call [`MappedParam::clear_variation`] to return to ideal inference.
    pub fn apply_variation(&mut self, sigma_frac: f32, rng: &mut XorShiftRng) {
        let range = self.device.range();
        let var = xbar_device::VariationModel::new(sigma_frac);
        match self.kind {
            WeightKind::Signed => {
                // Equivalent per-element noise in logical units.
                let sigma = sigma_frac * range.span() * self.alpha;
                let noise = Tensor::from_fn(self.shadow.shape(), |_| rng.normal_with(0.0, sigma));
                self.serve(Some(
                    self.shadow.add(&noise).expect("same-shape add cannot fail"),
                ));
            }
            WeightKind::Mapped(_) => {
                let targets = self.quantized_shadow();
                self.serve(Some(var.sample_tensor(&targets, range, rng)));
            }
        }
        // A fresh variation draw starts from the pristine array.
        self.fault_map = None;
    }

    /// Deals this parameter's crossbar a stuck-at defect pattern drawn
    /// from `faults`, programs the quantized conductances onto the
    /// defective array (through the device's [`xbar_device::ProgrammingModel`]
    /// with `sigma_frac` variation per write), and makes subsequent forward
    /// passes use the faulty conductances — the fault-injection analogue of
    /// [`MappedParam::apply_variation`].
    ///
    /// With `remap` set, the healthy cells of each faulty column are first
    /// moved to compensate for the frozen ones, exploiting the mapping's
    /// null-space slack ([`xbar_core::remap_for_faults`]); the returned
    /// [`xbar_core::RemapReport`] carries the unabsorbed residual. The
    /// [`xbar_device::ProgrammingReport`] lists stuck and unconverged
    /// cells rather than failing on them.
    ///
    /// Call [`MappedParam::clear_variation`] to return to ideal inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::State`] for baseline (signed) parameters, which
    /// have no crossbar cells to fail.
    pub fn apply_faults(
        &mut self,
        faults: xbar_device::FaultModel,
        sigma_frac: f32,
        remap: bool,
        rng: &mut XorShiftRng,
    ) -> Result<
        (
            xbar_device::ProgrammingReport,
            Option<xbar_core::RemapReport>,
        ),
        NnError,
    > {
        let Some(grid) = &self.grid else {
            return Err(NnError::State(
                "baseline signed weights have no crossbar cells to fail".into(),
            ));
        };
        let range = self.device.range();
        let var = xbar_device::VariationModel::new(sigma_frac);
        let mut targets = self.quantized_shadow();
        let n_in = targets.shape()[1];
        let map = faults.sample_map(targets.shape()[0], n_in, rng);
        let remap_report = if remap {
            // Remap each column group against its own local stencil, as
            // separate physical tiles would: compensation for a fault in
            // one group never moves another group's cells. The compensated
            // targets are programmed as-is: write-verify programming is an
            // analog trim, not restricted to the state ladder that governs
            // training updates. Re-snapping here would quantize away
            // sub-step compensations.
            let mut merged: Option<xbar_core::RemapReport> = None;
            for g in grid.col_groups() {
                let group_map = map.block(g.dev_start, g.dev_len, 0, n_in);
                let group_targets = targets.block(g.dev_start, g.dev_len, 0, n_in);
                // The group's block of the layer periphery: for Perm it
                // carries the physical row order the forward uses.
                let group_periphery = self
                    .periphery
                    .as_ref()
                    .expect("mapped parameters carry a periphery")
                    .diagonal_block(g.out_start, g.out_len, g.dev_start, g.dev_len)?;
                let (shifted, report) = xbar_core::remap_for_faults(
                    &group_targets,
                    &group_periphery,
                    &group_map,
                    range,
                )
                .map_err(NnError::Mapping)?;
                targets.write_block(g.dev_start, 0, &shifted);
                merged = Some(match merged {
                    Some(acc) => acc.merge(&report),
                    None => report,
                });
            }
            merged
        } else {
            None
        };
        let (programmed, prog_report) =
            self.device
                .programming()
                .program_tensor(&targets, &var, range, Some(&map), rng);
        self.serve(Some(programmed));
        self.fault_map = Some(map);
        Ok((prog_report, remap_report))
    }

    /// Composes the parasitic read non-idealities — conductance drift,
    /// then tile-local IR-drop line-resistance attenuation — onto the
    /// currently-programmed conductances (the override installed by
    /// [`MappedParam::apply_variation`]/[`MappedParam::apply_faults`], or
    /// the ideal quantized shadow when none is active). Cells recorded as
    /// stuck by a preceding [`MappedParam::apply_faults`] do not drift.
    /// A no-op — the override stays bitwise untouched — when both models
    /// are inactive, so the degenerate `(R_line = 0, t = 0)` point of a
    /// parasitic sweep reproduces the parasitic-free path exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::State`] for baseline signed weights, which have
    /// no crossbar wires to drop voltage over.
    pub fn apply_parasitics(
        &mut self,
        line: xbar_device::LineResistanceModel,
        drift: xbar_device::DriftModel,
    ) -> Result<(), NnError> {
        if line.is_none() && !drift.is_active() {
            return Ok(());
        }
        let Some(grid) = &self.grid else {
            return Err(NnError::State(
                "baseline signed weights have no crossbar lines to parasitically load".into(),
            ));
        };
        let mut conductances = match self.variation_override.take() {
            Some(c) => c,
            None => self.quantized_shadow(),
        };
        let device = self.device.with_line_resistance(line).with_drift(drift);
        let pristine;
        let faults = match &self.fault_map {
            Some(map) => map,
            None => {
                pristine = xbar_device::FaultMap::pristine(conductances.shape()[0], self.n_in);
                &pristine
            }
        };
        grid.apply_parasitics(&mut conductances, &device, faults);
        self.serve(Some(conductances));
        Ok(())
    }

    /// Installs an explicit conductance override for inference — the
    /// deployment-study generalization of [`MappedParam::apply_variation`]:
    /// forward passes read `conductances` (for mapped weights) or the
    /// given signed weights (baseline) until
    /// [`MappedParam::clear_variation`] is called. Used by redeployment
    /// ablations (e.g. programming a QAT-trained network onto a device
    /// with a non-uniform state ladder).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the stored shadow tensor.
    pub fn set_inference_override(&mut self, conductances: Tensor) {
        assert_eq!(
            conductances.shape(),
            self.shadow.shape(),
            "override shape must match the stored parameter"
        );
        self.serve(Some(conductances));
        self.fault_map = None;
    }

    /// Removes any variation override (returns to ideal quantized
    /// inference).
    pub fn clear_variation(&mut self) {
        self.serve(None);
        self.fault_map = None;
    }

    /// Makes forward passes read `conductances` (`None`: the quantized
    /// shadow) and drops the int8 image of the array served before.
    fn serve(&mut self, conductances: Option<Tensor>) {
        self.variation_override = conductances;
        self.int8 = None;
    }

    /// Whether a variation override is active.
    pub fn has_variation(&self) -> bool {
        self.variation_override.is_some()
    }

    /// Whether this parameter runs the online self-healing loop (mapped
    /// weights on a device with an active lifetime fault model).
    pub fn scrub_active(&self) -> bool {
        self.scrub.is_some()
    }

    /// The current scrub epoch (0 = never scrubbed, or scrubbing
    /// inactive).
    pub fn scrub_epoch(&self) -> u32 {
        self.scrub.as_ref().map_or(0, |s| s.epoch.data()[0] as u32)
    }

    /// Advances this parameter's crossbar one scrub epoch: overlays the
    /// lifetime fault arrivals for the new epoch, refresh-programs every
    /// tile from the trained conductances (plus any persistent remap
    /// compensation), and — with `detect` set — runs the ABFT checksum
    /// detection, staged-repair, and quarantine loop (the primitives of
    /// [`xbar_core::HealthMonitor`]) against `policy`. The resulting
    /// served conductances are installed as the inference override, so
    /// subsequent forward passes read the aged (and healed) array.
    ///
    /// With `detect` unset the refresh programming still happens but the
    /// health machinery is bypassed entirely — the maintenance-free
    /// deployment an experiment compares against.
    ///
    /// Scrub-path programming is noiseless and consumes no RNG, so the
    /// whole array state after any tick is a pure function of
    /// `(shadow, shift, health, epoch)` — which is exactly what a
    /// checkpoint persists and [`MappedParam::visit_state`] rebuilds.
    ///
    /// Returns `None` (and changes nothing, bitwise) when scrubbing is
    /// inactive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Mapping`] if a tile-local remap fails or the
    /// persisted health state is invalid.
    pub fn scrub_tick(
        &mut self,
        detect: bool,
        policy: &RepairPolicy,
    ) -> Result<Option<ScrubReport>, NnError> {
        if self.scrub.is_none() {
            return Ok(None);
        }
        let q = self.quantized_shadow();
        let grid = self.grid.clone().expect("scrub state implies a grid");
        let periphery = self
            .periphery
            .clone()
            .expect("mapped parameters carry a periphery");
        let lifetime = self.device.lifetime();
        let range = self.device.range();
        let programming = self.device.programming();
        let (nd, n_in) = (grid.nd_total(), self.n_in);

        let scrub = self.scrub.as_mut().expect("checked above");
        let epoch = scrub.epoch.data()[0] as u32 + 1;
        let faults = lifetime.fault_map(nd, n_in, epoch);
        let prev_stuck = lifetime.fault_map(nd, n_in, epoch - 1).num_stuck();
        let mut monitor =
            HealthMonitor::from_flat(scrub.health.data(), *policy).map_err(NnError::Mapping)?;
        let quarantined_before = monitor.num_quarantined();
        let targets = scrub_targets(&q, &scrub.shift, range);
        let mut served = Tensor::zeros(&[nd, n_in]);
        let mut report = ScrubReport {
            epoch,
            new_faults: faults.num_stuck() - prev_stuck,
            detections: 0,
            repairs: Vec::new(),
            quarantined_now: 0,
            quarantined_total: 0,
            analog_tiles: 0,
            total_tiles: grid.num_tiles(),
            exhausted_cells: 0,
        };
        // Noiseless scrub programming consumes no randomness; the stream
        // exists only to satisfy the programming API.
        let mut rng = XorShiftRng::new(SCRUB_RNG_SEED);
        let mut tile_idx = 0usize;
        for &(r0, rl) in grid.row_blocks() {
            for g in grid.col_groups() {
                let tf = faults.block(g.dev_start, g.dev_len, r0, rl);
                let t_block = targets.block(g.dev_start, g.dev_len, r0, rl);
                let q_block = q.block(g.dev_start, g.dev_len, r0, rl);
                let (prog, prep) = programming.program_tensor(
                    &t_block,
                    &xbar_device::VariationModel::none(),
                    range,
                    Some(&tf),
                    &mut rng,
                );
                report.exhausted_cells += prep.num_unconverged();
                let mut serve = prog;
                if detect {
                    let residual = checksum_residual(&serve, &t_block);
                    match monitor.observe(tile_idx, residual, epoch) {
                        HealthAction::Detected => report.detections += 1,
                        HealthAction::Repair(stage) => {
                            // The remap rungs revise this tile's block of
                            // the persistent shift tensor; targets are then
                            // recomputed from the `clamp(q + shift)` formula
                            // so a checkpoint rebuild reproduces the same
                            // f32 operations bitwise.
                            let weight_residual = match stage {
                                RepairStage::Reprogram => None,
                                RepairStage::Remap | RepairStage::FullRemap => {
                                    let base = if stage == RepairStage::FullRemap {
                                        q_block.clone()
                                    } else {
                                        t_block.clone()
                                    };
                                    let stencil = periphery.diagonal_block(
                                        g.out_start,
                                        g.out_len,
                                        g.dev_start,
                                        g.dev_len,
                                    )?;
                                    let (shifted, rr) =
                                        remap_for_faults(&base, &stencil, &tf, range)
                                            .map_err(NnError::Mapping)?;
                                    let shift_block =
                                        shifted.sub(&q_block).map_err(NnError::Shape)?;
                                    scrub.shift.write_block(g.dev_start, r0, &shift_block);
                                    Some(rr.residual_after())
                                }
                            };
                            let shift_block = scrub.shift.block(g.dev_start, g.dev_len, r0, rl);
                            let t_block = scrub_targets(&q_block, &shift_block, range);
                            let (prog2, prep2) = programming.program_tensor(
                                &t_block,
                                &xbar_device::VariationModel::none(),
                                range,
                                Some(&tf),
                                &mut rng,
                            );
                            report.exhausted_cells += prep2.num_unconverged();
                            let residual_after = checksum_residual(&prog2, &t_block);
                            let healed = match weight_residual {
                                Some(wr) => wr <= policy.weight_tolerance,
                                None => residual_after <= policy.residual_threshold,
                            };
                            let state_after = monitor.record_attempt(tile_idx, epoch, healed);
                            serve = prog2;
                            if state_after == TileHealth::Quarantined {
                                // Exact digital fallback: the tile's partial
                                // product comes from the ideal quantized
                                // conductances; its compensation is cleared.
                                scrub.shift.write_block(
                                    g.dev_start,
                                    r0,
                                    &Tensor::zeros(&[g.dev_len, rl]),
                                );
                                serve = q_block.clone();
                            }
                            report.repairs.push(RepairAttempt {
                                epoch,
                                tile: tile_idx,
                                stage,
                                residual_before: residual,
                                residual_after,
                                healed,
                            });
                        }
                        HealthAction::AlreadyQuarantined => serve = q_block.clone(),
                        HealthAction::Nothing | HealthAction::Backoff => {}
                    }
                }
                served.write_block(g.dev_start, r0, &serve);
                tile_idx += 1;
            }
        }
        report.quarantined_total = monitor.num_quarantined();
        report.quarantined_now = report.quarantined_total - quarantined_before;
        report.analog_tiles = grid.num_tiles() - report.quarantined_total;
        scrub.epoch = Tensor::from_vec(vec![epoch as f32], &[1]).expect("len matches");
        let flat = monitor.to_flat();
        let flat_len = flat.len();
        scrub.health = Tensor::from_vec(flat, &[flat_len]).expect("len matches");
        self.serve(Some(served));
        self.fault_map = Some(faults);
        Ok(Some(report))
    }

    /// Rebuilds the served conductance override from the persisted scrub
    /// state — called after a checkpoint restore so a resumed run forwards
    /// through exactly the array the interrupted run was serving. The
    /// served view is a pure function of `(shadow, shift, health, epoch)`:
    /// quarantined tiles serve the ideal quantized block, everything else
    /// is noiselessly refresh-programmed over the epoch's fault map.
    fn rebuild_scrub_override(&mut self) {
        let Some(scrub) = &self.scrub else { return };
        let epoch = scrub.epoch.data()[0] as u32;
        if epoch == 0 {
            return;
        }
        let grid = self.grid.as_ref().expect("scrub state implies a grid");
        let lifetime = self.device.lifetime();
        let range = self.device.range();
        let programming = self.device.programming();
        let (nd, n_in) = (grid.nd_total(), self.n_in);
        let faults = lifetime.fault_map(nd, n_in, epoch);
        let q = self.quantized_shadow();
        let targets = scrub_targets(&q, &scrub.shift, range);
        // The policy is irrelevant here: only the persisted per-tile
        // states are read, no repair decision is taken.
        let monitor = HealthMonitor::from_flat(scrub.health.data(), RepairPolicy::default())
            .expect("scrub health tensor holds monitor-encoded state");
        let mut served = Tensor::zeros(&[nd, n_in]);
        let mut rng = XorShiftRng::new(SCRUB_RNG_SEED);
        let mut tile_idx = 0usize;
        for &(r0, rl) in grid.row_blocks() {
            for g in grid.col_groups() {
                let serve = if monitor.state(tile_idx) == TileHealth::Quarantined {
                    q.block(g.dev_start, g.dev_len, r0, rl)
                } else {
                    let tf = faults.block(g.dev_start, g.dev_len, r0, rl);
                    let t_block = targets.block(g.dev_start, g.dev_len, r0, rl);
                    programming
                        .program_tensor(
                            &t_block,
                            &xbar_device::VariationModel::none(),
                            range,
                            Some(&tf),
                            &mut rng,
                        )
                        .0
                };
                served.write_block(g.dev_start, r0, &serve);
                tile_idx += 1;
            }
        }
        self.serve(Some(served));
        self.fault_map = Some(faults);
    }

    /// Checks the digital-fallback contract on the live served array:
    /// every quarantined tile's served conductances must equal the
    /// fault-free quantized shadow block bitwise, so a quarantined tile's
    /// MVM contribution is exactly what the ideal array would produce.
    /// Vacuously `true` when scrubbing is inactive or no tick has run;
    /// `false` also covers corrupt health state.
    pub fn scrub_fallback_parity(&self) -> bool {
        let Some(scrub) = &self.scrub else {
            return true;
        };
        if scrub.epoch.data()[0] as u32 == 0 {
            return true;
        }
        let (Some(served), Some(grid)) = (&self.variation_override, &self.grid) else {
            return true;
        };
        let Ok(monitor) = HealthMonitor::from_flat(scrub.health.data(), RepairPolicy::default())
        else {
            return false;
        };
        let q = self.quantized_shadow();
        let mut tile_idx = 0usize;
        for &(r0, rl) in grid.row_blocks() {
            for g in grid.col_groups() {
                if monitor.state(tile_idx) == TileHealth::Quarantined {
                    for row in g.dev_start..g.dev_start + g.dev_len {
                        for col in r0..r0 + rl {
                            if served.at(&[row, col]).to_bits() != q.at(&[row, col]).to_bits() {
                                return false;
                            }
                        }
                    }
                }
                tile_idx += 1;
            }
        }
        true
    }

    /// Visits the accumulated shadow-gradient tensor — the flatten/scatter
    /// hook behind [`crate::Layer::visit_grads`]. Gradient routing
    /// ([`MappedParam::accumulate_grad`]) is linear, so per-shard shadow
    /// gradients sum exactly like logical-weight gradients would.
    pub fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        visit(&mut self.grad);
    }

    /// Visits this parameter's persistent state: the trained master tensor
    /// (`M` or `W`) and the stochastic pulse-rounding stream. The gradient
    /// and any variation override are transient and excluded (see
    /// [`crate::Layer::visit_state`]).
    pub fn visit_state(&mut self, prefix: &str, visitor: &mut dyn crate::StateVisitor) {
        // The visitor may overwrite any tensor below (a checkpoint
        // restore), so the int8 image cannot be trusted afterwards.
        self.int8 = None;
        visitor.tensor(&format!("{prefix}shadow"), &mut self.shadow);
        visitor.rng(&format!("{prefix}update_rng"), &mut self.update_rng);
        // The Perm row order is part of the trained state: the shadow rows
        // are stored physically, so the permutation that decodes them must
        // travel with them. After a restore pass may have overwritten it,
        // rebuild the periphery so the stencil always matches.
        if let Some(perm) = &mut self.perm {
            let grid = self.grid.as_ref().expect("Perm parameters carry a grid");
            visitor.checked_tensor(&format!("{prefix}perm"), perm, &|t| check_perm(grid, t));
            self.periphery = Some(periphery_for_perm(grid, perm));
        }
        // Self-healing state travels with the parameter; the served
        // override it implies is rebuilt (not persisted) — see
        // `rebuild_scrub_override` — after a restore only: a visitor that
        // only reads (a save, a restore's validation pass) must leave an
        // active variation or fault override in place. Absent when
        // scrubbing is inactive, so pre-existing checkpoints keep their
        // exact component list.
        if let Some(scrub) = &mut self.scrub {
            visitor.checked_tensor(
                &format!("{prefix}scrub_epoch"),
                &mut scrub.epoch,
                &check_scrub_epoch,
            );
            visitor.checked_tensor(&format!("{prefix}scrub_health"), &mut scrub.health, &|t| {
                HealthMonitor::from_flat(t.data(), RepairPolicy::default())
                    .map(drop)
                    .map_err(|e| e.to_string())
            });
            visitor.tensor(&format!("{prefix}scrub_shift"), &mut scrub.shift);
            if visitor.restores() {
                self.rebuild_scrub_override();
            }
        }
    }
}

/// Deterministic seed of the (never-consumed) scrub programming stream.
const SCRUB_RNG_SEED: u64 = 0x5C2B;

/// Elementwise `clamp(q + shift)` — the single formula both the scrub
/// tick and the checkpoint rebuild derive programming targets from, so
/// the two paths stay bitwise identical.
fn scrub_targets(q: &Tensor, shift: &Tensor, range: ConductanceRange) -> Tensor {
    let mut t = q.add(shift).expect("shift shape fixed at construction");
    t.map_inplace(|v| range.clamp(v));
    t
}

/// The rule a persisted scrub epoch obeys: a whole number no larger than
/// `2^24`, past which an `f32` counter could not advance.
fn check_scrub_epoch(epoch: &Tensor) -> Result<(), String> {
    let e = epoch.data()[0];
    if e.fract() == 0.0 && (0.0..=(1u32 << 24) as f32).contains(&e) {
        Ok(())
    } else {
        Err(format!("scrub epoch {e} is not an epoch count"))
    }
}

/// The rule a persisted [`Mapping::Perm`] row order obeys: each column
/// group's slice holds every device row of that group exactly once, as
/// `group_perm`, `periphery_for_perm` and `reference_rows` assume.
fn check_perm(grid: &TileGrid, perm: &Tensor) -> Result<(), String> {
    for g in grid.col_groups() {
        let rows = g.dev_start..g.dev_start + g.dev_len;
        let mut seen = vec![false; g.dev_len];
        for &v in &perm.data()[rows.clone()] {
            // NaN and infinities fail the whole-number test; `as`
            // saturates huge entries outside `rows`.
            let row = v as usize;
            if v.fract() != 0.0 || v < 0.0 || !rows.contains(&row) || seen[row - g.dev_start] {
                return Err(format!(
                    "entry {v} is not an unused device row of the group at rows {rows:?}"
                ));
            }
            seen[row - g.dev_start] = true;
        }
    }
    Ok(())
}

/// The group-local physical→logical row order for column group `g`,
/// sliced out of the stacked permutation tensor.
fn group_perm(perm: &Tensor, g: &xbar_core::ColGroup) -> Vec<usize> {
    perm.data()[g.dev_start..g.dev_start + g.dev_len]
        .iter()
        .map(|&v| v as usize - g.dev_start)
        .collect()
}

/// Rebuilds the block-diagonal periphery with each group's physical row
/// permutation folded into its local stencil.
fn periphery_for_perm(grid: &TileGrid, perm: &Tensor) -> PeripheryMatrix {
    let blocks: Vec<PeripheryMatrix> = grid
        .col_groups()
        .iter()
        .map(|g| {
            grid.mapping()
                .periphery(g.out_len)
                .permuted(&group_perm(perm, g))
        })
        .collect();
    PeripheryMatrix::block_diagonal(&blocks)
}

/// Solves `(S·Sᵀ)·X = G` for the ACM Gram matrix — the symmetric positive
/// definite tridiagonal `tridiag(−1, 2, −1)` of size `n_out` — via the
/// Thomas algorithm, one solve per input column of `G (n_out × n_in)`.
fn solve_acm_gram(g: &Tensor) -> Tensor {
    let (n_out, n_in) = (g.shape()[0], g.shape()[1]);
    if n_out == 1 {
        return g.scale(0.5);
    }
    let mut x = Tensor::zeros(&[n_out, n_in]);
    // Forward sweep coefficients are column-independent; precompute.
    let mut c_prime = vec![0.0f32; n_out];
    c_prime[0] = -1.0 / 2.0;
    for i in 1..n_out - 1 {
        c_prime[i] = -1.0 / (2.0 + c_prime[i - 1]);
    }
    for col in 0..n_in {
        let mut d_prime = vec![0.0f32; n_out];
        d_prime[0] = g.at(&[0, col]) / 2.0;
        for i in 1..n_out {
            let denom = 2.0 + c_prime[i - 1];
            d_prime[i] = (g.at(&[i, col]) + d_prime[i - 1]) / denom;
        }
        *x.at_mut(&[n_out - 1, col]) = d_prime[n_out - 1];
        for i in (0..n_out - 1).rev() {
            let next = x.at(&[i + 1, col]);
            *x.at_mut(&[i, col]) = d_prime[i] - c_prime[i] * next;
        }
    }
    x
}

/// Optimal Gaussian clip multiple for a given weight precision
/// (ACIQ-style): fewer levels want a tighter clip.
fn clip_sigmas(bits: Option<u8>) -> f32 {
    match bits {
        Some(1) => 1.5,
        Some(2) => 2.4,
        Some(3) => 2.7,
        Some(4) => 2.9,
        _ => 3.0,
    }
}

/// Builds the initial conductance matrix for `wc` (already in conductance
/// units) under `mapping`.
#[allow(clippy::needless_range_loop)] // loops walk suffix/M in lockstep
fn init_conductances(wc: &Tensor, mapping: Mapping, device: &DeviceConfig) -> Tensor {
    let range = device.range();
    let (n_out, n_in) = (wc.shape()[0], wc.shape()[1]);
    let mid = range.midpoint();
    match mapping {
        Mapping::DoubleElement => {
            // Both elements biased at mid-range (the NeuroSim convention):
            // m⁺ = mid + w/2, m⁻ = mid − w/2. A plain positive/negative
            // split would pin one element of every pair at g_min, where
            // clamping silently halves its updates.
            let mid = range.midpoint();
            let mut m = Tensor::zeros(&[2 * n_out, n_in]);
            for j in 0..n_out {
                for i in 0..n_in {
                    let w = wc.at(&[j, i]);
                    *m.at_mut(&[2 * j, i]) = range.clamp(mid + 0.5 * w);
                    *m.at_mut(&[2 * j + 1, i]) = range.clamp(mid - 0.5 * w);
                }
            }
            m
        }
        // Perm initialises exactly like BC — in logical row order; the
        // caller applies the physical permutation afterwards.
        Mapping::BiasColumn | Mapping::Perm => {
            let mut m = Tensor::zeros(&[n_out + 1, n_in]);
            for j in 0..n_out {
                for i in 0..n_in {
                    *m.at_mut(&[j, i]) = range.clamp(mid + wc.at(&[j, i]));
                }
            }
            for i in 0..n_in {
                *m.at_mut(&[n_out, i]) = mid;
            }
            m
        }
        Mapping::Acm => {
            // i.i.d. conductances around mid-range: m_j = mid + wc_j/√2,
            // reference tail at mid. The resulting effective weights are
            // *neighbour differences* of the He init — correct marginal
            // std, mildly anti-correlated across adjacent outputs — and
            // every element starts interior. (Decomposing an i.i.d. init
            // exactly would need suffix sums whose spread grows as σ√N_O,
            // saturating the conductance span for wide layers: an i.i.d.
            // W init is simply not in ACM's representable set. Training
            // *within* the column-balanced set is exactly the constraint
            // the paper's Sec. III-D/E describes.)
            let inv_sqrt2 = std::f32::consts::FRAC_1_SQRT_2;
            let mut m = Tensor::zeros(&[n_out + 1, n_in]);
            for i in 0..n_in {
                for j in 0..n_out {
                    *m.at_mut(&[j, i]) = range.clamp(mid + wc.at(&[j, i]) * inv_sqrt2);
                }
                *m.at_mut(&[n_out, i]) = mid;
            }
            m
        }
    }
}

/// Read access to the programmed array for the device-level tests in
/// `crate::crossbar` and `crate::tiling`.
#[cfg(test)]
impl MappedParam {
    /// The conductances forward passes read: the active override, or the
    /// quantized shadow.
    pub(crate) fn served_conductances(&self) -> Tensor {
        match &self.variation_override {
            Some(g) => g.clone(),
            None => self.quantized_shadow(),
        }
    }

    /// The stuck-at map the last [`MappedParam::apply_faults`] dealt, until
    /// the next override replaces that array.
    pub(crate) fn fault_map(&self) -> Option<&xbar_device::FaultMap> {
        self.fault_map.as_ref()
    }

    /// The layer periphery `S`, with any `Perm` row order folded in.
    pub(crate) fn periphery(&self) -> &PeripheryMatrix {
        self.periphery
            .as_ref()
            .expect("mapped parameters always carry a periphery")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_device::DeviceConfig;
    use xbar_tensor::linalg;

    fn he_init(n_out: usize, n_in: usize, seed: u64) -> Tensor {
        let mut rng = XorShiftRng::new(seed);
        let std = (2.0 / n_in as f32).sqrt();
        Tensor::rand_normal(&[n_out, n_in], 0.0, std, &mut rng)
    }

    #[test]
    fn baseline_effective_weights_are_the_init() {
        let w = he_init(4, 6, 101);
        let p = MappedParam::from_signed(&w, WeightKind::Signed, DeviceConfig::ideal()).unwrap();
        assert!(p.effective_weights().all_close(&w, 0.0));
        assert_eq!(p.alpha(), 1.0);
        assert!(p.mapping().is_none());
    }

    #[test]
    fn mapped_init_approximates_signed_init() {
        let w = he_init(6, 8, 102);
        for mapping in Mapping::ALL {
            let p =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            let eff = p.effective_weights();
            // DE/BC are exact within clamping; ACM is approximate where
            // cumulative sums clamp. All should correlate strongly.
            let dot: f32 = eff.data().iter().zip(w.data()).map(|(&a, &b)| a * b).sum();
            let corr = dot / (eff.norm_sq().sqrt() * w.norm_sq().sqrt()).max(1e-9);
            assert!(corr > 0.7, "{mapping}: corr {corr}");
        }
    }

    #[test]
    fn de_and_bc_init_is_exact() {
        let w = he_init(5, 5, 103);
        for mapping in [Mapping::DoubleElement, Mapping::BiasColumn] {
            let p =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            assert!(
                p.effective_weights().all_close(&w, 1e-4),
                "{mapping} init should reconstruct exactly (4σ headroom)"
            );
        }
    }

    #[test]
    fn apply_parasitics_off_is_a_bitwise_noop() {
        let w = he_init(6, 8, 140);
        for mapping in Mapping::ALL {
            let mut p = MappedParam::from_signed(
                &w,
                WeightKind::Mapped(mapping),
                DeviceConfig::quantized_linear(4),
            )
            .unwrap();
            let mut rng = XorShiftRng::new(9);
            p.apply_variation(0.05, &mut rng);
            let before = p.variation_override.clone().unwrap();
            p.apply_parasitics(
                xbar_device::LineResistanceModel::none(),
                xbar_device::DriftModel::none(),
            )
            .unwrap();
            assert_eq!(
                p.variation_override.as_ref().unwrap().data(),
                before.data(),
                "{mapping}: inactive parasitics must not rewrite the override"
            );
        }
    }

    #[test]
    fn apply_parasitics_attenuates_the_programmed_override() {
        let w = he_init(6, 8, 141);
        let mut p = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::Acm),
            DeviceConfig::quantized_linear(4),
        )
        .unwrap();
        let ideal = p.quantized_shadow();
        p.apply_parasitics(
            xbar_device::LineResistanceModel::new(0.002),
            xbar_device::DriftModel::none(),
        )
        .unwrap();
        let loaded = p.variation_override.clone().unwrap();
        for (i, (&g, &g0)) in loaded.data().iter().zip(ideal.data()).enumerate() {
            assert!(g <= g0, "cell {i}: attenuation can only lower conductance");
            if g0 > 0.0 {
                assert!(g < g0, "cell {i}: live cell must see some IR drop");
            }
        }
    }

    #[test]
    fn apply_parasitics_drift_skips_stuck_cells() {
        let w = he_init(6, 8, 142);
        let mut p = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::BiasColumn),
            DeviceConfig::quantized_linear(4),
        )
        .unwrap();
        let mut rng = XorShiftRng::new(17);
        p.apply_faults(xbar_device::FaultModel::uniform(0.2), 0.0, false, &mut rng)
            .unwrap();
        let map = p.fault_map.clone().unwrap();
        let programmed = p.variation_override.clone().unwrap();
        assert!(map.num_stuck() > 0, "want stuck cells in this scenario");
        let drift = xbar_device::DriftModel::new(0.1, 0.0, 77).at_time(1000);
        p.apply_parasitics(xbar_device::LineResistanceModel::none(), drift)
            .unwrap();
        let drifted = p.variation_override.clone().unwrap();
        let cols = programmed.shape()[1];
        for (idx, (&before, &after)) in programmed.data().iter().zip(drifted.data()).enumerate() {
            let (r, c) = (idx / cols, idx % cols);
            if map.get(r, c).is_some() {
                assert_eq!(after, before, "stuck cell ({r}, {c}) must not drift");
            } else {
                assert!(after <= before, "live cell ({r}, {c}) decays toward g_min");
            }
        }
    }

    #[test]
    fn shadow_is_nonnegative_and_in_range() {
        let w = he_init(8, 10, 104);
        for mapping in Mapping::ALL {
            let p =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            assert!(p.shadow().min() >= 0.0, "{mapping}");
            assert!(p.shadow().max() <= 1.0, "{mapping}");
        }
    }

    #[test]
    fn num_params_reflects_element_count() {
        let w = he_init(4, 6, 105);
        let de = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::DoubleElement),
            DeviceConfig::ideal(),
        )
        .unwrap();
        assert_eq!(de.num_params(), 8 * 6);
        let acm =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal())
                .unwrap();
        assert_eq!(acm.num_params(), 5 * 6);
    }

    #[test]
    fn gradient_descent_reduces_reconstruction_error() {
        // Train M so that W_eff approaches a random target: checks the
        // gradient routing α·Sᵀ·G end to end.
        let w = he_init(4, 4, 106);
        let target = he_init(4, 4, 107);
        for mapping in Mapping::ALL {
            let mut p =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            let err0 = p.effective_weights().sub(&target).unwrap().norm_sq();
            for _ in 0..200 {
                let diff = p.effective_weights().sub(&target).unwrap();
                p.zero_grad();
                p.accumulate_grad(&diff).unwrap();
                p.apply_update(0.05);
            }
            let err1 = p.effective_weights().sub(&target).unwrap().norm_sq();
            assert!(err1 < err0 * 0.2, "{mapping}: {err0} -> {err1}");
        }
    }

    #[test]
    fn quantized_forward_snaps_conductances() {
        let w = he_init(4, 4, 108);
        let dev = DeviceConfig::quantized_linear(2);
        let p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
        let g = p.conductances().unwrap();
        let q = dev.quantizer();
        for &v in g.data() {
            assert!((v - q.quantize(v)).abs() < 1e-6);
        }
    }

    #[test]
    fn updates_keep_shadow_in_range() {
        let w = he_init(4, 4, 109);
        let mut p = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::BiasColumn),
            DeviceConfig::ideal(),
        )
        .unwrap();
        // Huge gradient step in one direction.
        let big = Tensor::full(&[4, 4], 100.0);
        p.accumulate_grad(&big).unwrap();
        p.apply_update(1.0);
        assert!(p.shadow().min() >= 0.0 && p.shadow().max() <= 1.0);
    }

    #[test]
    fn nonlinear_updates_saturate_smoothly() {
        let w = he_init(4, 4, 110);
        let dev = DeviceConfig::quantized_nonlinear(4, 5.0);
        let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
        let big = Tensor::full(&[4, 4], -10.0); // push all conductances up
        for _ in 0..50 {
            p.zero_grad();
            p.accumulate_grad(&big).unwrap();
            p.apply_update(0.01);
        }
        assert!(p.shadow().min() >= 0.0 && p.shadow().max() <= 1.0);
        // Nonlinear saturation: should approach but not exceed g_max.
        assert!(p.shadow().max() > 0.9);
    }

    #[test]
    fn variation_override_applies_and_clears() {
        let w = he_init(4, 4, 111);
        let dev = DeviceConfig::quantized_linear(3);
        let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
        let clean = p.effective_weights();
        let mut rng = XorShiftRng::new(112);
        p.apply_variation(0.2, &mut rng);
        assert!(p.has_variation());
        let noisy = p.effective_weights();
        assert!(!noisy.all_close(&clean, 1e-4));
        p.clear_variation();
        assert!(p.effective_weights().all_close(&clean, 0.0));
    }

    #[test]
    fn fault_injection_overrides_and_reports() {
        use xbar_device::FaultModel;
        let w = he_init(8, 32, 120);
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal())
                .unwrap();
        let clean = p.effective_weights();
        let mut rng = XorShiftRng::new(121);
        let (prog, remap) = p
            .apply_faults(FaultModel::uniform(0.05), 0.0, false, &mut rng)
            .unwrap();
        assert!(remap.is_none());
        assert!(prog.num_stuck() > 0);
        assert!(p.has_variation());
        assert!(!p.effective_weights().all_close(&clean, 1e-5));
        p.clear_variation();
        assert!(p.effective_weights().all_close(&clean, 0.0));
    }

    #[test]
    fn fault_remap_recovers_effective_weights() {
        use xbar_device::FaultModel;
        let w = he_init(8, 32, 122);
        let err_with = |remap: bool| {
            let mut p = MappedParam::from_signed(
                &w,
                WeightKind::Mapped(Mapping::Acm),
                DeviceConfig::ideal(),
            )
            .unwrap();
            let clean = p.effective_weights();
            // Same seed → identical fault pattern for both arms.
            let mut rng = XorShiftRng::new(123);
            let (_, remap_report) = p
                .apply_faults(FaultModel::uniform(0.03), 0.0, remap, &mut rng)
                .unwrap();
            assert_eq!(remap_report.is_some(), remap);
            p.effective_weights().sub(&clean).unwrap().norm_sq().sqrt()
        };
        let naive = err_with(false);
        let remapped = err_with(true);
        // Training spreads conductances across the whole range, so some
        // shifts clamp against the device limits — recovery is partial
        // here, unlike the mid-range-target case which absorbs exactly.
        assert!(
            remapped < naive * 0.75,
            "remapped {remapped} vs naive {naive}"
        );
    }

    #[test]
    fn fault_injection_rejects_baseline() {
        use xbar_device::FaultModel;
        let w = he_init(4, 4, 124);
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Signed, DeviceConfig::ideal()).unwrap();
        let mut rng = XorShiftRng::new(125);
        assert!(p
            .apply_faults(FaultModel::uniform(0.01), 0.0, false, &mut rng)
            .is_err());
    }

    #[test]
    fn variation_on_baseline_perturbs_weights() {
        let w = he_init(4, 4, 113);
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Signed, DeviceConfig::ideal()).unwrap();
        let mut rng = XorShiftRng::new(114);
        p.apply_variation(0.1, &mut rng);
        assert!(!p.effective_weights().all_close(&w, 1e-5));
    }

    #[test]
    fn grad_shape_is_validated() {
        let w = he_init(4, 4, 115);
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal())
                .unwrap();
        assert!(p.accumulate_grad(&Tensor::zeros(&[3, 4])).is_err());
    }

    #[test]
    fn rejects_non_2d_init() {
        let w = Tensor::zeros(&[2, 2, 2]);
        assert!(MappedParam::from_signed(&w, WeightKind::Signed, DeviceConfig::ideal()).is_err());
    }

    #[test]
    fn conductances_error_on_baseline() {
        let w = he_init(2, 2, 116);
        let p = MappedParam::from_signed(&w, WeightKind::Signed, DeviceConfig::ideal()).unwrap();
        assert!(p.conductances().is_err());
    }

    #[test]
    fn stencil_weights_and_grads_match_the_dense_products_bit_for_bit() {
        use xbar_device::TileShape;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = XorShiftRng::new(141);
        let w = he_init(19, 13, 140);
        for mapping in Mapping::ALL {
            for tile in [
                None,
                Some(TileShape::new(8, 5)),
                Some(TileShape::new(16, 16)),
            ] {
                let tag = format!("{mapping} tile={tile:?}");
                let device = DeviceConfig::quantized_linear(5).with_tile_shape(tile);
                let mut p =
                    MappedParam::from_signed(&w, WeightKind::Mapped(mapping), device).unwrap();
                let s = p.periphery.clone().unwrap();
                let dense =
                    |g: &Tensor, alpha: f32| linalg::matmul(s.matrix(), g).unwrap().scale(alpha);
                let want = dense(&p.quantized_shadow(), p.alpha);
                assert_eq!(bits(&p.effective_weights()), bits(&want), "{tag}: S·q(M)");
                p.apply_variation(0.05, &mut rng);
                let want = dense(p.variation_override.as_ref().unwrap(), p.alpha);
                assert_eq!(bits(&p.effective_weights()), bits(&want), "{tag}: S·G");

                // Gradients with signed zeros, subnormals and repeats.
                let grad_w = Tensor::from_fn(&[19, 13], |_| match rng.below(5) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -f32::from_bits(1 + rng.below(1 << 20) as u32),
                    3 => 0.125,
                    _ => rng.normal(),
                });
                p.zero_grad();
                p.accumulate_grad(&grad_w).unwrap();
                let grid = p.tile_grid().unwrap();
                let pre = match mapping {
                    Mapping::DoubleElement => grad_w.scale(0.5),
                    Mapping::BiasColumn | Mapping::Perm => grad_w.clone(),
                    Mapping::Acm => {
                        let mut pre = Tensor::zeros(&[19, 13]);
                        for g in grid.col_groups() {
                            let g_slice = grad_w.block(g.out_start, g.out_len, 0, 13);
                            pre.write_block(g.out_start, 0, &solve_acm_gram(&g_slice));
                        }
                        pre
                    }
                };
                let mut routed = linalg::matmul_tn(s.matrix(), &pre).unwrap().scale(p.alpha);
                if matches!(mapping, Mapping::BiasColumn | Mapping::Perm) {
                    for row in p.reference_rows() {
                        routed.data_mut()[row * 13..(row + 1) * 13].fill(0.0);
                    }
                }
                let mut want = Tensor::zeros(routed.shape());
                want.add_scaled(&routed, 1.0).unwrap();
                assert_eq!(bits(&p.grad), bits(&want), "{tag}: Sᵀ·G");
            }
        }
    }

    #[test]
    fn untiled_device_gives_monolithic_grid() {
        let w = he_init(6, 8, 130);
        let p =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal())
                .unwrap();
        let grid = p.tile_grid().unwrap();
        assert!(grid.is_monolithic());
        assert_eq!(grid.nd_total(), 7);
    }

    #[test]
    fn tiled_init_matches_monolithic_effective_weights() {
        use xbar_device::TileShape;
        let w = he_init(10, 12, 131);
        for mapping in Mapping::ALL {
            let mono =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(4, 4)));
            let tiled = MappedParam::from_signed(&w, WeightKind::Mapped(mapping), dev).unwrap();
            assert!(tiled.tile_grid().unwrap().num_tiles() > 1, "{mapping}");
            assert_eq!(tiled.alpha(), mono.alpha(), "{mapping}");
            match mapping {
                // DE/BC initialise element-locally (and Perm's folded-in
                // permutation cancels exactly): identical layouts.
                Mapping::DoubleElement | Mapping::BiasColumn | Mapping::Perm => assert!(
                    tiled
                        .effective_weights()
                        .all_close(&mono.effective_weights(), 1e-5),
                    "{mapping}"
                ),
                // ACM's neighbour-difference init sees different adjacency
                // at group boundaries; both layouts approximate w, so
                // check correlation rather than equality.
                Mapping::Acm => {
                    let eff = tiled.effective_weights();
                    let dot: f32 = eff.data().iter().zip(w.data()).map(|(&a, &b)| a * b).sum();
                    let corr = dot / (eff.norm_sq().sqrt() * w.norm_sq().sqrt()).max(1e-9);
                    assert!(corr > 0.7, "ACM tiled init corr {corr}");
                }
            }
        }
    }

    #[test]
    fn tiled_training_matches_monolithic_for_de_and_bc() {
        use xbar_device::TileShape;
        // DE and BC decompose exactly per group, and their gradient
        // routing is purely element-local, so tiled and monolithic
        // training trajectories coincide.
        let w = he_init(9, 6, 132);
        let target = he_init(9, 6, 133);
        for mapping in [Mapping::DoubleElement, Mapping::BiasColumn] {
            let mut mono =
                MappedParam::from_signed(&w, WeightKind::Mapped(mapping), DeviceConfig::ideal())
                    .unwrap();
            let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(4, 4)));
            let mut tiled = MappedParam::from_signed(&w, WeightKind::Mapped(mapping), dev).unwrap();
            for _ in 0..20 {
                for p in [&mut mono, &mut tiled] {
                    let diff = p.effective_weights().sub(&target).unwrap();
                    p.zero_grad();
                    p.accumulate_grad(&diff).unwrap();
                    p.apply_update(0.05);
                }
                assert!(
                    tiled
                        .effective_weights()
                        .all_close(&mono.effective_weights(), 1e-4),
                    "{mapping}"
                );
            }
        }
    }

    #[test]
    fn tiled_gradient_descent_converges_for_all_mappings() {
        use xbar_device::TileShape;
        let w = he_init(10, 8, 134);
        let target = he_init(10, 8, 135);
        let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(4, 4)));
        for mapping in Mapping::ALL {
            let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(mapping), dev).unwrap();
            let err0 = p.effective_weights().sub(&target).unwrap().norm_sq();
            for _ in 0..200 {
                let diff = p.effective_weights().sub(&target).unwrap();
                p.zero_grad();
                p.accumulate_grad(&diff).unwrap();
                p.apply_update(0.05);
            }
            let err1 = p.effective_weights().sub(&target).unwrap().norm_sq();
            assert!(err1 < err0 * 0.2, "{mapping}: {err0} -> {err1}");
        }
    }

    #[test]
    fn tiled_bc_freezes_every_group_reference() {
        use xbar_device::TileShape;
        let w = he_init(10, 4, 136);
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(Some(TileShape::new(8, 4)));
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::BiasColumn), dev).unwrap();
        let grid = p.tile_grid().unwrap().clone();
        assert!(grid.col_groups().len() > 1);
        let mid = dev.range().midpoint();
        let check_refs = |p: &MappedParam| {
            let g = p.conductances().unwrap();
            for group in grid.col_groups() {
                let row = group.dev_start + group.dev_len - 1;
                for i in 0..p.n_in() {
                    assert_eq!(g.at(&[row, i]), mid, "reference row {row} moved");
                }
            }
        };
        check_refs(&p);
        let big = Tensor::full(&[10, 4], 5.0);
        p.accumulate_grad(&big).unwrap();
        p.apply_update(0.1);
        check_refs(&p);
    }

    #[test]
    fn perm_init_matches_bc_exactly() {
        // Perm is BC with reordered device rows and the inverse folded
        // into the periphery, so the effective weights coincide.
        let w = he_init(6, 8, 140);
        let bc = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::BiasColumn),
            DeviceConfig::ideal(),
        )
        .unwrap();
        let perm =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Perm), DeviceConfig::ideal())
                .unwrap();
        assert_eq!(perm.alpha(), bc.alpha());
        assert!(perm
            .effective_weights()
            .all_close(&bc.effective_weights(), 1e-6));
        // The physical order really is a non-identity shuffle for a
        // generic init.
        let p = perm.permutation().unwrap();
        assert!(p.data().iter().enumerate().any(|(i, &v)| v as usize != i));
    }

    #[test]
    fn perm_reference_row_is_frozen_at_its_physical_position() {
        let w = he_init(6, 4, 141);
        let dev = DeviceConfig::quantized_linear(4);
        let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Perm), dev).unwrap();
        let refs = p.reference_rows();
        assert_eq!(refs.len(), 1);
        let mid = dev.range().midpoint();
        let check = |p: &MappedParam| {
            let g = p.conductances().unwrap();
            for i in 0..p.n_in() {
                assert_eq!(g.at(&[refs[0], i]), mid, "reference moved");
            }
        };
        check(&p);
        let big = Tensor::full(&[6, 4], 5.0);
        p.accumulate_grad(&big).unwrap();
        p.apply_update(0.1);
        check(&p);
    }

    #[test]
    fn perm_state_round_trips_bitwise_through_a_snapshot() {
        use crate::persist::{collect_state, restore_state};
        use crate::{Dense, Layer};
        let dev = DeviceConfig::quantized_linear(4);
        let mut rng = XorShiftRng::new(150);
        let mut net = Dense::new(8, 5, WeightKind::Mapped(Mapping::Perm), dev, &mut rng).unwrap();
        // Train a few steps so shadow, perm, and update stream all carry
        // non-trivial state.
        let x = Tensor::rand_uniform(&[4, 8], -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform(&[4, 5], -0.5, 0.5, &mut rng);
        for _ in 0..5 {
            let y = net.forward(&x, true).unwrap();
            let diff = y.sub(&target).unwrap();
            net.zero_grad();
            net.backward(&diff).unwrap();
            net.update(0.05);
        }
        let snapshot = collect_state(&mut net);
        // The permutation is part of the persisted state.
        assert!(
            snapshot.iter().any(|item| item.name().ends_with(".perm")),
            "snapshot must carry the Perm row order"
        );
        let want = net.forward(&x, false).unwrap();
        // Restore into a fresh identically-constructed network (the
        // persistence contract: α and architecture are rebuilt from the
        // same constructor, trained state comes from the snapshot).
        let mut rng2 = XorShiftRng::new(150);
        let mut other =
            Dense::new(8, 5, WeightKind::Mapped(Mapping::Perm), dev, &mut rng2).unwrap();
        assert!(!other.forward(&x, false).unwrap().all_close(&want, 1e-6));
        restore_state(&mut other, &snapshot).unwrap();
        let got = other.forward(&x, false).unwrap();
        assert_eq!(got.data(), want.data(), "restore must be bitwise");
        assert_eq!(
            other.weights().permutation().unwrap().data(),
            net.weights().permutation().unwrap().data()
        );
    }

    #[test]
    fn tiled_fault_remap_stays_group_local() {
        use xbar_device::{FaultModel, TileShape};
        let w = he_init(12, 16, 137);
        let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(16, 4)));
        let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
        let grid = p.tile_grid().unwrap().clone();
        let clean = p.conductances().unwrap();
        let mut rng = XorShiftRng::new(138);
        let (_, remap) = p
            .apply_faults(FaultModel::uniform(0.02), 0.0, true, &mut rng)
            .unwrap();
        let remap = remap.unwrap();
        assert!(remap.stuck_cells() > 0);
        // Re-derive the sampled fault pattern: same seed, same draw order.
        let mut rng2 = XorShiftRng::new(138);
        let map = FaultModel::uniform(0.02).sample_map(grid.nd_total(), 16, &mut rng2);
        assert!(map.num_stuck() > 0);
        // The periphery is block-diagonal, so compensation for a fault in
        // one column group never touches another group's rows: any
        // (group, input-column) region with no fault must be unchanged.
        let programmed = p.effective_weights(); // forces the override path
        assert_eq!(programmed.shape(), [12, 16]);
        let faulty = match &p.variation_override {
            Some(t) => t.clone(),
            None => unreachable!("apply_faults installs an override"),
        };
        for g in grid.col_groups() {
            for col in 0..16 {
                let group_rows = g.dev_start..g.dev_start + g.dev_len;
                let has_fault = map
                    .iter_stuck()
                    .any(|(row, c, _)| c == col && group_rows.contains(&row));
                if has_fault {
                    continue;
                }
                for row in group_rows {
                    assert_eq!(
                        faulty.at(&[row, col]),
                        clean.at(&[row, col]),
                        "remap leaked into fault-free group region ({row}, {col})"
                    );
                }
            }
        }
    }

    /// A device with an active wear-out process and a physical tile bound,
    /// as the self-healing scrub path requires.
    fn lifetime_device(rate: f32, seed: u64) -> DeviceConfig {
        use xbar_device::{LifetimeFaultModel, TileShape};
        DeviceConfig::quantized_linear(4)
            .with_tile_shape(Some(TileShape::new(8, 8)))
            .with_lifetime_faults(LifetimeFaultModel::new(rate, seed).unwrap())
    }

    #[test]
    fn scrub_without_lifetime_faults_is_inert() {
        use crate::persist::collect_state;
        use crate::Dense;
        let w = he_init(6, 8, 160);
        let mut p =
            MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal())
                .unwrap();
        assert!(!p.scrub_active());
        assert_eq!(p.scrub_epoch(), 0);
        let before = p.effective_weights();
        let report = p.scrub_tick(true, &RepairPolicy::default()).unwrap();
        assert!(report.is_none(), "inactive lifetime must not scrub");
        assert_eq!(
            p.effective_weights().data(),
            before.data(),
            "a no-op tick must be bitwise invisible"
        );
        // The persisted component set is unchanged: no scrub entries, so
        // pre-existing checkpoints keep restoring.
        let mut rng = XorShiftRng::new(161);
        let mut net = Dense::new(
            8,
            6,
            WeightKind::Mapped(Mapping::Acm),
            DeviceConfig::ideal(),
            &mut rng,
        )
        .unwrap();
        let snapshot = collect_state(&mut net);
        assert!(
            snapshot.iter().all(|item| !item.name().contains("scrub")),
            "inactive lifetime must not add state components"
        );
    }

    #[test]
    fn scrub_state_round_trips_bitwise_through_a_snapshot() {
        use crate::persist::{collect_state, restore_state};
        use crate::{scrub_network, Dense, Layer};
        let mut rng = XorShiftRng::new(162);
        let mut net = Dense::new(
            24,
            12,
            WeightKind::Mapped(Mapping::Acm),
            lifetime_device(0.01, 24),
            &mut rng,
        )
        .unwrap();
        let x = Tensor::rand_uniform(&[4, 24], -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform(&[4, 12], -0.5, 0.5, &mut rng);
        let policy = RepairPolicy::default();
        let (mut detections, mut repairs) = (0, 0);
        // Interleave training and scrubbing so the snapshot carries
        // non-trivial shadow, health, and shift state.
        for _ in 0..6 {
            let y = net.forward(&x, true).unwrap();
            let diff = y.sub(&target).unwrap();
            net.zero_grad();
            net.backward(&diff).unwrap();
            net.update(0.05);
            let rep = scrub_network(&mut net, true, &policy).unwrap().unwrap();
            detections += rep.detections;
            repairs += rep.repairs.len();
        }
        assert!(detections > 0, "fault arrivals must trip the checksum");
        assert!(repairs > 0, "detections must trigger repair attempts");
        let snapshot = collect_state(&mut net);
        for suffix in ["scrub_epoch", "scrub_health", "scrub_shift"] {
            assert!(
                snapshot.iter().any(|item| item.name().ends_with(suffix)),
                "snapshot must carry {suffix}"
            );
        }
        let want = net.forward(&x, false).unwrap();
        // Restore into a fresh identically-constructed network: the served
        // (aged + healed) array is rebuilt from the persisted
        // (shadow, shift, health, epoch) alone.
        let mut rng2 = XorShiftRng::new(162);
        let mut other = Dense::new(
            24,
            12,
            WeightKind::Mapped(Mapping::Acm),
            lifetime_device(0.01, 24),
            &mut rng2,
        )
        .unwrap();
        restore_state(&mut other, &snapshot).unwrap();
        let got = other.forward(&x, false).unwrap();
        assert_eq!(got.data(), want.data(), "scrub restore must be bitwise");
    }

    #[test]
    fn saving_or_failing_to_restore_keeps_an_active_override() {
        use crate::persist::{collect_state, restore_state};
        use crate::{scrub_network, Dense, Layer};
        let mut rng = XorShiftRng::new(166);
        let mut net = Dense::new(
            24,
            12,
            WeightKind::Mapped(Mapping::Acm),
            lifetime_device(0.01, 24),
            &mut rng,
        )
        .unwrap();
        scrub_network(&mut net, true, &RepairPolicy::default())
            .unwrap()
            .unwrap();
        net.visit_mapped(&mut |p| p.apply_variation(0.2, &mut rng));
        let x = Tensor::rand_uniform(&[4, 24], -1.0, 1.0, &mut rng);
        let bits = |net: &mut Dense| -> Vec<u32> {
            let y = net.forward(&x, false).unwrap();
            y.data().iter().map(|v| v.to_bits()).collect()
        };
        let varied = bits(&mut net);
        // Saving reads the state; it must not rebuild the scrubbed view
        // over the variation the array is serving.
        let snapshot = collect_state(&mut net);
        assert_eq!(bits(&mut net), varied, "saving changed the forward");
        // A restore that fails validation writes nothing, so the served
        // array stays as it was.
        let bad = tampered(&snapshot, "scrub_epoch", |e| e[0] = 0.5);
        assert!(restore_state(&mut net, &bad).is_err());
        assert_eq!(
            bits(&mut net),
            varied,
            "a failed restore changed the forward"
        );
    }

    #[test]
    fn training_after_a_scrub_serves_what_a_restore_rebuilds() {
        // The sharded trainer restores every replica from the primary's
        // state each step, which rebuilds the scrubbed array from the
        // current weights; the primary must serve that same array after
        // its own update, or the shard count picks the conductances.
        use crate::persist::{collect_state, restore_state};
        use crate::{scrub_network, Dense, Layer};
        let make = || {
            let mut rng = XorShiftRng::new(169);
            Dense::new(
                24,
                12,
                WeightKind::Mapped(Mapping::Acm),
                lifetime_device(0.01, 24),
                &mut rng,
            )
            .unwrap()
        };
        let mut net = make();
        let mut rng = XorShiftRng::new(170);
        let x = Tensor::rand_uniform(&[4, 24], -1.0, 1.0, &mut rng);
        let target = Tensor::rand_uniform(&[4, 12], -0.5, 0.5, &mut rng);
        scrub_network(&mut net, true, &RepairPolicy::default())
            .unwrap()
            .unwrap();
        let y = net.forward(&x, true).unwrap();
        net.zero_grad();
        net.backward(&y.sub(&target).unwrap()).unwrap();
        net.update(0.5);
        let mut restored = make();
        restore_state(&mut restored, &collect_state(&mut net)).unwrap();
        let bits = |net: &mut Dense| -> Vec<u32> {
            let y = net.forward(&x, false).unwrap();
            y.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&mut net),
            bits(&mut restored),
            "the trained primary and its restored copy serve different arrays"
        );
    }

    /// `snapshot` with `tamper` applied to its tensor component whose
    /// name ends in `suffix`.
    fn tampered(
        snapshot: &[crate::persist::StateItem],
        suffix: &str,
        tamper: impl Fn(&mut [f32]),
    ) -> Vec<crate::persist::StateItem> {
        use crate::persist::StateItem;
        let mut out = snapshot.to_vec();
        let item = out
            .iter_mut()
            .find(|item| item.name().ends_with(suffix))
            .expect("component present");
        match item {
            StateItem::Tensor { value, .. } => tamper(value.data_mut()),
            StateItem::Rng { .. } => unreachable!("{suffix} is a tensor"),
        }
        out
    }

    /// Restores each of `bad` into `net`: every one must fail with a
    /// typed mismatch and leave the network's state and outputs as they
    /// were.
    fn assert_rejected(net: &mut crate::Dense, bad: &[(&str, Vec<crate::persist::StateItem>)]) {
        use crate::persist::{collect_state, restore_state, PersistError};
        use crate::Layer;
        let before = collect_state(net);
        let x = Tensor::rand_uniform(&[3, 24], -1.0, 1.0, &mut XorShiftRng::new(165));
        let y = net.forward(&x, false).unwrap();
        for (case, snapshot) in bad {
            let err = restore_state(net, snapshot).unwrap_err();
            assert!(
                matches!(err, PersistError::StateMismatch(_)),
                "{case}: {err}"
            );
            assert!(
                collect_state(net) == before,
                "{case}: the failed restore wrote state"
            );
        }
        assert_eq!(net.forward(&x, false).unwrap().data(), y.data());
        restore_state(net, &before).unwrap();
    }

    #[test]
    fn snapshot_with_invalid_scrub_state_is_a_typed_error() {
        use crate::persist::collect_state;
        use crate::{scrub_network, Dense};
        let mut rng = XorShiftRng::new(164);
        let mut net = Dense::new(
            24,
            12,
            WeightKind::Mapped(Mapping::Acm),
            lifetime_device(0.01, 27),
            &mut rng,
        )
        .unwrap();
        for _ in 0..3 {
            scrub_network(&mut net, true, &RepairPolicy::default()).unwrap();
        }
        let good = collect_state(&mut net);
        let bad = [
            (
                "tile-health code 7",
                tampered(&good, "scrub_health", |h| h[0] = 7.0),
            ),
            (
                "negative epoch",
                tampered(&good, "scrub_epoch", |e| e[0] = -1.0),
            ),
            (
                "fractional epoch",
                tampered(&good, "scrub_epoch", |e| e[0] = 2.5),
            ),
        ];
        assert_rejected(&mut net, &bad);
    }

    #[test]
    fn snapshot_with_invalid_perm_is_a_typed_error() {
        use crate::persist::collect_state;
        use crate::Dense;
        use xbar_device::TileShape;
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(Some(TileShape::new(8, 8)));
        let mut rng = XorShiftRng::new(166);
        let mut net = Dense::new(24, 12, WeightKind::Mapped(Mapping::Perm), dev, &mut rng).unwrap();
        assert!(net.weights().tile_grid().unwrap().col_groups().len() > 1);
        let good = collect_state(&mut net);
        let bad = [
            ("all zeros", tampered(&good, ".perm", |p| p.fill(0.0))),
            (
                "rows swapped across groups",
                tampered(&good, ".perm", |p| {
                    let last = p.len() - 1;
                    p.swap(0, last);
                }),
            ),
            ("negative row", tampered(&good, ".perm", |p| p[0] = -1.0)),
            ("fractional row", tampered(&good, ".perm", |p| p[0] += 0.5)),
            ("NaN row", tampered(&good, ".perm", |p| p[0] = f32::NAN)),
        ];
        assert_rejected(&mut net, &bad);
    }

    /// The int8 forward of `p` on `x`, as bits.
    fn int8_bits(p: &mut MappedParam, x: &Tensor) -> Vec<u32> {
        let y = p
            .forward_quantized(x, &QuantReadout::with_adc_bits(8))
            .unwrap();
        y.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Saves every state component of `src` and restores it into `dst`,
    /// through the same visitor hook a checkpoint uses.
    fn checkpoint_into(dst: &mut MappedParam, src: &mut MappedParam) {
        /// Records each visited component, or, once `restoring`, writes
        /// the recorded ones back in visit order.
        #[derive(Default)]
        struct Snapshot {
            tensors: std::collections::VecDeque<Tensor>,
            rngs: std::collections::VecDeque<XorShiftRng>,
            restoring: bool,
        }
        impl crate::StateVisitor for Snapshot {
            fn tensor(&mut self, _: &str, value: &mut Tensor) {
                if self.restoring {
                    *value = self
                        .tensors
                        .pop_front()
                        .expect("one saved tensor per visit");
                } else {
                    self.tensors.push_back(value.clone());
                }
            }
            fn rng(&mut self, _: &str, value: &mut XorShiftRng) {
                if self.restoring {
                    *value = self.rngs.pop_front().expect("one saved stream per visit");
                } else {
                    self.rngs.push_back(value.clone());
                }
            }
            fn restores(&self) -> bool {
                self.restoring
            }
        }
        let mut snapshot = Snapshot::default();
        src.visit_state("", &mut snapshot);
        snapshot.restoring = true;
        dst.visit_state("", &mut snapshot);
    }

    /// A large SGD step: moves every trainable conductance by several
    /// states.
    fn big_update(p: &mut MappedParam, rng: &mut XorShiftRng) {
        let g = Tensor::rand_uniform(&[p.n_out(), p.n_in()], -20.0, 20.0, rng);
        p.zero_grad();
        p.accumulate_grad(&g).unwrap();
        p.apply_update(0.05);
    }

    /// A weight change applied to both arms of the invalidation test.
    type Mutation = fn(&mut MappedParam, &mut XorShiftRng);

    #[test]
    fn every_weight_change_drops_the_int8_image() {
        use xbar_device::{DriftModel, FaultModel, LineResistanceModel};
        let nothing: Mutation = |_, _| {};
        // (name, set-up before the clone, the change)
        let cases: [(&str, Mutation, Mutation); 9] = [
            ("apply_update", nothing, big_update),
            ("apply_variation", nothing, |p, rng| {
                p.apply_variation(0.1, rng)
            }),
            ("apply_faults", nothing, |p, rng| {
                p.apply_faults(FaultModel::uniform(0.1), 0.02, true, rng)
                    .unwrap();
            }),
            ("apply_parasitics", nothing, |p, _| {
                p.apply_parasitics(LineResistanceModel::new(0.01), DriftModel::none())
                    .unwrap();
            }),
            ("set_inference_override", nothing, |p, rng| {
                let g = Tensor::rand_uniform(p.shadow().shape(), 0.0, 1.0, rng);
                p.set_inference_override(g);
            }),
            (
                "clear_variation",
                |p, rng| p.apply_variation(0.1, rng),
                |p, _| p.clear_variation(),
            ),
            ("scrub_tick", nothing, |p, _| {
                p.scrub_tick(true, &RepairPolicy::default()).unwrap();
            }),
            ("checkpoint restore", nothing, |p, rng| {
                let mut trained = p.clone();
                big_update(&mut trained, rng);
                checkpoint_into(p, &mut trained);
            }),
            ("checkpoint restore of a scrubbed array", nothing, |p, _| {
                let mut aged = p.clone();
                aged.scrub_tick(true, &RepairPolicy::default()).unwrap();
                checkpoint_into(p, &mut aged);
            }),
        ];
        let w = he_init(12, 20, 170);
        let x = Tensor::rand_uniform(&[4, 20], -1.0, 1.0, &mut XorShiftRng::new(171));
        for kind in Mapping::ALL.map(WeightKind::Mapped) {
            for (name, prepare, mutate) in cases {
                let mut warm =
                    MappedParam::from_signed(&w, kind, lifetime_device(0.05, 26)).unwrap();
                assert!(warm.tile_grid().unwrap().num_tiles() > 1);
                prepare(&mut warm, &mut XorShiftRng::new(172));
                let mut cold = warm.clone();
                let before = int8_bits(&mut warm, &x);
                mutate(&mut warm, &mut XorShiftRng::new(173));
                mutate(&mut cold, &mut XorShiftRng::new(173));
                let after = int8_bits(&mut cold, &x);
                assert_eq!(
                    int8_bits(&mut warm, &x),
                    after,
                    "{kind:?} {name}: stale int8 image"
                );
                assert_ne!(
                    after, before,
                    "{kind:?} {name}: the change must reach the readout"
                );
            }
        }
    }

    #[test]
    fn scrub_detection_recovers_weights_lost_to_faults() {
        let w = he_init(12, 24, 163);
        let mut on = MappedParam::from_signed(
            &w,
            WeightKind::Mapped(Mapping::Acm),
            lifetime_device(0.01, 25),
        )
        .unwrap();
        let mut off = on.clone();
        let clean = on.effective_weights();
        let policy = RepairPolicy::default();
        let mut detections = 0;
        for _ in 0..8 {
            detections += on.scrub_tick(true, &policy).unwrap().unwrap().detections;
            off.scrub_tick(false, &policy).unwrap().unwrap();
        }
        assert!(detections > 0, "faults must be detected in the on arm");
        assert_eq!(on.scrub_epoch(), 8);
        assert_eq!(off.scrub_epoch(), 8);
        let err = |p: &MappedParam| {
            let eff = p.effective_weights();
            eff.sub(&clean).unwrap().norm_sq().sqrt()
        };
        let (err_on, err_off) = (err(&on), err(&off));
        assert!(
            err_off > 0.0,
            "the maintenance-free arm must accumulate weight damage"
        );
        assert!(
            err_on < err_off,
            "detection + repair must serve weights closer to fault-free: \
             on {err_on} vs off {err_off}"
        );
    }
}
