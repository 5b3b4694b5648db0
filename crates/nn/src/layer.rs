use xbar_core::QuantReadout;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

use crate::{MappedParam, NnError};

/// Receives every persistent state component of a layer tree, in a fixed
/// deterministic order — the bridge between [`Layer::visit_state`] and the
/// checkpoint codec in [`crate::persist`].
///
/// Implementations either *read* the visited values (saving) or *write*
/// them (restoring); layers themselves stay agnostic of the direction.
pub trait StateVisitor {
    /// Visits a named tensor-valued state component (weights, biases,
    /// running statistics).
    fn tensor(&mut self, name: &str, value: &mut Tensor);

    /// Visits a named deterministic RNG stream (dropout masks, stochastic
    /// pulse rounding).
    fn rng(&mut self, name: &str, value: &mut XorShiftRng);

    /// Visits a tensor component whose value must also satisfy `check`,
    /// a rule its owner keeps beside the state it guards (`Err` names
    /// the violation). A restore's validation pass rejects a snapshot
    /// whose value breaks the rule before anything is written. The
    /// default ignores the rule and calls [`StateVisitor::tensor`].
    fn checked_tensor(
        &mut self,
        name: &str,
        value: &mut Tensor,
        _check: &dyn Fn(&Tensor) -> Result<(), String>,
    ) {
        self.tensor(name, value);
    }

    /// Whether this visitor may overwrite what it visits (a checkpoint
    /// restore). Owners rebuild state derived from the visited values
    /// only after such a visitor, so a visitor that writes must return
    /// `true`; the default, `false`, fits every visitor that only reads.
    fn restores(&self) -> bool {
        false
    }
}

/// A trainable network layer.
///
/// The contract is the classic three-phase cycle:
///
/// 1. [`Layer::forward`] — computes the output and caches whatever the
///    backward pass needs (`train = true`) or runs statelessly for
///    inference (`train = false`, e.g. batch norm uses running statistics);
/// 2. [`Layer::backward`] — consumes the cached state, accumulates
///    parameter gradients internally, and returns the gradient with
///    respect to the layer input;
/// 3. [`Layer::update`] — applies one vanilla-SGD step (through the device
///    update model for crossbar-mapped parameters) and is followed by
///    [`Layer::zero_grad`].
///
/// Layers with crossbar-mapped weights expose them through
/// [`Layer::visit_mapped`] so experiment harnesses can apply device
/// variation to every array in a network without knowing its structure.
///
/// Layers are `Send + Sync` plain data (no interior mutability — all
/// mutation goes through `&mut self`), and [`Layer::clone_box`] provides a
/// deep copy through the trait object. Together these let experiment
/// harnesses clone a trained network per worker and fan Monte-Carlo
/// trials across the compute pool.
pub trait Layer: Send + Sync {
    /// Short human-readable descriptor, e.g. `"dense 128->10 [ACM]"`.
    fn describe(&self) -> String;

    /// Deep-copies this layer as a boxed trait object — the object-safe
    /// stand-in for `Clone` that makes `Box<dyn Layer>` (and therefore
    /// [`Sequential`]) clonable.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Runs the layer forward. `train` selects training behaviour
    /// (caching, batch statistics).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError>;

    /// Inference forward that additionally *records* activation
    /// statistics for post-training quantization: layers with a
    /// quantized inference path (currently [`crate::Dense`]) extend
    /// their running input range with this batch. Run a few
    /// representative batches through this before
    /// [`Layer::forward_quantized`]; without calibration the quantized
    /// path derives its activation grid from each batch itself
    /// (convenient, but data-dependent). The default is a plain
    /// inference forward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn calibrate(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.forward(x, false)
    }

    /// Runs the layer in *quantized inference* mode: layers with an
    /// integer path (currently a mapped [`crate::Dense`]) quantize
    /// activations to `mode.act_bits`, read them through the crossbar's
    /// ADC-exact integer readout, and dequantize the result. Layers
    /// without an integer path — activations, pooling, and the fp32-only
    /// `Conv2d` — fall back to the plain inference forward, so a mixed
    /// network degrades gracefully rather than refusing to run.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible or a mapped
    /// parameter's device cannot support the integer readout, and
    /// [`NnError::State`] for a baseline (signed-weight) `Dense` layer,
    /// which has no crossbar to read out.
    fn forward_quantized(&mut self, x: &Tensor, mode: &QuantReadout) -> Result<Tensor, NnError> {
        let _ = mode;
        self.forward(x, false)
    }

    /// Backpropagates `grad` (same shape as the last forward output),
    /// returning the gradient with respect to the last forward input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::State`] if no forward pass preceded this call,
    /// or a shape error on mismatch.
    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError>;

    /// Applies one SGD step with learning rate `lr`. Parameter-free layers
    /// keep the default no-op.
    fn update(&mut self, lr: f32) {
        let _ = lr;
    }

    /// Clears accumulated gradients. Parameter-free layers keep the
    /// default no-op.
    fn zero_grad(&mut self) {}

    /// Total stored scalar parameters.
    fn num_params(&self) -> usize {
        0
    }

    /// Visits every crossbar-mapped parameter in this layer (and
    /// sub-layers).
    fn visit_mapped(&mut self, visit: &mut dyn FnMut(&mut MappedParam)) {
        let _ = visit;
    }

    /// Visits every accumulated-gradient tensor of this layer (and
    /// sub-layers) in a fixed deterministic order — the flatten/scatter
    /// hook behind the data-parallel trainer's gradient reduction
    /// ([`crate::train::TrainConfig::shards`]). The visit order must match
    /// across clones of the same network (it always does: clones share
    /// structure). Parameter-free layers keep the default no-op.
    fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        let _ = visit;
    }

    /// Visits the lengths of this layer's gradient tensors, in
    /// [`Layer::visit_grads`] order. Nothing in the workspace calls it; it
    /// is kept because the benchmark's span-recording wrapper layer
    /// (`benchmark/src/trace.rs`) overrides it.
    fn visit_grad_segments(&mut self, visit: &mut dyn FnMut(usize)) {
        self.visit_grads(&mut |g| visit(g.len()));
    }

    /// Visits every RNG stream consumed by the *forward* pass (dropout
    /// masks) in a fixed deterministic order. The data-parallel trainer
    /// re-seeds these per shard from the primary network's streams so that
    /// sharded training stays deterministic and resumable. Layers without
    /// forward-pass randomness keep the default no-op.
    fn visit_forward_rngs(&mut self, visit: &mut dyn FnMut(&mut XorShiftRng)) {
        let _ = visit;
    }

    /// Visits every batch-statistics tensor updated by a training forward
    /// pass (batch-norm running mean/variance) in a fixed deterministic
    /// order — the data-parallel trainer combines per-shard statistics
    /// into the primary network through this hook. Layers without batch
    /// statistics keep the default no-op.
    fn visit_batch_stats(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        let _ = visit;
    }

    /// Visits every *persistent* state component of this layer (and
    /// sub-layers) under `prefix`-qualified names: trained parameters,
    /// running statistics, and RNG streams — everything a checkpoint must
    /// capture for a resumed run to continue bitwise. Transient state
    /// (forward caches, accumulated gradients) is excluded: the training
    /// loop rebuilds it before use. Stateless layers keep the default
    /// no-op.
    ///
    /// The visit order must be deterministic and identical between save
    /// and restore — the persist codec matches components positionally and
    /// verifies names.
    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn StateVisitor) {
        let _ = (prefix, visitor);
    }
}

/// An ordered pipeline of layers, itself a [`Layer`].
///
/// # Example
///
/// ```
/// use xbar_nn::{Flatten, Relu, Sequential};
///
/// let mut net = Sequential::new();
/// net.push(Flatten::new());
/// net.push(Relu::new());
/// assert_eq!(net.len(), 2);
/// ```
#[derive(Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

impl Sequential {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Multi-line structural summary (one layer per line).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, l) in self.layers.iter().enumerate() {
            s.push_str(&format!("{i:>3}: {}\n", l.describe()));
        }
        s.push_str(&format!("total params: {}", self.num_params()));
        s
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Layer for Sequential {
    fn describe(&self) -> String {
        format!("sequential x{}", self.layers.len())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train)?;
        }
        Ok(cur)
    }

    fn calibrate(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.calibrate(&cur)?;
        }
        Ok(cur)
    }

    fn forward_quantized(&mut self, x: &Tensor, mode: &QuantReadout) -> Result<Tensor, NnError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward_quantized(&cur, mode)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur)?;
        }
        Ok(cur)
    }

    fn update(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.update(lr);
        }
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    fn visit_mapped(&mut self, visit: &mut dyn FnMut(&mut MappedParam)) {
        for layer in &mut self.layers {
            layer.visit_mapped(visit);
        }
    }

    fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_grads(visit);
        }
    }

    fn visit_forward_rngs(&mut self, visit: &mut dyn FnMut(&mut XorShiftRng)) {
        for layer in &mut self.layers {
            layer.visit_forward_rngs(visit);
        }
    }

    fn visit_batch_stats(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_batch_stats(visit);
        }
    }

    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn StateVisitor) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_state(&format!("{prefix}{i}."), visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relu;

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
        assert_eq!(net.forward(&x, true).unwrap(), x);
        assert_eq!(net.backward(&x).unwrap(), x);
        assert!(net.is_empty());
    }

    #[test]
    fn sequential_chains_layers() {
        let mut net = Sequential::new();
        net.push(Relu::new());
        net.push(Relu::new());
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
        let g = net.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(g.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sequential_clone_is_deep_and_independent() {
        let mut net = Sequential::new();
        net.push(Relu::new());
        let mut copy = net.clone();
        assert_eq!(copy.len(), net.len());
        // Forward on the copy (which caches state) must leave the
        // original able to run its own independent cycle.
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
        let y = copy.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[1.0, 0.0]);
        let y2 = net.forward(&x, true).unwrap();
        assert_eq!(y2.data(), y.data());
    }

    #[test]
    fn summary_lists_layers() {
        let mut net = Sequential::new();
        net.push(Relu::new());
        let s = net.summary();
        assert!(s.contains("relu"));
        assert!(s.contains("total params: 0"));
    }
}
