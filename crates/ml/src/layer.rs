//! Neural-network layers with hand-written backward passes.
//!
//! Every layer caches whatever its backward pass needs during `forward`, so a
//! `forward` → `backward` pair computes exact gradients (checked against
//! finite differences in this module's tests and in crate-level proptests).

use crate::module::Param;
use flor_tensor::{init, ops, Pcg64, Shape, Tensor};

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations; `backward` *accumulates*
/// into parameter gradients and returns the gradient with respect to the
/// layer input.
///
/// Layers are `Send` and clone through [`LayerClone`], so a model can be
/// built once and handed out many times: a copy shares every tensor slab
/// copy-on-write.
pub trait Layer: LayerClone + Send {
    /// Forward pass. Caches anything backward will need.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass: accumulates parameter gradients, returns `d loss / d x`.
    ///
    /// Must be called after `forward` with a gradient of the same shape as
    /// the forward output.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits this layer's parameters mutably.
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits this layer's parameters immutably.
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Boxed copies of layers, implemented for every `Clone` layer.
pub trait LayerClone {
    /// A boxed copy of this layer.
    fn box_clone(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn box_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x W + b` over `[batch, in] → [batch, out]`.
#[derive(Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// New trainable layer with Kaiming-normal weights and zero bias.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut Pcg64) -> Self {
        Linear {
            weight: Param::new("weight", init::kaiming_normal(fan_in, fan_out, rng)),
            bias: Param::new("bias", Tensor::zeros([fan_out])),
            cached_input: None,
        }
    }

    /// New layer with *frozen* weights (pretrained-style; skipped by
    /// optimizers but still present in checkpoints).
    pub(crate) fn new_frozen(fan_in: usize, fan_out: usize, rng: &mut Pcg64) -> Self {
        let mut l = Self::new(fan_in, fan_out, rng);
        l.weight.frozen = true;
        l.bias.frozen = true;
        l
    }

    /// New trainable layer initialized to zero — the "zero-init residual"
    /// trick: the last layer of a residual branch starts at zero so every
    /// block begins as the identity, keeping deep stacks stable at init.
    pub(crate) fn new_zero(fan_in: usize, fan_out: usize) -> Self {
        Linear {
            weight: Param::new("weight", Tensor::zeros([fan_in, fan_out])),
            bias: Param::new("bias", Tensor::zeros([fan_out])),
            cached_input: None,
        }
    }

    /// Read access to the weight parameter (probed by hindsight logs).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_input = Some(x.clone());
        x.matmul(&self.weight.value)
            .add_row_broadcast(&self.bias.value)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        if !self.weight.frozen {
            self.weight.grad.axpy(1.0, &x.transpose().matmul(grad_out));
        }
        if !self.bias.frozen {
            self.bias.grad.axpy(1.0, &grad_out.sum_rows());
        }
        grad_out.matmul(&self.weight.value.transpose())
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// The supported pointwise nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// A parameter-free pointwise activation layer.
#[derive(Clone)]
pub struct Activation {
    kind: ActKind,
    cached: Option<Tensor>, // input for Relu/Gelu, output for Tanh/Sigmoid
}

impl Activation {
    /// New activation of the given kind.
    pub fn new(kind: ActKind) -> Self {
        Activation { kind, cached: None }
    }

    /// Shorthand for `Activation::new(ActKind::Relu)`.
    pub fn relu() -> Self {
        Self::new(ActKind::Relu)
    }

    /// Shorthand for `Activation::new(ActKind::Tanh)`.
    pub fn tanh() -> Self {
        Self::new(ActKind::Tanh)
    }

    /// Shorthand for `Activation::new(ActKind::Gelu)`.
    pub fn gelu() -> Self {
        Self::new(ActKind::Gelu)
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        match self.kind {
            ActKind::Relu => {
                self.cached = Some(x.clone());
                ops::relu(x)
            }
            ActKind::Gelu => {
                self.cached = Some(x.clone());
                ops::gelu(x)
            }
            ActKind::Tanh => {
                let y = ops::tanh(x);
                self.cached = Some(y.clone());
                y
            }
            ActKind::Sigmoid => {
                let y = ops::sigmoid(x);
                self.cached = Some(y.clone());
                y
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cached = self
            .cached
            .as_ref()
            .expect("Activation::backward called before forward");
        match self.kind {
            ActKind::Relu => ops::relu_backward(cached, grad_out),
            ActKind::Tanh => ops::tanh_backward(cached, grad_out),
            ActKind::Sigmoid => ops::sigmoid_backward(cached, grad_out),
            ActKind::Gelu => {
                // d/dx of the tanh-approximated GELU, from the cached input.
                const K: f32 = 0.797_884_6; // sqrt(2/pi)
                const A: f32 = 0.044_715;
                cached.zip(grad_out, |x, g| {
                    let u = K * (x + A * x * x * x);
                    let t = u.tanh();
                    let du = K * (1.0 + 3.0 * A * x * x);
                    g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// Token-embedding layer with mean pooling:
/// `[batch, seq]` of token ids (stored as `f32`) → `[batch, dim]`.
///
/// Mean pooling keeps the rest of a text model a plain `[batch, features]`
/// pipeline, which is all the miniature GLUE-style workloads need.
#[derive(Clone)]
pub(crate) struct Embedding {
    weight: Param,
    vocab: usize,
    dim: usize,
    cached_ids: Option<Tensor>,
}

impl Embedding {
    /// New embedding table of `vocab × dim` with small normal init.
    pub fn new(vocab: usize, dim: usize, rng: &mut Pcg64) -> Self {
        Embedding {
            weight: Param::new("weight", init::normal([vocab, dim], 0.0, 0.02, rng)),
            vocab,
            dim,
            cached_ids: None,
        }
    }

    fn id_at(&self, ids: &Tensor, flat: usize) -> usize {
        let raw = ids.data()[flat];
        let id = raw as usize;
        assert!(
            raw >= 0.0 && id < self.vocab,
            "token id {raw} out of range for vocab {}",
            self.vocab
        );
        id
    }
}

impl Layer for Embedding {
    fn forward(&mut self, ids: &Tensor) -> Tensor {
        assert_eq!(ids.shape().rank(), 2, "Embedding expects [batch, seq] ids");
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        assert!(seq > 0, "Embedding expects non-empty sequences");
        self.cached_ids = Some(ids.clone());
        let mut out = Tensor::zeros([batch, self.dim]);
        for b in 0..batch {
            for s in 0..seq {
                let id = self.id_at(ids, b * seq + s);
                let row = &self.weight.value.data()[id * self.dim..(id + 1) * self.dim];
                let dst = &mut out.data_mut()[b * self.dim..(b + 1) * self.dim];
                for (d, &w) in dst.iter_mut().zip(row) {
                    *d += w;
                }
            }
        }
        out.scale(1.0 / seq as f32)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let ids = self
            .cached_ids
            .as_ref()
            .expect("Embedding::backward called before forward")
            .clone();
        let (batch, seq) = (ids.shape().dim(0), ids.shape().dim(1));
        if !self.weight.frozen {
            let inv = 1.0 / seq as f32;
            for b in 0..batch {
                for s in 0..seq {
                    let id = self.id_at(&ids, b * seq + s);
                    let src = &grad_out.data()[b * self.dim..(b + 1) * self.dim];
                    let dst = &mut self.weight.grad.data_mut()[id * self.dim..(id + 1) * self.dim];
                    for (d, &g) in dst.iter_mut().zip(src) {
                        *d += g * inv;
                    }
                }
            }
        }
        // Token ids are not differentiable.
        Tensor::zeros(ids.shape().clone())
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Layer normalization over the last dimension of `[batch, dim]`, with
/// learned scale (`gamma`) and shift (`beta`).
#[derive(Clone)]
pub(crate) struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    cached: Option<(Tensor, Vec<f32>)>, // normalized x-hat and per-row inv std
}

impl LayerNorm {
    /// New layer norm for feature dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new("gamma", Tensor::ones([dim])),
            beta: Param::new("beta", Tensor::zeros([dim])),
            eps: 1e-5,
            cached: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "LayerNorm expects [batch, dim]");
        let (batch, dim) = (x.shape().dim(0), x.shape().dim(1));
        let mut xhat = x.clone();
        let mut inv_stds = Vec::with_capacity(batch);
        for r in 0..batch {
            let row = &mut xhat.data_mut()[r * dim..(r + 1) * dim];
            let mean = row.iter().sum::<f32>() / dim as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        let mut out = xhat.clone();
        for r in 0..batch {
            let row = &mut out.data_mut()[r * dim..(r + 1) * dim];
            for (c, v) in row.iter_mut().enumerate() {
                *v = *v * self.gamma.value.data()[c] + self.beta.value.data()[c];
            }
        }
        self.cached = Some((xhat, inv_stds));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (xhat, inv_stds) = self
            .cached
            .as_ref()
            .expect("LayerNorm::backward called before forward");
        let (batch, dim) = (grad_out.shape().dim(0), grad_out.shape().dim(1));
        let mut dx = Tensor::zeros(grad_out.shape().clone());
        for (r, &inv_std) in inv_stds.iter().enumerate().take(batch) {
            let g = &grad_out.data()[r * dim..(r + 1) * dim];
            let xh = &xhat.data()[r * dim..(r + 1) * dim];
            // dgamma, dbeta accumulate across the batch.
            if !self.gamma.frozen {
                for c in 0..dim {
                    self.gamma.grad.data_mut()[c] += g[c] * xh[c];
                    self.beta.grad.data_mut()[c] += g[c];
                }
            }
            // dxhat = g * gamma; dx = inv_std * (dxhat - mean(dxhat)
            //          - xhat * mean(dxhat * xhat))
            let gamma = self.gamma.value.data();
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for c in 0..dim {
                let dxh = g[c] * gamma[c];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[c];
            }
            mean_dxhat /= dim as f32;
            mean_dxhat_xhat /= dim as f32;
            let row = &mut dx.data_mut()[r * dim..(r + 1) * dim];
            for c in 0..dim {
                let dxh = g[c] * gamma[c];
                row[c] = inv_std * (dxh - mean_dxhat - xh[c] * mean_dxhat_xhat);
            }
        }
        dx
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// 1-D valid convolution over `[batch, in_ch, len] → [batch, out_ch, len-k+1]`
/// (the Jasper-style speech workloads are stacks of these).
#[derive(Clone)]
pub(crate) struct Conv1d {
    weight: Param, // [out_ch, in_ch, k]
    bias: Param,   // [out_ch]
    in_ch: usize,
    out_ch: usize,
    k: usize,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// New trainable 1-D convolution with kernel width `k`.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, rng: &mut Pcg64) -> Self {
        let std = (2.0 / (in_ch * k) as f32).sqrt();
        Conv1d {
            weight: Param::new("weight", init::normal([out_ch, in_ch, k], 0.0, std, rng)),
            bias: Param::new("bias", Tensor::zeros([out_ch])),
            in_ch,
            out_ch,
            k,
            cached_input: None,
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 3, "Conv1d expects [batch, in_ch, len]");
        assert_eq!(x.shape().dim(1), self.in_ch, "Conv1d in_ch mismatch");
        let (batch, len) = (x.shape().dim(0), x.shape().dim(2));
        assert!(len >= self.k, "Conv1d input shorter than kernel");
        let out_len = len - self.k + 1;
        self.cached_input = Some(x.clone());
        let mut out = Tensor::zeros([batch, self.out_ch, out_len]);
        let w = self.weight.value.data();
        let xd = x.data();
        let od = out.data_mut();
        for b in 0..batch {
            for o in 0..self.out_ch {
                for p in 0..out_len {
                    let mut acc = self.bias.value.data()[o];
                    for i in 0..self.in_ch {
                        let xrow = &xd[(b * self.in_ch + i) * len + p..][..self.k];
                        let wrow = &w[(o * self.in_ch + i) * self.k..][..self.k];
                        for (xv, wv) in xrow.iter().zip(wrow) {
                            acc += xv * wv;
                        }
                    }
                    od[(b * self.out_ch + o) * out_len + p] = acc;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv1d::backward called before forward");
        let (batch, len) = (x.shape().dim(0), x.shape().dim(2));
        let out_len = len - self.k + 1;
        let mut dx = Tensor::zeros(x.shape().clone());
        let g = grad_out.data();
        let xd = x.data();
        let w = self.weight.value.data();
        let frozen = self.weight.frozen;
        for b in 0..batch {
            for o in 0..self.out_ch {
                let grow = &g[(b * self.out_ch + o) * out_len..][..out_len];
                if !self.bias.frozen {
                    self.bias.grad.data_mut()[o] += grow.iter().sum::<f32>();
                }
                for i in 0..self.in_ch {
                    for t in 0..self.k {
                        if !frozen {
                            let mut acc = 0.0f32;
                            for (p, &gv) in grow.iter().enumerate() {
                                acc += xd[(b * self.in_ch + i) * len + p + t] * gv;
                            }
                            self.weight.grad.data_mut()[(o * self.in_ch + i) * self.k + t] += acc;
                        }
                        let wv = w[(o * self.in_ch + i) * self.k + t];
                        let dxrow = &mut dx.data_mut()[(b * self.in_ch + i) * len..][..len];
                        for (p, &gv) in grow.iter().enumerate() {
                            dxrow[p + t] += wv * gv;
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flattens `[batch, …] → [batch, rest]`, remembering the input shape for
/// backward. Bridges Conv1d stacks to Linear heads.
#[derive(Clone)]
pub(crate) struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert!(x.shape().rank() >= 2, "Flatten expects rank >= 2");
        self.cached_shape = Some(x.shape().clone());
        let batch = x.shape().dim(0);
        x.reshape([batch, x.numel() / batch])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward called before forward");
        grad_out.reshape(shape.clone())
    }
}

// ---------------------------------------------------------------------------
// ToChannels
// ---------------------------------------------------------------------------

/// Reshapes `[batch, features] → [batch, channels, features/channels]`,
/// adapting flat feature batches to 1-D convolutional stacks (speech-style
/// models treat the feature vector as a waveform with `channels` bands).
#[derive(Clone)]
pub(crate) struct ToChannels {
    channels: usize,
}

impl ToChannels {
    /// New adapter splitting features into `channels` bands.
    ///
    /// # Panics
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        ToChannels { channels }
    }
}

impl Layer for ToChannels {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "ToChannels expects [batch, features]");
        let (batch, features) = (x.shape().dim(0), x.shape().dim(1));
        assert_eq!(
            features % self.channels,
            0,
            "features {features} not divisible by channels {}",
            self.channels
        );
        x.reshape([batch, self.channels, features / self.channels])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (batch, ch, len) = (
            grad_out.shape().dim(0),
            grad_out.shape().dim(1),
            grad_out.shape().dim(2),
        );
        grad_out.reshape([batch, ch * len])
    }
}

// ---------------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------------

/// Residual (skip) connection: `y = x + f(x)` where `f` is an inner layer
/// stack. The building block of the ResNet-style miniature workloads.
#[derive(Clone)]
pub(crate) struct Residual {
    inner: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// New residual block around an inner layer stack.
    pub fn new() -> Self {
        Residual { inner: Vec::new() }
    }

    /// Appends a layer to the inner stack (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.inner.push(Box::new(layer));
        self
    }
}

impl Default for Residual {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.inner {
            cur = layer.forward(&cur);
        }
        assert_eq!(
            cur.shape(),
            x.shape(),
            "Residual inner stack must preserve shape"
        );
        cur.add(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.inner.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad.add(grad_out)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.inner {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.inner {
            layer.visit_params(f);
        }
    }
}

// ---------------------------------------------------------------------------
// FrozenBackbone
// ---------------------------------------------------------------------------

/// A pretrained-style backbone: a frozen projection used in the forward pass
/// plus a large frozen "ballast" parameter block standing in for the rest of
/// a pretrained model's weight mass (unused heads, full embedding tables).
///
/// This reproduces the state/compute profile of the paper's fine-tuning
/// workloads (RTE, CoLA): "the vast majority of weights are frozen in model
/// fine-tuning, so a loop execution quickly updates a small fraction of
/// values in an enormous model" (§5.3.4) — which is exactly the regime where
/// Flor's adaptive checkpointing switches to periodic (sparse) checkpoints.
#[derive(Clone)]
pub(crate) struct FrozenBackbone {
    proj: Linear,
    ballast: Param,
}

impl FrozenBackbone {
    /// New backbone projecting `fan_in → fan_out` with `ballast_numel`
    /// additional frozen weights.
    pub fn new(fan_in: usize, fan_out: usize, ballast_numel: usize, rng: &mut Pcg64) -> Self {
        FrozenBackbone {
            proj: Linear::new_frozen(fan_in, fan_out, rng),
            ballast: Param::frozen("ballast", init::normal([ballast_numel], 0.0, 0.02, rng)),
        }
    }
}

impl Layer for FrozenBackbone {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.proj.forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.proj.backward(grad_out)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.proj.visit_params_mut(f);
        f(&mut self.ballast);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.proj.visit_params(f);
        f(&self.ballast);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks `d loss / d param` for a layer with a scalar loss
    /// `sum(forward(x) * probe)`.
    fn grad_check(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let probe = {
            let mut rng = Pcg64::seeded(777);
            let y = layer.forward(x);
            init::uniform(y.shape().clone(), -1.0, 1.0, &mut rng)
        };
        // Analytic gradients.
        layer.visit_params_mut(&mut |p| p.zero_grad());
        let _y = layer.forward(x);
        layer.backward(&probe);
        let mut analytic: Vec<(String, Tensor)> = Vec::new();
        layer.visit_params(&mut |p| analytic.push((p.name.clone(), p.grad.clone())));

        // Finite differences, parameter by parameter.
        let eps = 1e-2f32;
        let mut param_idx = 0;
        loop {
            let mut names = Vec::new();
            layer.visit_params(&mut |p| names.push(p.name.clone()));
            if param_idx >= names.len() {
                break;
            }
            let numel = {
                let mut n = 0;
                let mut i = 0;
                layer.visit_params(&mut |p| {
                    if i == param_idx {
                        n = p.value.numel();
                    }
                    i += 1;
                });
                n
            };
            let is_frozen = {
                let mut fz = false;
                let mut i = 0;
                layer.visit_params(&mut |p| {
                    if i == param_idx {
                        fz = p.frozen;
                    }
                    i += 1;
                });
                fz
            };
            if is_frozen {
                // Frozen params must have zero grad.
                assert_eq!(analytic[param_idx].1.sum(), 0.0);
                param_idx += 1;
                continue;
            }
            // Sample a few coordinates to keep the test fast.
            let coords: Vec<usize> = (0..numel).step_by((numel / 6).max(1)).collect();
            for &c in &coords {
                let perturb = |delta: f32, layer: &mut dyn Layer| -> f32 {
                    let mut i = 0;
                    layer.visit_params_mut(&mut |p| {
                        if i == param_idx {
                            p.value.data_mut()[c] += delta;
                        }
                        i += 1;
                    });
                    let y = layer.forward(x);
                    let loss = y.mul(&probe).sum();
                    let mut i = 0;
                    layer.visit_params_mut(&mut |p| {
                        if i == param_idx {
                            p.value.data_mut()[c] -= delta;
                        }
                        i += 1;
                    });
                    loss
                };
                let lp = perturb(eps, layer);
                let lm = perturb(-eps, layer);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic[param_idx].1.data()[c];
                assert!(
                    (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                    "param {} coord {}: finite-diff {} vs analytic {}",
                    analytic[param_idx].0,
                    c,
                    fd,
                    an
                );
            }
            param_idx += 1;
        }
    }

    /// Numerically checks `d loss / d x`.
    fn input_grad_check(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let probe = {
            let mut rng = Pcg64::seeded(778);
            let y = layer.forward(x);
            init::uniform(y.shape().clone(), -1.0, 1.0, &mut rng)
        };
        layer.visit_params_mut(&mut |p| p.zero_grad());
        let _ = layer.forward(x);
        let dx = layer.backward(&probe);
        let eps = 1e-2f32;
        let coords: Vec<usize> = (0..x.numel()).step_by((x.numel() / 6).max(1)).collect();
        for &c in &coords {
            let mut xp = x.clone();
            xp.data_mut()[c] += eps;
            let mut xm = x.clone();
            xm.data_mut()[c] -= eps;
            let lp = layer.forward(&xp).mul(&probe).sum();
            let lm = layer.forward(&xm).mul(&probe).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.data()[c];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "input coord {c}: finite-diff {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn linear_param_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(1);
        let mut l = Linear::new(5, 4, &mut rng);
        let x = init::uniform([3, 5], -1.0, 1.0, &mut rng);
        grad_check(&mut l, &x, 1e-2);
    }

    #[test]
    fn linear_input_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(2);
        let mut l = Linear::new(5, 4, &mut rng);
        let x = init::uniform([3, 5], -1.0, 1.0, &mut rng);
        input_grad_check(&mut l, &x, 1e-2);
    }

    #[test]
    fn frozen_linear_accumulates_no_grads() {
        let mut rng = Pcg64::seeded(3);
        let mut l = Linear::new_frozen(4, 4, &mut rng);
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        let y = l.forward(&x);
        l.backward(&Tensor::ones(y.shape().clone()));
        l.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0, "{} has grad", p.name));
    }

    #[test]
    fn activation_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(4);
        for kind in [
            ActKind::Relu,
            ActKind::Tanh,
            ActKind::Sigmoid,
            ActKind::Gelu,
        ] {
            let mut l = Activation::new(kind);
            // Stay away from relu's kink at 0.
            let x = init::uniform([2, 6], 0.1, 1.5, &mut rng);
            input_grad_check(&mut l, &x, 2e-2);
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Pcg64::seeded(5);
        let mut l = LayerNorm::new(8);
        let x = init::uniform([3, 8], -5.0, 5.0, &mut rng);
        let y = l.forward(&x);
        for r in 0..3 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean = row.iter().sum::<f32>() / 8.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(6);
        let mut l = LayerNorm::new(6);
        let x = init::uniform([3, 6], -2.0, 2.0, &mut rng);
        grad_check(&mut l, &x, 2e-2);
        input_grad_check(&mut l, &x, 2e-2);
    }

    #[test]
    fn conv1d_output_shape() {
        let mut rng = Pcg64::seeded(7);
        let mut c = Conv1d::new(2, 3, 4, &mut rng);
        let x = init::uniform([2, 2, 10], -1.0, 1.0, &mut rng);
        let y = c.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3, 7]);
    }

    #[test]
    fn conv1d_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(8);
        let mut c = Conv1d::new(2, 2, 3, &mut rng);
        let x = init::uniform([2, 2, 6], -1.0, 1.0, &mut rng);
        grad_check(&mut c, &x, 2e-2);
        input_grad_check(&mut c, &x, 2e-2);
    }

    #[test]
    fn embedding_mean_pools() {
        let mut rng = Pcg64::seeded(9);
        let mut e = Embedding::new(10, 4, &mut rng);
        let ids = Tensor::new([1, 2], vec![3.0, 7.0]);
        let y = e.forward(&ids);
        let w = &e.weight.value;
        for d in 0..4 {
            let expect = 0.5 * (w.data()[3 * 4 + d] + w.data()[7 * 4 + d]);
            assert!((y.data()[d] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn embedding_weight_grads_scatter() {
        let mut rng = Pcg64::seeded(10);
        let mut e = Embedding::new(10, 2, &mut rng);
        let ids = Tensor::new([1, 2], vec![1.0, 1.0]); // same token twice
        let _y = e.forward(&ids);
        e.backward(&Tensor::new([1, 2], vec![1.0, 2.0]));
        // Both occurrences scatter grad/seq to token 1's row.
        assert!((e.weight.grad.data()[2] - 1.0).abs() < 1e-6);
        assert!((e.weight.grad.data()[3] - 2.0).abs() < 1e-6);
        // Untouched rows stay zero.
        assert_eq!(e.weight.grad.data()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_rejects_out_of_vocab() {
        let mut rng = Pcg64::seeded(11);
        let mut e = Embedding::new(4, 2, &mut rng);
        e.forward(&Tensor::new([1, 1], vec![9.0]));
    }

    #[test]
    fn to_channels_reshape_roundtrip() {
        let mut tc = ToChannels::new(2);
        let x = Tensor::new([3, 8], (0..24).map(|i| i as f32).collect());
        let y = tc.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 2, 4]);
        let back = tc.backward(&y);
        assert_eq!(back, x);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn to_channels_rejects_indivisible_features() {
        ToChannels::new(3).forward(&Tensor::zeros([2, 8]));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::new([2, 3, 4], (0..24).map(|i| i as f32).collect());
        let y = f.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let back = f.backward(&y);
        assert_eq!(back, x);
    }

    #[test]
    fn residual_adds_skip_path() {
        let mut r = Residual::new(); // empty inner stack: y = x + x
        let x = Tensor::from_slice(&[1.0, 2.0]).reshape([1, 2]);
        assert_eq!(r.forward(&x).data(), &[2.0, 4.0]);
        let g = r.backward(&Tensor::new([1, 2], vec![1.0, 1.0]));
        assert_eq!(g.data(), &[2.0, 2.0]);
    }

    #[test]
    fn residual_grads_match_finite_difference() {
        let mut rng = Pcg64::seeded(12);
        let mut r = Residual::new()
            .push(Linear::new(4, 4, &mut rng))
            .push(Activation::tanh());
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        grad_check(&mut r, &x, 2e-2);
        input_grad_check(&mut r, &x, 2e-2);
    }

    #[test]
    fn frozen_backbone_has_large_frozen_state() {
        let mut rng = Pcg64::seeded(13);
        let mut fb = FrozenBackbone::new(4, 4, 10_000, &mut rng);
        let mut total = 0;
        let mut frozen = 0;
        fb.visit_params(&mut |p| {
            total += p.value.numel();
            if p.frozen {
                frozen += p.value.numel();
            }
        });
        assert_eq!(total, frozen, "backbone must be fully frozen");
        assert!(total > 10_000);
        let x = Tensor::ones([1, 4]);
        let y = fb.forward(&x);
        fb.backward(&Tensor::ones(y.shape().clone()));
        fb.visit_params(&mut |p| assert_eq!(p.grad.sum(), 0.0));
    }
}
