//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a computation as a sequence of nodes; calling
//! [`Tape::backward`] on a scalar node fills in gradients for every node
//! that (transitively) produced it, including parameter leaves. The op set
//! is exactly what the DeepSD architecture needs:
//!
//! * affine layers (`matmul` + `add_bias`) with leaky-ReLU activations,
//! * embedding lookups (`gather`) for AreaID / TimeID / WeekID / weather
//!   type,
//! * column-wise `concat` (the paper's Concatenate Layer),
//! * element-wise `add`/`sub` for the block-residual shortcut connections,
//! * row-wise `softmax` plus `weighted_combine` for the learned weekday
//!   combining weights of the advanced model (Eq. 1),
//! * inverted `dropout`, and the MSE loss the paper trains on.
//!
//! Parameters are leaves tagged with their [`ParamId`]; one parameter may
//! back several leaves (DeepSD shares the AreaID and WeekID embeddings
//! between the identity part and the extended order part), and gradients
//! from all uses are accumulated per id.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use deepsd_rng::Rng;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Op {
    /// Input, constant or parameter leaf.
    Leaf,
    /// `a @ b`.
    MatMul(NodeId, NodeId),
    /// `x + bias` where `bias` is `1 x cols`, broadcast over rows.
    AddBias(NodeId, NodeId),
    /// Element-wise `a + b` (residual shortcut).
    Add(NodeId, NodeId),
    /// Element-wise `a - b`.
    Sub(NodeId, NodeId),
    /// `alpha * x`.
    Scale(NodeId, f32),
    /// `max(slope * x, x)`; DeepSD uses slope = 0.001.
    LeakyRelu(NodeId, f32),
    /// Column-wise concatenation.
    Concat(Vec<NodeId>),
    /// Column slice `[start, start + width)`.
    Slice {
        input: NodeId,
        start: usize,
        width: usize,
    },
    /// Row-wise softmax; stores nothing extra (output is on the node).
    SoftmaxRows(NodeId),
    /// Row gather from a (parameter) table; `indices[b]` selects the row
    /// backing output row `b`.
    Gather { table: NodeId, indices: Vec<usize> },
    /// `out[b, j] = sum_k weights[b, k] * basis[b, k * dim + j]`.
    ///
    /// `basis` is data (the stacked per-weekday history vectors), not a
    /// differentiable node.
    WeightedCombine {
        weights: NodeId,
        basis: Matrix,
        dim: usize,
    },
    /// Inverted dropout; `mask` entries are `0` or `1 / keep_prob`.
    Dropout { input: NodeId, mask: Matrix },
    /// Mean of `(pred - target)^2`.
    MseLoss { pred: NodeId, target: Matrix },
    /// Mean of all entries (scalar).
    Mean(NodeId),
    /// Sum of all entries (scalar).
    Sum(NodeId),
}

struct Node {
    value: Matrix,
    op: Op,
    param: Option<ParamId>,
}

/// A single parameter gradient: dense, or row-sparse.
///
/// Embedding tables only receive gradient mass on the rows actually
/// gathered in a batch, so [`Op::Gather`]'s backward emits the
/// `RowSparse` form instead of materialising a full `vocab x dim` zero
/// matrix. Every other op produces `Dense`. Optimisers apply row-sparse
/// gradients by touching only the listed rows, making the per-step cost
/// O(touched rows) instead of O(vocab).
#[derive(Debug, Clone)]
pub enum Grad {
    /// Fully materialised gradient.
    Dense(Matrix),
    /// Row-sparse gradient: only `indices` rows carry mass, every other
    /// row of the virtual `full_rows x rows.cols()` gradient is zero.
    RowSparse {
        /// Row count of the full (virtual) gradient.
        full_rows: usize,
        /// Strictly increasing row indices with gradient mass.
        indices: Vec<usize>,
        /// `indices.len() x cols` packed rows; row `i` is the gradient
        /// of full row `indices[i]`.
        rows: Matrix,
    },
}

impl Grad {
    /// Shape of the full (virtual) gradient.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Grad::Dense(m) => m.shape(),
            Grad::RowSparse {
                full_rows, rows, ..
            } => (*full_rows, rows.cols()),
        }
    }

    /// True for the row-sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Grad::RowSparse { .. })
    }

    /// Entry of the full gradient (zero for unlisted sparse rows).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        match self {
            Grad::Dense(m) => m.get(r, c),
            Grad::RowSparse { indices, rows, .. } => match indices.binary_search(&r) {
                Ok(i) => rows.get(i, c),
                Err(_) => 0.0,
            },
        }
    }

    /// Materialises the full gradient as a matrix, borrowing `self`.
    pub fn to_dense(&self) -> Matrix {
        match self {
            Grad::Dense(m) => m.clone(),
            Grad::RowSparse {
                full_rows,
                indices,
                rows,
            } => {
                let mut out = Matrix::zeros(*full_rows, rows.cols());
                for (i, &r) in indices.iter().enumerate() {
                    out.row_mut(r).copy_from_slice(rows.row(i));
                }
                out
            }
        }
    }

    /// Materialises the full gradient, consuming `self` (no copy when
    /// already dense).
    pub fn into_dense(self) -> Matrix {
        match self {
            Grad::Dense(m) => m,
            sparse => sparse.to_dense(),
        }
    }

    /// Largest absolute entry (implicit zero rows cannot raise it).
    pub fn max_abs(&self) -> f32 {
        match self {
            Grad::Dense(m) => m.max_abs(),
            Grad::RowSparse { rows, .. } => rows.max_abs(),
        }
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&mut self, factor: f32) {
        match self {
            Grad::Dense(m) => m.scale(factor),
            Grad::RowSparse { rows, .. } => rows.scale(factor),
        }
    }

    /// Adds `incoming` into `self` (`self += incoming`).
    ///
    /// Sparse + sparse stays sparse (sorted union of the row sets);
    /// every mixed combination densifies. The per-entry fold order is
    /// `existing + incoming`, matching what dense scatter-accumulation
    /// would compute.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn accumulate(&mut self, incoming: Grad) {
        assert_eq!(
            self.shape(),
            incoming.shape(),
            "Grad::accumulate shape mismatch"
        );
        match (&mut *self, incoming) {
            (Grad::Dense(a), Grad::Dense(b)) => a.add_assign(&b),
            (Grad::Dense(a), Grad::RowSparse { indices, rows, .. }) => {
                for (i, &r) in indices.iter().enumerate() {
                    crate::simd::add_assign(a.row_mut(r), rows.row(i));
                }
            }
            (me @ Grad::RowSparse { .. }, Grad::Dense(b)) => {
                let mut dense =
                    std::mem::replace(me, Grad::Dense(Matrix::zeros(0, 0))).into_dense();
                dense.add_assign(&b);
                *me = Grad::Dense(dense);
            }
            (
                Grad::RowSparse {
                    indices: ia,
                    rows: ra,
                    ..
                },
                Grad::RowSparse {
                    indices: ib,
                    rows: rb,
                    ..
                },
            ) => {
                let cols = ra.cols();
                let mut indices = Vec::with_capacity(ia.len() + ib.len());
                let mut data = Vec::with_capacity((ia.len() + ib.len()) * cols);
                let (mut i, mut j) = (0, 0);
                while i < ia.len() || j < ib.len() {
                    let take_a = j >= ib.len() || (i < ia.len() && ia[i] <= ib[j]);
                    if take_a && j < ib.len() && i < ia.len() && ia[i] == ib[j] {
                        // Row in both: existing + incoming.
                        indices.push(ia[i]);
                        data.extend(ra.row(i).iter().zip(rb.row(j)).map(|(&a, &b)| a + b));
                        i += 1;
                        j += 1;
                    } else if take_a {
                        indices.push(ia[i]);
                        data.extend_from_slice(ra.row(i));
                        i += 1;
                    } else {
                        indices.push(ib[j]);
                        data.extend_from_slice(rb.row(j));
                        j += 1;
                    }
                }
                let merged = Matrix::from_vec(indices.len(), cols, data);
                *ia = indices;
                *ra = merged;
            }
        }
    }
}

/// Gradients keyed by parameter id, produced by [`Tape::backward`].
///
/// Entries are [`Grad`]s: dense for ordinary parameters, row-sparse for
/// embedding tables reached only through gathers. A `GradMap` can be
/// reused across batches via [`Tape::backward_into`]; gradient buffers
/// are moved out of the backward pass's scratch rather than cloned, so
/// steady-state training performs no per-batch parameter-gradient
/// copies.
#[derive(Debug, Default)]
pub struct GradMap {
    by_index: Vec<Option<Grad>>,
}

impl GradMap {
    /// Gradient for a parameter, if it participated in the computation.
    pub fn get(&self, id: ParamId) -> Option<&Grad> {
        self.by_index.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Iterates over `(id, gradient)` pairs that are present, in
    /// ascending parameter order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Grad)> {
        self.by_index
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }

    /// Number of parameters with a gradient.
    pub fn len(&self) -> usize {
        self.by_index.iter().filter(|g| g.is_some()).count()
    }

    /// True when no gradients are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest absolute gradient entry across all parameters.
    pub fn max_abs(&self) -> f32 {
        self.by_index
            .iter()
            .flatten()
            .fold(0.0f32, |m, g| m.max(g.max_abs()))
    }

    /// Scales every gradient so the global max-abs does not exceed `limit`.
    /// Returns the factor applied (1.0 when no clipping was needed).
    pub fn clip_max_abs(&mut self, limit: f32) -> f32 {
        let max = self.max_abs();
        // deepsd-lint: allow(float-eq, reason="exact-zero guard against dividing by a zero gradient norm")
        if max <= limit || max == 0.0 {
            return 1.0;
        }
        let factor = limit / max;
        for g in self.by_index.iter_mut().flatten() {
            g.scale(factor);
        }
        factor
    }

    /// Empties the map, keeping the slot vector's allocation.
    pub fn reset_for_reuse(&mut self) {
        for slot in self.by_index.iter_mut() {
            *slot = None;
        }
    }

    /// Adds `grad` into the entry for `id` (`entry += grad`), taking the
    /// buffer by value. Public so shard reducers can merge per-shard
    /// gradient maps; within the tape it collects parameter-leaf
    /// gradients.
    pub fn accumulate(&mut self, id: ParamId, grad: Grad) {
        let idx = id.index();
        if self.by_index.len() <= idx {
            self.by_index.resize_with(idx + 1, || None);
        }
        match &mut self.by_index[idx] {
            Some(existing) => existing.accumulate(grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Moves every entry of `other` into `self`, accumulating where both
    /// maps carry a gradient for the same parameter, in ascending
    /// parameter order. `other` is left empty (allocations retained).
    ///
    /// This is the deterministic reduction primitive of the shard
    /// engine: reducing shard maps `0, 1, …, S-1` left-to-right gives a
    /// fold whose order depends only on the shard partition, never on
    /// how shards were scheduled across worker threads.
    pub fn merge_from(&mut self, other: &mut GradMap) {
        for (idx, slot) in other.by_index.iter_mut().enumerate() {
            if let Some(g) = slot.take() {
                self.accumulate(ParamId(idx), g);
            }
        }
    }
}

/// Reusable scratch for [`Tape::backward_into`]: holds the per-node
/// gradient slots between calls so steady-state training does not
/// reallocate them every batch.
#[derive(Default)]
pub struct BackwardScratch {
    node_grads: Vec<Option<Grad>>,
}

/// A recording of one forward computation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Index buffers reclaimed from gather nodes on [`Tape::reset`],
    /// recycled by the next [`Tape::gather`] call.
    gather_indices_pool: Vec<Vec<usize>>,
    /// Output matrices reclaimed from gather nodes on [`Tape::reset`].
    gather_values_pool: Vec<Matrix>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value held by a node.
    // deepsd-lint: allow(panic-reach, reason="NodeId is only minted by this tape's push; ids cannot dangle")
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Shape of a node's value.
    // deepsd-lint: allow(panic-reach, reason="NodeId is only minted by this tape's push; ids cannot dangle")
    pub fn shape(&self, id: NodeId) -> (usize, usize) {
        self.nodes[id.0].value.shape()
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            value,
            op,
            param: None,
        });
        id
    }

    /// Records an input (differentiable only insofar as gradients flow
    /// *through* it; inputs themselves receive no parameter gradient).
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Records a constant. Alias of [`Tape::input`]; the distinction is
    /// documentation only.
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.input(value)
    }

    /// Records a parameter leaf whose gradient will be reported under its
    /// [`ParamId`].
    // deepsd-lint: allow(panic-reach, reason="NodeId is only minted by this tape's push; ids cannot dangle")
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let node = self.push(store.get(id).clone(), Op::Leaf);
        self.nodes[node.0].param = Some(id);
        node
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Adds a `1 x n` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let mut value = self.value(x).clone();
        value.add_row_broadcast(self.value(bias));
        self.push(value, Op::AddBias(x, bias))
    }

    /// Element-wise addition (the residual connection `X ⊕ R`).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.value(a).clone().add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.value(a).clone().sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Scalar scaling.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let value = self.value(x).scaled(alpha);
        self.push(value, Op::Scale(x, alpha))
    }

    /// Leaky ReLU `max(slope * x, x)`; the paper's LReL uses `slope = 0.001`.
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let value = self.value(x).map(|v| if v > 0.0 { v } else { slope * v });
        self.push(value, Op::LeakyRelu(x, slope))
    }

    /// Column-wise concatenation of several nodes with equal row counts.
    // deepsd-lint: allow(panic-reach, reason="non-empty assert; parts come from the model's fixed block list")
    pub fn concat(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero nodes");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::hconcat(&mats);
        self.push(value, Op::Concat(parts.to_vec()))
    }

    /// Column slice `[start, start + width)`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, width: usize) -> NodeId {
        let value = self.value(x).columns(start, width);
        self.push(
            value,
            Op::Slice {
                input: x,
                start,
                width,
            },
        )
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let input = self.value(x);
        let mut value = Matrix::zeros(input.rows(), input.cols());
        for r in 0..input.rows() {
            let row = input.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            let out = value.row_mut(r);
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                let e = (v - max).exp();
                *o = e;
                denom += e;
            }
            crate::simd::map_fold(out, |o| *o /= denom);
        }
        self.push(value, Op::SoftmaxRows(x))
    }

    /// Embedding lookup: output row `b` is `table.row(indices[b])`.
    ///
    /// Index and output buffers are recycled across [`Tape::reset`]
    /// cycles, so the serving hot loop performs no per-request gather
    /// allocations in steady state.
    ///
    /// # Panics
    /// Panics if any index is out of range for the table.
    pub fn gather(&mut self, table: NodeId, indices: &[usize]) -> NodeId {
        let mut idx_buf = self.gather_indices_pool.pop().unwrap_or_default();
        idx_buf.clear();
        idx_buf.extend_from_slice(indices);
        let mut value = self
            .gather_values_pool
            .pop()
            .unwrap_or_else(|| Matrix::zeros(0, 0));
        self.value(table).gather_rows_into(indices, &mut value);
        self.push(
            value,
            Op::Gather {
                table,
                indices: idx_buf,
            },
        )
    }

    /// Per-sample weighted combination of `k` stacked basis vectors:
    /// `out[b, j] = Σ_k weights[b, k] * basis[b, k * dim + j]`.
    ///
    /// This realises Eq. (1) of the paper: the empirical supply-demand
    /// vector as a softmax-weighted sum of the seven per-weekday historical
    /// vectors. The basis is data, not a differentiable node.
    ///
    /// # Panics
    /// Panics if shapes disagree (`basis` must be `B x (k * dim)` for
    /// `weights` `B x k`).
    // deepsd-lint: allow(panic-reach, reason="shape guards; basis dimensions are fixed by model wiring")
    pub fn weighted_combine(&mut self, weights: NodeId, basis: Matrix, dim: usize) -> NodeId {
        let w = self.value(weights);
        let (b, k) = w.shape();
        assert_eq!(basis.rows(), b, "weighted_combine: batch mismatch");
        assert_eq!(
            basis.cols(),
            k * dim,
            "weighted_combine: basis width mismatch"
        );
        let mut value = Matrix::zeros(b, dim);
        for r in 0..b {
            let w_row = w.row(r);
            let basis_row = basis.row(r);
            let out_row = value.row_mut(r);
            for (ki, &wk) in w_row.iter().enumerate() {
                // deepsd-lint: allow(float-eq, reason="exact-zero skip over structurally-sparse weights")
                if wk == 0.0 {
                    continue;
                }
                let seg = &basis_row[ki * dim..(ki + 1) * dim];
                crate::simd::axpy(out_row, wk, seg);
            }
        }
        self.push(
            value,
            Op::WeightedCombine {
                weights,
                basis,
                dim,
            },
        )
    }

    /// Inverted dropout for training: zeroes each entry with probability
    /// `rate` and scales survivors by `1 / (1 - rate)` so the expectation
    /// is unchanged. At evaluation time simply do not insert this op.
    ///
    /// # Panics
    /// Panics unless `0 <= rate < 1`.
    // deepsd-lint: allow(panic-reach, reason="rate is a model-config constant validated to [0,1) here by design")
    pub fn dropout(&mut self, x: NodeId, rate: f32, rng: &mut Rng) -> NodeId {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        // deepsd-lint: allow(float-eq, reason="exact-identity fast path: rate is a configured constant, 0.0 means dropout disabled")
        if rate == 0.0 {
            return x;
        }
        let keep = 1.0 - rate;
        let input = self.value(x);
        let mask = Matrix::from_fn(input.rows(), input.cols(), |_, _| {
            if rng.f32() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let value = input.clone().hadamard(&mask);
        self.push(value, Op::Dropout { input: x, mask })
    }

    /// Scalar mean-squared-error loss node.
    pub fn mse_loss(&mut self, pred: NodeId, target: &Matrix) -> NodeId {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "mse_loss shape mismatch");
        let n = p.len().max(1) as f32;
        let loss = p
            .as_slice()
            .iter()
            .zip(target.as_slice().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / n;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::MseLoss {
                pred,
                target: target.clone(),
            },
        )
    }

    /// Mean of all entries as a `1 x 1` node.
    pub fn mean(&mut self, x: NodeId) -> NodeId {
        let value = Matrix::from_vec(1, 1, vec![self.value(x).mean()]);
        self.push(value, Op::Mean(x))
    }

    /// Sum of all entries as a `1 x 1` node.
    pub fn sum(&mut self, x: NodeId) -> NodeId {
        let value = Matrix::from_vec(1, 1, vec![self.value(x).sum()]);
        self.push(value, Op::Sum(x))
    }

    /// Clears the recorded computation while keeping the node storage
    /// allocation, so one tape can be reused across batches. Gather
    /// index and output buffers are parked for recycling by the next
    /// [`Tape::gather`].
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if let Op::Gather { indices, .. } = node.op {
                self.gather_indices_pool.push(indices);
                self.gather_values_pool.push(node.value);
            }
        }
    }

    /// Runs reverse-mode differentiation from a scalar node, returning the
    /// gradients of every parameter leaf that contributed to it.
    ///
    /// Allocates fresh buffers every call; hot loops should prefer
    /// [`Tape::backward_into`].
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&self, loss: NodeId) -> GradMap {
        let mut scratch = BackwardScratch::default();
        let mut params = GradMap::default();
        self.backward_into(loss, &mut scratch, &mut params);
        params
    }

    /// Reverse-mode differentiation into caller-owned buffers.
    ///
    /// Equivalent to [`Tape::backward`] but reuses `scratch` (per-node
    /// gradient slots) and `params` (per-parameter buffers, see
    /// [`GradMap::reset_for_reuse`]) across calls, eliminating the
    /// per-batch allocation churn of the training loop. `params` is reset
    /// before accumulation, so it only ever holds this call's gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward_into(&self, loss: NodeId, scratch: &mut BackwardScratch, params: &mut GradMap) {
        assert_eq!(
            self.shape(loss),
            (1, 1),
            "backward expects a scalar loss node"
        );
        params.reset_for_reuse();
        let grads = &mut scratch.node_grads;
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        grads[loss.0] = Some(Grad::Dense(Matrix::from_vec(1, 1, vec![1.0])));

        for idx in (0..self.nodes.len()).rev() {
            let Some(grad) = grads[idx].take() else {
                continue;
            };
            let node = &self.nodes[idx];
            if let Some(pid) = node.param {
                // Parameter nodes are always leaves: move the gradient
                // (dense or row-sparse) straight into the map.
                params.accumulate(pid, grad);
                continue;
            }
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            // Only Gather emits sparse gradients and only leaves receive
            // them in practice; densify defensively for every other op.
            let grad = grad.into_dense();
            match &node.op {
                Op::Leaf => unreachable!("leaf handled above"),
                Op::MatMul(a, b) => {
                    // dA = G @ Bᵀ ; dB = Aᵀ @ G
                    let da = grad.matmul_nt(self.value(*b));
                    let db = self.value(*a).matmul_tn(&grad);
                    acc(grads, *a, da);
                    acc(grads, *b, db);
                }
                Op::AddBias(x, bias) => {
                    let db = grad.sum_rows();
                    acc(grads, *bias, db);
                    acc(grads, *x, grad);
                }
                Op::Add(a, b) => {
                    acc(grads, *a, grad.clone());
                    acc(grads, *b, grad);
                }
                Op::Sub(a, b) => {
                    acc(grads, *a, grad.clone());
                    let mut neg = grad;
                    neg.scale(-1.0);
                    acc(grads, *b, neg);
                }
                Op::Scale(x, alpha) => {
                    let mut g = grad;
                    g.scale(*alpha);
                    acc(grads, *x, g);
                }
                Op::LeakyRelu(x, slope) => {
                    let input = self.value(*x);
                    let slope = *slope;
                    let mut g = grad;
                    crate::simd::zip_fold(g.as_mut_slice(), input.as_slice(), |gv, iv| {
                        if iv <= 0.0 {
                            *gv *= slope;
                        }
                    });
                    acc(grads, *x, g);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let width = self.value(p).cols();
                        let g = grad.columns(offset, width);
                        acc(grads, p, g);
                        offset += width;
                    }
                }
                Op::Slice {
                    input,
                    start,
                    width,
                } => {
                    let (rows, cols) = self.shape(*input);
                    let mut g = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        g.row_mut(r)[*start..start + width].copy_from_slice(grad.row(r));
                    }
                    acc(grads, *input, g);
                }
                Op::SoftmaxRows(x) => {
                    // dX[b,i] = y[b,i] * (g[b,i] - Σ_j g[b,j] y[b,j])
                    let y = &node.value;
                    let mut g = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let y_row = y.row(r);
                        let g_row = grad.row(r);
                        let dot: f32 = y_row.iter().zip(g_row.iter()).map(|(a, b)| a * b).sum();
                        let out_row = g.row_mut(r);
                        out_row.copy_from_slice(g_row);
                        crate::simd::zip_fold(out_row, y_row, |o, yv| *o = yv * (*o - dot));
                    }
                    acc(grads, *x, g);
                }
                Op::Gather { table, indices } => {
                    // Row-sparse scatter: sort (table row, batch row)
                    // pairs so each touched row's contributions fold in
                    // increasing batch order — the exact per-cell sum
                    // the dense zero-matrix scatter would produce.
                    let (table_rows, cols) = self.shape(*table);
                    let mut order: Vec<(usize, usize)> = indices
                        .iter()
                        .enumerate()
                        .map(|(b, &idx)| (idx, b))
                        .collect();
                    order.sort_unstable();
                    let mut uniq: Vec<usize> = Vec::with_capacity(order.len());
                    let mut data: Vec<f32> = Vec::with_capacity(order.len() * cols);
                    for &(idx, b) in &order {
                        if uniq.last() == Some(&idx) {
                            let base = data.len() - cols;
                            crate::simd::add_assign(&mut data[base..], grad.row(b));
                        } else {
                            uniq.push(idx);
                            data.extend_from_slice(grad.row(b));
                        }
                    }
                    let packed = Matrix::from_vec(uniq.len(), cols, data);
                    acc_grad(
                        grads,
                        *table,
                        Grad::RowSparse {
                            full_rows: table_rows,
                            indices: uniq,
                            rows: packed,
                        },
                    );
                }
                Op::WeightedCombine {
                    weights,
                    basis,
                    dim,
                } => {
                    let (b, k) = self.shape(*weights);
                    let mut g = Matrix::zeros(b, k);
                    for r in 0..b {
                        let grad_row = grad.row(r);
                        let basis_row = basis.row(r);
                        for ki in 0..k {
                            let seg = &basis_row[ki * dim..(ki + 1) * dim];
                            let mut s = 0.0f32;
                            for (&gv, &bv) in grad_row.iter().zip(seg.iter()) {
                                s += gv * bv;
                            }
                            g.set(r, ki, s);
                        }
                    }
                    acc(grads, *weights, g);
                }
                Op::Dropout { input, mask } => {
                    let g = grad.hadamard(mask);
                    acc(grads, *input, g);
                }
                Op::MseLoss { pred, target } => {
                    let scalar = grad.get(0, 0);
                    let p = self.value(*pred);
                    let n = p.len().max(1) as f32;
                    let mut g = p.clone().sub(target);
                    g.scale(2.0 * scalar / n);
                    acc(grads, *pred, g);
                }
                Op::Mean(x) => {
                    let (rows, cols) = self.shape(*x);
                    let scalar = grad.get(0, 0) / (rows * cols).max(1) as f32;
                    acc(grads, *x, Matrix::full(rows, cols, scalar));
                }
                Op::Sum(x) => {
                    let (rows, cols) = self.shape(*x);
                    let scalar = grad.get(0, 0);
                    acc(grads, *x, Matrix::full(rows, cols, scalar));
                }
            }
        }
    }
}

fn acc(grads: &mut [Option<Grad>], id: NodeId, grad: Matrix) {
    acc_grad(grads, id, Grad::Dense(grad));
}

fn acc_grad(grads: &mut [Option<Grad>], id: NodeId, grad: Grad) {
    match &mut grads[id.0] {
        Some(existing) => existing.accumulate(grad),
        slot @ None => *slot = Some(grad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    fn scalar(tape: &Tape, id: NodeId) -> f32 {
        assert_eq!(tape.shape(id), (1, 1));
        tape.value(id).get(0, 0)
    }

    #[test]
    fn forward_matmul_add_bias() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let b = store.add("b", Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let wn = tape.param(&store, w);
        let bn = tape.param(&store, b);
        let h = tape.matmul(x, wn);
        let y = tape.add_bias(h, bn);
        assert_eq!(tape.value(y).as_slice(), &[13.0, 24.0]);
    }

    #[test]
    fn backward_linear_gradients_exact() {
        // loss = mean((x @ w - t)^2), x = [1, 2], w = [[3], [4]], t = [0]
        // pred = 11; dloss/dpred = 2 * 11 = 22; dW = xᵀ * 22 = [22, 44]
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let wn = tape.param(&store, w);
        let pred = tape.matmul(x, wn);
        let loss = tape.mse_loss(pred, &Matrix::from_vec(1, 1, vec![0.0]));
        assert!((scalar(&tape, loss) - 121.0).abs() < 1e-4);
        let grads = tape.backward(loss);
        let gw = grads.get(w).expect("w gradient");
        assert!((gw.get(0, 0) - 22.0).abs() < 1e-4);
        assert!((gw.get(1, 0) - 44.0).abs() < 1e-4);
    }

    #[test]
    fn shared_param_gradients_accumulate() {
        // y = x @ w + x @ w; dL/dw should be twice the single-use gradient.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 1, vec![3.0]));
        let w1 = tape.param(&store, w);
        let w2 = tape.param(&store, w);
        let a = tape.matmul(x, w1);
        let b = tape.matmul(x, w2);
        let y = tape.add(a, b);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        // dy/dw = x (for each use) => total 6.
        assert!((grads.get(w).unwrap().get(0, 0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn leaky_relu_forward_and_slope() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let y = tape.leaky_relu(x, 0.001);
        assert!((tape.value(y).get(0, 0) + 0.001).abs() < 1e-7);
        assert_eq!(tape.value(y).get(0, 1), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]));
        let y = tape.softmax_rows(x);
        for r in 0..2 {
            let s: f32 = tape.value(y).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        let row = tape.value(y).row(0);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut tape = Tape::new();
        let a = tape.input(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let b = tape.input(Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]));
        let sa = tape.softmax_rows(a);
        let sb = tape.softmax_rows(b);
        assert!(tape.value(sa).max_abs_diff(tape.value(sb)) < 1e-5);
    }

    #[test]
    fn concat_then_slice_gradient_routes_correctly() {
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let w2 = store.add("w2", Matrix::from_vec(1, 3, vec![3.0, 4.0, 5.0]));
        let mut tape = Tape::new();
        let a = tape.param(&store, w1);
        let b = tape.param(&store, w2);
        let c = tape.concat(&[a, b]);
        assert_eq!(tape.value(c).as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Only sum the second part; w1 must get zero gradient contribution
        // (i.e. no entry because the slice drops it... except slice backward
        // routes zeros into the concat, which then splits to both).
        let s = tape.slice_cols(c, 2, 3);
        let loss = tape.sum(s);
        let grads = tape.backward(loss);
        let g1 = grads.get(w1).unwrap().to_dense();
        assert!(g1.as_slice().iter().all(|&v| v == 0.0));
        let g2 = grads.get(w2).unwrap().to_dense();
        assert!(g2.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gather_scatters_gradients_with_duplicates() {
        let mut store = ParamStore::new();
        let table = store.add("emb", Matrix::from_vec(3, 2, vec![0.0; 6]));
        let mut tape = Tape::new();
        let t = tape.param(&store, table);
        let e = tape.gather(t, &[1, 1, 2]);
        let loss = tape.sum(e);
        let grads = tape.backward(loss);
        let g = grads.get(table).unwrap();
        assert!(g.is_sparse(), "gather gradient must be row-sparse");
        assert_eq!(g.shape(), (3, 2));
        let dense = g.to_dense();
        assert_eq!(dense.row(0), &[0.0, 0.0]);
        assert_eq!(dense.row(1), &[2.0, 2.0]); // used twice
        assert_eq!(dense.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn weighted_combine_forward() {
        let mut tape = Tape::new();
        // Batch 1, k = 2, dim = 2; basis rows: [h0 | h1] = [1, 2 | 10, 20].
        let w = tape.input(Matrix::from_vec(1, 2, vec![0.25, 0.75]));
        let basis = Matrix::from_vec(1, 4, vec![1.0, 2.0, 10.0, 20.0]);
        let y = tape.weighted_combine(w, basis, 2);
        let out = tape.value(y);
        assert!((out.get(0, 0) - (0.25 + 7.5)).abs() < 1e-5);
        assert!((out.get(0, 1) - (0.5 + 15.0)).abs() < 1e-5);
    }

    #[test]
    fn weighted_combine_gradient_is_basis_dot() {
        let mut store = ParamStore::new();
        let wp = store.add("w", Matrix::from_vec(1, 2, vec![0.3, 0.7]));
        let mut tape = Tape::new();
        let w = tape.param(&store, wp);
        let basis = Matrix::from_vec(1, 4, vec![1.0, 2.0, 10.0, 20.0]);
        let y = tape.weighted_combine(w, basis, 2);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        let g = grads.get(wp).unwrap();
        assert!((g.get(0, 0) - 3.0).abs() < 1e-5); // 1 + 2
        assert!((g.get(0, 1) - 30.0).abs() < 1e-5); // 10 + 20
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut tape = Tape::new();
        let mut rng = seeded_rng(5);
        let x = tape.input(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_mask_scales_survivors() {
        let mut tape = Tape::new();
        let mut rng = seeded_rng(6);
        let x = tape.input(Matrix::full(1, 1000, 1.0));
        let y = tape.dropout(x, 0.5, &mut rng);
        let out = tape.value(y);
        // Each survivor is 2.0, each dropped entry 0.0.
        assert!(out
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation preserved to within sampling noise.
        assert!((out.mean() - 1.0).abs() < 0.15);
    }

    #[test]
    fn residual_add_passes_gradient_to_both_branches() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = store.add("b", Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let mut tape = Tape::new();
        let an = tape.param(&store, a);
        let bn = tape.param(&store, b);
        let y = tape.add(an, bn);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        for id in [a, b] {
            let g = grads.get(id).unwrap().to_dense();
            assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        }
    }

    #[test]
    fn clip_max_abs_scales_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut tape = Tape::new();
        let p = tape.param(&store, w);
        let y = tape.scale(p, 100.0);
        let loss = tape.sum(y);
        let mut grads = tape.backward(loss);
        assert!((grads.max_abs() - 100.0).abs() < 1e-4);
        let factor = grads.clip_max_abs(1.0);
        assert!((factor - 0.01).abs() < 1e-6);
        assert!((grads.max_abs() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(2, 2));
        let _ = tape.backward(x);
    }

    #[test]
    fn sub_and_scale_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(1, 1, vec![5.0]));
        let b = store.add("b", Matrix::from_vec(1, 1, vec![2.0]));
        let mut tape = Tape::new();
        let an = tape.param(&store, a);
        let bn = tape.param(&store, b);
        let d = tape.sub(an, bn);
        let s = tape.scale(d, 3.0);
        let loss = tape.sum(s);
        let grads = tape.backward(loss);
        assert!((grads.get(a).unwrap().get(0, 0) - 3.0).abs() < 1e-6);
        assert!((grads.get(b).unwrap().get(0, 0) + 3.0).abs() < 1e-6);
    }

    #[test]
    fn backward_into_reuses_buffers_and_matches_backward() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let mut scratch = BackwardScratch::default();
        let mut reused = GradMap::default();
        for step in 0..3 {
            let mut tape = Tape::new();
            let x = tape.input(Matrix::from_vec(1, 2, vec![1.0 + step as f32, 2.0]));
            let wn = tape.param(&store, w);
            let pred = tape.matmul(x, wn);
            let loss = tape.mse_loss(pred, &Matrix::from_vec(1, 1, vec![0.0]));
            tape.backward_into(loss, &mut scratch, &mut reused);
            let fresh = tape.backward(loss);
            let g = reused.get(w).expect("reused gradient").to_dense();
            assert!(g.max_abs_diff(&fresh.get(w).unwrap().to_dense()) == 0.0);
        }
    }

    #[test]
    fn tape_reset_clears_nodes() {
        let mut tape = Tape::new();
        let _ = tape.input(Matrix::zeros(2, 2));
        assert_eq!(tape.len(), 1);
        tape.reset();
        assert!(tape.is_empty());
    }

    #[test]
    fn grad_map_reset_for_reuse_empties_but_recycles() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut tape = Tape::new();
        let p = tape.param(&store, w);
        let loss = tape.sum(p);
        let mut grads = tape.backward(loss);
        assert_eq!(grads.len(), 1);
        grads.reset_for_reuse();
        assert!(grads.is_empty());
        assert!(grads.get(w).is_none());
    }

    #[test]
    fn mean_gradient_is_uniform() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let p = tape.param(&store, w);
        let m = tape.mean(p);
        let grads = tape.backward(m);
        let g = grads.get(w).unwrap().to_dense();
        assert!(g.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    fn sparse(full_rows: usize, indices: Vec<usize>, rows: Matrix) -> Grad {
        Grad::RowSparse {
            full_rows,
            indices,
            rows,
        }
    }

    #[test]
    fn grad_accumulate_covers_all_four_variant_pairs() {
        let dense = |v: Vec<f32>| Grad::Dense(Matrix::from_vec(4, 1, v));

        // Dense += Dense.
        let mut g = dense(vec![1.0, 2.0, 3.0, 4.0]);
        g.accumulate(dense(vec![10.0, 10.0, 10.0, 10.0]));
        assert_eq!(g.to_dense().as_slice(), &[11.0, 12.0, 13.0, 14.0]);

        // Dense += RowSparse (scatter-add, stays dense).
        let mut g = dense(vec![1.0, 2.0, 3.0, 4.0]);
        g.accumulate(sparse(
            4,
            vec![1, 3],
            Matrix::from_vec(2, 1, vec![5.0, 7.0]),
        ));
        assert!(!g.is_sparse());
        assert_eq!(g.to_dense().as_slice(), &[1.0, 7.0, 3.0, 11.0]);

        // RowSparse += Dense (densifies).
        let mut g = sparse(4, vec![0, 2], Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        g.accumulate(dense(vec![10.0, 20.0, 30.0, 40.0]));
        assert!(!g.is_sparse());
        assert_eq!(g.to_dense().as_slice(), &[11.0, 20.0, 32.0, 40.0]);

        // RowSparse += RowSparse (sorted union, stays sparse).
        let mut g = sparse(6, vec![1, 4], Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        g.accumulate(sparse(
            6,
            vec![0, 4, 5],
            Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]),
        ));
        assert!(g.is_sparse());
        assert_eq!(g.shape(), (6, 1));
        assert_eq!(g.to_dense().as_slice(), &[10.0, 1.0, 0.0, 0.0, 22.0, 30.0]);
    }

    #[test]
    fn grad_get_and_max_abs_see_through_sparsity() {
        let g = sparse(
            5,
            vec![1, 3],
            Matrix::from_vec(2, 2, vec![1.0, -9.0, 2.0, 3.0]),
        );
        assert_eq!(g.get(1, 1), -9.0);
        assert_eq!(g.get(3, 0), 2.0);
        assert_eq!(g.get(2, 0), 0.0); // untouched row reads as zero
        assert_eq!(g.max_abs(), 9.0);
        let mut g = g;
        g.scale(0.5);
        assert_eq!(g.get(1, 1), -4.5);
    }

    #[test]
    fn merge_from_accumulates_and_drains_in_order() {
        let w0 = ParamId(0);
        let w2 = ParamId(2);
        let mut a = GradMap::default();
        a.accumulate(w0, Grad::Dense(Matrix::from_vec(1, 2, vec![1.0, 2.0])));
        let mut b = GradMap::default();
        b.accumulate(w0, Grad::Dense(Matrix::from_vec(1, 2, vec![10.0, 20.0])));
        b.accumulate(w2, sparse(3, vec![1], Matrix::from_vec(1, 1, vec![5.0])));
        a.merge_from(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.get(w0).unwrap().to_dense().as_slice(), &[11.0, 22.0]);
        assert!(a.get(w2).unwrap().is_sparse());
        assert_eq!(a.get(w2).unwrap().to_dense().as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn clip_max_abs_spans_mixed_dense_and_sparse_entries() {
        let mut grads = GradMap::default();
        grads.accumulate(
            ParamId(0),
            Grad::Dense(Matrix::from_vec(1, 2, vec![1.0, -2.0])),
        );
        grads.accumulate(
            ParamId(1),
            sparse(10, vec![7], Matrix::from_vec(1, 1, vec![-8.0])),
        );
        // The global max lives in the sparse entry.
        assert_eq!(grads.max_abs(), 8.0);
        let factor = grads.clip_max_abs(4.0);
        assert_eq!(factor, 0.5);
        assert_eq!(
            grads.get(ParamId(0)).unwrap().to_dense().as_slice(),
            &[0.5, -1.0]
        );
        assert_eq!(grads.get(ParamId(1)).unwrap().get(7, 0), -4.0);
        assert!(grads.get(ParamId(1)).unwrap().is_sparse());
        // Already within the limit: untouched.
        assert_eq!(grads.clip_max_abs(100.0), 1.0);
    }

    #[test]
    fn gather_reuses_pooled_buffers_after_reset() {
        let mut store = ParamStore::new();
        let table = store.add(
            "t",
            Matrix::from_vec(4, 2, vec![0., 1., 2., 3., 4., 5., 6., 7.]),
        );
        let mut tape = Tape::new();
        for round in 0..3 {
            tape.reset();
            let t = tape.param(&store, table);
            let e = tape.gather(t, &[3, 0, 3]);
            let v = tape.value(e);
            assert_eq!(v.shape(), (3, 2), "round {round}");
            assert_eq!(v.row(0), &[6.0, 7.0]);
            assert_eq!(v.row(1), &[0.0, 1.0]);
        }
    }
}
