//! Tape-free inference engine: the attention + mixture-head forward pass on
//! plain matrices, with every linear-algebra intermediate carved out of a
//! thread-local scratch arena.
//!
//! [`crate::Predictor::locate`] runs this on the caller's thread (and
//! `locate_batch` on every `edge-par` worker). The intermediates — the
//! gathered entity rows, attention scores, the aggregated tweet embedding,
//! the θ row — are recycled across calls, so after a thread's first
//! prediction warms its scratch the engine performs no heap allocation. The
//! returned mixture and attention weights are owned by the caller and
//! necessarily allocated: the zero-allocation scope is the engine, not the
//! result.

use std::cell::RefCell;

use edge_geo::GaussianMixture;
use edge_tensor::tape::softmax_in_place;
use edge_tensor::{Matrix, TapeArena};

use crate::artifact::SmoothedStore;
use crate::mdn::decode_theta;

thread_local! {
    static SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::default());
}

#[derive(Default)]
struct InferScratch {
    arena: TapeArena,
    weights: Vec<f32>,
}

/// Borrowed model parameters for one inference forward pass.
pub(crate) struct InferParams<'a> {
    pub q1: &'a Matrix,
    pub b1: &'a Matrix,
    pub q2: &'a Matrix,
    pub b2: &'a Matrix,
    pub use_attention: bool,
    pub n_components: usize,
}

/// Runs attention aggregation (Eq. 2–4, or the SUM ablation) and the
/// mixture head (Eq. 5–12) for one entity set, returning the decoded
/// mixture and the per-entity attention weights (empty under SUM).
///
/// Bit-identical to the historical `attention_infer` → `matmul` →
/// `add_row_broadcast` → `decode_theta` pipeline; only the storage strategy
/// differs (`tests` assert agreement with `attention_infer`).
pub(crate) fn infer_prediction(
    smoothed: &SmoothedStore,
    entities: &[usize],
    p: &InferParams<'_>,
) -> (GaussianMixture, Vec<f32>) {
    assert!(!entities.is_empty(), "inference needs at least one entity");
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let arena = &mut scratch.arena;
        let mut h = arena.take_matrix(entities.len(), smoothed.cols());
        // K x h — rows were copied into scratch here even before the mmap
        // redesign, so quantized stores dequantize inside the same copy.
        smoothed.gather_rows_into(entities, &mut h);
        let (z, weights) = if p.use_attention {
            let mut scores = arena.take_matrix(entities.len(), 1);
            h.matmul_into(p.q1, &mut scores); // Eq. 2: K x 1
            let bias = p.b1.get(0, 0);
            scratch.weights.clear();
            scratch.weights.extend(scores.data().iter().map(|s| (s + bias).max(0.0)));
            arena.recycle(scores);
            softmax_in_place(&mut scratch.weights); // Eq. 3
            let mut z = arena.take_matrix(1, h.cols());
            for (k, &w) in scratch.weights.iter().enumerate() {
                edge_tensor::axpy(w, h.row(k), z.row_mut(0)); // Eq. 4
            }
            (z, scratch.weights.clone())
        } else {
            let mut z = arena.take_matrix(1, h.cols());
            h.sum_rows_into(&mut z);
            (z, Vec::new())
        };
        arena.recycle(h);
        let mut theta = arena.take_matrix(1, p.q2.cols());
        z.matmul_into(p.q2, &mut theta);
        arena.recycle(z);
        for (t, &b) in theta.row_mut(0).iter_mut().zip(p.b2.row(0)) {
            *t += b; // Eq. 7
        }
        let mixture = decode_theta(theta.row(0), p.n_components);
        arena.recycle(theta);
        (mixture, weights)
    })
}
