#include "gnn/layers.h"

#include <algorithm>
#include <numeric>

namespace glint::gnn {

Tensor* SemanticAttention::Forward(Tape* t, const std::vector<Tensor*>& paths,
                                   std::span<const int> offsets) {
  GLINT_CHECK(!paths.empty());
  if (paths.size() == 1) return paths[0];

  // Per graph: s_p = mean_v sigmoid(M h_v + b); score_p = q . s_p. Row b of
  // `scores` reads only graph b's rows.
  Tensor* scores = nullptr;  // B x P
  for (Tensor* p : paths) {
    Tensor* s =
        SegmentMeanRows(t, Sigmoid(t, summar_.Forward(t, p)), offsets);
    Tensor* score = MatMul(t, s, &q_);  // B x 1
    scores = scores == nullptr ? score : ConcatCols(t, scores, score);
  }
  Tensor* beta = SoftmaxRows(t, scores);  // B x P

  Tensor* out = nullptr;
  for (size_t p = 0; p < paths.size(); ++p) {
    Tensor* weighted =
        SegmentScaleByCol(t, paths[p], beta, static_cast<int>(p), offsets);
    out = AddLoss(t, out, weighted);
  }
  return out;
}

VIPool::Result VIPool::Forward(Tape* t, const SparseMatrix& adj_norm,
                               const SparseMatrix& adj_raw, Tensor* h,
                               std::span<const int> offsets) {
  const int B = static_cast<int>(offsets.size()) - 1;
  Result result;

  // MI proxy: score_v = sigmoid(w . [h_v ; (Â h)_v]) — high when the vertex
  // agrees with (is informative about) its neighbourhood. Scoring is
  // row-wise, and an SpMM row of a block-diagonal adjacency reads only its
  // own segment.
  Tensor* neigh = SpMM(t, adj_norm, h);
  Tensor* both = ConcatCols(t, h, neigh);
  Tensor* scores = Sigmoid(t, score_.Forward(t, both));  // n x 1

  // Per segment, keep the ceil(ratio * n) highest-scoring vertices (at
  // least 1) by a stable ranking of the segment's rows. Kept indices are
  // global rows, ascending within each segment.
  result.offsets.reserve(static_cast<size_t>(B) + 1);
  result.offsets.push_back(0);
  std::vector<int> order;
  for (int s = 0; s < B; ++s) {
    const int n = offsets[s + 1] - offsets[s];
    const int keep =
        std::max(1, static_cast<int>(ratio_ * static_cast<double>(n) + 0.999));
    order.resize(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), offsets[s]);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return scores->value.At(a, 0) > scores->value.At(b, 0);
    });
    order.resize(static_cast<size_t>(std::min(keep, n)));
    std::sort(order.begin(), order.end());
    result.kept.insert(result.kept.end(), order.begin(), order.end());
    result.offsets.push_back(static_cast<int>(result.kept.size()));
  }

  // Gate features by score (keeps the scorer trainable), then gather.
  Tensor* gated = RowScale(t, h, scores);
  result.features = GatherRows(t, gated, result.kept);

  // Induced adjacency over kept nodes, connecting nodes whose original
  // distance is <= 2 (so pooling does not disconnect chains), one segment
  // at a time over the input CSR (a block-diagonal walk never leaves its
  // segment): mark N(u) and N(N(u)) once per kept u, then membership-test
  // the segment's later kept nodes. Edges are pooled-row pairs, grouped by
  // segment, so both matrices are sized once before they are filled.
  const auto csr = adj_raw.CsrView();
  std::vector<char> reach(static_cast<size_t>(h->rows()), 0);
  std::vector<int> touched;
  std::vector<std::pair<int, int>> new_edges;
  for (int s = 0; s < B; ++s) {
    const int k1 = result.offsets[s + 1];
    for (int a = result.offsets[s]; a < k1; ++a) {
      const int u = result.kept[static_cast<size_t>(a)];
      touched.clear();
      auto mark = [&](int w) {
        if (!reach[static_cast<size_t>(w)]) {
          reach[static_cast<size_t>(w)] = 1;
          touched.push_back(w);
        }
      };
      const int e0 = csr->row_ptr[static_cast<size_t>(u)];
      const int e1 = csr->row_ptr[static_cast<size_t>(u) + 1];
      for (int k = e0; k < e1; ++k) {
        const int w = csr->col_idx[static_cast<size_t>(k)];
        mark(w);
        const int w0 = csr->row_ptr[static_cast<size_t>(w)];
        const int w1 = csr->row_ptr[static_cast<size_t>(w) + 1];
        for (int k2 = w0; k2 < w1; ++k2) {
          mark(csr->col_idx[static_cast<size_t>(k2)]);
        }
      }
      for (int b = a + 1; b < k1; ++b) {
        if (reach[static_cast<size_t>(result.kept[static_cast<size_t>(b)])]) {
          new_edges.emplace_back(a, b);
        }
      }
      for (int w : touched) reach[static_cast<size_t>(w)] = 0;
    }
  }
  // Each segment's normalized block is appended in place (no per-segment
  // matrix or CSR), and each CSR is built once for the whole result.
  const int pooled_rows = static_cast<int>(result.kept.size());
  result.adj_norm.rows = result.adj_norm.cols = pooled_rows;
  result.adj_norm.Reserve(result.kept.size() + 2 * new_edges.size());
  auto first = new_edges.begin();
  for (int s = 0; s < B; ++s) {
    const int k0 = result.offsets[s];
    const int k1 = result.offsets[s + 1];
    const auto last = std::find_if(
        first, new_edges.end(), [k1](const auto& e) { return e.first >= k1; });
    AppendNormalizedAdjacency(&result.adj_norm, k0, k1 - k0, {first, last});
    first = last;
  }
  result.adj_norm.BuildCsrCache();
  result.adj_raw.rows = result.adj_raw.cols = pooled_rows;
  result.adj_raw.Reserve(2 * new_edges.size());
  for (const auto& [a, b] : new_edges) result.adj_raw.AddSymmetric(a, b, 1.f);
  result.adj_raw.BuildCsrCache();

  // Per-scale B x 1 graph logits for the pooling loss.
  result.graph_logits =
      logit_.Forward(t, SegmentMeanRows(t, result.features, result.offsets));
  return result;
}

}  // namespace glint::gnn
