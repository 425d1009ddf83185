#include "gnn/layers.h"

#include <algorithm>
#include <numeric>

namespace glint::gnn {

Tensor* SemanticAttention::Forward(Tape* t,
                                   const std::vector<Tensor*>& paths) {
  GLINT_CHECK(!paths.empty());
  if (paths.size() == 1) return paths[0];

  // s_p = mean_v sigmoid(M h_v + b); score_p = q . s_p
  Tensor* scores = nullptr;  // 1 x P
  for (Tensor* p : paths) {
    Tensor* s = MeanRows(t, Sigmoid(t, summar_.Forward(t, p)));
    Tensor* score = MatMul(t, s, &q_);  // 1 x 1
    scores = scores == nullptr ? score : ConcatCols(t, scores, score);
  }
  Tensor* beta = SoftmaxRowOp(t, scores);  // 1 x P

  Tensor* out = nullptr;
  for (size_t p = 0; p < paths.size(); ++p) {
    Tensor* weighted = ScaleByEntry(t, paths[p], beta, static_cast<int>(p));
    out = AddLoss(t, out, weighted);
  }
  return out;
}

Tensor* SemanticAttention::ForwardBatched(Tape* t,
                                          const std::vector<Tensor*>& paths,
                                          const std::vector<int>& offsets) {
  GLINT_CHECK(!paths.empty());
  if (paths.size() == 1) return paths[0];

  // Per-segment s_p / score_p: SegmentMeanRows reduces each graph's rows
  // with exactly the MeanRows accumulation order on that range, so row b of
  // `scores` matches the sequential 1 x P score row of graph b bit for bit.
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
                               const SparseMatrix& adj_raw, Tensor* h) {
  const int n = h->rows();
  Result result;

  // MI proxy: score_v = sigmoid(w . [h_v ; (Â h)_v]) — high when the vertex
  // agrees with (is informative about) its neighbourhood.
  Tensor* neigh = SpMM(t, adj_norm, h);
  Tensor* both = ConcatCols(t, h, neigh);
  Tensor* scores = Sigmoid(t, score_.Forward(t, both));  // n x 1

  // Keep ceil(ratio * n) highest-scoring vertices (at least 1).
  const int keep =
      std::max(1, static_cast<int>(ratio_ * static_cast<double>(n) + 0.999));
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return scores->value.At(a, 0) > scores->value.At(b, 0);
  });
  order.resize(static_cast<size_t>(std::min(keep, n)));
  std::sort(order.begin(), order.end());
  result.kept = order;

  // Gate features by score (keeps the scorer trainable), then gather.
  Tensor* gated = RowScale(t, h, scores);
  result.features = GatherRows(t, gated, order);

  // Induced adjacency over kept nodes, connecting nodes whose original
  // distance is <= 2 (so pooling does not disconnect chains). Walks the
  // cached CSR form of adj_raw: mark N(u) and N(N(u)) once per kept u, then
  // membership-test the later kept nodes — no dense n x n rebuild.
  const auto csr = adj_raw.CsrView();
  std::vector<char> reach(static_cast<size_t>(n), 0);
  std::vector<int> touched;
  std::vector<std::pair<int, int>> new_edges;
  for (size_t a = 0; a < order.size(); ++a) {
    const int u = order[a];
    touched.clear();
    auto mark = [&](int w) {
      if (!reach[static_cast<size_t>(w)]) {
        reach[static_cast<size_t>(w)] = 1;
        touched.push_back(w);
      }
    };
    const int k0 = csr->row_ptr[static_cast<size_t>(u)];
    const int k1 = csr->row_ptr[static_cast<size_t>(u) + 1];
    for (int k = k0; k < k1; ++k) {
      const int w = csr->col_idx[static_cast<size_t>(k)];
      mark(w);
      const int w0 = csr->row_ptr[static_cast<size_t>(w)];
      const int w1 = csr->row_ptr[static_cast<size_t>(w) + 1];
      for (int k2 = w0; k2 < w1; ++k2) mark(csr->col_idx[static_cast<size_t>(k2)]);
    }
    for (size_t b = a + 1; b < order.size(); ++b) {
      if (reach[static_cast<size_t>(order[b])]) {
        new_edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
      }
    }
    for (int w : touched) reach[static_cast<size_t>(w)] = 0;
  }
  result.adj_norm =
      NormalizedAdjacency(static_cast<int>(order.size()), new_edges);
  result.adj_raw.rows = static_cast<int>(order.size());
  result.adj_raw.cols = result.adj_raw.rows;
  result.adj_raw.Reserve(2 * new_edges.size());
  for (const auto& [a, b] : new_edges) result.adj_raw.AddSymmetric(a, b, 1.f);
  result.adj_raw.BuildCsrCache();

  // Per-scale graph logit for the pooling loss.
  result.graph_logit = logit_.Forward(t, MeanRows(t, result.features));
  return result;
}

VIPool::BatchedResult VIPool::ForwardBatched(Tape* t,
                                             const SparseMatrix& adj_norm,
                                             const SparseMatrix& adj_raw,
                                             Tensor* h,
                                             const std::vector<int>& offsets) {
  const int B = static_cast<int>(offsets.size()) - 1;
  BatchedResult result;

  // Scoring is row-wise (and SpMM rows of a block-diagonal adjacency only
  // read their own segment), so `scores` rows match the sequential
  // per-graph scores bit for bit.
  Tensor* neigh = SpMM(t, adj_norm, h);
  Tensor* both = ConcatCols(t, h, neigh);
  Tensor* scores = Sigmoid(t, score_.Forward(t, both));  // n x 1

  // Per-segment top-ratio selection: the sequential stable ranking,
  // restricted to the segment's rows. Kept indices are global rows,
  // ascending within each segment.
  result.offsets.reserve(static_cast<size_t>(B) + 1);
  result.offsets.push_back(0);
  for (int s = 0; s < B; ++s) {
    const int n = offsets[s + 1] - offsets[s];
    const int keep =
        std::max(1, static_cast<int>(ratio_ * static_cast<double>(n) + 0.999));
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), offsets[s]);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return scores->value.At(a, 0) > scores->value.At(b, 0);
    });
    order.resize(static_cast<size_t>(std::min(keep, n)));
    std::sort(order.begin(), order.end());
    result.kept.insert(result.kept.end(), order.begin(), order.end());
    result.offsets.push_back(static_cast<int>(result.kept.size()));
  }

  Tensor* gated = RowScale(t, h, scores);
  result.features = GatherRows(t, gated, result.kept);

  // Distance-<=2 induced adjacency, one segment at a time over the batch
  // CSR (a block-diagonal walk never leaves its segment). Each segment's
  // normalized block is built by the same per-graph NormalizedAdjacency
  // call the sequential path uses — never a dense pass over the whole
  // batch — then shifted into the block-diagonal result.
  const auto csr = adj_raw.CsrView();
  std::vector<char> reach(static_cast<size_t>(h->rows()), 0);
  std::vector<int> touched;
  std::vector<std::pair<int, int>> new_edges;
  result.adj_norm.rows = result.adj_norm.cols =
      static_cast<int>(result.kept.size());
  result.adj_raw.rows = result.adj_raw.cols = result.adj_norm.rows;
  for (int s = 0; s < B; ++s) {
    const int k0 = result.offsets[s];
    const int k1 = result.offsets[s + 1];
    new_edges.clear();
    for (int a = k0; a < k1; ++a) {
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
          new_edges.emplace_back(a - k0, b - k0);
        }
      }
      for (int w : touched) reach[static_cast<size_t>(w)] = 0;
    }
    const SparseMatrix block = NormalizedAdjacency(k1 - k0, new_edges);
    for (const auto& e : block.entries) {
      result.adj_norm.Add(e.r + k0, e.c + k0, e.v);
    }
    for (const auto& [a, b] : new_edges) {
      result.adj_raw.AddSymmetric(a + k0, b + k0, 1.f);
    }
  }
  result.adj_norm.BuildCsrCache();
  result.adj_raw.BuildCsrCache();

  // Per-scale B x 1 graph logits for the pooling loss.
  result.graph_logits =
      logit_.Forward(t, SegmentMeanRows(t, result.features, result.offsets));
  return result;
}

}  // namespace glint::gnn
