#pragma once

#include <string>
#include <vector>

#include "gnn/ggraph.h"
#include "gnn/tensor.h"

namespace glint::gnn {

/// Fully connected layer y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, Rng* rng)
      : w_(Matrix::HeInit(in, out, rng)), b_(Matrix(1, out)) {}

  Tensor* Forward(Tape* t, Tensor* x) {
    return Add(t, MatMul(t, x, &w_), &b_);
  }

  std::vector<Parameter*> Parameters() { return {&w_, &b_}; }
  int in_dim() const { return w_.value.rows; }
  /// Kept for the tests: they check layer shapes.
  int out_dim() const { return w_.value.cols; }

 private:
  Parameter w_{Matrix(1, 1)};
  Parameter b_{Matrix(1, 1)};
};

/// Graph convolution (Kipf & Welling): H' = ReLU(Â H W + b).
class GcnConv {
 public:
  GcnConv() = default;
  GcnConv(int in, int out, Rng* rng) : lin_(in, out, rng) {}

  Tensor* Forward(Tape* t, const SparseMatrix& adj_norm, Tensor* h) {
    return Relu(t, SpMM(t, adj_norm, lin_.Forward(t, h)));
  }

  std::vector<Parameter*> Parameters() { return lin_.Parameters(); }

 private:
  Linear lin_;
};

/// Graph isomorphism layer (Xu et al.): H' = MLP((1+eps) H + sum_N H).
class GinConv {
 public:
  GinConv() = default;
  GinConv(int in, int out, Rng* rng)
      : lin1_(in, out, rng), lin2_(out, out, rng) {}

  Tensor* Forward(Tape* t, const SparseMatrix& adj_raw, Tensor* h) {
    Tensor* agg = SpMM(t, adj_raw, h);           // sum over neighbours
    Tensor* self = Scale(t, h, 1.f + eps_);
    Tensor* mix = Add(t, self, agg);
    return Relu(t, lin2_.Forward(t, Relu(t, lin1_.Forward(t, mix))));
  }

  std::vector<Parameter*> Parameters() {
    auto p = lin1_.Parameters();
    auto q = lin2_.Parameters();
    p.insert(p.end(), q.begin(), q.end());
    return p;
  }

 private:
  Linear lin1_, lin2_;
  float eps_ = 0.f;
};

/// Topology-adaptive graph convolution (Du et al.): H' = Σ_{k=0..K} Â^k H W_k
/// — exact polynomial filtering, no convolution approximation (Sec. 3.3.1).
class TagConv {
 public:
  TagConv() = default;
  TagConv(int in, int out, int hops, Rng* rng) {
    for (int k = 0; k <= hops; ++k) hop_lins_.emplace_back(in, out, rng);
  }

  Tensor* Forward(Tape* t, const SparseMatrix& adj_norm, Tensor* h) {
    Tensor* acc = nullptr;
    Tensor* power = h;  // Â^0 H
    for (size_t k = 0; k < hop_lins_.size(); ++k) {
      acc = AddLoss(t, acc, hop_lins_[k].Forward(t, power));
      if (k + 1 < hop_lins_.size()) power = SpMM(t, adj_norm, power);
    }
    return Relu(t, acc);
  }

  std::vector<Parameter*> Parameters() {
    std::vector<Parameter*> out;
    for (auto& lin : hop_lins_) {
      auto p = lin.Parameters();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

 private:
  std::vector<Linear> hop_lins_;
};

/// Inter-metapath semantic attention (Algorithm 2 lines 9-11): summarizes
/// each metapath's node matrix, scores it with an attention vector, and
/// returns the softmax-weighted combination.
class SemanticAttention {
 public:
  SemanticAttention() = default;
  SemanticAttention(int dim, int num_paths, Rng* rng)
      : summar_(dim, dim, rng), q_(Matrix::HeInit(dim, 1, rng)) {
    (void)num_paths;
  }

  /// `paths` are per-metapath node matrices (same shape) whose rows are
  /// grouped into graphs by the segment table `offsets` (B+1 entries, see
  /// the segment ops in gnn/tensor.h). Each graph gets its own per-metapath
  /// summary and softmax weights. Returns the attended combination (same
  /// shape).
  Tensor* Forward(Tape* t, const std::vector<Tensor*>& paths,
                  std::span<const int> offsets);

  std::vector<Parameter*> Parameters() {
    auto p = summar_.Parameters();
    p.push_back(&q_);
    return p;
  }

 private:
  Linear summar_;
  Parameter q_{Matrix(1, 1)};
};

/// Vertex-infomax pooling (Li et al., GXN): scores vertices by the
/// (neural-estimated) mutual information between a vertex and its
/// neighbourhood, keeps the top `ratio` fraction, and gates the kept
/// features by their scores. Also emits a per-scale graph logit used by the
/// pooling loss of Eq. 2.
class VIPool {
 public:
  VIPool() = default;
  VIPool(int dim, double ratio, Rng* rng)
      : ratio_(ratio), score_(2 * dim, 1, rng), logit_(dim, 1, rng) {}

  /// Pools every graph of the segment table `offsets` (the rows of `h`)
  /// on its own: its vertices are scored, ranked and coarsened without
  /// reading any other segment, and the pooled graphs are packed
  /// block-diagonally again.
  struct Result {
    Tensor* features = nullptr;      ///< pooled node features
    SparseMatrix adj_norm;           ///< pooled normalized adjacency
    SparseMatrix adj_raw;            ///< pooled raw adjacency
    std::vector<int> kept;           ///< kept row indices (into input rows)
    std::vector<int> offsets;        ///< pooled B+1 segment table
    Tensor* graph_logits = nullptr;  ///< B x 1 per-scale logits for L_pool
  };

  Result Forward(Tape* t, const SparseMatrix& adj_norm,
                 const SparseMatrix& adj_raw, Tensor* h,
                 std::span<const int> offsets);

  std::vector<Parameter*> Parameters() {
    auto p = score_.Parameters();
    auto q = logit_.Parameters();
    p.insert(p.end(), q.begin(), q.end());
    return p;
  }

 private:
  double ratio_ = 0.6;
  Linear score_;
  Linear logit_;
};

}  // namespace glint::gnn
