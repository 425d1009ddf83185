#include "gnn/metapath.h"

namespace glint::gnn {

MetapathConverter::MetapathConverter(Config config, Rng* rng)
    : config_(config) {
  for (int t = 0; t < kNumNodeTypes; ++t) {
    proj_[t] = Linear(kTypeDims[t], config_.hidden, rng);
    intra_[t] = Linear((config_.use_hadamard ? 3 : 2) * config_.hidden,
                       config_.hidden, rng);
  }
  self_ = Linear(config_.hidden, config_.hidden, rng);
  attention_ = SemanticAttention(config_.hidden, kNumNodeTypes + 1, rng);
}

Tensor* MetapathConverter::Forward(Tape* t, const GnnGraph& g,
                                   std::span<const int> offsets) {
  // Scatter permutation and type-mean operators are graph-derived and
  // cached on the graph (built once, shared by every forward).
  const auto meta = g.TypeMetaView();

  // 1. Project each type block, then scatter back to original node order.
  Tensor* blocks = nullptr;
  for (int type = 0; type < kNumNodeTypes; ++type) {
    if (g.type_rows[type].empty()) continue;
    Tensor* projected =
        proj_[type].Forward(t, t->Constant(g.typed_features[type]));
    blocks = blocks == nullptr ? projected : ConcatRows(t, blocks, projected);
  }
  Tensor* h = GatherRows(t, blocks, meta->perm);  // n x hidden, node order

  if (!config_.use_intra && !config_.use_inter) {
    // Full ablation: plain projected features.
    return h;
  }

  // 2. Intra-metapath aggregation: one metapath per neighbour type. The
  // type-restricted mean-neighbour operator is a fixed sparse matrix.
  std::vector<Tensor*> paths;
  paths.push_back(Relu(t, self_.Forward(t, h)));
  if (config_.use_intra) {
    for (int type = 0; type < kNumNodeTypes; ++type) {
      Tensor* agg = SpMM(t, meta->type_mean[type], h);
      // Concat self, neighbour mean, and (optionally) their Hadamard
      // product — the multiplicative term lets a linear detector express
      // "my rule and a neighbour touch the same device with opposing
      // commands", which additive aggregation cannot represent.
      Tensor* both = ConcatCols(t, h, agg);
      if (config_.use_hadamard) {
        both = ConcatCols(t, both, Mul(t, h, agg));
      }
      paths.push_back(Relu(t, intra_[type].Forward(t, both)));
    }
  }

  // 3. Inter-metapath aggregation: semantic attention (or plain mean when
  // ablated). Attention is the only stage that reduces over rows, so it is
  // the only stage that reads the segment table.
  if (config_.use_inter) return attention_.Forward(t, paths, offsets);
  Tensor* sum = nullptr;
  for (Tensor* p : paths) sum = AddLoss(t, sum, p);
  return Scale(t, sum, 1.0f / static_cast<float>(paths.size()));
}

std::vector<Parameter*> MetapathConverter::Parameters() {
  std::vector<Parameter*> out;
  auto add = [&](std::vector<Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  for (int i = 0; i < kNumNodeTypes; ++i) add(proj_[i].Parameters());
  for (int i = 0; i < kNumNodeTypes; ++i) add(intra_[i].Parameters());
  add(self_.Parameters());
  add(attention_.Parameters());
  return out;
}

}  // namespace glint::gnn
