#include "gnn/models.h"

#include "obs/obs.h"

namespace glint::gnn {

Tensor* HomogeneousFeatures(Tape* t, const GnnGraph& g) {
  GLINT_CHECK(!g.IsHeterogeneous());
  for (int type = 0; type < kNumNodeTypes; ++type) {
    if (!g.type_rows[type].empty()) {
      return t->Constant(g.typed_features[type]);
    }
  }
  GLINT_CHECK(false && "empty graph");
  return nullptr;
}

// ---------------------------------------------------------------------------
// GCN
// ---------------------------------------------------------------------------

GcnModel::GcnModel(int in_dim, int hidden, int num_layers, uint64_t seed)
    : hidden_(hidden) {
  Rng rng(seed);
  int in = in_dim;
  for (int l = 0; l < num_layers; ++l) {
    convs_.emplace_back(in, hidden, &rng);
    in = hidden;
  }
  head_ = Linear(2 * hidden, 2, &rng);
}

ForwardResult GcnModel::Forward(Tape* t, const GnnGraph& g) {
  const int whole[] = {0, g.num_nodes};
  Tensor* h = HomogeneousFeatures(t, g);
  for (auto& conv : convs_) h = conv.Forward(t, g.adj_norm, h);
  ForwardResult r;
  r.embedding = ConcatCols(t, SegmentMeanRows(t, h, whole),
                           SegmentMaxRows(t, h, whole));
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> GcnModel::Parameters() {
  std::vector<Parameter*> out;
  for (auto& c : convs_) {
    auto p = c.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  auto h = head_.Parameters();
  out.insert(out.end(), h.begin(), h.end());
  return out;
}

std::vector<std::vector<Parameter*>> GcnModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  for (auto& c : convs_) groups.push_back(c.Parameters());
  groups.push_back(head_.Parameters());
  return groups;
}

// ---------------------------------------------------------------------------
// GIN / InfoGraph
// ---------------------------------------------------------------------------

GinModel::GinModel(int in_dim, int hidden, int num_layers, uint64_t seed)
    : hidden_(hidden) {
  Rng rng(seed);
  int in = in_dim;
  for (int l = 0; l < num_layers; ++l) {
    convs_.emplace_back(in, hidden, &rng);
    in = hidden;
  }
  head_ = Linear(2 * hidden, 2, &rng);
}

Tensor* GinModel::Encode(Tape* t, const GnnGraph& g,
                         Tensor** node_embeddings) {
  const int whole[] = {0, g.num_nodes};
  Tensor* h = HomogeneousFeatures(t, g);
  for (auto& conv : convs_) h = conv.Forward(t, g.adj_raw, h);
  if (node_embeddings != nullptr) *node_embeddings = h;
  return ConcatCols(t, SegmentMeanRows(t, h, whole),
                    SegmentMaxRows(t, h, whole));
}

ForwardResult GinModel::Forward(Tape* t, const GnnGraph& g) {
  ForwardResult r;
  r.embedding = Encode(t, g, nullptr);
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> GinModel::Parameters() {
  std::vector<Parameter*> out;
  for (auto& c : convs_) {
    auto p = c.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  auto h = head_.Parameters();
  out.insert(out.end(), h.begin(), h.end());
  return out;
}

std::vector<std::vector<Parameter*>> GinModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  for (auto& c : convs_) groups.push_back(c.Parameters());
  groups.push_back(head_.Parameters());
  return groups;
}

InfoGraphModel::InfoGraphModel(int in_dim, int hidden, int num_layers,
                               uint64_t seed)
    : GinModel(in_dim, hidden, num_layers, seed) {
  Rng rng(seed ^ 0x1f6a);
  disc_w_ = Parameter(Matrix::HeInit(2 * hidden, hidden, &rng));
}

Tensor* InfoGraphModel::AuxLoss(Tape* t, const GnnGraph& g,
                                const ForwardResult& r) {
  // Positive pairs: (graph embedding, node embedding) from the true graph.
  Tensor* nodes = nullptr;
  Encode(t, g, &nodes);
  // Corrupted graph: node features shuffled within the graph. The shuffle
  // stream is derived from the graph itself (not a member RNG) so AuxLoss
  // is stateless — the corruption is identical regardless of call order or
  // thread count.
  uint64_t h = 0xfeedULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x9e3779b97f4a7c15ULL; };
  mix(static_cast<uint64_t>(g.num_nodes));
  mix(static_cast<uint64_t>(g.label) + 1);
  for (const auto& [s, d] : g.edges) {
    mix((static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(d));
  }
  Rng corrupt_rng(h);
  GnnGraph corrupted = g;
  for (int type = 0; type < kNumNodeTypes; ++type) {
    Matrix& m = corrupted.typed_features[type];
    if (m.rows <= 1) continue;
    for (int i = m.rows - 1; i > 0; --i) {
      const int j =
          static_cast<int>(corrupt_rng.Below(static_cast<uint64_t>(i + 1)));
      for (int c = 0; c < m.cols; ++c) std::swap(m.At(i, c), m.At(j, c));
    }
  }
  Tensor* corrupt_nodes = nullptr;
  Encode(t, corrupted, &corrupt_nodes);

  // Bilinear discriminator: D(z, h) = z W h^T — BCE with positives 1,
  // corrupted 0. Averaged over nodes.
  Tensor* zw = MatMul(t, r.embedding, &disc_w_);  // 1 x hidden
  Tensor* loss = nullptr;
  const float inv = 1.0f / static_cast<float>(std::max(1, g.num_nodes));
  for (int split = 0; split < 2; ++split) {
    Tensor* h = split == 0 ? nodes : corrupt_nodes;
    const int label = split == 0 ? 1 : 0;
    // scores = h * (zw)^T computed as row-wise dot: (n x d) * (d x 1).
    Tensor* zt = Transpose(t, zw);
    Tensor* scores = MatMul(t, h, zt);  // n x 1
    for (int i = 0; i < scores->rows(); ++i) {
      Tensor* s = GatherRows(t, scores, {i});
      loss = AddLoss(t, loss, BceWithLogit(t, s, label, inv));
    }
  }
  return Scale(t, loss, 0.5f);
}

std::vector<Parameter*> InfoGraphModel::Parameters() {
  auto out = GinModel::Parameters();
  out.push_back(&disc_w_);
  return out;
}

// ---------------------------------------------------------------------------
// GXN
// ---------------------------------------------------------------------------

GxnModel::GxnModel(int in_dim, int hidden, int num_scales,
                   double pooling_ratio, uint64_t seed)
    : hidden_(hidden) {
  Rng rng(seed);
  input_ = Linear(in_dim, hidden, &rng);
  for (int s = 0; s < num_scales; ++s) {
    convs_.emplace_back(hidden, hidden, &rng);
    if (s + 1 < num_scales) pools_.emplace_back(hidden, pooling_ratio, &rng);
  }
  embed_dim_ = hidden;
  fuse_ = Linear(2 * hidden * num_scales, embed_dim_, &rng);
  head_ = Linear(embed_dim_, 2, &rng);
}

ForwardResult GxnModel::Forward(Tape* t, const GnnGraph& g) {
  const int whole[] = {0, g.num_nodes};
  Tensor* h = Relu(t, input_.Forward(t, HomogeneousFeatures(t, g)));
  // Walk the adjacency chain by pointer: scale 0 reads the graph's own
  // matrices, later scales read the pooled result (no copies either way).
  const SparseMatrix* adj_norm = &g.adj_norm;
  const SparseMatrix* adj_raw = &g.adj_raw;
  std::span<const int> offsets = whole;
  VIPool::Result pooled;
  ForwardResult r;
  Tensor* readouts = nullptr;
  for (size_t s = 0; s < convs_.size(); ++s) {
    h = convs_[s].Forward(t, *adj_norm, h);
    Tensor* ro = ConcatCols(t, SegmentMeanRows(t, h, offsets),
                            SegmentMaxRows(t, h, offsets));
    readouts = readouts == nullptr ? ro : ConcatCols(t, readouts, ro);
    if (s < pools_.size()) {
      pooled = pools_[s].Forward(t, *adj_norm, *adj_raw, h, offsets);
      h = pooled.features;
      adj_norm = &pooled.adj_norm;
      adj_raw = &pooled.adj_raw;
      offsets = pooled.offsets;
      r.pool_logits.push_back(pooled.graph_logits);
    }
  }
  r.embedding = Relu(t, fuse_.Forward(t, readouts));
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> GxnModel::Parameters() {
  std::vector<Parameter*> out;
  auto add = [&](std::vector<Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  add(input_.Parameters());
  for (auto& c : convs_) add(c.Parameters());
  for (auto& p : pools_) add(p.Parameters());
  add(fuse_.Parameters());
  add(head_.Parameters());
  return out;
}

std::vector<std::vector<Parameter*>> GxnModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  groups.push_back(input_.Parameters());
  for (size_t s = 0; s < convs_.size(); ++s) {
    auto g = convs_[s].Parameters();
    if (s < pools_.size()) {
      auto p = pools_[s].Parameters();
      g.insert(g.end(), p.begin(), p.end());
    }
    groups.push_back(g);
  }
  auto tail = fuse_.Parameters();
  auto h = head_.Parameters();
  tail.insert(tail.end(), h.begin(), h.end());
  groups.push_back(tail);
  return groups;
}

// ---------------------------------------------------------------------------
// MAGCN
// ---------------------------------------------------------------------------

MagcnModel::MagcnModel(int hidden, int num_layers, uint64_t seed)
    : hidden_(hidden) {
  Rng rng(seed);
  converter_ = MetapathConverter({hidden, true, true}, &rng);
  for (int l = 0; l < num_layers; ++l) convs_.emplace_back(hidden, hidden, &rng);
  head_ = Linear(2 * hidden, 2, &rng);
}

ForwardResult MagcnModel::Forward(Tape* t, const GnnGraph& g) {
  const int whole[] = {0, g.num_nodes};
  Tensor* h = converter_.Forward(t, g, whole);
  for (auto& conv : convs_) h = conv.Forward(t, g.adj_norm, h);
  ForwardResult r;
  r.embedding = ConcatCols(t, SegmentMeanRows(t, h, whole),
                           SegmentMaxRows(t, h, whole));
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> MagcnModel::Parameters() {
  auto out = converter_.Parameters();
  for (auto& c : convs_) {
    auto p = c.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  auto h = head_.Parameters();
  out.insert(out.end(), h.begin(), h.end());
  return out;
}

std::vector<std::vector<Parameter*>> MagcnModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  groups.push_back(converter_.Parameters());
  for (auto& c : convs_) groups.push_back(c.Parameters());
  groups.push_back(head_.Parameters());
  return groups;
}

// ---------------------------------------------------------------------------
// MAGXN
// ---------------------------------------------------------------------------

MagxnModel::MagxnModel(int hidden, int num_scales, double pooling_ratio,
                       uint64_t seed)
    : hidden_(hidden) {
  Rng rng(seed);
  converter_ = MetapathConverter({hidden, true, true}, &rng);
  for (int s = 0; s < num_scales; ++s) {
    convs_.emplace_back(hidden, hidden, &rng);
    if (s + 1 < num_scales) pools_.emplace_back(hidden, pooling_ratio, &rng);
  }
  embed_dim_ = hidden;
  fuse_ = Linear(2 * hidden * num_scales, embed_dim_, &rng);
  head_ = Linear(embed_dim_, 2, &rng);
}

ForwardResult MagxnModel::Forward(Tape* t, const GnnGraph& g) {
  const int whole[] = {0, g.num_nodes};
  Tensor* h = converter_.Forward(t, g, whole);
  const SparseMatrix* adj_norm = &g.adj_norm;
  const SparseMatrix* adj_raw = &g.adj_raw;
  std::span<const int> offsets = whole;
  VIPool::Result pooled;
  ForwardResult r;
  Tensor* readouts = nullptr;
  for (size_t s = 0; s < convs_.size(); ++s) {
    h = convs_[s].Forward(t, *adj_norm, h);
    Tensor* ro = ConcatCols(t, SegmentMeanRows(t, h, offsets),
                            SegmentMaxRows(t, h, offsets));
    readouts = readouts == nullptr ? ro : ConcatCols(t, readouts, ro);
    if (s < pools_.size()) {
      pooled = pools_[s].Forward(t, *adj_norm, *adj_raw, h, offsets);
      h = pooled.features;
      adj_norm = &pooled.adj_norm;
      adj_raw = &pooled.adj_raw;
      offsets = pooled.offsets;
      r.pool_logits.push_back(pooled.graph_logits);
    }
  }
  r.embedding = Relu(t, fuse_.Forward(t, readouts));
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> MagxnModel::Parameters() {
  auto out = converter_.Parameters();
  auto add = [&](std::vector<Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  for (auto& c : convs_) add(c.Parameters());
  for (auto& p : pools_) add(p.Parameters());
  add(fuse_.Parameters());
  add(head_.Parameters());
  return out;
}

std::vector<std::vector<Parameter*>> MagxnModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  groups.push_back(converter_.Parameters());
  for (size_t s = 0; s < convs_.size(); ++s) {
    auto g = convs_[s].Parameters();
    if (s < pools_.size()) {
      auto p = pools_[s].Parameters();
      g.insert(g.end(), p.begin(), p.end());
    }
    groups.push_back(g);
  }
  auto tail = fuse_.Parameters();
  auto h = head_.Parameters();
  tail.insert(tail.end(), h.begin(), h.end());
  groups.push_back(tail);
  return groups;
}

// ---------------------------------------------------------------------------
// HGSL
// ---------------------------------------------------------------------------

HgslModel::HgslModel(int hidden, uint64_t seed) : hidden_(hidden) {
  Rng rng(seed);
  for (int t = 0; t < kNumNodeTypes; ++t) {
    proj_[t] = Linear(kTypeDims[t], hidden, &rng);
  }
  sim_w_ = Parameter(Matrix::HeInit(hidden, hidden, &rng));
  conv1_ = Linear(hidden, hidden, &rng);
  conv2_ = Linear(hidden, hidden, &rng);
  head_ = Linear(hidden, 2, &rng);
}

ForwardResult HgslModel::Forward(Tape* t, const GnnGraph& g) {
  // Per-type projection + scatter to node order (cached permutation).
  const auto meta = g.TypeMetaView();
  Tensor* blocks = nullptr;
  for (int type = 0; type < kNumNodeTypes; ++type) {
    if (g.type_rows[type].empty()) continue;
    Tensor* projected =
        proj_[type].Forward(t, t->Constant(g.typed_features[type]));
    blocks = blocks == nullptr ? projected : ConcatRows(t, blocks, projected);
  }
  Tensor* h = GatherRows(t, blocks, meta->perm);

  // Structure learning: S = sigmoid(H W H^T); mix with the observed
  // adjacency (densified once per graph), then two graph convolutions over
  // the mixture.
  Tensor* hw = MatMul(t, h, &sim_w_);  // n x d
  Tensor* ht = Transpose(t, h);
  Tensor* sim = Sigmoid(t, MatMul(t, hw, ht));  // n x n

  Tensor* mixed =
      Add(t, Scale(t, sim, 0.3f), t->Constant(*g.adj_norm.DenseView()));

  h = Relu(t, MatMul(t, mixed, conv1_.Forward(t, h)));
  h = Relu(t, MatMul(t, mixed, conv2_.Forward(t, h)));

  ForwardResult r;
  const int whole[] = {0, g.num_nodes};
  r.embedding = SegmentMeanRows(t, h, whole);
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> HgslModel::Parameters() {
  std::vector<Parameter*> out;
  auto add = [&](std::vector<Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  for (int t = 0; t < kNumNodeTypes; ++t) add(proj_[t].Parameters());
  out.push_back(&sim_w_);
  add(conv1_.Parameters());
  add(conv2_.Parameters());
  add(head_.Parameters());
  return out;
}

std::vector<std::vector<Parameter*>> HgslModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  std::vector<Parameter*> front;
  for (int t = 0; t < kNumNodeTypes; ++t) {
    auto p = proj_[t].Parameters();
    front.insert(front.end(), p.begin(), p.end());
  }
  groups.push_back(front);
  std::vector<Parameter*> mid = conv1_.Parameters();
  mid.push_back(&sim_w_);
  groups.push_back(mid);
  groups.push_back(conv2_.Parameters());
  groups.push_back(head_.Parameters());
  return groups;
}

// ---------------------------------------------------------------------------
// ITGNN
// ---------------------------------------------------------------------------

ItgnnModel::ItgnnModel(Config config) : config_(config) {
  Rng rng(config.seed);
  converter_ = MetapathConverter(
      {config.hidden, config.use_intra, config.use_inter,
       config.use_hadamard},
      &rng);
  for (int s = 0; s < config.num_scales; ++s) {
    std::vector<TagConv> layer;
    for (int l = 0; l < config.prop_layers; ++l) {
      layer.emplace_back(config.hidden, config.hidden, config.tag_hops, &rng);
    }
    scale_convs_.push_back(std::move(layer));
    if (s + 1 < config.num_scales) {
      pools_.emplace_back(config.hidden, config.pooling_ratio, &rng);
    }
  }
  fuse_ = Linear(2 * config.hidden * config.num_scales, config.embed_dim,
                 &rng);
  head_ = Linear(config.embed_dim, 2, &rng);
}

ForwardResult ItgnnModel::Forward(Tape* t, const GnnGraph& g) {
  GLINT_OBS_TIMER(timer, "glint.gnn.forward_ms");
  const int whole[] = {0, g.num_nodes};
  return Run(t, g, whole);
}

ForwardResult ItgnnModel::ForwardBatched(Tape* t, const GnnBatch& batch) {
  GLINT_OBS_TIMER(timer, "glint.gnn.forward_batched_ms");
  return Run(t, batch.graph, batch.offsets);
}

ForwardResult ItgnnModel::Run(Tape* t, const GnnGraph& g,
                              std::span<const int> offsets) {
  GLINT_CHECK(g.num_nodes > 0);  // a zero-node graph has no segment
  // Metapath-based node transformation (lines 1-13 of Algorithm 2).
  Tensor* h = converter_.Forward(t, g, offsets);

  // Multi-scale graph generation + TAG propagation (lines 15-21). TagConv
  // is row/CSR-row local, so the block-diagonal adjacency keeps every
  // graph's propagation independent; readouts and pooling run per segment.
  const SparseMatrix* adj_norm = &g.adj_norm;
  const SparseMatrix* adj_raw = &g.adj_raw;
  std::span<const int> segments = offsets;
  VIPool::Result pooled;
  ForwardResult r;
  Tensor* readouts = nullptr;
  for (size_t s = 0; s < scale_convs_.size(); ++s) {
    for (auto& conv : scale_convs_[s]) h = conv.Forward(t, *adj_norm, h);
    Tensor* ro = ConcatCols(t, SegmentMeanRows(t, h, segments),
                            SegmentMaxRows(t, h, segments));
    readouts = readouts == nullptr ? ro : ConcatCols(t, readouts, ro);
    if (s < pools_.size()) {
      pooled = pools_[s].Forward(t, *adj_norm, *adj_raw, h, segments);
      h = pooled.features;
      adj_norm = &pooled.adj_norm;
      adj_raw = &pooled.adj_raw;
      segments = pooled.offsets;
      r.pool_logits.push_back(pooled.graph_logits);
    }
  }
  // Fused multi-scale readout (line 22).
  r.embedding = Relu(t, fuse_.Forward(t, readouts));
  r.logits = head_.Forward(t, r.embedding);
  return r;
}

std::vector<Parameter*> ItgnnModel::Parameters() {
  auto out = converter_.Parameters();
  auto add = [&](std::vector<Parameter*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  for (auto& scale : scale_convs_) {
    for (auto& conv : scale) add(conv.Parameters());
  }
  for (auto& p : pools_) add(p.Parameters());
  add(fuse_.Parameters());
  add(head_.Parameters());
  return out;
}

std::vector<std::vector<Parameter*>> ItgnnModel::ParameterGroups() {
  std::vector<std::vector<Parameter*>> groups;
  groups.push_back(converter_.Parameters());
  for (size_t s = 0; s < scale_convs_.size(); ++s) {
    std::vector<Parameter*> g;
    for (auto& conv : scale_convs_[s]) {
      auto p = conv.Parameters();
      g.insert(g.end(), p.begin(), p.end());
    }
    if (s < pools_.size()) {
      auto p = pools_[s].Parameters();
      g.insert(g.end(), p.begin(), p.end());
    }
    groups.push_back(std::move(g));
  }
  auto tail = fuse_.Parameters();
  auto h = head_.Parameters();
  tail.insert(tail.end(), h.begin(), h.end());
  groups.push_back(tail);
  return groups;
}

}  // namespace glint::gnn
