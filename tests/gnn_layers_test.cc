// Unit tests for the GNN layer primitives: Linear, the convolutions,
// semantic attention, VIPool, and the metapath converter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gnn/metapath.h"

namespace glint::gnn {
namespace {

Matrix Rand(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (auto& v : m.data) v = static_cast<float>(rng.Gaussian());
  return m;
}

SparseMatrix ChainAdjNorm(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return NormalizedAdjacency(n, edges);
}

SparseMatrix ChainAdjRaw(int n) {
  SparseMatrix adj;
  adj.rows = n;
  adj.cols = n;
  for (int i = 0; i + 1 < n; ++i) {
    adj.entries.push_back({i, i + 1, 1.f});
    adj.entries.push_back({i + 1, i, 1.f});
  }
  return adj;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

TEST(LinearLayer, ShapesAndBias) {
  Rng rng(1);
  Linear lin(3, 5, &rng);
  EXPECT_EQ(lin.in_dim(), 3);
  EXPECT_EQ(lin.out_dim(), 5);
  Tape t;
  Tensor* y = lin.Forward(&t, t.Constant(Matrix(2, 3, 0.f)));
  EXPECT_EQ(y->rows(), 2);
  EXPECT_EQ(y->cols(), 5);
  // Zero input -> bias (zero-initialized) output.
  for (float v : y->value.data) EXPECT_FLOAT_EQ(v, 0.f);
}

// ---------------------------------------------------------------------------
// Convolutions
// ---------------------------------------------------------------------------

TEST(Convolutions, GcnOutputsNonNegative) {
  Rng rng(3);
  GcnConv conv(4, 8, &rng);
  Tape t;
  Tensor* h = conv.Forward(&t, ChainAdjNorm(5), t.Constant(Rand(5, 4, 9)));
  EXPECT_EQ(h->rows(), 5);
  EXPECT_EQ(h->cols(), 8);
  for (float v : h->value.data) EXPECT_GE(v, 0.f);  // ReLU output
}

TEST(Convolutions, GcnMixesNeighbourInformation) {
  // With a chain graph, perturbing node 0's features must change node 1's
  // output (message passing) but not node 4's in a single layer... node 4
  // is 4 hops away, so one conv layer cannot reach it.
  Rng rng(4);
  GcnConv conv(2, 4, &rng);
  Matrix x = Rand(5, 2, 10);
  Tape t1;
  Tensor* base = conv.Forward(&t1, ChainAdjNorm(5), t1.Constant(x));
  Matrix x2 = x;
  x2.At(0, 0) += 5.f;
  Tape t2;
  Tensor* pert = conv.Forward(&t2, ChainAdjNorm(5), t2.Constant(x2));
  double delta1 = 0, delta4 = 0;
  for (int j = 0; j < 4; ++j) {
    delta1 += std::fabs(base->value.At(1, j) - pert->value.At(1, j));
    delta4 += std::fabs(base->value.At(4, j) - pert->value.At(4, j));
  }
  EXPECT_GT(delta1, 1e-4);
  EXPECT_NEAR(delta4, 0.0, 1e-6);
}

TEST(Convolutions, GinAndTagShapes) {
  Rng rng(5);
  GinConv gin(4, 6, &rng);
  TagConv tag(4, 6, 2, &rng);
  Tape t;
  Tensor* x = t.Constant(Rand(5, 4, 11));
  EXPECT_EQ(gin.Forward(&t, ChainAdjRaw(5), x)->cols(), 6);
  EXPECT_EQ(tag.Forward(&t, ChainAdjNorm(5), x)->cols(), 6);
}

TEST(Convolutions, TagHopsExpandReceptiveField) {
  // A K-hop TAG conv reaches K steps along the chain in one layer.
  Rng rng(6);
  TagConv tag(2, 4, 3, &rng);
  Matrix x = Rand(6, 2, 12);
  Tape t1;
  Tensor* base = tag.Forward(&t1, ChainAdjNorm(6), t1.Constant(x));
  Matrix x2 = x;
  x2.At(0, 0) += 5.f;
  Tape t2;
  Tensor* pert = tag.Forward(&t2, ChainAdjNorm(6), t2.Constant(x2));
  double delta3 = 0, delta5 = 0;
  for (int j = 0; j < 4; ++j) {
    delta3 += std::fabs(base->value.At(3, j) - pert->value.At(3, j));
    delta5 += std::fabs(base->value.At(5, j) - pert->value.At(5, j));
  }
  EXPECT_GT(delta3, 1e-5);         // 3 hops: reachable
  EXPECT_NEAR(delta5, 0.0, 1e-6);  // 5 hops: out of range
}

// ---------------------------------------------------------------------------
// Semantic attention
// ---------------------------------------------------------------------------

TEST(SemanticAttentionLayer, OutputIsConvexishCombination) {
  Rng rng(7);
  SemanticAttention att(3, 2, &rng);
  Tape t;
  // Two constant paths with distinct values.
  Tensor* p0 = t.Constant(Matrix(4, 3, 1.f));
  Tensor* p1 = t.Constant(Matrix(4, 3, 3.f));
  Tensor* out = att.Forward(&t, {p0, p1}, std::vector<int>{0, 4});
  ASSERT_EQ(out->rows(), 4);
  for (float v : out->value.data) {
    EXPECT_GE(v, 1.f - 1e-5);
    EXPECT_LE(v, 3.f + 1e-5);
  }
}

TEST(SemanticAttentionLayer, SinglePathIsIdentity) {
  Rng rng(8);
  SemanticAttention att(3, 1, &rng);
  Tape t;
  Tensor* p0 = t.Constant(Rand(4, 3, 13));
  EXPECT_EQ(att.Forward(&t, {p0}, std::vector<int>{0, 4}), p0);
}

// ---------------------------------------------------------------------------
// VIPool
// ---------------------------------------------------------------------------

TEST(VIPoolLayer, KeepsRequestedFraction) {
  Rng rng(9);
  VIPool pool(4, 0.5, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(8), ChainAdjRaw(8),
                             t.Constant(Rand(8, 4, 14)),
                             std::vector<int>{0, 8});
  EXPECT_EQ(result.kept.size(), 4u);  // ceil(0.5 * 8)
  EXPECT_EQ(result.features->rows(), 4);
  ASSERT_NE(result.graph_logits, nullptr);
  EXPECT_EQ(result.graph_logits->rows(), 1);
  EXPECT_EQ(result.offsets, (std::vector<int>{0, 4}));
  // Kept indices are valid and strictly increasing.
  for (size_t i = 1; i < result.kept.size(); ++i) {
    EXPECT_LT(result.kept[i - 1], result.kept[i]);
  }
}

TEST(VIPoolLayer, RatioOneKeepsEverything) {
  Rng rng(10);
  VIPool pool(4, 1.0, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(5), ChainAdjRaw(5),
                             t.Constant(Rand(5, 4, 15)),
                             std::vector<int>{0, 5});
  EXPECT_EQ(result.kept.size(), 5u);
}

TEST(VIPoolLayer, SingleNodeGraphSafe) {
  Rng rng(11);
  VIPool pool(4, 0.6, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(1), ChainAdjRaw(1),
                             t.Constant(Rand(1, 4, 16)),
                             std::vector<int>{0, 1});
  EXPECT_EQ(result.kept.size(), 1u);
}

TEST(VIPoolLayer, TwoHopConnectivityPreserved) {
  // Pooling a chain must not fully disconnect it: consecutive kept nodes
  // within 2 hops get an edge.
  Rng rng(12);
  VIPool pool(4, 0.5, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(6), ChainAdjRaw(6),
                             t.Constant(Rand(6, 4, 17)),
                             std::vector<int>{0, 6});
  // If two kept nodes are adjacent-or-2-hop in the original chain, the
  // pooled adjacency must contain at least one edge when > 1 node kept.
  bool any_close = false;
  for (size_t i = 1; i < result.kept.size(); ++i) {
    if (result.kept[i] - result.kept[i - 1] <= 2) any_close = true;
  }
  if (any_close) {
    EXPECT_FALSE(result.adj_raw.entries.empty());
  }
}

// Two chains pooled as one block-diagonal batch: each segment is pooled
// exactly as if it ran alone (kept rows shifted by the segment's offset,
// same features, same per-graph logit, same adjacency block).
TEST(VIPoolLayer, SegmentsPoolAsIfAlone) {
  Rng rng(18);
  VIPool pool(4, 0.5, &rng);
  const Matrix h5 = Rand(5, 4, 19);
  const Matrix h3 = Rand(3, 4, 20);
  Matrix both(8, 4);
  std::copy(h5.data.begin(), h5.data.end(), both.data.begin());
  std::copy(h3.data.begin(), h3.data.end(), both.data.begin() + 20);
  SparseMatrix norm, raw;
  norm.rows = norm.cols = raw.rows = raw.cols = 8;
  for (const int off : {0, 5}) {
    const int n = off == 0 ? 5 : 3;
    for (const auto& e : ChainAdjNorm(n).entries) {
      norm.Add(e.r + off, e.c + off, e.v);
    }
    for (const auto& e : ChainAdjRaw(n).entries) {
      raw.Add(e.r + off, e.c + off, e.v);
    }
  }

  Tape t;
  const std::vector<int> offsets = {0, 5, 8};
  auto batch = pool.Forward(&t, norm, raw, t.Constant(both), offsets);
  ASSERT_EQ(batch.offsets.size(), 3u);
  ASSERT_EQ(batch.graph_logits->rows(), 2);
  for (int s = 0; s < 2; ++s) {
    const int off = offsets[static_cast<size_t>(s)];
    const int n = offsets[static_cast<size_t>(s) + 1] - off;
    auto alone = pool.Forward(&t, ChainAdjNorm(n), ChainAdjRaw(n),
                              t.Constant(s == 0 ? h5 : h3),
                              std::vector<int>{0, n});
    const int k0 = batch.offsets[static_cast<size_t>(s)];
    ASSERT_EQ(batch.offsets[static_cast<size_t>(s) + 1] - k0,
              static_cast<int>(alone.kept.size()));
    for (size_t i = 0; i < alone.kept.size(); ++i) {
      EXPECT_EQ(batch.kept[static_cast<size_t>(k0) + i], alone.kept[i] + off);
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(batch.features->value.At(k0 + static_cast<int>(i), j),
                  alone.features->value.At(static_cast<int>(i), j));
      }
    }
    EXPECT_EQ(batch.graph_logits->value.At(s, 0),
              alone.graph_logits->value.At(0, 0));
    std::vector<SparseMatrix::Entry> block;
    for (const auto& e : batch.adj_norm.entries) {
      if (e.r >= k0 && e.r < k0 + static_cast<int>(alone.kept.size())) {
        block.push_back({e.r - k0, e.c - k0, e.v});
      }
    }
    ASSERT_EQ(block.size(), alone.adj_norm.entries.size());
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(block[i].r, alone.adj_norm.entries[i].r);
      EXPECT_EQ(block[i].c, alone.adj_norm.entries[i].c);
      EXPECT_EQ(block[i].v, alone.adj_norm.entries[i].v);
    }
  }
}

// ---------------------------------------------------------------------------
// Metapath converter
// ---------------------------------------------------------------------------

GnnGraph MixedGraph() {
  GnnGraph g;
  g.num_nodes = 3;
  g.node_types = {0, 1, 0};
  g.type_rows[0] = {0, 2};
  g.type_rows[1] = {1};
  g.typed_features[0] = Matrix(2, kTypeDims[0], 0.5f);
  g.typed_features[1] = Matrix(1, kTypeDims[1], -0.5f);
  g.edges = {{0, 1}, {1, 2}};
  g.adj_norm = NormalizedAdjacency(3, g.edges);
  g.adj_raw.rows = 3;
  g.adj_raw.cols = 3;
  g.neighbors = {{1}, {0, 2}, {1}};
  return g;
}

TEST(MetapathConverterLayer, ProjectsToSharedSpaceInNodeOrder) {
  Rng rng(13);
  MetapathConverter conv({16, true, true}, &rng);
  Tape t;
  GnnGraph g = MixedGraph();
  Tensor* h = conv.Forward(&t, g, std::vector<int>{0, g.num_nodes});
  EXPECT_EQ(h->rows(), 3);
  EXPECT_EQ(h->cols(), 16);
  // Nodes 0 and 2 share the same type and identical raw features but have
  // different neighbourhood types; with intra aggregation their outputs
  // may differ — but under full ablation they must be identical.
  Rng rng2(13);
  MetapathConverter plain({16, false, false}, &rng2);
  Tape t2;
  Tensor* h2 = plain.Forward(&t2, g, std::vector<int>{0, g.num_nodes});
  for (int j = 0; j < 16; ++j) {
    EXPECT_NEAR(h2->value.At(0, j), h2->value.At(2, j), 1e-5);
  }
}

TEST(MetapathConverterLayer, HandlesSingleTypeGraphs) {
  Rng rng(14);
  MetapathConverter conv({16, true, true}, &rng);
  GnnGraph g;
  g.num_nodes = 2;
  g.node_types = {0, 0};
  g.type_rows[0] = {0, 1};
  g.typed_features[0] = Matrix(2, kTypeDims[0], 0.3f);
  g.edges = {{0, 1}};
  g.adj_norm = NormalizedAdjacency(2, g.edges);
  g.adj_raw.rows = 2;
  g.adj_raw.cols = 2;
  g.neighbors = {{1}, {0}};
  Tape t;
  Tensor* h = conv.Forward(&t, g, std::vector<int>{0, g.num_nodes});
  EXPECT_EQ(h->rows(), 2);
  for (float v : h->value.data) EXPECT_FALSE(std::isnan(v));
}

TEST(MetapathConverterLayer, ParametersIncludeAllSubmodules) {
  Rng rng(15);
  MetapathConverter conv({16, true, true}, &rng);
  // 2 projections + 2 intra + self + attention(summar + q) = 2*2+2*2+2+3
  EXPECT_EQ(conv.Parameters().size(), 13u);
}

}  // namespace
}  // namespace glint::gnn
