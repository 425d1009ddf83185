// Unit tests for the GNN layer primitives: Linear, the convolutions,
// semantic attention, VIPool, and the metapath converter.

#include <gtest/gtest.h>

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
  Tensor* out = att.Forward(&t, {p0, p1});
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
  EXPECT_EQ(att.Forward(&t, {p0}), p0);
}

// ---------------------------------------------------------------------------
// VIPool
// ---------------------------------------------------------------------------

TEST(VIPoolLayer, KeepsRequestedFraction) {
  Rng rng(9);
  VIPool pool(4, 0.5, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(8), ChainAdjRaw(8),
                             t.Constant(Rand(8, 4, 14)));
  EXPECT_EQ(result.kept.size(), 4u);  // ceil(0.5 * 8)
  EXPECT_EQ(result.features->rows(), 4);
  EXPECT_NE(result.graph_logit, nullptr);
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
                             t.Constant(Rand(5, 4, 15)));
  EXPECT_EQ(result.kept.size(), 5u);
}

TEST(VIPoolLayer, SingleNodeGraphSafe) {
  Rng rng(11);
  VIPool pool(4, 0.6, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(1), ChainAdjRaw(1),
                             t.Constant(Rand(1, 4, 16)));
  EXPECT_EQ(result.kept.size(), 1u);
}

TEST(VIPoolLayer, TwoHopConnectivityPreserved) {
  // Pooling a chain must not fully disconnect it: consecutive kept nodes
  // within 2 hops get an edge.
  Rng rng(12);
  VIPool pool(4, 0.5, &rng);
  Tape t;
  auto result = pool.Forward(&t, ChainAdjNorm(6), ChainAdjRaw(6),
                             t.Constant(Rand(6, 4, 17)));
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
  Tensor* h = conv.Forward(&t, g);
  EXPECT_EQ(h->rows(), 3);
  EXPECT_EQ(h->cols(), 16);
  // Nodes 0 and 2 share the same type and identical raw features but have
  // different neighbourhood types; with intra aggregation their outputs
  // may differ — but under full ablation they must be identical.
  Rng rng2(13);
  MetapathConverter plain({16, false, false}, &rng2);
  Tape t2;
  Tensor* h2 = plain.Forward(&t2, g);
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
  Tensor* h = conv.Forward(&t, g);
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
