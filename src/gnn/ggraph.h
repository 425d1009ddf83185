#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gnn/tensor.h"
#include "graph/interaction_graph.h"

namespace glint::gnn {

/// Number of node types (text-rule platforms vs voice platforms).
constexpr int kNumNodeTypes = 2;
/// Feature dimensionality per node type (300-d word vectors / 512-d
/// sentence codes).
constexpr int kTypeDims[kNumNodeTypes] = {300, 512};

/// GNN-ready representation of an interaction graph: per-type feature
/// blocks, adjacency structures, and the label.
struct GnnGraph {
  int num_nodes = 0;
  int label = 0;  ///< 1 = vulnerable

  /// Node type per node.
  std::vector<int> node_types;

  /// Per-type feature matrices. typed_features[t] has one row per node of
  /// type t; type_rows[t][k] is the original node index of row k.
  Matrix typed_features[kNumNodeTypes];
  std::vector<int> type_rows[kNumNodeTypes];

  /// Symmetrically normalized adjacency with self-loops:
  /// D^-1/2 (A + A^T + I) D^-1/2 over all nodes.
  SparseMatrix adj_norm;
  /// Raw (unnormalized, symmetrized) adjacency without self-loops.
  SparseMatrix adj_raw;
  /// Directed edges as stored in the interaction graph.
  std::vector<std::pair<int, int>> edges;

  /// Per-node neighbour lists (undirected view) for metapath sampling.
  std::vector<std::vector<int>> neighbors;

  bool IsHeterogeneous() const {
    return !type_rows[1].empty() && !type_rows[0].empty();
  }

  /// Derived per-graph operators shared by the heterogeneous models: the
  /// type-block → node-order scatter permutation and the type-restricted
  /// mean-neighbour sparse operators. They depend only on the graph
  /// structure (node_types / type_rows / neighbors), never on feature
  /// values, so they are built once on first use and shared by copies —
  /// repeated forwards over the same graph stop paying the rebuild.
  struct TypeMeta {
    std::vector<int> perm;
    SparseMatrix type_mean[kNumNodeTypes];
  };

  /// Returns the derived operators, building and caching them on first use.
  /// Safe to call concurrently on a fully-constructed graph: the first
  /// build wins (same discipline as SparseMatrix::CsrView).
  std::shared_ptr<const TypeMeta> TypeMetaView() const;

  GnnGraph() = default;
  GnnGraph(const GnnGraph& o)
      : num_nodes(o.num_nodes),
        label(o.label),
        node_types(o.node_types),
        adj_norm(o.adj_norm),
        adj_raw(o.adj_raw),
        edges(o.edges),
        neighbors(o.neighbors),
        type_meta_(o.type_meta_.load()) {
    for (int t = 0; t < kNumNodeTypes; ++t) {
      typed_features[t] = o.typed_features[t];
      type_rows[t] = o.type_rows[t];
    }
  }
  GnnGraph& operator=(const GnnGraph& o) {
    if (this == &o) return *this;
    num_nodes = o.num_nodes;
    label = o.label;
    node_types = o.node_types;
    for (int t = 0; t < kNumNodeTypes; ++t) {
      typed_features[t] = o.typed_features[t];
      type_rows[t] = o.type_rows[t];
    }
    adj_norm = o.adj_norm;
    adj_raw = o.adj_raw;
    edges = o.edges;
    neighbors = o.neighbors;
    type_meta_.store(o.type_meta_.load());
    return *this;
  }
  GnnGraph(GnnGraph&& o) noexcept
      : num_nodes(o.num_nodes),
        label(o.label),
        node_types(std::move(o.node_types)),
        adj_norm(std::move(o.adj_norm)),
        adj_raw(std::move(o.adj_raw)),
        edges(std::move(o.edges)),
        neighbors(std::move(o.neighbors)),
        type_meta_(o.type_meta_.load()) {
    for (int t = 0; t < kNumNodeTypes; ++t) {
      typed_features[t] = std::move(o.typed_features[t]);
      type_rows[t] = std::move(o.type_rows[t]);
    }
    o.num_nodes = 0;
    o.type_meta_.store(std::shared_ptr<const TypeMeta>());
  }
  GnnGraph& operator=(GnnGraph&& o) noexcept {
    if (this == &o) return *this;
    num_nodes = o.num_nodes;
    label = o.label;
    node_types = std::move(o.node_types);
    for (int t = 0; t < kNumNodeTypes; ++t) {
      typed_features[t] = std::move(o.typed_features[t]);
      type_rows[t] = std::move(o.type_rows[t]);
    }
    adj_norm = std::move(o.adj_norm);
    adj_raw = std::move(o.adj_raw);
    edges = std::move(o.edges);
    neighbors = std::move(o.neighbors);
    type_meta_.store(o.type_meta_.load());
    o.num_nodes = 0;
    o.type_meta_.store(std::shared_ptr<const TypeMeta>());
    return *this;
  }

 private:
  mutable std::atomic<std::shared_ptr<const TypeMeta>> type_meta_;
};

/// Converts an interaction graph (features already attached to nodes) into
/// the GNN representation.
GnnGraph ToGnnGraph(const graph::InteractionGraph& g);

/// Converts a whole dataset.
std::vector<GnnGraph> ToGnnGraphs(const graph::GraphDataset& ds);

/// Builds the normalized adjacency for an explicit edge set over n nodes
/// (CSR mirror built).
SparseMatrix NormalizedAdjacency(int n,
                                 const std::vector<std::pair<int, int>>& edges);
/// Appends the same matrix to `adj` as its diagonal block at rows and
/// columns [offset, offset + n), entries in the same order; `edges` are in
/// those shifted indices. Builds no CSR.
void AppendNormalizedAdjacency(SparseMatrix* adj, int offset, int n,
                               std::span<const std::pair<int, int>> edges);

/// A block-diagonal super-graph packing B member graphs for one batched
/// forward: graph b owns the contiguous node range
/// [offsets[b], offsets[b+1]). Per-type feature blocks are concatenated in
/// graph order, adjacency entries are offset-shifted copies (so the CSR row
/// of any node lists exactly its member graph's entries, in the same
/// order), and no edge crosses a segment boundary. The segment ops
/// (SegmentMeanRows & co.) consume `offsets` to reduce each graph on its
/// own rows, so every graph's result has the bits of a forward over that
/// graph alone (which is the one-segment table {0, n}).
struct GnnBatch {
  GnnGraph graph;
  std::vector<int> offsets;  ///< B+1 ascending node offsets
  int size() const { return static_cast<int>(offsets.size()) - 1; }
};

/// Packs `graphs` (each non-empty) into one block-diagonal batch. The
/// member graphs are copied; the batch does not alias them.
GnnBatch MakeGnnBatch(const std::vector<const GnnGraph*>& graphs);

}  // namespace glint::gnn
