#include "gnn/ggraph.h"

#include <cmath>
#include <cstddef>

#include "obs/obs.h"

namespace glint::gnn {

void AppendNormalizedAdjacency(SparseMatrix* adj, int offset, int n,
                               std::span<const std::pair<int, int>> edges) {
  // Build symmetrized A + I, then D^-1/2 (A+I) D^-1/2. The presence bitmap
  // and degree scratch are flat thread-local buffers re-used across calls
  // (this runs per VIPool coarsening inside every forward), so the
  // steady-state cost is the fill, not allocation.
  thread_local std::vector<char> present;
  thread_local std::vector<double> degree;
  present.assign(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
  degree.assign(static_cast<size_t>(n), 0.0);
  auto at = [n](std::vector<char>& m, int i, int j) -> char& {
    return m[static_cast<size_t>(i) * static_cast<size_t>(n) +
             static_cast<size_t>(j)];
  };
  for (int i = 0; i < n; ++i) at(present, i, i) = 1;
  for (const auto& [s, d] : edges) {
    at(present, s - offset, d - offset) = 1;
    at(present, d - offset, s - offset) = 1;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) degree[static_cast<size_t>(i)] += at(present, i, j);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (at(present, i, j)) {
        const float v = static_cast<float>(
            1.0 / std::sqrt(degree[static_cast<size_t>(i)] *
                            degree[static_cast<size_t>(j)]));
        adj->Add(offset + i, offset + j, v);
      }
    }
  }
}

SparseMatrix NormalizedAdjacency(
    int n, const std::vector<std::pair<int, int>>& edges) {
  SparseMatrix adj;
  adj.rows = n;
  adj.cols = n;
  adj.Reserve(static_cast<size_t>(n) + 2 * edges.size());
  AppendNormalizedAdjacency(&adj, 0, n, edges);
  adj.BuildCsrCache();
  return adj;
}

std::shared_ptr<const GnnGraph::TypeMeta> GnnGraph::TypeMetaView() const {
  auto cached = type_meta_.load(std::memory_order_acquire);
  if (cached) return cached;

  auto meta = std::make_shared<TypeMeta>();
  // Scatter permutation: node i reads row perm[i] of the stacked type
  // blocks (type 0 block first). Matches the block stacking order used by
  // MetapathConverter::Forward and HgslModel::Forward.
  meta->perm.assign(static_cast<size_t>(num_nodes), 0);
  int offset = 0;
  for (int type = 0; type < kNumNodeTypes; ++type) {
    const auto& rows = type_rows[type];
    for (size_t k = 0; k < rows.size(); ++k) {
      meta->perm[static_cast<size_t>(rows[k])] = offset + static_cast<int>(k);
    }
    offset += static_cast<int>(rows.size());
  }
  // Type-restricted mean-neighbour operators (self fallback when a node
  // has no neighbour of the type).
  for (int type = 0; type < kNumNodeTypes; ++type) {
    SparseMatrix& mean_t = meta->type_mean[type];
    mean_t.rows = num_nodes;
    mean_t.cols = num_nodes;
    for (int v = 0; v < num_nodes; ++v) {
      int count = 0;
      for (int u : neighbors[static_cast<size_t>(v)]) {
        if (node_types[static_cast<size_t>(u)] == type) ++count;
      }
      if (count == 0) {
        mean_t.entries.push_back({v, v, 1.f});
      } else {
        const float w = 1.0f / static_cast<float>(count);
        for (int u : neighbors[static_cast<size_t>(v)]) {
          if (node_types[static_cast<size_t>(u)] == type) {
            mean_t.entries.push_back({v, u, w});
          }
        }
      }
    }
    mean_t.BuildCsrCache();
  }

  std::shared_ptr<const TypeMeta> expected;
  std::shared_ptr<const TypeMeta> built = std::move(meta);
  if (type_meta_.compare_exchange_strong(expected, built)) return built;
  return expected;
}

GnnGraph ToGnnGraph(const graph::InteractionGraph& g) {
  GLINT_OBS_TIMER(timer, "glint.gnn.tensorize_ms");
  GnnGraph out;
  out.num_nodes = g.num_nodes();
  out.label = g.vulnerable() ? 1 : 0;
  out.node_types.reserve(static_cast<size_t>(out.num_nodes));

  // Group nodes by type.
  for (int i = 0; i < g.num_nodes(); ++i) {
    const auto& node = g.nodes()[static_cast<size_t>(i)];
    GLINT_CHECK(node.type >= 0 && node.type < kNumNodeTypes);
    out.node_types.push_back(node.type);
    out.type_rows[node.type].push_back(i);
  }
  for (int t = 0; t < kNumNodeTypes; ++t) {
    const auto& rows = out.type_rows[t];
    if (rows.empty()) continue;
    const int dim = kTypeDims[t];
    out.typed_features[t] = Matrix(static_cast<int>(rows.size()), dim);
    for (size_t k = 0; k < rows.size(); ++k) {
      const auto& feat = g.nodes()[static_cast<size_t>(rows[k])].features;
      GLINT_CHECK(static_cast<int>(feat.size()) == dim);
      for (int j = 0; j < dim; ++j) {
        out.typed_features[t].At(static_cast<int>(k), j) = feat[static_cast<size_t>(j)];
      }
    }
  }

  out.neighbors.assign(static_cast<size_t>(out.num_nodes), {});
  for (const auto& e : g.edges()) {
    out.edges.emplace_back(e.src, e.dst);
    out.neighbors[static_cast<size_t>(e.src)].push_back(e.dst);
    out.neighbors[static_cast<size_t>(e.dst)].push_back(e.src);
  }
  out.adj_norm = NormalizedAdjacency(out.num_nodes, out.edges);

  out.adj_raw.rows = out.num_nodes;
  out.adj_raw.cols = out.num_nodes;
  out.adj_raw.Reserve(2 * out.edges.size());
  for (const auto& [s, d] : out.edges) out.adj_raw.AddSymmetric(s, d, 1.f);
  out.adj_raw.BuildCsrCache();
  return out;
}

std::vector<GnnGraph> ToGnnGraphs(const graph::GraphDataset& ds) {
  std::vector<GnnGraph> out;
  out.reserve(ds.graphs.size());
  for (const auto& g : ds.graphs) out.push_back(ToGnnGraph(g));
  return out;
}

GnnBatch MakeGnnBatch(const std::vector<const GnnGraph*>& graphs) {
  GLINT_CHECK(!graphs.empty());
  GnnBatch batch;
  batch.offsets.reserve(graphs.size() + 1);
  batch.offsets.push_back(0);
  size_t total_edges = 0;
  int type_counts[kNumNodeTypes] = {};
  for (const GnnGraph* g : graphs) {
    GLINT_CHECK(g != nullptr && g->num_nodes > 0);
    batch.offsets.push_back(batch.offsets.back() + g->num_nodes);
    total_edges += g->edges.size();
    for (int t = 0; t < kNumNodeTypes; ++t) {
      type_counts[t] += static_cast<int>(g->type_rows[t].size());
    }
  }
  GnnGraph& out = batch.graph;
  out.num_nodes = batch.offsets.back();
  out.node_types.reserve(static_cast<size_t>(out.num_nodes));
  out.edges.reserve(total_edges);
  out.neighbors.reserve(static_cast<size_t>(out.num_nodes));
  for (int t = 0; t < kNumNodeTypes; ++t) {
    if (type_counts[t] > 0) {
      out.typed_features[t] = Matrix(type_counts[t], kTypeDims[t]);
      out.type_rows[t].reserve(static_cast<size_t>(type_counts[t]));
    }
  }

  int type_cursor[kNumNodeTypes] = {};
  size_t norm_entries = 0, raw_entries = 0;
  for (const GnnGraph* g : graphs) {
    norm_entries += g->adj_norm.entries.size();
    raw_entries += g->adj_raw.entries.size();
  }
  out.adj_norm.rows = out.adj_norm.cols = out.num_nodes;
  out.adj_norm.Reserve(norm_entries);
  out.adj_raw.rows = out.adj_raw.cols = out.num_nodes;
  out.adj_raw.Reserve(raw_entries);

  for (size_t b = 0; b < graphs.size(); ++b) {
    const GnnGraph& g = *graphs[b];
    const int off = batch.offsets[b];
    out.node_types.insert(out.node_types.end(), g.node_types.begin(),
                          g.node_types.end());
    for (int t = 0; t < kNumNodeTypes; ++t) {
      const auto& rows = g.type_rows[t];
      for (size_t k = 0; k < rows.size(); ++k) {
        const int dst = type_cursor[t] + static_cast<int>(k);
        out.type_rows[t].push_back(rows[k] + off);
        const float* src =
            g.typed_features[t].data.data() + k * g.typed_features[t].cols;
        std::copy(src, src + kTypeDims[t],
                  out.typed_features[t].data.data() +
                      static_cast<size_t>(dst) * kTypeDims[t]);
      }
      type_cursor[t] += static_cast<int>(rows.size());
    }
    for (const auto& [s, d] : g.edges) out.edges.emplace_back(s + off, d + off);
    for (const auto& nbrs : g.neighbors) {
      out.neighbors.emplace_back();
      out.neighbors.back().reserve(nbrs.size());
      for (int u : nbrs) out.neighbors.back().push_back(u + off);
    }
    // Entry lists are copied in graph order with shifted coordinates, so the
    // batch CSR row of node (off + v) holds exactly graph b's row v entries
    // in their original order — block-diagonal by construction.
    for (const auto& e : g.adj_norm.entries) {
      out.adj_norm.Add(e.r + off, e.c + off, e.v);
    }
    for (const auto& e : g.adj_raw.entries) {
      out.adj_raw.Add(e.r + off, e.c + off, e.v);
    }
  }
  out.adj_norm.BuildCsrCache();
  out.adj_raw.BuildCsrCache();
  return batch;
}

const GnnGraph* GnnGraphCache::Find(const Key& key) {
  for (auto& slot : slots_) {
    if (slot->key == key) {
      slot->tick = ++tick_;
      ++hits_;
      GLINT_OBS_COUNT("glint.gnn.tensor_cache.hits", 1);
      return &slot->graph;
    }
  }
  ++misses_;
  GLINT_OBS_COUNT("glint.gnn.tensor_cache.misses", 1);
  return nullptr;
}

const GnnGraph* GnnGraphCache::Insert(Key key, GnnGraph g) {
  if (slots_.size() >= capacity_ && !slots_.empty()) {
    size_t oldest = 0;
    for (size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i]->tick < slots_[oldest]->tick) oldest = i;
    }
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(oldest));
  }
  auto slot = std::make_unique<Slot>();
  slot->key = std::move(key);
  slot->graph = std::move(g);
  slot->tick = ++tick_;
  slots_.push_back(std::move(slot));
  return &slots_.back()->graph;
}

}  // namespace glint::gnn
