#include "graph/dataset_store.h"

#include <memory>
#include <string>
#include <vector>

#include "rules/rule_io.h"
#include "util/binio.h"
#include "util/file_io.h"
#include "util/status.h"

namespace glint::graph {
namespace {

constexpr uint32_t kMagic = 0x474c4e54;  // "GLNT"
constexpr uint32_t kVersion = 2;

/// A node as decoded: its features are not shared yet.
struct StoredNode {
  rules::Rule rule;
  int type = 0;
  FloatVec features;
};

/// A graph as decoded, before Load checks its edges and adds them.
struct StoredGraph {
  std::vector<StoredNode> nodes;
  std::vector<Edge> edges;
  bool vulnerable = false;
  std::vector<ThreatType> threat_types;
  std::vector<int> culprit_nodes;
};

const FloatVec& Features(const Node& n) {
  GLINT_CHECK(n.features != nullptr);
  return *n.features;
}
FloatVec& Features(StoredNode& n) { return n.features; }

template <class IO, class N>
bool NodeFields(IO& io, N& n) {
  return rules::RuleFields(io, n.rule) && io.I32(n.type) &&
         io.List(Features(n), util::ListBound{"feature", sizeof(float)},
                 [&io](auto& f) { return io.F32(f); });
}

/// One graph's field list over its parts: an InteractionGraph's accessors
/// when encoding, a StoredGraph's members when decoding.
template <class IO, class Nodes, class Edges, class Flag, class Types,
          class Culprits>
bool GraphFields(IO& io, Nodes& nodes, Edges& edges, Flag& vulnerable,
                 Types& threat_types, Culprits& culprit_nodes) {
  // Smallest node: a rule, its type and an empty feature count.
  constexpr size_t kMinNodeBytes = rules::kMinRuleBytes + 2 * 4;
  return io.List(nodes, util::ListBound{"node", kMinNodeBytes},
                 [&io](auto& n) { return NodeFields(io, n); }) &&
         io.List(edges, util::ListBound{"edge", 2 * 4},
                 [&io](auto& e) { return io.I32(e.src) && io.I32(e.dst); }) &&
         io.Bool32(vulnerable) &&
         io.List(threat_types, util::ListBound{"threat type", 4},
                 [&io](auto& t) { return io.Enum32(t, kNumThreatTypes); }) &&
         io.List(culprit_nodes, util::ListBound{"culprit", 4},
                 [&io](auto& c) { return io.I32(c); });
}

bool Fields(util::LayoutWriter& io, const InteractionGraph& g) {
  const bool vulnerable = g.vulnerable();
  return GraphFields(io, g.nodes(), g.edges(), vulnerable, g.threat_types(),
                     g.culprit_nodes());
}

bool Fields(util::LayoutReader& io, StoredGraph& g) {
  return GraphFields(io, g.nodes, g.edges, g.vulnerable, g.threat_types,
                     g.culprit_nodes);
}

template <class IO, class Graphs>
bool DatasetFields(IO& io, Graphs& graphs) {
  // Smallest graph: five empty counts and flags.
  return io.Const32(kMagic, "magic") && io.Const32(kVersion, "version") &&
         io.List(graphs, util::ListBound{"graph", 5 * 4},
                 [&io](auto& g) { return Fields(io, g); });
}

std::vector<char> Encode(const GraphDataset& ds) {
  return util::EncodeAll(
      [&](auto& io) { return DatasetFields(io, ds.graphs); });
}

}  // namespace

Status DatasetStore::Save(const GraphDataset& ds, const std::string& path) {
  return util::WriteFile(path, Encode(ds));
}

Result<GraphDataset> DatasetStore::Load(const std::string& path) {
  Result<std::vector<char>> bytes = util::ReadFile(path);
  if (!bytes.ok()) return Status::IOError(bytes.status().message());
  std::vector<StoredGraph> stored;
  GLINT_RETURN_IF_ERROR(util::DecodeAll(
      bytes.value(), path, [&](auto& io) { return DatasetFields(io, stored); }));

  GraphDataset ds;
  ds.graphs.reserve(stored.size());
  for (StoredGraph& s : stored) {
    InteractionGraph g;
    for (StoredNode& n : s.nodes) {
      g.AddNode({std::move(n.rule),
                 std::make_shared<const FloatVec>(std::move(n.features)),
                 n.type});
    }
    for (const Edge& e : s.edges) {
      const int n = g.num_nodes();
      if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
        return Status::InvalidArgument(
            path + ": edge (" + std::to_string(e.src) + ", " +
            std::to_string(e.dst) + ") outside a graph of " +
            std::to_string(n) + " nodes");
      }
      g.AddEdge(e.src, e.dst);
    }
    g.set_vulnerable(s.vulnerable);
    g.set_threat_types(std::move(s.threat_types));
    g.set_culprit_nodes(std::move(s.culprit_nodes));
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

size_t DatasetStore::SerializedBytes(const GraphDataset& ds) {
  return Encode(ds).size();
}

}  // namespace glint::graph
