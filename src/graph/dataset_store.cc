#include "graph/dataset_store.h"

#include <cstdio>
#include <string>
#include <vector>

#include "rules/rule_io.h"
#include "util/binio.h"

namespace glint::graph {
namespace {

using rules::ReadRule;
using rules::WriteRule;
using Reader = util::ByteReader;
using Writer = util::ByteWriter;

constexpr uint32_t kMagic = 0x474c4e54;  // "GLNT"
constexpr uint32_t kVersion = 2;

void SerializeDataset(const GraphDataset& ds, Writer* w) {
  w->U32(kMagic);
  w->U32(kVersion);
  w->U32(static_cast<uint32_t>(ds.graphs.size()));
  for (const auto& g : ds.graphs) {
    w->U32(static_cast<uint32_t>(g.num_nodes()));
    for (const auto& node : g.nodes()) {
      WriteRule(w, node.rule);
      w->I32(node.type);
      w->U32(static_cast<uint32_t>(node.features.size()));
      for (float f : node.features) w->F32(f);
    }
    w->U32(static_cast<uint32_t>(g.edges().size()));
    for (const auto& e : g.edges()) {
      w->I32(e.src);
      w->I32(e.dst);
    }
    w->I32(g.vulnerable() ? 1 : 0);
    w->U32(static_cast<uint32_t>(g.threat_types().size()));
    for (auto t : g.threat_types()) w->I32(static_cast<int32_t>(t));
    w->U32(static_cast<uint32_t>(g.culprit_nodes().size()));
    for (int c : g.culprit_nodes()) w->I32(c);
  }
}

// Smallest encodings, for bounding decoded counts by the bytes left (as
// util::ListBound does): a graph is five u32/i32 counts and flags, a node
// a rule plus its type and feature count.
constexpr size_t kMinGraphBytes = 5 * 4;
constexpr size_t kMinNodeBytes = rules::kMinRuleBytes + 2 * 4;

// InvalidArgument unless `n` elements of at least `min_bytes` each fit in
// what `r` has left, so a corrupt count is refused before it allocates.
Status CheckCount(const Reader& r, uint32_t n, size_t min_bytes,
                  const char* what) {
  if (uint64_t{n} * min_bytes <= r.remaining()) return Status::OK();
  return Status::InvalidArgument(std::string(what) +
                                 " count exceeds file size");
}

}  // namespace

Status DatasetStore::Save(const GraphDataset& ds, const std::string& path) {
  Writer w;
  SerializeDataset(ds, &w);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const size_t written = std::fwrite(w.buffer().data(), 1, w.buffer().size(), f);
  std::fclose(f);
  if (written != w.buffer().size()) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

Result<GraphDataset> DatasetStore::Load(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> buf(static_cast<size_t>(size));
  const size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (got != buf.size()) return Status::IOError("short read: " + path);

  Reader r(buf.data(), buf.size());
  uint32_t magic, version, num_graphs;
  if (!r.U32(&magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!r.U32(&version) || version != kVersion) {
    return Status::InvalidArgument("unsupported version in " + path);
  }
  if (!r.U32(&num_graphs)) return Status::InvalidArgument("truncated header");

  GLINT_RETURN_IF_ERROR(CheckCount(r, num_graphs, kMinGraphBytes, "graph"));
  GraphDataset ds;
  ds.graphs.reserve(num_graphs);
  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    uint32_t num_nodes;
    if (!r.U32(&num_nodes)) return Status::InvalidArgument("truncated graph");
    GLINT_RETURN_IF_ERROR(CheckCount(r, num_nodes, kMinNodeBytes, "node"));
    InteractionGraph g;
    for (uint32_t ni = 0; ni < num_nodes; ++ni) {
      Node node;
      if (!ReadRule(&r, &node.rule)) {
        return Status::InvalidArgument("truncated rule");
      }
      uint32_t feat_len;
      if (!r.I32(&node.type) || !r.U32(&feat_len)) {
        return Status::InvalidArgument("truncated node");
      }
      GLINT_RETURN_IF_ERROR(CheckCount(r, feat_len, 4, "feature"));
      node.features.resize(feat_len);
      for (auto& f : node.features) {
        if (!r.F32(&f)) return Status::InvalidArgument("truncated features");
      }
      g.AddNode(std::move(node));
    }
    uint32_t num_edges;
    if (!r.U32(&num_edges)) return Status::InvalidArgument("truncated edges");
    for (uint32_t ei = 0; ei < num_edges; ++ei) {
      int32_t src, dst;
      if (!r.I32(&src) || !r.I32(&dst)) {
        return Status::InvalidArgument("truncated edge");
      }
      g.AddEdge(src, dst);
    }
    int32_t vul;
    uint32_t nt, nculprit;
    if (!r.I32(&vul) || !r.U32(&nt)) {
      return Status::InvalidArgument("truncated label");
    }
    g.set_vulnerable(vul != 0);
    GLINT_RETURN_IF_ERROR(CheckCount(r, nt, 4, "threat type"));
    std::vector<ThreatType> types(nt);
    for (auto& t : types) {
      int32_t v;
      if (!r.I32(&v)) return Status::InvalidArgument("truncated types");
      t = static_cast<ThreatType>(v);
    }
    g.set_threat_types(std::move(types));
    if (!r.U32(&nculprit)) return Status::InvalidArgument("truncated culprits");
    GLINT_RETURN_IF_ERROR(CheckCount(r, nculprit, 4, "culprit"));
    std::vector<int> culprits(nculprit);
    for (auto& c : culprits) {
      if (!r.I32(&c)) return Status::InvalidArgument("truncated culprit");
    }
    g.set_culprit_nodes(std::move(culprits));
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

size_t DatasetStore::SerializedBytes(const GraphDataset& ds) {
  Writer w;
  SerializeDataset(ds, &w);
  return w.buffer().size();
}

}  // namespace glint::graph
