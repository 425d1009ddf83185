#pragma once

#include <string>

#include "graph/interaction_graph.h"
#include "util/status.h"

namespace glint::graph {

/// Binary persistence of interaction-graph datasets — the DGL-file
/// substitute (Sec. 4.2 stores labeled datasets as graph files). One field
/// list (util/binio.h) runs both ways:
///   u32 magic 'GLNT' | u32 version | u32 count | count graphs
///   graph: u32 n | n nodes | u32 m | m x (i32 src | i32 dst) |
///          i32 vulnerable | u32 t | t x i32 threat type |
///          u32 c | c x i32 culprit node
///   node:  rule (rules/rule_io.h) | i32 type | u32 d | d x f32 feature
class DatasetStore {
 public:
  /// Writes `ds` to `path`, overwriting.
  static Status Save(const GraphDataset& ds, const std::string& path);

  /// Reads a dataset written by Save, whole: IOError when it cannot be
  /// read, InvalidArgument when it does not decode exactly.
  static Result<GraphDataset> Load(const std::string& path);

  /// In-memory serialized size in bytes (for Table 3-style size reporting).
  static size_t SerializedBytes(const GraphDataset& ds);
};

}  // namespace glint::graph
