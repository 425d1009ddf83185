#pragma once

#include "gnn/layers.h"

namespace glint::gnn {

/// Metapath-based node transformation (Algorithm 2 lines 1-13, the
/// MAGNN-inspired front end): projects each node type's features into a
/// shared space, aggregates intra-metapath neighbourhoods per node type,
/// applies inter-metapath semantic attention, and returns a homogeneous
/// node matrix in original node order.
class MetapathConverter {
 public:
  struct Config {
    int hidden = 64;
    bool use_intra = true;  ///< ablation: intra-metapath aggregation
    bool use_inter = true;  ///< ablation: inter-metapath attention
    /// Ablation: include the Hadamard self-neighbour interaction term in
    /// the intra-metapath transform (DESIGN.md "Hadamard interaction").
    bool use_hadamard = true;
  };

  MetapathConverter() = default;
  MetapathConverter(Config config, Rng* rng);

  /// Returns an n x hidden homogeneous node-feature tensor. `offsets` is
  /// the segment table of the graphs `g` packs ({0, n} for one graph).
  /// Projection, scatter and intra-metapath aggregation are row-local (a
  /// batch's type-mean operators never cross segments), so only the
  /// inter-metapath attention reads the table.
  Tensor* Forward(Tape* t, const GnnGraph& g, std::span<const int> offsets);

  std::vector<Parameter*> Parameters();

 private:
  Config config_;
  Linear proj_[kNumNodeTypes];     ///< per-type feature projection
  Linear intra_[kNumNodeTypes];    ///< per-metapath transformation
  Linear self_;                    ///< self-path transformation
  SemanticAttention attention_;
};

}  // namespace glint::gnn
