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

  /// Returns an n x hidden homogeneous node-feature tensor.
  Tensor* Forward(Tape* t, const GnnGraph& g);

  /// Batched twin over a block-diagonal GnnBatch graph: projection,
  /// scatter and intra-metapath aggregation are row-local (the batch's
  /// type-mean operators never cross segments), so only the inter-metapath
  /// attention needs the segment table. Segment b of the result is
  /// bit-identical to Forward on that member graph.
  Tensor* ForwardBatched(Tape* t, const GnnGraph& g,
                         const std::vector<int>& offsets);

  std::vector<Parameter*> Parameters();

 private:
  /// Shared body: `offsets` selects the attention flavour (nullptr =
  /// whole-matrix, non-null = per-segment).
  Tensor* ForwardImpl(Tape* t, const GnnGraph& g,
                      const std::vector<int>* offsets);

  Config config_;
  Linear proj_[kNumNodeTypes];     ///< per-type feature projection
  Linear intra_[kNumNodeTypes];    ///< per-metapath transformation
  Linear self_;                    ///< self-path transformation
  SemanticAttention attention_;
};

}  // namespace glint::gnn
