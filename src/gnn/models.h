#pragma once

#include <memory>
#include <string>

#include "gnn/metapath.h"

namespace glint::gnn {

/// Output of a model forward pass over B graphs (B = 1 for
/// GraphModel::Forward): row b of every tensor belongs to graph b.
struct ForwardResult {
  Tensor* embedding = nullptr;           ///< B x embed_dim graph embeddings
  Tensor* logits = nullptr;              ///< B x 2 class logits
  std::vector<Tensor*> pool_logits;      ///< per-scale B x 1 logits for L_pool
};

/// Common interface for all graph classification models compared in the
/// paper (Tables 5-6, Figs. 7-8).
class GraphModel {
 public:
  virtual ~GraphModel() = default;

  /// Runs the model on one graph (batch size 1; graphs are small).
  virtual ForwardResult Forward(Tape* t, const GnnGraph& g) = 0;

  /// Optional self-supervised auxiliary loss (InfoGraph's MI term).
  virtual Tensor* AuxLoss(Tape* /*t*/, const GnnGraph& /*g*/,
                          const ForwardResult& /*r*/) {
    return nullptr;
  }

  /// All trainable parameters.
  virtual std::vector<Parameter*> Parameters() = 0;

  /// Parameters grouped front-to-back for transfer-learning layer freezing
  /// (group 0 = closest to the input; last group = classification head).
  virtual std::vector<std::vector<Parameter*>> ParameterGroups() = 0;

  virtual std::string Name() const = 0;
  virtual int EmbedDim() const = 0;

  /// Total parameter count (for the Sec. 4.8.2 model-size figure).
  size_t NumParameterFloats() {
    size_t n = 0;
    for (auto* p : Parameters()) n += p->value.size();
    return n;
  }
};

/// Homogeneous baselines -------------------------------------------------

/// GCN: stacked graph convolutions + mean readout.
class GcnModel : public GraphModel {
 public:
  GcnModel(int in_dim, int hidden, int num_layers, uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "GCN"; }
  int EmbedDim() const override { return 2 * hidden_; }

 private:
  int hidden_;
  std::vector<GcnConv> convs_;
  Linear head_;
};

/// GIN: graph isomorphism network + sum readout.
class GinModel : public GraphModel {
 public:
  GinModel(int in_dim, int hidden, int num_layers, uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "GIN"; }
  int EmbedDim() const override { return 2 * hidden_; }

 protected:
  Tensor* Encode(Tape* t, const GnnGraph& g, Tensor** node_embeddings);

  int hidden_;
  std::vector<GinConv> convs_;
  Linear head_;
};

/// InfoGraph: GIN encoder + graph/node mutual-information maximization
/// (JSD discriminator against feature-shuffled corruptions).
class InfoGraphModel : public GinModel {
 public:
  InfoGraphModel(int in_dim, int hidden, int num_layers, uint64_t seed);
  Tensor* AuxLoss(Tape* t, const GnnGraph& g, const ForwardResult& r) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override { return "IFG"; }

 private:
  Parameter disc_w_{Matrix(1, 1)};
};

/// GXN: multi-scale graph network with VIPool (homogeneous).
class GxnModel : public GraphModel {
 public:
  GxnModel(int in_dim, int hidden, int num_scales, double pooling_ratio,
           uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "GXN"; }
  int EmbedDim() const override { return embed_dim_; }

 private:
  int hidden_;
  int embed_dim_;
  Linear input_;
  std::vector<GcnConv> convs_;   ///< one conv per scale
  std::vector<VIPool> pools_;    ///< between scales
  Linear fuse_;
  Linear head_;
};

/// Heterogeneous baselines -------------------------------------------------

/// MAGCN: MAGNN metapath converter + GCN back end.
class MagcnModel : public GraphModel {
 public:
  MagcnModel(int hidden, int num_layers, uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "MAGCN"; }
  int EmbedDim() const override { return 2 * hidden_; }

 private:
  int hidden_;
  MetapathConverter converter_;
  std::vector<GcnConv> convs_;
  Linear head_;
};

/// MAGXN: MAGNN metapath converter + GXN-style multi-scale back end.
class MagxnModel : public GraphModel {
 public:
  MagxnModel(int hidden, int num_scales, double pooling_ratio, uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "MAGXN"; }
  int EmbedDim() const override { return embed_dim_; }

 private:
  int hidden_;
  int embed_dim_;
  MetapathConverter converter_;
  std::vector<GcnConv> convs_;
  std::vector<VIPool> pools_;
  Linear fuse_;
  Linear head_;
};

/// HGSL-style heterogeneous graph structure learning: learns a residual
/// similarity adjacency S = sigmoid(H W H^T), mixes it with the observed
/// adjacency, and classifies with graph convolutions over the mixture.
class HgslModel : public GraphModel {
 public:
  HgslModel(int hidden, uint64_t seed);
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "HGSL"; }
  int EmbedDim() const override { return hidden_; }

 private:
  int hidden_;
  Linear proj_[kNumNodeTypes];
  Parameter sim_w_{Matrix(1, 1)};
  Linear conv1_, conv2_;
  Linear head_;
};

/// ITGNN ---------------------------------------------------------------

/// The paper's model (Algorithm 2): metapath-based node transformation +
/// multi-scale graph generator (TAG propagation + VIPool) + fused readout.
/// ITGNN-S uses the classification head (Eq. 2); ITGNN-C trains the
/// embedding with contrastive loss (Eq. 1). The same architecture serves
/// both (Sec. 3.3).
class ItgnnModel : public GraphModel {
 public:
  struct Config {
    int hidden = 64;
    int num_scales = 3;        ///< ablation: 1, 2, 3, 5
    double pooling_ratio = 0.6;  ///< ablation: 0.3, 0.6, 1.0
    int prop_layers = 2;       ///< ablation: 1, 2, 4, 6
    int tag_hops = 2;
    int embed_dim = 128;
    bool use_intra = true;     ///< ablation: metapath module toggles
    bool use_inter = true;
    bool use_hadamard = true;  ///< ablation: Hadamard interaction term
    uint64_t seed = 42;
  };

  ItgnnModel() : ItgnnModel(Config()) {}
  explicit ItgnnModel(Config config);

  /// Runs the graph as a one-segment batch ({0, n}) over its own storage.
  ForwardResult Forward(Tape* t, const GnnGraph& g) override;

  /// One forward over a block-diagonal GnnBatch: amortizes tape/dispatch
  /// overhead across the fleet, and row b of each result has the bits of
  /// Forward on member graph b (see the segment ops in gnn/tensor.h).
  ForwardResult ForwardBatched(Tape* t, const GnnBatch& batch);

  std::vector<Parameter*> Parameters() override;
  std::vector<std::vector<Parameter*>> ParameterGroups() override;
  std::string Name() const override { return "ITGNN"; }
  int EmbedDim() const override { return config_.embed_dim; }

  const Config& config() const { return config_; }

 private:
  /// The one body behind Forward and ForwardBatched: `g` packs the graphs
  /// of the segment table `offsets`.
  ForwardResult Run(Tape* t, const GnnGraph& g, std::span<const int> offsets);

  Config config_;
  MetapathConverter converter_;
  std::vector<std::vector<TagConv>> scale_convs_;  ///< [scale][layer]
  std::vector<VIPool> pools_;
  Linear fuse_;
  Linear head_;
};

/// Helper: full-graph features for single-type graphs (asserts exactly one
/// node type present).
Tensor* HomogeneousFeatures(Tape* t, const GnnGraph& g);

}  // namespace glint::gnn
