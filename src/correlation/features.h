#pragma once

#include "ml/dataset.h"
#include "nlp/dtw.h"
#include "nlp/embedding.h"
#include "rules/rule.h"
#include "util/rng.h"

namespace glint::correlation {

/// Algorithm 1 — Home Automation Rule Feature Extraction.
///
/// For a candidate "action-trigger" pair (the action clause of a source
/// rule, the trigger clause of a destination rule) this computes:
///   V1: DTW similarity between verb sequences and between object (noun)
///       sequences, under the embedding cosine cost;
///   V2: binary synonym / hypernym relations between the verbs;
///   V3: binary meronym-holonym / hypernym / synonym relations between the
///       objects;
///   V4: the sum of the averaged word embeddings of the action and the
///       trigger clause (E_T + E_A).
/// The concatenation [V1, V2, V3, V4] is the correlation feature vector.
///
/// The algorithm splits into a per-rule half (parse the text, look up and
/// prepare the words: Terms) and a per-pair half (PairFeatures), so a rule
/// scored against n others is parsed once, not 2n times.
class FeatureExtractor {
 public:
  /// One side of a rule: its clause words (PoS(A) or PoS(T)) and what the
  /// pair features need of them.
  struct Side {
    std::vector<std::string> nouns, verbs;
    /// nouns followed by verbs.
    std::vector<std::string> all;
    /// nouns and verbs prepared for the V1 DTW.
    nlp::WordSequence noun_words, verb_words;
    /// The model's Average(all): E_A or E_T of V4.
    FloatVec average;
  };

  /// One rule's half of Algorithm 1: its action side (read when it is a
  /// pair's source) and its trigger side (read when it is a destination).
  /// Holds pointers into the model's word vectors, so it must not outlive
  /// the model.
  struct RuleTerms {
    Side action;
    Side trigger;
  };

  explicit FeatureExtractor(const nlp::EmbeddingModel* model)
      : model_(model) {}

  /// Parses `rule` once (one glint.correlation.rule_terms count).
  RuleTerms Terms(const rules::Rule& rule) const;

  /// Features for "does src's action trigger dst?" from the two rules'
  /// terms. Dimension: 7 + dim().
  FloatVec PairFeatures(const RuleTerms& src, const RuleTerms& dst) const;

  /// PairFeatures(Terms(src), Terms(dst)).
  FloatVec ExtractPair(const rules::Rule& src, const rules::Rule& dst) const;

  /// Feature dimensionality.
  size_t Dim() const { return 7 + model_->dim(); }

 private:
  const nlp::EmbeddingModel* model_;
};

/// Builds a labeled action-trigger pair dataset from a rule corpus, using
/// the semantic oracle for ground truth (the stand-in for the paper's 5,600
/// manually labeled positive and 8,000 negative pairs).
struct PairDatasetConfig {
  int num_positive = 1400;
  int num_negative = 2000;
  uint64_t seed = 77;
};
ml::Dataset BuildPairDataset(const std::vector<rules::Rule>& corpus,
                             const FeatureExtractor& extractor,
                             const PairDatasetConfig& config);

}  // namespace glint::correlation
