#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/vecmath.h"

namespace glint::nlp {

/// Deterministic distributional embedding model — the substitute for spaCy's
/// `en_core_web_lg` word vectors (300-d) and the Universal Sentence Encoder
/// (512-d).
///
/// Construction: a word's vector is
///     w = sqrt(1-a) * centroid(cluster(word)) + sqrt(a) * noise(word)
/// where the cluster comes from the domain lexicon (synonym cluster if any,
/// else the word's physical channel, else the word itself) and both centroid
/// and noise are unit Gaussian vectors seeded by stable string hashes. This
/// reproduces the property the paper relies on: synonyms and channel-mates
/// have high cosine similarity while unrelated words are near-orthogonal in
/// expectation.
class EmbeddingModel {
 public:
  /// Creates a model emitting `dim`-dimensional vectors. `noise_share` (the
  /// `a` above) controls how word-specific the vectors are.
  explicit EmbeddingModel(size_t dim = 300, uint64_t seed = 17,
                          double noise_share = 0.25);

  /// One word's embedding and its Norm, computed together on first use.
  struct Word {
    FloatVec vector;
    double norm = 0;
  };

  /// The cached entry of one word (deterministic across calls/processes).
  /// The reference stays valid for the model's lifetime.
  const Word& WordEntry(const std::string& word) const;

  /// Embedding of one word: WordEntry(word).vector.
  const FloatVec& WordVector(const std::string& word) const {
    return WordEntry(word).vector;
  }

  /// Averaged embedding of the content words in `tokens` (stop words and
  /// named entities excluded); this is the paper's rule-level embedding.
  FloatVec Average(const std::vector<std::string>& tokens) const;

  /// Averaged embedding of a raw sentence (tokenizes internally). Not
  /// memoized here: its one serving caller, GraphBuilder::MakeNode, shares
  /// one vector per live rule text.
  FloatVec EmbedSentence(const std::string& sentence) const;

  /// Sentence encoding with positional mixing — the USE substitute: each
  /// token vector is rotated by a position-dependent permutation before
  /// averaging, so word order perturbs the code slightly (as a transformer
  /// encoder would) while keeping the semantic geometry dominant.
  /// Not memoized, like EmbedSentence.
  FloatVec EncodeSentence(const std::string& sentence) const;

  size_t dim() const { return dim_; }

 private:
  FloatVec UnitGaussian(uint64_t seed) const;

  size_t dim_;
  uint64_t seed_;
  double noise_share_;
  /// Guards cache_ lookups/inserts; the graph builder embeds rule text from
  /// pool workers. References returned by WordEntry stay valid because
  /// unordered_map nodes are stable and entries are never erased.
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<std::string, Word> cache_;
};

}  // namespace glint::nlp
