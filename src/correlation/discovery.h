#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "correlation/features.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/mlp.h"

namespace glint::correlation {

/// Thread-safe memo table for pairwise correlation verdicts, keyed by the
/// (src, dst) rule *content* hashes (rules::RuleContentHash). The ensemble
/// prediction is a pure function of the two rule texts, so unchanged rules
/// are never re-scored: one entry serves every deployment session that
/// contains the same pair. Callers own the cache (typically one per
/// TrainedDetector) so cold-path measurements can opt out of memoization.
class CorrelationCache {
 public:
  std::optional<bool> Lookup(uint64_t src_hash, uint64_t dst_hash) const;
  void Insert(uint64_t src_hash, uint64_t dst_hash, bool correlated);

  /// Monotonic hit/miss counters (bench visibility).
  size_t hits() const;
  size_t misses() const;

 private:
  struct Key {
    uint64_t src = 0;
    uint64_t dst = 0;
    bool operator==(const Key& o) const {
      return src == o.src && dst == o.dst;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Asymmetric mix so (a, b) and (b, a) land in different buckets.
      uint64_t h = k.src * 0x9e3779b97f4a7c15ULL;
      h ^= k.dst + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, bool, KeyHash> map_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
};

/// The learned rule-correlation discoverer of Sec. 4.1: an ensemble of MLP,
/// RandomForest and KNN (the paper's three chosen predictors) trained on
/// Algorithm-1 features. Pair label = majority vote (the paper's manual
/// review of disagreements is approximated by the vote).
class CorrelationDiscovery {
 public:
  explicit CorrelationDiscovery(const nlp::EmbeddingModel* model)
      : extractor_(model) {}

  /// Trains the ensemble on a labeled pair dataset.
  void Train(const ml::Dataset& pairs);

  /// Predicts whether src's action can trigger dst: the ensemble's majority
  /// vote, equal to VoteShare(src, dst) >= 0.5. KNN is consulted only when
  /// MLP and forest disagree (each consultation counts one
  /// glint.correlation.tiebreaks). When `cache` is given, the verdict is
  /// memoized by rule content hash (ensemble inference runs only on the
  /// first encounter of a pair).
  bool Correlated(const rules::Rule& src, const rules::Rule& dst,
                  CorrelationCache* cache = nullptr) const;

  /// Scores `rule` against each of `others` in both directions:
  /// (*from)[i] = Correlated(*others[i], rule, cache) and
  /// (*to)[i] = Correlated(rule, *others[i], cache), probed and filled in
  /// that order. Each rule's terms are built at most once, on its first
  /// uncached pair, so a row of n parses n + 1 texts at most instead of 4n;
  /// every uncached pair still records one glint.correlation.predict_ms
  /// sample.
  void CorrelateRow(const rules::Rule& rule,
                    const std::vector<const rules::Rule*>& others,
                    std::vector<char>* from, std::vector<char>* to,
                    CorrelationCache* cache = nullptr) const;

  /// Majority-vote probability in {0, 1/3, 2/3, 1}. Kept for the tests:
  /// the full three-model vote they check Correlated's short circuit against.
  double VoteShare(const rules::Rule& src, const rules::Rule& dst) const;

  const FeatureExtractor& extractor() const { return extractor_; }

  /// True after Train().
  bool trained() const { return trained_; }

 private:
  /// The one verdict body of Correlated and CorrelateRow: a cache probe
  /// under (hs, hd) when `cache` is given, else (or on a miss) the 2-of-3
  /// vote over `features()`, timed as one predict_ms sample.
  template <typename Features>
  bool Decide(CorrelationCache* cache, uint64_t hs, uint64_t hd,
              const Features& features) const;

  FeatureExtractor extractor_;
  ml::Mlp mlp_;
  ml::RandomForest forest_;
  ml::Knn knn_;
  bool trained_ = false;
};

}  // namespace glint::correlation
