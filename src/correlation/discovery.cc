#include "correlation/discovery.h"

#include "obs/obs.h"

namespace glint::correlation {

std::optional<bool> CorrelationCache::Lookup(uint64_t src_hash,
                                             uint64_t dst_hash) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(Key{src_hash, dst_hash});
  if (it == map_.end()) {
    ++misses_;
    GLINT_OBS_COUNT("glint.correlation.cache.misses", 1);
    return std::nullopt;
  }
  ++hits_;
  GLINT_OBS_COUNT("glint.correlation.cache.hits", 1);
  return it->second;
}

void CorrelationCache::Insert(uint64_t src_hash, uint64_t dst_hash,
                              bool correlated) {
  std::lock_guard<std::mutex> lk(mu_);
  map_.emplace(Key{src_hash, dst_hash}, correlated);
}

size_t CorrelationCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

size_t CorrelationCache::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

void CorrelationDiscovery::Train(const ml::Dataset& pairs) {
  const auto weights = ml::BalancedClassWeights(pairs.y, 2);
  mlp_.Fit(pairs, weights);
  forest_.Fit(pairs, weights);
  knn_.Fit(pairs, weights);
  trained_ = true;
}

double CorrelationDiscovery::VoteShare(const rules::Rule& src,
                                       const rules::Rule& dst) const {
  GLINT_CHECK(trained_);
  GLINT_OBS_TIMER(timer, "glint.correlation.predict_ms");
  const FloatVec f = extractor_.ExtractPair(src, dst);
  int votes = 0;
  votes += mlp_.Predict(f) == 1 ? 1 : 0;
  votes += forest_.Predict(f) == 1 ? 1 : 0;
  votes += knn_.Predict(f) == 1 ? 1 : 0;
  return votes / 3.0;
}

bool CorrelationDiscovery::Correlated(const rules::Rule& src,
                                      const rules::Rule& dst,
                                      CorrelationCache* cache) const {
  GLINT_CHECK(trained_);
  uint64_t hs = 0;
  uint64_t hd = 0;
  if (cache != nullptr) {
    hs = rules::RuleContentHash(src);
    hd = rules::RuleContentHash(dst);
    if (auto hit = cache->Lookup(hs, hd)) return *hit;
  }
  bool verdict;
  {
    GLINT_OBS_TIMER(timer, "glint.correlation.predict_ms");
    const FloatVec f = extractor_.ExtractPair(src, dst);
    // 2-of-3 majority: when MLP and forest agree, KNN's vote cannot change
    // the outcome, so the KNN scan (the costliest voter) runs only to break
    // their tie. Equal to VoteShare(src, dst) >= 0.5 by construction.
    verdict = mlp_.Predict(f) == 1;
    if ((forest_.Predict(f) == 1) != verdict) {
      GLINT_OBS_COUNT("glint.correlation.tiebreaks", 1);
      verdict = knn_.Predict(f) == 1;
    }
  }
  if (cache != nullptr) cache->Insert(hs, hd, verdict);
  return verdict;
}

}  // namespace glint::correlation
