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

template <typename Features>
bool CorrelationDiscovery::Decide(CorrelationCache* cache, uint64_t hs,
                                  uint64_t hd,
                                  const Features& features) const {
  if (cache != nullptr) {
    if (auto hit = cache->Lookup(hs, hd)) return *hit;
  }
  bool verdict;
  {
    GLINT_OBS_TIMER(timer, "glint.correlation.predict_ms");
    const FloatVec f = features();
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

bool CorrelationDiscovery::Correlated(const rules::Rule& src,
                                      const rules::Rule& dst,
                                      CorrelationCache* cache) const {
  GLINT_CHECK(trained_);
  const uint64_t hs = cache != nullptr ? rules::RuleContentHash(src) : 0;
  const uint64_t hd = cache != nullptr ? rules::RuleContentHash(dst) : 0;
  return Decide(cache, hs, hd,
                [&] { return extractor_.ExtractPair(src, dst); });
}

void CorrelationDiscovery::CorrelateRow(
    const rules::Rule& rule, const std::vector<const rules::Rule*>& others,
    std::vector<char>* from, std::vector<char>* to,
    CorrelationCache* cache) const {
  GLINT_CHECK(trained_);
  const size_t n = others.size();
  from->assign(n, 0);
  to->assign(n, 0);
  // Terms live for this call only: built on a rule's first uncached pair,
  // so a fully cached row parses nothing.
  std::optional<FeatureExtractor::RuleTerms> rule_terms;
  const auto terms_of_rule = [&]() -> const FeatureExtractor::RuleTerms& {
    if (!rule_terms) rule_terms.emplace(extractor_.Terms(rule));
    return *rule_terms;
  };
  const uint64_t hr = cache != nullptr ? rules::RuleContentHash(rule) : 0;
  for (size_t i = 0; i < n; ++i) {
    const rules::Rule& other = *others[i];
    const uint64_t ho = cache != nullptr ? rules::RuleContentHash(other) : 0;
    std::optional<FeatureExtractor::RuleTerms> other_terms;
    const auto terms_of_other = [&]() -> const FeatureExtractor::RuleTerms& {
      if (!other_terms) other_terms.emplace(extractor_.Terms(other));
      return *other_terms;
    };
    (*from)[i] = Decide(cache, ho, hr, [&] {
      return extractor_.PairFeatures(terms_of_other(), terms_of_rule());
    });
    (*to)[i] = Decide(cache, hr, ho, [&] {
      return extractor_.PairFeatures(terms_of_rule(), terms_of_other());
    });
  }
}

}  // namespace glint::correlation
