#include "nlp/embedding.h"

#include <cmath>

#include "nlp/lexicon.h"
#include "nlp/tokenizer.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace glint::nlp {

EmbeddingModel::EmbeddingModel(size_t dim, uint64_t seed, double noise_share)
    : dim_(dim), seed_(seed), noise_share_(noise_share) {}

FloatVec EmbeddingModel::UnitGaussian(uint64_t seed) const {
  Rng rng(seed ^ seed_);
  FloatVec v(dim_);
  double norm2 = 0;
  for (size_t i = 0; i < dim_; ++i) {
    v[i] = static_cast<float>(rng.Gaussian());
    norm2 += double(v[i]) * v[i];
  }
  double inv = 1.0 / std::sqrt(norm2 > 0 ? norm2 : 1.0);
  for (auto& x : v) x = static_cast<float>(x * inv);
  return v;
}

const EmbeddingModel::Word& EmbeddingModel::WordEntry(
    const std::string& word) const {
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    auto it = cache_.find(word);
    if (it != cache_.end()) return it->second;
  }

  const Lexicon& lex = Lexicon::Instance();
  // Pick the semantic anchor: synonym cluster > physical channel > the word.
  std::string anchor = lex.ClusterOf(word);
  if (anchor.empty()) anchor = lex.ChannelOf(word);
  if (anchor.empty()) anchor = word;

  FloatVec centroid =
      UnitGaussian(HashString(anchor.data(), anchor.size()) * 0x9e37u + 1);
  FloatVec noise =
      UnitGaussian(HashString(word.data(), word.size()) * 0x85ebu + 2);

  const float wc = static_cast<float>(std::sqrt(1.0 - noise_share_));
  const float wn = static_cast<float>(std::sqrt(noise_share_));
  Word w;
  w.vector.resize(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    w.vector[i] = wc * centroid[i] + wn * noise[i];
  }
  w.norm = Norm(w.vector);
  // try_emplace keeps the first insertion if another thread raced us here;
  // both candidates are identical (the entry is a pure function of `word`).
  std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.try_emplace(word, std::move(w)).first->second;
}

FloatVec EmbeddingModel::Average(const std::vector<std::string>& tokens) const {
  const Lexicon& lex = Lexicon::Instance();
  FloatVec out(dim_, 0.f);
  int count = 0;
  for (const auto& t : tokens) {
    if (lex.IsStopWord(t) || lex.IsNamedEntity(t)) continue;
    AddInPlace(&out, WordVector(t));
    ++count;
  }
  if (count > 0) ScaleInPlace(&out, 1.0f / static_cast<float>(count));
  return out;
}

FloatVec EmbeddingModel::EmbedSentence(const std::string& sentence) const {
  GLINT_OBS_TIMER(timer, "glint.nlp.embed_ms");
  return Average(Tokenizer::Words(sentence));
}

FloatVec EmbeddingModel::EncodeSentence(const std::string& sentence) const {
  GLINT_OBS_TIMER(timer, "glint.nlp.embed_ms");
  const Lexicon& lex = Lexicon::Instance();
  auto tokens = Tokenizer::Words(sentence);
  FloatVec out(dim_, 0.f);
  int count = 0;
  size_t pos = 0;
  for (const auto& t : tokens) {
    ++pos;
    if (lex.IsStopWord(t) || lex.IsNamedEntity(t)) continue;
    const FloatVec& w = WordVector(t);
    // Positional mixing: add a small position-dependent fraction of the
    // shifted vector. Keeps the cosine geometry dominant (shifted random
    // vectors are near-orthogonal, so a small alpha is a small nudge) while
    // making word order observable, as in a real sentence encoder.
    const float alpha =
        0.25f * static_cast<float>((pos * 7) % 5) / 5.0f;
    for (size_t i = 0; i < dim_; ++i) {
      out[i] += w[i] + alpha * w[(i + 1) % dim_];
    }
    ++count;
  }
  if (count > 0) ScaleInPlace(&out, 1.0f / static_cast<float>(count));
  return out;
}

}  // namespace glint::nlp
