#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nlp/dtw.h"
#include "util/rng.h"

namespace glint::nlp {
namespace {

/// DTW over scalar sequences: aligning a_i with b_j costs |a_i - b_j|.
double ScalarDtw(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> cost(a.size() * b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      cost[i * b.size() + j] = std::fabs(a[i] - b[j]);
    }
  }
  return DtwDistance(cost, a.size(), b.size());
}

TEST(Dtw, IdenticalSequencesHaveZeroDistance) {
  EXPECT_DOUBLE_EQ(ScalarDtw({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(Dtw, SymmetricScalar) {
  const std::vector<double> a{1, 3, 5}, b{2, 4};
  EXPECT_DOUBLE_EQ(ScalarDtw(a, b), ScalarDtw(b, a));
}

TEST(Dtw, EmptyCases) {
  const std::vector<double> none;
  const std::vector<double> two{1.0, 2.0};
  EXPECT_DOUBLE_EQ(ScalarDtw(none, none), 0.0);
  EXPECT_DOUBLE_EQ(ScalarDtw(two, none), 2.0);  // gap cost 1 each
  EXPECT_DOUBLE_EQ(DtwDistance({}, 2, 0, 0.5), 1.0);
}

TEST(Dtw, KnownSmallExample) {
  // a = [0, 1], b = [0, 1, 1]: the warping path aligns the trailing 1s at
  // zero cost; total distance 0.
  EXPECT_DOUBLE_EQ(ScalarDtw({0, 1}, {0, 1, 1}), 0.0);
}

TEST(Dtw, MonotoneUnderNoise) {
  // Small perturbations cost less than large ones.
  const std::vector<double> base{1, 2, 3, 4};
  EXPECT_LT(ScalarDtw(base, {1.1, 2.1, 3.1, 4.1}),
            ScalarDtw(base, {5, 6, 7, 8}));
}

TEST(Dtw, StretchedSequenceIsCheap) {
  // DTW's raison d'être: time-stretched versions align cheaply.
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> stretched{1, 1, 2, 2, 3, 3};
  EXPECT_DOUBLE_EQ(ScalarDtw(a, stretched), 0.0);
}

TEST(Dtw, Triangleish) {
  // Not a true metric, but distance to self is minimal among candidates.
  const std::vector<double> a{1, 2, 3};
  EXPECT_LE(ScalarDtw(a, a), ScalarDtw(a, {2, 3, 4}));
}

TEST(NlpProperties, DtwSymmetryRandomSequences) {
  Rng rng(77);
  for (int k = 0; k < 50; ++k) {
    std::vector<double> a(rng.Below(6) + 1), b(rng.Below(6) + 1);
    for (auto& v : a) v = rng.Uniform(-5, 5);
    for (auto& v : b) v = rng.Uniform(-5, 5);
    EXPECT_NEAR(ScalarDtw(a, b), ScalarDtw(b, a), 1e-12);
    EXPECT_NEAR(ScalarDtw(a, a), 0.0, 1e-12);
  }
}

/// DTW over two word lists, each prepared once.
double WordDtw(const std::vector<std::string>& a,
               const std::vector<std::string>& b, const EmbeddingModel& m) {
  return DtwWordDistance(PrepareWords(a, m), PrepareWords(b, m));
}

TEST(DtwWord, IdenticalWordsZero) {
  EmbeddingModel m(300, 17);
  EXPECT_NEAR(WordDtw({"open", "window"}, {"open", "window"}, m),
              0.0, 1e-6);
}

TEST(DtwWord, SynonymsCheaperThanUnrelated) {
  EmbeddingModel m(300, 17);
  const double syn = WordDtw({"turn_on"}, {"activate"}, m);
  const double unrel = WordDtw({"turn_on"}, {"window"}, m);
  EXPECT_LT(syn, unrel);
}

TEST(DtwWord, EmptyVsNonEmpty) {
  EmbeddingModel m(300, 17);
  EXPECT_DOUBLE_EQ(WordDtw({}, {"open"}, m), 1.0);
  EXPECT_DOUBLE_EQ(WordDtw({}, {}, m), 0.0);
}

TEST(DtwWord, NormalizedByLength) {
  EmbeddingModel m(300, 17);
  // Repeating the same word keeps the normalized distance ~0.
  EXPECT_NEAR(WordDtw({"open"}, {"open", "open", "open"}, m), 0.0,
              1e-6);
}

TEST(DtwWord, VariableLengthComparison) {
  // The Algorithm-1 use case: verb lists of different lengths.
  EmbeddingModel m(300, 17);
  const double d = WordDtw({"open", "unlock"}, {"open"}, m);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);  // partially matching
}

TEST(DtwWord, CellsKeepCosineSimilarityBits) {
  // The prepared form sums each cell's dot product over a transposed block;
  // it must give the bits of the per-cell CosineSimilarity cost matrix.
  EmbeddingModel m(300, 17);
  const std::vector<std::string> vocab = {
      "open", "unlock", "turn_on", "activate", "window", "door", "light",
      "temperature", "heater", "lock", "send", "email", "camera", "motion"};
  Rng rng(31);
  for (int k = 0; k < 40; ++k) {
    std::vector<std::string> a(rng.Below(4) + 1), b(rng.Below(5) + 1);
    for (auto& w : a) w = vocab[rng.Below(vocab.size())];
    for (auto& w : b) w = vocab[rng.Below(vocab.size())];
    std::vector<double> cost(a.size() * b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = 0; j < b.size(); ++j) {
        cost[i * b.size() + j] =
            1.0 - CosineSimilarity(m.WordVector(a[i]), m.WordVector(b[j]));
      }
    }
    const double reference = DtwDistance(cost, a.size(), b.size()) /
                             static_cast<double>(std::max(a.size(), b.size()));
    EXPECT_EQ(WordDtw(a, b, m), reference) << "case " << k;
  }
}

}  // namespace
}  // namespace glint::nlp
