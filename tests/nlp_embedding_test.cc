#include <gtest/gtest.h>

#include <ostream>

#include "nlp/embedding.h"
#include "util/vecmath.h"

namespace glint::nlp {
namespace {

TEST(Embedding, Deterministic) {
  EmbeddingModel a(300, 17), b(300, 17);
  EXPECT_EQ(a.WordVector("window"), b.WordVector("window"));
}

TEST(Embedding, SeedChangesVectors) {
  EmbeddingModel a(300, 17), b(300, 18);
  EXPECT_NE(a.WordVector("window"), b.WordVector("window"));
}

TEST(Embedding, Dimension) {
  EmbeddingModel m300(300, 1), m512(512, 1);
  EXPECT_EQ(m300.WordVector("door").size(), 300u);
  EXPECT_EQ(m512.WordVector("door").size(), 512u);
}

TEST(Embedding, ApproximatelyUnitNorm) {
  EmbeddingModel m(300, 17);
  const double n = Norm(m.WordVector("heater"));
  EXPECT_GT(n, 0.7);
  EXPECT_LT(n, 1.3);
}

// Property: synonyms land close, unrelated words near-orthogonal.
struct SynonymCase {
  const char* a;
  const char* b;
  const char* unrelated;
};

// Print a case by its words: the default printer dumps the pointers, so
// the test names would change from run to run.
void PrintTo(const SynonymCase& c, std::ostream* os) {
  *os << c.a << "~" << c.b << " vs " << c.unrelated;
}

class EmbeddingGeometry : public ::testing::TestWithParam<SynonymCase> {};

TEST_P(EmbeddingGeometry, SynonymsCloserThanUnrelated) {
  EmbeddingModel m(300, 17);
  const auto& p = GetParam();
  const double syn = CosineSimilarity(m.WordVector(p.a), m.WordVector(p.b));
  const double unrel =
      CosineSimilarity(m.WordVector(p.a), m.WordVector(p.unrelated));
  EXPECT_GT(syn, 0.5) << p.a << " ~ " << p.b;
  EXPECT_GT(syn, unrel + 0.2) << p.a << " vs " << p.unrelated;
}

INSTANTIATE_TEST_SUITE_P(
    Clusters, EmbeddingGeometry,
    ::testing::Values(SynonymCase{"turn_on", "activate", "window"},
                      SynonymCase{"turn_off", "deactivate", "smoke"},
                      SynonymCase{"open", "raise", "music"},
                      SynonymCase{"close", "shut", "motion"},
                      SynonymCase{"lock", "secure", "temperature"},
                      SynonymCase{"detect", "sense", "door"},
                      SynonymCase{"notify", "alert", "kettle"},
                      SynonymCase{"light", "lamp", "lock"},
                      SynonymCase{"window", "windows", "heater"}));

TEST(Embedding, ChannelMatesAreRelated) {
  // heater and thermostat share the temperature channel anchor.
  EmbeddingModel m(300, 17);
  const double related =
      CosineSimilarity(m.WordVector("heater"), m.WordVector("cooling"));
  const double unrelated =
      CosineSimilarity(m.WordVector("heater"), m.WordVector("doorbell"));
  EXPECT_GT(related, unrelated);
}

TEST(Embedding, AverageSkipsStopWords) {
  EmbeddingModel m(300, 17);
  const FloatVec with = m.Average({"the", "window", "is", "open"});
  const FloatVec without = m.Average({"window", "open"});
  for (size_t i = 0; i < 10; ++i) EXPECT_FLOAT_EQ(with[i], without[i]);
}

TEST(Embedding, AverageSkipsNamedEntities) {
  EmbeddingModel m(300, 17);
  EXPECT_EQ(m.Average({"wyze", "camera"}), m.Average({"camera"}));
}

TEST(Embedding, AverageOfNothingIsZero) {
  EmbeddingModel m(300, 17);
  const FloatVec v = m.Average({"the", "is"});
  EXPECT_DOUBLE_EQ(Norm(v), 0.0);
}

TEST(Embedding, EmbedSentenceMatchesTokenAverage) {
  EmbeddingModel m(300, 17);
  EXPECT_EQ(m.EmbedSentence("open the window"),
            m.Average({"open", "the", "window"}));
}

TEST(Embedding, SentenceEncoderIsOrderSensitive) {
  EmbeddingModel m(512, 17);
  const FloatVec ab = m.EncodeSentence("door opens light");
  const FloatVec ba = m.EncodeSentence("light opens door");
  EXPECT_NE(ab, ba);
  // ... but semantically close (same words).
  EXPECT_GT(CosineSimilarity(ab, ba), 0.5);
}

TEST(Embedding, SimilarSentencesEncodeClose) {
  EmbeddingModel m(512, 17);
  const FloatVec a = m.EncodeSentence("turn on the light");
  const FloatVec b = m.EncodeSentence("activate the lamp");
  const FloatVec c = m.EncodeSentence("the smoke alarm is beeping");
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c));
}

}  // namespace
}  // namespace glint::nlp
