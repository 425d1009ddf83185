#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/binio.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/vecmath.h"

namespace glint {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::Crc32c;
using util::Crc32cExtend;

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedingRestartsStream) {
  Rng a(42);
  const uint64_t first = a.NextU64();
  a.NextU64();
  a.Seed(42);
  EXPECT_EQ(first, a.NextU64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, IntInclusiveBounds) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Weighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Rng, WeightedApproximatesProportions) {
  Rng rng(29);
  int counts[2] = {0, 0};
  const int n = 10000;
  for (int i = 0; i < n; ++i) counts[rng.Weighted({1.0, 3.0})]++;
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The child stream should not equal the parent continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += a.NextU64() == child.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(HashStringTest, StableAndDistinct) {
  const uint64_t h1 = HashString("window", 6);
  EXPECT_EQ(h1, HashString("window", 6));
  EXPECT_NE(h1, HashString("door", 4));
  EXPECT_NE(HashString("ab", 2), HashString("ba", 2));
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk full");
}

TEST(StatusTest, AllConstructorsSetCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// Result<T> stores the value and the error in a union, so an error-holding
// Result must never construct a T. This type has no default constructor and
// counts live instances to prove it.
struct Tracked {
  static int live;
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) { ++live; }
  Tracked(Tracked&& o) noexcept : value(o.value) { ++live; }
  ~Tracked() { --live; }
  int value;
};
int Tracked::live = 0;

TEST(ResultTest, ErrorNeverConstructsNonDefaultConstructibleValue) {
  {
    Result<Tracked> err(Status::IOError("disk on fire"));
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(err.status().code(), StatusCode::kIOError);

    Result<Tracked> ok(Tracked(7));
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().value, 7);
    EXPECT_EQ(Tracked::live, 1);

    // Copy / move / cross-state assignment keep exactly one T alive per
    // value-holding Result and destroy the right union member.
    Result<Tracked> copy = ok;
    EXPECT_EQ(Tracked::live, 2);
    err = std::move(copy);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().value, 7);
    ok = Result<Tracked>(Status::NotFound("gone"));
    EXPECT_FALSE(ok.ok());
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ResultTest, StatusOfValueIsOk) {
  Result<int> r(3);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(std::move(r).ValueOrDie(), 3);
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli) — known-answer vectors + streaming equivalence
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The standard CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const char data[] = "write-ahead logs need checksums";
  const size_t n = sizeof(data) - 1;
  const uint32_t whole = Crc32c(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t crc = Crc32cExtend(0, data, split);
    crc = Crc32cExtend(crc, data + split, n - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndAlignment) {
  EXPECT_EQ(util::Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
  if (!util::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  }
  EXPECT_EQ(util::Crc32cExtendHardware(0, "123456789", 9), 0xE3069283u);
  std::vector<unsigned char> buf(8 + 300);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(util::Crc32cExtendHardware(0, p, n),
                util::Crc32cExtendTable(0, p, n))
          << "offset " << offset << " length " << n;
      // A running checksum continues the same way on both paths.
      ASSERT_EQ(util::Crc32cExtendHardware(0x12345678u, p, n),
                util::Crc32cExtendTable(0x12345678u, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string buf = "0123456789abcdef0123456789abcdef";
  const uint32_t good = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 0x10;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), good) << "flip at " << i;
    buf[i] ^= 0x10;
  }
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader round trip
// ---------------------------------------------------------------------------

TEST(BinioTest, RoundTripsEveryFieldType) {
  ByteWriter w;
  w.U8(7);
  w.U32(0xdeadbeefu);
  w.U64(1ull << 60);
  w.I32(-12345);
  w.F32(1.5f);
  w.F64(-2.25);
  w.Str("snapshot");
  ByteReader r(w.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.F32(&f32));
  EXPECT_TRUE(r.F64(&f64));
  EXPECT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "snapshot");
}

TEST(BinioTest, TruncationReturnsFalseNotCrash) {
  ByteWriter w;
  w.U32(4);
  ByteReader r(w.buffer());
  uint64_t u64 = 0;
  EXPECT_FALSE(r.U64(&u64));  // only 4 bytes available
  std::string s;
  ByteWriter w2;
  w2.U32(100);  // claims a 100-byte string with no bytes behind it
  ByteReader r2(w2.buffer());
  EXPECT_FALSE(r2.Str(&s));
}

// ---------------------------------------------------------------------------
// String utils
// ---------------------------------------------------------------------------

TEST(StringUtils, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtils, EndsWith) {
  EXPECT_TRUE(EndsWith("running", "ing"));
  EXPECT_FALSE(EndsWith("run", "ing"));
}

TEST(StringUtils, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.1f", 3, "x", 2.25), "3-x-2.2");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"model", "acc"});
  t.AddRow({"GCN", "89.5"});
  t.AddRow({"ITGNN-S", "95.7"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| model   |"), std::string::npos);
  EXPECT_NE(s.find("| ITGNN-S |"), std::string::npos);
}

// ---------------------------------------------------------------------------
// vecmath
// ---------------------------------------------------------------------------

TEST(VecMath, DotAndNorm) {
  FloatVec a{3, 4};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(Norm(a), 5.0);
}

TEST(VecMath, CosineSimilarityBounds) {
  FloatVec a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, FloatVec{-1, 0}), -1.0, 1e-9);
}

TEST(VecMath, CosineOfZeroVectorIsZero) {
  EXPECT_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
}

TEST(VecMath, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
}

TEST(VecMath, MeanOfVectors) {
  auto m = Mean({{1, 2}, {3, 4}});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_FLOAT_EQ(m[0], 2.0f);
  EXPECT_FLOAT_EQ(m[1], 3.0f);
  EXPECT_TRUE(Mean({}).empty());
}

TEST(VecMath, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

}  // namespace
}  // namespace glint
