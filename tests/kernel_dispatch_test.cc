// Bit-identity proof for the runtime-dispatched kernel backends
// (gnn/kernels.h): every primitive must produce the same bits under the
// scalar reference table and every SIMD table available on this host, for
// shapes that exercise full vector bodies, scalar tails, and sub-vector
// inputs. Fingerprints are compared as hex floats so a mismatch names the
// exact lane. MatMulRows is checked entry by entry against the scalar Dot
// of a row and a gathered column, and the two MatMul gradient kernels
// against the per-element Dot / per-row Axpy loops they replace. Also
// covers the dispatch surface (GLINT_KERNEL is decided at first use;
// SetBackend is the test hook) and op-level identity through MatMul /
// softmax, plus the batched segment ops against their sequential twins,
// and the fused Adam step element by element against the scalar twin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gnn/kernels.h"
#include "gnn/tensor.h"
#include "util/rng.h"

namespace glint::gnn {
namespace {

using kernels::AvailableBackends;
using kernels::Backend;
using kernels::CurrentBackend;
using kernels::KernelBackend;
using kernels::kScalarBackend;
using kernels::SetBackend;

// Sizes chosen to hit: sub-lane (1..7), exact lane multiples (8, 16, 64),
// one-past (9, 17), odd tails (15, 31, 33, 100, 257).
const int kSizes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257};

std::vector<float> RandomFloats(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) {
    v = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
    if (rng.Chance(0.05)) v = 0.f;       // exercise the Axpy skip / Relu edge
    if (rng.Chance(0.05)) v = -v;        // sign mix
  }
  return out;
}

std::string HexFloat(float v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6a", static_cast<double>(v));
  return buf;
}

std::string HexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.13a", v);
  return buf;
}

/// Hex fingerprint of a float buffer: mismatches point at the exact entry.
std::string Fingerprint(const std::vector<float>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    out += HexFloat(v[i]);
    out += (i + 1 < v.size()) ? " " : "";
  }
  return out;
}

const KernelBackend& Table(Backend b) {
  EXPECT_TRUE(SetBackend(b));
  return kernels::Kernels();
}

std::vector<Backend> SimdBackends() {
  std::vector<Backend> out;
  for (Backend b : AvailableBackends()) {
    if (b != Backend::kScalar) out.push_back(b);
  }
  return out;
}

class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Leave the process on its most capable backend (listed last).
    SetBackend(AvailableBackends().back());
  }
};

TEST_F(KernelDispatchTest, DispatchSurface) {
  const auto avail = AvailableBackends();
  ASSERT_FALSE(avail.empty());
  // Scalar is always available and listed first (reference table).
  EXPECT_EQ(avail.front(), Backend::kScalar);
  for (Backend b : avail) {
    EXPECT_TRUE(SetBackend(b));
    EXPECT_EQ(CurrentBackend(), b);
    EXPECT_EQ(kernels::Kernels().code, static_cast<int>(b));
    EXPECT_STREQ(kernels::BackendName(), kernels::Kernels().name);
  }
}

TEST_F(KernelDispatchTest, DotBitIdentity) {
  for (Backend simd : SimdBackends()) {
    for (int n : kSizes) {
      const auto a = RandomFloats(n, 0x10 + static_cast<uint64_t>(n));
      const auto b = RandomFloats(n, 0x90 + static_cast<uint64_t>(n));
      const float want = kScalarBackend.Dot(a.data(), b.data(), n);
      const float got = Table(simd).Dot(a.data(), b.data(), n);
      ASSERT_EQ(HexFloat(want), HexFloat(got))
          << "Dot n=" << n << " backend=" << static_cast<int>(simd);
    }
  }
}

TEST_F(KernelDispatchTest, MatMulRowsBitIdentity) {
  // Row counts hit whole 4-row blocks, every row tail and a large product;
  // column counts hit the 16- and 8-wide blocks and the gathered tail.
  const int kRows[] = {1, 3, 4, 5, 9, 384};
  const int kCols[] = {1, 2, 7, 8, 15, 16, 17, 64, 65};
  for (Backend backend : AvailableBackends()) {
    const KernelBackend& kb = Table(backend);
    for (int n : kRows) {
      for (int k : kSizes) {
        for (int m : kCols) {
          const uint64_t seed = static_cast<uint64_t>(n * 100000 + k * 100 + m);
          auto a = RandomFloats(n * k, seed);
          auto b = RandomFloats(k * m, ~seed);
          // Signed zeros: every 7th A entry is -0.f and A's first row is
          // all -0.f (each lane then sums -0.f products onto +0.f), and
          // every 5th B entry is 0.f.
          for (size_t e = 0; e < a.size(); e += 7) a[e] = -0.f;
          for (int l = 0; l < k; ++l) a[static_cast<size_t>(l)] = -0.f;
          for (size_t e = 0; e < b.size(); e += 5) b[e] = 0.f;
          std::vector<float> c(static_cast<size_t>(n) * m);
          kb.MatMulRows(c.data(), a.data(), b.data(), n, k, m);
          std::vector<float> column(static_cast<size_t>(k));
          for (int j = 0; j < m; ++j) {
            for (int l = 0; l < k; ++l) {
              column[static_cast<size_t>(l)] =
                  b[static_cast<size_t>(l) * m + j];
            }
            for (int i = 0; i < n; ++i) {
              const float want = kScalarBackend.Dot(
                  a.data() + static_cast<size_t>(i) * k, column.data(), k);
              const float got = c[static_cast<size_t>(i) * m + j];
              if (std::memcmp(&want, &got, sizeof want) != 0) {
                ASSERT_EQ(HexFloat(want), HexFloat(got))
                    << "MatMulRows backend=" << kb.name << " n=" << n
                    << " k=" << k << " m=" << m << " at (" << i << ", " << j
                    << ")";
              }
            }
          }
        }
      }
    }
  }
}

/// Float bits, except that every NaN matches every NaN: the sign and
/// payload of a NaN depend on which operand of a mul or add the compiler
/// put first, which the bit-identity contract does not fix.
bool SameFloat(float want, float got) {
  if (std::isnan(want) && std::isnan(got)) return true;
  return std::memcmp(&want, &got, sizeof want) == 0;
}

/// Compares a kernel's output with the oracle's entry by entry, stopping at
/// the first mismatch; `what` names the call in the failure message.
void ExpectSameFloats(const std::vector<float>& want,
                      const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t e = 0; e < want.size(); ++e) {
    if (!SameFloat(want[e], got[e])) {
      ASSERT_EQ(HexFloat(want[e]), HexFloat(got[e])) << what << " at " << e;
    }
  }
}

/// Operands that make the dB skip visible. A holds +0, -0, NaN and +-Inf
/// entries, and its row `zero_row` is all zeros of both signs; dC row
/// `zero_row` holds +-Inf and negative values, so a lost skip adds
/// 0 * Inf = NaN or -0 * negative = +0 onto dB; dA and dB start nonzero with
/// -0 entries, so a skipped term and an added +0 differ in the sign bit.
struct GradOperands {
  std::vector<float> a, gc, b, ga, gb;
};

GradOperands MakeGradOperands(int n, int k, int m) {
  const uint64_t seed = static_cast<uint64_t>(n * 1000003 + k * 1009 + m);
  GradOperands o;
  o.a = RandomFloats(n * k, seed);
  o.gc = RandomFloats(n * m, seed + 1);
  o.b = RandomFloats(k * m, seed + 2);
  o.ga = RandomFloats(n * k, seed + 3);
  o.gb = RandomFloats(k * m, seed + 4);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (size_t e = 0; e < o.a.size(); e += 7) o.a[e] = -0.f;
  for (size_t e = 3; e < o.a.size(); e += 11) o.a[e] = 0.f;
  for (size_t e = 0; e < o.ga.size(); e += 5) o.ga[e] = -0.f;
  for (size_t e = 0; e < o.gb.size(); e += 3) o.gb[e] = -0.f;
  for (size_t e = 2; e < o.b.size(); e += 9) o.b[e] = -0.f;
  const int zero_row = n / 2;
  for (int l = 0; l < k; ++l) {
    o.a[static_cast<size_t>(zero_row) * k + l] = (l % 2 == 0) ? -0.f : 0.f;
  }
  for (int j = 0; j < m; ++j) {
    float& x = o.gc[static_cast<size_t>(zero_row) * m + j];
    x = (j % 3 == 0) ? kInf : (j % 3 == 1) ? -kInf : -std::fabs(x) - 0.5f;
  }
  // Sparse non-finite A entries outside the zero row (each poisons one dB
  // row, so keep them few).
  if (n > 1 && k > 2) {
    const int row = zero_row == 0 ? 1 : 0;
    o.a[static_cast<size_t>(row) * k + 1] =
        std::numeric_limits<float>::quiet_NaN();
    o.a[static_cast<size_t>(n - 1) * k + k - 1] =
        (n - 1 == zero_row) ? 0.f : kInf;
    if (row + 1 < n && row + 1 != zero_row) {
      o.a[static_cast<size_t>(row + 1) * k + k / 2] = -kInf;
    }
  }
  return o;
}

TEST_F(KernelDispatchTest, MatMulGradBitIdentity) {
  // n hits the dA row blocks and every row tail; m hits the 32- and 8-wide
  // dB bodies, the in-register and scalar-tail dA reduces, and the m <= 2
  // heads.
  const int kRows[] = {1, 3, 4, 5, 9, 30};
  const int kCols[] = {1, 2, 7, 8, 15, 16, 17, 31, 32, 33, 64, 65, 128};
  for (Backend backend : AvailableBackends()) {
    const KernelBackend& kb = Table(backend);
    for (int n : kRows) {
      for (int k : kSizes) {
        for (int m : kCols) {
          const GradOperands o = MakeGradOperands(n, k, m);
          const std::string shape = std::string(kb.name) +
                                    " n=" + std::to_string(n) +
                                    " k=" + std::to_string(k) +
                                    " m=" + std::to_string(m);

          // dA: one kScalarBackend.Dot per element, added on.
          std::vector<float> want_ga = o.ga, got_ga = o.ga;
          for (int i = 0; i < n; ++i) {
            for (int l = 0; l < k; ++l) {
              want_ga[static_cast<size_t>(i) * k + l] += kScalarBackend.Dot(
                  o.gc.data() + static_cast<size_t>(i) * m,
                  o.b.data() + static_cast<size_t>(l) * m, m);
            }
          }
          kb.MatMulGradA(got_ga.data(), o.gc.data(), o.b.data(), n, k, m);
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameFloats(want_ga, got_ga, "MatMulGradA " + shape));

          // dB over rows [l0, l1), which start and end mid-matrix: one
          // kScalarBackend.Axpy per (l, i) in ascending i, skipping
          // a[i][l] == 0.f; rows outside the range stay as they were.
          auto oracle_gb = [&](int l0, int l1) {
            std::vector<float> gb = o.gb;
            for (int l = l0; l < l1; ++l) {
              for (int i = 0; i < n; ++i) {
                const float av = o.a[static_cast<size_t>(i) * k + l];
                if (av == 0.f) continue;
                kScalarBackend.Axpy(gb.data() + static_cast<size_t>(l) * m,
                                    av,
                                    o.gc.data() + static_cast<size_t>(i) * m,
                                    m);
              }
            }
            return gb;
          };
          auto run_gb = [&](std::initializer_list<std::pair<int, int>> parts) {
            std::vector<float> gb = o.gb;
            for (const auto& [l0, l1] : parts) {
              kb.MatMulGradB(gb.data(), o.a.data(), o.gc.data(), n, k, m, l0,
                             l1);
            }
            return gb;
          };
          const int l0 = k / 3, l1 = k - k / 4;
          ASSERT_NO_FATAL_FAILURE(ExpectSameFloats(
              oracle_gb(l0, l1), run_gb({{l0, l1}}),
              "MatMulGradB [" + std::to_string(l0) + ", " +
                  std::to_string(l1) + ") " + shape));
          const std::vector<float> whole = run_gb({{0, k}});
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameFloats(oracle_gb(0, k), whole, "MatMulGradB " + shape));
          const std::vector<float> split = run_gb({{0, l0}, {l0, k}});
          ASSERT_EQ(std::memcmp(whole.data(), split.data(),
                                whole.size() * sizeof(float)),
                    0)
              << "MatMulGradB split at " << l0 << " " << shape;
        }
      }
    }
  }
}

TEST_F(KernelDispatchTest, ElementwiseBitIdentity) {
  for (Backend simd : SimdBackends()) {
    const KernelBackend& kb = Table(simd);
    for (int n : kSizes) {
      const auto x = RandomFloats(n, 0x200 + static_cast<uint64_t>(n));
      const auto y0 = RandomFloats(n, 0x300 + static_cast<uint64_t>(n));
      const auto z = RandomFloats(n, 0x400 + static_cast<uint64_t>(n));
      const float alpha = 0.37f;

      auto ys = y0, yv = y0;
      kScalarBackend.Axpy(ys.data(), alpha, x.data(), n);
      kb.Axpy(yv.data(), alpha, x.data(), n);
      ASSERT_EQ(Fingerprint(ys), Fingerprint(yv)) << "Axpy n=" << n;

      ys = y0, yv = y0;
      kScalarBackend.AddInto(ys.data(), x.data(), n);
      kb.AddInto(yv.data(), x.data(), n);
      ASSERT_EQ(Fingerprint(ys), Fingerprint(yv)) << "AddInto n=" << n;

      ys = y0, yv = y0;
      kScalarBackend.MulAddInto(ys.data(), x.data(), z.data(), n);
      kb.MulAddInto(yv.data(), x.data(), z.data(), n);
      ASSERT_EQ(Fingerprint(ys), Fingerprint(yv)) << "MulAddInto n=" << n;

      std::vector<float> os(static_cast<size_t>(n)), ov(os);
      kScalarBackend.MulInto(os.data(), x.data(), z.data(), n);
      kb.MulInto(ov.data(), x.data(), z.data(), n);
      ASSERT_EQ(Fingerprint(os), Fingerprint(ov)) << "MulInto n=" << n;

      kScalarBackend.ScaleInto(os.data(), alpha, x.data(), n);
      kb.ScaleInto(ov.data(), alpha, x.data(), n);
      ASSERT_EQ(Fingerprint(os), Fingerprint(ov)) << "ScaleInto n=" << n;

      kScalarBackend.ReluInto(os.data(), x.data(), n);
      kb.ReluInto(ov.data(), x.data(), n);
      ASSERT_EQ(Fingerprint(os), Fingerprint(ov)) << "ReluInto n=" << n;
      // ReLU(-0) must be +0 in every backend (the cmp-and-mask rule).
      const float neg_zero = -0.f;
      float r = 1.f;
      kb.ReluInto(&r, &neg_zero, 1);
      EXPECT_EQ(std::memcmp(&r, "\0\0\0\0", 4), 0) << "ReLU(-0) kept the sign";
    }
  }
}

TEST_F(KernelDispatchTest, DoubleKernelsBitIdentity) {
  for (Backend simd : SimdBackends()) {
    const KernelBackend& kb = Table(simd);
    for (int n : kSizes) {
      Rng rng(0x500 + static_cast<uint64_t>(n));
      std::vector<double> x(static_cast<size_t>(n));
      for (auto& v : x) v = rng.Uniform() * 3.0 - 1.0;
      const double want = kScalarBackend.SumDouble(x.data(), n);
      const double got = kb.SumDouble(x.data(), n);
      ASSERT_EQ(HexDouble(want), HexDouble(got)) << "SumDouble n=" << n;

      auto xs = x, xv = x;
      kScalarBackend.DivDouble(xs.data(), want, n);
      kb.DivDouble(xv.data(), want, n);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(HexDouble(xs[static_cast<size_t>(i)]),
                  HexDouble(xv[static_cast<size_t>(i)]))
            << "DivDouble n=" << n << " i=" << i;
      }
    }
  }
}

/// Op-level identity: a MatMul + softmax pipeline through the tape must
/// produce the same bits on every backend (this is what the serving
/// equivalence gate builds on).
TEST_F(KernelDispatchTest, TapeOpsBitIdentical) {
  const int shapes[][3] = {{1, 5, 3}, {7, 13, 9}, {16, 64, 32}, {33, 17, 2}};
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    Rng rng(static_cast<uint64_t>(n * 1000 + k));
    Matrix a(n, k), b(k, m);
    for (auto& v : a.data) v = static_cast<float>(rng.Uniform() - 0.5);
    for (auto& v : b.data) v = static_cast<float>(rng.Uniform() - 0.5);

    auto run = [&](Backend backend) {
      EXPECT_TRUE(SetBackend(backend));
      ScopedTape tape;
      Tensor* c = Relu(tape.get(), MatMul(tape.get(), tape->Constant(a),
                                          tape->Constant(b)));
      std::string fp;
      for (int i = 0; i < c->rows(); ++i) {
        std::vector<double> p(static_cast<size_t>(m));
        SoftmaxRowInto(c->value.data.data() + static_cast<size_t>(i) * m, m,
                       p.data());
        for (double v : p) fp += HexDouble(v) + " ";
      }
      for (float v : c->value.data) fp += HexFloat(v) + " ";
      return fp;
    };

    const std::string scalar_fp = run(Backend::kScalar);
    for (Backend simd : SimdBackends()) {
      ASSERT_EQ(scalar_fp, run(simd))
          << "MatMul+Relu+softmax " << n << "x" << k << "x" << m;
    }
  }
}

/// The segment ops must match a naive per-block reference written here,
/// in the same operation order: a graph's reduction reads only its own
/// rows, so its bits cannot depend on the batch around it — the core lemma
/// behind batched == sequential serving.
TEST_F(KernelDispatchTest, SegmentOpsMatchSequentialTwins) {
  const std::vector<int> offsets = {0, 1, 4, 9, 16};
  const int cols = 11;
  Rng rng(0xbeef);
  Matrix a(offsets.back(), cols);
  for (auto& v : a.data) v = static_cast<float>(rng.Uniform() * 2 - 1);

  for (Backend backend : AvailableBackends()) {
    ASSERT_TRUE(SetBackend(backend));
    const KernelBackend& kb = kernels::Kernels();
    ScopedTape tape;
    Tensor* full = tape->Constant(a);
    Tensor* mean = SegmentMeanRows(tape.get(), full, offsets);
    Tensor* max = SegmentMaxRows(tape.get(), full, offsets);
    Tensor* sm = SoftmaxRows(tape.get(), mean);
    for (size_t s = 0; s + 1 < offsets.size(); ++s) {
      const int r0 = offsets[s], r1 = offsets[s + 1];
      // Mean: ascending rows, each scaled by 1/len and added by the
      // backend's Axpy. Max: strict-> scan from the block's first row.
      const float inv = 1.0f / static_cast<float>(r1 - r0);
      std::vector<float> bmean(static_cast<size_t>(cols), 0.f);
      for (int i = r0; i < r1; ++i) {
        kb.Axpy(bmean.data(), inv, &a.data[static_cast<size_t>(i) * cols],
                cols);
      }
      std::vector<float> bmax(static_cast<size_t>(cols));
      for (int j = 0; j < cols; ++j) {
        float best = a.At(r0, j);
        for (int i = r0 + 1; i < r1; ++i) {
          if (a.At(i, j) > best) best = a.At(i, j);
        }
        bmax[static_cast<size_t>(j)] = best;
      }
      // Softmax of the block's mean row: shift by the max, exp, then the
      // backend's double sum and divide.
      std::vector<double> bsm(bmean.begin(), bmean.end());
      double mx = bsm[0];
      for (double v : bsm) mx = std::max(mx, v);
      for (double& v : bsm) v = std::exp(v - mx);
      kb.DivDouble(bsm.data(), kb.SumDouble(bsm.data(), cols), cols);
      for (int j = 0; j < cols; ++j) {
        const size_t jj = static_cast<size_t>(j);
        ASSERT_EQ(HexFloat(bmean[jj]),
                  HexFloat(mean->value.At(static_cast<int>(s), j)))
            << "SegmentMeanRows seg=" << s << " col=" << j;
        ASSERT_EQ(HexFloat(bmax[jj]),
                  HexFloat(max->value.At(static_cast<int>(s), j)))
            << "SegmentMaxRows seg=" << s << " col=" << j;
        ASSERT_EQ(HexFloat(static_cast<float>(bsm[jj])),
                  HexFloat(sm->value.At(static_cast<int>(s), j)))
            << "SoftmaxRows seg=" << s << " col=" << j;
      }
    }
  }
}

/// Adam kernel operands: Gaussian values with +0, -0 and subnormals mixed
/// in; `moment` keeps them non-negative (a second moment), -0 included.
std::vector<float> AdamOperand(size_t n, uint64_t seed, bool moment) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& x : out) {
    const double u = rng.Uniform();
    if (u < 0.05) {
      x = 0.f;
    } else if (u < 0.10) {
      x = -0.f;
    } else if (u < 0.20) {
      x = std::numeric_limits<float>::denorm_min() *
          static_cast<float>(1 + rng.Below(1u << 20));
      if (rng.Chance(0.5)) x = -x;
    } else {
      x = static_cast<float>(rng.Gaussian(0, 1));
    }
    if (moment && x < 0.f) x = -x;
  }
  return out;
}

TEST_F(KernelDispatchTest, AdamStepBitIdentity) {
  // Tile lengths hit every 4-double and 8-float tail and a full 2048-float
  // tile; the tile starts 3 floats into its buffers, and the floats around
  // it must stay untouched.
  const size_t kLengths[] = {1, 3, 4, 5, 7, 9, 2047, 2048};
  const int kActive[] = {0, 1, 3, 8};
  constexpr size_t kLo = 3, kPad = 2;
  kernels::AdamHyper h{2e-3, 0.9, 0.999, 1e-8, 1e-5, 0, 0};
  h.bc1 = 1.0 - std::pow(h.beta1, 3.0);
  h.bc2 = 1.0 - std::pow(h.beta2, 3.0);

  struct Buffers {
    std::vector<float> value, grad, m, v;
    std::vector<std::vector<float>> sinks;
    std::vector<float*> slots;
  };
  for (Backend backend : AvailableBackends()) {
    const KernelBackend& kb = Table(backend);
    for (size_t len : kLengths) {
      for (int active : kActive) {
        for (bool frozen : {false, true}) {
          const size_t size = kLo + len + kPad;
          const uint64_t seed = len * 64 + static_cast<uint64_t>(active) * 2 +
                                (frozen ? 1 : 0);
          Buffers init;
          init.value = AdamOperand(size, seed, false);
          init.grad = AdamOperand(size, seed + 1, false);
          init.m = AdamOperand(size, seed + 2, false);
          init.v = AdamOperand(size, seed + 3, true);
          for (int s = 0; s < active; ++s) {
            init.sinks.push_back(
                AdamOperand(size, seed + 4 + static_cast<uint64_t>(s), false));
          }
          auto run = [&](const KernelBackend& table) {
            Buffers b = init;
            for (int s = 0; s < active; ++s) {
              // Every third sink holds no entry for this parameter.
              b.slots.push_back(s % 3 == 1 ? nullptr
                                           : b.sinks[static_cast<size_t>(s)]
                                                 .data());
            }
            table.AdamStep(h, b.value.data(), b.grad.data(), b.m.data(),
                           b.v.data(), frozen, b.slots.data(), active, kLo,
                           kLo + len);
            return b;
          };
          const Buffers want = run(kScalarBackend);
          const Buffers got = run(kb);

          auto same = [&](const char* what, const std::vector<float>& w,
                          const std::vector<float>& g,
                          const std::vector<float>& before) {
            for (size_t i = 0; i < size; ++i) {
              ASSERT_EQ(HexFloat(w[i]), HexFloat(g[i]))
                  << what << " backend=" << kb.name << " len=" << len
                  << " active=" << active << " frozen=" << frozen
                  << " i=" << i;
              if (i < kLo || i >= kLo + len) {
                ASSERT_EQ(HexFloat(before[i]), HexFloat(g[i]))
                    << what << " outside the tile, i=" << i;
              }
            }
          };
          same("value", want.value, got.value, init.value);
          same("m", want.m, got.m, init.m);
          same("v", want.v, got.v, init.v);
          same("grad", want.grad, got.grad, init.grad);
          for (int s = 0; s < active; ++s) {
            const size_t k = static_cast<size_t>(s);
            same("sink", want.sinks[k], got.sinks[k], init.sinks[k]);
          }
          if (frozen) {
            same("frozen value", init.value, got.value, init.value);
            same("frozen m", init.m, got.m, init.m);
            same("frozen v", init.v, got.v, init.v);
          }
          // The merged sinks and grad read all zero afterwards; a null slot's
          // sink is not this parameter's and keeps its data.
          for (size_t i = kLo; i < kLo + len; ++i) {
            ASSERT_EQ(HexFloat(got.grad[i]), HexFloat(0.f)) << "grad i=" << i;
            for (int s = 0; s < active; ++s) {
              if (s % 3 == 1) continue;
              ASSERT_EQ(HexFloat(got.sinks[static_cast<size_t>(s)][i]),
                        HexFloat(0.f))
                  << "sink " << s << " i=" << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace glint::gnn
