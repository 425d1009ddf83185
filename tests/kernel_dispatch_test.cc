// Bit-identity proof for the runtime-dispatched kernel backends
// (gnn/kernels.h): every primitive must produce the same bits under the
// scalar reference table and every SIMD table available on this host, for
// shapes that exercise full vector bodies, scalar tails, and sub-vector
// inputs. Fingerprints are compared as hex floats so a mismatch names the
// exact lane. MatMulRows is checked entry by entry against the scalar Dot
// of a row and a gathered column. Also covers the dispatch surface
// (GLINT_KERNEL is decided at first use; SetBackend is the test hook) and
// op-level identity through MatMul / softmax, plus the batched segment ops
// against their sequential twins, and the fused Adam step element by
// element against the scalar twin.

#include <gtest/gtest.h>

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

/// The segment ops must match their whole-matrix twins applied per block —
/// the core lemma behind batched == sequential serving.
TEST_F(KernelDispatchTest, SegmentOpsMatchSequentialTwins) {
  const std::vector<int> offsets = {0, 1, 4, 9, 16};
  const int cols = 11;
  Rng rng(0xbeef);
  Matrix a(offsets.back(), cols);
  for (auto& v : a.data) v = static_cast<float>(rng.Uniform() * 2 - 1);

  for (Backend backend : AvailableBackends()) {
    ASSERT_TRUE(SetBackend(backend));
    ScopedTape tape;
    Tensor* full = tape->Constant(a);
    Tensor* mean = SegmentMeanRows(tape.get(), full, offsets);
    Tensor* max = SegmentMaxRows(tape.get(), full, offsets);
    Tensor* sm = SoftmaxRows(tape.get(), mean);
    for (size_t s = 0; s + 1 < offsets.size(); ++s) {
      Matrix block(offsets[s + 1] - offsets[s], cols);
      for (int i = 0; i < block.rows; ++i) {
        for (int j = 0; j < cols; ++j) {
          block.At(i, j) = a.At(offsets[s] + i, j);
        }
      }
      Tensor* bt = tape->Constant(block);
      Tensor* bmean = MeanRows(tape.get(), bt);
      Tensor* bmax = MaxRows(tape.get(), bt);
      Tensor* bsm = SoftmaxRowOp(tape.get(), bmean);
      for (int j = 0; j < cols; ++j) {
        ASSERT_EQ(HexFloat(bmean->value.At(0, j)),
                  HexFloat(mean->value.At(static_cast<int>(s), j)))
            << "SegmentMeanRows seg=" << s << " col=" << j;
        ASSERT_EQ(HexFloat(bmax->value.At(0, j)),
                  HexFloat(max->value.At(static_cast<int>(s), j)))
            << "SegmentMaxRows seg=" << s << " col=" << j;
        ASSERT_EQ(HexFloat(bsm->value.At(0, j)),
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
