// AVX2 kernel backend. Compiled as its own translation unit with -mavx2 and
// -ffp-contract=off (see src/gnn/CMakeLists.txt); nothing here executes
// unless dispatch confirmed AVX2 via __builtin_cpu_supports.
//
// Bit-identity with the scalar backend (see kernels.h):
//   - reductions keep the same 8 float / 4 double striped lanes and reduce
//     with the same fixed tree;
//   - mul and add stay separate instructions (no vfmadd): an FMA skips the
//     intermediate rounding and would diverge from the scalar mul+add in
//     the last ulp;
//   - tails run the scalar code into the striped lanes, never a
//     zero-padded vector step (padding would turn `x + (-0.f * 0.f)`-style
//     tails into signed-zero hazards);
//   - the Adam step's double lanes keep the scalar loop's operation order
//     and float rounding points per element (see Avx2AdamStep);
//   - loads are unaligned-tolerant (loadu): Matrix base storage is 64-byte
//     aligned, but row offsets within a matrix are not padded. On every
//     AVX2-era core loadu on an aligned address costs the same as an
//     aligned load.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "gnn/kernels.h"

namespace glint::gnn::kernels {

namespace {

float Avx2Dot(const float* a, const float* b, int n) {
  __m256 acc = _mm256_setzero_ps();
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  for (int i = n8; i < n; ++i) lane[i & 7] += a[i] * b[i];
  return detail::ReduceTree8(lane);
}

/// One R-row x 8*CV-column block of C = A * B (see MatMulRows in
/// kernels.h), register-blocked: lane p of all its outputs is one pass over
/// l = p, p + 8, ... into R * CV vector accumulators (a broadcast of
/// a[r][l] times the B row segment, mul then add). The passes park their
/// lanes in `lane`; the fixed tree then reduces them with vertical adds.
template <int R, int CV>
void Avx2MatMulBlock(float* c, const float* a, const float* b, int k, int m) {
  __m256 lane[8][R][CV];
  for (int p = 0; p < 8; ++p) {
    __m256 acc[R][CV];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < CV; ++v) acc[r][v] = _mm256_setzero_ps();
    }
    for (int l = p; l < k; l += 8) {
      const float* brow = b + static_cast<size_t>(l) * m;
      __m256 vb[CV];
#pragma GCC unroll 2
      for (int v = 0; v < CV; ++v) vb[v] = _mm256_loadu_ps(brow + 8 * v);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256 va =
            _mm256_broadcast_ss(a + static_cast<size_t>(r) * k + l);
#pragma GCC unroll 2
        for (int v = 0; v < CV; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, vb[v]));
        }
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < CV; ++v) lane[p][r][v] = acc[r][v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < CV; ++v) {
      const __m256 t0 = _mm256_add_ps(lane[0][r][v], lane[4][r][v]);
      const __m256 t1 = _mm256_add_ps(lane[1][r][v], lane[5][r][v]);
      const __m256 t2 = _mm256_add_ps(lane[2][r][v], lane[6][r][v]);
      const __m256 t3 = _mm256_add_ps(lane[3][r][v], lane[7][r][v]);
      _mm256_storeu_ps(c + static_cast<size_t>(r) * m + 8 * v,
                       _mm256_add_ps(_mm256_add_ps(t0, t2),
                                     _mm256_add_ps(t1, t3)));
    }
  }
}

/// R rows of C: 16-column blocks, then one 8-column block if it fits; the
/// narrower remainder is gathered.
template <int R>
void Avx2MatMulRowBlock(float* c, const float* a, const float* b, int k,
                        int m) {
  int j = 0;
  for (; j + 16 <= m; j += 16) Avx2MatMulBlock<R, 2>(c + j, a, b + j, k, m);
  if (j + 8 <= m) Avx2MatMulBlock<R, 1>(c + j, a, b + j, k, m);
}

static_assert(kMatMulRowBlock == 4, "the row tail below covers 1-3 rows");

void Avx2MatMulRows(float* c, const float* a, const float* b, int n, int k,
                    int m) {
  int i = 0;
  for (; i + kMatMulRowBlock <= n; i += kMatMulRowBlock) {
    Avx2MatMulRowBlock<kMatMulRowBlock>(
        c + static_cast<size_t>(i) * m, a + static_cast<size_t>(i) * k, b, k,
        m);
  }
  float* ct = c + static_cast<size_t>(i) * m;
  const float* at = a + static_cast<size_t>(i) * k;
  switch (n - i) {
    case 3:
      Avx2MatMulRowBlock<3>(ct, at, b, k, m);
      break;
    case 2:
      Avx2MatMulRowBlock<2>(ct, at, b, k, m);
      break;
    case 1:
      Avx2MatMulRowBlock<1>(ct, at, b, k, m);
      break;
  }
  detail::MatMulColumnTail(Avx2Dot, c, a, b, n, k, m, m & ~7);
}

void Avx2Axpy(float* y, float alpha, const float* x, int n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (int i = n8; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2AddInto(float* y, const float* x, int n) {
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, vx));
  }
  for (int i = n8; i < n; ++i) y[i] += x[i];
}

void Avx2MulAddInto(float* y, const float* a, const float* b, int n) {
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vb)));
  }
  for (int i = n8; i < n; ++i) y[i] += a[i] * b[i];
}

void Avx2MulInto(float* out, const float* a, const float* b, int n) {
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(va, vb));
  }
  for (int i = n8; i < n; ++i) out[i] = a[i] * b[i];
}

void Avx2ScaleInto(float* out, float s, const float* x, int n) {
  const __m256 vs = _mm256_set1_ps(s);
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(vs, _mm256_loadu_ps(x + i)));
  }
  for (int i = n8; i < n; ++i) out[i] = s * x[i];
}

void Avx2ReluInto(float* out, const float* x, int n) {
  // x > 0 ? x : +0.f via compare-and-mask: _mm256_max_ps(x, 0) would keep
  // -0.f (max(-0,+0) may return either operand), diverging from the scalar
  // ternary which returns +0.f for every non-positive input.
  const __m256 zero = _mm256_setzero_ps();
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 mask = _mm256_cmp_ps(vx, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(vx, mask));
  }
  for (int i = n8; i < n; ++i) out[i] = x[i] > 0 ? x[i] : 0.f;
}

double Avx2SumDouble(const double* x, int n) {
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (int i = n4; i < n; ++i) lane[i & 3] += x[i];
  return detail::ReduceTree4(lane);
}

void Avx2DivDouble(double* x, double denom, int n) {
  const __m256d vd = _mm256_set1_pd(denom);
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), vd));
  }
  for (int i = n4; i < n; ++i) x[i] /= denom;
}

/// Four elements per step in double lanes. Each lane runs the scalar
/// expression tree in its order: g = grad + wd * value; m and v rounded to
/// float before the update reads them back; lr * (m / bc1) divided by
/// (sqrt(v / bc2) + eps), rounded to float and subtracted in float. The
/// conversions round like static_cast (MXCSR round-to-nearest), and
/// vsqrtpd / vdivpd are correctly rounded like sqrtsd / divsd. The scalar
/// twin runs the last elements and the frozen case, and zeroes grad.
void Avx2AdamStep(const AdamHyper& h, float* value, float* grad, float* m,
                  float* v, bool frozen, float* const* slots, int num_slots,
                  size_t lo, size_t hi) {
  for (int s = 0; s < num_slots; ++s) {
    float* slot = slots[s];
    if (slot == nullptr) continue;
    size_t i = lo;
    for (; i + 8 <= hi; i += 8) {
      _mm256_storeu_ps(grad + i, _mm256_add_ps(_mm256_loadu_ps(grad + i),
                                               _mm256_loadu_ps(slot + i)));
      _mm256_storeu_ps(slot + i, _mm256_setzero_ps());
    }
    for (; i < hi; ++i) {
      grad[i] += slot[i];
      slot[i] = 0.f;
    }
  }
  size_t i = lo;
  if (!frozen) {
    const __m256d wd = _mm256_set1_pd(h.weight_decay);
    const __m256d b1 = _mm256_set1_pd(h.beta1);
    const __m256d c1 = _mm256_set1_pd(1 - h.beta1);
    const __m256d b2 = _mm256_set1_pd(h.beta2);
    const __m256d c2 = _mm256_set1_pd(1 - h.beta2);
    const __m256d lr = _mm256_set1_pd(h.lr);
    const __m256d bc1 = _mm256_set1_pd(h.bc1);
    const __m256d bc2 = _mm256_set1_pd(h.bc2);
    const __m256d eps = _mm256_set1_pd(h.eps);
    for (; i + 4 <= hi; i += 4) {
      const __m128 value4 = _mm_loadu_ps(value + i);
      const __m256d g =
          _mm256_add_pd(_mm256_cvtps_pd(_mm_loadu_ps(grad + i)),
                        _mm256_mul_pd(wd, _mm256_cvtps_pd(value4)));
      const __m128 m4 = _mm256_cvtpd_ps(
          _mm256_add_pd(_mm256_mul_pd(b1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))),
                        _mm256_mul_pd(c1, g)));
      const __m128 v4 = _mm256_cvtpd_ps(
          _mm256_add_pd(_mm256_mul_pd(b2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
                        _mm256_mul_pd(_mm256_mul_pd(c2, g), g)));
      _mm_storeu_ps(m + i, m4);
      _mm_storeu_ps(v + i, v4);
      const __m256d step = _mm256_div_pd(
          _mm256_mul_pd(lr, _mm256_div_pd(_mm256_cvtps_pd(m4), bc1)),
          _mm256_add_pd(
              _mm256_sqrt_pd(_mm256_div_pd(_mm256_cvtps_pd(v4), bc2)), eps));
      _mm_storeu_ps(value + i, _mm_sub_ps(value4, _mm256_cvtpd_ps(step)));
      _mm_storeu_ps(grad + i, _mm_setzero_ps());
    }
  }
  kScalarBackend.AdamStep(h, value, grad, m, v, frozen, nullptr, 0, i, hi);
}

}  // namespace

const KernelBackend kAvx2Backend = {
    "avx2",
    static_cast<int>(Backend::kAvx2),
    Avx2Dot,
    Avx2MatMulRows,
    Avx2Axpy,
    Avx2AddInto,
    Avx2MulAddInto,
    Avx2MulInto,
    Avx2ScaleInto,
    Avx2ReluInto,
    Avx2SumDouble,
    Avx2DivDouble,
    Avx2AdamStep,
};

}  // namespace glint::gnn::kernels

#endif  // x86_64
