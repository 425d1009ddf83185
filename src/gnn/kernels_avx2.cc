// AVX2 kernel backend. Compiled as its own translation unit with -mavx2
// (see src/gnn/CMakeLists.txt) and, like every library TU,
// -ffp-contract=off (src/CMakeLists.txt); nothing here executes
// unless dispatch confirmed AVX2 via __builtin_cpu_supports.
//
// Bit-identity with the scalar backend (see kernels.h):
//   - reductions keep the same 8 float / 4 double striped lanes and reduce
//     with the same fixed tree, whether as vertical adds across parked
//     lanes (MatMulRows) or as in-register shuffles (MatMulGradA);
//   - accumulations that are not reductions keep each output's order of
//     terms (MatMulGradB: ascending A row, the a == 0 skip per term);
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

#include <algorithm>
#include <cstdint>

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

/// ReduceTree8 on a register: (lo128 + hi128) is (t0, t1, t2, t3), adding
/// its high pair gives (t0 + t2, t1 + t3), and adding lane 1 to lane 0 gives
/// the tree's (t0 + t2) + (t1 + t3). IEEE add is commutative, so each step
/// rounds exactly like the scalar tree.
float Avx2ReduceTree8(__m256 v) {
  const __m128 t = _mm_add_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_movehdup_ps(u)));
}

/// Avx2ReduceTree8 of four registers at once, as (sum a, sum b, sum c,
/// sum d). Each sum takes the same adds of the same operands: lo128 + hi128
/// gives every register's (t0, t1, t2, t3), the shuffles pair t0 with t2
/// and t1 with t3, and a last add joins the two halves.
__m128 Avx2ReduceTree8x4(__m256 a, __m256 b, __m256 c, __m256 d) {
  const __m256 tab = _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                                   _mm256_permute2f128_ps(a, b, 0x31));
  const __m256 tcd = _mm256_add_ps(_mm256_permute2f128_ps(c, d, 0x20),
                                   _mm256_permute2f128_ps(c, d, 0x31));
  // (a: t0 + t2, t1 + t3, c: ..., ... | b: ..., ..., d: ..., ...)
  const __m256 z = _mm256_add_ps(
      _mm256_shuffle_ps(tab, tcd, _MM_SHUFFLE(1, 0, 1, 0)),
      _mm256_shuffle_ps(tab, tcd, _MM_SHUFFLE(3, 2, 3, 2)));
  // (a, c, a, c | b, d, b, d)
  const __m256 w =
      _mm256_add_ps(_mm256_shuffle_ps(z, z, _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm256_shuffle_ps(z, z, _MM_SHUFFLE(3, 1, 3, 1)));
  return _mm_unpacklo_ps(_mm256_castps256_ps128(w),
                         _mm256_extractf128_ps(w, 1));
}

/// One R x S block of dA += dC * B^T (see MatMulGradA in kernels.h): the
/// R dC rows and S B rows share their loads, and every output keeps
/// Avx2Dot's single striped accumulator, scalar tail and tree.
template <int R, int S>
void Avx2GradABlock(float* ga, const float* gc, const float* b, int k,
                    int m) {
  __m256 acc[R][S];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) acc[r][s] = _mm256_setzero_ps();
  }
  const int m8 = m & ~7;
  for (int j = 0; j < m8; j += 8) {
    __m256 vc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      vc[r] = _mm256_loadu_ps(gc + static_cast<size_t>(r) * m + j);
    }
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) {
      const __m256 vb = _mm256_loadu_ps(b + static_cast<size_t>(s) * m + j);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        acc[r][s] = _mm256_add_ps(acc[r][s], _mm256_mul_ps(vc[r], vb));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* out = ga + static_cast<size_t>(r) * k;
    if (m8 == m) {
      if constexpr (S == 4) {
        _mm_storeu_ps(out, _mm_add_ps(_mm_loadu_ps(out),
                                      Avx2ReduceTree8x4(acc[r][0], acc[r][1],
                                                        acc[r][2], acc[r][3])));
      } else {
        for (int s = 0; s < S; ++s) out[s] += Avx2ReduceTree8(acc[r][s]);
      }
      continue;
    }
    const float* gcrow = gc + static_cast<size_t>(r) * m;
    for (int s = 0; s < S; ++s) {
      const float* brow = b + static_cast<size_t>(s) * m;
      alignas(32) float lane[8];
      _mm256_store_ps(lane, acc[r][s]);
      for (int j = m8; j < m; ++j) lane[j & 7] += gcrow[j] * brow[j];
      out[s] += detail::ReduceTree8(lane);
    }
  }
}

/// dA columns [l, l + S) for every row, R rows at a time, then the row
/// tail.
template <int R, int S>
void Avx2GradAColumns(float* ga, const float* gc, const float* b, int n,
                      int k, int m) {
  static_assert(R <= 4, "the row tail below covers 1-3 rows");
  int i = 0;
  for (; i + R <= n; i += R) {
    Avx2GradABlock<R, S>(ga + static_cast<size_t>(i) * k,
                         gc + static_cast<size_t>(i) * m, b, k, m);
  }
  float* gat = ga + static_cast<size_t>(i) * k;
  const float* gct = gc + static_cast<size_t>(i) * m;
  switch (n - i) {
    case 3:
      Avx2GradABlock<3, S>(gat, gct, b, k, m);
      break;
    case 2:
      Avx2GradABlock<2, S>(gat, gct, b, k, m);
      break;
    case 1:
      Avx2GradABlock<1, S>(gat, gct, b, k, m);
      break;
  }
}

/// B rows outermost, four at a time: a group stays in L1 while every pair
/// of dC rows passes over it, the n x m dC block stays in L1 across
/// groups, and each dC row's four outputs reduce together. Below 8 columns
/// there is no vector body, and the scalar twin is the same arithmetic.
void Avx2MatMulGradA(float* ga, const float* gc, const float* b, int n, int k,
                     int m) {
  if (m < 8) {
    kScalarBackend.MatMulGradA(ga, gc, b, n, k, m);
    return;
  }
  int l = 0;
  for (; l + 4 <= k; l += 4) {
    Avx2GradAColumns<2, 4>(ga + l, gc, b + static_cast<size_t>(l) * m, n, k,
                           m);
  }
  for (; l < k; ++l) {
    Avx2GradAColumns<4, 1>(ga + l, gc, b + static_cast<size_t>(l) * m, n, k,
                           m);
  }
}

/// dB rows live[0..count) += the terms of R consecutive A rows (from `a`,
/// stride k) times their dC rows (from `gc`, stride m), where every listed
/// l is nonzero in all R rows. The dC rows are held in registers 32, then
/// 8 columns at a time; each dB segment is loaded once, takes the R terms
/// in row order, mul then add, and is stored. The last columns run the
/// scalar Axpy body, row by row.
template <int R>
void Avx2GradBRows(float* gb, const float* a, const float* gc, int k, int m,
                   const int* live, int count) {
  int j = 0;
  for (; j + 32 <= m; j += 32) {
    __m256 x[R][4];
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        x[r][v] = _mm256_loadu_ps(gc + static_cast<size_t>(r) * m + j + 8 * v);
      }
    }
    for (int t = 0; t < count; ++t) {
      const int l = live[t];
      __m256 va[R];
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
        va[r] = _mm256_broadcast_ss(a + static_cast<size_t>(r) * k + l);
      }
      float* y = gb + static_cast<size_t>(l) * m + j;
#pragma GCC unroll 4
      for (int v = 0; v < 4; ++v) {
        __m256 sum = _mm256_loadu_ps(y + 8 * v);
#pragma GCC unroll 2
        for (int r = 0; r < R; ++r) {
          sum = _mm256_add_ps(sum, _mm256_mul_ps(va[r], x[r][v]));
        }
        _mm256_storeu_ps(y + 8 * v, sum);
      }
    }
  }
  for (; j + 8 <= m; j += 8) {
    __m256 x[R];
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      x[r] = _mm256_loadu_ps(gc + static_cast<size_t>(r) * m + j);
    }
    for (int t = 0; t < count; ++t) {
      const int l = live[t];
      float* y = gb + static_cast<size_t>(l) * m + j;
      __m256 sum = _mm256_loadu_ps(y);
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
        const __m256 va =
            _mm256_broadcast_ss(a + static_cast<size_t>(r) * k + l);
        sum = _mm256_add_ps(sum, _mm256_mul_ps(va, x[r]));
      }
      _mm256_storeu_ps(y, sum);
    }
  }
  if (j == m) return;
  for (int t = 0; t < count; ++t) {
    const int l = live[t];
    float* y = gb + static_cast<size_t>(l) * m;
    for (int jj = j; jj < m; ++jj) {
      for (int r = 0; r < R; ++r) {
        y[jj] += a[static_cast<size_t>(r) * k + l] *
                 gc[static_cast<size_t>(r) * m + jj];
      }
    }
  }
}

/// For each 8-bit mask, the positions of its set bits in ascending order,
/// one byte each, packed into the low bytes.
struct CompactTable {
  uint64_t lanes[256];
  constexpr CompactTable() : lanes() {
    for (int mask = 0; mask < 256; ++mask) {
      int count = 0;
      for (int b = 0; b < 8; ++b) {
        if ((mask >> b) & 1) {
          lanes[mask] |= static_cast<uint64_t>(b) << (8 * count++);
        }
      }
    }
  }
};
constexpr CompactTable kCompact;

/// Appends l + b for every set bit b of `mask`, in ascending b, and returns
/// how many it appended. Always writes 8 ints at `out`.
int AppendLive(int* out, int mask, __m256i l8) {
  const __m256i pick = _mm256_cvtepu8_epi32(
      _mm_cvtsi64_si128(static_cast<long long>(kCompact.lanes[mask])));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(l8, pick));
  return __builtin_popcount(static_cast<unsigned>(mask));
}

/// Bit b set when row[l + b] != 0.f. _CMP_NEQ_UQ is C++'s !=: true for a
/// NaN, false for -0.
int LiveMask(const float* row, int l) {
  return _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(row + l),
                                          _mm256_setzero_ps(), _CMP_NEQ_UQ));
}

/// dB rows [l0, l1) += A^T * dC with A rows outermost, two at a time, so
/// every dB element takes its terms in ascending i. The l whose a[i][l] and
/// a[i + 1][l] are both nonzero are compacted into one list, those live in
/// only one row into two more, without a branch (a -0 drops out, a NaN
/// stays in, exactly as the scalar skip). Each l is in at most one list,
/// so the lists may run in any order. The l range runs in chunks of about
/// 16 KB of dB, which stay in L1 across all n A rows.
void Avx2MatMulGradB(float* gb, const float* a, const float* gc, int n, int k,
                     int m, int l0, int l1) {
  constexpr int kMaxChunk = 256;
  // AppendLive writes 8 ints past the last one it keeps.
  int both[kMaxChunk + 8], first[kMaxChunk + 8], second[kMaxChunk + 8];
  const int chunk = std::clamp(4096 / std::max(m, 1), 8, kMaxChunk);
  const __m256i step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int c0 = l0; c0 < l1; c0 += chunk) {
    const int c1 = std::min(c0 + chunk, l1);
    int i = 0;
    for (; i + 2 <= n; i += 2) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* gc0 = gc + static_cast<size_t>(i) * m;
      const float* gc1 = gc0 + m;
      int nb = 0, n0 = 0, n1 = 0;
      int l = c0;
      for (; l + 8 <= c1; l += 8) {
        const int z0 = LiveMask(a0, l), z1 = LiveMask(a1, l);
        const __m256i l8 = _mm256_add_epi32(_mm256_set1_epi32(l), step);
        nb += AppendLive(both + nb, z0 & z1, l8);
        n0 += AppendLive(first + n0, z0 & ~z1, l8);
        n1 += AppendLive(second + n1, ~z0 & z1 & 0xff, l8);
      }
      for (; l < c1; ++l) {
        const bool z0 = a0[l] != 0.f, z1 = a1[l] != 0.f;
        both[nb] = l;
        nb += z0 & z1;
        first[n0] = l;
        n0 += z0 & !z1;
        second[n1] = l;
        n1 += !z0 & z1;
      }
      Avx2GradBRows<2>(gb, a0, gc0, k, m, both, nb);
      Avx2GradBRows<1>(gb, a0, gc0, k, m, first, n0);
      Avx2GradBRows<1>(gb, a1, gc1, k, m, second, n1);
    }
    if (i < n) {
      const float* arow = a + static_cast<size_t>(i) * k;
      int count = 0;
      int l = c0;
      for (; l + 8 <= c1; l += 8) {
        count += AppendLive(first + count, LiveMask(arow, l),
                            _mm256_add_epi32(_mm256_set1_epi32(l), step));
      }
      for (; l < c1; ++l) {
        first[count] = l;
        count += arow[l] != 0.f;
      }
      Avx2GradBRows<1>(gb, arow, gc + static_cast<size_t>(i) * m, k, m,
                       first, count);
    }
  }
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
    Avx2MatMulGradA,
    Avx2MatMulGradB,
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
