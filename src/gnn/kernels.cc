#include "gnn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/status.h"

// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): the scalar loops below must round every mul and
// add separately to stay bit-identical to the explicit mul-then-add vector
// backends.

namespace glint::gnn::kernels {

namespace {

float ScalarDot(const float* a, const float* b, int n) {
  float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  const int n8 = n & ~7;
  for (int i = 0; i < n8; i += 8) {
    for (int j = 0; j < 8; ++j) lane[j] += a[i + j] * b[i + j];
  }
  for (int i = n8; i < n; ++i) lane[i & 7] += a[i] * b[i];
  return detail::ReduceTree8(lane);
}

/// Four floats as a GCC/Clang generic vector, which the compiler lowers to
/// whatever SIMD the baseline target has, or to scalar code. Its + and *
/// are the elementwise IEEE ops, so it rounds exactly like the scalar
/// loops.
typedef float F4 __attribute__((vector_size(16)));

F4 LoadF4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One R-row x 4*CV-column block of C = A * B (see MatMulRows in
/// kernels.h), register-blocked: lane p of all its outputs is one pass over
/// l = p, p + 8, ... into R * CV accumulators (a[r][l] times the B row
/// segment, mul then add). The passes park their lanes in `lane`; the fixed
/// tree then reduces them with vertical adds.
template <int R, int CV>
void ScalarMatMulBlock(float* c, const float* a, const float* b, int k,
                       int m) {
  F4 lane[8][R][CV];
  for (int p = 0; p < 8; ++p) {
    F4 acc[R][CV] = {};
    for (int l = p; l < k; l += 8) {
      const float* brow = b + static_cast<size_t>(l) * m;
      F4 vb[CV];
#pragma GCC unroll 2
      for (int v = 0; v < CV; ++v) vb[v] = LoadF4(brow + 4 * v);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const float s = a[static_cast<size_t>(r) * k + l];
        const F4 va = {s, s, s, s};
#pragma GCC unroll 2
        for (int v = 0; v < CV; ++v) acc[r][v] = acc[r][v] + va * vb[v];
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
      const F4 t0 = lane[0][r][v] + lane[4][r][v];
      const F4 t1 = lane[1][r][v] + lane[5][r][v];
      const F4 t2 = lane[2][r][v] + lane[6][r][v];
      const F4 t3 = lane[3][r][v] + lane[7][r][v];
      const F4 sum = (t0 + t2) + (t1 + t3);
      std::memcpy(c + static_cast<size_t>(r) * m + 4 * v, &sum, sizeof sum);
    }
  }
}

/// R rows of C in 8-column blocks; the narrower remainder is gathered.
template <int R>
void ScalarMatMulRowBlock(float* c, const float* a, const float* b, int k,
                          int m) {
  for (int j = 0; j + 8 <= m; j += 8) {
    ScalarMatMulBlock<R, 2>(c + j, a, b + j, k, m);
  }
}

static_assert(kMatMulRowBlock == 4, "the row tail below covers 1-3 rows");

void ScalarMatMulRows(float* c, const float* a, const float* b, int n, int k,
                      int m) {
  int i = 0;
  for (; i + kMatMulRowBlock <= n; i += kMatMulRowBlock) {
    ScalarMatMulRowBlock<kMatMulRowBlock>(
        c + static_cast<size_t>(i) * m, a + static_cast<size_t>(i) * k, b, k,
        m);
  }
  float* ct = c + static_cast<size_t>(i) * m;
  const float* at = a + static_cast<size_t>(i) * k;
  switch (n - i) {
    case 3:
      ScalarMatMulRowBlock<3>(ct, at, b, k, m);
      break;
    case 2:
      ScalarMatMulRowBlock<2>(ct, at, b, k, m);
      break;
    case 1:
      ScalarMatMulRowBlock<1>(ct, at, b, k, m);
      break;
  }
  detail::MatMulColumnTail(ScalarDot, c, a, b, n, k, m, m & ~7);
}

void ScalarAxpy(float* y, float alpha, const float* x, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarMatMulGradA(float* ga, const float* gc, const float* b, int n,
                       int k, int m) {
  for (int i = 0; i < n; ++i) {
    float* garow = ga + static_cast<size_t>(i) * k;
    const float* gcrow = gc + static_cast<size_t>(i) * m;
    for (int l = 0; l < k; ++l) {
      const float* brow = b + static_cast<size_t>(l) * m;
      garow[l] += ScalarDot(gcrow, brow, m);
    }
  }
}

void ScalarMatMulGradB(float* gb, const float* a, const float* gc, int n,
                       int k, int m, int l0, int l1) {
  for (int l = l0; l < l1; ++l) {
    float* gbrow = gb + static_cast<size_t>(l) * m;
    for (int i = 0; i < n; ++i) {
      const float av = a[static_cast<size_t>(i) * k + static_cast<size_t>(l)];
      if (av == 0.f) continue;
      const float* gcrow = gc + static_cast<size_t>(i) * m;
      ScalarAxpy(gbrow, av, gcrow, m);
    }
  }
}

void ScalarAddInto(float* y, const float* x, int n) {
  for (int i = 0; i < n; ++i) y[i] += x[i];
}

void ScalarMulAddInto(float* y, const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void ScalarMulInto(float* out, const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScalarScaleInto(float* out, float s, const float* x, int n) {
  for (int i = 0; i < n; ++i) out[i] = s * x[i];
}

void ScalarReluInto(float* out, const float* x, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] > 0 ? x[i] : 0.f;
}

double ScalarSumDouble(const double* x, int n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    for (int j = 0; j < 4; ++j) lane[j] += x[i + j];
  }
  for (int i = n4; i < n; ++i) lane[i & 3] += x[i];
  return detail::ReduceTree4(lane);
}

void ScalarDivDouble(double* x, double denom, int n) {
  for (int i = 0; i < n; ++i) x[i] /= denom;
}

void ScalarAdamStep(const AdamHyper& h, float* value, float* grad, float* m,
                    float* v, bool frozen, float* const* slots, int num_slots,
                    size_t lo, size_t hi) {
  for (int s = 0; s < num_slots; ++s) {
    float* slot = slots[s];
    if (slot == nullptr) continue;
    for (size_t i = lo; i < hi; ++i) grad[i] += slot[i];
    std::fill(slot + lo, slot + hi, 0.f);
  }
  if (!frozen) {
    for (size_t i = lo; i < hi; ++i) {
      const double g = grad[i] + h.weight_decay * value[i];
      m[i] = static_cast<float>(h.beta1 * m[i] + (1 - h.beta1) * g);
      v[i] = static_cast<float>(h.beta2 * v[i] + (1 - h.beta2) * g * g);
      value[i] -= static_cast<float>(h.lr * (m[i] / h.bc1) /
                                     (std::sqrt(v[i] / h.bc2) + h.eps));
    }
  }
  std::fill(grad + lo, grad + hi, 0.f);
}

}  // namespace

const KernelBackend kScalarBackend = {
    "scalar",
    static_cast<int>(Backend::kScalar),
    ScalarDot,
    ScalarMatMulRows,
    ScalarMatMulGradA,
    ScalarMatMulGradB,
    ScalarAxpy,
    ScalarAddInto,
    ScalarMulAddInto,
    ScalarMulInto,
    ScalarScaleInto,
    ScalarReluInto,
    ScalarSumDouble,
    ScalarDivDouble,
    ScalarAdamStep,
};

void detail::MatMulColumnTail(float (*dot)(const float*, const float*, int),
                              float* c, const float* a, const float* b, int n,
                              int k, int m, int j_begin) {
  if (j_begin >= m || n == 0) return;
  const int width = m - j_begin;
  thread_local std::vector<float> columns;
  columns.resize(static_cast<size_t>(width) * k);
  for (int j = 0; j < width; ++j) {
    float* column = columns.data() + static_cast<size_t>(j) * k;
    for (int l = 0; l < k; ++l) {
      column[l] = b[static_cast<size_t>(l) * m + j_begin + j];
    }
  }
  for (int i = 0; i < n; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * m + j_begin;
    for (int j = 0; j < width; ++j) {
      crow[j] = dot(arow, columns.data() + static_cast<size_t>(j) * k, k);
    }
  }
}

// ---- Dispatch ------------------------------------------------------------

namespace {

const KernelBackend* TableFor(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarBackend;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      if (__builtin_cpu_supports("avx2")) return &kAvx2Backend;
#endif
      return nullptr;
  }
  return nullptr;
}

const KernelBackend* BestAvailable() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return &kAvx2Backend;
#endif
  return &kScalarBackend;
}

std::atomic<const KernelBackend*> g_backend{nullptr};

void PublishBackendGauge(const KernelBackend* b) {
  GLINT_OBS_GAUGE_SET("glint.kernel.backend",
                      static_cast<int64_t>(b->code));
}

/// First-use resolution: GLINT_KERNEL wins (an unknown or unavailable name
/// aborts loudly — a production operator forcing a backend the CPU lacks is
/// a deployment error, not something to paper over), else best-available
/// from CPUID.
const KernelBackend* InitBackend() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const KernelBackend* b = g_backend.load(std::memory_order_acquire);
  if (b != nullptr) return b;
  const char* env = std::getenv("GLINT_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    const std::string want(env);
    const KernelBackend* forced = nullptr;
    if (want == "scalar") {
      forced = TableFor(Backend::kScalar);
    } else if (want == "avx2") {
      forced = TableFor(Backend::kAvx2);
    } else {
      GLINT_CHECK(false && "GLINT_KERNEL: unknown backend name");
    }
    GLINT_CHECK(forced != nullptr &&
                "GLINT_KERNEL: backend not available on this CPU");
    b = forced;
  } else {
    b = BestAvailable();
  }
  PublishBackendGauge(b);
  g_backend.store(b, std::memory_order_release);
  return b;
}

}  // namespace

const KernelBackend& Kernels() {
  const KernelBackend* b = g_backend.load(std::memory_order_acquire);
  if (b == nullptr) b = InitBackend();
  return *b;
}

Backend CurrentBackend() {
  return static_cast<Backend>(Kernels().code);
}

const char* BackendName() { return Kernels().name; }

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> out = {Backend::kScalar};
  if (TableFor(Backend::kAvx2) != nullptr) out.push_back(Backend::kAvx2);
  return out;
}

bool SetBackend(Backend b) {
  Kernels();  // ensure first-use init ran (keeps init/force ordering sane)
  const KernelBackend* table = TableFor(b);
  if (table == nullptr) return false;
  g_backend.store(table, std::memory_order_release);
  PublishBackendGauge(table);
  return true;
}

}  // namespace glint::gnn::kernels
