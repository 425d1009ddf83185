#include "gnn/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "obs/obs.h"
#include "util/status.h"

// This translation unit is compiled with -ffp-contract=off (see
// src/gnn/CMakeLists.txt): the scalar loops below must round every mul and
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

void ScalarAxpy(float* y, float alpha, const float* x, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
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

}  // namespace

const KernelBackend kScalarBackend = {
    "scalar",
    static_cast<int>(Backend::kScalar),
    ScalarDot,
    ScalarAxpy,
    ScalarAddInto,
    ScalarMulAddInto,
    ScalarMulInto,
    ScalarScaleInto,
    ScalarReluInto,
    ScalarSumDouble,
    ScalarDivDouble,
};

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
