#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace glint::gnn::kernels {

/// Adam hyper-parameters for one step, bias corrections included.
struct AdamHyper {
  double lr, beta1, beta2, eps, weight_decay;
  double bc1, bc2;  ///< 1 - beta1^t and 1 - beta2^t for this step
};

/// Runtime-dispatched dense kernel backend.
///
/// These are the hot primitives behind the tape ops (the kMatMul forward
/// product and its two gradient products, kSpMM row accumulation,
/// parameter-gradient accumulation, the elementwise forwards, and the
/// softmax-row normalization) and behind the Adam step. One backend is
/// selected once at startup — AVX2 when the CPU advertises it, portable
/// scalar otherwise — overridable with GLINT_KERNEL=scalar|avx2.
///
/// Bit-identity contract (the kernel-level twin of the thread-count
/// determinism proved by parallel_determinism_test): every backend must
/// return bit-identical floats for identical inputs. Reductions therefore
/// fix their shape independently of the instruction set:
///   - float dots accumulate into 8 striped lanes (element i enters lane
///     i mod 8; the tail enters lanes scalar-wise) and reduce with the fixed
///     tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7));
///   - double sums accumulate into 4 striped lanes and reduce with
///     (l0+l2)+(l1+l3);
///   - no FMA anywhere: an fmadd skips the intermediate rounding a mul+add
///     pair performs, so contracted and uncontracted code disagree in the
///     last ulp. Kernel translation units are compiled with
///     -ffp-contract=off and the vector paths use explicit mul-then-add.
/// Elementwise kernels are trivially identical (IEEE ops are exactly
/// rounded); transcendental elementwise math (exp, tanh, sigmoid) stays on
/// scalar libm calls in every backend.
struct KernelBackend {
  const char* name;
  int code;  ///< exported as the glint.kernel.backend gauge

  /// 8-lane striped dot product with the fixed reduction tree.
  float (*Dot)(const float* a, const float* b, int n);
  /// C = A * B for row-major A (n x k), B (k x m) and C (n x m), with B read
  /// as stored (no transpose). Every C[i][j] is bit-identical to Dot(A row
  /// i, column j of B, k): lane p sums a[i][l] * b[l][j] over l = p mod 8
  /// in ascending l, mul then add, and the lanes reduce through
  /// ReduceTree8. Across j those lanes and that tree are plain vertical
  /// vector ops, so a row block of C needs no horizontal reduce. Each
  /// output depends only on its own row of A, so any row split of a
  /// product gives the same bits.
  void (*MatMulRows)(float* c, const float* a, const float* b, int n, int k,
                     int m);
  /// dA += dC * B^T for row-major dC (n x m), B (k x m) and dA (n x k): every
  /// ga[i][l] += Dot(dC row i, B row l, m), with Dot's 8 striped lanes,
  /// scalar tail and ReduceTree8, then one add onto the stored value. Each
  /// dA row depends only on its own dC row, so any row split gives the same
  /// bits.
  void (*MatMulGradA)(float* ga, const float* gc, const float* b, int n,
                      int k, int m);
  /// dB rows [l0, l1) += A^T * dC for row-major A (n x k), dC (n x m) and
  /// dB (k x m); gb, a and gc point at the whole matrices. Every
  /// gb[l][j] takes the terms a[i][l] * gc[i][j] one at a time, mul then
  /// add, in ascending i, and skips every term whose a[i][l] == 0.f (so a
  /// -0 is skipped and a NaN is not): exactly Axpy(dB row l, a[i][l],
  /// dC row i, m) per nonzero (l, i). Rows outside [l0, l1) are untouched,
  /// so any split of the rows gives the same bits.
  void (*MatMulGradB)(float* gb, const float* a, const float* gc, int n,
                      int k, int m, int l0, int l1);
  /// y[i] += alpha * x[i]
  void (*Axpy)(float* y, float alpha, const float* x, int n);
  /// y[i] += x[i]
  void (*AddInto)(float* y, const float* x, int n);
  /// y[i] += a[i] * b[i]
  void (*MulAddInto)(float* y, const float* a, const float* b, int n);
  /// out[i] = a[i] * b[i]
  void (*MulInto)(float* out, const float* a, const float* b, int n);
  /// out[i] = s * x[i]
  void (*ScaleInto)(float* out, float s, const float* x, int n);
  /// out[i] = x[i] > 0 ? x[i] : +0.f  (matches the scalar ternary on -0/NaN)
  void (*ReluInto)(float* out, const float* x, int n);
  /// 4-lane striped double sum with the fixed reduction tree.
  double (*SumDouble)(const double* x, int n);
  /// x[i] /= denom
  void (*DivDouble)(double* x, double denom, int n);
  /// One Adam step over elements [lo, hi) of a parameter (see Adam::Step in
  /// tensor.h). Per element: add slots[0..num_slots) into grad in slot
  /// order (a null slot is skipped) and zero them; unless `frozen`, apply
  /// the double-precision Adam update to value, m and v; zero grad. The
  /// update is elementwise, so a vector backend keeps the scalar loop's
  /// order of mul, add, div and sqrt per lane and matches it bit for bit.
  void (*AdamStep)(const AdamHyper& h, float* value, float* grad, float* m,
                   float* v, bool frozen, float* const* slots, int num_slots,
                   size_t lo, size_t hi);
};

/// Rows per MatMulRows register block in every backend. A caller that
/// splits one product across threads should cut it at multiples of this,
/// so no chunk runs its rows through the narrower row-tail blocks.
inline constexpr int kMatMulRowBlock = 4;

enum class Backend : int { kScalar = 0, kAvx2 = 1 };

/// The selected backend (first call resolves GLINT_KERNEL / CPUID and
/// publishes the glint.kernel.backend gauge). Hot ops load this once per op
/// and call through the function pointers.
const KernelBackend& Kernels();

/// Kind / name of the selected backend. CurrentBackend is kept for the
/// tests: they check which backend GLINT_KERNEL selected.
Backend CurrentBackend();
const char* BackendName();

/// Every backend this binary can run on this CPU (always contains kScalar).
std::vector<Backend> AvailableBackends();

/// Test / bench hook: forces a backend. Returns false (and changes nothing)
/// when the backend is not available on this CPU.
bool SetBackend(Backend b);

// ---- Shared reduction trees (every backend funnels through these) --------

namespace detail {

/// The fixed 8-lane float reduction: exactly the shape of an AVX2
/// horizontal reduce, used verbatim by the scalar backend so both produce
/// the same bits.
inline float ReduceTree8(const float* lane) {
  const float t0 = lane[0] + lane[4];
  const float t1 = lane[1] + lane[5];
  const float t2 = lane[2] + lane[6];
  const float t3 = lane[3] + lane[7];
  return (t0 + t2) + (t1 + t3);
}

/// MatMulRows' narrow-column tail, shared by every backend: columns
/// [j_begin, m) of B are gathered once into a per-thread buffer, and every
/// row of A is `dot`-ed against each of them, which is Dot's contract by
/// definition.
void MatMulColumnTail(float (*dot)(const float*, const float*, int), float* c,
                      const float* a, const float* b, int n, int k, int m,
                      int j_begin);

/// The fixed 4-lane double reduction.
inline double ReduceTree4(const double* lane) {
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

}  // namespace detail

/// Debug check that a kernel operand sits on the 64-byte boundary the
/// aligned Matrix storage guarantees (base pointers only — row offsets
/// within a matrix are not padded, which is why the vector loads stay
/// alignment-tolerant).
#if !defined(NDEBUG)
#define GLINT_KERNEL_ASSERT_ALIGNED(p) \
  assert((reinterpret_cast<uintptr_t>(p) & 63u) == 0)
#else
#define GLINT_KERNEL_ASSERT_ALIGNED(p) ((void)0)
#endif

// Backend tables (internal: the per-ISA translation units define these).
extern const KernelBackend kScalarBackend;
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelBackend kAvx2Backend;
#endif

}  // namespace glint::gnn::kernels
