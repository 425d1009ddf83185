#include "gnn/tensor.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "gnn/kernels.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace glint::gnn {

Matrix Matrix::HeInit(int r, int c, Rng* rng) {
  Matrix m(r, c);
  const double scale = std::sqrt(2.0 / std::max(1, r));
  for (auto& x : m.data) x = static_cast<float>(rng->Gaussian(0, scale));
  return m;
}

std::shared_ptr<const SparseMatrix::Csr> SparseMatrix::CsrView() const {
  auto cached = csr_.load(std::memory_order_acquire);
  if (cached) return cached;

  // Counting sort by row; insertion order is preserved within each row so
  // the summation order (and thus the float result) of a row-wise walk
  // matches the entry list exactly.
  auto csr = std::make_shared<Csr>();
  csr->row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (const auto& e : entries) {
    ++csr->row_ptr[static_cast<size_t>(e.r) + 1];
  }
  for (int r = 0; r < rows; ++r) {
    csr->row_ptr[static_cast<size_t>(r) + 1] +=
        csr->row_ptr[static_cast<size_t>(r)];
  }
  csr->col_idx.resize(entries.size());
  csr->vals.resize(entries.size());
  std::vector<int> cursor(csr->row_ptr.begin(), csr->row_ptr.end() - 1);
  for (const auto& e : entries) {
    const int k = cursor[static_cast<size_t>(e.r)]++;
    csr->col_idx[static_cast<size_t>(k)] = e.c;
    csr->vals[static_cast<size_t>(k)] = e.v;
  }

  // First build wins; concurrent builders adopt it (identical contents).
  std::shared_ptr<const Csr> expected;
  std::shared_ptr<const Csr> built = std::move(csr);
  if (csr_.compare_exchange_strong(expected, built)) return built;
  return expected;
}

std::shared_ptr<const Matrix> SparseMatrix::DenseView() const {
  auto cached = dense_.load(std::memory_order_acquire);
  if (cached) return cached;

  auto dense = std::make_shared<Matrix>(rows, cols);
  for (const auto& e : entries) dense->At(e.r, e.c) = e.v;

  std::shared_ptr<const Matrix> expected;
  std::shared_ptr<const Matrix> built = std::move(dense);
  if (dense_.compare_exchange_strong(expected, built)) return built;
  return expected;
}

// ---- TapeArena -----------------------------------------------------------

namespace {
// Sum of bytes_retained over all live arenas; exported through obs on
// Tape::Reset so a snapshot shows the process-wide tape footprint.
std::atomic<size_t> g_arena_bytes_total{0};
}  // namespace

size_t TapeArena::TotalBytesRetained() {
  return g_arena_bytes_total.load(std::memory_order_relaxed);
}

void TapeArena::CountGrowth(size_t old_cap_bytes, size_t new_cap_bytes) {
  if (new_cap_bytes > old_cap_bytes) {
    ++growth_allocs_;
    bytes_retained_ += new_cap_bytes - old_cap_bytes;
    g_arena_bytes_total.fetch_add(new_cap_bytes - old_cap_bytes,
                                  std::memory_order_relaxed);
  }
}

TapeArena::~TapeArena() {
  g_arena_bytes_total.fetch_sub(bytes_retained_, std::memory_order_relaxed);
}

Tensor* TapeArena::NewTensor() {
  const size_t chunk = tensor_cursor_ / kChunk;
  const size_t slot = tensor_cursor_ % kChunk;
  if (chunk == chunks_.size()) {
    chunks_.push_back(std::make_unique<Tensor[]>(kChunk));
    ++growth_allocs_;
    bytes_retained_ += kChunk * sizeof(Tensor);
    g_arena_bytes_total.fetch_add(kChunk * sizeof(Tensor),
                                  std::memory_order_relaxed);
  }
  ++tensor_cursor_;
  return &chunks_[chunk][slot];
}

size_t TapeArena::AllocInts(size_t n) {
  const size_t off = int_cursor_;
  const size_t need = off + n;
  if (need > ints_.size()) {
    const size_t old_cap = ints_.capacity();
    ints_.resize(need);  // size() is the high-water mark across Reset()
    CountGrowth(old_cap * sizeof(int), ints_.capacity() * sizeof(int));
  }
  int_cursor_ = need;
  return off;
}

size_t TapeArena::AllocDoubles(size_t n) {
  const size_t off = double_cursor_;
  const size_t need = off + n;
  if (need > doubles_.size()) {
    const size_t old_cap = doubles_.capacity();
    doubles_.resize(need);
    CountGrowth(old_cap * sizeof(double), doubles_.capacity() * sizeof(double));
  }
  double_cursor_ = need;
  return off;
}

void TapeArena::Shape(Matrix* m, int rows, int cols, bool zero) {
  const size_t need = static_cast<size_t>(rows) * cols;
  const size_t old_cap = m->data.capacity();
  m->rows = rows;
  m->cols = cols;
  if (zero) {
    m->data.assign(need, 0.f);
  } else {
    m->data.resize(need);
  }
  CountGrowth(old_cap * sizeof(float), m->data.capacity() * sizeof(float));
}

void TapeArena::Reset() {
  tensor_cursor_ = 0;
  int_cursor_ = 0;
  double_cursor_ = 0;
}

// ---- Tape ----------------------------------------------------------------

Tensor* Tape::Constant(const Matrix& value) {
  Tensor* t = arena_.NewTensor();
  arena_.Shape(&t->value, value.rows, value.cols, /*zero=*/false);
  std::copy(value.data.begin(), value.data.end(), t->value.data.begin());
  t->requires_grad = track_constants_;
  if (track_constants_) {
    arena_.Shape(&t->grad, value.rows, value.cols, /*zero=*/true);
    tracked_constants_.push_back(t);
  }
  return t;
}

Tensor* Tape::New(int rows, int cols, bool requires_grad) {
  Tensor* t = arena_.NewTensor();
  arena_.Shape(&t->value, rows, cols, /*zero=*/true);
  if (requires_grad) arena_.Shape(&t->grad, rows, cols, /*zero=*/true);
  t->requires_grad = requires_grad;
  return t;
}

void Tape::Record(const OpRecord& r) {
  const size_t old_cap = records_.capacity();
  records_.push_back(r);
  arena_.CountGrowth(old_cap * sizeof(OpRecord),
                     records_.capacity() * sizeof(OpRecord));
}

void Tape::RetainCsr(std::shared_ptr<const SparseMatrix::Csr> csr) {
  const size_t old_cap = csr_refs_.capacity();
  csr_refs_.push_back(std::move(csr));
  arena_.CountGrowth(old_cap * sizeof(csr_refs_[0]),
                     csr_refs_.capacity() * sizeof(csr_refs_[0]));
}

void Tape::ReserveParamScratch(size_t n) {
  Matrix::Storage& data = param_scratch_.data;
  if (n <= data.capacity()) return;
  const size_t old_cap = data.capacity();
  data.reserve(n);
  arena_.CountGrowth(old_cap * sizeof(float), data.capacity() * sizeof(float));
}

Matrix* Tape::ParamGradTarget(Parameter* p, Matrix** merge_into) {
  *merge_into = &p->grad;
  if (grad_sink_ != nullptr) {
    GradSlot& slot =
        grad_sink_->try_emplace(p, p->value.rows, p->value.cols).first->second;
    if (slot.zero) {
      slot.zero = false;
      *merge_into = nullptr;
      return &slot.grad;
    }
    *merge_into = &slot.grad;
  }
  arena_.Shape(&param_scratch_, p->value.rows, p->value.cols, /*zero=*/true);
  return &param_scratch_;
}

void Tape::Backward(Tensor* loss) {
  GLINT_CHECK(loss->rows() == 1 && loss->cols() == 1);
  GLINT_CHECK(loss->requires_grad);
  loss->grad.data[0] = 1.f;
  // Creation order is topological; replay the records newest-first. This is
  // the same walk (and therefore the same float summation order) as running
  // per-node closures over the node list in reverse.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    RunBackward(*it);
  }
}

void Tape::Reset() {
  GLINT_OBS_GAUGE_SET("glint.tape.nodes_per_step",
                      static_cast<int64_t>(arena_.nodes()));
  GLINT_OBS_GAUGE_SET("glint.tape.arena_bytes_retained",
                      static_cast<int64_t>(TapeArena::TotalBytesRetained()));
  const size_t growth = arena_.growth_allocs();
  GLINT_OBS_COUNT("glint.tape.arena_growth_allocs",
                  static_cast<uint64_t>(growth - growth_published_));
  growth_published_ = growth;
  GLINT_OBS_COUNT("glint.tape.resets", 1);
  arena_.Reset();
  records_.clear();
  csr_refs_.clear();
  grad_sink_ = nullptr;
  track_constants_ = false;
  freeze_leaves_ = false;
  tracked_constants_.clear();
}

Tape::Stats Tape::stats() const {
  Stats s;
  s.nodes = arena_.nodes();
  s.records = records_.size();
  s.bytes_retained = arena_.bytes_retained();
  s.growth_allocs = arena_.growth_allocs();
  return s;
}

// ---- ScopedTape ----------------------------------------------------------

namespace {

/// One thread's idle tapes; a leased tape belongs to its ScopedTape. The
/// mutex is uncontended on a lease (only ReleasePooledTapes takes it from
/// another thread), and a lease spans a whole forward, so one lock per
/// lease costs nothing measurable.
struct TapePool {
  TapePool();
  ~TapePool();
  std::mutex mu;
  std::vector<std::unique_ptr<Tape>> free_list;
};

/// Every live thread's pool, so ReleasePooledTapes can reach them all.
/// Leaked on purpose: the global ThreadPool's workers destroy their
/// thread-local pools while static destructors run, after a function-local
/// registry could already be gone.
struct PoolRegistry {
  std::mutex mu;
  std::vector<TapePool*> pools;
};

PoolRegistry& Registry() {
  static PoolRegistry* registry = new PoolRegistry;
  return *registry;
}

TapePool::TapePool() {
  PoolRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.pools.push_back(this);
}

TapePool::~TapePool() {
  PoolRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.pools.erase(std::find(r.pools.begin(), r.pools.end(), this));
}

TapePool& LocalTapePool() {
  thread_local TapePool pool;
  return pool;
}

}  // namespace

ScopedTape::ScopedTape() {
  auto& pool = LocalTapePool();
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.free_list.empty()) {
    tape_ = std::make_unique<Tape>();
  } else {
    tape_ = std::move(pool.free_list.back());
    pool.free_list.pop_back();
  }
}

ScopedTape::~ScopedTape() {
  tape_->Reset();
  auto& pool = LocalTapePool();
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.free_list.push_back(std::move(tape_));
}

void ReleasePooledTapes() {
  PoolRegistry& r = Registry();
  {
    std::lock_guard<std::mutex> registry_lock(r.mu);
    for (TapePool* pool : r.pools) {
      std::lock_guard<std::mutex> lock(pool->mu);
      pool->free_list.clear();
    }
  }
  GLINT_OBS_GAUGE_SET("glint.tape.arena_bytes_retained",
                      static_cast<int64_t>(TapeArena::TotalBytesRetained()));
}

// ---- Backward dispatch ---------------------------------------------------

namespace {

bool Track(std::initializer_list<Tensor*> inputs) {
  for (Tensor* t : inputs) {
    if (t != nullptr && t->requires_grad) return true;
  }
  return false;
}

/// Rows are dispatched to the pool in chunks carrying roughly this many
/// multiply-adds each; smaller products run serially. A pool fan-out costs
/// about 20 us (4-thread pool, 4-core Xeon), and the MatMulRows kernel
/// runs 2^19 multiply-adds in about 20-25 us on AVX2 (about twice that on
/// the scalar backend), so a chunk at least pays for its own dispatch.
/// It also keeps every serve-sized product (at most 10 rows; the widest
/// Linear, 384 x 128, is 49152 multiply-adds a row) on the calling thread.
constexpr int64_t kParallelFlops = 1 << 19;

int64_t RowGrain(int64_t per_row_flops) {
  return std::max<int64_t>(1,
                           kParallelFlops / std::max<int64_t>(1, per_row_flops));
}

/// RowGrain rounded up to whole MatMulRows row blocks.
int64_t MatMulRowGrain(int64_t per_row_flops) {
  constexpr int64_t kBlock = kernels::kMatMulRowBlock;
  return (RowGrain(per_row_flops) + kBlock - 1) / kBlock * kBlock;
}

// The worker lambdas below capture a single context reference so the
// std::function built at the ParallelFor call site fits its inline buffer —
// no heap allocation per op.

/// out = A * B for A (n x k) and the k x m matrix B as stored.
void MatMulForward(Tensor* out, const Tensor* a, const Matrix& b) {
  const int n = a->rows(), k = a->cols(), m = b.cols;
  // The kernel reads B row-major. Each output element is produced by
  // exactly one thread with a fixed l-order, so the result is bit-identical
  // for any thread count and row split.
  GLINT_KERNEL_ASSERT_ALIGNED(a->value.data.data());
  GLINT_KERNEL_ASSERT_ALIGNED(b.data.data());
  GLINT_KERNEL_ASSERT_ALIGNED(out->value.data.data());
  struct Ctx {
    const float* av;
    const float* bv;
    float* cv;
    const kernels::KernelBackend* kb;
    int k, m;
  } c{a->value.data.data(), b.data.data(), out->value.data.data(),
      &kernels::Kernels(), k, m};
  ParallelFor(0, n, MatMulRowGrain(static_cast<int64_t>(k) * m),
              [&c](int64_t lo, int64_t hi) {
                c.kb->MatMulRows(c.cv + static_cast<size_t>(lo) * c.m,
                                 c.av + static_cast<size_t>(lo) * c.k, c.bv,
                                 static_cast<int>(hi - lo), c.k, c.m);
              });
}

/// dA += dC * B^T, row-parallel over i (B rows are contiguous).
void MatMulGradA(const kernels::KernelBackend& kb, float* ga, const float* gc,
                 const float* bv, int n, int k, int m) {
  struct Ctx {
    float* ga;
    const float* gc;
    const float* bv;
    const kernels::KernelBackend* kb;
    int k, m;
  } c{ga, gc, bv, &kb, k, m};
  ParallelFor(0, n, RowGrain(static_cast<int64_t>(k) * m),
              [&c](int64_t lo, int64_t hi) {
                c.kb->MatMulGradA(c.ga + static_cast<size_t>(lo) * c.k,
                                  c.gc + static_cast<size_t>(lo) * c.m, c.bv,
                                  static_cast<int>(hi - lo), c.k, c.m);
              });
}

/// dB += A^T * dC, parallel over B rows: each dB row is owned by one thread
/// and accumulated in ascending-i order (the serial order).
void MatMulGradB(const kernels::KernelBackend& kb, float* gb, const float* av,
                 const float* gc, int n, int k, int m) {
  struct Ctx {
    float* gb;
    const float* av;
    const float* gc;
    const kernels::KernelBackend* kb;
    int n, k, m;
  } c{gb, av, gc, &kb, n, k, m};
  ParallelFor(0, k, RowGrain(static_cast<int64_t>(n) * m),
              [&c](int64_t lo, int64_t hi) {
                c.kb->MatMulGradB(c.gb, c.av, c.gc, c.n, c.k, c.m,
                                  static_cast<int>(lo), static_cast<int>(hi));
              });
}

/// out = A + B, B row-broadcast when `broadcast`.
void AddForward(Tensor* out, const Tensor* a, const Matrix& b,
                bool broadcast) {
  const int cols = a->cols();
  for (int i = 0; i < a->rows(); ++i) {
    for (int j = 0; j < cols; ++j) {
      out->value.At(i, j) =
          a->value.At(i, j) + (broadcast ? b.At(0, j) : b.At(i, j));
    }
  }
}

/// dB += dC for C = A + B (summed over rows when B was broadcast).
void AddGradB(const kernels::KernelBackend& kb, Matrix* gb, const Tensor* out,
              bool broadcast) {
  if (broadcast) {
    const int cols = out->cols();
    for (int i = 0; i < out->rows(); ++i) {
      kb.AddInto(gb->data.data(),
                 out->grad.data.data() + static_cast<size_t>(i) * cols, cols);
    }
  } else {
    kb.AddInto(gb->data.data(), out->grad.data.data(),
               static_cast<int>(gb->data.size()));
  }
}

}  // namespace

void Tape::RunBackward(const OpRecord& r) {
  Tensor* out = r.out;
  Tensor* a = r.a;
  Tensor* b = r.b;
  const kernels::KernelBackend& kb = kernels::Kernels();
  switch (r.kind) {
    case OpKind::kMatMul: {
      const int n = a->rows(), k = a->cols(), m = b->cols();
      if (a->requires_grad) {
        MatMulGradA(kb, a->grad.data.data(), out->grad.data.data(),
                    b->value.data.data(), n, k, m);
      }
      if (b->requires_grad) {
        MatMulGradB(kb, b->grad.data.data(), a->value.data.data(),
                    out->grad.data.data(), n, k, m);
      }
      break;
    }
    case OpKind::kMatMulParam: {
      const Matrix& w = r.param->value;
      const int n = a->rows(), k = a->cols(), m = w.cols;
      if (a->requires_grad) {
        MatMulGradA(kb, a->grad.data.data(), out->grad.data.data(),
                    w.data.data(), n, k, m);
      }
      if (r.i0 != 0) {
        // dW goes straight into the sink slot when it is known zero. That
        // differs from accumulating in scratch and then adding it in only
        // where dW is -0: the add stores +0 + -0 = +0. Adam::Step adds each
        // slot onto Parameter::grad, which starts at +0 and never becomes
        // -0 (a sum is -0 only when both terms are), so the merge's first
        // add erases the sign and the merged gradient has the same bits.
        Matrix* merge_into = nullptr;
        Matrix* dw = ParamGradTarget(r.param, &merge_into);
        MatMulGradB(kb, dw->data.data(), a->value.data.data(),
                    out->grad.data.data(), n, k, m);
        if (merge_into != nullptr) {
          kb.AddInto(merge_into->data.data(), dw->data.data(),
                     static_cast<int>(dw->data.size()));
        }
      }
      break;
    }
    case OpKind::kAdd: {
      if (a->requires_grad) {
        kb.AddInto(a->grad.data.data(), out->grad.data.data(),
                   static_cast<int>(a->grad.data.size()));
      }
      if (b->requires_grad) AddGradB(kb, &b->grad, out, r.i0 != 0);
      break;
    }
    case OpKind::kAddParam: {
      if (a->requires_grad) {
        kb.AddInto(a->grad.data.data(), out->grad.data.data(),
                   static_cast<int>(a->grad.data.size()));
      }
      if (r.i1 != 0) {
        // Same sink rule (and -0 note) as kMatMulParam.
        Matrix* merge_into = nullptr;
        Matrix* db = ParamGradTarget(r.param, &merge_into);
        AddGradB(kb, db, out, r.i0 != 0);
        if (merge_into != nullptr) {
          kb.AddInto(merge_into->data.data(), db->data.data(),
                     static_cast<int>(db->data.size()));
        }
      }
      break;
    }
    case OpKind::kMul: {
      const int n = static_cast<int>(out->grad.data.size());
      if (a->requires_grad) {
        kb.MulAddInto(a->grad.data.data(), out->grad.data.data(),
                      b->value.data.data(), n);
      }
      if (b->requires_grad) {
        kb.MulAddInto(b->grad.data.data(), out->grad.data.data(),
                      a->value.data.data(), n);
      }
      break;
    }
    case OpKind::kScale: {
      kb.Axpy(a->grad.data.data(), r.f0, out->grad.data.data(),
              static_cast<int>(a->grad.data.size()));
      break;
    }
    case OpKind::kRelu: {
      for (size_t i = 0; i < a->grad.data.size(); ++i) {
        a->grad.data[i] +=
            out->grad.data[i] * (a->value.data[i] > 0 ? 1.f : 0.f);
      }
      break;
    }
    case OpKind::kSigmoid: {
      for (size_t i = 0; i < a->grad.data.size(); ++i) {
        const float y = out->value.data[i];
        a->grad.data[i] += out->grad.data[i] * (y * (1.f - y));
      }
      break;
    }
    case OpKind::kConcatCols: {
      for (int i = 0; i < a->rows(); ++i) {
        if (a->requires_grad) {
          for (int j = 0; j < a->cols(); ++j) {
            a->grad.At(i, j) += out->grad.At(i, j);
          }
        }
        if (b->requires_grad) {
          for (int j = 0; j < b->cols(); ++j) {
            b->grad.At(i, j) += out->grad.At(i, a->cols() + j);
          }
        }
      }
      break;
    }
    case OpKind::kConcatRows: {
      if (a->requires_grad) {
        kb.AddInto(a->grad.data.data(), out->grad.data.data(),
                   static_cast<int>(a->grad.data.size()));
      }
      if (b->requires_grad) {
        kb.AddInto(b->grad.data.data(),
                   out->grad.data.data() + a->value.size(),
                   static_cast<int>(b->grad.data.size()));
      }
      break;
    }
    case OpKind::kGatherRows: {
      const int* idx = arena_.Ints(static_cast<size_t>(r.i0));
      for (int i = 0; i < r.i1; ++i) {
        for (int j = 0; j < a->cols(); ++j) {
          a->grad.At(idx[i], j) += out->grad.At(i, j);
        }
      }
      break;
    }
    case OpKind::kSpMM: {
      const auto* csr = static_cast<const SparseMatrix::Csr*>(r.aux);
      const int rows = out->rows();
      const int cols = a->cols();
      for (int row = 0; row < rows; ++row) {
        const float* gcrow = &out->grad.data[static_cast<size_t>(row) * cols];
        const int k0 = csr->row_ptr[static_cast<size_t>(row)];
        const int k1 = csr->row_ptr[static_cast<size_t>(row) + 1];
        for (int k = k0; k < k1; ++k) {
          float* garow =
              &a->grad.data[static_cast<size_t>(
                                csr->col_idx[static_cast<size_t>(k)]) *
                            cols];
          kb.Axpy(garow, csr->vals[static_cast<size_t>(k)], gcrow, cols);
        }
      }
      break;
    }
    case OpKind::kRowScale: {
      // The a- and b-gradients touch disjoint buffers, so splitting the
      // historically interleaved j-loop into two passes keeps every
      // accumulation order (and therefore every float) unchanged.
      const int cols = a->cols();
      for (int i = 0; i < a->rows(); ++i) {
        const float s = b->value.At(i, 0);
        if (a->requires_grad) {
          kb.Axpy(a->grad.data.data() + static_cast<size_t>(i) * cols, s,
                  out->grad.data.data() + static_cast<size_t>(i) * cols,
                  cols);
        }
        if (b->requires_grad) {
          for (int j = 0; j < cols; ++j) {
            b->grad.At(i, 0) += a->value.At(i, j) * out->grad.At(i, j);
          }
        }
      }
      break;
    }
    case OpKind::kSumAll: {
      const float g = out->grad.data[0];
      for (auto& gv : a->grad.data) gv += g;
      break;
    }
    case OpKind::kSoftmaxXent: {
      const double* p = arena_.Doubles(static_cast<size_t>(r.i0));
      const float g = out->grad.data[0];
      for (int j = 0; j < a->cols(); ++j) {
        const float onehot = (j == r.i1) ? 1.f : 0.f;
        a->grad.At(0, j) +=
            g * r.f0 * (static_cast<float>(p[j]) - onehot);
      }
      break;
    }
    case OpKind::kBceLogit: {
      const double x = a->value.data[0];
      const double p = 1.0 / (1.0 + std::exp(-x));
      const double y = r.i0;
      a->grad.data[0] +=
          out->grad.data[0] * static_cast<float>(r.f0 * (p - y));
      break;
    }
    case OpKind::kContrastiveMargin: {
      if (r.d1 <= 0) break;
      // dL/dd = 2 * margin * (-1) * d / norm
      const float g = out->grad.data[0];
      const float coef = static_cast<float>(-2.0 * r.d1 / r.d0) * g;
      for (size_t i = 0; i < a->grad.data.size(); ++i) {
        a->grad.data[i] += coef * a->value.data[i];
      }
      break;
    }
    case OpKind::kTranspose: {
      for (int i = 0; i < a->rows(); ++i) {
        for (int j = 0; j < a->cols(); ++j) {
          a->grad.At(i, j) += out->grad.At(j, i);
        }
      }
      break;
    }
    case OpKind::kSegmentMeanRows: {
      const int* off = arena_.Ints(static_cast<size_t>(r.i0));
      const int cols = a->cols();
      for (int s = 0; s < out->rows(); ++s) {
        const float inv =
            1.0f / static_cast<float>(std::max(1, off[s + 1] - off[s]));
        for (int i = off[s]; i < off[s + 1]; ++i) {
          kb.Axpy(a->grad.data.data() + static_cast<size_t>(i) * cols, inv,
                  out->grad.data.data() + static_cast<size_t>(s) * cols,
                  cols);
        }
      }
      break;
    }
    case OpKind::kSegmentMaxRows: {
      const int cols = a->cols();
      // Pool layout: B+1 offsets, then B*cols global argmax rows.
      const int* argmax =
          arena_.Ints(static_cast<size_t>(r.i0)) + out->rows() + 1;
      for (int s = 0; s < out->rows(); ++s) {
        for (int j = 0; j < cols; ++j) {
          a->grad.At(argmax[static_cast<size_t>(s) * cols + j], j) +=
              out->grad.At(s, j);
        }
      }
      break;
    }
    case OpKind::kRowSoftmax: {
      // Per row: dL/dx_j = p_j * (g_j - sum_l g_l p_l).
      for (int i = 0; i < a->rows(); ++i) {
        double dot = 0;
        for (int j = 0; j < a->cols(); ++j) {
          dot += double(out->grad.At(i, j)) * out->value.At(i, j);
        }
        for (int j = 0; j < a->cols(); ++j) {
          a->grad.At(i, j) += static_cast<float>(
              out->value.At(i, j) * (out->grad.At(i, j) - dot));
        }
      }
      break;
    }
    case OpKind::kSegmentScaleByCol: {
      const int* off = arena_.Ints(static_cast<size_t>(r.i0));
      const int cols = a->cols();
      for (int s = 0; s < b->rows(); ++s) {
        const size_t base = static_cast<size_t>(off[s]) * cols;
        const int len = (off[s + 1] - off[s]) * cols;
        if (a->requires_grad) {
          kb.Axpy(a->grad.data.data() + base, b->value.At(s, r.i1),
                  out->grad.data.data() + base, len);
        }
        if (b->requires_grad) {
          double g = 0;
          for (int i = 0; i < len; ++i) {
            g += double(a->value.data[base + i]) * out->grad.data[base + i];
          }
          b->grad.At(s, r.i1) += static_cast<float>(g);
        }
      }
      break;
    }
  }
}

// ---- Ops -----------------------------------------------------------------

Tensor* MatMul(Tape* tape, Tensor* a, Tensor* b) {
  GLINT_CHECK(a->cols() == b->rows());
  Tensor* out = tape->New(a->rows(), b->cols(), Track({a, b}));
  MatMulForward(out, a, b->value);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kMatMul;
    r.out = out;
    r.a = a;
    r.b = b;
    tape->Record(r);
  }
  return out;
}

Tensor* MatMul(Tape* tape, Tensor* a, Parameter* w) {
  GLINT_CHECK(a->cols() == w->value.rows);
  const bool track_w = !tape->freeze_leaves();
  Tensor* out =
      tape->New(a->rows(), w->value.cols, a->requires_grad || track_w);
  MatMulForward(out, a, w->value);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kMatMulParam;
    r.out = out;
    r.a = a;
    r.param = w;
    r.i0 = track_w ? 1 : 0;
    tape->Record(r);
    if (track_w) tape->ReserveParamScratch(w->value.size());
  }
  return out;
}

Tensor* Add(Tape* tape, Tensor* a, Tensor* b) {
  const bool broadcast = (b->rows() == 1 && a->rows() != 1);
  GLINT_CHECK(a->cols() == b->cols());
  GLINT_CHECK(broadcast || a->rows() == b->rows());
  Tensor* out = tape->New(a->rows(), a->cols(), Track({a, b}));
  AddForward(out, a, b->value, broadcast);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kAdd;
    r.out = out;
    r.a = a;
    r.b = b;
    r.i0 = broadcast ? 1 : 0;
    tape->Record(r);
  }
  return out;
}

Tensor* Add(Tape* tape, Tensor* a, Parameter* b) {
  const Matrix& bv = b->value;
  const bool broadcast = (bv.rows == 1 && a->rows() != 1);
  GLINT_CHECK(a->cols() == bv.cols);
  GLINT_CHECK(broadcast || a->rows() == bv.rows);
  const bool track_b = !tape->freeze_leaves();
  Tensor* out = tape->New(a->rows(), a->cols(), a->requires_grad || track_b);
  AddForward(out, a, bv, broadcast);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kAddParam;
    r.out = out;
    r.a = a;
    r.param = b;
    r.i0 = broadcast ? 1 : 0;
    r.i1 = track_b ? 1 : 0;
    tape->Record(r);
    if (track_b) tape->ReserveParamScratch(bv.size());
  }
  return out;
}

Tensor* Sub(Tape* tape, Tensor* a, Tensor* b) {
  Tensor* nb = Scale(tape, b, -1.f);
  return Add(tape, a, nb);
}

Tensor* Mul(Tape* tape, Tensor* a, Tensor* b) {
  GLINT_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Tensor* out = tape->New(a->rows(), a->cols(), Track({a, b}));
  kernels::Kernels().MulInto(out->value.data.data(), a->value.data.data(),
                             b->value.data.data(),
                             static_cast<int>(out->value.data.size()));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kMul;
    r.out = out;
    r.a = a;
    r.b = b;
    tape->Record(r);
  }
  return out;
}

Tensor* Scale(Tape* tape, Tensor* a, float s) {
  Tensor* out = tape->New(a->rows(), a->cols(), a->requires_grad);
  kernels::Kernels().ScaleInto(out->value.data.data(), s,
                               a->value.data.data(),
                               static_cast<int>(out->value.data.size()));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kScale;
    r.out = out;
    r.a = a;
    r.f0 = s;
    tape->Record(r);
  }
  return out;
}

namespace {

template <typename F>
Tensor* Elementwise(Tape* tape, Tensor* a, OpKind kind, F f) {
  Tensor* out = tape->New(a->rows(), a->cols(), a->requires_grad);
  for (size_t i = 0; i < out->value.data.size(); ++i) {
    out->value.data[i] = f(a->value.data[i]);
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = kind;
    r.out = out;
    r.a = a;
    tape->Record(r);
  }
  return out;
}

}  // namespace

Tensor* Relu(Tape* tape, Tensor* a) {
  Tensor* out = tape->New(a->rows(), a->cols(), a->requires_grad);
  kernels::Kernels().ReluInto(out->value.data.data(), a->value.data.data(),
                              static_cast<int>(out->value.data.size()));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kRelu;
    r.out = out;
    r.a = a;
    tape->Record(r);
  }
  return out;
}

Tensor* Sigmoid(Tape* tape, Tensor* a) {
  return Elementwise(tape, a, OpKind::kSigmoid,
                     [](float x) { return 1.f / (1.f + std::exp(-x)); });
}

Tensor* ConcatCols(Tape* tape, Tensor* a, Tensor* b) {
  GLINT_CHECK(a->rows() == b->rows());
  Tensor* out = tape->New(a->rows(), a->cols() + b->cols(), Track({a, b}));
  for (int i = 0; i < a->rows(); ++i) {
    for (int j = 0; j < a->cols(); ++j) out->value.At(i, j) = a->value.At(i, j);
    for (int j = 0; j < b->cols(); ++j) {
      out->value.At(i, a->cols() + j) = b->value.At(i, j);
    }
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kConcatCols;
    r.out = out;
    r.a = a;
    r.b = b;
    tape->Record(r);
  }
  return out;
}

Tensor* ConcatRows(Tape* tape, Tensor* a, Tensor* b) {
  GLINT_CHECK(a->cols() == b->cols());
  Tensor* out = tape->New(a->rows() + b->rows(), a->cols(), Track({a, b}));
  std::copy(a->value.data.begin(), a->value.data.end(),
            out->value.data.begin());
  std::copy(b->value.data.begin(), b->value.data.end(),
            out->value.data.begin() + static_cast<long>(a->value.size()));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kConcatRows;
    r.out = out;
    r.a = a;
    r.b = b;
    tape->Record(r);
  }
  return out;
}

Tensor* GatherRows(Tape* tape, Tensor* a, const std::vector<int>& idx) {
  Tensor* out =
      tape->New(static_cast<int>(idx.size()), a->cols(), a->requires_grad);
  for (size_t i = 0; i < idx.size(); ++i) {
    for (int j = 0; j < a->cols(); ++j) {
      out->value.At(static_cast<int>(i), j) = a->value.At(idx[i], j);
    }
  }
  if (out->requires_grad) {
    const size_t off = tape->arena()->AllocInts(idx.size());
    std::copy(idx.begin(), idx.end(), tape->arena()->Ints(off));
    OpRecord r{};
    r.kind = OpKind::kGatherRows;
    r.out = out;
    r.a = a;
    r.i0 = static_cast<int>(off);
    r.i1 = static_cast<int>(idx.size());
    tape->Record(r);
  }
  return out;
}

Tensor* SpMM(Tape* tape, const SparseMatrix& s, Tensor* a) {
  GLINT_CHECK(s.cols == a->rows());
  Tensor* out = tape->New(s.rows, a->cols(), a->requires_grad);
  // Row-wise CSR walk instead of a COO scan: one pass per output row, no
  // re-reading the whole entry list per multiply.
  const auto csr = s.CsrView();
  const int cols = a->cols();
  const kernels::KernelBackend& kb = kernels::Kernels();
  GLINT_KERNEL_ASSERT_ALIGNED(a->value.data.data());
  GLINT_KERNEL_ASSERT_ALIGNED(out->value.data.data());
  for (int r = 0; r < s.rows; ++r) {
    float* crow = &out->value.data[static_cast<size_t>(r) * cols];
    const int k0 = csr->row_ptr[static_cast<size_t>(r)];
    const int k1 = csr->row_ptr[static_cast<size_t>(r) + 1];
    for (int k = k0; k < k1; ++k) {
      const float* arow =
          &a->value
               .data[static_cast<size_t>(csr->col_idx[static_cast<size_t>(k)]) *
                     cols];
      kb.Axpy(crow, csr->vals[static_cast<size_t>(k)], arow, cols);
    }
  }
  if (out->requires_grad) {
    // The record borrows the raw CSR pointer; RetainCsr keeps the view
    // alive for the pass (the SparseMatrix itself may not outlive the
    // tape).
    OpRecord r{};
    r.kind = OpKind::kSpMM;
    r.out = out;
    r.a = a;
    r.aux = csr.get();
    tape->Record(r);
    tape->RetainCsr(csr);
  }
  return out;
}

Tensor* RowScale(Tape* tape, Tensor* a, Tensor* g) {
  GLINT_CHECK(g->rows() == a->rows() && g->cols() == 1);
  Tensor* out = tape->New(a->rows(), a->cols(), Track({a, g}));
  const int cols = a->cols();
  for (int i = 0; i < a->rows(); ++i) {
    kernels::Kernels().ScaleInto(
        out->value.data.data() + static_cast<size_t>(i) * cols,
        g->value.At(i, 0),
        a->value.data.data() + static_cast<size_t>(i) * cols, cols);
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kRowScale;
    r.out = out;
    r.a = a;
    r.b = g;
    tape->Record(r);
  }
  return out;
}

Tensor* SumAll(Tape* tape, Tensor* a) {
  Tensor* out = tape->New(1, 1, a->requires_grad);
  double s = 0;
  for (float v : a->value.data) s += v;
  out->value.data[0] = static_cast<float>(s);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kSumAll;
    r.out = out;
    r.a = a;
    tape->Record(r);
  }
  return out;
}

Tensor* Transpose(Tape* tape, Tensor* a) {
  Tensor* out = tape->New(a->cols(), a->rows(), a->requires_grad);
  for (int i = 0; i < a->rows(); ++i) {
    for (int j = 0; j < a->cols(); ++j) {
      out->value.At(j, i) = a->value.At(i, j);
    }
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kTranspose;
    r.out = out;
    r.a = a;
    tape->Record(r);
  }
  return out;
}

namespace {

/// The one softmax-row normalization every call site funnels through
/// (SoftmaxRowInto, SoftmaxCrossEntropy and each row of SoftmaxRows): exp
/// stays a scalar libm call in every backend, the sum
/// runs the backend's fixed 4-lane double tree, the divide is elementwise
/// (exactly rounded, so trivially backend-identical).
void SoftmaxFillRow(const float* logits, int k, double* p) {
  const kernels::KernelBackend& kb = kernels::Kernels();
  for (int j = 0; j < k; ++j) p[j] = logits[j];
  double mx = p[0];
  for (int j = 0; j < k; ++j) mx = std::max(mx, p[j]);
  for (int j = 0; j < k; ++j) p[j] = std::exp(p[j] - mx);
  const double sum = kb.SumDouble(p, k);
  kb.DivDouble(p, sum, k);
}

}  // namespace

void SoftmaxRowInto(const Tensor* logits, double* p) {
  SoftmaxFillRow(logits->value.data.data(),
                 static_cast<int>(logits->value.data.size()), p);
}

void SoftmaxRowInto(const float* logits, int k, double* p) {
  SoftmaxFillRow(logits, k, p);
}

namespace {

/// SoftmaxRowInto() into the arena double pool (same operation order, so
/// the float results are bit-identical).
size_t SoftmaxRowIntoPool(Tape* tape, const Tensor* logits) {
  const int k = logits->cols();
  const size_t off = tape->arena()->AllocDoubles(static_cast<size_t>(k));
  SoftmaxFillRow(logits->value.data.data(), k,
                 tape->arena()->Doubles(off));
  return off;
}

}  // namespace

Tensor* SoftmaxCrossEntropy(Tape* tape, Tensor* logits, int label,
                            float weight) {
  GLINT_CHECK(logits->rows() == 1);
  GLINT_CHECK(label >= 0 && label < logits->cols());
  Tensor* out = tape->New(1, 1, logits->requires_grad);
  const size_t off = SoftmaxRowIntoPool(tape, logits);
  const double* p = tape->arena()->Doubles(off);
  out->value.data[0] = static_cast<float>(
      -weight * std::log(std::max(1e-12, p[static_cast<size_t>(label)])));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kSoftmaxXent;
    r.out = out;
    r.a = logits;
    r.f0 = weight;
    r.i0 = static_cast<int>(off);
    r.i1 = label;
    tape->Record(r);
  }
  return out;
}

Tensor* BceWithLogit(Tape* tape, Tensor* logit, int label, float weight) {
  GLINT_CHECK(logit->rows() == 1 && logit->cols() == 1);
  Tensor* out = tape->New(1, 1, logit->requires_grad);
  const double x = logit->value.data[0];
  const double y = label;
  // Numerically stable: max(x,0) - x*y + log(1+exp(-|x|))
  out->value.data[0] = static_cast<float>(
      weight * (std::max(x, 0.0) - x * y + std::log1p(std::exp(-std::fabs(x)))));
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kBceLogit;
    r.out = out;
    r.a = logit;
    r.f0 = weight;
    r.i0 = label;
    tape->Record(r);
  }
  return out;
}

Tensor* SquaredDistance(Tape* tape, Tensor* a, Tensor* b) {
  Tensor* d = Sub(tape, a, b);
  Tensor* sq = Mul(tape, d, d);
  return SumAll(tape, sq);
}

Tensor* ContrastiveLoss(Tape* tape, Tensor* za, Tensor* zb, bool same_label,
                        float eps) {
  if (same_label) {
    return SquaredDistance(tape, za, zb);  // ||f(xi) - f(xj)||^2
  }
  // max(0, eps - ||f(xi) - f(xj)||_2)^2, computed with a custom record for
  // the norm to keep gradients exact.
  Tensor* d = Sub(tape, za, zb);
  Tensor* out = tape->New(1, 1, d->requires_grad);
  double norm2 = 0;
  for (float v : d->value.data) norm2 += double(v) * v;
  const double norm = std::sqrt(std::max(1e-12, norm2));
  const double margin = std::max(0.0, eps - norm);
  out->value.data[0] = static_cast<float>(margin * margin);
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kContrastiveMargin;
    r.out = out;
    r.a = d;
    r.d0 = norm;
    r.d1 = margin;
    tape->Record(r);
  }
  return out;
}

Tensor* AddLoss(Tape* tape, Tensor* a, Tensor* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return Add(tape, a, b);
}

namespace {

/// Copies a segment table into the arena int pool (records store offsets,
/// not pointers). `extra` reserves trailing ints in the same block.
size_t StashOffsets(Tape* tape, std::span<const int> offsets,
                    size_t extra) {
  const size_t off = tape->arena()->AllocInts(offsets.size() + extra);
  std::copy(offsets.begin(), offsets.end(), tape->arena()->Ints(off));
  return off;
}

void CheckOffsets(const Tensor* a, std::span<const int> offsets) {
  GLINT_CHECK(offsets.size() >= 2);
  GLINT_CHECK(offsets.front() == 0 && offsets.back() == a->rows());
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    GLINT_CHECK(offsets[s] < offsets[s + 1]);  // segments are non-empty
  }
}

}  // namespace

Tensor* SegmentMeanRows(Tape* tape, Tensor* a,
                        std::span<const int> offsets) {
  CheckOffsets(a, offsets);
  const int B = static_cast<int>(offsets.size()) - 1;
  Tensor* out = tape->New(B, a->cols(), a->requires_grad);
  const kernels::KernelBackend& kb = kernels::Kernels();
  const int cols = a->cols();
  for (int s = 0; s < B; ++s) {
    // Rows accumulate in ascending order, scaled by 1/len as they go.
    const float inv =
        1.0f / static_cast<float>(std::max(1, offsets[s + 1] - offsets[s]));
    float* orow = out->value.data.data() + static_cast<size_t>(s) * cols;
    for (int i = offsets[s]; i < offsets[s + 1]; ++i) {
      kb.Axpy(orow, inv,
              a->value.data.data() + static_cast<size_t>(i) * cols, cols);
    }
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kSegmentMeanRows;
    r.out = out;
    r.a = a;
    r.i0 = static_cast<int>(StashOffsets(tape, offsets, 0));
    tape->Record(r);
  }
  return out;
}

Tensor* SegmentMaxRows(Tape* tape, Tensor* a,
                       std::span<const int> offsets) {
  CheckOffsets(a, offsets);
  const int B = static_cast<int>(offsets.size()) - 1;
  const int cols = a->cols();
  Tensor* out = tape->New(B, cols, a->requires_grad);
  int* argmax = nullptr;
  size_t off = 0;
  if (out->requires_grad) {
    off = StashOffsets(tape, offsets,
                       static_cast<size_t>(B) * static_cast<size_t>(cols));
    argmax = tape->arena()->Ints(off) + B + 1;
  }
  for (int s = 0; s < B; ++s) {
    for (int j = 0; j < cols; ++j) {
      // Strict > scan: the first maximal row wins.
      float best = a->value.At(offsets[s], j);
      int bi = offsets[s];
      for (int i = offsets[s] + 1; i < offsets[s + 1]; ++i) {
        if (a->value.At(i, j) > best) {
          best = a->value.At(i, j);
          bi = i;
        }
      }
      if (argmax != nullptr) argmax[static_cast<size_t>(s) * cols + j] = bi;
      out->value.At(s, j) = best;
    }
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kSegmentMaxRows;
    r.out = out;
    r.a = a;
    r.i0 = static_cast<int>(off);
    tape->Record(r);
  }
  return out;
}

Tensor* SoftmaxRows(Tape* tape, Tensor* a) {
  const int B = a->rows();
  const int k = a->cols();
  Tensor* out = tape->New(B, k, a->requires_grad);
  const size_t off = tape->arena()->AllocDoubles(
      static_cast<size_t>(B) * static_cast<size_t>(k));
  for (int i = 0; i < B; ++i) {
    double* p = tape->arena()->Doubles(off) + static_cast<size_t>(i) * k;
    SoftmaxFillRow(a->value.data.data() + static_cast<size_t>(i) * k, k, p);
    for (int j = 0; j < k; ++j) {
      out->value.At(i, j) = static_cast<float>(p[j]);
    }
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kRowSoftmax;
    r.out = out;
    r.a = a;
    tape->Record(r);
  }
  return out;
}

Tensor* SegmentScaleByCol(Tape* tape, Tensor* a, Tensor* s, int col,
                          std::span<const int> offsets) {
  CheckOffsets(a, offsets);
  GLINT_CHECK(s->rows() == static_cast<int>(offsets.size()) - 1);
  GLINT_CHECK(col >= 0 && col < s->cols());
  Tensor* out = tape->New(a->rows(), a->cols(), Track({a, s}));
  const kernels::KernelBackend& kb = kernels::Kernels();
  const int cols = a->cols();
  for (int seg = 0; seg < s->rows(); ++seg) {
    const size_t base = static_cast<size_t>(offsets[seg]) * cols;
    kb.ScaleInto(out->value.data.data() + base, s->value.At(seg, col),
                 a->value.data.data() + base,
                 (offsets[seg + 1] - offsets[seg]) * cols);
  }
  if (out->requires_grad) {
    OpRecord r{};
    r.kind = OpKind::kSegmentScaleByCol;
    r.out = out;
    r.a = a;
    r.b = s;
    r.i0 = static_cast<int>(StashOffsets(tape, offsets, 0));
    r.i1 = col;
    tape->Record(r);
  }
  return out;
}

namespace {

/// Floats per optimizer tile: small enough that a tile's grad, value,
/// moments and sink slots stay cache-resident, large enough that claiming a
/// tile off the pool cursor is noise.
constexpr size_t kAdamTileFloats = 2048;

}  // namespace

void Adam::Plan(const std::vector<Parameter*>& parameters) {
  planned_ = parameters;
  std::vector<Parameter*> sorted = parameters;
  std::sort(sorted.begin(), sorted.end());
  // Tiles of one parameter run concurrently; a listed-twice parameter
  // would race with itself.
  GLINT_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  tiles_.clear();
  for (size_t p = 0; p < planned_.size(); ++p) {
    const size_t n = planned_[p]->value.data.size();
    for (size_t lo = 0; lo < n; lo += kAdamTileFloats) {
      tiles_.push_back({p, lo, std::min(n, lo + kAdamTileFloats)});
    }
  }
}

void Adam::Step(const std::vector<Parameter*>& parameters,
                std::vector<Tape::GradSink>* sinks, size_t active) {
  GLINT_CHECK(active == 0 || (sinks != nullptr && active <= sinks->size()));
  if (parameters != planned_) Plan(parameters);
  t_ += 1;
  hyper_ = {params_.lr,
            params_.beta1,
            params_.beta2,
            params_.eps,
            params_.weight_decay,
            1.0 - std::pow(params_.beta1, static_cast<double>(t_)),
            1.0 - std::pow(params_.beta2, static_cast<double>(t_))};

  // Resolve every active sink's Parameter* -> slot once per step, so the
  // tiles index a flat table instead of searching the maps. The tiles zero
  // every resolved slot, so each is marked known-zero here.
  const size_t np = planned_.size();
  active_ = active;
  slots_.assign(np * active, nullptr);
  for (size_t s = 0; s < active; ++s) {
    Tape::GradSink& sink = (*sinks)[s];
    for (size_t p = 0; p < np; ++p) {
      auto it = sink.find(planned_[p]);
      if (it == sink.end()) continue;
      slots_[p * active + s] = it->second.grad.data.data();
      it->second.zero = true;
    }
  }

  // The per-step state lives in members so the lambda captures only `this`
  // and its std::function fits the inline buffer (no allocation per step).
  ParallelFor(0, static_cast<int64_t>(tiles_.size()), 1,
              [this](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  StepTile(tiles_[static_cast<size_t>(i)]);
                }
              });
}

void Adam::StepTile(const Tile& tile) const {
  Parameter* p = planned_[tile.param];
  kernels::Kernels().AdamStep(
      hyper_, p->value.data.data(), p->grad.data.data(), p->m.data.data(),
      p->v.data.data(), p->frozen, slots_.data() + tile.param * active_,
      static_cast<int>(active_), tile.lo, tile.hi);
}

}  // namespace glint::gnn
