#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "gnn/kernels.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/status.h"

namespace glint::gnn {

/// Dense row-major float matrix — the numeric workhorse of the GNN stack.
/// Storage is 64-byte aligned so the SIMD kernel backends (gnn/kernels.h)
/// always see cache-line-aligned base pointers.
struct Matrix {
  using Storage = std::vector<float, util::AlignedAllocator<float, 64>>;

  int rows = 0;
  int cols = 0;
  Storage data;

  Matrix() = default;
  Matrix(int r, int c, float fill = 0.f)
      : rows(r), cols(c), data(static_cast<size_t>(r) * c, fill) {
    // Debug guard for the kernel-backend contract: base pointers handed to
    // the SIMD tables are 64-byte aligned (AlignedAllocator's job).
    assert((reinterpret_cast<uintptr_t>(data.data()) & 63u) == 0);
  }

  float& At(int r, int c) { return data[static_cast<size_t>(r) * cols + c]; }
  float At(int r, int c) const {
    return data[static_cast<size_t>(r) * cols + c];
  }
  size_t size() const { return data.size(); }

  /// Fills with He-scaled Gaussian noise (fan_in based).
  static Matrix HeInit(int r, int c, Rng* rng);
};

/// Sparse matrix in coordinate form (used for normalized adjacencies), with
/// a build-once CSR mirror for fast row-wise multiplies and a build-once
/// dense mirror for models that consume the adjacency densely.
///
/// Usage contract: entries are appended during construction, then the
/// matrix is read-only. Construction sites that feed hot SpMM paths call
/// BuildCsrCache() once at the end; SpMM builds (and caches) the CSR form
/// on demand otherwise. Copies share the immutable caches.
struct SparseMatrix {
  int rows = 0;
  int cols = 0;
  struct Entry {
    int r, c;
    float v;
  };
  std::vector<Entry> entries;

  /// CSR mirror: entries grouped by row (insertion order kept within a
  /// row), rows+1 offsets in row_ptr.
  struct Csr {
    std::vector<int> row_ptr;
    std::vector<int> col_idx;
    std::vector<float> vals;
  };

  SparseMatrix() = default;
  SparseMatrix(const SparseMatrix& o)
      : rows(o.rows),
        cols(o.cols),
        entries(o.entries),
        csr_(o.csr_.load()),
        dense_(o.dense_.load()) {}
  SparseMatrix& operator=(const SparseMatrix& o) {
    if (this == &o) return *this;
    rows = o.rows;
    cols = o.cols;
    entries = o.entries;
    csr_.store(o.csr_.load());
    dense_.store(o.dense_.load());
    return *this;
  }
  SparseMatrix(SparseMatrix&& o) noexcept
      : rows(o.rows),
        cols(o.cols),
        entries(std::move(o.entries)),
        csr_(o.csr_.load()),
        dense_(o.dense_.load()) {
    o.rows = 0;
    o.cols = 0;
    o.csr_.store(std::shared_ptr<const Csr>());
    o.dense_.store(std::shared_ptr<const Matrix>());
  }
  SparseMatrix& operator=(SparseMatrix&& o) noexcept {
    if (this == &o) return *this;
    rows = o.rows;
    cols = o.cols;
    entries = std::move(o.entries);
    csr_.store(o.csr_.load());
    dense_.store(o.dense_.load());
    o.rows = 0;
    o.cols = 0;
    o.csr_.store(std::shared_ptr<const Csr>());
    o.dense_.store(std::shared_ptr<const Matrix>());
    return *this;
  }

  void Reserve(size_t n) { entries.reserve(n); }
  void Add(int r, int c, float v) { entries.push_back({r, c, v}); }
  /// Appends both {a,b,v} and {b,a,v} (symmetric adjacency edge).
  void AddSymmetric(int a, int b, float v) {
    entries.push_back({a, b, v});
    entries.push_back({b, a, v});
  }

  /// Returns the CSR mirror, building and caching it on first use. Safe to
  /// call concurrently on a fully-constructed matrix: the first build wins
  /// and is never replaced, so returned references stay valid.
  std::shared_ptr<const Csr> CsrView() const;
  /// Eagerly builds the CSR cache (call once after construction).
  void BuildCsrCache() const { (void)CsrView(); }

  /// Returns the densified form (entry list scattered into a rows x cols
  /// Matrix, later duplicates winning), building and caching it on first
  /// use with the same first-build-wins discipline as CsrView().
  std::shared_ptr<const Matrix> DenseView() const;

 private:
  mutable std::atomic<std::shared_ptr<const Csr>> csr_;
  mutable std::atomic<std::shared_ptr<const Matrix>> dense_;
};

/// A node in the autograd tape: value and gradient. Backward logic lives in
/// the tape's op records (see OpRecord), not on the node.
struct Tensor {
  Matrix value;
  Matrix grad;
  bool requires_grad = false;

  int rows() const { return value.rows; }
  int cols() const { return value.cols; }
};

/// A trainable parameter: persistent value + accumulated gradient + Adam
/// moments. Parameters live in layers and never enter the tape as tensors:
/// the parameter overloads of MatMul and Add read `value` in place, and
/// their backward sends dW to the tape's gradient sink (or to `grad`).
struct Parameter {
  Matrix value;
  Matrix grad;
  Matrix m, v;  ///< Adam moments
  bool frozen = false;  ///< transfer learning: excluded from updates

  explicit Parameter(Matrix init)
      : value(std::move(init)),
        grad(value.rows, value.cols),
        m(value.rows, value.cols),
        v(value.rows, value.cols) {}

  /// Kept for the tests: they reset gradients between backward passes.
  void ZeroGrad() { std::fill(grad.data.begin(), grad.data.end(), 0.f); }
};

/// Op tag for the closure-free backward dispatch (internal to the tape).
enum class OpKind : uint8_t {
  kMatMul,
  kMatMulParam,
  kAdd,
  kAddParam,
  kMul,
  kScale,
  kRelu,
  kSigmoid,
  kConcatCols,
  kConcatRows,
  kGatherRows,
  kSpMM,
  kRowScale,
  kSumAll,
  kSoftmaxXent,
  kBceLogit,
  kContrastiveMargin,
  kTranspose,
  kSegmentMeanRows,
  kSegmentMaxRows,
  kRowSoftmax,
  kSegmentScaleByCol,
};

/// One recorded gradient-flowing op: tag, operand pointers, and a small
/// fixed payload. Trivially destructible, so the record list clears without
/// per-element work; integer/double payloads index into the arena pools.
struct OpRecord {
  OpKind kind;
  Tensor* out = nullptr;
  Tensor* a = nullptr;
  Tensor* b = nullptr;
  Parameter* param = nullptr;   ///< kMatMulParam / kAddParam operand
  const void* aux = nullptr;    ///< kSpMM: borrowed SparseMatrix::Csr*
  float f0 = 0.f;               ///< scale factor / sample weight
  double d0 = 0.0, d1 = 0.0;    ///< kContrastiveMargin: norm, margin
  int i0 = 0, i1 = 0;           ///< pool offsets / lengths / labels / flags
};

/// Bump-pointer arena behind a Tape: owns the Tensor slots plus int and
/// double pools. Reset() rewinds the cursors but keeps every
/// allocation, so replaying an identical op sequence re-uses the same
/// storage and performs no heap allocation after the first (warm-up) pass.
class TapeArena {
 public:
  TapeArena() = default;
  TapeArena(const TapeArena&) = delete;
  TapeArena& operator=(const TapeArena&) = delete;
  ~TapeArena();

  /// Returns the next Tensor slot (address-stable across Reset and growth).
  Tensor* NewTensor();

  /// Reserves `n` ints in the pool; returns the pool offset. Pointers from
  /// Ints() are invalidated by the next AllocInts call (growth may move the
  /// pool), which is why records store offsets, not pointers.
  size_t AllocInts(size_t n);
  int* Ints(size_t off) { return ints_.data() + off; }
  const int* Ints(size_t off) const { return ints_.data() + off; }

  /// Same contract as AllocInts, for doubles.
  size_t AllocDoubles(size_t n);
  double* Doubles(size_t off) { return doubles_.data() + off; }
  const double* Doubles(size_t off) const { return doubles_.data() + off; }

  /// Shapes `m` to rows x cols, optionally zero-filling. Growth beyond the
  /// retained capacity is counted in the arena stats.
  void Shape(Matrix* m, int rows, int cols, bool zero);

  /// Rewinds all cursors; capacity (and therefore all retained float/int/
  /// double storage) is kept for the next identical-shape pass.
  void Reset();

  size_t nodes() const { return tensor_cursor_; }
  size_t bytes_retained() const { return bytes_retained_; }
  size_t growth_allocs() const { return growth_allocs_; }

  /// Process-wide bytes retained across all live arenas (for obs export).
  static size_t TotalBytesRetained();

  /// Counts a capacity change of an external buffer (op records, CSR refs)
  /// into this arena's growth stats. Internal to the tape machinery.
  void CountGrowth(size_t old_cap_bytes, size_t new_cap_bytes);

 private:
  static constexpr size_t kChunk = 128;  ///< tensors per chunk
  std::vector<std::unique_ptr<Tensor[]>> chunks_;
  size_t tensor_cursor_ = 0;
  std::vector<int> ints_;
  size_t int_cursor_ = 0;
  std::vector<double> doubles_;
  size_t double_cursor_ = 0;
  size_t bytes_retained_ = 0;
  size_t growth_allocs_ = 0;
};

/// Reverse-mode autograd tape. All tensors created through a tape are owned
/// by its arena; Backward() replays the op records in reverse creation
/// order (creation order is already a topological order). Reset() rewinds
/// the tape for re-use — after one warm-up pass over a given op sequence,
/// subsequent identical passes allocate nothing.
class Tape {
 public:
  /// One parameter's gradient in a GradSink.
  struct GradSlot {
    GradSlot(int rows, int cols) : grad(rows, cols) {}
    Matrix grad;
    /// True while every element of `grad` is known to be +0: set when the
    /// slot is inserted and when Adam::Step zeroes it, cleared by the first
    /// backward that writes it. Only then may a parameter op's backward
    /// accumulate into the slot directly; code that fills a slot by other
    /// means must clear it.
    bool zero = true;
  };
  /// Per-tape gradient buffer keyed by parameter (see set_grad_sink).
  using GradSink = std::unordered_map<Parameter*, GradSlot>;

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Creates a tensor from a value (no gradient tracking unless
  /// set_track_constants(true) was called on this tape). The value is
  /// copied into arena-retained storage.
  Tensor* Constant(const Matrix& value);

  /// When enabled, subsequent Constant() tensors are gradient-tracked and
  /// recorded in creation order (see tracked_constants()). Model inputs
  /// enter the tape as constants, so this is how input-saliency explanation
  /// gets d(margin)/d(features): models create the typed feature constants
  /// first, in ascending node-type order, before any auxiliary constants.
  void set_track_constants(bool on) { track_constants_ = on; }
  const std::vector<Tensor*>& tracked_constants() const {
    return tracked_constants_;
  }

  /// When enabled, parameters enter ops untracked: the parameter overloads
  /// of MatMul and Add record no parameter gradient, so Backward() computes
  /// none. Inference-only forwards set this to skip all gradient
  /// bookkeeping; combined with set_track_constants(true), Backward()
  /// computes input gradients only (the saliency screen's fast path).
  void set_freeze_leaves(bool on) { freeze_leaves_ = on; }
  bool freeze_leaves() const { return freeze_leaves_; }

  /// Allocates an intermediate tensor (value zero-filled; grad zero-filled
  /// when requires_grad).
  Tensor* New(int rows, int cols, bool requires_grad);

  /// Runs backward from `loss` (must be 1x1).
  void Backward(Tensor* loss);

  /// Redirects parameter-gradient accumulation from Parameter::grad into
  /// `sink[param]` (zero-initialized on first touch). The parallel trainer
  /// gives each per-graph tape a private sink and Adam::Step merges the
  /// sinks into the parameters per element, in sample order, so gradients
  /// are bit-identical for any thread count. Set before Backward().
  ///
  /// A parameter op's backward accumulates dW straight into a slot that is
  /// known to be zero (GradSlot::zero). Any other destination (a slot
  /// already written this pass or since the last Adam step, or
  /// Parameter::grad when there is no sink) receives dW through a zeroed
  /// scratch buffer and one AddInto.
  void set_grad_sink(GradSink* sink) { grad_sink_ = sink; }

  size_t size() const { return arena_.nodes(); }

  /// Rewinds the tape for re-use: node/record cursors to zero, per-pass
  /// state (sink pointer, modes, tracked constants, CSR refs) cleared,
  /// all storage capacity retained. Also publishes arena stats to obs.
  void Reset();

  struct Stats {
    size_t nodes = 0;           ///< tensors on the tape
    size_t records = 0;         ///< backward op records
    size_t bytes_retained = 0;  ///< arena bytes held across Reset()
    size_t growth_allocs = 0;   ///< cumulative arena growth events
  };
  Stats stats() const;

  // ---- Internal API for the op implementations -----------------------
  TapeArena* arena() { return &arena_; }
  void Record(const OpRecord& r);
  /// Keeps a CSR view alive for the lifetime of the pass (kSpMM borrows a
  /// raw pointer in its record).
  void RetainCsr(std::shared_ptr<const SparseMatrix::Csr> csr);
  /// Grows the parameter-gradient scratch to at least `n` floats at record
  /// time, so Backward() never allocates it.
  void ReserveParamScratch(size_t n);

 private:
  void RunBackward(const OpRecord& r);
  /// Returns the buffer a parameter op's backward accumulates dW into:
  /// the sink slot itself when it is known zero (`*merge_into` = nullptr),
  /// else the zeroed scratch, whose contents the caller then adds into
  /// `*merge_into`.
  Matrix* ParamGradTarget(Parameter* p, Matrix** merge_into);

  TapeArena arena_;
  std::vector<OpRecord> records_;
  std::vector<std::shared_ptr<const SparseMatrix::Csr>> csr_refs_;
  GradSink* grad_sink_ = nullptr;
  bool track_constants_ = false;
  bool freeze_leaves_ = false;
  std::vector<Tensor*> tracked_constants_;
  Matrix param_scratch_;  ///< see ParamGradTarget; capacity kept on Reset
  size_t growth_published_ = 0;  ///< growth_allocs already sent to obs
};

/// RAII lease of a thread-local pooled Tape: acquires a warm tape (or
/// creates one on first use), and Reset()s it back into the pool on scope
/// exit. Stack-ordered acquire/release makes nesting safe (e.g. the
/// explainer opening a tape while the detector's is live). This is how the
/// trainer, detector, session and explainer get zero-malloc tapes after
/// each worker thread's first pass. A pooled tape keeps the capacity of
/// the largest pass it ran until ReleasePooledTapes() frees it; every
/// thread's pool is registered, so that call reaches them all.
class ScopedTape {
 public:
  ScopedTape();
  ~ScopedTape();
  ScopedTape(const ScopedTape&) = delete;
  ScopedTape& operator=(const ScopedTape&) = delete;

  Tape* get() const { return tape_.get(); }
  Tape* operator->() const { return tape_.get(); }
  Tape& operator*() const { return *tape_; }

 private:
  std::unique_ptr<Tape> tape_;  ///< back to this thread's pool on exit
};

/// Frees every pooled tape no ScopedTape holds, in every thread's pool, and
/// publishes the new glint.tape.arena_bytes_retained. A held lease is left
/// alone and returns to its pool as usual. TrainOffline calls it so
/// training-sized tapes do not outlive training; the next lease on each
/// thread grows a fresh tape to what that thread runs.
void ReleasePooledTapes();

// ---- Ops (all append to the tape; gradients flow where inputs track) -----

/// C = A * B.
Tensor* MatMul(Tape* t, Tensor* a, Tensor* b);
/// C = A + B (same shape), or row-broadcast when B is 1 x cols.
Tensor* Add(Tape* t, Tensor* a, Tensor* b);
/// C = A * W for a parameter W, read in place (no copy onto the tape).
/// Backward accumulates dW into the tape's sink (see set_grad_sink), or
/// into W->grad without one; under set_freeze_leaves(true) it computes no
/// dW. C, dA and dW have the tensor overload's bits, except that dW
/// written straight into a known-zero sink slot may hold -0 where the
/// overload's would be +0 (erased by the Adam merge; see kMatMulParam).
Tensor* MatMul(Tape* t, Tensor* a, Parameter* w);
/// C = A + B for a parameter B (same shape, or row-broadcast when B is
/// 1 x cols), read in place; gradients as for MatMul(Tape*, Tensor*,
/// Parameter*).
Tensor* Add(Tape* t, Tensor* a, Parameter* b);
/// C = A - B (same shape).
Tensor* Sub(Tape* t, Tensor* a, Tensor* b);
/// Elementwise product (same shape).
Tensor* Mul(Tape* t, Tensor* a, Tensor* b);
/// C = s * A.
Tensor* Scale(Tape* t, Tensor* a, float s);
/// Elementwise ReLU.
Tensor* Relu(Tape* t, Tensor* a);
/// Elementwise sigmoid.
Tensor* Sigmoid(Tape* t, Tensor* a);
/// Column-wise concatenation [A | B] (same row count).
Tensor* ConcatCols(Tape* t, Tensor* a, Tensor* b);
/// Row-wise concatenation [A ; B] (same column count).
Tensor* ConcatRows(Tape* t, Tensor* a, Tensor* b);
/// Select a subset of rows (graph pooling): out[i] = a[idx[i]].
Tensor* GatherRows(Tape* t, Tensor* a, const std::vector<int>& idx);
/// Sparse-dense product: C = S * A (S untracked).
Tensor* SpMM(Tape* t, const SparseMatrix& s, Tensor* a);
/// Scale each row i of A by the scalar in column vector g (n x 1).
Tensor* RowScale(Tape* t, Tensor* a, Tensor* g);
/// Sum of all entries (1x1).
Tensor* SumAll(Tape* t, Tensor* a);
/// C = A^T.
Tensor* Transpose(Tape* t, Tensor* a);
/// Weighted softmax cross-entropy over logits (1 x k) with integer label;
/// returns 1x1 loss. `weight` scales the sample's loss (class weighting).
Tensor* SoftmaxCrossEntropy(Tape* t, Tensor* logits, int label, float weight);
/// Binary cross-entropy of a single logit (1x1) against label in {0,1}.
Tensor* BceWithLogit(Tape* t, Tensor* logit, int label, float weight);
/// Squared L2 distance between two 1 x d tensors (1x1).
Tensor* SquaredDistance(Tape* t, Tensor* a, Tensor* b);
/// Contrastive loss (Eq. 1) for a pair of 1 x d embeddings: same-label
/// pulls together, different-label pushes apart up to margin `eps`.
Tensor* ContrastiveLoss(Tape* t, Tensor* za, Tensor* zb, bool same_label,
                        float eps);
/// a + b where either may be nullptr (returns the other).
Tensor* AddLoss(Tape* t, Tensor* a, Tensor* b);

// ---- Segment ops (the per-graph reductions) -------------------------------
//
// Every model forward runs over a segment table: `offsets` is a B+1
// ascending table, segment b covers rows [offsets[b], offsets[b+1]) of `a`
// (one graph of a block-diagonal batch), and every segment is non-empty. A
// single graph is the one-segment table {0, n}. Each segment is reduced on
// its own rows only, in a fixed order that does not depend on the other
// segments, so a graph's result has the same bits whether it runs alone or
// inside any batch. The offsets (and SegmentMaxRows' argmax rows) are
// stashed in the tape's int pool for the backward pass.

/// B x cols per-segment mean over rows (mean readout).
Tensor* SegmentMeanRows(Tape* t, Tensor* a, std::span<const int> offsets);
/// B x cols per-segment max over rows (max readout; the first maximal row
/// of each column takes the gradient).
Tensor* SegmentMaxRows(Tape* t, Tensor* a, std::span<const int> offsets);
/// Independent row-wise softmax of a B x k tensor with exact Jacobian
/// backward (inter-metapath semantic attention); each row uses the exact
/// SoftmaxRowInto operation order.
Tensor* SoftmaxRows(Tape* t, Tensor* a);
/// Row i in segment b scaled by s(b, col), for a B x P per-segment weight
/// tensor `s`.
Tensor* SegmentScaleByCol(Tape* t, Tensor* a, Tensor* s, int col,
                          std::span<const int> offsets);

/// Softmax probabilities of a 1 x k logits row (forward only helper):
/// writes them into `p`, which must hold logits->value.data.size() doubles.
void SoftmaxRowInto(const Tensor* logits, double* p);

/// Row-pointer variant for one row of a batched logits matrix: softmax of
/// the k floats at `logits` into `p` with the same operation order as the
/// tensor overload (so per-row results are bit-identical).
void SoftmaxRowInto(const float* logits, int k, double* p);

/// Adam optimizer fused with the per-sample gradient reduction. One Step()
/// is a single pass over element tiles of the parameters, fanned out on the
/// global pool; each tile is one call of the kernel backend's AdamStep
/// (gnn/kernels.h), which for each element
///   1. adds the first `active` gradient sinks into grad, in sample order
///      (a sink holding no entry for the parameter is skipped),
///   2. applies the Adam update (frozen parameters keep their value),
///   3. zeroes the grad slot and the sinks' slots.
/// Each element's float operations run in that fixed order on one thread,
/// and every backend keeps that order, so the result is bit-identical for
/// any thread count and backend. The tile plan is built on the first step
/// over a parameter list and reused, so a steady step allocates nothing.
class Adam {
 public:
  struct Params {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };

  Adam() : Adam(Params()) {}
  explicit Adam(Params p) : params_(p) {}

  /// One optimizer step. Without sinks the update reads Parameter::grad
  /// alone; with them, sinks [0, active) are merged in first. Sink map
  /// nodes are zeroed, never erased, so they survive to the next step, and
  /// they are marked known-zero (GradSlot::zero) for the next backward.
  void Step(const std::vector<Parameter*>& parameters,
            std::vector<Tape::GradSink>* sinks = nullptr, size_t active = 0);

 private:
  /// A contiguous element range [lo, hi) of parameter `param`.
  struct Tile {
    size_t param;
    size_t lo, hi;
  };

  void Plan(const std::vector<Parameter*>& parameters);
  void StepTile(const Tile& tile) const;

  Params params_;
  long t_ = 0;
  std::vector<Parameter*> planned_;  ///< the list tiles_ was built for
  std::vector<Tile> tiles_;
  /// This step's sink data per (parameter, sample):
  /// slots_[param * active_ + sample], nullptr when absent.
  std::vector<float*> slots_;
  size_t active_ = 0;
  kernels::AdamHyper hyper_{};  ///< this step's hyper-parameters
};

}  // namespace glint::gnn
