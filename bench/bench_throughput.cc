// Throughput bench for the parallel compute layer: graphs/sec for dataset
// build, ITGNN train-epoch, and inference at 1, 2, and hardware-concurrency
// threads, plus per-backend tables of the dense MatMulRows kernel and its
// two gradient kernels (MatMulGradA, MatMulGradB) on the ITGNN layer
// shapes. Emits one machine-readable JSON line (prefix
// BENCH_JSON) with the per-thread-count rates, speedups and kernel timings
// so the numbers can be tracked across commits.
//
// Usage: bench_throughput [--smoke]
//   --smoke  tiny sizes and a {1, current} thread sweep; used by
//            tools/check.sh under GLINT_THREADS=2.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gnn/ggraph.h"
#include "gnn/kernels.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Global allocation counter (bench-binary-wide): lets the bench report the
// steady-state mallocs per training step / warm inference after the tape
// arena has absorbed the hot-path allocations.
namespace {
std::atomic<size_t> g_allocs{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// Nothrow forms too (libstdc++ temporary buffers use them): with every
// variant funneled through malloc/free, sanitizers see matched pairs.
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void operator delete(
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace glint::bench {
namespace {

/// Steady-state allocation stats for the tape hot paths, measured at one
/// thread so ParallelFor runs inline and counted allocations are the work
/// itself, not task dispatch.
struct TapeStats {
  double train_mallocs_per_step = 0;
  double infer_mallocs_per_graph = 0;
  size_t tape_nodes_per_step = 0;
  size_t arena_bytes_retained = 0;
};

TapeStats MeasureTapeStats(const std::vector<gnn::GnnGraph>& graphs) {
  ThreadPool::SetGlobalThreads(1);
  TapeStats out;

  gnn::ItgnnModel::Config mc;
  mc.seed = 7;
  gnn::ItgnnModel model(mc);
  size_t minority = 0;
  for (const auto& g : graphs) minority += static_cast<size_t>(g.label);

  // Same-call-shape difference: allocs(3 epochs) - allocs(1 epoch) is two
  // epochs of steady-state work — per-call setup (Adam state, sinks,
  // oversampled index list) cancels, and the first call doubles as the tape
  // warm-up. The residual is data-dependent graph work (VIPool coarsening
  // rebuilds pooled adjacencies whose structure depends on learned
  // scores); the tape itself allocates nothing (see gnn_tape_reuse_test).
  auto train_allocs = [&](int epochs) {
    gnn::TrainConfig tc;
    tc.epochs = epochs;
    const size_t before = g_allocs.load(std::memory_order_relaxed);
    gnn::Trainer(tc).TrainSupervised(&model, graphs);
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  const size_t one_epoch = train_allocs(1);
  const size_t three_epochs = train_allocs(3);
  const double trained_per_epoch =
      static_cast<double>(graphs.size()) +
      (gnn::TrainConfig().oversample_factor - 1.0) *
          static_cast<double>(minority);
  out.train_mallocs_per_step =
      static_cast<double>(three_epochs - one_epoch) /
      (2.0 * trained_per_epoch);

  // Warm single-graph inference (the serving classification path).
  const gnn::GnnGraph& g0 = graphs.front();
  gnn::Trainer::Predict(&model, g0);
  gnn::Trainer::Predict(&model, g0);  // warm
  const int reps = 20;
  const size_t before = g_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < reps; ++r) gnn::Trainer::Predict(&model, g0);
  out.infer_mallocs_per_graph =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      reps;

  {
    gnn::ScopedTape lease;
    lease->set_freeze_leaves(true);
    model.Forward(lease.get(), g0);
    out.tape_nodes_per_step = lease->stats().nodes;
  }
  out.arena_bytes_retained = gnn::TapeArena::TotalBytesRetained();
  return out;
}

struct Rates {
  double build_gps = 0;   // graphs built per second
  double train_gps = 0;   // graphs trained per second (one epoch)
  double infer_gps = 0;   // graphs classified per second
};

Rates MeasureAt(int threads, const std::vector<rules::Rule>& pool,
                int num_graphs, int epochs) {
  ThreadPool::SetGlobalThreads(threads);
  Rates rates;

  auto t0 = std::chrono::steady_clock::now();
  graph::GraphDataset ds = BuildGraphs(pool, num_graphs, /*seed=*/77);
  rates.build_gps = num_graphs / Seconds(t0);

  std::vector<gnn::GnnGraph> graphs = gnn::ToGnnGraphs(ds);

  gnn::ItgnnModel::Config mc;
  mc.seed = 7;
  gnn::ItgnnModel model(mc);
  gnn::TrainConfig tc;
  tc.epochs = epochs;
  gnn::Trainer trainer(tc);
  t0 = std::chrono::steady_clock::now();
  trainer.TrainSupervised(&model, graphs);
  // TrainSupervised oversamples class 1 by tc.oversample_factor; report
  // per-epoch throughput over the actual trained set size.
  size_t minority = 0;
  for (const auto& g : graphs) minority += static_cast<size_t>(g.label);
  const double trained_per_epoch =
      static_cast<double>(graphs.size()) +
      (tc.oversample_factor - 1.0) * static_cast<double>(minority);
  rates.train_gps = trained_per_epoch * epochs / Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    gnn::Trainer::Evaluate(&model, graphs);
  }
  rates.infer_gps = static_cast<double>(graphs.size()) * reps / Seconds(t0);
  return rates;
}

// ---- Kernel-backend / batched-inference section ------------------------

const int kBatchSizes[] = {1, 8, 64, 256};

/// Warm per-graph classification, exactly the serving shape: one pooled
/// tape lease, one Forward, one row softmax per graph.
double MeasureSequentialInfer(gnn::ItgnnModel* model,
                              const std::vector<const gnn::GnnGraph*>& cycle,
                              int total) {
  double sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < total; ++i) {
    gnn::ScopedTape tape;
    tape->set_freeze_leaves(true);
    auto r = model->Forward(tape.get(), *cycle[static_cast<size_t>(i) %
                                               cycle.size()]);
    double p[2];
    gnn::SoftmaxRowInto(r.logits, p);
    sink += p[1];
  }
  const double gps = total / Seconds(t0);
  return sink == -1 ? 0 : gps;  // keep the verdicts observable
}

/// Batched classification as the InspectAll sweep drives it: batch assembly
/// (MakeGnnBatch) is *inside* the timed region, then one ForwardBatched and
/// a per-row softmax.
double MeasureBatchedInfer(gnn::ItgnnModel* model,
                           const std::vector<const gnn::GnnGraph*>& cycle,
                           int batch, int total) {
  double sink = 0;
  size_t cursor = 0;
  int done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < total) {
    std::vector<const gnn::GnnGraph*> members;
    members.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch && done + i < total; ++i) {
      members.push_back(cycle[cursor++ % cycle.size()]);
    }
    const gnn::GnnBatch b = gnn::MakeGnnBatch(members);
    gnn::ScopedTape tape;
    tape->set_freeze_leaves(true);
    auto r = model->ForwardBatched(tape.get(), b);
    for (int row = 0; row < b.size(); ++row) {
      double p[2];
      gnn::SoftmaxRowInto(
          r.logits->value.data.data() + static_cast<size_t>(row) * 2, 2, p);
      sink += p[1];
    }
    done += b.size();
  }
  const double gps = done / Seconds(t0);
  return sink == -1 ? 0 : gps;
}

/// Work issued per graph by one inference path, at one thread: tape nodes
/// (one per op run) and ParallelFor calls (one per MatMul, each a potential
/// pool fan-out). Both are exact counts, independent of host speed.
struct DispatchCounts {
  double nodes = 0;
  double parallel_fors = 0;
};

uint64_t ParallelForCalls() {
  return obs::Registry::Global()
      .GetCounter("glint.threadpool.parallel_for_calls")
      ->Value();
}

/// Per-graph counts over the first `batch` graphs of `cycle`: one
/// sequential Forward each, or (`batched`) one ForwardBatched of them all.
DispatchCounts CountDispatch(gnn::ItgnnModel* model,
                             const std::vector<const gnn::GnnGraph*>& cycle,
                             int batch, bool batched) {
  std::vector<const gnn::GnnGraph*> members;
  for (int i = 0; i < batch; ++i) {
    members.push_back(cycle[static_cast<size_t>(i) % cycle.size()]);
  }
  DispatchCounts c;
  const uint64_t calls_before = ParallelForCalls();
  if (batched) {
    const gnn::GnnBatch b = gnn::MakeGnnBatch(members);
    gnn::ScopedTape tape;
    tape->set_freeze_leaves(true);
    model->ForwardBatched(tape.get(), b);
    c.nodes = static_cast<double>(tape->stats().nodes);
  } else {
    for (const gnn::GnnGraph* g : members) {
      gnn::ScopedTape tape;
      tape->set_freeze_leaves(true);
      model->Forward(tape.get(), *g);
      c.nodes += static_cast<double>(tape->stats().nodes);
    }
  }
  c.parallel_fors = static_cast<double>(ParallelForCalls() - calls_before);
  c.nodes /= batch;
  c.parallel_fors /= batch;
  return c;
}

struct BackendRates {
  std::string name;
  double infer_gps = 0;
  std::vector<double> batched_infer_gps;  ///< at kBatchSizes
};

/// Sweeps every runtime-available kernel backend at one thread (pure
/// dispatch/tape amortization, no ParallelFor effects). Returns rates in
/// AvailableBackends() order (scalar first), and the batch-64 and
/// sequential dispatch counts in `seq` / `b64`.
std::vector<BackendRates> MeasureBackends(
    const std::vector<gnn::GnnGraph>& graphs, int total, DispatchCounts* seq,
    DispatchCounts* b64) {
  ThreadPool::SetGlobalThreads(1);
  gnn::ItgnnModel::Config mc;
  mc.seed = 7;
  gnn::ItgnnModel model(mc);
  std::vector<const gnn::GnnGraph*> cycle;
  for (const auto& g : graphs) {
    if (g.num_nodes > 0) cycle.push_back(&g);
  }
  *seq = CountDispatch(&model, cycle, kBatchSizes[2], /*batched=*/false);
  *b64 = CountDispatch(&model, cycle, kBatchSizes[2], /*batched=*/true);

  std::vector<BackendRates> out;
  for (gnn::kernels::Backend b : gnn::kernels::AvailableBackends()) {
    gnn::kernels::SetBackend(b);
    BackendRates r;
    r.name = gnn::kernels::BackendName();
    // Untimed warm-up: fault the tape arenas / caches in before timing.
    MeasureSequentialInfer(&model, cycle, std::min(total, 8));
    r.infer_gps = MeasureSequentialInfer(&model, cycle, total);
    for (int batch : kBatchSizes) {
      r.batched_infer_gps.push_back(
          MeasureBatchedInfer(&model, cycle, batch, total));
    }
    out.push_back(std::move(r));
  }
  gnn::kernels::SetBackend(gnn::kernels::AvailableBackends().back());
  return out;
}

// ---- MatMulRows kernel table ---------------------------------------------

/// The (k, m) of every Linear in a default ItgnnModel (hidden 64, embed 128,
/// 3 scales), plus its m = 1 and m = 2 heads.
struct MatMulShape {
  const char* layer;
  int k, m;
};
const MatMulShape kMatMulShapes[] = {
    {"proj_word", 300, 64},  {"proj_sentence", 512, 64},
    {"intra", 192, 64},      {"hidden", 64, 64},
    {"fuse", 384, 128},      {"head", 128, 2},
    {"pool_score", 128, 1},  {"pool_logit", 64, 1},
};
/// A serve-sized graph, and a batch-64 block-diagonal product.
const int kMatMulRows[] = {4, 384};

/// Microseconds per call of `call` on one thread: the fastest of 5 timed
/// blocks of `reps` calls, each sized to about 4M multiply-adds.
template <typename Call>
double MeasureKernelUs(int64_t flops, const Call& call) {
  const int reps = static_cast<int>(
      std::max<int64_t>(3, (int64_t{4} << 20) / std::max<int64_t>(1, flops)));
  call();  // warm
  double best = 1e300;
  for (int block = 0; block < 5; ++block) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) call();
    best = std::min(best, Seconds(t0) * 1e6 / reps);
  }
  return best;
}

/// Per backend: µs per call of the forward product and of its two gradient
/// kernels, each indexed [row count][shape].
struct MatMulTable {
  std::string backend;
  std::vector<std::vector<double>> us, grad_a_us, grad_b_us;
};

/// Times the three MatMul kernels of one (n, k, m) product. A is half
/// zeros, as after a ReLU, which is what MatMulGradB's skip sees in
/// training.
void MeasureMatMulShape(const gnn::kernels::KernelBackend& kb, int n, int k,
                        int m, MatMulTable* t) {
  Rng rng(static_cast<uint64_t>(n * 1000003 + k * 1009 + m));
  auto fill = [&rng](size_t size) {
    std::vector<float> v(size);
    for (auto& x : v) x = static_cast<float>(rng.Uniform() - 0.5);
    return v;
  };
  std::vector<float> a = fill(static_cast<size_t>(n) * k);
  const std::vector<float> b = fill(static_cast<size_t>(k) * m);
  const std::vector<float> gc = fill(static_cast<size_t>(n) * m);
  for (auto& x : a) x = std::max(x, 0.f);
  std::vector<float> c(static_cast<size_t>(n) * m);
  std::vector<float> ga(a.size()), gb(b.size());
  const int64_t flops = static_cast<int64_t>(n) * k * m;
  t->us.back().push_back(MeasureKernelUs(flops, [&] {
    kb.MatMulRows(c.data(), a.data(), b.data(), n, k, m);
  }));
  t->grad_a_us.back().push_back(MeasureKernelUs(flops, [&] {
    kb.MatMulGradA(ga.data(), gc.data(), b.data(), n, k, m);
  }));
  t->grad_b_us.back().push_back(MeasureKernelUs(flops, [&] {
    kb.MatMulGradB(gb.data(), a.data(), gc.data(), n, k, m, 0, k);
  }));
}

std::vector<MatMulTable> MeasureMatMulTable() {
  std::vector<MatMulTable> out;
  for (gnn::kernels::Backend b : gnn::kernels::AvailableBackends()) {
    gnn::kernels::SetBackend(b);
    MatMulTable t;
    t.backend = gnn::kernels::BackendName();
    for (int n : kMatMulRows) {
      t.us.emplace_back();
      t.grad_a_us.emplace_back();
      t.grad_b_us.emplace_back();
      for (const MatMulShape& s : kMatMulShapes) {
        MeasureMatMulShape(gnn::kernels::Kernels(), n, s.k, s.m, &t);
      }
    }
    out.push_back(std::move(t));
  }
  gnn::kernels::SetBackend(gnn::kernels::AvailableBackends().back());
  return out;
}

/// One kernel's table: a row per (backend, row count), a column per shape.
void PrintMatMulTable(const char* title,
                      const std::vector<MatMulTable>& tables,
                      std::vector<std::vector<double>> MatMulTable::* us) {
  std::printf("\n%s\n", title);
  std::printf("%8s %6s", "backend", "n");
  for (const MatMulShape& s : kMatMulShapes) {
    char head[32];
    std::snprintf(head, sizeof head, "%dx%d", s.k, s.m);
    std::printf(" %9s", head);
  }
  std::printf("\n");
  for (const MatMulTable& t : tables) {
    const auto& rows = t.*us;
    for (size_t r = 0; r < rows.size(); ++r) {
      std::printf("%8s %6d", t.backend.c_str(), kMatMulRows[r]);
      for (double v : rows[r]) std::printf(" %9.2f", v);
      std::printf("\n");
    }
  }
}

int Run(bool smoke) {
  const int num_graphs = smoke ? 32 : 160;
  const int epochs = smoke ? 1 : 2;

  rules::CorpusConfig cc;
  cc.ifttt = smoke ? 400 : 1000;
  cc.alexa = smoke ? 80 : 200;
  cc.google_assistant = smoke ? 80 : 200;
  cc.home_assistant = smoke ? 80 : 200;
  cc.smartthings = smoke ? 40 : 100;
  std::vector<rules::Rule> pool = rules::CorpusGenerator(cc).Generate();

  const int initial = ThreadPool::Global().threads();
  std::vector<int> sweep = {1};
  if (smoke) {
    if (initial > 1) sweep.push_back(initial);
  } else {
    if (initial >= 2) sweep.push_back(2);
    if (ThreadPool::ConfiguredThreads() > 2) {
      sweep.push_back(ThreadPool::ConfiguredThreads());
    }
  }

  // Untimed warm-up: the first dataset build fills the shared embedding
  // word-vector caches; without this the later sweep entries look faster
  // for cache reasons, not thread-count reasons.
  (void)BuildGraphs(pool, num_graphs, /*seed=*/77);

  Banner("Throughput: build / train-epoch / inference vs. thread count",
         "Sec. 6.6 efficiency claims");
  std::printf("%8s %14s %14s %14s\n", "threads", "build g/s", "train g/s",
              "infer g/s");
  std::vector<Rates> results;
  for (int t : sweep) {
    results.push_back(MeasureAt(t, pool, num_graphs, epochs));
    const Rates& r = results.back();
    std::printf("%8d %14.1f %14.1f %14.1f\n", t, r.build_gps, r.train_gps,
                r.infer_gps);
  }
  // Tape memory stats on the same corpus (threads reset inside).
  const TapeStats tape = MeasureTapeStats(
      gnn::ToGnnGraphs(BuildGraphs(pool, num_graphs, /*seed=*/77)));

  // Kernel-backend sweep: warm per-graph inference vs block-diagonal
  // batched inference on every runtime-available backend, single-threaded.
  const int batched_total = smoke ? 256 : 512;
  DispatchCounts seq_counts, b64_counts;
  const std::vector<BackendRates> backends = MeasureBackends(
      gnn::ToGnnGraphs(BuildGraphs(pool, num_graphs, /*seed=*/77)),
      batched_total, &seq_counts, &b64_counts);
  ThreadPool::SetGlobalThreads(initial);
  std::printf("\nkernel backends (1 thread): sequential vs batched infer g/s\n");
  std::printf("%8s %14s", "backend", "seq g/s");
  for (int b : kBatchSizes) std::printf("      batch=%-3d", b);
  std::printf("\n");
  for (const auto& r : backends) {
    std::printf("%8s %14.1f", r.name.c_str(), r.infer_gps);
    for (double g : r.batched_infer_gps) std::printf(" %14.1f", g);
    std::printf("\n");
  }
  // Dispatch-amortization gate, on counts: a batch of 64 graphs must issue
  // at most a quarter of the tape ops and ParallelFor calls per graph that
  // 64 sequential forwards do (ForwardBatched runs each op once per batch,
  // so the ratio sits near 1/64 plus the per-segment ops). A regression
  // here means the batched path stopped amortizing tape/dispatch overhead.
  // The wall-time ratio is printed but not gated: with no per-forward
  // parameter copy left to amortize, batching no longer beats sequential
  // scalar inference by a margin a noisy host resolves. ParallelFor calls
  // are read from telemetry, so under GLINT_OBS=off only the tape-op count
  // is gated.
  const double node_ratio = b64_counts.nodes / seq_counts.nodes;
  const bool calls_counted = obs::Enabled();
  const double call_ratio =
      calls_counted ? b64_counts.parallel_fors / seq_counts.parallel_fors : 0;
  constexpr double kMaxDispatchRatio = 0.25;
  const bool amortization_ok =
      node_ratio <= kMaxDispatchRatio && call_ratio <= kMaxDispatchRatio;
  std::printf(
      "per graph, sequential vs batch=64: %.1f vs %.1f tape ops (%.3fx), ",
      seq_counts.nodes, b64_counts.nodes, node_ratio);
  if (calls_counted) {
    std::printf("%.1f vs %.1f ParallelFor calls (%.3fx)",
                seq_counts.parallel_fors, b64_counts.parallel_fors,
                call_ratio);
  } else {
    std::printf("ParallelFor calls not counted (GLINT_OBS=off)");
  }
  std::printf(" (%s, gate <= %.2fx)\n", amortization_ok ? "ok" : "REGRESSION",
              kMaxDispatchRatio);
  const BackendRates& scalar = backends.front();
  const double scalar_b64 = scalar.batched_infer_gps[2];  // kBatchSizes[2]
  std::printf("scalar batch=64 speedup over sequential: %.2fx (not gated)\n",
              scalar_b64 / scalar.infer_gps);
  std::printf(
      "steady state: %.2f mallocs/train-step, %.2f mallocs/warm-infer, "
      "%zu tape nodes/step, %zu arena bytes retained\n",
      tape.train_mallocs_per_step, tape.infer_mallocs_per_graph,
      tape.tape_nodes_per_step, tape.arena_bytes_retained);

  const std::vector<MatMulTable> matmul = MeasureMatMulTable();
  PrintMatMulTable("MatMulRows kernel (1 thread): us per call, C[n x m] = "
                   "A[n x k] * B[k x m]",
                   matmul, &MatMulTable::us);
  PrintMatMulTable("MatMulGradA kernel (1 thread): us per call, dA[n x k] += "
                   "dC[n x m] * B^T",
                   matmul, &MatMulTable::grad_a_us);
  PrintMatMulTable("MatMulGradB kernel (1 thread): us per call, dB[k x m] += "
                   "A^T * dC[n x m], A half zeros",
                   matmul, &MatMulTable::grad_b_us);

  // Machine-readable trajectory line.
  auto column = [&results](double Rates::* field) {
    std::vector<double> xs;
    for (const auto& r : results) xs.push_back(r.*field);
    return xs;
  };
  JsonWriter json;
  json.Str("bench", "throughput");
  json.Ints("threads", sweep);
  json.Nums("build_gps", column(&Rates::build_gps));
  json.Nums("train_gps", column(&Rates::train_gps));
  json.Nums("infer_gps", column(&Rates::infer_gps));
  json.Num("train_speedup", results.back().train_gps / results.front().train_gps,
           2);
  json.Num("infer_speedup", results.back().infer_gps / results.front().infer_gps,
           2);
  json.Num("mallocs_per_step", tape.train_mallocs_per_step, 2);
  json.Num("infer_mallocs_per_graph", tape.infer_mallocs_per_graph, 2);
  json.Num("tape_nodes_per_step",
           static_cast<double>(tape.tape_nodes_per_step), 0);
  json.Num("arena_bytes_retained",
           static_cast<double>(tape.arena_bytes_retained), 0);
  {
    std::string names = "[";
    for (size_t i = 0; i < backends.size(); ++i) {
      names += (i ? ",\"" : "\"") + backends[i].name + "\"";
    }
    json.Raw("kernel_backends", names + "]");
  }
  json.Ints("batch_sizes",
            std::vector<int>(kBatchSizes, kBatchSizes + 4));
  for (const auto& r : backends) {
    json.Num("infer_gps_" + r.name, r.infer_gps, 1);
    json.Nums("batched_infer_gps_" + r.name, r.batched_infer_gps);
  }
  {
    std::string layers = "[";
    for (const MatMulShape& sh : kMatMulShapes) {
      layers += std::string(layers.size() > 1 ? ",\"" : "\"") + sh.layer +
                ":" + std::to_string(sh.k) + "x" + std::to_string(sh.m) + "\"";
    }
    json.Raw("matmul_shapes", layers + "]");
  }
  json.Ints("matmul_rows", std::vector<int>(std::begin(kMatMulRows),
                                            std::end(kMatMulRows)));
  for (const MatMulTable& t : matmul) {
    for (size_t r = 0; r < t.us.size(); ++r) {
      const std::string key =
          t.backend + "_n" + std::to_string(kMatMulRows[r]);
      json.Nums("matmul_us_" + key, t.us[r], 2);
      json.Nums("matmul_grad_a_us_" + key, t.grad_a_us[r], 2);
      json.Nums("matmul_grad_b_us_" + key, t.grad_b_us[r], 2);
    }
  }
  json.Num("batched_speedup_scalar_b64", scalar_b64 / scalar.infer_gps, 2);
  json.Num("seq_tape_ops_per_graph", seq_counts.nodes, 1);
  json.Num("b64_tape_ops_per_graph", b64_counts.nodes, 2);
  json.Num("seq_parallel_fors_per_graph", seq_counts.parallel_fors, 1);
  json.Num("b64_parallel_fors_per_graph", b64_counts.parallel_fors, 2);
  json.Bool("batched_amortization_ok", amortization_ok);
  std::printf("BENCH_JSON %s\n", json.Render().c_str());
  return amortization_ok ? 0 : 1;
}

}  // namespace
}  // namespace glint::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return glint::bench::Run(smoke);
}
