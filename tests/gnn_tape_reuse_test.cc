// Proves the arena-backed reusable tape is bit-identical to a fresh tape
// in every mode the system uses (supervised, contrastive, freeze-leaves,
// tracked-constants), and that a second identical forward/backward on a
// Reset() tape performs no heap allocation at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "gnn/models.h"
#include "gnn/tensor.h"
#include "gnn/trainer.h"
#include "graph/builder.h"
#include "nlp/embedding.h"
#include "rules/corpus.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Global allocation counters: every operator new in this binary bumps
// them, so a measured region's deltas are its exact heap-allocation count
// and requested bytes.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_allocs{0};
std::atomic<size_t> g_bytes{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// Nothrow forms too (libstdc++ temporary buffers use them): with every
// variant funneled through malloc/free, ASan sees matched pairs.
__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
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
// Over-aligned forms too (Matrix storage allocates through them), on
// posix_memalign so they pair with free like the rest.
__attribute__((noinline)) void* operator new(
    std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(a), sizeof(void*));
  return posix_memalign(&p, align, n ? n : 1) == 0 ? p : nullptr;
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t a) {
  if (void* p = ::operator new(n, a, std::nothrow)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n,
                                               std::align_val_t a) {
  return ::operator new(n, a);
}
__attribute__((noinline)) void* operator new[](
    std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return ::operator new(n, a, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(
    void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace glint::gnn {
namespace {

// Bitwise float-vector equality: stricter than ==, catches -0.0 vs +0.0
// and distinguishes NaN payloads.
bool SameBits(const Matrix::Storage& a, const Matrix::Storage& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class TapeReuseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Embedding models are only needed while building the dataset; scoped
    // so the ASan stage sees no leaks.
    auto wm = std::make_unique<nlp::EmbeddingModel>(300, 17);
    auto sm = std::make_unique<nlp::EmbeddingModel>(512, 18);
    rules::CorpusConfig cc;
    cc.ifttt = 120;
    cc.smartthings = 20;
    cc.alexa = 30;
    cc.google_assistant = 20;
    cc.home_assistant = 20;
    auto corpus = rules::CorpusGenerator(cc).Generate();
    graph::GraphBuilder::Config bc;
    bc.max_nodes = 12;
    bc.seed = 1234;
    graph::GraphBuilder builder(bc, wm.get(), sm.get());
    graphs_ = new std::vector<GnnGraph>(
        ToGnnGraphs(builder.BuildDataset(corpus, 10)));
  }

  static void TearDownTestSuite() {
    delete graphs_;
    graphs_ = nullptr;
  }

  // One supervised step: forward, weighted cross-entropy, backward into the
  // sink. Returns the loss value.
  static float SupervisedStep(Tape* t, GraphModel* model, const GnnGraph& g,
                              Tape::GradSink* sink) {
    t->set_grad_sink(sink);
    ForwardResult r = model->Forward(t, g);
    Tensor* loss = SoftmaxCrossEntropy(t, r.logits, g.label, 1.25f);
    t->Backward(loss);
    return loss->value.data[0];
  }

  // One contrastive step over a pair of graphs.
  static float ContrastiveStep(Tape* t, GraphModel* model, const GnnGraph& a,
                               const GnnGraph& b, bool same,
                               Tape::GradSink* sink) {
    t->set_grad_sink(sink);
    Tensor* za = model->Forward(t, a).embedding;
    Tensor* zb = model->Forward(t, b).embedding;
    Tensor* loss = ContrastiveLoss(t, za, zb, same, 5.0f);
    t->Backward(loss);
    return loss->value.data[0];
  }

  // Snapshot of a grad sink in parameter-registration order.
  static std::vector<Matrix::Storage> SinkBits(
      const std::vector<Parameter*>& params, const Tape::GradSink& sink) {
    std::vector<Matrix::Storage> out;
    for (Parameter* p : params) {
      auto it = sink.find(p);
      out.push_back(it == sink.end() ? Matrix::Storage{}
                                     : it->second.grad.data);
    }
    return out;
  }

  static std::vector<GnnGraph>* graphs_;
};

std::vector<GnnGraph>* TapeReuseTest::graphs_ = nullptr;

TEST_F(TapeReuseTest, SupervisedReusedTapeMatchesFreshBitwise) {
  ItgnnModel::Config mc;
  mc.seed = 21;
  ItgnnModel fresh_model(mc), reused_model(mc);
  auto fresh_params = fresh_model.Parameters();
  auto reused_params = reused_model.Parameters();

  Tape reused;
  for (const auto& g : *graphs_) {
    Tape::GradSink fresh_sink, reused_sink;
    Tape tape;  // fresh tape per sample: the old allocation pattern
    const float fresh_loss = SupervisedStep(&tape, &fresh_model, g,
                                            &fresh_sink);
    const float reused_loss = SupervisedStep(&reused, &reused_model, g,
                                             &reused_sink);
    reused.Reset();

    EXPECT_EQ(0, std::memcmp(&fresh_loss, &reused_loss, sizeof(float)));
    const auto fresh_bits = SinkBits(fresh_params, fresh_sink);
    const auto reused_bits = SinkBits(reused_params, reused_sink);
    ASSERT_EQ(fresh_bits.size(), reused_bits.size());
    for (size_t i = 0; i < fresh_bits.size(); ++i) {
      EXPECT_TRUE(SameBits(fresh_bits[i], reused_bits[i])) << "param " << i;
    }
  }
}

TEST_F(TapeReuseTest, ContrastiveReusedTapeMatchesFreshBitwise) {
  ItgnnModel::Config mc;
  mc.seed = 22;
  ItgnnModel fresh_model(mc), reused_model(mc);
  auto fresh_params = fresh_model.Parameters();
  auto reused_params = reused_model.Parameters();

  Tape reused;
  const auto& gs = *graphs_;
  for (size_t i = 0; i + 1 < gs.size(); i += 2) {
    const bool same = (i / 2) % 2 == 0;
    Tape::GradSink fresh_sink, reused_sink;
    Tape tape;
    const float fresh_loss = ContrastiveStep(&tape, &fresh_model, gs[i],
                                             gs[i + 1], same, &fresh_sink);
    const float reused_loss = ContrastiveStep(&reused, &reused_model, gs[i],
                                              gs[i + 1], same, &reused_sink);
    reused.Reset();

    EXPECT_EQ(0, std::memcmp(&fresh_loss, &reused_loss, sizeof(float)));
    const auto fresh_bits = SinkBits(fresh_params, fresh_sink);
    const auto reused_bits = SinkBits(reused_params, reused_sink);
    ASSERT_EQ(fresh_bits.size(), reused_bits.size());
    for (size_t i2 = 0; i2 < fresh_bits.size(); ++i2) {
      EXPECT_TRUE(SameBits(fresh_bits[i2], reused_bits[i2]))
          << "param " << i2;
    }
  }
}

TEST_F(TapeReuseTest, FreezeLeavesReusedTapeMatchesFreshBitwise) {
  ItgnnModel::Config mc;
  mc.seed = 23;
  ItgnnModel model(mc);

  Tape reused;
  for (const auto& g : *graphs_) {
    Tape tape;
    tape.set_freeze_leaves(true);
    ForwardResult fresh = model.Forward(&tape, g);

    reused.set_freeze_leaves(true);
    ForwardResult warm = model.Forward(&reused, g);

    EXPECT_TRUE(SameBits(fresh.logits->value.data, warm.logits->value.data));
    EXPECT_TRUE(
        SameBits(fresh.embedding->value.data, warm.embedding->value.data));
    reused.Reset();
  }
}

TEST_F(TapeReuseTest, TrackedConstantsReusedTapeMatchesFreshBitwise) {
  // The explainer's gradient screen: freeze leaves, track input constants,
  // backward from the class margin, read d(margin)/d(features).
  ItgnnModel::Config mc;
  mc.seed = 24;
  ItgnnModel model(mc);

  auto screen = [&](Tape* t,
                    const GnnGraph& g) -> std::vector<Matrix::Storage> {
    t->set_freeze_leaves(true);
    t->set_track_constants(true);
    ForwardResult r = model.Forward(t, g);
    t->set_track_constants(false);
    Matrix dir(2, 1);
    dir.At(0, 0) = -1.f;
    dir.At(1, 0) = 1.f;
    Tensor* margin = MatMul(t, r.logits, t->Constant(dir));
    t->Backward(margin);
    std::vector<Matrix::Storage> grads;
    for (const Tensor* x : t->tracked_constants()) {
      grads.push_back(x->grad.data);
    }
    return grads;
  };

  Tape reused;
  for (const auto& g : *graphs_) {
    Tape tape;
    const auto fresh = screen(&tape, g);
    const auto warm = screen(&reused, g);
    reused.Reset();

    ASSERT_FALSE(fresh.empty());
    ASSERT_EQ(fresh.size(), warm.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_TRUE(SameBits(fresh[i], warm[i])) << "input " << i;
    }
  }
}

TEST_F(TapeReuseTest, SecondIdenticalPassAllocatesNothing) {
  // Serial pool so ParallelFor runs inline: any allocation counted below
  // comes from the tape machinery itself, not task dispatch.
  ThreadPool::SetGlobalThreads(1);
  GcnModel model(300, 16, 2, 31);
  const GnnGraph* homo = nullptr;
  for (const auto& g : *graphs_) {
    if (!g.IsHeterogeneous() && g.type_rows[0].size() > 1) homo = &g;
  }
  ASSERT_NE(homo, nullptr);
  homo->adj_norm.CsrView();  // build the CSR cache outside the measurement
  homo->TypeMetaView();

  Tape tape;
  Tape::GradSink sink;
  SupervisedStep(&tape, &model, *homo, &sink);  // warm-up pass
  const Tape::Stats warm_stats = tape.stats();
  EXPECT_GT(warm_stats.nodes, 0u);
  EXPECT_GT(warm_stats.bytes_retained, 0u);
  tape.Reset();
  EXPECT_EQ(tape.stats().nodes, 0u);

  const size_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  SupervisedStep(&tape, &model, *homo, &sink);  // identical warm pass
  const size_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  const Tape::Stats warm2 = tape.stats();
  tape.Reset();

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "warm forward/backward must not touch the heap";
  EXPECT_EQ(warm2.growth_allocs, warm_stats.growth_allocs)
      << "arena capacity must not grow on an identical replay";
  EXPECT_EQ(warm2.nodes, warm_stats.nodes);
}

TEST_F(TapeReuseTest, SupervisedTrainingCopiesNoGraph) {
  // One TrainSupervised epoch over 2N graphs against one over N. GCN's
  // forward/backward allocates nothing on a warm tape, and N fills more
  // than one 8-sample batch, so both runs fill every grad sink: what grows
  // with the sample count is the oversampled index list. A copied training
  // set would allocate the extra N graphs again, typed features included.
  ThreadPool::SetGlobalThreads(1);  // one tape: warm-up covers every graph
  std::vector<GnnGraph> homo;  // GCN reads single-type 300-d graphs only
  for (const auto& g : *graphs_) {
    if (!g.IsHeterogeneous() && g.type_rows[1].empty()) homo.push_back(g);
  }
  ASSERT_FALSE(homo.empty());
  std::vector<GnnGraph> once;
  while (once.size() < 10) once.insert(once.end(), homo.begin(), homo.end());
  std::vector<GnnGraph> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  size_t extra_feature_bytes = 0;
  for (const auto& g : once) {
    for (const auto& m : g.typed_features) {
      extra_feature_bytes += m.data.size() * sizeof(float);
    }
  }

  TrainConfig tc;
  tc.epochs = 1;
  const auto epoch_bytes = [&](const std::vector<GnnGraph>& train) {
    GcnModel model(300, 16, 2, 31);
    const size_t before = g_bytes.load(std::memory_order_relaxed);
    Trainer(tc).TrainSupervised(&model, train);
    return g_bytes.load(std::memory_order_relaxed) - before;
  };
  epoch_bytes(twice);  // warm-up: tape arena and graph caches
  const size_t n_bytes = epoch_bytes(once);
  const size_t two_n_bytes = epoch_bytes(twice);
  EXPECT_LT(two_n_bytes, n_bytes + extra_feature_bytes)
      << "N graphs: " << n_bytes << " B, 2N graphs: " << two_n_bytes
      << " B, extra N graphs' typed features: " << extra_feature_bytes
      << " B";
}

TEST_F(TapeReuseTest, ScopedTapeReusesThreadLocalTape) {
  const Tape* first = nullptr;
  {
    ScopedTape lease;
    first = lease.get();
    lease->Constant(Matrix(2, 2));
    EXPECT_EQ(lease->size(), 1u);
  }
  {
    ScopedTape lease;
    // Same thread: the pooled tape comes back, already Reset.
    EXPECT_EQ(lease.get(), first);
    EXPECT_EQ(lease->size(), 0u);
    // Nesting acquires a distinct tape; release order is stack-ordered.
    ScopedTape nested;
    EXPECT_NE(nested.get(), lease.get());
  }
}

}  // namespace
}  // namespace glint::gnn
