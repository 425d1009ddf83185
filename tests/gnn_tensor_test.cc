#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "gnn/tensor.h"
#include "util/thread_pool.h"

namespace glint::gnn {
namespace {

Matrix RandMatrix(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (auto& v : m.data) v = static_cast<float>(rng.Gaussian(0, 1));
  return m;
}

// Compares `analytic[k]` against central finite differences of `loss_at()`
// in every entry of `values[k]`.
void CompareWithFiniteDifferences(const std::vector<Matrix*>& values,
                                  const std::vector<Matrix>& analytic,
                                  const std::function<double()>& loss_at,
                                  double tol) {
  const double eps = 1e-3;
  for (size_t k = 0; k < values.size(); ++k) {
    Matrix* v = values[k];
    for (size_t i = 0; i < v->data.size(); ++i) {
      const float orig = v->data[i];
      v->data[i] = orig + static_cast<float>(eps);
      const double up = loss_at();
      v->data[i] = orig - static_cast<float>(eps);
      const double down = loss_at();
      v->data[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      const double grad = analytic[k].data[i];
      EXPECT_NEAR(grad, numeric, tol + 0.05 * std::fabs(numeric))
          << "operand " << k << " entry " << i;
    }
  }
}

// Numerical gradient check of parameter gradients: `forward` maps parameter
// values to a scalar loss built on a fresh tape (parameters enter through
// the MatMul / Add parameter overloads). The autograd gradient, accumulated
// into Parameter::grad, is compared against central finite differences for
// every parameter entry.
void CheckGradients(
    std::vector<Parameter*> params,
    const std::function<Tensor*(Tape*)>& forward, double tol = 2e-2) {
  for (auto* p : params) p->ZeroGrad();
  {
    Tape tape;
    Tensor* loss = forward(&tape);
    tape.Backward(loss);
  }
  std::vector<Matrix*> values;
  std::vector<Matrix> analytic;
  for (auto* p : params) {
    values.push_back(&p->value);
    analytic.push_back(p->grad);
  }
  CompareWithFiniteDifferences(values, analytic, [&]() {
    Tape tape;
    return static_cast<double>(forward(&tape)->value.data[0]);
  }, tol);
}

// The same check for a generic op's input gradients: `forward` builds the
// loss from `inputs` entered as tracked constants (given in order), and the
// autograd gradient is read off those tensors.
void CheckInputGradients(
    std::vector<Matrix*> inputs,
    const std::function<Tensor*(Tape*, const std::vector<Tensor*>&)>& forward,
    double tol = 2e-2) {
  auto loss_on = [&](Tape* tape) {
    tape->set_track_constants(true);
    std::vector<Tensor*> xs;
    for (Matrix* m : inputs) xs.push_back(tape->Constant(*m));
    tape->set_track_constants(false);
    return forward(tape, xs);
  };
  std::vector<Matrix> analytic;
  {
    Tape tape;
    tape.Backward(loss_on(&tape));
    for (Tensor* x : tape.tracked_constants()) analytic.push_back(x->grad);
  }
  ASSERT_EQ(analytic.size(), inputs.size());
  CompareWithFiniteDifferences(inputs, analytic, [&]() {
    Tape tape;
    return static_cast<double>(loss_on(&tape)->value.data[0]);
  }, tol);
}

// ---------------------------------------------------------------------------
// Forward correctness
// ---------------------------------------------------------------------------

TEST(TensorOps, MatMulForward) {
  Tape t;
  Matrix a(2, 3);
  a.data = {1, 2, 3, 4, 5, 6};
  Matrix b(3, 2);
  b.data = {7, 8, 9, 10, 11, 12};
  Tensor* c = MatMul(&t, t.Constant(a), t.Constant(b));
  EXPECT_FLOAT_EQ(c->value.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c->value.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c->value.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c->value.At(1, 1), 154);
}

TEST(TensorOps, AddBroadcastsRow) {
  Tape t;
  Matrix a(2, 2);
  a.data = {1, 2, 3, 4};
  Matrix b(1, 2);
  b.data = {10, 20};
  Tensor* c = Add(&t, t.Constant(a), t.Constant(b));
  EXPECT_FLOAT_EQ(c->value.At(0, 0), 11);
  EXPECT_FLOAT_EQ(c->value.At(1, 1), 24);
}

TEST(TensorOps, ReluClamps) {
  Tape t;
  Matrix a(1, 3);
  a.data = {-1, 0, 2};
  Tensor* c = Relu(&t, t.Constant(a));
  EXPECT_FLOAT_EQ(c->value.At(0, 0), 0);
  EXPECT_FLOAT_EQ(c->value.At(0, 2), 2);
}

TEST(TensorOps, SigmoidRange) {
  Tape t;
  Matrix a(1, 2);
  a.data = {-100, 100};
  Tensor* c = Sigmoid(&t, t.Constant(a));
  EXPECT_NEAR(c->value.At(0, 0), 0, 1e-6);
  EXPECT_NEAR(c->value.At(0, 1), 1, 1e-6);
}

TEST(TensorOps, MeanMaxRows) {
  Tape t;
  Matrix a(2, 2);
  a.data = {1, 5, 3, 2};
  Tensor* mean = SegmentMeanRows(&t, t.Constant(a), std::vector<int>{0, 2});
  Tensor* mx = SegmentMaxRows(&t, t.Constant(a), std::vector<int>{0, 2});
  EXPECT_FLOAT_EQ(mean->value.At(0, 0), 2);
  EXPECT_FLOAT_EQ(mean->value.At(0, 1), 3.5);
  EXPECT_FLOAT_EQ(mx->value.At(0, 0), 3);
  EXPECT_FLOAT_EQ(mx->value.At(0, 1), 5);
}

TEST(TensorOps, ConcatShapes) {
  Tape t;
  Tensor* a = t.Constant(Matrix(2, 3, 1.f));
  Tensor* b = t.Constant(Matrix(2, 4, 2.f));
  Tensor* c = ConcatCols(&t, a, b);
  EXPECT_EQ(c->rows(), 2);
  EXPECT_EQ(c->cols(), 7);
  EXPECT_FLOAT_EQ(c->value.At(0, 0), 1.f);
  EXPECT_FLOAT_EQ(c->value.At(0, 6), 2.f);

  Tensor* d = ConcatRows(&t, t.Constant(Matrix(1, 3, 1.f)),
                         t.Constant(Matrix(2, 3, 2.f)));
  EXPECT_EQ(d->rows(), 3);
  EXPECT_FLOAT_EQ(d->value.At(2, 0), 2.f);
}

TEST(TensorOps, GatherRows) {
  Tape t;
  Matrix a(3, 2);
  a.data = {1, 2, 3, 4, 5, 6};
  Tensor* g = GatherRows(&t, t.Constant(a), {2, 0});
  EXPECT_FLOAT_EQ(g->value.At(0, 0), 5);
  EXPECT_FLOAT_EQ(g->value.At(1, 1), 2);
}

TEST(TensorOps, SpMMForward) {
  Tape t;
  SparseMatrix s;
  s.rows = 2;
  s.cols = 2;
  s.entries = {{0, 1, 2.f}, {1, 0, 3.f}};
  Matrix a(2, 1);
  a.data = {5, 7};
  Tensor* c = SpMM(&t, s, t.Constant(a));
  EXPECT_FLOAT_EQ(c->value.At(0, 0), 14);
  EXPECT_FLOAT_EQ(c->value.At(1, 0), 15);
}

TEST(TensorOps, SoftmaxRowSumsToOne) {
  Tape t;
  Matrix a(1, 4);
  a.data = {1, 2, 3, 4};
  double p[4];
  SoftmaxRowInto(t.Constant(a), p);
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(p[3], p[0]);
}

TEST(TensorOps, CrossEntropyOfConfidentCorrectIsSmall) {
  Tape t;
  Matrix logits(1, 2);
  logits.data = {-10, 10};
  Tensor* loss =
      SoftmaxCrossEntropy(&t, t.Constant(logits), /*label=*/1, 1.f);
  EXPECT_LT(loss->value.data[0], 1e-4);
}

TEST(TensorOps, BceWithLogitKnownValue) {
  Tape t;
  Matrix z(1, 1);
  z.data = {0};
  Tensor* loss = BceWithLogit(&t, t.Constant(z), 1, 1.f);
  EXPECT_NEAR(loss->value.data[0], std::log(2.0), 1e-6);
}

TEST(TensorOps, ContrastiveSamePullsTogether) {
  Tape t;
  Matrix a(1, 2), b(1, 2);
  a.data = {1, 0};
  b.data = {0, 1};
  Tensor* same = ContrastiveLoss(&t, t.Constant(a), t.Constant(b), true, 2.f);
  EXPECT_NEAR(same->value.data[0], 2.0, 1e-6);  // squared distance
}

TEST(TensorOps, ContrastiveDifferentUsesMargin) {
  Tape t;
  Matrix a(1, 1), b(1, 1);
  a.data = {0};
  b.data = {1};  // distance 1, margin 3 -> (3-1)^2 = 4
  Tensor* diff =
      ContrastiveLoss(&t, t.Constant(a), t.Constant(b), false, 3.f);
  EXPECT_NEAR(diff->value.data[0], 4.0, 1e-5);
  // Beyond the margin the loss vanishes.
  Matrix c(1, 1);
  c.data = {10};
  Tensor* far = ContrastiveLoss(&t, t.Constant(a), t.Constant(c), false, 3.f);
  EXPECT_NEAR(far->value.data[0], 0.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Gradient checks (numerical)
// ---------------------------------------------------------------------------

TEST(GradCheck, MatMulChain) {
  Parameter w(RandMatrix(3, 2, 1));
  Matrix x = RandMatrix(2, 3, 2);
  CheckGradients({&w}, [&](Tape* t) {
    return SumAll(t, MatMul(t, t->Constant(x), &w));
  });
}

TEST(GradCheck, AddBroadcastBias) {
  Parameter b(RandMatrix(1, 3, 3));
  Matrix x = RandMatrix(4, 3, 4);
  CheckGradients({&b}, [&](Tape* t) {
    return SumAll(t, Add(t, t->Constant(x), &b));
  });
}

TEST(GradCheck, ReluSigmoidChain) {
  Parameter w(RandMatrix(3, 3, 5));
  Matrix x = RandMatrix(2, 3, 6);
  CheckGradients({&w}, [&](Tape* t) {
    Tensor* h = MatMul(t, t->Constant(x), &w);
    return SumAll(t, Sigmoid(t, Relu(t, h)));
  });
}

TEST(GradCheck, MulAndScale) {
  Matrix a = RandMatrix(2, 2, 7);
  Matrix b = RandMatrix(2, 2, 8);
  CheckInputGradients({&a, &b}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return SumAll(t, Scale(t, Mul(t, x[0], x[1]), 0.5f));
  });
}

TEST(GradCheck, ConcatAndReadouts) {
  Parameter w(RandMatrix(3, 4, 9));
  Matrix x = RandMatrix(3, 3, 10);
  CheckGradients({&w}, [&](Tape* t) {
    Tensor* h = MatMul(t, t->Constant(x), &w);
    Tensor* ro = ConcatCols(t, SegmentMeanRows(t, h, std::vector<int>{0, 3}),
                            SegmentMaxRows(t, h, std::vector<int>{0, 3}));
    return SumAll(t, ro);
  });
}

TEST(GradCheck, GatherAndRowScale) {
  Matrix w = RandMatrix(2, 3, 11);
  Matrix gate = RandMatrix(2, 1, 12);
  CheckInputGradients({&w, &gate},
                      [&](Tape* t, const std::vector<Tensor*>& x) {
                        Tensor* scaled = RowScale(t, x[0], Sigmoid(t, x[1]));
                        return SumAll(t, GatherRows(t, scaled, {1, 0, 1}));
                      });
}

TEST(GradCheck, SpMMGraphConv) {
  SparseMatrix adj;
  adj.rows = 3;
  adj.cols = 3;
  adj.entries = {{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 1, 1.f}, {2, 0, 0.7f},
                 {2, 2, 0.3f}};
  Parameter w(RandMatrix(2, 2, 13));
  Matrix x = RandMatrix(3, 2, 14);
  CheckGradients({&w}, [&](Tape* t) {
    Tensor* h = MatMul(t, t->Constant(x), &w);
    return SumAll(t, Relu(t, SpMM(t, adj, h)));
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Parameter w(RandMatrix(4, 2, 15));
  Matrix x = RandMatrix(1, 4, 16);
  CheckGradients({&w}, [&](Tape* t) {
    Tensor* logits = MatMul(t, t->Constant(x), &w);
    return SoftmaxCrossEntropy(t, logits, 1, 1.3f);
  });
}

TEST(GradCheck, BceWithLogit) {
  Parameter w(RandMatrix(3, 1, 17));
  Matrix x = RandMatrix(1, 3, 18);
  CheckGradients({&w}, [&](Tape* t) {
    Tensor* z = MatMul(t, t->Constant(x), &w);
    return BceWithLogit(t, z, 0, 0.7f);
  });
}

TEST(GradCheck, ContrastiveBothBranches) {
  Matrix wa = RandMatrix(1, 4, 19);
  Matrix wb = RandMatrix(1, 4, 20);
  CheckInputGradients({&wa, &wb}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return ContrastiveLoss(t, x[0], x[1], true, 2.f);
  });
  CheckInputGradients({&wa, &wb}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return ContrastiveLoss(t, x[0], x[1], false, 5.f);
  });
}

TEST(GradCheck, SoftmaxRowOpAttention) {
  Matrix scores = RandMatrix(1, 3, 21);
  Matrix h0 = RandMatrix(2, 2, 22);
  Matrix h1 = RandMatrix(2, 2, 23);
  Matrix h2 = RandMatrix(2, 2, 24);
  const std::vector<int> whole = {0, 2};
  CheckInputGradients({&scores}, [&](Tape* t, const std::vector<Tensor*>& x) {
    Tensor* beta = SoftmaxRows(t, x[0]);
    Tensor* out = SegmentScaleByCol(t, t->Constant(h0), beta, 0, whole);
    out = Add(t, out, SegmentScaleByCol(t, t->Constant(h1), beta, 1, whole));
    out = Add(t, out, SegmentScaleByCol(t, t->Constant(h2), beta, 2, whole));
    return SumAll(t, out);
  });
}

// The segment ops over several uneven segments, one of them a single row:
// the batched-training shape. Each loss weights the op's output by a fixed
// random matrix, so every output entry carries a distinct gradient.
const std::vector<int> kUnevenSegments = {0, 1, 4, 6};

Tensor* WeightedSum(Tape* t, Tensor* a, uint64_t seed) {
  return SumAll(t, Mul(t, a, t->Constant(RandMatrix(a->rows(), a->cols(),
                                                    seed))));
}

TEST(GradCheck, SegmentMeanRowsUneven) {
  Matrix a = RandMatrix(6, 3, 30);
  CheckInputGradients({&a}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return WeightedSum(t, SegmentMeanRows(t, x[0], kUnevenSegments), 31);
  });
}

TEST(GradCheck, SegmentMaxRowsUneven) {
  Matrix a = RandMatrix(6, 3, 32);
  CheckInputGradients({&a}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return WeightedSum(t, SegmentMaxRows(t, x[0], kUnevenSegments), 33);
  });
}

TEST(GradCheck, SoftmaxRowsSeveralRows) {
  Matrix a = RandMatrix(3, 4, 34);
  CheckInputGradients({&a}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return WeightedSum(t, SoftmaxRows(t, x[0]), 35);
  });
}

TEST(GradCheck, SegmentScaleByColUneven) {
  Matrix a = RandMatrix(6, 3, 36);
  Matrix s = RandMatrix(3, 2, 37);
  CheckInputGradients({&a, &s}, [&](Tape* t, const std::vector<Tensor*>& x) {
    Tensor* out = Add(t, SegmentScaleByCol(t, x[0], x[1], 0, kUnevenSegments),
                      SegmentScaleByCol(t, x[0], x[1], 1, kUnevenSegments));
    return WeightedSum(t, out, 38);
  });
}

// Semantic attention's op chain over three graphs at once: per-segment
// summaries, per-row softmax weights, per-segment scaling.
TEST(GradCheck, SegmentAttentionChain) {
  Matrix p0 = RandMatrix(6, 3, 39);
  Matrix p1 = RandMatrix(6, 3, 40);
  Matrix q = RandMatrix(3, 1, 41);
  CheckInputGradients(
      {&p0, &p1, &q}, [&](Tape* t, const std::vector<Tensor*>& x) {
        Tensor* scores = ConcatCols(
            t, MatMul(t, SegmentMeanRows(t, x[0], kUnevenSegments), x[2]),
            MatMul(t, SegmentMeanRows(t, x[1], kUnevenSegments), x[2]));
        Tensor* beta = SoftmaxRows(t, scores);  // 3 x 2
        Tensor* out =
            Add(t, SegmentScaleByCol(t, x[0], beta, 0, kUnevenSegments),
                SegmentScaleByCol(t, x[1], beta, 1, kUnevenSegments));
        return WeightedSum(t, out, 42);
      });
}

TEST(GradCheck, ConcatRowsPath) {
  Matrix a = RandMatrix(2, 3, 25);
  Matrix b = RandMatrix(1, 3, 26);
  CheckInputGradients({&a, &b}, [&](Tape* t, const std::vector<Tensor*>& x) {
    return SumAll(t, ConcatRows(t, x[0], x[1]));
  });
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  Parameter w(Matrix(1, 1, 0.f));
  Adam adam({0.1, 0.9, 0.999, 1e-8, 0});
  for (int i = 0; i < 300; ++i) {
    w.grad.data[0] = 2 * (w.value.data[0] - 3.f);
    adam.Step({&w});
  }
  EXPECT_NEAR(w.value.data[0], 3.0, 0.05);
}

TEST(AdamTest, SkipsFrozenParameters) {
  Parameter w(Matrix(1, 1, 1.f));
  w.frozen = true;
  Adam adam;
  w.grad.data[0] = 100.f;
  adam.Step({&w});
  EXPECT_FLOAT_EQ(w.value.data[0], 1.f);
  EXPECT_FLOAT_EQ(w.grad.data[0], 0.f);  // gradient still cleared
}

// Fused step oracle: Adam::Step(params, sinks, active) against the serial
// merge-then-Adam reference below (sinks added into grad in sample order,
// then the element-wise update, then grads and sinks zeroed), bit for bit.

struct StepState {
  std::vector<std::unique_ptr<Parameter>> owned;
  std::vector<Parameter*> params;
  std::vector<Tape::GradSink> sinks = std::vector<Tape::GradSink>(8);
};

// Several tiles per parameter for the large shapes; parameter 3 is frozen.
StepState MakeStepState() {
  StepState st;
  const int shapes[][2] = {{50, 70}, {1, 5}, {33, 65}, {10, 10}, {2048, 1}};
  uint64_t seed = 40;
  for (const auto& sh : shapes) {
    st.owned.push_back(
        std::make_unique<Parameter>(RandMatrix(sh[0], sh[1], seed++)));
    st.params.push_back(st.owned.back().get());
  }
  st.params[3]->frozen = true;
  return st;
}

// Fresh random grads and sink contents (inactive sinks included). Each odd
// sink never holds an entry for parameter (s % 5), as when a sample's graph
// never reaches that parameter.
void FillGradients(StepState* st, uint64_t seed) {
  Rng rng(seed);
  for (Parameter* p : st->params) {
    for (auto& x : p->grad.data) x = static_cast<float>(rng.Gaussian(0, 1));
  }
  for (size_t s = 0; s < st->sinks.size(); ++s) {
    for (size_t k = 0; k < st->params.size(); ++k) {
      if (s % 2 == 1 && k == s % st->params.size()) continue;
      Parameter* p = st->params[k];
      Tape::GradSlot& slot = st->sinks[s]
                                 .try_emplace(p, p->value.rows, p->value.cols)
                                 .first->second;
      for (auto& x : slot.grad.data) {
        x = static_cast<float>(rng.Gaussian(0, 1));
      }
      slot.zero = false;
    }
  }
}

void ReferenceStep(const Adam::Params& hp, long t, const StepState& st,
                   std::vector<Tape::GradSink>* sinks, size_t active) {
  for (size_t s = 0; s < active; ++s) {
    auto& sink = (*sinks)[s];
    for (Parameter* p : st.params) {
      auto it = sink.find(p);
      if (it == sink.end()) continue;
      for (size_t i = 0; i < p->grad.data.size(); ++i) {
        p->grad.data[i] += it->second.grad.data[i];
      }
    }
    for (auto& [p, slot] : sink) {
      std::fill(slot.grad.data.begin(), slot.grad.data.end(), 0.f);
      slot.zero = true;
    }
  }
  const double bc1 = 1.0 - std::pow(hp.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(hp.beta2, static_cast<double>(t));
  for (Parameter* p : st.params) {
    if (!p->frozen) {
      for (size_t i = 0; i < p->value.data.size(); ++i) {
        const double g = p->grad.data[i] + hp.weight_decay * p->value.data[i];
        p->m.data[i] = static_cast<float>(hp.beta1 * p->m.data[i] +
                                          (1 - hp.beta1) * g);
        p->v.data[i] = static_cast<float>(hp.beta2 * p->v.data[i] +
                                          (1 - hp.beta2) * g * g);
        p->value.data[i] -= static_cast<float>(
            hp.lr * (p->m.data[i] / bc1) /
            (std::sqrt(p->v.data[i] / bc2) + hp.eps));
      }
    }
    p->ZeroGrad();
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(float)) == 0;
}

TEST(AdamTest, FusedStepMatchesSerialMergeThenAdam) {
  const Adam::Params hp{2e-3, 0.9, 0.999, 1e-8, 1e-5};
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    StepState ref = MakeStepState();
    StepState fused = MakeStepState();
    Adam adam(hp);
    for (long step = 1; step <= 6; ++step) {
      // The last step is a short final batch: sinks [3, 8) stay untouched.
      const size_t active = step == 6 ? 3 : 8;
      FillGradients(&ref, 100 + static_cast<uint64_t>(step));
      FillGradients(&fused, 100 + static_cast<uint64_t>(step));
      ReferenceStep(hp, step, ref, &ref.sinks, active);
      adam.Step(fused.params, &fused.sinks, active);
      for (size_t k = 0; k < ref.params.size(); ++k) {
        const Parameter& r = *ref.params[k];
        const Parameter& f = *fused.params[k];
        EXPECT_TRUE(SameBits(r.value, f.value))
            << "threads " << threads << " step " << step << " param " << k;
        EXPECT_TRUE(SameBits(r.m, f.m)) << "param " << k;
        EXPECT_TRUE(SameBits(r.v, f.v)) << "param " << k;
        EXPECT_TRUE(SameBits(r.grad, f.grad)) << "param " << k;
        for (size_t s = 0; s < ref.sinks.size(); ++s) {
          auto rit = ref.sinks[s].find(ref.params[k]);
          auto fit = fused.sinks[s].find(fused.params[k]);
          ASSERT_EQ(rit == ref.sinks[s].end(), fit == fused.sinks[s].end());
          if (rit == ref.sinks[s].end()) continue;
          EXPECT_TRUE(SameBits(rit->second.grad, fit->second.grad))
              << "sink " << s << " param " << k;
          EXPECT_EQ(rit->second.zero, fit->second.zero)
              << "sink " << s << " param " << k;
        }
      }
    }
    // The frozen parameter never moved; its grad was still cleared.
    EXPECT_TRUE(SameBits(fused.params[3]->value,
                         MakeStepState().params[3]->value));
    for (float x : fused.params[3]->grad.data) EXPECT_EQ(x, 0.f);
    for (float x : fused.params[3]->m.data) EXPECT_EQ(x, 0.f);
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ConfiguredThreads());
}

// ReleasePooledTapes frees the idle tapes of every thread's pool, and
// leaves a tape some ScopedTape still holds to its holder until it is
// returned.
TEST(TapeTest, ReleasePooledTapesFreesEveryIdleTape) {
  const Matrix x = RandMatrix(32, 32, 7);
  const auto forward = [&x](Tape* tape) {
    Tensor* a = tape->Constant(x);
    return SumAll(tape, Relu(tape, MatMul(tape, a, a)));
  };
  ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ScopedTape lease;
      forward(lease.get());
    }
  });
  EXPECT_GT(TapeArena::TotalBytesRetained(), 0u);
  ReleasePooledTapes();
  EXPECT_EQ(TapeArena::TotalBytesRetained(), 0u);

  {
    ScopedTape held;
    forward(held.get());
    const size_t held_bytes = held->stats().bytes_retained;
    ASSERT_GT(held_bytes, 0u);
    ReleasePooledTapes();
    EXPECT_EQ(TapeArena::TotalBytesRetained(), held_bytes);
    EXPECT_EQ(forward(held.get())->value.rows, 1);
  }
  EXPECT_GT(TapeArena::TotalBytesRetained(), 0u);  // back in its pool
  ReleasePooledTapes();
  EXPECT_EQ(TapeArena::TotalBytesRetained(), 0u);
}

TEST(TapeTest, ParameterOpsAccumulateIntoParameter) {
  Parameter w(Matrix(1, 2, 1.f));
  w.grad.data = {0.5f, -2.f};  // accumulated onto, not overwritten
  Tape tape;
  Matrix ones(1, 1, 1.f);
  Tensor* loss = SumAll(&tape, Add(&tape, tape.Constant(Matrix(1, 2)), &w));
  loss = AddLoss(&tape, loss, SumAll(&tape, MatMul(&tape, tape.Constant(ones),
                                                   &w)));
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(w.grad.data[0], 2.5f);
  EXPECT_FLOAT_EQ(w.grad.data[1], 0.f);
}

// The sink rule of the parameter overloads: the first write of a known-zero
// slot goes straight in, every later one (a second use in the same pass, a
// second pass without an Adam step) is added through scratch, and
// Adam::Step hands the slot back zeroed and known-zero.
TEST(TapeTest, GradSinkTakesRepeatedUsesAndReuse) {
  Parameter w(RandMatrix(3, 4, 30));
  const Matrix x1 = RandMatrix(2, 3, 31);
  const Matrix x2 = RandMatrix(5, 3, 32);
  auto pass = [&](Tape* t, bool use1, bool use2) {
    Tensor* loss = nullptr;
    if (use1) {
      loss = SumAll(t, Relu(t, MatMul(t, t->Constant(x1), &w)));
    }
    if (use2) {
      loss = AddLoss(t, loss,
                     SumAll(t, Sigmoid(t, MatMul(t, t->Constant(x2), &w))));
    }
    t->Backward(loss);
  };
  // Without a sink every use lands in Parameter::grad.
  auto grad_of = [&](bool use1, bool use2) {
    w.ZeroGrad();
    Tape tape;
    pass(&tape, use1, use2);
    Matrix g = w.grad;
    w.ZeroGrad();
    return g;
  };
  const Matrix want = grad_of(true, true);
  const Matrix g1 = grad_of(true, false);
  const Matrix g2 = grad_of(false, true);

  Tape::GradSink sink;
  {
    Tape tape;
    tape.set_grad_sink(&sink);
    pass(&tape, true, true);
  }
  ASSERT_EQ(sink.size(), 1u);
  Tape::GradSlot& slot = sink.begin()->second;
  EXPECT_FALSE(slot.zero);
  EXPECT_TRUE(SameBits(slot.grad, want));
  for (float g : w.grad.data) EXPECT_EQ(g, 0.f);

  {
    Tape tape;  // reused sink, no optimizer step in between
    tape.set_grad_sink(&sink);
    pass(&tape, true, true);
  }
  // Backward runs the later use first: each use's dW is added on in turn.
  Matrix twice = want;
  for (size_t i = 0; i < twice.data.size(); ++i) {
    twice.data[i] += g2.data[i];
    twice.data[i] += g1.data[i];
  }
  EXPECT_TRUE(SameBits(slot.grad, twice));

  std::vector<Tape::GradSink> sinks;
  sinks.push_back(std::move(sink));
  Adam adam;
  adam.Step({&w}, &sinks, 1);
  const Tape::GradSlot& stepped = sinks[0].begin()->second;
  EXPECT_TRUE(stepped.zero);
  for (float g : stepped.grad.data) EXPECT_EQ(g, 0.f);
}

TEST(TapeTest, ConstantsHaveNoGradient) {
  Tape tape;
  Tensor* c = tape.Constant(Matrix(2, 2, 1.f));
  EXPECT_FALSE(c->requires_grad);
  Tensor* d = Relu(&tape, c);
  EXPECT_FALSE(d->requires_grad);
}

}  // namespace
}  // namespace glint::gnn
