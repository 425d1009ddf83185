#include "gnn/trainer.h"

#include <algorithm>
#include <cstdio>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace glint::gnn {

void SplitGraphs(const std::vector<GnnGraph>& all, double train_frac,
                 Rng* rng, std::vector<GnnGraph>* train,
                 std::vector<GnnGraph>* test) {
  std::vector<size_t> idx(all.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng->Shuffle(&idx);
  const size_t n_train =
      static_cast<size_t>(train_frac * static_cast<double>(all.size()));
  train->clear();
  test->clear();
  for (size_t i = 0; i < idx.size(); ++i) {
    (i < n_train ? train : test)->push_back(all[idx[i]]);
  }
}

std::vector<size_t> OversampleIndices(const std::vector<GnnGraph>& train,
                                      double factor, Rng* rng) {
  std::vector<size_t> out(train.size());
  std::vector<size_t> minority;
  for (size_t i = 0; i < train.size(); ++i) {
    out[i] = i;
    if (train[i].label == 1) minority.push_back(i);
  }
  if (minority.empty()) return out;
  const size_t extra = static_cast<size_t>(
      (factor - 1.0) * static_cast<double>(minority.size()));
  for (size_t k = 0; k < extra; ++k) {
    out.push_back(minority[rng->Below(minority.size())]);
  }
  return out;
}

void Trainer::TrainSupervised(GraphModel* model,
                              const std::vector<GnnGraph>& train) {
  Rng rng(config_.seed);
  // The oversampled training set as indices into `train`, so no graph is
  // copied; each epoch shuffles the list in place.
  std::vector<size_t> order =
      OversampleIndices(train, config_.oversample_factor, &rng);

  // Class weights inversely proportional to frequency (Eq. 2's w_y).
  double n1 = 0;
  for (size_t i : order) n1 += train[i].label;
  const double n = static_cast<double>(order.size());
  float w[2] = {static_cast<float>(n / (2.0 * std::max(1.0, n - n1))),
                static_cast<float>(n / (2.0 * std::max(1.0, n1)))};

  Adam adam({config_.lr, 0.9, 0.999, 1e-8, config_.weight_decay});
  auto params = model->Parameters();

  const int kBatch = 8;  // gradient accumulation window
  std::vector<Tape::GradSink> sinks(kBatch);
  std::vector<double> losses(kBatch, 0.0);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double total_loss = 0;
    // Graphs within a batch are independent: each gets its own tape and a
    // private gradient sink, so the batch runs in parallel; the Adam step
    // then merges the sinks per element in sample order, so the result
    // matches the serial run bit for bit.
    for (size_t start = 0; start < order.size(); start += kBatch) {
      const size_t stop = std::min(order.size(), start + kBatch);
      ParallelFor(
          static_cast<int64_t>(start), static_cast<int64_t>(stop), 1,
          [&](int64_t lo, int64_t hi) {
            for (int64_t oi = lo; oi < hi; ++oi) {
              const GnnGraph& g = train[order[static_cast<size_t>(oi)]];
              ScopedTape lease;  // worker-local tape, reused across samples
              Tape& tape = *lease;
              tape.set_grad_sink(&sinks[static_cast<size_t>(oi) - start]);
              ForwardResult r = model->Forward(&tape, g);
              Tensor* loss = SoftmaxCrossEntropy(&tape, r.logits, g.label,
                                                 w[g.label]);
              // β·L_pool: per-scale BCE logits against the label (Eq. 2).
              if (!r.pool_logits.empty() && config_.beta_pool > 0) {
                Tensor* pool_loss = nullptr;
                for (Tensor* logit : r.pool_logits) {
                  pool_loss =
                      AddLoss(&tape, pool_loss,
                              BceWithLogit(&tape, logit, g.label, 1.0f));
                }
                loss = AddLoss(
                    &tape, loss,
                    Scale(&tape, pool_loss,
                          static_cast<float>(config_.beta_pool /
                                             static_cast<double>(
                                                 r.pool_logits.size()))));
              }
              Tensor* aux = model->AuxLoss(&tape, g, r);
              if (aux != nullptr) {
                loss = AddLoss(&tape, loss, Scale(&tape, aux, 0.5f));
              }
              losses[static_cast<size_t>(oi) - start] = loss->value.data[0];
              tape.Backward(loss);
            }
          });
      for (size_t i = 0; i < stop - start; ++i) total_loss += losses[i];
      adam.Step(params, &sinks, stop - start);
    }
    if (config_.verbose) {
      std::fprintf(stderr, "[%s] epoch %d loss %.4f\n",
                   model->Name().c_str(), epoch,
                   total_loss / n);
    }
  }
}

void Trainer::TrainContrastive(GraphModel* model,
                               const std::vector<GnnGraph>& train) {
  Rng rng(config_.seed ^ 0xc0ffee);
  Adam adam({config_.lr, 0.9, 0.999, 1e-8, config_.weight_decay});
  auto params = model->Parameters();

  // Index by class for balanced pair sampling.
  std::vector<size_t> by_class[2];
  for (size_t i = 0; i < train.size(); ++i) {
    by_class[train[i].label].push_back(i);
  }
  if (by_class[0].empty() || by_class[1].empty()) return;

  const size_t pairs_per_epoch = std::max<size_t>(
      8, static_cast<size_t>(config_.pairs_per_sample *
                             static_cast<double>(train.size())));
  const int kBatch = 8;
  struct Pair {
    size_t ia, ib;
    bool same;
  };
  std::vector<Pair> batch;
  std::vector<Tape::GradSink> sinks(kBatch);
  std::vector<double> losses(kBatch, 0.0);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double total_loss = 0;
    for (size_t start = 0; start < pairs_per_epoch; start += kBatch) {
      const size_t stop = std::min(pairs_per_epoch, start + kBatch);
      // Pair sampling stays on the caller thread (single RNG stream);
      // embedding + backward of the sampled pairs fans out across the pool
      // with per-pair gradient sinks.
      batch.clear();
      for (size_t k = start; k < stop; ++k) {
        // 50% same-class pairs, 50% cross-class pairs.
        Pair p;
        if (rng.Chance(0.5)) {
          const auto& cls = by_class[rng.Chance(0.5) ? 1 : 0];
          p.ia = cls[rng.Below(cls.size())];
          p.ib = cls[rng.Below(cls.size())];
          p.same = true;
        } else {
          p.ia = by_class[0][rng.Below(by_class[0].size())];
          p.ib = by_class[1][rng.Below(by_class[1].size())];
          p.same = false;
        }
        batch.push_back(p);
      }
      ParallelFor(0, static_cast<int64_t>(batch.size()), 1,
                  [&](int64_t lo, int64_t hi) {
                    for (int64_t k = lo; k < hi; ++k) {
                      const Pair& p = batch[static_cast<size_t>(k)];
                      ScopedTape lease;  // reused across pairs and epochs
                      Tape& tape = *lease;
                      tape.set_grad_sink(&sinks[static_cast<size_t>(k)]);
                      Tensor* za =
                          model->Forward(&tape, train[p.ia]).embedding;
                      Tensor* zb =
                          model->Forward(&tape, train[p.ib]).embedding;
                      Tensor* loss = ContrastiveLoss(
                          &tape, za, zb, p.same,
                          static_cast<float>(config_.contrastive_margin));
                      losses[static_cast<size_t>(k)] = loss->value.data[0];
                      tape.Backward(loss);
                    }
                  });
      for (size_t k = 0; k < batch.size(); ++k) total_loss += losses[k];
      adam.Step(params, &sinks, batch.size());
    }
    if (config_.verbose) {
      std::fprintf(stderr, "[%s-C] epoch %d loss %.4f\n",
                   model->Name().c_str(), epoch,
                   total_loss / static_cast<double>(pairs_per_epoch));
    }
  }
}

int Trainer::Predict(GraphModel* model, const GnnGraph& g) {
  ScopedTape tape;  // worker-local tape, reused across calls
  tape->set_freeze_leaves(true);  // inference only: skip grad bookkeeping
  ForwardResult r = model->Forward(tape.get(), g);
  double p[2];
  SoftmaxRowInto(r.logits, p);
  return p[1] > p[0] ? 1 : 0;
}

ml::Metrics Trainer::Evaluate(GraphModel* model,
                              const std::vector<GnnGraph>& test) {
  // Per-graph inference is independent; each slot is written by exactly one
  // thread, so the metrics are identical for any thread count.
  std::vector<int> y_true(test.size()), y_pred(test.size());
  ParallelFor(0, static_cast<int64_t>(test.size()), 1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  const auto& g = test[static_cast<size_t>(i)];
                  y_true[static_cast<size_t>(i)] = g.label;
                  y_pred[static_cast<size_t>(i)] = Predict(model, g);
                }
              });
  return ml::WeightedMetrics(y_true, y_pred, 2);
}

FloatVec Trainer::Embed(GraphModel* model, const GnnGraph& g) {
  GLINT_OBS_TIMER(timer, "glint.gnn.embed_ms");
  ScopedTape tape;  // worker-local tape, reused across calls
  tape->set_freeze_leaves(true);  // inference only: skip grad bookkeeping
  ForwardResult r = model->Forward(tape.get(), g);
  return FloatVec(r.embedding->value.data.begin(),
                  r.embedding->value.data.end());
}

std::vector<FloatVec> Trainer::EmbedAll(GraphModel* model,
                                        const std::vector<GnnGraph>& set) {
  std::vector<FloatVec> out(set.size());
  ParallelFor(0, static_cast<int64_t>(set.size()), 1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  out[static_cast<size_t>(i)] =
                      Embed(model, set[static_cast<size_t>(i)]);
                }
              });
  return out;
}

}  // namespace glint::gnn
