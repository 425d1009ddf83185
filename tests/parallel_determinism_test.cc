// Serial-vs-parallel determinism contract: corpus generation, dataset
// construction, training, evaluation, and embedding must produce
// bit-identical results at 1 thread and at N threads (DESIGN.md,
// "Concurrency model"). One golden case also pins the trained numerics to
// recorded values, which no thread or backend comparison can do.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/serving.h"
#include "core/session.h"
#include "gnn/ggraph.h"
#include "gnn/models.h"
#include "gnn/tensor.h"
#include "gnn/trainer.h"
#include "graph/builder.h"
#include "nlp/embedding.h"
#include "rules/corpus.h"
#include "util/binio.h"
#include "util/thread_pool.h"

namespace glint {
namespace {

/// Restores the global pool to its env-configured size when a test ends.
struct ThreadRestore {
  ~ThreadRestore() {
    ThreadPool::SetGlobalThreads(ThreadPool::ConfiguredThreads());
  }
};

constexpr int kParallelThreads = 4;

std::vector<rules::Rule> SmallCorpus() {
  rules::CorpusConfig cc;
  cc.ifttt = 300;
  cc.smartthings = 50;
  cc.alexa = 60;
  cc.google_assistant = 60;
  cc.home_assistant = 60;
  return rules::CorpusGenerator(cc).Generate();
}

const nlp::EmbeddingModel& WordModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(300, 17);
  return *m;
}
const nlp::EmbeddingModel& SentenceModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(512, 18);
  return *m;
}

std::vector<gnn::GnnGraph> BuildGraphs(const std::vector<rules::Rule>& pool,
                                       int num_graphs) {
  graph::GraphBuilder::Config bc;
  bc.seed = 99;
  bc.max_nodes = 12;
  graph::GraphBuilder builder(bc, &WordModel(), &SentenceModel());
  return gnn::ToGnnGraphs(builder.BuildDataset(pool, num_graphs));
}

void ExpectSameGraphs(const std::vector<gnn::GnnGraph>& a,
                      const std::vector<gnn::GnnGraph>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_nodes, b[i].num_nodes) << "graph " << i;
    ASSERT_EQ(a[i].label, b[i].label) << "graph " << i;
    ASSERT_EQ(a[i].node_types, b[i].node_types) << "graph " << i;
    ASSERT_EQ(a[i].edges, b[i].edges) << "graph " << i;
    for (int t = 0; t < gnn::kNumNodeTypes; ++t) {
      ASSERT_EQ(a[i].typed_features[t].data, b[i].typed_features[t].data)
          << "graph " << i << " type " << t;
    }
    ASSERT_EQ(a[i].adj_norm.entries.size(), b[i].adj_norm.entries.size());
    for (size_t k = 0; k < a[i].adj_norm.entries.size(); ++k) {
      const auto& ea = a[i].adj_norm.entries[k];
      const auto& eb = b[i].adj_norm.entries[k];
      ASSERT_EQ(ea.r, eb.r);
      ASSERT_EQ(ea.c, eb.c);
      ASSERT_EQ(ea.v, eb.v);
    }
  }
}

TEST(ParallelDeterminismTest, CorpusIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  ThreadPool::SetGlobalThreads(1);
  const auto serial = SmallCorpus();
  ThreadPool::SetGlobalThreads(kParallelThreads);
  const auto parallel = SmallCorpus();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].id, parallel[i].id) << "rule " << i;
    ASSERT_EQ(serial[i].platform, parallel[i].platform) << "rule " << i;
    ASSERT_EQ(serial[i].text, parallel[i].text) << "rule " << i;
    ASSERT_EQ(serial[i].trigger.device, parallel[i].trigger.device);
    ASSERT_EQ(serial[i].conditions.size(), parallel[i].conditions.size());
    ASSERT_EQ(serial[i].actions.size(), parallel[i].actions.size());
  }
}

TEST(ParallelDeterminismTest, DatasetIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  const auto pool = SmallCorpus();
  ThreadPool::SetGlobalThreads(1);
  const auto serial = BuildGraphs(pool, 10);
  ThreadPool::SetGlobalThreads(kParallelThreads);
  const auto parallel = BuildGraphs(pool, 10);
  ExpectSameGraphs(serial, parallel);
}

TEST(ParallelDeterminismTest, EvaluateAndEmbedAllIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  ThreadPool::SetGlobalThreads(1);
  const auto graphs = BuildGraphs(SmallCorpus(), 16);

  gnn::ItgnnModel::Config mc;
  mc.seed = 5;
  gnn::ItgnnModel model(mc);

  const auto serial_metrics = gnn::Trainer::Evaluate(&model, graphs);
  const auto serial_embeds = gnn::Trainer::EmbedAll(&model, graphs);
  ThreadPool::SetGlobalThreads(kParallelThreads);
  const auto parallel_metrics = gnn::Trainer::Evaluate(&model, graphs);
  const auto parallel_embeds = gnn::Trainer::EmbedAll(&model, graphs);

  EXPECT_EQ(serial_metrics.accuracy, parallel_metrics.accuracy);
  EXPECT_EQ(serial_metrics.precision, parallel_metrics.precision);
  EXPECT_EQ(serial_metrics.recall, parallel_metrics.recall);
  EXPECT_EQ(serial_metrics.f1, parallel_metrics.f1);
  ASSERT_EQ(serial_embeds.size(), parallel_embeds.size());
  for (size_t i = 0; i < serial_embeds.size(); ++i) {
    ASSERT_EQ(serial_embeds[i], parallel_embeds[i]) << "embedding " << i;
  }
}

TEST(ParallelDeterminismTest, SupervisedTrainingIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  ThreadPool::SetGlobalThreads(1);
  const auto graphs = BuildGraphs(SmallCorpus(), 16);

  auto train_and_embed = [&graphs](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    gnn::ItgnnModel::Config mc;
    mc.seed = 3;
    gnn::ItgnnModel model(mc);
    gnn::TrainConfig tc;
    tc.epochs = 2;
    gnn::Trainer(tc).TrainSupervised(&model, graphs);
    return gnn::Trainer::EmbedAll(&model, graphs);
  };
  const auto serial = train_and_embed(1);
  const auto parallel = train_and_embed(kParallelThreads);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "embedding " << i;
  }
}

TEST(ParallelDeterminismTest, ContrastiveTrainingIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  ThreadPool::SetGlobalThreads(1);
  const auto graphs = BuildGraphs(SmallCorpus(), 16);

  auto train_and_embed = [&graphs](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    gnn::ItgnnModel::Config mc;
    mc.seed = 11;
    gnn::ItgnnModel model(mc);
    gnn::TrainConfig tc;
    tc.epochs = 2;
    gnn::Trainer(tc).TrainContrastive(&model, graphs);
    return gnn::Trainer::EmbedAll(&model, graphs);
  };
  const auto serial = train_and_embed(1);
  const auto parallel = train_and_embed(kParallelThreads);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "embedding " << i;
  }
}

/// FNV-1a over the raw bits of `n` floats, chained from `h`.
uint64_t HashFloatBits(uint64_t h, const float* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &v[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string HexLogits(const gnn::Tensor* logits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a %a",
                static_cast<double>(logits->value.At(0, 0)),
                static_cast<double>(logits->value.At(0, 1)));
  return buf;
}

TEST(ParallelDeterminismTest, TrainedNumericsMatchRecordedGolden) {
  // Every other case here compares two runs of one build (threads against
  // threads, backends against backends), so a change that alters every
  // backend's arithmetic the same way would pass them all. This case pins
  // the trained arithmetic itself: the parameters (values and Adam moments)
  // of a small ITGNN-S trained on the shared fixture, and its logits on the
  // 20 fixture graphs, against values recorded before the dense kernels
  // last changed. A short ITGNN-C contrastive run pins the path where one
  // tape uses every parameter twice (two forwards per pair). A mismatch
  // means the Table 5 / Fig. 8 numerics moved. Never re-record these to
  // make a kernel change pass.
  constexpr uint64_t kParamHash = 0xd3f2751787bddcaaull;
  constexpr uint64_t kContrastiveParamHash = 0x452c584efac37637ull;
  const char* const kLogits[20] = {
      "0x1.5e5e4ep-8 -0x1.78031ep-3",
      "0x1.7cce78p-7 -0x1.30b482p-3",
      "0x1.5fd272p-3 -0x1.bbfb52p-3",
      "0x1.d41016p-4 -0x1.6a6946p-3",
      "0x1.12d2bcp-3 -0x1.b1085ep-3",
      "0x1.b82b62p-5 -0x1.a530a2p-3",
      "0x1.13efa6p-3 -0x1.37289cp-2",
      "-0x1.01f498p-3 -0x1.f611dcp-4",
      "0x1.46ad14p-4 -0x1.33b5dep-3",
      "0x1.ec8b98p-4 -0x1.eff632p-3",
      "0x1.3af77cp-4 -0x1.9a1286p-3",
      "-0x1.ef572p-3 0x1.3e024p-4",
      "-0x1.27a53cp-1 0x1.cf224ep-3",
      "0x1.26ba26p-3 -0x1.2fa5f4p-2",
      "0x1.7611dap-4 -0x1.5dba1ep-3",
      "0x1.4997bep-6 -0x1.659f96p-3",
      "0x1.99357ep-4 -0x1.3eb562p-3",
      "-0x1.099bbap-1 0x1.1884f6p-2",
      "-0x1.353552p-8 -0x1.314c8ep-3",
      "-0x1.e8a586p-3 0x1.1093a2p-5",
  };

  ThreadRestore restore;
  ThreadPool::SetGlobalThreads(kParallelThreads);
  const auto graphs = BuildGraphs(SmallCorpus(), 20);
  ASSERT_EQ(graphs.size(), 20u);
  gnn::ItgnnModel::Config mc;
  mc.seed = 3;
  gnn::ItgnnModel model(mc);
  gnn::TrainConfig tc;
  tc.epochs = 2;
  gnn::Trainer(tc).TrainSupervised(&model, graphs);

  const auto param_hash = [](gnn::ItgnnModel* m) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (gnn::Parameter* p : m->Parameters()) {
      for (const gnn::Matrix* x : {&p->value, &p->m, &p->v}) {
        hash = HashFloatBits(hash, x->data.data(), x->data.size());
      }
    }
    return hash;
  };
  const auto hex = [](uint64_t hash) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(buf);
  };
  const uint64_t hash = param_hash(&model);
  EXPECT_EQ(hash, kParamHash) << "trained parameter hash is " << hex(hash);

  for (size_t i = 0; i < graphs.size(); ++i) {
    gnn::ScopedTape tape;
    tape->set_freeze_leaves(true);
    const gnn::ForwardResult r = model.Forward(tape.get(), graphs[i]);
    EXPECT_EQ(HexLogits(r.logits), kLogits[i]) << "logits of graph " << i;
  }

  // Contrastive pairs need both classes in the fixture.
  int positives = 0;
  for (const auto& g : graphs) positives += g.label;
  ASSERT_GT(positives, 0);
  ASSERT_LT(positives, static_cast<int>(graphs.size()));
  gnn::ItgnnModel::Config cc;
  cc.seed = 4;
  gnn::ItgnnModel contrastive(cc);
  gnn::Trainer(tc).TrainContrastive(&contrastive, graphs);
  const uint64_t chash = param_hash(&contrastive);
  EXPECT_EQ(chash, kContrastiveParamHash)
      << "contrastive parameter hash is " << hex(chash);
}

/// Everything TrainOffline fits, as raw bits: both ITGNN models' values and
/// Adam moments, the drift statistics, and correlation verdicts over a grid
/// of corpus pairs.
struct TrainedState {
  std::vector<std::vector<float>> classifier, contrastive;
  std::vector<char> drift;
  std::vector<bool> verdicts;
};

std::vector<std::vector<float>> ParameterState(gnn::ItgnnModel* model) {
  std::vector<std::vector<float>> out;
  for (gnn::Parameter* p : model->Parameters()) {
    for (const gnn::Matrix* m : {&p->value, &p->m, &p->v}) {
      out.emplace_back(m->data.begin(), m->data.end());
    }
  }
  return out;
}

/// Small-corpus, small-model detector options shared by the whole-detector
/// tests below (training cost dominates them).
core::TrainedDetector::Options SmallDetectorOptions() {
  core::TrainedDetector::Options opts;
  opts.corpus.ifttt = 300;
  opts.corpus.smartthings = 50;
  opts.corpus.alexa = 60;
  opts.corpus.google_assistant = 60;
  opts.corpus.home_assistant = 60;
  opts.num_training_graphs = 80;
  opts.builder.max_nodes = 8;
  opts.model.num_scales = 2;
  opts.model.embed_dim = 32;
  opts.train.epochs = 2;
  opts.pairs.num_positive = 60;
  opts.pairs.num_negative = 90;
  return opts;
}

TrainedState TrainSmallDetector(int threads) {
  ThreadPool::SetGlobalThreads(threads);
  core::TrainedDetector::Options opts = SmallDetectorOptions();
  opts.num_training_graphs = 48;  // two full trainings per test
  core::TrainedDetector detector(opts);
  detector.TrainOffline();

  TrainedState st;
  st.classifier = ParameterState(detector.classifier());
  st.contrastive = ParameterState(detector.contrastive());
  util::ByteWriter w;
  detector.drift_detector().SerializeTo(&w);
  st.drift = w.buffer();
  const auto& corpus = detector.corpus();
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 40; ++j) {
      st.verdicts.push_back(detector.Correlated(
          corpus[(i * 7919) % corpus.size()],
          corpus[(j * 104729 + 13) % corpus.size()]));
    }
  }
  return st;
}

TEST(ParallelDeterminismTest, TrainOfflineIdenticalAcrossThreadCounts) {
  // At more than one thread TrainOffline overlaps the correlation ensemble,
  // ITGNN-S and ITGNN-C on separate caller threads; at one thread it runs
  // them serially. Every fitted float must agree.
  ThreadRestore restore;
  const TrainedState serial = TrainSmallDetector(1);
  const TrainedState parallel = TrainSmallDetector(kParallelThreads);
  ASSERT_FALSE(serial.classifier.empty());
  EXPECT_EQ(serial.classifier, parallel.classifier);
  EXPECT_EQ(serial.contrastive, parallel.contrastive);
  EXPECT_EQ(serial.drift, parallel.drift);
  EXPECT_EQ(serial.verdicts, parallel.verdicts);
}

/// One small trained detector shared by the serving determinism tests
/// (training is the expensive part; both tests only read it).
const core::TrainedDetector& SmallTrainedDetector() {
  static core::TrainedDetector* d = [] {
    auto* detector = new core::TrainedDetector(SmallDetectorOptions());
    detector->TrainOffline();
    return detector;
  }();
  return *d;
}

struct HomeTrace {
  std::vector<std::string> renders;
  std::vector<double> confidences;
  bool operator==(const HomeTrace& o) const {
    return renders == o.renders && confidences == o.confidences;
  }
};

/// Runs one home's scripted session (rules, an event stream, periodic
/// inspections) against the shared detector and records every warning.
HomeTrace RunHome(const std::vector<rules::Rule>& rules, uint64_t seed) {
  core::DeploymentSession session(&SmallTrainedDetector());
  for (const auto& r : rules) session.AddRule(r);
  HomeTrace trace;
  Rng rng(seed);
  double now = 10.0;
  for (int step = 0; step < 8; ++step) {
    now += 0.1 + rng.Uniform() * 0.3;
    const auto cur = session.CurrentRules();
    const auto& rule = cur[rng.Below(cur.size())];
    graph::Event e;
    e.time_hours = now;
    e.location = rule.location;
    if (rng.Chance(0.5) || rule.actions.empty()) {
      e.device = rule.trigger.device;
      e.state = rule.trigger.state;
    } else {
      const auto& a = rule.actions[rng.Below(rule.actions.size())];
      e.device = a.device;
      e.state = rules::CommandResultState(a.command);
    }
    session.OnEvent(e);
    auto w = session.TryInspect(now).ValueOrDie();
    trace.renders.push_back(w.Render());
    trace.confidences.push_back(w.confidence);
  }
  return trace;
}

TEST(ParallelDeterminismTest, SharedDetectorSessionsIdenticalAcrossThreads) {
  // Two DeploymentSessions over ONE TrainedDetector, each on its own
  // thread, must reproduce the serial run bit-for-bit: the detector's memo
  // caches store pure-function results, so sharing cannot change verdicts.
  const auto home_a = rules::CorpusGenerator::Table1Rules();
  const auto home_b = rules::CorpusGenerator::Table4Settings();

  const HomeTrace ref_a = RunHome(home_a, 3);
  const HomeTrace ref_b = RunHome(home_b, 5);

  HomeTrace par_a, par_b;
  std::thread ta([&] { par_a = RunHome(home_a, 3); });
  std::thread tb([&] { par_b = RunHome(home_b, 5); });
  ta.join();
  tb.join();

  EXPECT_EQ(ref_a, par_a);
  EXPECT_EQ(ref_b, par_b);
}

TEST(ParallelDeterminismTest, ServingEngineInspectAllIdenticalAcrossThreadCounts) {
  ThreadRestore restore;
  const auto& detector = SmallTrainedDetector();
  std::vector<std::vector<rules::Rule>> homes = {
      rules::CorpusGenerator::Table1Rules(),
      rules::CorpusGenerator::Table4Settings(),
  };
  for (const auto& g : rules::CorpusGenerator::NewThreatBlueprints()) {
    homes.push_back(g);
    if (homes.size() >= 5) break;
  }

  auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    core::ServingEngine engine(&detector);
    for (size_t h = 0; h < homes.size(); ++h) {
      const std::string id = "home-" + std::to_string(h);
      EXPECT_TRUE(engine.TryAddHome(id, homes[h]).ok());
    }
    Rng rng(9);
    double now = 10.0;
    std::vector<std::string> out;
    for (int round = 0; round < 3; ++round) {
      for (int h = 0; h < static_cast<int>(homes.size()); ++h) {
        now += 0.05;
        const auto cur = engine.home_view(h).CurrentRules();
        const auto& rule = cur[rng.Below(cur.size())];
        graph::Event e;
        e.time_hours = now;
        e.device = rule.trigger.device;
        e.state = rule.trigger.state;
        e.location = rule.location;
        const auto& id = engine.home_ids()[static_cast<size_t>(h)];
        EXPECT_TRUE(engine.TryOnEvent(id, e).ok());
      }
      for (const auto& w : engine.InspectAll(now)) {
        out.push_back(w.Render());
      }
    }
    return out;
  };

  const auto serial = run(1);
  const auto parallel = run(kParallelThreads);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace glint
