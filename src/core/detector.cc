#include "core/detector.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <future>

#include "core/explain.h"
#include "gnn/model_io.h"
#include "graph/threat_analyzer.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace glint::core {

TrainedDetector::TrainedDetector(Options options)
    : options_(std::move(options)),
      word_model_(300, options_.seed ^ 0x17),
      sentence_model_(512, options_.seed ^ 0x18) {
  builder_ = std::make_unique<graph::GraphBuilder>(options_.builder,
                                                   &word_model_,
                                                   &sentence_model_);
}

void TrainedDetector::TrainOffline() {
  // 1. Corpus (the crawl substitute).
  rules::CorpusGenerator gen(options_.corpus);
  corpus_rules_ = gen.Generate();

  // The correlation ensemble, ITGNN-S and ITGNN-C (with its drift fit) are
  // independent: separate models, separate RNG streams, and shared inputs
  // (corpus, graphs, memo caches) that are only read or memoize pure
  // functions. So they train side by side on caller threads that share the
  // global pool. Under GLINT_THREADS=1 the deferred tasks run on this
  // thread when joined, keeping the whole stage serial.
  const std::launch beside = ThreadPool::Global().threads() > 1
                                 ? std::launch::async
                                 : std::launch::deferred;

  // 2. Rule correlation discovery (Sec. 3.2.1), beside steps 3-5. Trained
  // into a local and published after the join, so a builder edge predicate
  // installed by an earlier training never sees a half-trained ensemble.
  auto discovery =
      std::make_unique<correlation::CorrelationDiscovery>(&word_model_);
  std::future<void> correlation_done = std::async(beside, [&] {
    ml::Dataset pairs = correlation::BuildPairDataset(
        corpus_rules_, discovery->extractor(), options_.pairs);
    discovery->Train(pairs);
  });

  // 3. Interaction graph dataset, labeled by the analyzer (Sec. 3.2.2).
  graph::GraphDataset ds =
      builder_->BuildDataset(corpus_rules_, options_.num_training_graphs);
  train_graphs_ = gnn::ToGnnGraphs(ds);
  // Build each graph's lazily cached type operators up front, so the two
  // trainings below (and the graph copies ITGNN-S oversamples) only ever
  // read train_graphs_ instead of racing to publish the cache.
  ParallelFor(0, static_cast<int64_t>(train_graphs_.size()), 16,
              [this](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  train_graphs_[static_cast<size_t>(i)].TypeMetaView();
                }
              });

  // 4. ITGNN-S (classification) beside ITGNN-C (contrastive); both only
  // read train_graphs_.
  classifier_ = std::make_unique<gnn::ItgnnModel>(options_.model);
  gnn::ItgnnModel::Config c_cfg = options_.model;
  c_cfg.seed ^= 0xc0;
  contrastive_ = std::make_unique<gnn::ItgnnModel>(c_cfg);
  std::future<void> supervised_done = std::async(beside, [&] {
    gnn::Trainer(options_.train).TrainSupervised(classifier_.get(),
                                                 train_graphs_);
  });
  gnn::Trainer(options_.train).TrainContrastive(contrastive_.get(),
                                                train_graphs_);

  // 5. Drift detector over the contrastive latent space (Alg. 3).
  drift_ = gnn::DriftDetector({options_.t_mad});
  drift_.FitFromModel(contrastive_.get(), train_graphs_);

  supervised_done.get();
  correlation_done.get();
  discovery_ = std::move(discovery);
  ready_ = true;
}

bool TrainedDetector::learned_correlation() const {
  return options_.use_learned_correlation && discovery_ != nullptr &&
         discovery_->trained();
}

bool TrainedDetector::Correlated(const rules::Rule& src,
                                 const rules::Rule& dst) const {
  if (learned_correlation()) {
    return discovery_->Correlated(src, dst, &corr_cache_);
  }
  return rules::RuleTriggersRule(src, dst);
}

void TrainedDetector::CorrelateRow(
    const rules::Rule& rule, const std::vector<const rules::Rule*>& others,
    std::vector<char>* from, std::vector<char>* to) const {
  if (learned_correlation()) {
    discovery_->CorrelateRow(rule, others, from, to, &corr_cache_);
    return;
  }
  from->assign(others.size(), 0);
  to->assign(others.size(), 0);
  for (size_t i = 0; i < others.size(); ++i) {
    (*from)[i] = rules::RuleTriggersRule(*others[i], rule);
    (*to)[i] = rules::RuleTriggersRule(rule, *others[i]);
  }
}

graph::Node TrainedDetector::MakeNode(const rules::Rule& rule) const {
  return builder_->MakeNode(rule);
}

ThreatWarning TrainedDetector::Analyze(const gnn::GnnGraph& gg,
                                       const graph::InteractionGraph& g,
                                       bool explain) const {
  GLINT_OBS_TIMER(analyze_timer, "glint.detector.analyze_ms");
  return AnalyzeAll({&gg}, {&g}, explain).front();
}

ThreatWarning TrainedDetector::AnalyzeGraph(
    const graph::InteractionGraph& g) const {
  return Analyze(gnn::ToGnnGraph(g), g);
}

std::vector<ThreatWarning> TrainedDetector::AnalyzeBatch(
    const std::vector<const gnn::GnnGraph*>& ggs,
    const std::vector<const graph::InteractionGraph*>& gs) const {
  GLINT_OBS_TIMER(analyze_timer, "glint.detector.analyze_batch_ms");
  return AnalyzeAll(ggs, gs, /*explain=*/true);
}

std::vector<ThreatWarning> TrainedDetector::AnalyzeAll(
    const std::vector<const gnn::GnnGraph*>& ggs,
    const std::vector<const graph::InteractionGraph*>& gs,
    bool explain) const {
  GLINT_CHECK(ready_);
  GLINT_CHECK(ggs.size() == gs.size());
  std::vector<ThreatWarning> out(ggs.size());

  // A zero-node graph has no rules, so nothing in it can interact: it keeps
  // the default benign warning and joins no forward.
  std::vector<const gnn::GnnGraph*> members;
  std::vector<size_t> slots;
  for (size_t i = 0; i < ggs.size(); ++i) {
    if (ggs[i]->num_nodes == 0) continue;
    members.push_back(ggs[i]);
    slots.push_back(i);
  }
  if (members.empty()) return out;

  // One graph runs over its own storage as a one-segment batch; several are
  // packed block-diagonally. Row b of each forward belongs to members[b].
  gnn::GnnBatch batch;
  if (members.size() > 1) batch = gnn::MakeGnnBatch(members);
  auto forward = [&](gnn::ItgnnModel* model, gnn::Tape* tape) {
    tape->set_freeze_leaves(true);  // inference only: skip grad bookkeeping
    return members.size() == 1 ? model->Forward(tape, *members.front())
                               : model->ForwardBatched(tape, batch);
  };

  // Drift check first (Fig. 2 step 5): unfamiliar patterns go to the user
  // rather than the classifier. One MAD test per embedding row.
  {
    GLINT_OBS_TIMER(timer, "glint.drift.check_ms");
    gnn::ScopedTape tape;
    const gnn::Tensor* z = forward(contrastive_.get(), tape.get()).embedding;
    const int dim = z->cols();
    for (size_t b = 0; b < members.size(); ++b) {
      const float* row = z->value.data.data() + b * static_cast<size_t>(dim);
      ThreatWarning& warning = out[slots[b]];
      warning.drifting = drift_.IsDrifting(FloatVec(row, row + dim));
      if (warning.drifting) GLINT_OBS_COUNT("glint.drift.flagged", 1);
    }
  }

  // Pooled tape: a warm serving session replays classification into the
  // same arena every Inspect, so the steady state allocates nothing. The
  // explainer below acquires its own lease; stack discipline keeps the
  // nesting safe.
  gnn::ScopedTape tape;
  auto r = forward(classifier_.get(), tape.get());
  for (size_t b = 0; b < members.size(); ++b) {
    ThreatWarning& warning = out[slots[b]];
    const float* logits = r.logits->value.data.data() + 2 * b;
    double p[2];
    gnn::SoftmaxRowInto(logits, 2, p);
    warning.confidence = p[1];
    warning.threat = p[1] > 0.5;
    if (!warning.threat) continue;
    GLINT_OBS_COUNT("glint.detector.threats", 1);
    const graph::InteractionGraph& g = *gs[slots[b]];
    if (explain) {
      // Explanation: top culprit rules, PGExplainer-style (Sec. 3.1). It
      // runs per graph (the saliency screen needs per-graph input
      // gradients, and threats are the rare case); the exact scan takes its
      // base margin from this graph's logits row.
      auto importance = ExplainNodes(classifier_.get(), *members[b], logits);
      for (int v : TopCulprits(importance, 3)) {
        const auto& node = g.nodes()[static_cast<size_t>(v)];
        warning.culprits.push_back(
            {v, rules::PlatformName(node.rule.platform), node.rule.text,
             importance[static_cast<size_t>(v)]});
      }
    }
    // Report the analyzer's threat taxonomy when available (it is attached
    // to graphs built by our own builder).
    warning.types = g.threat_types();
  }
  return out;
}

void TrainedDetector::FineTune(
    const std::vector<graph::InteractionGraph>& feedback,
    const std::vector<bool>& is_threat) {
  GLINT_CHECK(ready_);
  GLINT_CHECK(feedback.size() == is_threat.size());
  std::vector<gnn::GnnGraph> extra = train_graphs_;
  for (size_t i = 0; i < feedback.size(); ++i) {
    gnn::GnnGraph g = gnn::ToGnnGraph(feedback[i]);
    g.label = is_threat[i] ? 1 : 0;
    // User-confirmed cases are weighted by replication so a handful of
    // feedback graphs can move the decision against hundreds of training
    // graphs.
    const int copies = std::max<int>(
        12, static_cast<int>(train_graphs_.size() / 40));
    for (int k = 0; k < copies; ++k) extra.push_back(g);
  }
  gnn::TransferConfig tc;
  tc.freeze_groups = -1;  // adapt only the head to the user's preferences
  tc.fine_tune = options_.train;
  tc.fine_tune.epochs = std::max(3, options_.train.epochs / 3);
  gnn::TransferFineTune(classifier_.get(), extra, tc);
}

Status TrainedDetector::SaveModels(const std::string& dir) const {
  GLINT_CHECK(ready_);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create model dir " + dir + ": " +
                           std::strerror(errno));
  }
  GLINT_RETURN_IF_ERROR(
      gnn::SaveModel(classifier_.get(), dir + "/itgnn_s.bin"));
  GLINT_RETURN_IF_ERROR(
      gnn::SaveModel(contrastive_.get(), dir + "/itgnn_c.bin"));
  // Drift statistics are fitted at training time, not derivable from the
  // weights alone; without them a loaded detector would abort at its first
  // drift check.
  GLINT_RETURN_IF_ERROR(gnn::SaveDriftStats(drift_, dir + "/drift.bin"));
  return Status::OK();
}

Status TrainedDetector::LoadModels(const std::string& dir) {
  if (classifier_ == nullptr) {
    classifier_ = std::make_unique<gnn::ItgnnModel>(options_.model);
  }
  if (contrastive_ == nullptr) {
    gnn::ItgnnModel::Config c_cfg = options_.model;
    c_cfg.seed ^= 0xc0;
    contrastive_ = std::make_unique<gnn::ItgnnModel>(c_cfg);
  }
  GLINT_RETURN_IF_ERROR(
      gnn::LoadModel(classifier_.get(), dir + "/itgnn_s.bin"));
  GLINT_RETURN_IF_ERROR(
      gnn::LoadModel(contrastive_.get(), dir + "/itgnn_c.bin"));
  drift_ = gnn::DriftDetector({options_.t_mad});
  GLINT_RETURN_IF_ERROR(gnn::LoadDriftStats(&drift_, dir + "/drift.bin"));
  ready_ = true;
  return Status::OK();
}

}  // namespace glint::core
