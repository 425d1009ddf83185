// Cross-platform audit: the heterogeneous story of the paper — audit a
// five-platform rule set, transfer knowledge from the data-rich IFTTT
// domain to the scarce SmartThings domain, and surface the four new threat
// types hiding in Home Assistant blueprints via drifting-sample detection.

#include <cstdio>

#include "core/detector.h"
#include "gnn/drift.h"
#include "gnn/transfer.h"
#include "graph/threat_analyzer.h"

using namespace glint;  // NOLINT

int main() {
  std::printf("== Glint cross-platform audit ==\n\n");

  core::TrainedDetector::Options options;
  options.corpus.ifttt = 600;
  options.corpus.smartthings = 100;
  options.corpus.alexa = 150;
  options.corpus.google_assistant = 80;
  options.corpus.home_assistant = 100;
  options.num_training_graphs = 500;
  options.builder.max_nodes = 12;
  options.builder.size_skew = 2.0;
  options.model.num_scales = 2;
  options.model.embed_dim = 64;
  options.train.epochs = 12;
  options.pairs.num_positive = 200;
  options.pairs.num_negative = 300;
  core::TrainedDetector detector(options);
  std::printf("training the heterogeneous detector...\n");
  detector.TrainOffline();

  // ---- 1. Transfer learning: IFTTT -> SmartThings ------------------------
  // The textbook setup of Sec. 3.3.4: a model pre-trained on the data-rich
  // IFTTT domain is adapted to the 165-graph SmartThings domain and
  // compared against training on SmartThings alone.
  std::printf("\n[1] transfer learning to the scarce SmartThings domain\n");
  std::vector<rules::Rule> st_rules, ifttt_rules;
  for (const auto& r : detector.corpus()) {
    if (r.platform == rules::Platform::kSmartThings) st_rules.push_back(r);
    if (r.platform == rules::Platform::kIFTTT) ifttt_rules.push_back(r);
  }
  graph::GraphBuilder::Config bc;
  bc.max_nodes = 20;
  bc.size_skew = 2.0;
  bc.seed = 321;
  graph::GraphBuilder builder(bc, &detector.word_model(),
                              &detector.sentence_model());
  auto st_graphs = gnn::ToGnnGraphs(builder.BuildDataset(st_rules, 165));
  auto ifttt_graphs =
      gnn::ToGnnGraphs(builder.BuildDataset(ifttt_rules, 500));
  Rng rng(5);
  std::vector<gnn::GnnGraph> st_train, st_test;
  gnn::SplitGraphs(st_graphs, 0.8, &rng, &st_train, &st_test);

  gnn::TrainConfig tc;
  tc.epochs = 12;
  // Target-only baseline: 132 training graphs are not much to learn from.
  gnn::MagcnModel target_only(64, 2, 600);
  gnn::Trainer(tc).TrainSupervised(&target_only, st_train);
  const double before =
      gnn::Trainer::Evaluate(&target_only, st_test).accuracy;
  // Pre-train on IFTTT, then freeze-and-fine-tune on SmartThings.
  gnn::MagcnModel transferred(64, 2, 600);
  gnn::Trainer(tc).TrainSupervised(&transferred, ifttt_graphs);
  gnn::TransferConfig xfer;
  xfer.freeze_groups = -1;  // the paper's head-only fine-tune for tiny data
  xfer.fine_tune.epochs = 8;
  gnn::TransferFineTune(&transferred, st_train, xfer);
  const double after = gnn::Trainer::Evaluate(&transferred, st_test).accuracy;
  std::printf("  SmartThings accuracy: %.1f%% (target-only) -> %.1f%% "
              "(IFTTT pre-training + fine-tune)\n",
              100 * before, 100 * after);

  // ---- 2. Drifting blueprints: the four new threat types -----------------
  std::printf("\n[2] drifting-sample review of Home Assistant blueprints\n");
  gnn::DriftDetector drift = detector.drift_detector();
  auto groups = rules::CorpusGenerator::NewThreatBlueprints();
  for (size_t i = 0; i < groups.size(); ++i) {
    auto g = builder.BuildFromRules(groups[i]);
    auto gg = gnn::ToGnnGraph(g);
    const double degree =
        drift.DriftingDegree(gnn::Trainer::Embed(detector.contrastive(), gg));
    auto findings = graph::ThreatAnalyzer::DetectNewTypes(g);
    std::printf("  blueprint group %zu: drifting degree %.2f%s\n", i + 1,
                degree, degree > 3 ? "  << DRIFTING, review:" : "");
    for (const auto& r : groups[i]) {
      std::printf("      [%s] %s\n", rules::PlatformName(r.platform),
                  r.text.c_str());
    }
    for (const auto& f : findings) {
      std::printf("      analyst verdict: %s (rules",
                  graph::ThreatTypeName(f.type));
      for (int n : f.nodes) std::printf(" %d", n + 1);
      std::printf(")\n");
    }
  }

  // ---- 3. User feedback loop ---------------------------------------------
  std::printf("\n[3] user feedback: confirming a blueprint threat and "
              "fine-tuning\n");
  auto confirmed = builder.BuildFromRules(groups[2]);  // trigger intake
  auto warn_before = detector.AnalyzeGraph(confirmed);
  detector.FineTune({confirmed}, {true});
  auto warn_after = detector.AnalyzeGraph(confirmed);
  std::printf("  trigger-intake blueprint confidence: %.2f -> %.2f\n",
              warn_before.confidence, warn_after.confidence);
  std::printf("\naudit complete.\n");
  return 0;
}
