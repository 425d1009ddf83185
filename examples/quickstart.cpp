// Quickstart: train a small Glint detector end-to-end and check a user's
// rule deployment for interactive threats.
//
//   $ ./build/examples/quickstart
//
// This walks the full pipeline of the paper's Fig. 2: corpus -> rule
// correlation discovery -> interaction graph dataset -> ITGNN training ->
// threat inspection with an explained warning.

#include <cstdio>

#include "core/session.h"

using namespace glint;  // NOLINT

int main() {
  std::printf("== Glint quickstart ==\n\n");

  // 1. Configure a small offline training run (scale up for accuracy; see
  //    bench/ for the paper-scale configurations).
  core::TrainedDetector::Options options;
  options.corpus.ifttt = 500;
  options.corpus.smartthings = 80;
  options.corpus.alexa = 150;
  options.corpus.google_assistant = 80;
  options.corpus.home_assistant = 80;
  options.num_training_graphs = 600;
  options.builder.max_nodes = 10;
  options.builder.size_skew = 2.0;
  options.model.num_scales = 2;
  options.model.embed_dim = 64;
  options.train.epochs = 14;
  options.train.oversample_factor = 2.5;
  options.pairs.num_positive = 200;
  options.pairs.num_negative = 300;

  core::TrainedDetector detector(options);
  std::printf("training offline (corpus, correlation model, ITGNN)...\n");
  detector.TrainOffline();
  std::printf("done. corpus: %zu rules.\n\n", detector.corpus().size());

  // 2. A user's deployment: the paper's Table 1 rules across SmartThings,
  //    IFTTT and Alexa.
  auto deployed = rules::CorpusGenerator::Table1Rules();
  std::printf("deployed rules:\n");
  for (const auto& r : deployed) {
    std::printf("  [%s] %s\n", rules::PlatformName(r.platform),
                r.text.c_str());
  }

  // 3. Initial-setup check: deploy the rules into a session (one per home)
  //    and inspect the static interaction graph they form.
  core::DeploymentSession session(&detector);
  for (const auto& r : deployed) session.AddRule(r);
  auto graph = session.live().MaterializeStatic();
  std::printf("\ninteraction graph: %d nodes, %d edges (%s)\n",
              graph.num_nodes(), graph.num_edges(),
              graph.IsHeterogeneous() ? "heterogeneous" : "homogeneous");

  auto warning = session.InspectStatic();
  std::printf("\n%s\n", warning.Render().c_str());

  // 4. Persist the trained detector for the hub.
  if (auto st = detector.SaveModels("/tmp"); st.ok()) {
    std::printf("models saved to /tmp/itgnn_{s,c}.bin\n");
    std::remove("/tmp/itgnn_s.bin");
    std::remove("/tmp/itgnn_c.bin");
  }
  return 0;
}
