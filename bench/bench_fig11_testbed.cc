// Regenerates Figure 11 (and the Fig. 10 testbed): the real-life testbed
// comparison of Glint (ITGNN) vs HAWatcher vs OCSVM vs IsolationForest on
// binary-correlation threats (BCT) and complex-correlation threats (CCT),
// under the five simulated attack types of Sec. 4.8.1.

#include <cstdio>
#include <ctime>

#include "bench_common.h"
#include "core/session.h"
#include "ml/isolation_forest.h"
#include "ml/ocsvm.h"
#include "testbed/frames.h"
#include "testbed/hawatcher.h"
#include "testbed/scenarios.h"

using namespace glint;          // NOLINT
using namespace glint::bench;   // NOLINT
using namespace glint::testbed; // NOLINT

namespace {

struct Verdicts {
  std::vector<int> truth;
  std::vector<int> glint, hawatcher, ocsvm, iforest;
};

void PrintMetrics(const char* title, const Verdicts& v,
                  const std::vector<std::pair<const char*, double>>& paper_p,
                  const std::vector<std::pair<const char*, double>>& paper_r) {
  std::printf("\n--- %s ---\n", title);
  TablePrinter t({"detector", "precision", "recall", "F1", "paper prec",
                  "paper rec"});
  const struct {
    const char* name;
    const std::vector<int>* pred;
  } rows[] = {{"Glint (ITGNN)", &v.glint},
              {"HAWatcher", &v.hawatcher},
              {"OCSVM", &v.ocsvm},
              {"IsolationForest", &v.iforest}};
  for (size_t i = 0; i < 4; ++i) {
    auto m = ml::BinaryMetrics(v.truth, *rows[i].pred);
    t.AddRow({rows[i].name, StrFormat("%.1f", 100 * m.precision),
              StrFormat("%.1f", 100 * m.recall),
              StrFormat("%.1f", 100 * m.f1),
              StrFormat("%.1f", paper_p[i].second),
              StrFormat("%.1f", paper_r[i].second)});
  }
  t.Print();
}

}  // namespace

int main() {
  Banner("Figure 11: real-life testbed detector comparison", "Fig. 10/11");

  // ---- Offline: train Glint (the cloud-trained public model) -------------
  std::printf("training Glint offline (corpus -> correlation -> graphs -> "
              "ITGNN)...\n");
  std::clock_t t0 = std::clock();
  core::TrainedDetector::Options opts;
  opts.corpus.ifttt = 500;
  opts.corpus.smartthings = 80;
  opts.corpus.alexa = 150;
  opts.corpus.google_assistant = 80;
  opts.corpus.home_assistant = 80;
  opts.num_training_graphs = 600;
  opts.builder.max_nodes = 10;
  opts.builder.size_skew = 2.0;
  opts.model.num_scales = 2;
  opts.model.embed_dim = 64;
  opts.train.epochs = 14;
  opts.train.oversample_factor = 2.5;
  opts.pairs.num_positive = 200;
  opts.pairs.num_negative = 300;
  core::TrainedDetector detector(opts);
  detector.TrainOffline();
  std::printf("Glint trained in %.0fs (paper: \"no more than 1 hour\" on an "
              "A6000)\n",
              static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC);

  // ---- Baselines: one benign simulated week (1,813-event scale) ----------
  ScenarioGenerator gen(20260706);
  auto benign_week = gen.BenignWeek(168);
  std::printf("benign training week: %zu events (paper: 1,813)\n",
              benign_week.size());

  HaWatcher hawatcher;
  hawatcher.Train(benign_week);
  std::printf("HAWatcher mined %zu binary correlations\n",
              hawatcher.num_correlations());

  FrameEncoder encoder(SmartHome::DefaultLayout());
  auto benign_windows = encoder.Windows(benign_week);
  ml::OneClassSvm ocsvm;
  ocsvm.Fit(benign_windows);
  ml::IsolationForest iforest;
  iforest.Fit(benign_windows);
  iforest.FitThreshold(benign_windows, 0.05);

  // ---- Test set: 600 scenarios (150 BCT + 150 CCT + 300 benign) ----------
  auto evaluate = [&](bool complex, int n_threat, int n_benign) {
    Verdicts v;
    for (int i = 0; i < n_threat + n_benign; ++i) {
      Scenario s = i < n_threat ? (complex ? gen.MakeCct() : gen.MakeBct())
                                : gen.MakeBenign();
      v.truth.push_back(s.threat ? 1 : 0);
      // Glint: the initial-setup check of the deployment's interaction
      // graph (learned correlations) through the trained classifier — the
      // configuration is what carries the interactive threat; the logs
      // below are what the event-driven baselines see. The verdict comes
      // from the model alone; the analyzer's labels only annotate the
      // warning's threat types, which are not scored here.
      core::DeploymentSession session(&detector);
      for (const auto& r : s.deployed) session.AddRule(r);
      v.glint.push_back(session.InspectStatic().threat ? 1 : 0);
      // HAWatcher: correlation verification over the recent window.
      auto window = s.log.Window(s.now_hours, 3.0);
      v.hawatcher.push_back(hawatcher.Flag(window) ? 1 : 0);
      // OCSVM / IsolationForest over state-frame windows.
      graph::EventLog tail;
      for (const auto& e : window) tail.Append(e);
      auto frames = encoder.Windows(tail);
      int oc_anom = 0, if_anom = 0;
      for (const auto& f : frames) {
        oc_anom += ocsvm.Predict(f) == -1 ? 1 : 0;
        if_anom += iforest.Predict(f) == -1 ? 1 : 0;
      }
      const double denom = std::max<size_t>(1, frames.size());
      v.ocsvm.push_back(oc_anom / denom > 0.15 ? 1 : 0);
      v.iforest.push_back(if_anom / denom > 0.15 ? 1 : 0);
    }
    return v;
  };

  std::printf("\nevaluating 600 scenarios (this drives the five attack "
              "models of Sec. 4.8.1)...\n");
  t0 = std::clock();
  Verdicts bct = evaluate(/*complex=*/false, 150, 150);
  Verdicts cct = evaluate(/*complex=*/true, 150, 150);
  std::printf("evaluation took %.0fs\n",
              static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC);

  PrintMetrics("Binary-correlation threats (BCT)", bct,
               {{"glint", 100}, {"haw", 97.8}, {"ocsvm", 75}, {"iforest", 72}},
               {{"glint", 100}, {"haw", 94.1}, {"ocsvm", 70}, {"iforest", 68}});
  PrintMetrics("Complex-correlation threats (CCT)", cct,
               {{"glint", 96.0}, {"haw", 83.2}, {"ocsvm", 66.9}, {"iforest", 65}},
               {{"glint", 95.3}, {"haw", 82.7}, {"ocsvm", 63.3}, {"iforest", 62}});

  std::printf("\npaper shape to check: Glint > HAWatcher > OCSVM/IForest;\n"
              "HAWatcher's gap widens on CCT (long-term and multi-rule\n"
              "correlations are outside its binary-correlation model).\n");
  return 0;
}
