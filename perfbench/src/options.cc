#include <cstdio>
#include <cstdlib>

#include "runs.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: gate: %s\n", why.c_str());
  correct = false;
}

glint::core::TrainedDetector::Options ServeOptions() {
  // Mirrors DefaultOptions(600, 14, 97) of `glint fleet-serve`.
  glint::core::TrainedDetector::Options opts;
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
  opts.seed = 97;
  return opts;
}

std::string ServeOptionsSummary() {
  const auto o = ServeOptions();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "graphs=%d epochs=%d seed=%llu embed_dim=%d scales=%d "
                "max_nodes=%d learned_correlation=%d t_mad=%g",
                o.num_training_graphs, o.train.epochs,
                static_cast<unsigned long long>(o.seed), o.model.embed_dim,
                o.model.num_scales, o.builder.max_nodes,
                o.use_learned_correlation ? 1 : 0, o.t_mad);
  return buf;
}

}  // namespace perfbench
