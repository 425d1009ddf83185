#pragma once

// Shared harness utilities for the per-table / per-figure benchmark
// binaries. Each binary regenerates one table or figure of the paper on the
// synthetic substitute datasets (see DESIGN.md for the substitution map)
// and prints paper-reported values next to the measured ones.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gnn/models.h"
#include "gnn/trainer.h"
#include "graph/builder.h"
#include "nlp/embedding.h"
#include "rules/corpus.h"
#include "util/string_utils.h"
#include "util/table.h"

namespace glint::bench {

/// Elapsed wall-clock seconds since `t0`.
inline double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Resident set size in KiB (/proc/self/status VmRSS), 0 if unreadable.
inline long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Nearest-rank percentile of an unsorted sample; `p` in [0, 1].
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(p * (xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

/// Builds the one-line machine-readable record each bench prints with a
/// BENCH_JSON prefix (and bench_obs_overhead's pass/fail summary). Keys are
/// emitted in insertion order so diffs across commits stay stable.
class JsonWriter {
 public:
  void Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Int(const std::string& key, long long v) {
    Raw(key, std::to_string(v));
  }
  void Num(const std::string& key, double v, int decimals = 3) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    Raw(key, buf);
  }
  void Ints(const std::string& key, const std::vector<int>& xs) {
    std::string a = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
      a += (i ? "," : "") + std::to_string(xs[i]);
    }
    Raw(key, a + "]");
  }
  void Nums(const std::string& key, const std::vector<double>& xs,
            int decimals = 1) {
    std::string a = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s%.*f", i ? "," : "", decimals,
                    xs[i]);
      a += buf;
    }
    Raw(key, a + "]");
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Embedding models shared by every bench (fixed seeds; all benches see the
/// same feature space).
inline const nlp::EmbeddingModel& WordModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(300, 17);
  return *m;
}
inline const nlp::EmbeddingModel& SentenceModel() {
  static const nlp::EmbeddingModel* m = new nlp::EmbeddingModel(512, 18);
  return *m;
}

/// The default evaluation corpus (Table 2 proportions at 1:100 scale).
inline std::vector<rules::Rule> DefaultCorpus(uint64_t seed = 4242) {
  rules::CorpusConfig cc;
  cc.seed = seed;
  return rules::CorpusGenerator(cc).Generate();
}

/// Rules of a single platform from a corpus.
inline std::vector<rules::Rule> PlatformRules(
    const std::vector<rules::Rule>& corpus, rules::Platform p) {
  std::vector<rules::Rule> out;
  for (const auto& r : corpus) {
    if (r.platform == p) out.push_back(r);
  }
  return out;
}

/// Builds a labeled graph dataset over a rule pool.
inline graph::GraphDataset BuildGraphs(const std::vector<rules::Rule>& pool,
                                       int num_graphs, uint64_t seed,
                                       int max_nodes = 50) {
  graph::GraphBuilder::Config bc;
  bc.seed = seed;
  bc.max_nodes = max_nodes;
  graph::GraphBuilder builder(bc, &WordModel(), &SentenceModel());
  return builder.BuildDataset(pool, num_graphs);
}

/// Named homogeneous model factory (Table 5 row set).
inline std::unique_ptr<gnn::GraphModel> MakeHomoModel(const std::string& name,
                                                      int in_dim,
                                                      uint64_t seed) {
  if (name == "GCN") {
    return std::make_unique<gnn::GcnModel>(in_dim, 64, 2, seed);
  }
  if (name == "GXN") {
    return std::make_unique<gnn::GxnModel>(in_dim, 64, 3, 0.6, seed);
  }
  if (name == "GIN") {
    return std::make_unique<gnn::GinModel>(in_dim, 64, 2, seed);
  }
  if (name == "IFG") {
    return std::make_unique<gnn::InfoGraphModel>(in_dim, 64, 2, seed);
  }
  if (name == "ITGNN-C" || name == "ITGNN-S" || name == "ITGNN") {
    gnn::ItgnnModel::Config cfg;
    cfg.seed = seed;
    return std::make_unique<gnn::ItgnnModel>(cfg);
  }
  return nullptr;
}

/// Named heterogeneous model factory (Fig. 8 row set).
inline std::unique_ptr<gnn::GraphModel> MakeHeteroModel(
    const std::string& name, uint64_t seed) {
  if (name == "HGSL") return std::make_unique<gnn::HgslModel>(64, seed);
  if (name == "MAGCN") return std::make_unique<gnn::MagcnModel>(64, 2, seed);
  if (name == "MAGXN") {
    return std::make_unique<gnn::MagxnModel>(64, 3, 0.6, seed);
  }
  if (name == "ITGNN") {
    gnn::ItgnnModel::Config cfg;
    cfg.seed = seed;
    return std::make_unique<gnn::ItgnnModel>(cfg);
  }
  return nullptr;
}

/// Prints a section header for a bench.
inline void Banner(const char* title, const char* paper_ref) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n(reproduces %s; synthetic substitute data — compare shapes,\n"
              "not absolute values; see DESIGN.md)\n", title, paper_ref);
  std::printf("==================================================================\n");
}

}  // namespace glint::bench
