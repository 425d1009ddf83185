// perfbench — the repository benchmark driver.
//
//   perfbench --workload ingest|deploy|mixed|audit --seed N --seconds S
//             --trace 0|1 --glint PATH --workdir DIR
//
// --trace 0 measures the end-to-end metrics: the wire workloads against a
// live `glint fleet-serve` child process, audit in-process. --trace 1 is
// the separate traced run: the same generated inputs replayed in-process
// through each layer's public functions, reporting per-layer metrics.
//
// Output: a RUN_RECORD line, one "metric" line per measured quantity (with
// its unit and sample count), and as the last line one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is
// nonzero when the correctness and accounting gate fails.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "gnn/kernels.h"
#include "plan.h"
#include "runs.h"

namespace {

using namespace perfbench;  // NOLINT

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string EnvOr(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : def;
}

/// Same (workload, seed) → byte-identical plan; another seed → another plan.
/// Returns the run's plan in `plan`.
bool SelfTest(Workload w, uint64_t seed, double seconds, Plan* plan,
              uint64_t* digest, std::string* why) {
  auto a = std::async(std::launch::async,
                      [=] { return MakePlan(w, seed, seconds); });
  auto b = std::async(std::launch::async,
                      [=] { return PlanDigest(MakePlan(w, seed, seconds)); });
  auto c = std::async(std::launch::async, [=] {
    return PlanDigest(MakePlan(w, seed + 1, seconds));
  });
  *plan = a.get();
  *digest = PlanDigest(*plan);
  const uint64_t again = b.get();
  const uint64_t other = c.get();
  if (again != *digest) {
    *why = "the same seed generated different inputs";
    return false;
  }
  if (other == *digest) {
    *why = "a different seed generated identical inputs";
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|deploy|mixed|audit "
               "--seed N --seconds S --trace 0|1 --glint PATH --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, glint, workdir;
  uint64_t seed = 1;
  double seconds = 5;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload_name = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--glint") glint = v;
    else if (k == "--workdir") workdir = v;
    else return Usage();
  }
  Workload w;
  if (!ParseWorkload(workload_name, &w) || seconds <= 0 || workdir.empty() ||
      (trace == 0 && w != Workload::kAudit && glint.empty())) {
    return Usage();
  }
  signal(SIGPIPE, SIG_IGN);

  Plan plan;
  uint64_t digest = 0;
  std::string why;
  if (!SelfTest(w, seed, seconds, &plan, &digest, &why)) {
    std::fprintf(stderr, "perfbench: input-determinism self-test failed: %s\n",
                 why.c_str());
    return 1;
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "RUN_RECORD {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"commit\":\"%s\",\"source_digest\":\"%s\",\"nproc\":%u,"
      "\"kernel_backend\":\"%s\",\"GLINT_THREADS\":\"%s\","
      "\"GLINT_KERNEL\":\"%s\",\"shards\":2,\"io_workers\":2,"
      "\"bus_capacity\":1024,\"bus_policy\":\"block\",\"durable\":%s,"
      "\"detector\":\"%s\",\"input_digest\":\"%016llx\","
      "\"input_selftest\":\"ok\"}\n",
      WorkloadName(w), static_cast<unsigned long long>(seed), seconds, trace,
      Escape(EnvOr("PERFBENCH_COMMIT", "unknown")).c_str(),
      Escape(EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown")).c_str(), nproc,
      glint::gnn::kernels::BackendName(),
      Escape(EnvOr("GLINT_THREADS", "unset")).c_str(),
      Escape(EnvOr("GLINT_KERNEL", "unset")).c_str(),
      w == Workload::kMixed ? "true" : "false",
      Escape(ServeOptionsSummary()).c_str(),
      static_cast<unsigned long long>(digest));
  std::fflush(stdout);

  RunConfig cfg{glint, workdir};
  RunResult res = trace != 0 ? RunTraced(plan, cfg)
                  : w == Workload::kAudit ? RunAudit(plan, cfg)
                                          : RunWire(plan, cfg);
  res.report.Print("metric");
  if (!res.correct) std::printf("GATE FAILED\n");

  std::string metrics;
  for (const auto& name : res.json.names()) {
    const Metric& m = res.json.Get(name);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + JsonNum(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, res.attempted)),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
