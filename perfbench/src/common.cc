#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

void Report::Print(const char* prefix) const {
  for (size_t i = 0; i < order_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s %-36s = %.6g %s", prefix, order_[i].c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) {
      std::printf("  (n=%llu%s)", static_cast<unsigned long long>(m.samples),
                  m.valid ? "" : ", invalid: not reported");
    }
    std::printf("\n");
  }
}

double ProcCpuSeconds(int pid) {
  // The process CPU clock counts in nanoseconds; utime+stime in
  // /proc/<pid>/stat counts in 10 ms ticks, too coarse for 250 ms windows.
  clockid_t clock;
  timespec ts;
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    return -1;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcPeakRssMb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

HostTicks ReadHostTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  HostTicks t;
  f >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double SelfCpuSeconds() {
  rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
