#pragma once

// glint::fault — named fault points for durability / recovery testing.
//
// Every fallible I/O call in the crash-safe serving path (WAL appends,
// snapshot writes, renames, fsyncs, model-file loads) is preceded by a
// GLINT_FAULT_POINT("subsystem.op.step"). Unarmed, a point costs one
// relaxed atomic load and a predicted-not-taken branch — it stays compiled
// in for release builds so production binaries and test binaries exercise
// the same code. Armed (programmatically or via the GLINT_FAULTS env var),
// the Nth hit of a point can:
//
//   fail      return Status::IOError from the enclosing function — the
//             injected-error path every caller must tolerate;
//   crash     _exit(kCrashExitCode) without flushing stdio, simulating a
//             hard process kill mid-I/O (tests fork a child first);
//   delay:MS  sleep MS milliseconds, for latency/timeout testing.
//
// Env syntax:  GLINT_FAULTS=wal.append.write:3=crash,snapshot.rename=fail
// (point[:nth]=mode, comma separated; nth defaults to 1 = the next hit).
//
// Naming convention: `<file-or-subsystem>.<operation>.<step>`, e.g.
// wal.append.write / wal.append.tear / snapshot.rename / model.load.read.
// Points self-register on first execution, so a reference run of a
// workload is also an enumeration pass: Registry::Points() afterwards
// lists every fault site the workload can reach (the crash-matrix tests
// iterate exactly that list).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace glint::fault {

enum class Mode {
  kFail,   ///< return Status::IOError from the enclosing function
  kCrash,  ///< _exit(kCrashExitCode), no stdio flush, no destructors
  kDelay,  ///< sleep delay_ms, then continue
};

/// Exit code used by kCrash so test parents can tell an injected crash
/// from an ordinary failure.
constexpr int kCrashExitCode = 112;

class Registry {
 public:
  /// Process-wide registry. The first call parses GLINT_FAULTS.
  static Registry& Global();

  /// True when any point is armed; the only cost unarmed sites pay.
  static bool Armed() { return armed_.load(std::memory_order_relaxed); }

  /// Static-init hook used by GLINT_FAULT_POINT; always returns true.
  bool RegisterPoint(const char* name);

  /// Every point registered so far (sorted). A point registers the first
  /// time its code path executes, so run the workload once before
  /// enumerating. Kept for the tests: the crash matrix enumerates its cases
  /// with it.
  std::vector<std::string> Points() const;

  /// Arms `point` to act on its `nth` upcoming hit (1 = next hit). The
  /// trigger is one-shot: after acting, the point returns to pass-through
  /// (hit counting continues).
  void Arm(const std::string& point, Mode mode, int nth = 1,
           int delay_ms = 0);
  void Disarm(const std::string& point);

  /// Disarms every point and resets all hit counters. Kept for the tests:
  /// each case starts from a clean registry.
  void Clear();

  /// Parses a GLINT_FAULTS-style spec and arms each entry. Returns a
  /// Status describing the first malformed entry (valid entries before it
  /// are still armed).
  Status ArmFromSpec(const std::string& spec);

  /// Called by armed sites (via the macro). Counts the hit; acts if the
  /// point is armed and its trigger count is reached.
  Status Hit(const char* point);

  /// Total times `point` has been hit (armed or not) since the last Clear.
  /// Kept for the tests: it shows that a fault site was reached.
  uint64_t hits(const std::string& point) const;

 private:
  Registry();

  struct PointState {
    uint64_t hits = 0;
    bool armed = false;
    Mode mode = Mode::kFail;
    uint64_t trigger_at = 0;  ///< absolute hit count that fires the fault
    int delay_ms = 0;
  };

  static std::atomic<bool> armed_;
  mutable std::mutex mu_;
  std::map<std::string, PointState> points_;
  int armed_count_ = 0;
};

}  // namespace glint::fault

/// Drops a named fault point into a Status-returning function. Unarmed:
/// one relaxed load + branch. Armed: may return IOError, crash, or sleep.
#define GLINT_FAULT_POINT(name)                                     \
  do {                                                              \
    static const bool _glint_fault_registered =                     \
        ::glint::fault::Registry::Global().RegisterPoint(name);     \
    (void)_glint_fault_registered;                                  \
    if (::glint::fault::Registry::Armed()) {                        \
      ::glint::Status _glint_fault_status =                         \
          ::glint::fault::Registry::Global().Hit(name);             \
      if (!_glint_fault_status.ok()) return _glint_fault_status;    \
    }                                                               \
  } while (0)
