#pragma once

#include <string>
#include <vector>

#include "graph/event_log.h"
#include "rules/rule.h"
#include "util/rng.h"

namespace glint::testbed {

/// A concrete device instance in the simulated house (Fig. 10 layout).
struct DeviceInstance {
  rules::DeviceType type;
  rules::Location location;
  std::string state;  ///< current state keyword ("on", "open", "active", ...)
};

/// Continuous environment per location plus house-wide signals.
struct Environment {
  double temperature[rules::kNumLocations];  ///< °F per location
  double humidity[rules::kNumLocations];     ///< %RH per location
  bool smoke = false;
  bool present = true;  ///< somebody home
};

/// Discrete-event smart-home simulator: a resident behaviour model drives
/// physical events (motion, doors, presence, temperature drift), an
/// automation engine executes the deployed rules, and everything lands in
/// an event log — the substitute for the paper's real-world testbed
/// (Sec. 4.8, one week of 1,813 events).
class SmartHome {
 public:
  struct Config {
    uint64_t seed = 1337;
    double start_hour = 0;
    /// Probability that a command silently fails (misconfiguration
    /// attacks raise this).
    double command_failure_rate = 0.0;
    /// Max rule-cascade depth per physical event.
    int max_cascade = 6;
  };

  SmartHome(Config config, std::vector<rules::Rule> deployed);

  /// Default Fig. 10 device layout (lights, motion/contact/temperature/
  /// presence sensors, camera, button, plus the actuators rules use).
  static std::vector<DeviceInstance> DefaultLayout();

  /// Advances simulated time by `hours`, emitting resident and automation
  /// events.
  void Simulate(double hours);

  /// Injects an external event (used by the attack models) and runs the
  /// automation cascade it causes.
  void InjectEvent(graph::Event e);

  /// Directly executes a command as if an attacker issued it.
  void InjectCommand(rules::DeviceType device, rules::Location loc,
                     rules::Command cmd);

  double now() const { return now_; }
  const graph::EventLog& log() const { return log_; }
  graph::EventLog* mutable_log() { return &log_; }
  const std::vector<DeviceInstance>& devices() const { return devices_; }
  const Environment& env() const { return env_; }
  const std::vector<rules::Rule>& deployed() const { return deployed_; }

  /// State of the first device of the given type ("" if absent). Kept for
  /// the tests: they check the simulated device states.
  std::string DeviceState(rules::DeviceType type) const;

 private:
  void ResidentStep(double dt);
  void EnvironmentStep(double dt);
  bool NumericTriggerSatisfied(const rules::Rule& r) const;
  void RunCascade(const graph::Event& cause, int depth);
  void ExecuteAction(const rules::ActionSpec& action, rules::Location loc,
                     int source_rule_id, int depth);
  bool ConditionsHold(const rules::Rule& r) const;
  DeviceInstance* FindDevice(rules::DeviceType type, rules::Location loc);

  Config config_;
  Rng rng_;
  double now_;
  std::vector<rules::Rule> deployed_;
  std::vector<DeviceInstance> devices_;
  Environment env_;
  graph::EventLog log_;
};

}  // namespace glint::testbed
