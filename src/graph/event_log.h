#pragma once

#include <string>
#include <vector>

#include "rules/rule.h"
#include "util/binio.h"

namespace glint::graph {

/// One event-log record: time, object (device + location) and new status —
/// the "three basic elements" the paper fuses for online graph construction
/// (Sec. 3.2.2).
struct Event {
  double time_hours = 0;  ///< hours since epoch of the trace
  rules::DeviceType device = rules::DeviceType::kLight;
  rules::Location location = rules::Location::kAny;
  std::string state;      ///< "on", "open", "active", ...
  rules::Platform platform = rules::Platform::kSmartThings;
  /// Id of the rule whose action produced the event (0 = external/physical
  /// cause). Ground truth for the testbed; detectors never read it.
  int source_rule_id = 0;
};

/// A chronologically ordered event trace.
class EventLog {
 public:
  void Append(Event e);

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Events within [t - window, t].
  std::vector<Event> Window(double t, double window_hours) const;

  /// Latest state of a device at time t ("" if never reported).
  std::string StateAt(rules::DeviceType device, rules::Location loc,
                      double t) const;

  /// Render as "2022-05-08 20:08:30  Door is locked (Alexa)"-style lines.
  std::vector<std::string> Render() const;

 private:
  std::vector<Event> events_;
};

/// True when `e` can fire `trigger` of rule `r` (device/state/channel match
/// in scope). Time-of-day triggers match when the event hour is in window.
bool EventFiresTrigger(const Event& e, const rules::Rule& r);

/// Binary layout of one Event (wire batches, WAL records, serving
/// snapshots, replay logs):
///   f64 time_hours | i32 device | i32 location | Str state |
///   i32 platform | i32 source_rule_id
/// The smallest encoding (empty state) is 28 bytes.
inline constexpr size_t kMinEventBytes = 28;

/// The Event's one field list (util/binio.h), run in each direction, out
/// of line like rules::RuleFields.
bool EventFields(util::LayoutWriter& io, const Event& e);
bool EventFields(util::LayoutReader& io, Event& e);

/// Encodes one Event; ReadEvent returns false on truncation.
void WriteEvent(util::ByteWriter* w, const Event& e);
bool ReadEvent(util::ByteReader* r, Event* e);

}  // namespace glint::graph
