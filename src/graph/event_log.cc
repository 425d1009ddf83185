#include "graph/event_log.h"

#include <cmath>

#include "util/string_utils.h"

namespace glint::graph {

void EventLog::Append(Event e) {
  // Keep chronological order (append is nearly always in order already).
  if (!events_.empty() && e.time_hours < events_.back().time_hours) {
    auto it = events_.end();
    while (it != events_.begin() && (it - 1)->time_hours > e.time_hours) --it;
    events_.insert(it, std::move(e));
    return;
  }
  events_.push_back(std::move(e));
}

std::vector<Event> EventLog::Window(double t, double window_hours) const {
  std::vector<Event> out;
  for (const auto& e : events_) {
    if (e.time_hours <= t && e.time_hours >= t - window_hours) {
      out.push_back(e);
    }
  }
  return out;
}

std::string EventLog::StateAt(rules::DeviceType device, rules::Location loc,
                              double t) const {
  std::string state;
  for (const auto& e : events_) {
    if (e.time_hours > t) break;
    if (e.device == device &&
        (loc == rules::Location::kAny || e.location == rules::Location::kAny ||
         e.location == loc)) {
      state = e.state;
    }
  }
  return state;
}

std::vector<std::string> EventLog::Render() const {
  std::vector<std::string> out;
  for (const auto& e : events_) {
    const int day = static_cast<int>(e.time_hours / 24);
    int total_seconds =
        static_cast<int>(std::round((e.time_hours - day * 24) * 3600));
    total_seconds = std::min(total_seconds, 24 * 3600 - 1);
    const int hh = total_seconds / 3600;
    const int mm = (total_seconds / 60) % 60;
    const int ss = total_seconds % 60;
    out.push_back(StrFormat("2022-05-%02d %02d:%02d:%02d  %s is %s (%s)",
                            8 + day, hh, mm, ss,
                            rules::DeviceWord(e.device), e.state.c_str(),
                            rules::PlatformName(e.platform)));
  }
  return out;
}

bool EventFiresTrigger(const Event& e, const rules::Rule& r) {
  const auto& t = r.trigger;
  if (!rules::SameScope(e.location, r.location, t.channel)) return false;

  // Time-of-day trigger: the event's hour falls in the trigger window.
  if (t.has_time && t.channel == rules::Channel::kTime) {
    const double hour = std::fmod(e.time_hours, 24.0);
    return hour >= t.hour_lo && hour <= t.hour_hi + 1;
  }

  // Device-state trigger: same device class and matching state keyword.
  if (e.device == t.device || rules::StateChannelOf(e.device) == t.channel ||
      rules::SensedChannelOf(e.device) == t.channel) {
    if (t.state.empty()) return true;
    return e.state == t.state;
  }
  return false;
}

namespace {

template <class IO, class E>  // E = const Event (encode) or Event (decode)
bool Fields(IO& io, E& e) {
  return io.F64(e.time_hours) && io.Enum32(e.device) &&
         io.Enum32(e.location) && io.Str(e.state) && io.Enum32(e.platform) &&
         io.I32(e.source_rule_id);
}

}  // namespace

bool EventFields(util::LayoutWriter& io, const Event& e) {
  return Fields(io, e);
}

bool EventFields(util::LayoutReader& io, Event& e) { return Fields(io, e); }

void WriteEvent(util::ByteWriter* w, const Event& e) {
  util::LayoutWriter io(w);
  EventFields(io, e);
}

bool ReadEvent(util::ByteReader* r, Event* e) {
  util::LayoutReader io(r);
  return EventFields(io, *e);
}

}  // namespace glint::graph
