#pragma once

// Fixtures whose encodings are pinned as hex in wire_test (the 9 request
// and 7 reply types), recovery_test (the 4 WAL ops and a snapshot),
// gnn_model_test (a model and drift-statistics file) and graph_test (a
// dataset and a replay log). Every field is set to a non-default value, so
// a codec that drops, reorders or resizes a field changes the bytes. The
// recorded bytes were produced by the codecs before they were rewritten as
// one field list per layout; never re-record them to make a codec change
// pass.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/event_log.h"
#include "rules/rule.h"

namespace glint::fixtures {

inline std::string Hex(const std::vector<char>& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  char buf[3];
  for (char c : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

inline std::vector<char> Unhex(const std::string& hex) {
  std::vector<char> out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

/// 64-bit FNV-1a of `bytes`: pins a recording too long to keep as hex.
inline uint64_t Fnv1a(const std::vector<char>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A rule exercising every field: a directed, timed trigger, two
/// conditions (one timed, one numeric), two actions and the manual pin.
inline rules::Rule Rule(int id) {
  rules::Rule r;
  r.id = id;
  r.platform = rules::Platform::kHomeAssistant;
  r.location = rules::Location::kKitchen;
  r.trigger.channel = rules::Channel::kTemperature;
  r.trigger.device = rules::DeviceType::kThermostat;
  r.trigger.cmp = rules::Comparator::kAbove;
  r.trigger.lo = 26.5;
  r.trigger.hi = -1.25;
  r.trigger.state = "hot";
  r.trigger.direction = -1;
  r.trigger.has_time = true;
  r.trigger.hour_lo = 7;
  r.trigger.hour_hi = 21;
  rules::ConditionSpec c;
  c.channel = rules::Channel::kPresence;
  c.device = rules::DeviceType::kMotionSensor;
  c.cmp = rules::Comparator::kEquals;
  c.lo = 1;
  c.state = "home";
  c.has_time = true;
  c.hour_lo = 18;
  c.hour_hi = 23;
  r.conditions.push_back(c);
  c = rules::ConditionSpec();
  c.channel = rules::Channel::kHumidity;
  c.cmp = rules::Comparator::kBetween;
  c.lo = 30;
  c.hi = 60.5;
  r.conditions.push_back(c);
  r.actions.push_back({rules::DeviceType::kAc, rules::Command::kOn, 0});
  r.actions.push_back(
      {rules::DeviceType::kLight, rules::Command::kDim, 0.375});
  r.text = "When the kitchen is hot and someone is home, cool it down.";
  r.manual_mode_pin = true;
  return r;
}

/// An event exercising every field.
inline graph::Event Event(double t, int source_rule_id) {
  graph::Event e;
  e.time_hours = t;
  e.device = rules::DeviceType::kWindow;
  e.location = rules::Location::kBedroom;
  e.state = "open";
  e.platform = rules::Platform::kAlexa;
  e.source_rule_id = source_rule_id;
  return e;
}

}  // namespace glint::fixtures
