#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rules/device.h"

namespace glint::rules {

/// Room/zone a rule's devices live in. Physical channels such as
/// temperature or illuminance only couple rules in the same location (the
/// paper's Sec. 4.8.3 "the oven in the kitchen can hardly influence the
/// temperature in the living room"); house-wide channels (smoke, presence,
/// security, time) couple across locations.
enum class Location {
  kAny = 0,  ///< unspecified — interacts with every location
  kLivingRoom,
  kBedroom,
  kKitchen,
  kBathroom,
  kHallway,
  kGarden,
};
constexpr int kNumLocations = 7;
static_assert(static_cast<int>(Location::kGarden) + 1 == kNumLocations);

const char* LocationWord(Location l);

/// True when the channel is house-scoped (couples all locations).
bool IsHouseWideChannel(Channel c);

/// True when two locations can interact over `channel`.
bool SameScope(Location a, Location b, Channel channel);

/// Comparison applied to a channel value in triggers/conditions.
enum class Comparator {
  kAny = 0,   ///< fires on any event on the channel/device
  kAbove,
  kBelow,
  kBetween,
  kEquals,    ///< state equality ("door is open", "mode == manual")
};
constexpr int kNumComparators = 5;
static_assert(static_cast<int>(Comparator::kEquals) + 1 == kNumComparators);

/// Trigger specification: what event starts the rule.
struct TriggerSpec {
  Channel channel = Channel::kNone;  ///< observed channel
  DeviceType device = DeviceType::kMotionSensor;  ///< observing device
  Comparator cmp = Comparator::kAny;
  double lo = 0;   ///< threshold (kAbove/kBetween) or equality code
  double hi = 0;   ///< upper threshold for kBetween
  /// For state triggers: the device state that fires it ("open", "on", ...)
  std::string state;
  /// Direction of change that fires the trigger: +1 (value rising / state
  /// asserted), -1 (falling / de-asserted), 0 (either).
  int direction = 0;
  /// Optional fixed time-of-day trigger or window [hour_lo, hour_hi].
  bool has_time = false;
  int hour_lo = 0;
  int hour_hi = 24;
};

/// Extra gating condition (same shape as a trigger but does not fire).
struct ConditionSpec {
  Channel channel = Channel::kNone;
  DeviceType device = DeviceType::kMotionSensor;
  Comparator cmp = Comparator::kAny;
  double lo = 0;
  double hi = 0;
  std::string state;
  bool has_time = false;
  int hour_lo = 0;
  int hour_hi = 24;
};

/// One action: a command issued to a device.
struct ActionSpec {
  DeviceType device = DeviceType::kLight;
  Command command = Command::kOn;
  double level = 0;  ///< target level for kSetLevel
};

/// A smart-home automation rule: platform, trigger, conditions, actions,
/// plus the natural-language description a platform would show. The NL text
/// is all the learning system sees; the structured fields are ground truth
/// used by the corpus generator, the threat analyzer (labeling), and the
/// testbed automation engine.
struct Rule {
  int id = 0;
  Platform platform = Platform::kIFTTT;
  Location location = Location::kAny;
  TriggerSpec trigger;
  std::vector<ConditionSpec> conditions;
  std::vector<ActionSpec> actions;
  std::string text;
  /// True when the rule intentionally encodes a "manual mode" style pin
  /// (used by the Home Assistant blueprint generator for the new threat
  /// types of Sec. 4.7).
  bool manual_mode_pin = false;
};

/// Stable 64-bit hash of a rule's semantic content: platform, location,
/// trigger, conditions, actions, text, and the manual-mode pin — everything
/// the embedding models, the correlation discoverer, and the threat
/// analyzer can observe. The rule `id` is deliberately excluded so that two
/// rules with identical content share cache entries (embeddings and
/// pairwise correlation verdicts are pure functions of content, not id).
uint64_t RuleContentHash(const Rule& r);

/// True when executing `action` (in `action_loc`) can cause `trigger`
/// (observed in `trigger_loc`) to fire — the ground truth "action-trigger"
/// correlation the learned classifier of Sec. 3.2.1 approximates. Covers
/// (i) direct device-state matches ("open window" -> "when the window
/// opens"), (ii) environmental channel coupling ("turn on heater" -> "when
/// temperature is above X"), and (iii) sensor intake ("start vacuum" ->
/// "when motion is detected"). Room-scoped channels require compatible
/// locations.
bool ActionTriggers(const ActionSpec& action, const TriggerSpec& trigger,
                    Location action_loc = Location::kAny,
                    Location trigger_loc = Location::kAny);

/// True when any action of `src` can trigger `dst`.
bool RuleTriggersRule(const Rule& src, const Rule& dst);

/// Like RuleTriggersRule but only counts *instantaneous* links (direct
/// device-state matches and fast environmental effects). Slow channels such
/// as temperature drift are excluded; the action-loop detector uses this so
/// that thermostat-style oscillations are classified as reverts, not loops.
bool RuleTriggersRuleInstant(const Rule& src, const Rule& dst);

/// State keyword produced by a command ("open", "off", "locked", ...).
std::string CommandResultState(Command cmd);

/// True when `state` on device `d` is asserted by command `cmd`
/// (e.g. cmd=kOpen asserts state "open"; kOff asserts "off").
bool CommandAssertsState(Command cmd, const std::string& state);

/// True when `cmd` *negates* `state` (e.g. kClose negates "open").
bool CommandNegatesState(Command cmd, const std::string& state);

}  // namespace glint::rules
