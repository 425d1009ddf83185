#include "rules/rule_io.h"

namespace glint::rules {
namespace {

template <class IO, class R>  // R = const Rule (encode) or Rule (decode)
bool Fields(IO& io, R& rule) {
  // Triggers and conditions share one layout; a condition has no
  // direction, so it writes 0 there and ignores the value on read.
  auto trigger = [&io](auto& t) {
    int32_t no_direction = 0;
    auto& direction = [&]() -> auto& {
      if constexpr (requires { t.direction; }) {
        return t.direction;
      } else {
        return no_direction;
      }
    }();
    return io.Enum32(t.channel) && io.Enum32(t.device) && io.Enum32(t.cmp) &&
           io.F64(t.lo) && io.F64(t.hi) && io.Str(t.state) &&
           io.I32(direction) && io.Bool32(t.has_time) && io.I32(t.hour_lo) &&
           io.I32(t.hour_hi);
  };
  auto action = [&io](auto& a) {
    return io.Enum32(a.device) && io.Enum32(a.command) && io.F64(a.level);
  };
  return io.I32(rule.id) && io.Enum32(rule.platform) &&
         io.Enum32(rule.location) && trigger(rule.trigger) &&
         io.List(rule.conditions, util::ListBound{"condition", 48}, trigger) &&
         io.List(rule.actions, util::ListBound{"action", 16}, action) &&
         io.Str(rule.text) && io.Bool32(rule.manual_mode_pin);
}

}  // namespace

bool RuleFields(util::LayoutWriter& io, const Rule& rule) {
  return Fields(io, rule);
}

bool RuleFields(util::LayoutReader& io, Rule& rule) {
  return Fields(io, rule);
}

void WriteRule(util::ByteWriter* w, const Rule& rule) {
  util::LayoutWriter io(w);
  RuleFields(io, rule);
}

bool ReadRule(util::ByteReader* r, Rule* rule) {
  util::LayoutReader io(r);
  return RuleFields(io, *rule);
}

}  // namespace glint::rules
