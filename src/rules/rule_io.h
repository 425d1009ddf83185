#pragma once

// Binary layout of rules::Rule — the single serialization used everywhere a
// rule crosses a process boundary (wire frames, dataset store graphs, WAL
// records, serving snapshots):
//
//   rule:      i32 id | i32 platform | i32 location | trigger |
//              u32 n | n conditions | u32 m | m actions | Str text |
//              i32 manual_mode_pin
//   trigger:   i32 channel | i32 device | i32 cmp | f64 lo | f64 hi |
//              Str state | i32 direction | i32 has_time | i32 hour_lo |
//              i32 hour_hi                                   (48+ bytes)
//   condition: the trigger layout, direction written as 0    (48+ bytes)
//   action:    i32 device | i32 command | f64 level          (16 bytes)
//
// Readers return false on truncation; callers convert to Status at the
// file-format boundary.

#include "rules/rule.h"
#include "util/binio.h"

namespace glint::rules {

/// Smallest encoded rule: 12 bytes of header, a 48-byte trigger, two
/// empty lists, an empty text and the pin.
inline constexpr size_t kMinRuleBytes = 76;

/// The rule's one field list (util/binio.h), run in each direction:
/// a LayoutWriter encodes `rule`, a LayoutReader decodes into it. Both
/// are out of line, so a message embedding rules keeps its own inlining.
bool RuleFields(util::LayoutWriter& io, const Rule& rule);
bool RuleFields(util::LayoutReader& io, Rule& rule);

void WriteRule(util::ByteWriter* w, const Rule& rule);
bool ReadRule(util::ByteReader* r, Rule* rule);

}  // namespace glint::rules
