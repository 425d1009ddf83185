#include <gtest/gtest.h>

#include <algorithm>

#include "nlp/dep_parser.h"
#include "nlp/pos_tagger.h"

namespace glint::nlp {
namespace {

bool Has(const std::vector<std::string>& v, const std::string& w) {
  return std::find(v.begin(), v.end(), w) != v.end();
}

// ---------------------------------------------------------------------------
// POS tagger
// ---------------------------------------------------------------------------

TEST(PosTagger, Figure4Example) {
  // "Turn on light if the door opens" — VERB ... NOUN SCONJ DET NOUN VERB.
  auto tagged = PosTagger::TagSentence("Turn on light if the door opens");
  ASSERT_EQ(tagged.size(), 6u);
  EXPECT_EQ(tagged[0].text, "turn_on");
  EXPECT_EQ(tagged[0].pos, Pos::kVerb);
  EXPECT_EQ(tagged[1].pos, Pos::kNoun);        // light
  EXPECT_EQ(tagged[2].pos, Pos::kSconj);       // if
  EXPECT_EQ(tagged[3].pos, Pos::kDeterminer);  // the
  EXPECT_EQ(tagged[4].pos, Pos::kNoun);        // door
}

TEST(PosTagger, SuffixRules) {
  auto tagged = PosTagger::TagSentence("the gizmo is slowly whirring");
  // "whirring" unknown -> -ing suffix -> VERB; "slowly" -> ADV.
  EXPECT_EQ(tagged.back().pos, Pos::kVerb);
  bool adv = false;
  for (const auto& t : tagged) adv |= t.pos == Pos::kAdverb;
  EXPECT_TRUE(adv);
}

TEST(PosTagger, NumbersTagged) {
  auto tagged = PosTagger::TagSentence("above 85 degrees");
  EXPECT_EQ(tagged[1].pos, Pos::kNumber);
}

TEST(PosTagger, BrandTaggedProperNoun) {
  auto tagged = PosTagger::TagSentence("the wyze camera");
  EXPECT_EQ(tagged[1].pos, Pos::kProperNoun);
}

// ---------------------------------------------------------------------------
// Dependency parser
// ---------------------------------------------------------------------------

TEST(DepParser, IftttTriggerActionSplit) {
  auto parsed =
      DepParser::Parse("If the smoke alarm is beeping, then open the window.");
  ASSERT_TRUE(parsed.has_trigger);
  const Clause* trigger = parsed.trigger();
  ASSERT_NE(trigger, nullptr);
  EXPECT_TRUE(Has(trigger->nouns, "smoke_alarm"));
  auto actions = parsed.actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0]->root_verb, "open");
  EXPECT_TRUE(Has(actions[0]->objects, "window"));
}

TEST(DepParser, ActionFirstSentence) {
  auto parsed = DepParser::Parse("Turn off lights if playing movies.");
  ASSERT_TRUE(parsed.has_trigger);
  const Clause* trigger = parsed.trigger();
  EXPECT_TRUE(Has(trigger->verbs, "playing"));
  auto actions = parsed.actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0]->root_verb, "turn_off");
  EXPECT_TRUE(Has(actions[0]->objects, "lights"));
}

TEST(DepParser, ImperativeWithoutTrigger) {
  auto parsed = DepParser::Parse("Lock the door.");
  EXPECT_FALSE(parsed.has_trigger);
  auto actions = parsed.actions();
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0]->root_verb, "lock");
}

TEST(DepParser, MultiActionConjunction) {
  auto parsed = DepParser::Parse(
      "If the smoke alarm is beeping, then open the window and unlock the "
      "door.");
  ASSERT_TRUE(parsed.has_trigger);
  auto actions = parsed.actions();
  ASSERT_GE(actions.size(), 1u);
  // "and" does not split the clause; both verbs are in one action clause.
  std::vector<std::string> all_verbs;
  for (const auto* a : actions) {
    all_verbs.insert(all_verbs.end(), a->verbs.begin(), a->verbs.end());
  }
  EXPECT_TRUE(Has(all_verbs, "open"));
  EXPECT_TRUE(Has(all_verbs, "unlock"));
}

TEST(DepParser, WhenClause) {
  auto parsed =
      DepParser::Parse("When humidity is below 30 percent, turn on "
                       "humidifier.");
  ASSERT_TRUE(parsed.has_trigger);
  EXPECT_TRUE(Has(parsed.trigger()->nouns, "humidity"));
}

TEST(DepParser, ModifiersCaptured) {
  auto parsed = DepParser::Parse("If the outdoor temperature is high, open "
                                 "windows.");
  ASSERT_TRUE(parsed.has_trigger);
  EXPECT_TRUE(Has(parsed.trigger()->modifiers, "outdoor") ||
              Has(parsed.trigger()->modifiers, "high"));
}

TEST(DepParser, AlexaVoiceStyle) {
  auto parsed = DepParser::Parse("Alexa, play movies.");
  auto actions = parsed.actions();
  ASSERT_GE(actions.size(), 1u);
  EXPECT_TRUE(Has(actions[0]->verbs, "play"));
}

TEST(DepParser, EmptyInputSafe) {
  auto parsed = DepParser::Parse("");
  EXPECT_TRUE(parsed.clauses.empty());
  EXPECT_TRUE(parsed.actions().empty());
  EXPECT_EQ(parsed.trigger(), nullptr);
}

}  // namespace
}  // namespace glint::nlp
