#include <gtest/gtest.h>

#include "nlp/lexicon.h"

namespace glint::nlp {
namespace {

const Lexicon& Lex() { return Lexicon::Instance(); }

TEST(Lexicon, PosLookup) {
  EXPECT_EQ(Lex().PosOf("turn_on"), Pos::kVerb);
  EXPECT_EQ(Lex().PosOf("window"), Pos::kNoun);
  EXPECT_EQ(Lex().PosOf("the"), Pos::kDeterminer);
  EXPECT_EQ(Lex().PosOf("if"), Pos::kSconj);
  EXPECT_EQ(Lex().PosOf("above"), Pos::kAdposition);
  EXPECT_EQ(Lex().PosOf("zzz_unknown"), Pos::kOther);
}

TEST(Lexicon, PosNames) {
  EXPECT_STREQ(PosName(Pos::kNoun), "NOUN");
  EXPECT_STREQ(PosName(Pos::kVerb), "VERB");
  EXPECT_STREQ(PosName(Pos::kSconj), "SCONJ");
  EXPECT_STREQ(PosName(Pos::kProperNoun), "PROPN");
}

TEST(Lexicon, SynonymClusters) {
  EXPECT_TRUE(Lex().AreSynonyms("turn_on", "activate"));
  EXPECT_TRUE(Lex().AreSynonyms("turn_off", "deactivate"));
  EXPECT_TRUE(Lex().AreSynonyms("open", "raise"));
  EXPECT_FALSE(Lex().AreSynonyms("open", "close"));
  EXPECT_FALSE(Lex().AreSynonyms("turn_on", "turn_off"));
}

TEST(Lexicon, SynonymIsReflexive) {
  EXPECT_TRUE(Lex().AreSynonyms("window", "window"));
  // Even for words without clusters.
  EXPECT_TRUE(Lex().AreSynonyms("zzz", "zzz"));
}

TEST(Lexicon, ClusterOfUnknownIsEmpty) {
  EXPECT_TRUE(Lex().ClusterOf("zzz_unknown").empty());
}

TEST(Lexicon, HypernymDirect) {
  EXPECT_TRUE(Lex().IsHypernym("light", "bulb"));
  EXPECT_TRUE(Lex().IsHypernym("sensor", "motion_sensor"));
  EXPECT_TRUE(Lex().IsHypernym("appliance", "ac"));
  EXPECT_FALSE(Lex().IsHypernym("bulb", "light"));  // direction matters
}

TEST(Lexicon, HypernymTransitive) {
  // bulb -> light -> device
  EXPECT_TRUE(Lex().IsHypernym("device", "bulb"));
  EXPECT_TRUE(Lex().IsHypernym("device", "smoke_alarm"));
}

TEST(Lexicon, HypernymRelatedSiblings) {
  // ac and heater share the "appliance" parent.
  EXPECT_TRUE(Lex().HypernymRelated("ac", "heater"));
  EXPECT_TRUE(Lex().HypernymRelated("window", "door"));  // both openings
}

TEST(Lexicon, MeronymDirect) {
  EXPECT_TRUE(Lex().IsMeronym("lock", "door"));
  EXPECT_TRUE(Lex().IsMeronym("light", "room"));
  EXPECT_FALSE(Lex().IsMeronym("door", "lock"));
}

TEST(Lexicon, MeronymTransitive) {
  // lock is part of door; door is part of house.
  EXPECT_TRUE(Lex().IsMeronym("lock", "house"));
  EXPECT_TRUE(Lex().IsMeronym("light", "house"));  // via room
}

TEST(Lexicon, MeronymRelatedEitherDirection) {
  EXPECT_TRUE(Lex().MeronymRelated("door", "lock"));
  EXPECT_TRUE(Lex().MeronymRelated("lock", "door"));
  EXPECT_FALSE(Lex().MeronymRelated("lock", "oven"));
}

TEST(Lexicon, Channels) {
  EXPECT_EQ(Lex().ChannelOf("thermostat"), "temperature");
  EXPECT_EQ(Lex().ChannelOf("heater"), "temperature");
  EXPECT_EQ(Lex().ChannelOf("smoke_alarm"), "smoke");
  EXPECT_EQ(Lex().ChannelOf("motion_sensor"), "motion");
  EXPECT_EQ(Lex().ChannelOf("email"), "digital");
  EXPECT_TRUE(Lex().ChannelOf("zzz_unknown").empty());
}

TEST(Lexicon, ChannelLinksActuatorsToSensors) {
  // The correlation features rely on heater/temperature sharing a channel.
  EXPECT_EQ(Lex().ChannelOf("heater"), Lex().ChannelOf("temperature"));
  EXPECT_EQ(Lex().ChannelOf("humidifier"), Lex().ChannelOf("humidity"));
}

TEST(Lexicon, NamedEntities) {
  EXPECT_TRUE(Lex().IsNamedEntity("wyze"));
  EXPECT_TRUE(Lex().IsNamedEntity("philips"));
  EXPECT_FALSE(Lex().IsNamedEntity("window"));
}

TEST(Lexicon, StopWords) {
  EXPECT_TRUE(Lex().IsStopWord("the"));
  EXPECT_TRUE(Lex().IsStopWord("is"));
  EXPECT_FALSE(Lex().IsStopWord("window"));
}

TEST(Lexicon, EveryClusterWordIsKnown) {
  // Words used in synonym clusters must resolve in the POS dictionary so
  // the tagger treats them consistently.
  for (const char* w : {"activate", "deactivate", "shut", "secure",
                        "unlatch", "brighten"}) {
    EXPECT_TRUE(Lex().Contains(w)) << w;
  }
}

}  // namespace
}  // namespace glint::nlp
