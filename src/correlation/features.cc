#include "correlation/features.h"

#include "nlp/dep_parser.h"
#include "nlp/lexicon.h"
#include "obs/obs.h"
#include "util/status.h"

namespace glint::correlation {
namespace {

// Concatenated nouns/verbs over the action clauses of a parsed rule.
void ActionNounsVerbs(const nlp::ParsedRule& parsed,
                      std::vector<std::string>* nouns,
                      std::vector<std::string>* verbs) {
  for (const nlp::Clause* c : parsed.actions()) {
    nouns->insert(nouns->end(), c->nouns.begin(), c->nouns.end());
    verbs->insert(verbs->end(), c->verbs.begin(), c->verbs.end());
  }
}

void TriggerNounsVerbs(const nlp::ParsedRule& parsed,
                       std::vector<std::string>* nouns,
                       std::vector<std::string>* verbs) {
  const nlp::Clause* t = parsed.trigger();
  if (t == nullptr && !parsed.clauses.empty()) t = &parsed.clauses[0];
  if (t == nullptr) return;
  nouns->insert(nouns->end(), t->nouns.begin(), t->nouns.end());
  verbs->insert(verbs->end(), t->verbs.begin(), t->verbs.end());
}

bool AnySynonym(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  const auto& lex = nlp::Lexicon::Instance();
  for (const auto& wa : a) {
    for (const auto& wb : b) {
      if (lex.AreSynonyms(wa, wb)) return true;
    }
  }
  return false;
}

bool AnyHypernym(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  const auto& lex = nlp::Lexicon::Instance();
  for (const auto& wa : a) {
    for (const auto& wb : b) {
      if (lex.HypernymRelated(wa, wb)) return true;
    }
  }
  return false;
}

bool AnyMeronym(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  const auto& lex = nlp::Lexicon::Instance();
  for (const auto& wa : a) {
    for (const auto& wb : b) {
      if (lex.MeronymRelated(wa, wb)) return true;
    }
  }
  return false;
}

// Shared-channel indicator: do the two word sets touch a common physical
// channel? (Captures "heater" ~ "temperature" style couplings that pure
// lexical relations miss.)
bool SharedChannel(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  const auto& lex = nlp::Lexicon::Instance();
  for (const auto& wa : a) {
    const std::string& ca = lex.ChannelOf(wa);
    if (ca.empty()) continue;
    for (const auto& wb : b) {
      if (lex.ChannelOf(wb) == ca) return true;
    }
  }
  return false;
}

}  // namespace

FeatureExtractor::RuleTerms FeatureExtractor::Terms(
    const rules::Rule& rule) const {
  GLINT_OBS_COUNT("glint.correlation.rule_terms", 1);
  const nlp::ParsedRule parsed = nlp::DepParser::Parse(rule.text);
  RuleTerms terms;
  ActionNounsVerbs(parsed, &terms.action.nouns, &terms.action.verbs);
  TriggerNounsVerbs(parsed, &terms.trigger.nouns, &terms.trigger.verbs);
  for (Side* side : {&terms.action, &terms.trigger}) {
    side->all = side->nouns;
    side->all.insert(side->all.end(), side->verbs.begin(), side->verbs.end());
    side->noun_words = nlp::PrepareWords(side->nouns, *model_);
    side->verb_words = nlp::PrepareWords(side->verbs, *model_);
    side->average = model_->Average(side->all);
  }
  return terms;
}

FloatVec FeatureExtractor::PairFeatures(const RuleTerms& src,
                                        const RuleTerms& dst) const {
  const Side& a = src.action;   // PoS(A), line 3
  const Side& t = dst.trigger;  // PoS(T), line 2

  FloatVec out;
  out.reserve(Dim());
  // V1 — DTW similarities (line 4).
  out.push_back(static_cast<float>(
      nlp::DtwWordDistance(a.verb_words, t.verb_words)));
  out.push_back(static_cast<float>(
      nlp::DtwWordDistance(a.noun_words, t.noun_words)));
  // V2 — binary verb relations (line 5).
  out.push_back(AnySynonym(a.verbs, t.verbs) ? 1.f : 0.f);
  out.push_back(AnyHypernym(a.verbs, t.verbs) ? 1.f : 0.f);
  // V3 — binary object relations (line 6).
  out.push_back(AnySynonym(a.nouns, t.nouns) ? 1.f : 0.f);
  out.push_back(AnyMeronym(a.nouns, t.nouns) ? 1.f : 0.f);
  out.push_back(SharedChannel(a.all, t.all) ? 1.f : 0.f);
  // V4 — E_T + E_A (line 7).
  for (size_t i = 0; i < a.average.size(); ++i) {
    out.push_back(a.average[i] + t.average[i]);
  }
  GLINT_CHECK(out.size() == Dim());
  return out;
}

FloatVec FeatureExtractor::ExtractPair(const rules::Rule& src,
                                       const rules::Rule& dst) const {
  return PairFeatures(Terms(src), Terms(dst));
}

ml::Dataset BuildPairDataset(const std::vector<rules::Rule>& corpus,
                             const FeatureExtractor& extractor,
                             const PairDatasetConfig& config) {
  GLINT_CHECK(corpus.size() >= 2);
  Rng rng(config.seed);
  ml::Dataset ds;
  int pos = 0, neg = 0;
  int attempts = 0;
  const int max_attempts = 400 * (config.num_positive + config.num_negative);
  while ((pos < config.num_positive || neg < config.num_negative) &&
         attempts++ < max_attempts) {
    const auto& a = corpus[rng.Below(corpus.size())];
    const auto& b = corpus[rng.Below(corpus.size())];
    if (a.id == b.id) continue;
    const bool correlated = rules::RuleTriggersRule(a, b);
    if (correlated && pos < config.num_positive) {
      ds.Add(extractor.ExtractPair(a, b), 1);
      ++pos;
    } else if (!correlated && neg < config.num_negative) {
      ds.Add(extractor.ExtractPair(a, b), 0);
      ++neg;
    }
  }
  return ds;
}

}  // namespace glint::correlation
