#include "nlp/pos_tagger.h"

#include <cctype>

#include "util/string_utils.h"

namespace glint::nlp {
namespace {

bool IsNumber(const std::string& w) {
  if (w.empty()) return false;
  for (char c : w) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Pos SuffixGuess(const std::string& w) {
  if (IsNumber(w)) return Pos::kNumber;
  if (EndsWith(w, "ing") || EndsWith(w, "ed")) return Pos::kVerb;
  if (EndsWith(w, "ly")) return Pos::kAdverb;
  if (EndsWith(w, "ous") || EndsWith(w, "ful") || EndsWith(w, "ive")) {
    return Pos::kAdjective;
  }
  return Pos::kNoun;
}

}  // namespace

std::vector<TaggedToken> PosTagger::Tag(const std::vector<Token>& tokens) {
  const Lexicon& lex = Lexicon::Instance();
  std::vector<TaggedToken> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) {
    Pos pos = lex.Contains(t.text) ? lex.PosOf(t.text) : SuffixGuess(t.text);
    out.push_back({t.text, pos});
  }
  // Contextual repair.
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0 && out[i - 1].pos == Pos::kDeterminer &&
        out[i].pos == Pos::kVerb && !lex.Contains(out[i].text)) {
      out[i].pos = Pos::kNoun;  // "the <unknown-ing>" reads as a noun.
    }
    if (i == 0 && out[i].pos == Pos::kNoun && !lex.Contains(out[i].text)) {
      // Clause-initial unknown in imperative position: likely a verb
      // ("Dim the lights" with "dim" unknown would land here).
      if (out.size() > 1 && (out[1].pos == Pos::kDeterminer ||
                             out[1].pos == Pos::kNoun)) {
        out[i].pos = Pos::kVerb;
      }
    }
  }
  return out;
}

std::vector<TaggedToken> PosTagger::TagSentence(const std::string& sentence) {
  return Tag(Tokenizer::Tokenize(sentence));
}

}  // namespace glint::nlp
