#pragma once

#include <string>
#include <vector>

#include "nlp/lexicon.h"
#include "nlp/tokenizer.h"

namespace glint::nlp {

/// A token annotated with its part of speech.
struct TaggedToken {
  std::string text;
  Pos pos = Pos::kOther;
};

/// Dictionary + rule POS tagger (the spaCy substitute feeding Algorithm 1).
///
/// Strategy: (1) lexicon lookup; (2) morphological suffix rules for unknown
/// words (-ing/-ed -> VERB, -ly -> ADV, digits -> NUM); (3) contextual
/// repair (a word after a determiner is a noun; a clause-initial unknown in
/// imperative position is a verb).
class PosTagger {
 public:
  /// Tags a tokenized sentence.
  static std::vector<TaggedToken> Tag(const std::vector<Token>& tokens);

  /// Tokenizes then tags.
  static std::vector<TaggedToken> TagSentence(const std::string& sentence);
};

}  // namespace glint::nlp
