#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace glint::nlp {

/// Coarse part-of-speech tags (a subset of the Universal Dependencies tag
/// set used by the paper's Figure 4 example).
enum class Pos {
  kNoun,
  kVerb,
  kAdjective,
  kAdverb,
  kAdposition,   // in, on, at, ...
  kDeterminer,   // the, a, ...
  kSconj,        // if, when, while, ...
  kCconj,        // and, or, ...
  kPronoun,
  kNumber,
  kParticle,     // to, not
  kProperNoun,   // named entities (brands), discarded by Algorithm 1
  kOther,
};

const char* PosName(Pos pos);

/// Domain lexicon: the WordNet substitute for the smart-home vocabulary.
///
/// The lexicon provides (i) a POS dictionary, (ii) synonym clusters (e.g.
/// "turn_on"/"activate"/"enable"), (iii) a hypernym taxonomy over devices
/// and physical channels (e.g. bulb -> light -> device), (iv)
/// meronym/holonym part-of relations (e.g. lock is part of door, window is
/// part of room), and (v) a named-entity (brand) list. Algorithm 1's binary
/// semantic features V2/V3 are computed from these relations.
class Lexicon {
 public:
  /// Returns the process-wide lexicon (immutable after construction).
  static const Lexicon& Instance();

  /// POS of a known word, or kOther when unknown.
  Pos PosOf(const std::string& word) const;

  /// True if the lexicon knows the word.
  bool Contains(const std::string& word) const;

  /// Synonym-cluster identifier (empty if the word has no cluster). Words in
  /// the same cluster are domain synonyms.
  const std::string& ClusterOf(const std::string& word) const;

  /// True if `a` and `b` are in the same synonym cluster.
  bool AreSynonyms(const std::string& a, const std::string& b) const;

  /// True if `ancestor` is a (transitive) hypernym of `word`,
  /// e.g. IsHypernym("device", "bulb").
  bool IsHypernym(const std::string& ancestor, const std::string& word) const;

  /// True if the two words are related by hypernymy in either direction or
  /// share an immediate hypernym.
  bool HypernymRelated(const std::string& a, const std::string& b) const;

  /// True if `part` is a registered part of `whole` (meronym), transitively.
  bool IsMeronym(const std::string& part, const std::string& whole) const;

  /// True if the two words stand in any part-whole relation (either
  /// direction).
  bool MeronymRelated(const std::string& a, const std::string& b) const;

  /// True for brand / named-entity words (e.g. "wyze") which Algorithm 1
  /// discards before computing similarities.
  bool IsNamedEntity(const std::string& word) const;

  /// True for stop words excluded from averaged embeddings.
  bool IsStopWord(const std::string& word) const;

  /// Physical channel a word is associated with, if any ("" otherwise).
  /// E.g. "thermostat" -> "temperature", "smoke" -> "smoke".
  const std::string& ChannelOf(const std::string& word) const;

 private:
  Lexicon();

  void AddWords(Pos pos, const std::vector<std::string>& words);
  void AddCluster(const std::string& cluster,
                  const std::vector<std::string>& words);
  void AddHypernym(const std::string& parent,
                   const std::vector<std::string>& children);
  void AddMeronym(const std::string& whole,
                  const std::vector<std::string>& parts);
  void AddChannel(const std::string& channel,
                  const std::vector<std::string>& words);

  std::unordered_map<std::string, Pos> pos_;
  std::unordered_map<std::string, std::string> cluster_;
  std::unordered_map<std::string, std::string> hypernym_parent_;
  std::unordered_map<std::string, std::vector<std::string>> meronym_parts_;
  std::unordered_map<std::string, std::string> channel_;
  std::unordered_set<std::string> named_entities_;
  std::unordered_set<std::string> stop_words_;
  std::string empty_;
};

}  // namespace glint::nlp
