#pragma once

#include <string>
#include <vector>

#include "nlp/embedding.h"
#include "util/vecmath.h"

namespace glint::nlp {

/// Dynamic time warping distance between two sequences under an arbitrary
/// pairwise cost. Used by Algorithm 1 (line 4) to compare the verb/object
/// sequences of a trigger and an action, whose lengths vary.
///
/// `cost[i * m + j]` must be the alignment cost of a[i] with b[j], for
/// sequence lengths n and m. Returns the minimal cumulative alignment cost;
/// empty-vs-nonempty costs the sum of the other sequence aligned to nothing
/// at `gap_cost` each, empty-vs-empty is 0.
double DtwDistance(const std::vector<double>& cost, size_t n, size_t m,
                   double gap_cost = 1.0);

/// A word sequence prepared once for any number of DtwWordDistance calls:
/// each word's embedding and its norm, as the model caches them.
struct WordSequence {
  /// One per word; owned by the model, whose entries are never erased.
  std::vector<const FloatVec*> vectors;
  /// norms[j] = Norm(*vectors[j]).
  std::vector<double> norms;

  size_t size() const { return vectors.size(); }
};

/// Looks up and prepares `words` in `model`.
WordSequence PrepareWords(const std::vector<std::string>& words,
                          const EmbeddingModel& model);

/// DTW over word sequences with (1 - cosine similarity) cost in the
/// embedding model; normalised by the warping path length so values are
/// comparable across sequence lengths. Each cost cell is
/// 1 - CosineSimilarity(a word, b word) to the bit: its dot product is
/// Dot's sequential sum, and the cells' sums run side by side.
double DtwWordDistance(const WordSequence& a, const WordSequence& b);

}  // namespace glint::nlp
