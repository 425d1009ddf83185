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
/// `cost[i][j]` must be the alignment cost of a[i] with b[j]. Returns the
/// minimal cumulative alignment cost; empty-vs-nonempty costs the sum of the
/// other sequence aligned to nothing at `gap_cost` each, empty-vs-empty is 0.
double DtwDistance(const std::vector<std::vector<double>>& cost,
                   double gap_cost = 1.0);

/// DTW over word sequences with (1 - cosine similarity) cost in the given
/// embedding model; normalised by the warping path length so values are
/// comparable across sequence lengths.
double DtwWordDistance(const std::vector<std::string>& a,
                       const std::vector<std::string>& b,
                       const EmbeddingModel& model);

}  // namespace glint::nlp
