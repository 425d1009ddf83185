#include "nlp/dtw.h"

#include <algorithm>
#include <limits>

namespace glint::nlp {

double DtwDistance(const std::vector<std::vector<double>>& cost,
                   double gap_cost) {
  const size_t n = cost.size();
  const size_t m = n > 0 ? cost[0].size() : 0;
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return gap_cost * static_cast<double>(n + m);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(m + 1, kInf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      double best = std::min({d[i - 1][j], d[i][j - 1], d[i - 1][j - 1]});
      d[i][j] = cost[i - 1][j - 1] + best;
    }
  }
  return d[n][m];
}

double DtwWordDistance(const std::vector<std::string>& a,
                       const std::vector<std::string>& b,
                       const EmbeddingModel& model) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  std::vector<std::vector<double>> cost(a.size(),
                                        std::vector<double>(b.size()));
  for (size_t i = 0; i < a.size(); ++i) {
    const FloatVec& va = model.WordVector(a[i]);
    for (size_t j = 0; j < b.size(); ++j) {
      const FloatVec& vb = model.WordVector(b[j]);
      cost[i][j] = 1.0 - CosineSimilarity(va, vb);
    }
  }
  // Normalise by the longest path length to keep the value in ~[0, 2].
  double path_len = static_cast<double>(std::max(a.size(), b.size()));
  return DtwDistance(cost) / path_len;
}

}  // namespace glint::nlp
