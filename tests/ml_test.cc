#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "ml/decision_tree.h"
#include "ml/isolation_forest.h"
#include "ml/kfold.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/linear_svc.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/ocsvm.h"
#include "ml/pca.h"
#include "ml/scaler.h"

namespace glint::ml {
namespace {

// Two Gaussian blobs, linearly separable with margin.
Dataset MakeBlobs(int n_per_class, double separation, uint64_t seed,
                  size_t dim = 6) {
  Rng rng(seed);
  Dataset ds;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < n_per_class; ++i) {
      FloatVec x(dim);
      for (size_t d = 0; d < dim; ++d) {
        x[d] = static_cast<float>(rng.Gaussian(c == 1 ? separation : 0, 1.0));
      }
      ds.Add(std::move(x), c);
    }
  }
  return ds;
}

// XOR-style dataset (not linearly separable).
Dataset MakeXor(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  for (int i = 0; i < n; ++i) {
    const double a = rng.Gaussian(rng.Chance(0.5) ? 2 : -2, 0.5);
    const double b = rng.Gaussian(rng.Chance(0.5) ? 2 : -2, 0.5);
    ds.Add({static_cast<float>(a), static_cast<float>(b)},
           (a > 0) != (b > 0) ? 1 : 0);
  }
  return ds;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, PerfectPrediction) {
  auto m = BinaryMetrics({0, 1, 1, 0}, {0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, KnownConfusion) {
  // TP=1 FP=1 FN=1 TN=1 -> precision=recall=f1=0.5, acc=0.5
  auto m = BinaryMetrics({1, 1, 0, 0}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(m.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
}

TEST(Metrics, AllNegativePredictionsGiveZeroPrecision) {
  auto m = BinaryMetrics({1, 1, 0}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
}

TEST(Metrics, WeightedAveragesBySupport) {
  // Class 0 has 3 samples (all right), class 1 has 1 (wrong):
  // weighted recall = 0.75*1 + 0.25*0 = 0.75.
  auto m = WeightedMetrics({0, 0, 0, 1}, {0, 0, 0, 0}, 2);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(m.recall, 0.75);
}

TEST(Metrics, SummarizeStats) {
  auto s = Summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

// ---------------------------------------------------------------------------
// Scaler / dataset helpers
// ---------------------------------------------------------------------------

TEST(Scaler, ZeroMeanUnitVariance) {
  StandardScaler s;
  std::vector<FloatVec> xs{{0, 10}, {2, 20}, {4, 30}};
  s.Fit(xs);
  s.TransformInPlace(&xs);
  double mean0 = 0;
  for (const auto& x : xs) mean0 += x[0];
  EXPECT_NEAR(mean0 / 3, 0.0, 1e-6);
}

TEST(Scaler, ConstantFeatureSafe) {
  StandardScaler s;
  std::vector<FloatVec> xs{{5, 1}, {5, 2}};
  s.Fit(xs);
  auto t = s.Transform({5, 1.5});
  EXPECT_FLOAT_EQ(t[0], 0.f);  // centred, unit scale
}

TEST(DatasetHelpers, BalancedClassWeightsInverse) {
  auto w = BalancedClassWeights({0, 0, 0, 1}, 2);
  EXPECT_GT(w[1], w[0]);
  EXPECT_NEAR(w[0] * 3 + w[1] * 1, 4.0, 1e-9);  // reweighted mass preserved
}

TEST(DatasetHelpers, OversampleDoublesMinority) {
  Dataset ds = MakeBlobs(10, 3, 1);
  // Remove most of class 1 to create imbalance.
  Dataset imb;
  int kept1 = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.y[i] == 1 && kept1 >= 3) continue;
    kept1 += ds.y[i] == 1;
    imb.Add(ds.x[i], ds.y[i]);
  }
  Rng rng(2);
  Dataset over = Oversample(imb, 1, 2.0, &rng);
  int n1 = 0;
  for (int y : over.y) n1 += y;
  EXPECT_EQ(n1, 6);
}

TEST(DatasetHelpers, TrainTestSplitPartitions) {
  Dataset ds = MakeBlobs(50, 3, 3);
  Rng rng(4);
  auto split = TrainTestSplit(ds, 0.8, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  EXPECT_EQ(split.train.size(), 80u);
}

// ---------------------------------------------------------------------------
// Classifiers (parameterized over implementations)
// ---------------------------------------------------------------------------

using Factory = std::function<std::unique_ptr<Classifier>()>;

struct ModelCase {
  const char* name;
  Factory make;
};

// Print a case by its model name only: the default printer dumps the
// pointers, so the test names would change from run to run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class ClassifierSuite : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ClassifierSuite, LearnsSeparableBlobs) {
  auto clf = GetParam().make();
  Dataset train = MakeBlobs(80, 4.0, 11);
  Dataset test = MakeBlobs(40, 4.0, 12);
  clf->Fit(train, BalancedClassWeights(train.y, 2));
  auto m = BinaryMetrics(test.y, clf->PredictBatch(test.x));
  EXPECT_GT(m.accuracy, 0.92) << GetParam().name;
}

TEST_P(ClassifierSuite, ProbaMonotoneWithClass) {
  auto clf = GetParam().make();
  Dataset train = MakeBlobs(80, 4.0, 13);
  clf->Fit(train, {});
  // Deep inside each blob the probability ordering must hold.
  FloatVec neg(6, 0.f), pos(6, 4.f);
  EXPECT_LT(clf->PredictProba(neg), clf->PredictProba(pos))
      << GetParam().name;
}

TEST_P(ClassifierSuite, DeterministicAcrossRuns) {
  auto a = GetParam().make();
  auto b = GetParam().make();
  Dataset train = MakeBlobs(60, 3.0, 17);
  a->Fit(train, {});
  b->Fit(train, {});
  Dataset probe = MakeBlobs(20, 3.0, 18);
  EXPECT_EQ(a->PredictBatch(probe.x), b->PredictBatch(probe.x))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ClassifierSuite,
    ::testing::Values(
        ModelCase{"svc",
                  Factory([] {
                    return std::unique_ptr<Classifier>(new LinearSvc());
                  })},
        ModelCase{"mlp",
                  Factory([] {
                    Mlp::Params p;
                    p.epochs = 40;
                    return std::unique_ptr<Classifier>(new Mlp(p));
                  })},
        ModelCase{"knn",
                  Factory([] {
                    return std::unique_ptr<Classifier>(new Knn());
                  })},
        ModelCase{"rforest",
                  Factory([] {
                    return std::unique_ptr<Classifier>(new RandomForest());
                  })},
        ModelCase{"gboost", Factory([] {
                    return std::unique_ptr<Classifier>(new GradientBoosting());
                  })}));

TEST(NonLinearModels, SolveXor) {
  // Tree/ensemble/NN models must handle XOR; the linear SVC cannot.
  Dataset train = MakeXor(400, 21);
  Dataset test = MakeXor(100, 22);

  Mlp::Params mp;
  mp.epochs = 120;
  Mlp mlp(mp);
  mlp.Fit(train, {});
  EXPECT_GT(BinaryMetrics(test.y, mlp.PredictBatch(test.x)).accuracy, 0.9);

  RandomForest forest;
  forest.Fit(train, {});
  EXPECT_GT(BinaryMetrics(test.y, forest.PredictBatch(test.x)).accuracy, 0.9);

  GradientBoosting gb;
  gb.Fit(train, {});
  EXPECT_GT(BinaryMetrics(test.y, gb.PredictBatch(test.x)).accuracy, 0.9);

  LinearSvc svc;
  svc.Fit(train, {});
  EXPECT_LT(BinaryMetrics(test.y, svc.PredictBatch(test.x)).accuracy, 0.75);
}

TEST(ClassWeights, ShiftDecisionTowardMinority) {
  // Highly imbalanced data: without weights the minority recall collapses;
  // with balanced weights it recovers.
  Rng rng(31);
  Dataset train;
  for (int i = 0; i < 300; ++i) {
    train.Add({static_cast<float>(rng.Gaussian(0, 1))}, 0);
  }
  for (int i = 0; i < 15; ++i) {
    train.Add({static_cast<float>(rng.Gaussian(2.0, 1))}, 1);
  }
  Dataset test;
  for (int i = 0; i < 50; ++i) {
    test.Add({static_cast<float>(rng.Gaussian(2.0, 1))}, 1);
  }
  LinearSvc plain;
  plain.Fit(train, {});
  LinearSvc weighted;
  weighted.Fit(train, BalancedClassWeights(train.y, 2));
  const double recall_plain =
      BinaryMetrics(test.y, plain.PredictBatch(test.x)).recall;
  const double recall_weighted =
      BinaryMetrics(test.y, weighted.PredictBatch(test.x)).recall;
  EXPECT_GT(recall_weighted, recall_plain);
}

// ---------------------------------------------------------------------------
// Decision tree internals
// ---------------------------------------------------------------------------

TEST(DecisionTree, FitsStepFunctionRegression) {
  std::vector<FloatVec> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i < 50 ? 1.0 : 5.0);
  }
  DecisionTree tree;
  tree.FitRegressor(x, y);
  EXPECT_NEAR(tree.PredictValue({10}), 1.0, 1e-9);
  EXPECT_NEAR(tree.PredictValue({90}), 5.0, 1e-9);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Dataset ds = MakeBlobs(100, 1.0, 41, 4);
  DecisionTree::Params p;
  p.max_depth = 3;
  DecisionTree tree(p);
  tree.FitClassifier(ds.x, ds.y, {}, 2);
  EXPECT_LE(tree.Depth(), 3);
}

TEST(DecisionTree, PureNodeIsLeaf) {
  std::vector<FloatVec> x{{1}, {2}, {3}};
  std::vector<int> y{1, 1, 1};
  DecisionTree tree;
  tree.FitClassifier(x, y, {}, 2);
  EXPECT_EQ(tree.Depth(), 0);
  const auto& dist = tree.PredictDistribution({5});
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_GT(dist[1], dist[0]);
}

// ---------------------------------------------------------------------------
// KMeans
// ---------------------------------------------------------------------------

TEST(KMeansTest, SeparatesTwoBlobs) {
  Dataset ds = MakeBlobs(100, 8.0, 51, 2);
  KMeans::Params p;
  p.k = 2;
  KMeans km(p);
  km.Fit(ds.x);
  // Clusters must align with the ground-truth blobs (up to label swap).
  int agree = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    agree += km.labels()[i] == ds.y[i] ? 1 : 0;
  }
  const double rate = static_cast<double>(agree) / static_cast<double>(ds.size());
  EXPECT_TRUE(rate > 0.95 || rate < 0.05);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  // Inertia: the within-cluster sum of squared distances of the fit.
  auto inertia = [](const KMeans& km, const std::vector<FloatVec>& xs) {
    double total = 0;
    for (const auto& x : xs) {
      const double d = EuclideanDistance(
          x, km.centroids()[static_cast<size_t>(km.Assign(x))]);
      total += d * d;
    }
    return total;
  };
  Dataset ds = MakeBlobs(60, 6.0, 53, 2);
  KMeans::Params p1;
  p1.k = 1;
  KMeans km1(p1);
  km1.Fit(ds.x);
  KMeans::Params p4;
  p4.k = 4;
  KMeans km4(p4);
  km4.Fit(ds.x);
  EXPECT_LT(inertia(km4, ds.x), inertia(km1, ds.x));
}

TEST(KMeansTest, AssignReturnsNearestCentroid) {
  KMeans::Params p;
  p.k = 2;
  KMeans km(p);
  km.Fit({{0, 0}, {0, 1}, {10, 10}, {10, 11}});
  const int a = km.Assign({0, 0.5});
  const int b = km.Assign({10, 10.5});
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// PCA
// ---------------------------------------------------------------------------

TEST(PcaTest, RecoversPrincipalDirection) {
  // Data varies mostly along (1, 1)/sqrt(2).
  Rng rng(61);
  std::vector<FloatVec> xs;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.Gaussian(0, 5);
    const double n = rng.Gaussian(0, 0.3);
    xs.push_back({static_cast<float>(t + n), static_cast<float>(t - n)});
  }
  Pca::Params p;
  p.num_components = 2;
  Pca pca(p);
  pca.Fit(xs);
  const auto& c0 = pca.components()[0];
  EXPECT_NEAR(std::abs(c0[0]), std::abs(c0[1]), 0.05);
  EXPECT_GT(pca.explained_variance()[0], 10 * pca.explained_variance()[1]);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  Dataset ds = MakeBlobs(100, 2.0, 63, 5);
  Pca::Params p;
  p.num_components = 3;
  Pca pca(p);
  pca.Fit(ds.x);
  const auto& c = pca.components();
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(Norm(c[i]), 1.0, 1e-3);
    for (size_t j = i + 1; j < c.size(); ++j) {
      EXPECT_NEAR(Dot(c[i], c[j]), 0.0, 1e-3);
    }
  }
}

TEST(PcaTest, TransformReducesDimension) {
  Dataset ds = MakeBlobs(50, 2.0, 65, 8);
  Pca pca;
  pca.Fit(ds.x);
  EXPECT_EQ(pca.Transform(ds.x[0]).size(), 2u);
  EXPECT_EQ(pca.TransformBatch(ds.x).size(), ds.size());
}

// ---------------------------------------------------------------------------
// One-class SVM / isolation forest
// ---------------------------------------------------------------------------

TEST(OneClassSvmTest, FlagsFarOutliers) {
  Rng rng(71);
  std::vector<FloatVec> normal;
  for (int i = 0; i < 300; ++i) {
    normal.push_back({static_cast<float>(rng.Gaussian(0, 1)),
                      static_cast<float>(rng.Gaussian(0, 1))});
  }
  OneClassSvm svm;
  svm.Fit(normal);
  int inliers = 0;
  for (int i = 0; i < 100; ++i) {
    inliers += svm.Predict(normal[static_cast<size_t>(i)]) == 1 ? 1 : 0;
  }
  EXPECT_GT(inliers, 70);  // most training data inside the boundary
  EXPECT_EQ(svm.Predict({50, 50}), -1);
  EXPECT_EQ(svm.Predict({-40, 60}), -1);
}

TEST(IsolationForestTest, OutlierScoresHigher) {
  Rng rng(73);
  std::vector<FloatVec> normal;
  for (int i = 0; i < 256; ++i) {
    normal.push_back({static_cast<float>(rng.Gaussian(0, 1)),
                      static_cast<float>(rng.Gaussian(0, 1))});
  }
  IsolationForest forest;
  forest.Fit(normal);
  const double inlier_score = forest.Score({0, 0});
  const double outlier_score = forest.Score({8, -8});
  EXPECT_GT(outlier_score, inlier_score);
  EXPECT_GT(outlier_score, 0.6);
}

TEST(IsolationForestTest, ThresholdCalibration) {
  Rng rng(79);
  std::vector<FloatVec> normal;
  for (int i = 0; i < 300; ++i) {
    normal.push_back({static_cast<float>(rng.Gaussian(0, 1))});
  }
  IsolationForest forest;
  forest.Fit(normal);
  forest.FitThreshold(normal, 0.1);
  int flagged = 0;
  for (const auto& x : normal) flagged += forest.Predict(x) == -1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(flagged) / 300.0, 0.1, 0.05);
}

// ---------------------------------------------------------------------------
// K-fold CV
// ---------------------------------------------------------------------------

TEST(KFold, PartitionsAllIndices) {
  Rng rng(81);
  auto folds = KFoldSplit(103, 10, &rng);
  ASSERT_EQ(folds.size(), 10u);
  std::vector<int> seen(103, 0);
  for (const auto& f : folds) {
    for (size_t i : f.test) seen[i] += 1;
    EXPECT_EQ(f.train.size() + f.test.size(), 103u);
  }
  for (int c : seen) EXPECT_EQ(c, 1);  // each index in exactly one test fold
}

TEST(KFold, CrossValidateReturnsPerFoldMetrics) {
  Dataset ds = MakeBlobs(60, 4.0, 83);
  Rng rng(84);
  auto metrics = CrossValidate(
      ds, 5, [] { return std::unique_ptr<Classifier>(new Knn()); }, &rng);
  ASSERT_EQ(metrics.size(), 5u);
  for (const auto& m : metrics) EXPECT_GT(m.accuracy, 0.85);
}

}  // namespace
}  // namespace glint::ml
