#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "codec_fixtures.h"
#include "counting_new.h"
#include "gnn/drift.h"
#include "gnn/model_io.h"
#include "gnn/trainer.h"
#include "gnn/transfer.h"
#include "graph/builder.h"
#include "rules/corpus.h"
#include "util/binio.h"
#include "util/crc32c.h"
#include "util/file_io.h"

namespace glint::gnn {
namespace {

// Shared fixture: a small labeled homogeneous dataset and a heterogeneous
// one, built once for the whole file.
class ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const nlp::EmbeddingModel wm_model(300, 17);
    const nlp::EmbeddingModel sm_model(512, 18);
    const nlp::EmbeddingModel* wm = &wm_model;
    const nlp::EmbeddingModel* sm = &sm_model;
    {
      rules::CorpusConfig cc;
      cc.ifttt = 400;
      cc.smartthings = 0;
      cc.alexa = 0;
      cc.google_assistant = 0;
      cc.home_assistant = 0;
      auto corpus = rules::CorpusGenerator(cc).Generate();
      graph::GraphBuilder::Config bc;
      bc.max_nodes = 16;
      graph::GraphBuilder builder(bc, wm, sm);
      homo_ = new std::vector<GnnGraph>(
          ToGnnGraphs(builder.BuildDataset(corpus, 160)));
    }
    {
      rules::CorpusConfig cc;
      cc.ifttt = 200;
      cc.smartthings = 40;
      cc.alexa = 120;
      cc.google_assistant = 60;
      cc.home_assistant = 40;
      auto corpus = rules::CorpusGenerator(cc).Generate();
      graph::GraphBuilder::Config bc;
      bc.max_nodes = 16;
      bc.seed = 777;
      graph::GraphBuilder builder(bc, wm, sm);
      hetero_ = new std::vector<GnnGraph>(
          ToGnnGraphs(builder.BuildDataset(corpus, 120)));
    }
  }

  static std::vector<GnnGraph>* homo_;
  static std::vector<GnnGraph>* hetero_;
};

std::vector<GnnGraph>* ModelTest::homo_ = nullptr;
std::vector<GnnGraph>* ModelTest::hetero_ = nullptr;

// ---------------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------------

TEST_F(ModelTest, ConversionShapes) {
  for (const auto& g : *homo_) {
    EXPECT_GT(g.num_nodes, 0);
    EXPECT_EQ(g.node_types.size(), static_cast<size_t>(g.num_nodes));
    EXPECT_EQ(g.typed_features[0].rows, g.num_nodes);  // all type 0
    EXPECT_EQ(g.typed_features[0].cols, 300);
  }
}

TEST_F(ModelTest, HeteroDatasetMixesTypes) {
  int hetero_graphs = 0;
  for (const auto& g : *hetero_) hetero_graphs += g.IsHeterogeneous();
  EXPECT_GT(hetero_graphs, 20);
}

TEST(NormalizedAdjacencyTest, RowsSumNearOneForRegularGraph) {
  // A symmetric pair with self-loops: entries 1/2 each.
  auto adj = NormalizedAdjacency(2, {{0, 1}});
  double row0 = 0;
  for (const auto& e : adj.entries) {
    if (e.r == 0) row0 += e.v;
  }
  EXPECT_NEAR(row0, 1.0, 1e-6);
}

TEST(NormalizedAdjacencyTest, IsolatedNodeKeepsSelfLoop) {
  auto adj = NormalizedAdjacency(1, {});
  ASSERT_EQ(adj.entries.size(), 1u);
  EXPECT_FLOAT_EQ(adj.entries[0].v, 1.f);
}

// ---------------------------------------------------------------------------
// Forward shapes for every model
// ---------------------------------------------------------------------------

TEST_F(ModelTest, AllModelsProduceWellFormedOutputs) {
  std::vector<std::unique_ptr<GraphModel>> homo_models;
  homo_models.emplace_back(new GcnModel(300, 32, 2, 1));
  homo_models.emplace_back(new GinModel(300, 32, 2, 2));
  homo_models.emplace_back(new InfoGraphModel(300, 32, 2, 3));
  homo_models.emplace_back(new GxnModel(300, 32, 3, 0.6, 4));
  for (auto& m : homo_models) {
    Tape tape;
    auto r = m->Forward(&tape, (*homo_)[0]);
    EXPECT_EQ(r.logits->rows(), 1) << m->Name();
    EXPECT_EQ(r.logits->cols(), 2) << m->Name();
    EXPECT_EQ(r.embedding->cols(), m->EmbedDim()) << m->Name();
    EXPECT_FALSE(std::isnan(r.logits->value.data[0])) << m->Name();
  }

  std::vector<std::unique_ptr<GraphModel>> hetero_models;
  hetero_models.emplace_back(new MagcnModel(32, 2, 5));
  hetero_models.emplace_back(new MagxnModel(32, 3, 0.6, 6));
  hetero_models.emplace_back(new HgslModel(32, 7));
  hetero_models.emplace_back(new ItgnnModel());
  for (auto& m : hetero_models) {
    for (int gi = 0; gi < 5; ++gi) {
      Tape tape;
      auto r = m->Forward(&tape, (*hetero_)[static_cast<size_t>(gi)]);
      EXPECT_EQ(r.logits->cols(), 2) << m->Name();
      EXPECT_FALSE(std::isnan(r.logits->value.data[0])) << m->Name();
    }
  }
}

TEST_F(ModelTest, ItgnnEmitsPoolLogitsPerScale) {
  ItgnnModel::Config cfg;
  cfg.num_scales = 3;
  ItgnnModel model(cfg);
  Tape tape;
  auto r = model.Forward(&tape, (*hetero_)[0]);
  EXPECT_EQ(r.pool_logits.size(), 2u);  // scales - 1 pools
}

TEST_F(ModelTest, SingleScaleItgnnHasNoPoolLogits) {
  ItgnnModel::Config cfg;
  cfg.num_scales = 1;
  ItgnnModel model(cfg);
  Tape tape;
  auto r = model.Forward(&tape, (*hetero_)[0]);
  EXPECT_TRUE(r.pool_logits.empty());
}

TEST_F(ModelTest, SingleNodeGraphSurvivesAllModels) {
  // Degenerate case: pooling and readouts on one node.
  GnnGraph g;
  g.num_nodes = 1;
  g.label = 0;
  g.node_types = {0};
  g.type_rows[0] = {0};
  g.typed_features[0] = Matrix(1, 300, 0.1f);
  g.adj_norm = NormalizedAdjacency(1, {});
  g.adj_raw.rows = 1;
  g.adj_raw.cols = 1;
  g.neighbors.resize(1);
  ItgnnModel model;
  Tape tape;
  auto r = model.Forward(&tape, g);
  EXPECT_FALSE(std::isnan(r.logits->value.data[0]));
}

TEST_F(ModelTest, ParameterGroupsPartitionParameters) {
  ItgnnModel model;
  size_t grouped = 0;
  for (const auto& g : model.ParameterGroups()) grouped += g.size();
  EXPECT_EQ(grouped, model.Parameters().size());
  EXPECT_GE(model.ParameterGroups().size(), 3u);
}

// ---------------------------------------------------------------------------
// Training behaviour
// ---------------------------------------------------------------------------

TEST_F(ModelTest, SupervisedTrainingFitsTrainingSet) {
  std::vector<GnnGraph> train(homo_->begin(), homo_->begin() + 80);
  GcnModel model(300, 32, 2, 11);
  TrainConfig tc;
  tc.epochs = 15;
  Trainer trainer(tc);
  trainer.TrainSupervised(&model, train);
  auto m = Trainer::Evaluate(&model, train);
  EXPECT_GT(m.accuracy, 0.85);
}

TEST_F(ModelTest, TrainingGeneralizesAboveChance) {
  Rng rng(21);
  std::vector<GnnGraph> train, test;
  SplitGraphs(*homo_, 0.8, &rng, &train, &test);
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  ItgnnModel model(cfg);
  TrainConfig tc;
  tc.epochs = 12;
  Trainer trainer(tc);
  trainer.TrainSupervised(&model, train);
  auto m = Trainer::Evaluate(&model, test);
  EXPECT_GT(m.accuracy, 0.7);
}

TEST_F(ModelTest, ContrastiveSeparatesClasses) {
  std::vector<GnnGraph> train(homo_->begin(), homo_->begin() + 100);
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  cfg.embed_dim = 32;
  ItgnnModel model(cfg);
  TrainConfig tc;
  tc.epochs = 10;
  Trainer trainer(tc);
  trainer.TrainContrastive(&model, train);
  // Mean within-class distance should be below cross-class distance.
  std::vector<FloatVec> z = Trainer::EmbedAll(&model, train);
  double within = 0, across = 0;
  int nw = 0, na = 0;
  for (size_t i = 0; i < z.size(); ++i) {
    for (size_t j = i + 1; j < z.size(); ++j) {
      const double d = EuclideanDistance(z[i], z[j]);
      if (train[i].label == train[j].label) {
        within += d;
        ++nw;
      } else {
        across += d;
        ++na;
      }
    }
  }
  ASSERT_GT(nw, 0);
  ASSERT_GT(na, 0);
  EXPECT_LT(within / nw, across / na);
}

TEST_F(ModelTest, OversampleGraphsGrowsMinority) {
  // Oversampling is by index: every original graph once, in order, then
  // one extra index per minority graph (factor 2), each a class-1 graph.
  Rng rng(31);
  const auto over = OversampleIndices(*homo_, 2.0, &rng);
  int minority = 0;
  for (const auto& g : *homo_) minority += g.label;
  ASSERT_GT(minority, 0);
  ASSERT_EQ(over.size(), homo_->size() + static_cast<size_t>(minority));
  for (size_t i = 0; i < homo_->size(); ++i) EXPECT_EQ(over[i], i);
  for (size_t k = homo_->size(); k < over.size(); ++k) {
    ASSERT_LT(over[k], homo_->size());
    EXPECT_EQ((*homo_)[over[k]].label, 1) << "extra index " << over[k];
  }
}

TEST_F(ModelTest, SplitGraphsPartitions) {
  Rng rng(41);
  std::vector<GnnGraph> train, test;
  SplitGraphs(*homo_, 0.75, &rng, &train, &test);
  EXPECT_EQ(train.size() + test.size(), homo_->size());
  EXPECT_EQ(train.size(), static_cast<size_t>(0.75 * homo_->size()));
}

// ---------------------------------------------------------------------------
// Model IO
// ---------------------------------------------------------------------------

TEST_F(ModelTest, SaveLoadPreservesPredictions) {
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  ItgnnModel a(cfg);
  std::vector<GnnGraph> train(homo_->begin(), homo_->begin() + 40);
  TrainConfig tc;
  tc.epochs = 3;
  Trainer trainer(tc);
  trainer.TrainSupervised(&a, train);

  const std::string path = "/tmp/glint_model_test.bin";
  ASSERT_TRUE(SaveModel(&a, path).ok());

  ItgnnModel b(cfg);
  ASSERT_TRUE(LoadModel(&b, path).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Trainer::Predict(&a, (*homo_)[static_cast<size_t>(i)]),
              Trainer::Predict(&b, (*homo_)[static_cast<size_t>(i)]));
  }
  std::remove(path.c_str());
}

TEST_F(ModelTest, LoadRejectsWrongArchitecture) {
  ItgnnModel::Config small;
  small.num_scales = 2;
  small.hidden = 16;
  ItgnnModel a(small);
  const std::string path = "/tmp/glint_model_arch.bin";
  ASSERT_TRUE(SaveModel(&a, path).ok());
  ItgnnModel::Config big;
  big.num_scales = 3;
  ItgnnModel b(big);
  EXPECT_FALSE(LoadModel(&b, path).ok());
  std::remove(path.c_str());
}

// Malformed model files must surface as Status, never abort. Each case
// starts from a valid saved file and damages it a different way.
TEST_F(ModelTest, MalformedModelFilesAreStatusesNotAborts) {
  GcnModel model(300, 16, 2, 51);
  const std::string path = "/tmp/glint_model_malformed.bin";
  ASSERT_TRUE(SaveModel(&model, path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<size_t>(size));
  ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);

  auto write_variant = [&](const std::vector<char>& b) {
    FILE* w = fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    ASSERT_EQ(fwrite(b.data(), 1, b.size(), w), b.size());
    fclose(w);
  };
  GcnModel target(300, 16, 2, 51);

  // Bad magic.
  {
    auto b = bytes;
    b[0] ^= 0x5a;
    write_variant(b);
    Status st = LoadModel(&target, path);
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_NE(st.message().find("magic"), std::string::npos);
  }
  // Unknown future format version.
  {
    auto b = bytes;
    b[4] = 99;
    write_variant(b);
    EXPECT_EQ(LoadModel(&target, path).code(),
              StatusCode::kFailedPrecondition);
  }
  // Truncated mid-payload.
  {
    auto b = bytes;
    b.resize(b.size() / 2);
    write_variant(b);
    EXPECT_EQ(LoadModel(&target, path).code(), StatusCode::kIOError);
  }
  // Single flipped payload byte → checksum mismatch.
  {
    auto b = bytes;
    b[b.size() - 3] ^= 0x01;
    write_variant(b);
    Status st = LoadModel(&target, path);
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_NE(st.message().find("checksum"), std::string::npos);
  }
  // Trailing garbage byte after a valid image.
  {
    auto b = bytes;
    b.push_back('x');
    write_variant(b);
    EXPECT_EQ(LoadModel(&target, path).code(), StatusCode::kIOError);
  }
  // The original bytes still load after all that.
  write_variant(bytes);
  EXPECT_TRUE(LoadModel(&target, path).ok());
  std::remove(path.c_str());
}

TEST_F(ModelTest, ModelBytesMatchesFile) {
  GcnModel model(300, 16, 2, 51);
  const std::string path = "/tmp/glint_model_bytes.bin";
  ASSERT_TRUE(SaveModel(&model, path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  fclose(f);
  EXPECT_EQ(static_cast<size_t>(size), ModelBytes(&model));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Transfer learning
// ---------------------------------------------------------------------------

TEST_F(ModelTest, FrozenGroupsDoNotChange) {
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  ItgnnModel model(cfg);
  auto groups = model.ParameterGroups();
  // Snapshot group 0 (the converter).
  std::vector<Matrix> before;
  for (Parameter* p : groups[0]) before.push_back(p->value);

  TransferConfig tc;
  tc.freeze_groups = 1;
  tc.fine_tune.epochs = 2;
  std::vector<GnnGraph> target(homo_->begin(), homo_->begin() + 30);
  TransferFineTune(&model, target, tc);

  auto after_groups = model.ParameterGroups();
  for (size_t i = 0; i < after_groups[0].size(); ++i) {
    EXPECT_EQ(after_groups[0][i]->value.data, before[i].data);
  }
  // And all parameters are unfrozen afterwards.
  for (const auto& g : model.ParameterGroups()) {
    for (Parameter* p : g) EXPECT_FALSE(p->frozen);
  }
}

TEST_F(ModelTest, HeadOnlyFineTuneChangesHead) {
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  ItgnnModel model(cfg);
  auto groups = model.ParameterGroups();
  Matrix head_before = groups.back()[0]->value;

  TransferConfig tc;
  tc.freeze_groups = -1;  // all but last
  tc.fine_tune.epochs = 2;
  std::vector<GnnGraph> target(homo_->begin(), homo_->begin() + 30);
  TransferFineTune(&model, target, tc);

  EXPECT_NE(model.ParameterGroups().back()[0]->value.data, head_before.data);
}

// ---------------------------------------------------------------------------
// Drift detection (Algorithm 3)
// ---------------------------------------------------------------------------

TEST(DriftDetectorTest, FlagsFarSamplesOnly) {
  // Two synthetic tight clusters in 2-d.
  Rng rng(61);
  std::vector<FloatVec> z;
  std::vector<int> y;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 50; ++i) {
      z.push_back({static_cast<float>(rng.Gaussian(c * 10, 0.5)),
                   static_cast<float>(rng.Gaussian(0, 0.5))});
      y.push_back(c);
    }
  }
  DriftDetector dd;
  dd.Fit(z, y);
  // In-distribution points are not drifting.
  EXPECT_FALSE(dd.IsDrifting({0.2f, 0.1f}));
  EXPECT_FALSE(dd.IsDrifting({10.1f, -0.2f}));
  // A point far from both centroids is.
  EXPECT_TRUE(dd.IsDrifting({5.f, 40.f}));
  EXPECT_GT(dd.DriftingDegree({5.f, 40.f}), 3.0);
}

TEST(DriftDetectorTest, DegreeIsMinAcrossClasses) {
  std::vector<FloatVec> z{{0.f},    {0.1f},  {-0.1f}, {0.2f},  {-0.2f},
                          {10.f},   {10.1f}, {9.9f},  {10.2f}, {9.8f}};
  std::vector<int> y{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  DriftDetector dd;
  dd.Fit(z, y);
  // Near class 1's centroid: small degree even though far from class 0.
  EXPECT_LT(dd.DriftingDegree({10.05f}), 3.0);
}

TEST(DriftDetectorTest, StatsRoundTripThroughFile) {
  Rng rng(62);
  std::vector<FloatVec> z;
  std::vector<int> y;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 50; ++i) {
      z.push_back({static_cast<float>(rng.Gaussian(c * 10, 0.5)),
                   static_cast<float>(rng.Gaussian(0, 0.5))});
      y.push_back(c);
    }
  }
  DriftDetector fitted;
  fitted.Fit(z, y);
  const std::string path = "/tmp/glint_drift_roundtrip.bin";
  ASSERT_TRUE(SaveDriftStats(fitted, path).ok());

  DriftDetector restored;
  EXPECT_FALSE(restored.fitted());
  ASSERT_TRUE(LoadDriftStats(&restored, path).ok());
  ASSERT_TRUE(restored.fitted());
  // Bit-identical scoring: same degree for in-band and far probes.
  for (const FloatVec& probe :
       {FloatVec{0.2f, 0.1f}, FloatVec{10.1f, -0.2f}, FloatVec{5.f, 40.f}}) {
    EXPECT_EQ(fitted.DriftingDegree(probe), restored.DriftingDegree(probe));
  }

  // A flipped payload byte is caught by the container checksum.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 20, SEEK_SET);
  int b = fgetc(f);
  fseek(f, 20, SEEK_SET);
  fputc(b ^ 0x10, f);
  fclose(f);
  DriftDetector corrupt_target;
  Status st = LoadDriftStats(&corrupt_target, path);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(corrupt_target.fitted());
  std::remove(path.c_str());

  // Saving an unfitted detector is a FailedPrecondition, not a crash.
  DriftDetector unfitted;
  EXPECT_EQ(SaveDriftStats(unfitted, path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DriftDetectorTest, RestoreRejectsStructurallyInvalidPayloads) {
  // Truncated: class count promises more than the buffer holds.
  {
    util::ByteWriter w;
    w.U32(2);
    w.U32(3);  // dim
    DriftDetector dd;
    util::ByteReader r(w.buffer());
    EXPECT_FALSE(dd.RestoreFrom(&r));
    EXPECT_FALSE(dd.fitted());
  }
  // Absurd dimension must be rejected before it drives the allocation.
  {
    util::ByteWriter w;
    w.U32(1);
    w.U32(0xffffffffu);
    DriftDetector dd;
    util::ByteReader r(w.buffer());
    EXPECT_FALSE(dd.RestoreFrom(&r));
  }
  // Non-positive MAD would divide by zero at scoring time.
  {
    util::ByteWriter w;
    w.U32(1);
    w.U32(1);
    w.Raw("\0\0\0\0", 4);  // one f32 centroid component
    w.F64(1.0);            // median
    w.F64(0.0);            // mad
    DriftDetector dd;
    util::ByteReader r(w.buffer());
    EXPECT_FALSE(dd.RestoreFrom(&r));
  }
}

TEST_F(ModelTest, DriftPipelineOnGraphs) {
  std::vector<GnnGraph> train(homo_->begin(), homo_->begin() + 100);
  ItgnnModel::Config cfg;
  cfg.num_scales = 2;
  cfg.embed_dim = 32;
  ItgnnModel model(cfg);
  TrainConfig tc;
  tc.epochs = 8;
  Trainer trainer(tc);
  trainer.TrainContrastive(&model, train);
  DriftDetector dd;
  dd.FitFromModel(&model, train);
  // Most in-distribution samples are not drifting.
  int drifting = 0;
  for (const auto& g : train) {
    drifting += dd.IsDrifting(Trainer::Embed(&model, g)) ? 1 : 0;
  }
  EXPECT_LT(drifting, static_cast<int>(train.size()) / 4);
}

// ---------------------------------------------------------------------------
// Golden files: the smallest model the constructors allow and a fitted
// drift detector, as SaveModel / SaveDriftStats wrote them before each
// container became one field list. Each is checked three ways: the bytes,
// decode-then-re-encode identity, and refusal of every strict prefix.
// ---------------------------------------------------------------------------

constexpr uint32_t kModelMagic = 0x474d444cu;  // "GMDL"
constexpr uint32_t kDriftMagic = 0x46524447u;  // "GDRF"

const char kGoldenModelHex[] =
    "4c444d470200000044000000eced47c404000000010000000100000033805bbe"
    "0100000001000000000000000200000002000000284c163f777ac13dbf09f03f"
    "be79473f01000000020000000000000000000000";

const char kGoldenDriftHex[] =
    "47445246020000003c0000007b0861570200000002000000000000400000504000"
    "ff9f99cc9cf93f669859b828bcce3f02000000abaa6abf0000003fd655a9462617"
    "f33fcd33cb5494e8c63f";

std::vector<char> FileBytes(const std::string& path) {
  auto bytes = util::ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::vector<char>();
}

/// `payload` under a valid container header, so what refuses it is the
/// payload's field list, not the length or checksum check.
std::vector<char> Container(uint32_t magic, const std::vector<char>& payload) {
  util::ByteWriter w;
  w.U32(magic);
  w.U32(2);  // format version
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(util::Crc32c(payload.data(), payload.size()));
  w.Raw(payload.data(), payload.size());
  return w.TakeBuffer();
}

/// Every strict prefix of the golden file at `hex` makes `load` fail with
/// IOError; every strict prefix of its payload, re-wrapped by Container,
/// with `payload_code`.
template <class Load>
void ExpectPrefixesRefused(const std::string& path, const char* hex,
                           uint32_t magic, StatusCode payload_code,
                           Load load) {
  const std::vector<char> golden = fixtures::Unhex(hex);
  const std::vector<char> payload(golden.begin() + 16, golden.end());
  for (size_t keep = 0; keep < golden.size(); ++keep) {
    const std::vector<char> cut(golden.begin(),
                                golden.begin() + static_cast<long>(keep));
    ASSERT_TRUE(util::WriteFile(path, cut).ok());
    EXPECT_EQ(load().code(), StatusCode::kIOError) << "file cut to " << keep;
  }
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    const std::vector<char> cut(payload.begin(),
                                payload.begin() + static_cast<long>(keep));
    ASSERT_TRUE(util::WriteFile(path, Container(magic, cut)).ok());
    EXPECT_EQ(load().code(), payload_code) << "payload cut to " << keep;
  }
}

TEST(ModelFileGolden, SmallestModelKeepsItsRecordedBytes) {
  const std::string path = "/tmp/glint_golden_model.bin";
  GcnModel model(1, 1, 1, 7);
  ASSERT_TRUE(SaveModel(&model, path).ok());
  EXPECT_EQ(fixtures::Hex(FileBytes(path)), kGoldenModelHex);
  EXPECT_EQ(ModelBytes(&model), fixtures::Unhex(kGoldenModelHex).size());

  // A model of another seed loads the recorded bytes and saves them back.
  ASSERT_TRUE(
      util::WriteFile(path, fixtures::Unhex(kGoldenModelHex)).ok());
  GcnModel other(1, 1, 1, 8);
  ASSERT_TRUE(LoadModel(&other, path).ok());
  ASSERT_TRUE(SaveModel(&other, path).ok());
  EXPECT_EQ(fixtures::Hex(FileBytes(path)), kGoldenModelHex);

  ExpectPrefixesRefused(path, kGoldenModelHex, kModelMagic,
                        StatusCode::kIOError,
                        [&] { return LoadModel(&other, path); });
  std::remove(path.c_str());
}

TEST(ModelFileGolden, DriftStatsKeepTheirRecordedBytes) {
  const std::string path = "/tmp/glint_golden_drift.bin";
  DriftDetector fitted;
  fitted.Fit({{1.f, 2.f}, {3.f, 4.5f}, {-1.f, 0.5f}, {0.25f, 0.f},
              {-2.f, 1.f}},
             {0, 0, 1, 1, 1});
  ASSERT_TRUE(SaveDriftStats(fitted, path).ok());
  EXPECT_EQ(fixtures::Hex(FileBytes(path)), kGoldenDriftHex);

  ASSERT_TRUE(
      util::WriteFile(path, fixtures::Unhex(kGoldenDriftHex)).ok());
  DriftDetector restored;
  ASSERT_TRUE(LoadDriftStats(&restored, path).ok());
  ASSERT_TRUE(SaveDriftStats(restored, path).ok());
  EXPECT_EQ(fixtures::Hex(FileBytes(path)), kGoldenDriftHex);

  ExpectPrefixesRefused(path, kGoldenDriftHex, kDriftMagic,
                        StatusCode::kFailedPrecondition, [&] {
                          DriftDetector target;
                          return LoadDriftStats(&target, path);
                        });
  std::remove(path.c_str());
}

// A 16-byte model file whose header declares a 2^30-1 byte payload is
// IOError, and the load allocates nothing near that size for it: the file
// is read whole, and its size bounds the declared length.
TEST(ModelFileGolden, DeclaredLengthBeyondTheFileAllocatesNothing) {
  const std::string path = "/tmp/glint_model_huge_len.bin";
  util::ByteWriter w;
  w.U32(kModelMagic);
  w.U32(2);
  w.U32((1u << 30) - 1);
  w.U32(0);
  ASSERT_TRUE(util::WriteFile(path, w.buffer()).ok());
  GcnModel model(1, 1, 1, 7);
  const size_t before = g_bytes.load(std::memory_order_relaxed);
  const Status st = LoadModel(&model, path);
  const size_t allocated = g_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_LT(allocated, size_t{64} << 10);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace glint::gnn
