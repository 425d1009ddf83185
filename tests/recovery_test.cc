// Crash-safety proof for the durable ServingEngine: a scripted workload of
// AddHome / AddRule / RemoveRule / OnEvent ops and one multi-event batch
// (plus a mid-run snapshot) is run against a write-ahead-logged engine
// while fault injection kills or fails the process at every registered
// I/O fault point; after each interruption a fresh engine recovers from
// the state directory, the not-yet-durable tail of the script is
// reapplied record by record, and the resulting InspectAll output must be
// BIT-IDENTICAL to an uninterrupted reference run. Plus: torn-tail and
// torn-run truncation, flipped-byte checksum detection, and
// corrupt-snapshot refusal.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "codec_fixtures.h"
#include "core/detector.h"
#include "core/serving.h"
#include "rules/rule_io.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

namespace glint::core {
namespace {

/// One scripted engine mutation. The script below is the ground truth both
/// the reference run and every recovery replays.
struct Op {
  enum Kind { kAddHome, kAddRule, kRemoveRule, kEvent, kEvents } kind;
  HomeId home;                        // stable id (rides the WAL for kAddHome)
  std::vector<rules::Rule> deployed;  // kAddHome
  rules::Rule rule;                   // kAddRule
  int rule_id = 0;                    // kRemoveRule
  graph::Event event;                 // kEvent
  std::vector<graph::Event> events;   // kEvents: one TryOnEvents batch

  /// WAL records the op writes: one per event of a batch, else one.
  size_t records() const { return kind == kEvents ? events.size() : 1; }
};

/// Script index of the multi-event batch. Every op before it writes one
/// WAL run, so the batch's run is hit kBatchOp + 1 of each wal.append.*
/// point.
constexpr size_t kBatchOp = 14;

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Run everything on the calling thread: the crash-matrix tests fork,
    // and a forked child must not depend on worker threads that do not
    // survive fork.
    ThreadPool::SetGlobalThreads(1);

    TrainedDetector::Options opts;
    opts.corpus.ifttt = 200;
    opts.corpus.smartthings = 40;
    opts.corpus.alexa = 60;
    opts.corpus.google_assistant = 40;
    opts.corpus.home_assistant = 40;
    opts.num_training_graphs = 40;
    opts.builder.max_nodes = 8;
    opts.model.num_scales = 2;
    opts.model.embed_dim = 32;
    opts.train.epochs = 2;
    opts.pairs.num_positive = 60;
    opts.pairs.num_negative = 90;
    detector_ = new TrainedDetector(opts);
    detector_->TrainOffline();

    BuildScript();

    // The uninterrupted reference: a non-durable engine running the whole
    // script. Every recovery below must land on this exact fingerprint.
    ServingEngine ref(detector_);
    ASSERT_TRUE(RunScript(&ref, 0, -1).ok());
    *reference_ = Fingerprint(&ref);
    ASSERT_FALSE(reference_->empty());

    char tmpl[] = "/tmp/glint_recovery_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    base_dir_ = new std::string(tmpl);
  }

  void SetUp() override { fault::Registry::Global().Clear(); }
  void TearDown() override { fault::Registry::Global().Clear(); }

  static std::vector<rules::Rule> HomeRules(int n) {
    std::vector<rules::Rule> out(
        detector_->corpus().begin(),
        detector_->corpus().begin() +
            std::min<size_t>(static_cast<size_t>(n),
                             detector_->corpus().size()));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].id = 9000 + static_cast<int>(i);
    }
    return out;
  }

  static graph::Event EventFor(const rules::Rule& r, double t) {
    graph::Event e;
    e.time_hours = t;
    e.location = r.location;
    e.device = r.trigger.device;
    e.state = r.trigger.state;
    return e;
  }

  static void BuildScript() {
    auto rules = HomeRules(8);
    // Homes are addressed by stable string ids throughout the script, so
    // the crash matrix also proves ids survive WAL replay and snapshots.
    const HomeId ids[2] = {"home-a", "home-b"};
    auto add_home = [&](const HomeId& id, std::vector<rules::Rule> deployed) {
      Op op;
      op.kind = Op::kAddHome;
      op.home = id;
      op.deployed = std::move(deployed);
      script_->push_back(std::move(op));
    };
    auto add_rule = [&](int h, const rules::Rule& r) {
      Op op;
      op.kind = Op::kAddRule;
      op.home = ids[h];
      op.rule = r;
      script_->push_back(std::move(op));
    };
    auto remove_rule = [&](int h, int id) {
      Op op;
      op.kind = Op::kRemoveRule;
      op.home = ids[h];
      op.rule_id = id;
      script_->push_back(std::move(op));
    };
    auto event = [&](int h, const rules::Rule& r, double t) {
      Op op;
      op.kind = Op::kEvent;
      op.home = ids[h];
      op.event = EventFor(r, t);
      script_->push_back(std::move(op));
    };
    auto batch = [&](int h, std::vector<graph::Event> events) {
      Op op;
      op.kind = Op::kEvents;
      op.home = ids[h];
      op.events = std::move(events);
      script_->push_back(std::move(op));
    };

    add_home(ids[0], {rules[0], rules[1], rules[2]});
    add_home(ids[1], {rules[3], rules[4]});
    event(0, rules[0], 0.5);
    event(1, rules[3], 0.6);
    add_rule(0, rules[5]);
    event(0, rules[1], 0.9);
    event(1, rules[4], 1.1);
    add_rule(1, rules[6]);
    event(0, rules[5], 1.4);
    remove_rule(0, 9001);  // retire rules[1]
    event(1, rules[6], 1.7);
    event(0, rules[2], 2.0);
    add_rule(0, rules[7]);
    event(0, rules[7], 2.3);
    ASSERT_EQ(script_->size(), kBatchOp);
    // One run of 4 records: the crash matrix tears it mid-run.
    batch(0, {EventFor(rules[0], 2.35), EventFor(rules[2], 2.4),
              EventFor(rules[5], 2.45), EventFor(rules[7], 2.5)});
    event(1, rules[3], 2.6);
    remove_rule(1, 9004);  // retire rules[4]
    event(0, rules[0], 2.9);
    event(1, rules[6], 3.1);
  }

  static Status ApplyOp(ServingEngine* engine, const Op& op) {
    switch (op.kind) {
      case Op::kAddHome:
        return engine->TryAddHome(op.home, op.deployed).status();
      case Op::kAddRule:
        return engine->TryAddRule(op.home, op.rule);
      case Op::kRemoveRule:
        return engine->TryRemoveRule(op.home, op.rule_id);
      case Op::kEvent:
        return engine->TryOnEvent(op.home, op.event);
      case Op::kEvents:
        return engine->TryOnEvents(op.home, op.events.data(),
                                   op.events.size());
    }
    return Status::Internal("unreachable");
  }

  /// WAL records the whole script writes.
  static size_t ScriptRecords() {
    size_t n = 0;
    for (const Op& op : *script_) n += op.records();
    return n;
  }

  /// Applies the script from WAL record `from` on (a batch the record
  /// falls inside resumes at that event), snapshotting after op index
  /// `snapshot_after` when the engine is durable (-1 = never). Stops at
  /// the first error.
  static Status RunScript(ServingEngine* engine, size_t from,
                          int snapshot_after) {
    size_t record = 0;  // first record of op i
    for (size_t i = 0; i < script_->size(); ++i) {
      const Op& op = (*script_)[i];
      const size_t next = record + op.records();
      if (next > from) {
        if (op.kind == Op::kEvents && from > record) {
          const size_t skip = from - record;
          GLINT_RETURN_IF_ERROR(engine->TryOnEvents(
              op.home, op.events.data() + skip, op.events.size() - skip));
        } else {
          GLINT_RETURN_IF_ERROR(ApplyOp(engine, op));
        }
      }
      record = next;
      if (static_cast<int>(i) == snapshot_after && engine->durable() &&
          next > from) {
        GLINT_RETURN_IF_ERROR(engine->Snapshot());
      }
    }
    return Status::OK();
  }

  /// The durable workload the crash and fail matrices interrupt: recovery
  /// of `dir`, the script with a mid-run snapshot, a final snapshot.
  static Status RunDurableWorkload(ServingEngine* engine,
                                   const std::string& dir) {
    GLINT_RETURN_IF_ERROR(engine->Recover(dir));
    GLINT_RETURN_IF_ERROR(RunScript(engine, 0, kSnapshotAfter));
    return engine->Snapshot();
  }

  /// Full-precision serialization of the engine's observable state: the
  /// per-home rule sets, event watermarks, and every field of every
  /// InspectAll warning. String equality here is bit-identity of the
  /// doubles (%.17a round-trips exactly).
  static std::string Fingerprint(ServingEngine* engine) {
    std::string out;
    char buf[64];
    auto hex = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.17a", v);
      out += buf;
    };
    auto warnings = engine->InspectAll(kInspectHour);
    for (size_t h = 0; h < engine->num_homes(); ++h) {
      // The home id is part of the fingerprint — id recovery is part of
      // the proof.
      const DeploymentSession& s = engine->home_view(static_cast<int>(h));
      out += "home " + engine->home_ids()[h] + " rules";
      for (const auto& r : s.CurrentRules()) {
        out += " " + std::to_string(r.id);
      }
      out += " events " +
             std::to_string(s.live().retained_events().size()) +
             " watermark ";
      hex(s.live().latest_event_hours());
      const ThreatWarning& w = warnings[h];
      out += " threat " + std::to_string(w.threat) + " drifting " +
             std::to_string(w.drifting) + " confidence ";
      hex(w.confidence);
      out += " types";
      for (auto t : w.types) {
        out += " " + std::to_string(static_cast<int>(t));
      }
      for (const auto& c : w.culprits) {
        out += " culprit " + std::to_string(c.node) + " " + c.platform +
               " '" + c.rule_text + "' ";
        hex(c.importance);
      }
      out += "\n";
    }
    return out;
  }

  static std::string Dir(const std::string& name) {
    std::string d = *base_dir_ + "/" + name;
    for (char& c : d) {
      if (c == '.') c = '_';
    }
    return d;
  }

  /// Recovers a fresh engine from `dir`, reapplies the script tail that
  /// was not yet durable, and checks bit-identity with the reference.
  static void RecoverAndVerify(const std::string& dir,
                               const std::string& context) {
    ServingEngine engine(detector_);
    Status st = engine.Recover(dir);
    ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
    const uint64_t seq = engine.journal_seq();
    ASSERT_LE(seq, ScriptRecords()) << context;
    st = RunScript(&engine, static_cast<size_t>(seq), -1);
    ASSERT_TRUE(st.ok()) << context << ": " << st.ToString();
    EXPECT_EQ(Fingerprint(&engine), *reference_) << context;
  }

  static constexpr double kInspectHour = 3.5;
  static constexpr int kSnapshotAfter = 8;

  static TrainedDetector* detector_;
  static std::vector<Op>* script_;
  static std::string* reference_;
  static std::string* base_dir_;
};

TrainedDetector* RecoveryTest::detector_ = nullptr;
std::vector<Op>* RecoveryTest::script_ = new std::vector<Op>();
std::string* RecoveryTest::reference_ = new std::string();
std::string* RecoveryTest::base_dir_ = nullptr;

TEST_F(RecoveryTest, DurableUninterruptedMatchesReference) {
  const std::string dir = Dir("uninterrupted");
  ServingEngine engine(detector_);
  ASSERT_TRUE(engine.Recover(dir).ok());
  EXPECT_TRUE(engine.durable());
  ASSERT_TRUE(RunScript(&engine, 0, kSnapshotAfter).ok());
  EXPECT_EQ(engine.journal_seq(), ScriptRecords());
  EXPECT_EQ(Fingerprint(&engine), *reference_);

  // A clean restart (snapshot + WAL tail, nothing torn) is also identical.
  ASSERT_TRUE(engine.Snapshot().ok());
  RecoverAndVerify(dir, "clean restart");
}

TEST_F(RecoveryTest, HomeIdsSurviveSnapshotAndReplay) {
  const std::string dir = Dir("ids");
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(engine.TryAddHome("kitchen-42", HomeRules(2)).ok());
    ASSERT_TRUE(engine.Snapshot().ok());  // id must ride the snapshot...
    ASSERT_TRUE(engine.TryAddHome("loft-7", HomeRules(3)).ok());  // ...and WAL
    // Duplicate and empty ids are rejected before anything is journaled.
    EXPECT_FALSE(engine.TryAddHome("kitchen-42", HomeRules(1)).ok());
    EXPECT_FALSE(engine.TryAddHome("", HomeRules(1)).ok());
  }
  ServingEngine engine(detector_);
  ASSERT_TRUE(engine.Recover(dir).ok());
  ASSERT_EQ(engine.num_homes(), 2u);
  EXPECT_EQ(engine.home_ids()[0], "kitchen-42");
  EXPECT_EQ(engine.home_ids()[1], "loft-7");
  EXPECT_EQ(engine.ResolveHome("loft-7"), 1);
  EXPECT_EQ(engine.ResolveHome("cellar"), -1);
  EXPECT_FALSE(engine.TryOnEvent("cellar", graph::Event{}).ok());
}

TEST_F(RecoveryTest, RecoverOnFreshDirIsEmptyEngine) {
  const std::string dir = Dir("fresh");
  ServingEngine engine(detector_);
  ASSERT_TRUE(engine.Recover(dir).ok());
  EXPECT_EQ(engine.num_homes(), 0u);
  EXPECT_EQ(engine.journal_seq(), 0u);
  EXPECT_FALSE(engine.recovery_info().snapshot_loaded);
  EXPECT_FALSE(engine.recovery_info().tail_torn);
}

/// Every I/O fault point reachable by the durable workload, discovered by
/// running it once (points self-register on first execution), plus the
/// armed-only torn-write point.
std::vector<std::string> MatrixPoints() {
  std::vector<std::string> out;
  for (const auto& p : fault::Registry::Global().Points()) {
    if (p.rfind("wal.", 0) == 0 || p.rfind("snapshot.", 0) == 0 ||
        p.rfind("journal.", 0) == 0) {
      out.push_back(p);
    }
  }
  bool has_tear = false;
  for (const auto& p : out) has_tear |= (p == "wal.append.tear");
  if (!has_tear) out.push_back("wal.append.tear");
  return out;
}

/// The hits of `point` the matrices interrupt: the first two, and for the
/// append points also the multi-event batch's run.
std::vector<int> MatrixHits(const std::string& point) {
  std::vector<int> out = {1, 2};
  if (point.rfind("wal.append.", 0) == 0) {
    out.push_back(static_cast<int>(kBatchOp) + 1);
  }
  return out;
}

TEST_F(RecoveryTest, CrashMatrixRecoversBitIdentical) {
  // The DurableUninterruptedMatchesReference workload above has already
  // executed every reachable point at least once in this process; running
  // it first is also what makes gtest ordering a requirement here, so
  // re-run a throwaway durable workload to guarantee registration even if
  // this test runs alone.
  // An unrelated armed point makes the registry count hits: the workload
  // writes one WAL run per op, the batch included.
  {
    const std::string dir = Dir("enumerate");
    fault::Registry::Global().Arm("recovery_test.unreached",
                                  fault::Mode::kFail);
    ServingEngine engine(detector_);
    ASSERT_TRUE(RunDurableWorkload(&engine, dir).ok());
    EXPECT_EQ(fault::Registry::Global().hits("wal.append.write"),
              script_->size());
    fault::Registry::Global().Clear();
  }

  const auto points = MatrixPoints();
  ASSERT_GE(points.size(), 10u) << "fault-point enumeration looks broken";
  int crashes = 0;
  for (const auto& point : points) {
    for (const int nth : MatrixHits(point)) {
      const std::string context =
          "crash @ " + point + " hit " + std::to_string(nth);
      const std::string dir =
          Dir("crash_" + point + "_" + std::to_string(nth));

      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: arm the kill switch and run the durable workload to
        // completion (initial recovery, ops, mid-run + final snapshot).
        // _exit keeps gtest/stdio state out of the picture.
        fault::Registry::Global().Clear();
        fault::Registry::Global().Arm(point, fault::Mode::kCrash, nth);
        ServingEngine engine(detector_);
        _exit(RunDurableWorkload(&engine, dir).ok() ? 0 : 3);
      }

      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus)) << context;
      const int code = WEXITSTATUS(wstatus);
      // 112 = the armed crash fired mid-I/O; 0 = this workload never
      // reaches hit `nth` of this point (e.g. a recovery-only point), so
      // the run completed — still a valid recovery input.
      ASSERT_TRUE(code == fault::kCrashExitCode || code == 0)
          << context << " exited " << code;
      crashes += (code == fault::kCrashExitCode);

      RecoverAndVerify(dir, context);
    }
  }
  // The matrix must actually kill the process most of the time, or the
  // points are not wired where the I/O happens.
  EXPECT_GE(crashes, static_cast<int>(points.size()));
}

TEST_F(RecoveryTest, FailMatrixRecoversBitIdentical) {
  const auto points = MatrixPoints();
  ASSERT_GE(points.size(), 10u);
  for (const auto& point : points) {
    for (const int nth : MatrixHits(point)) {
      const std::string context =
          "fail @ " + point + " hit " + std::to_string(nth);
      const std::string dir =
          Dir("fail_" + point + "_" + std::to_string(nth));
      {
        fault::Registry::Global().Clear();
        fault::Registry::Global().Arm(point, fault::Mode::kFail, nth);
        ServingEngine engine(detector_);
        // An injected failure during initial recovery leaves the engine
        // non-durable and the rest of the workload unrun; recovery below
        // replays nothing and the reapply covers the whole script. Any
        // other failure stops the workload at the op it refused: the
        // engine never applied a non-durable op, and the WAL is still at
        // a record boundary (a failed batch run left none of its records).
        (void)RunDurableWorkload(&engine, dir);
        fault::Registry::Global().Clear();
      }
      RecoverAndVerify(dir, context);
    }
  }
}

// A crash at the tear point of the batch's 4-record run leaves its first
// three records whole and the fourth torn after its frame. Recovery cuts
// the file back to the record boundary, replays the three, and the
// script resumes at the batch's last event.
TEST_F(RecoveryTest, TornRunRecoversToARecordBoundary) {
  const std::string dir = Dir("torn-run");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fault::Registry::Global().Clear();
    fault::Registry::Global().Arm("wal.append.tear", fault::Mode::kCrash,
                                  static_cast<int>(kBatchOp) + 1);
    ServingEngine engine(detector_);
    _exit(RunDurableWorkload(&engine, dir).ok() ? 0 : 3);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), fault::kCrashExitCode);

  size_t before_batch = 0;
  for (size_t i = 0; i < kBatchOp; ++i) {
    before_batch += (*script_)[i].records();
  }
  const size_t batch = (*script_)[kBatchOp].records();
  ASSERT_EQ(batch, 4u);
  ServingEngine engine(detector_);
  ASSERT_TRUE(engine.Recover(dir).ok());
  EXPECT_TRUE(engine.recovery_info().tail_torn);
  EXPECT_EQ(engine.recovery_info().truncated_bytes, 8u);  // one frame
  EXPECT_EQ(engine.journal_seq(), before_batch + batch - 1);
  ASSERT_TRUE(RunScript(&engine, engine.journal_seq(), -1).ok());
  EXPECT_EQ(Fingerprint(&engine), *reference_);
}

TEST_F(RecoveryTest, TornTailIsDetectedAndTruncated) {
  const std::string dir = Dir("torn");
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(RunScript(&engine, 0, -1).ok());
  }
  // Fake a torn final append: a full frame announcing a 12-byte record,
  // followed by only 5 bytes of body.
  {
    std::FILE* f = std::fopen((dir + "/wal.log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t len = 12, crc = 0xdeadbeef;
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite(&crc, sizeof crc, 1, f);
    std::fwrite("torn!", 1, 5, f);
    std::fclose(f);
  }
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    EXPECT_TRUE(engine.recovery_info().tail_torn);
    EXPECT_EQ(engine.recovery_info().truncated_bytes, 13u);
    EXPECT_EQ(engine.journal_seq(), ScriptRecords());
    EXPECT_EQ(Fingerprint(&engine), *reference_);
  }
  // The truncation repaired the file: a second recovery sees a clean log.
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    EXPECT_FALSE(engine.recovery_info().tail_torn);
    EXPECT_EQ(Fingerprint(&engine), *reference_);
  }
}

TEST_F(RecoveryTest, FlippedByteEndsReplayAtLastValidRecord) {
  const std::string dir = Dir("flip");
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(RunScript(&engine, 0, -1).ok());
  }
  // Walk the record frames to find a mid-log record, then flip one payload
  // byte in it. Replay must stop just before it and drop everything after.
  const std::string wal = dir + "/wal.log";
  std::FILE* f = std::fopen(wal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);  // WAL header
  long corrupt_at = -1;
  size_t target = ScriptRecords() / 2;
  for (size_t rec = 0; rec < ScriptRecords(); ++rec) {
    uint32_t len = 0, crc = 0;
    ASSERT_EQ(std::fread(&len, sizeof len, 1, f), 1u);
    ASSERT_EQ(std::fread(&crc, sizeof crc, 1, f), 1u);
    if (rec == target) {
      corrupt_at = std::ftell(f) + 9;  // a payload byte past the seq
      break;
    }
    std::fseek(f, static_cast<long>(len), SEEK_CUR);
  }
  ASSERT_GT(corrupt_at, 0);
  std::fseek(f, corrupt_at, SEEK_SET);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  std::fseek(f, corrupt_at, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  ServingEngine engine(detector_);
  ASSERT_TRUE(engine.Recover(dir).ok());
  EXPECT_TRUE(engine.recovery_info().tail_torn);
  EXPECT_EQ(engine.journal_seq(), target);
  EXPECT_GT(engine.recovery_info().truncated_bytes, 0u);
  ASSERT_TRUE(RunScript(&engine, target, -1).ok());
  EXPECT_EQ(Fingerprint(&engine), *reference_);
}

TEST_F(RecoveryTest, CorruptSnapshotIsRefusedNotGuessed) {
  const std::string dir = Dir("badsnap");
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(RunScript(&engine, 0, -1).ok());
    ASSERT_TRUE(engine.Snapshot().ok());
  }
  {
    std::FILE* f = std::fopen((dir + "/snapshot.bin").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);  // past the 24-byte header
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    std::fseek(f, 30, SEEK_SET);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }
  ServingEngine engine(detector_);
  Status st = engine.Recover(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("corrupt snapshot"), std::string::npos);
}

// ---- Golden WAL records -------------------------------------------------

using fixtures::Unhex;

// One fixture per WAL op, journaled by a live engine. Their record bytes
// were recorded as hex (below) before each op became one field list and
// one apply; the tests require the same bytes, a recovery from the
// recorded records that re-encodes (snapshots) to exactly what the live
// engine snapshots, and InvalidArgument (never an abort) for every strict
// prefix of a record.
std::vector<Op> GoldenWalOps() {
  std::vector<Op> ops(4);
  ops[0].kind = Op::kAddHome;
  ops[0].home = "home-golden";
  ops[0].deployed = {fixtures::Rule(21), fixtures::Rule(22)};
  ops[1].kind = Op::kAddRule;
  ops[1].home = "home-golden";
  ops[1].rule = fixtures::Rule(23);
  ops[2].kind = Op::kRemoveRule;
  ops[2].home = "home-golden";
  ops[2].rule_id = 22;
  ops[3].kind = Op::kEvent;
  ops[3].home = "home-golden";
  ops[3].event = fixtures::Event(1.25, 21);
  return ops;
}

// GoldenWalOps()[i]'s record (op bytes after the u64 seq), journaled by
// the engine as it was before the rewrite.
const char* const kGoldenWalHex[] = {
    "010b000000686f6d652d676f6c64656e02000000150000000400000003000000"
    "0100000006000000010000000000000000803a40000000000000f4bf03000000"
    "686f74ffffffff01000000070000001500000002000000090000001400000004"
    "000000000000000000f03f000000000000000004000000686f6d650000000001"
    "00000012000000170000000200000014000000030000000000000000003e4000"
    "00000000404e4000000000000000000000000000000000180000000200000007"
    "0000000000000000000000000000000000000006000000000000000000d83f3a"
    "0000005768656e20746865206b69746368656e20697320686f7420616e642073"
    "6f6d656f6e6520697320686f6d652c20636f6f6c20697420646f776e2e010000"
    "001600000004000000030000000100000006000000010000000000000000803a"
    "40000000000000f4bf03000000686f74ffffffff010000000700000015000000"
    "02000000090000001400000004000000000000000000f03f0000000000000000"
    "04000000686f6d65000000000100000012000000170000000200000014000000"
    "030000000000000000003e400000000000404e40000000000000000000000000"
    "0000000018000000020000000700000000000000000000000000000000000000"
    "06000000000000000000d83f3a0000005768656e20746865206b69746368656e"
    "20697320686f7420616e6420736f6d656f6e6520697320686f6d652c20636f6f"
    "6c20697420646f776e2e01000000",
    "0200000000170000000400000003000000010000000600000001000000000000"
    "0000803a40000000000000f4bf03000000686f74ffffffff0100000007000000"
    "1500000002000000090000001400000004000000000000000000f03f00000000"
    "0000000004000000686f6d650000000001000000120000001700000002000000"
    "14000000030000000000000000003e400000000000404e400000000000000000"
    "0000000000000000180000000200000007000000000000000000000000000000"
    "0000000006000000000000000000d83f3a0000005768656e20746865206b6974"
    "6368656e20697320686f7420616e6420736f6d656f6e6520697320686f6d652c"
    "20636f6f6c20697420646f776e2e01000000",
    "030000000016000000",
    "0400000000000000000000f43f0200000002000000040000006f70656e020000"
    "0015000000",
};

std::vector<char> ReadFile(const std::string& path) {
  std::vector<char> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

/// The op bytes of every record in the WAL at `path` (seq stripped).
std::vector<std::vector<char>> WalRecords(const std::string& path) {
  const std::vector<char> wal = ReadFile(path);
  std::vector<std::vector<char>> out;
  size_t pos = 8;  // WAL header
  while (pos + 8 <= wal.size()) {
    uint32_t len = 0;
    std::memcpy(&len, wal.data() + pos, sizeof len);
    pos += 8;
    out.emplace_back(wal.begin() + static_cast<long>(pos + 8),
                     wal.begin() + static_cast<long>(pos + len));
    pos += len;
  }
  return out;
}

/// Writes a WAL at `path`: `header` (the 8-byte magic + version of a real
/// WAL) then one correctly framed record per element of `records`, with
/// seqs 1, 2, ...
void WriteWal(const std::string& path, const std::vector<char>& header,
              const std::vector<std::vector<char>>& records) {
  std::vector<char> wal = header;
  uint64_t seq = 0;
  for (const auto& rec : records) {
    ++seq;
    std::vector<char> body(sizeof seq);
    std::memcpy(body.data(), &seq, sizeof seq);
    body.insert(body.end(), rec.begin(), rec.end());
    const uint32_t len = static_cast<uint32_t>(body.size());
    const uint32_t crc = util::Crc32c(body.data(), body.size());
    const char* lp = reinterpret_cast<const char*>(&len);
    const char* cp = reinterpret_cast<const char*>(&crc);
    wal.insert(wal.end(), lp, lp + sizeof len);
    wal.insert(wal.end(), cp, cp + sizeof crc);
    wal.insert(wal.end(), body.begin(), body.end());
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(wal.data(), 1, wal.size(), f), wal.size());
  std::fclose(f);
}

TEST_F(RecoveryTest, WalOpsKeepTheirRecordedBytes) {
  const std::vector<Op> ops = GoldenWalOps();
  ASSERT_EQ(ops.size(), std::size(kGoldenWalHex));
  const std::string live_dir = Dir("golden-live");
  ServingEngine live(detector_);
  ASSERT_TRUE(live.Recover(live_dir).ok());
  for (const Op& op : ops) ASSERT_TRUE(ApplyOp(&live, op).ok());
  const std::vector<std::vector<char>> records =
      WalRecords(live_dir + "/wal.log");
  ASSERT_EQ(records.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(fixtures::Hex(records[i]), kGoldenWalHex[i]) << "op " << i;
  }

  // Decode the recorded records, then re-encode the state they rebuild:
  // the snapshot is byte-identical to the live engine's.
  const std::string replay_dir = Dir("golden-replay");
  ServingEngine empty(detector_);
  ASSERT_TRUE(empty.Recover(replay_dir).ok());  // writes a fresh WAL header
  std::vector<std::vector<char>> golden;
  for (const char* hex : kGoldenWalHex) golden.push_back(Unhex(hex));
  const std::vector<char> header = ReadFile(replay_dir + "/wal.log");
  ASSERT_EQ(header.size(), 8u);
  WriteWal(replay_dir + "/wal.log", header, golden);
  ServingEngine replayed(detector_);
  ASSERT_TRUE(replayed.Recover(replay_dir).ok());
  EXPECT_EQ(replayed.journal_seq(), ops.size());
  EXPECT_EQ(Fingerprint(&replayed), Fingerprint(&live));
  ASSERT_TRUE(live.Snapshot().ok());
  ASSERT_TRUE(replayed.Snapshot().ok());
  EXPECT_EQ(ReadFile(replay_dir + "/snapshot.bin"),
            ReadFile(live_dir + "/snapshot.bin"));
}

TEST_F(RecoveryTest, EveryStrictPrefixOfAWalRecordIsInvalidArgument) {
  const std::string dir = Dir("golden-prefix");
  {
    ServingEngine empty(detector_);
    ASSERT_TRUE(empty.Recover(dir).ok());
  }
  const std::vector<char> header = ReadFile(dir + "/wal.log");
  ASSERT_EQ(header.size(), 8u);
  std::vector<std::vector<char>> records;
  for (const char* hex : kGoldenWalHex) {
    const std::vector<char> golden = Unhex(hex);
    for (size_t keep = 0; keep < golden.size(); ++keep) {
      records.emplace_back(golden.begin(),
                           golden.begin() + static_cast<long>(keep));
      WriteWal(dir + "/wal.log", header, records);
      records.pop_back();
      ServingEngine engine(detector_);
      EXPECT_EQ(engine.Recover(dir).code(), StatusCode::kInvalidArgument)
          << hex << " cut to " << keep;
    }
    records.push_back(golden);
  }
}

// Replay refuses an event record at a non-finite time, as the live path
// refuses the event: it would pin the home's watermark at infinity.
TEST_F(RecoveryTest, WalEventAtNonFiniteTimeIsInvalidArgument) {
  const std::string dir = Dir("golden-inf");
  {
    ServingEngine empty(detector_);
    ASSERT_TRUE(empty.Recover(dir).ok());
  }
  const std::vector<char> header = ReadFile(dir + "/wal.log");
  ASSERT_EQ(header.size(), 8u);
  std::vector<char> event = Unhex(kGoldenWalHex[3]);
  ASSERT_EQ(event[0], 4);  // kOpEvent | u32 slot | f64 time | ...
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(event.data() + 5, &inf, sizeof inf);
  WriteWal(dir + "/wal.log", header, {Unhex(kGoldenWalHex[0]), event});
  ServingEngine engine(detector_);
  Status st = engine.Recover(dir);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("not a finite number"), std::string::npos)
      << st.ToString();
}

// Replay refuses an enum field outside its enumerators, as the wire
// decoder does: an AddRule record whose rule platform is 99, and an event
// record whose location is kNumLocations.
TEST_F(RecoveryTest, WalEnumOutOfRangeIsInvalidArgument) {
  const std::string dir = Dir("golden-enum");
  {
    ServingEngine empty(detector_);
    ASSERT_TRUE(empty.Recover(dir).ok());
  }
  const std::vector<char> header = ReadFile(dir + "/wal.log");
  ASSERT_EQ(header.size(), 8u);
  auto recover_with = [&](std::vector<char> record, size_t at, int32_t v) {
    std::memcpy(record.data() + at, &v, sizeof v);
    WriteWal(dir + "/wal.log", header, {Unhex(kGoldenWalHex[0]), record});
    ServingEngine engine(detector_);
    return engine.Recover(dir);
  };
  const std::vector<char> add_rule = Unhex(kGoldenWalHex[1]);
  ASSERT_EQ(add_rule[0], 2);  // kOpAddRule | u32 slot | i32 id | i32 platform
  const std::vector<char> event = Unhex(kGoldenWalHex[3]);
  ASSERT_EQ(event[0], 4);  // kOpEvent | u32 slot | f64 time | i32 device |
                           // i32 location
  Status st = recover_with(add_rule, 9, 99);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("enum is 99"), std::string::npos)
      << st.ToString();
  st = recover_with(event, 17, rules::kNumLocations);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("enum is 7"), std::string::npos)
      << st.ToString();
  // The offsets are the fields': their last enumerators recover.
  EXPECT_TRUE(recover_with(add_rule, 9, rules::kNumPlatforms - 1).ok());
  EXPECT_TRUE(recover_with(event, 17, rules::kNumLocations - 1).ok());
}

// The engine's running totals (the O(1) read behind kStats) equal
// AggregateStats()'s fields after a seeded mix of every operation that
// moves a session counter — refused events and inspects included — and
// again after recovering from the state dir, snapshot plus WAL tail.
TEST_F(RecoveryTest, RunningTotalsMatchAggregateStats) {
  ServingEngine::Config cfg;
  cfg.snapshot_every_ops = 23;  // snapshots fall inside the mix
  const std::string dir = Dir("totals");
  const std::vector<rules::Rule> pool = HomeRules(8);
  auto expect_totals = [](const ServingEngine& e) {
    const DeploymentSession::CacheStats agg = e.AggregateStats();
    EXPECT_EQ(e.totals().rules, agg.rules);
    EXPECT_EQ(e.totals().events, agg.events);
    EXPECT_EQ(e.totals().inspects, agg.inspects);
  };
  std::mt19937 rng(27);
  std::vector<HomeId> homes;
  double t = 0.0;
  int next_rule_id = 9100;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // `steps` ops of the mix on `e`; ops that cannot apply (no homes, an
  // absent rule, a refused time) still run, as real callers send them.
  auto mix = [&](ServingEngine* e, int steps) {
    for (int step = 0; step < steps; ++step) {
      const uint32_t kind = homes.empty() ? 0 : rng() % 8;
      const HomeId home =
          homes.empty() ? HomeId() : homes[rng() % homes.size()];
      // A refused time a quarter of the time, else the latest time.
      auto now = [&] { return rng() % 4 == 0 ? nan : t; };
      switch (kind) {
        case 0: {
          std::vector<rules::Rule> deployed;
          for (uint32_t i = rng() % 4; i > 0; --i) {
            deployed.push_back(pool[rng() % pool.size()]);
          }
          homes.push_back("totals-" + std::to_string(homes.size()));
          ASSERT_TRUE(e->TryAddHome(homes.back(), deployed).ok());
          break;
        }
        case 1: {
          rules::Rule rule = pool[rng() % pool.size()];
          rule.id = next_rule_id++;
          ASSERT_TRUE(e->TryAddRule(home, rule).ok());
          break;
        }
        case 2: {
          const int id = rng() % 2 == 0
                             ? 9000 + static_cast<int>(rng() % pool.size())
                             : 9100 + static_cast<int>(rng() % 16);
          ASSERT_TRUE(e->TryRemoveRule(home, id).ok());
          break;
        }
        case 3:
        case 4: {
          std::vector<graph::Event> batch;
          for (uint32_t i = 1 + rng() % 6; i > 0; --i) {
            t += 0.05;
            batch.push_back(EventFor(pool[rng() % pool.size()], t));
            if (rng() % 5 == 0) batch.back().time_hours = nan;
          }
          (void)e->TryOnEvents(home, batch.data(), batch.size());
          break;
        }
        case 5:
          (void)e->TryInspect(home, now());
          break;
        case 6:
          (void)e->TryInspectDegraded(home, now());
          break;
        default:
          (void)e->InspectAll(t, 4);
          break;
      }
    }
  };
  {
    ServingEngine engine(detector_, cfg);
    ASSERT_TRUE(engine.Recover(dir).ok());
    mix(&engine, 160);
    expect_totals(engine);
    // The mix moved every total.
    EXPECT_GT(engine.totals().rules, 0u);
    EXPECT_GT(engine.totals().events, 0u);
    EXPECT_GT(engine.totals().inspects, 0u);
  }
  ServingEngine recovered(detector_, cfg);
  ASSERT_TRUE(recovered.Recover(dir).ok());
  ASSERT_TRUE(recovered.recovery_info().snapshot_loaded);
  expect_totals(recovered);
  mix(&recovered, 60);
  expect_totals(recovered);
}

// One engine call per batch writes what one call per event writes: a
// durable engine fed runs of events through TryOnEvents leaves wal.log and
// snapshot.bin byte-identical, after every run, to one fed the same events
// through TryOnEvent. The snapshot cadence (7 ops) falls due inside
// batches; one batch carries two events at +inf (refused, nothing
// journaled) and is cut into four runs (at the +inf events and where the
// snapshot falls due) whose third meets a failed WAL write: the first two
// runs apply, with the snapshot after them taken, and nothing from the
// failed run on does, the fourth run included. The per-event engine is
// fed only the events before `applied_end`.
TEST_F(RecoveryTest, BatchedEventsWriteThePerEventBytes) {
  ServingEngine::Config cfg;
  cfg.snapshot_every_ops = 7;
  const auto rules = HomeRules(6);
  const HomeId ids[2] = {"batch-a", "batch-b"};
  const size_t sizes[] = {1, 5, 3, 8, 2, 6, 1, 9, 4};
  constexpr size_t kFaultRun = 3;  // sizes[3] == 8
  constexpr double kFailedAt = 1.5;
  const std::string single_dir = Dir("batch-single");
  const std::string batch_dir = Dir("batch-batched");
  ServingEngine single(detector_, cfg);
  ServingEngine batched(detector_, cfg);
  for (auto [engine, dir] : {std::pair{&single, single_dir},
                             std::pair{&batched, batch_dir}}) {
    ASSERT_TRUE(engine->Recover(dir).ok());
    ASSERT_TRUE(engine->TryAddHome(ids[0], {rules[0], rules[1]}).ok());
    ASSERT_TRUE(engine->TryAddHome(ids[1], {rules[3], rules[4]}).ok());
  }
  double t = 0.0;
  size_t snapshots_seen = 0;
  std::vector<char> last_snapshot;
  for (size_t r = 0; r < std::size(sizes); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    const HomeId& home = ids[r % 2];
    std::vector<graph::Event> run;
    for (size_t k = 0; k < sizes[r]; ++k) {
      t += 0.03;
      run.push_back(EventFor(rules[(r + k) % rules.size()], t));
    }
    size_t applied_end = 0;
    Status st;
    if (r == kFaultRun) {
      run[1].time_hours = std::numeric_limits<double>::infinity();
      run[5].time_hours = kFailedAt;
      run[6].time_hours = std::numeric_limits<double>::infinity();
      // The runs are events {0}, {2, 3} (the snapshot falls due after 3),
      // {4, 5}, whose write fails, and {7}.
      fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail,
                                    3);
      st = batched.TryOnEvents(home, run.data(), run.size(), &applied_end);
      fault::Registry::Global().Clear();
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);  // first failure
      EXPECT_EQ(applied_end, 4u);
    } else {
      st = batched.TryOnEvents(home, run.data(), run.size(), &applied_end);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(applied_end, run.size());
    }
    for (size_t k = 0; k < applied_end; ++k) {
      st = single.TryOnEvent(home, run[k]);
      if (r == kFaultRun && k == 1) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      } else {
        EXPECT_TRUE(st.ok()) << "event " << k << ": " << st.ToString();
      }
    }

    EXPECT_EQ(batched.journal_seq(), single.journal_seq());
    const std::vector<char> wal = ReadFile(single_dir + "/wal.log");
    const std::vector<char> snapshot = ReadFile(single_dir + "/snapshot.bin");
    ASSERT_GE(wal.size(), 8u);
    ASSERT_EQ(ReadFile(batch_dir + "/wal.log"), wal);
    ASSERT_EQ(ReadFile(batch_dir + "/snapshot.bin"), snapshot);
    if (snapshot != last_snapshot) ++snapshots_seen;
    last_snapshot = snapshot;
  }
  EXPECT_GE(snapshots_seen, 4u);
  // Of the fault run, events 1 and 4 to 7 took no effect; every other
  // event did.
  size_t events = 0;
  for (size_t n : sizes) events += n;
  EXPECT_EQ(batched.journal_seq(), 2 + events - 5);
  const auto& live = batched.home_view(1).live();
  for (const auto& e : live.retained_events()) {
    EXPECT_NE(e.time_hours, kFailedAt);
  }
  // A finite inspection still succeeds after the +inf event.
  EXPECT_TRUE(batched.TryInspect(ids[1], kInspectHour).ok());
  EXPECT_EQ(Fingerprint(&batched), Fingerprint(&single));
}

// A batch is journaled with one WAL write per run. An unrelated armed
// point makes the registry count hits of wal.append.write: an 8-event
// batch is one write, a batch the snapshot cadence cuts is two, and so is
// a batch with a refused event in the middle.
TEST_F(RecoveryTest, EventBatchWritesOncePerRun) {
  ServingEngine::Config cfg;
  cfg.snapshot_every_ops = 12;
  const auto rules = HomeRules(4);
  ServingEngine engine(detector_, cfg);
  ASSERT_TRUE(engine.Recover(Dir("write-count")).ok());
  ASSERT_TRUE(engine.TryAddHome("count-home", rules).ok());  // op 1
  double t = 0.0;
  auto writes_for = [&](std::vector<graph::Event> batch) {
    fault::Registry::Global().Clear();
    fault::Registry::Global().Arm("recovery_test.unreached",
                                  fault::Mode::kFail);
    EXPECT_TRUE(engine.TryOnEvents("count-home", batch.data(), batch.size())
                    .code() != StatusCode::kIOError);
    const uint64_t writes =
        fault::Registry::Global().hits("wal.append.write");
    fault::Registry::Global().Clear();
    return writes;
  };
  auto events = [&](size_t n) {
    std::vector<graph::Event> out;
    for (size_t k = 0; k < n; ++k) {
      t += 0.01;
      out.push_back(EventFor(rules[k % rules.size()], t));
    }
    return out;
  };
  EXPECT_EQ(writes_for(events(8)), 1u);  // ops 2..9
  const uint64_t seq = engine.journal_seq();
  EXPECT_EQ(writes_for(events(8)), 2u);  // the snapshot falls due at op 12
  EXPECT_EQ(engine.journal_seq(), seq + 8);
  std::vector<graph::Event> refused = events(8);
  refused[3].time_hours = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(writes_for(refused), 2u);
  EXPECT_EQ(engine.journal_seq(), seq + 8 + 7);
}

// ---- Golden snapshot ----------------------------------------------------

/// A snapshot file around `payload`: the header with a recomputed CRC, so
/// what refuses a crafted payload is its field list or the restore.
std::vector<char> SnapshotFile(uint64_t seq, const std::vector<char>& payload) {
  util::ByteWriter w;
  w.U32(0x504e5347);  // "GSNP"
  w.U32(1);           // format version
  w.U64(seq);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(util::Crc32c(payload.data(), payload.size()));
  w.Raw(payload.data(), payload.size());
  return w.TakeBuffer();
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  ASSERT_TRUE(util::WriteFile(path, bytes).ok()) << path;
}

// A two-home snapshot with rules and retained events, as the engine wrote
// it before the payload became one field list (length and FNV-1a digest
// recorded then). Recovering from it and snapshotting again gives the same
// bytes; every strict prefix of the file is a corrupt snapshot, and every
// strict prefix of its payload under a valid header is InvalidArgument.
TEST_F(RecoveryTest, SnapshotKeepsItsRecordedBytes) {
  const std::string dir = Dir("golden-snap");
  {
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(
        engine.TryAddHome("alpha", {fixtures::Rule(1), fixtures::Rule(2)})
            .ok());
    ASSERT_TRUE(engine.TryAddHome("beta", {fixtures::Rule(3)}).ok());
    ASSERT_TRUE(engine.TryOnEvent("alpha", fixtures::Event(1.0, 1)).ok());
    ASSERT_TRUE(engine.TryOnEvent("beta", fixtures::Event(4.0, 0)).ok());
    ASSERT_TRUE(engine.TryOnEvent("alpha", fixtures::Event(2.5, 2)).ok());
    ASSERT_TRUE(engine.Snapshot().ok());
  }
  const std::vector<char> bytes = ReadFile(dir + "/snapshot.bin");
  EXPECT_EQ(bytes.size(), 980u);
  EXPECT_EQ(fixtures::Fnv1a(bytes), 0xe0e2ab0d74da7b80ull);

  const std::string replay = Dir("golden-snap-replay");
  {
    ServingEngine empty(detector_);
    ASSERT_TRUE(empty.Recover(replay).ok());
  }
  WriteBytes(replay + "/snapshot.bin", bytes);
  {
    ServingEngine recovered(detector_);
    ASSERT_TRUE(recovered.Recover(replay).ok());
    EXPECT_EQ(recovered.num_homes(), 2u);
    ASSERT_TRUE(recovered.Snapshot().ok());
  }
  EXPECT_EQ(ReadFile(replay + "/snapshot.bin"), bytes);

  const size_t kHeaderBytes = 24;
  const std::vector<char> payload(bytes.begin() + kHeaderBytes, bytes.end());
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    WriteBytes(replay + "/snapshot.bin",
               {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    ServingEngine engine(detector_);
    Status st = engine.Recover(replay);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << "file cut to " << keep;
  }
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    WriteBytes(replay + "/snapshot.bin",
               SnapshotFile(5, {payload.begin(),
                                payload.begin() + static_cast<long>(keep)}));
    ServingEngine engine(detector_);
    EXPECT_EQ(engine.Recover(replay).code(), StatusCode::kInvalidArgument)
        << "payload cut to " << keep;
  }
}

// Restore refuses a non-finite time, as WAL replay does: a snapshot with a
// valid CRC whose one home retains an event at +inf, or whose watermark
// is +inf, would pin that home's watermark and refuse every later inspect.
TEST_F(RecoveryTest, SnapshotAtNonFiniteTimeIsInvalidArgument) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool inf_event : {true, false}) {
    util::ByteWriter w;
    w.U32(1);  // one home
    w.Str("home-inf");
    w.U32(1);  // one rule
    rules::WriteRule(&w, fixtures::Rule(1));
    w.U32(1);  // one retained event
    graph::WriteEvent(&w, fixtures::Event(inf_event ? inf : 1.0, 1));
    w.F64(inf_event ? 1.0 : inf);  // watermark
    const std::string dir =
        Dir(inf_event ? "snap-inf-event" : "snap-inf-watermark");
    {
      ServingEngine empty(detector_);
      ASSERT_TRUE(empty.Recover(dir).ok());
    }
    WriteBytes(dir + "/snapshot.bin", SnapshotFile(1, w.buffer()));
    ServingEngine engine(detector_);
    Status st = engine.Recover(dir);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("finite"), std::string::npos)
        << st.ToString();
  }
}

}  // namespace
}  // namespace glint::core
