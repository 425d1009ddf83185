// Crash-safety proof for the durable ServingEngine: a scripted workload of
// AddHome / AddRule / RemoveRule / OnEvent ops (plus a mid-run snapshot) is
// run against a write-ahead-logged engine while fault injection kills or
// fails the process at every registered I/O fault point; after each
// interruption a fresh engine recovers from the state directory, the
// not-yet-durable tail of the script is reapplied, and the resulting
// InspectAll output must be BIT-IDENTICAL to an uninterrupted reference
// run. Plus: torn-tail truncation, flipped-byte checksum detection, and
// corrupt-snapshot refusal.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/serving.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace glint::core {
namespace {

/// One scripted engine mutation. The script below is the ground truth both
/// the reference run and every recovery replays.
struct Op {
  enum Kind { kAddHome, kAddRule, kRemoveRule, kEvent } kind;
  HomeId home;                        // stable id (rides the WAL for kAddHome)
  std::vector<rules::Rule> deployed;  // kAddHome
  rules::Rule rule;                   // kAddRule
  int rule_id = 0;                    // kRemoveRule
  graph::Event event;                 // kEvent
};

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
    }
    return Status::Internal("unreachable");
  }

  /// Applies script ops [from, end), snapshotting after op index
  /// `snapshot_after` when the engine is durable (-1 = never). Stops at
  /// the first error.
  static Status RunScript(ServingEngine* engine, size_t from,
                          int snapshot_after) {
    for (size_t i = from; i < script_->size(); ++i) {
      GLINT_RETURN_IF_ERROR(ApplyOp(engine, (*script_)[i]));
      if (static_cast<int>(i) == snapshot_after && engine->durable()) {
        GLINT_RETURN_IF_ERROR(engine->Snapshot());
      }
    }
    return Status::OK();
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
    ASSERT_LE(seq, script_->size()) << context;
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
  EXPECT_EQ(engine.journal_seq(), script_->size());
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

TEST_F(RecoveryTest, CrashMatrixRecoversBitIdentical) {
  // The DurableUninterruptedMatchesReference workload above has already
  // executed every reachable point at least once in this process; running
  // it first is also what makes gtest ordering a requirement here, so
  // re-run a throwaway durable workload to guarantee registration even if
  // this test runs alone.
  {
    const std::string dir = Dir("enumerate");
    ServingEngine engine(detector_);
    ASSERT_TRUE(engine.Recover(dir).ok());
    ASSERT_TRUE(RunScript(&engine, 0, kSnapshotAfter).ok());
    ASSERT_TRUE(engine.Snapshot().ok());
  }

  const auto points = MatrixPoints();
  ASSERT_GE(points.size(), 10u) << "fault-point enumeration looks broken";
  int crashes = 0;
  for (const auto& point : points) {
    for (int nth = 1; nth <= 2; ++nth) {
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
        Status st = engine.Recover(dir);
        if (st.ok()) st = RunScript(&engine, 0, kSnapshotAfter);
        if (st.ok()) st = engine.Snapshot();
        _exit(st.ok() ? 0 : 3);
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
    const std::string context = "fail @ " + point;
    const std::string dir = Dir("fail_" + point);
    {
      fault::Registry::Global().Clear();
      fault::Registry::Global().Arm(point, fault::Mode::kFail, 1);
      ServingEngine engine(detector_);
      Status st = engine.Recover(dir);
      // An injected failure during initial recovery leaves the engine
      // non-durable; the workload then runs in-memory only and recovery
      // below replays nothing — the reapply covers the whole script.
      if (st.ok()) {
        st = RunScript(&engine, 0, kSnapshotAfter);
        if (st.ok()) st = engine.Snapshot();
      }
      // Whatever the injected failure aborted, the engine never applied a
      // non-durable op; the WAL is still at a record boundary.
      fault::Registry::Global().Clear();
    }
    RecoverAndVerify(dir, context);
  }
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
    EXPECT_EQ(engine.journal_seq(), script_->size());
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
  size_t target = script_->size() / 2;
  for (size_t rec = 0; rec < script_->size(); ++rec) {
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

}  // namespace
}  // namespace glint::core
