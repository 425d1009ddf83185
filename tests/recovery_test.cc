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
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "codec_fixtures.h"
#include "core/detector.h"
#include "core/serving.h"
#include "util/crc32c.h"
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

// ---- Golden WAL records -------------------------------------------------

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

std::vector<char> Unhex(const std::string& hex) {
  std::vector<char> out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

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

// One engine call per batch writes what one call per event writes: a
// durable engine fed runs of events through TryOnEvents leaves wal.log and
// snapshot.bin byte-identical, after every run, to one fed the same events
// through TryOnEvent. The snapshot cadence (7 ops) falls due inside
// batches; one batch carries an event at +inf (refused, nothing journaled)
// and meets a failed WAL append on its fourth event: the events before it
// apply, the failed one does not, the ones after it do.
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
    if (r == kFaultRun) {
      run[1].time_hours = std::numeric_limits<double>::infinity();
      run[3].time_hours = kFailedAt;  // the 3rd append of the run fails
      fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail,
                                    3);
    }
    for (size_t k = 0; k < run.size(); ++k) {
      const Status st = single.TryOnEvent(home, run[k]);
      if (r == kFaultRun && k == 1) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      } else if (r == kFaultRun && k == 3) {
        EXPECT_EQ(st.code(), StatusCode::kIOError);
      } else {
        EXPECT_TRUE(st.ok()) << "event " << k << ": " << st.ToString();
      }
    }
    if (r == kFaultRun) {
      fault::Registry::Global().Arm("wal.append.write", fault::Mode::kFail,
                                    3);
    }
    size_t applied_end = 0;
    const Status st =
        batched.TryOnEvents(home, run.data(), run.size(), &applied_end);
    EXPECT_EQ(applied_end, run.size());
    if (r == kFaultRun) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);  // first failure
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    fault::Registry::Global().Clear();

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
  // Neither refused event took effect; every other one did.
  size_t events = 0;
  for (size_t n : sizes) events += n;
  EXPECT_EQ(batched.journal_seq(), 2 + events - 2);
  const auto& live = batched.home_view(1).live();
  for (const auto& e : live.retained_events()) {
    EXPECT_NE(e.time_hours, kFailedAt);
  }
  // A finite inspection still succeeds after the +inf event.
  EXPECT_TRUE(batched.TryInspect(ids[1], kInspectHour).ok());
  EXPECT_EQ(Fingerprint(&batched), Fingerprint(&single));
}

}  // namespace
}  // namespace glint::core
