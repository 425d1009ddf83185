#include "core/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "obs/obs.h"
#include "util/binio.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/file_io.h"

namespace glint::core {

namespace {

using util::ErrnoStatus;

constexpr uint32_t kWalMagic = 0x4c415747;   // "GWAL"
constexpr uint32_t kSnapMagic = 0x504e5347;  // "GSNP"
constexpr uint32_t kVersion = 1;
constexpr size_t kWalHeaderBytes = 2 * sizeof(uint32_t);
/// Per-record frame ahead of the payload: length + checksum.
constexpr size_t kRecordFrameBytes = 2 * sizeof(uint32_t);
/// Refuse absurd record lengths so a corrupt length field cannot drive a
/// multi-gigabyte allocation.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

/// The snapshot header: magic | version | seq | payload_len |
/// crc32c(payload).
template <class IO, class U64, class U32>
bool SnapshotHeaderFields(IO& io, U64& seq, U32& len, U32& crc) {
  return io.Const32(kSnapMagic, "magic") && io.Const32(kVersion, "version") &&
         io.U64(seq) && io.U32(len) && io.U32(crc);
}

Status FsyncFile(std::FILE* f, const std::string& path) {
  if (::fsync(fileno(f)) != 0) return ErrnoStatus("cannot fsync", path);
  return Status::OK();
}

/// fsyncs a directory so a rename inside it is durable.
Status FsyncDir(const std::string& dir) {
  GLINT_FAULT_POINT("journal.dirsync");
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("cannot fsync dir", dir);
  return Status::OK();
}

}  // namespace

Journal::Journal(std::string dir) : Journal(std::move(dir), Config()) {}

Journal::Journal(std::string dir, Config config)
    : dir_(std::move(dir)), config_(config) {}

Journal::~Journal() {
  if (wal_ != nullptr) {
    std::fflush(wal_);
    std::fclose(wal_);
  }
}

Status Journal::CloseWal() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
  return Status::OK();
}

Status Journal::OpenWal(bool truncate) {
  CloseWal();
  GLINT_FAULT_POINT("wal.open");
  wal_ = std::fopen(wal_path().c_str(), truncate ? "wb" : "ab");
  if (wal_ == nullptr) {
    return ErrnoStatus("cannot open WAL", wal_path());
  }
  std::fseek(wal_, 0, SEEK_END);
  long size = std::ftell(wal_);
  if (size < 0) size = 0;
  if (truncate || static_cast<size_t>(size) < kWalHeaderBytes) {
    GLINT_FAULT_POINT("wal.header.write");
    const uint32_t header[2] = {kWalMagic, kVersion};
    if (std::fwrite(header, sizeof header, 1, wal_) != 1) {
      return ErrnoStatus("cannot write WAL header", wal_path());
    }
    GLINT_FAULT_POINT("wal.header.flush");
    if (std::fflush(wal_) != 0) {
      return ErrnoStatus("cannot flush WAL header", wal_path());
    }
    size += static_cast<long>(sizeof header);
  }
  // Appends advance the end by what they write; no append asks the file.
  end_ = static_cast<size_t>(size);
  return Status::OK();
}

util::ByteWriter& Journal::StartRecord(uint64_t seq) {
  GLINT_CHECK(recovered_);  // Recover() opens the WAL
  CloseRecord();
  open_record_ = run_.size();
  run_.U32(0);  // body length and checksum, written by CloseRecord
  run_.U32(0);
  run_.U64(seq);
  ++run_records_;
  return run_;
}

void Journal::CloseRecord() {
  if (open_record_ == kNoRecord) return;
  const size_t body = open_record_ + kRecordFrameBytes;
  const size_t len = run_.size() - body;
  run_.U32At(open_record_, static_cast<uint32_t>(len));
  run_.U32At(open_record_ + sizeof(uint32_t),
             util::Crc32c(run_.buffer().data() + body, len));
  last_record_ = open_record_;
  open_record_ = kNoRecord;
}

Status Journal::WriteRun() {
  const std::vector<char>& bytes = run_.buffer();
  GLINT_FAULT_POINT("wal.append.write");
  size_t written = 0;
  if (fault::Registry::Armed()) {
    // Push every record of the run but the last, and the last one's frame
    // without its body, to the OS before the tear point, so a crash here
    // leaves whole records followed by a torn one: the shape recovery
    // must cut back to a record boundary. Unarmed appends stay one
    // buffered write + one flush.
    written = last_record_ + kRecordFrameBytes;
    if (std::fwrite(bytes.data(), 1, written, wal_) != written) {
      return ErrnoStatus("cannot append WAL run", wal_path());
    }
    std::fflush(wal_);
    GLINT_FAULT_POINT("wal.append.tear");
  }
  const size_t rest = bytes.size() - written;
  if (std::fwrite(bytes.data() + written, 1, rest, wal_) != rest) {
    return ErrnoStatus("cannot append WAL run", wal_path());
  }
  GLINT_FAULT_POINT("wal.append.flush");
  if (std::fflush(wal_) != 0) {
    return ErrnoStatus("cannot flush WAL", wal_path());
  }
  return config_.sync_each_append ? Sync() : Status::OK();
}

Status Journal::AppendRun() {
  GLINT_CHECK(run_records_ > 0);
  CloseRecord();
  const size_t records = run_records_;
  const size_t bytes = run_.size();
  // With no WAL open (a post-snapshot reopen failed, or a rollback did),
  // refuse instead of writing through a dead handle.
  Status st = wal_ == nullptr ? Status::IOError("WAL not open: " + wal_path())
                              : WriteRun();
  run_.Clear();
  run_records_ = 0;
  if (!st.ok()) {
    if (wal_ != nullptr) {
      // Nothing of the failed run may stay in the file. If the file
      // cannot be cut back to the last run's end, close it: the next
      // append is refused rather than written after a torn run.
      std::fflush(wal_);
      if (::ftruncate(fileno(wal_), static_cast<off_t>(end_)) == 0) {
        std::fseek(wal_, 0, SEEK_END);
      } else {
        CloseWal();
      }
    }
    return st;
  }
  end_ += bytes;
  GLINT_OBS_COUNT("glint.journal.appends", static_cast<int64_t>(records));
  GLINT_OBS_COUNT("glint.journal.writes", 1);
  return Status::OK();
}

Status Journal::Sync() {
  GLINT_CHECK(recovered_);
  GLINT_FAULT_POINT("wal.sync");
  return FsyncFile(wal_, wal_path());
}

Status Journal::WriteSnapshot(uint64_t seq,
                              const std::vector<char>& payload) {
  GLINT_CHECK(recovered_);
  GLINT_OBS_COUNT("glint.journal.snapshots", 1);
  GLINT_OBS_TIMER(timer, "glint.journal.snapshot_ms");
  const std::string tmp = snapshot_path() + ".tmp";

  GLINT_FAULT_POINT("snapshot.open");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("cannot open snapshot", tmp);

  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = util::Crc32c(payload.data(), payload.size());
  const std::vector<char> header = util::EncodeAll(
      [&](auto& io) { return SnapshotHeaderFields(io, seq, len, crc); });

  auto write_all = [&]() -> Status {
    GLINT_FAULT_POINT("snapshot.write");
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fwrite(payload.data(), 1, payload.size(), f) != payload.size()) {
      return ErrnoStatus("cannot write snapshot", tmp);
    }
    GLINT_FAULT_POINT("snapshot.sync");
    if (std::fflush(f) != 0) return ErrnoStatus("cannot flush snapshot", tmp);
    return FsyncFile(f, tmp);
  };
  Status st = write_all();
  std::fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }

  GLINT_FAULT_POINT("snapshot.rename");
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    std::remove(tmp.c_str());
    return ErrnoStatus("cannot rename snapshot", tmp);
  }
  GLINT_RETURN_IF_ERROR(FsyncDir(dir_));

  // The snapshot is durable; the logged ops it covers are dead weight.
  // A crash before this truncate double-covers them, which replay's seq
  // filter makes harmless.
  GLINT_FAULT_POINT("wal.truncate");
  return OpenWal(/*truncate=*/true);
}

Status Journal::Recover(
    const std::function<Status(const std::vector<char>&)>& apply_snapshot,
    const std::function<Status(uint64_t, const std::vector<char>&)>&
        apply_record,
    RecoveryInfo* info) {
  GLINT_CHECK(!recovered_);
  *info = RecoveryInfo();

  GLINT_FAULT_POINT("journal.mkdir");
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("cannot create state dir", dir_);
  }

  // ---- Snapshot --------------------------------------------------------
  GLINT_FAULT_POINT("snapshot.read");
  Result<std::vector<char>> snapshot = util::ReadFile(snapshot_path());
  if (snapshot.ok()) {
    std::vector<char>& bytes = snapshot.value();
    util::ByteReader r(bytes);
    util::LayoutReader io(&r);
    uint64_t seq = 0;
    uint32_t len = 0, crc = 0;
    // The payload must fill the rest of the file exactly.
    if (!SnapshotHeaderFields(io, seq, len, crc) || len != r.remaining() ||
        util::Crc32c(bytes.data() + r.pos(), len) != crc) {
      // A snapshot is replaced atomically, so a bad one means external
      // corruption of the authoritative state — refuse to guess.
      return Status::IOError("corrupt snapshot: " + snapshot_path());
    }
    bytes.erase(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(r.pos()));
    GLINT_RETURN_IF_ERROR(apply_snapshot(bytes));
    info->snapshot_loaded = true;
    info->snapshot_seq = seq;
    GLINT_OBS_COUNT("glint.recovery.snapshots_loaded", 1);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // ---- WAL tail --------------------------------------------------------
  GLINT_FAULT_POINT("wal.recover.read");
  std::FILE* f = std::fopen(wal_path().c_str(), "rb");
  if (f != nullptr) {
    size_t valid_end = 0;  // file offset after the last valid record
    uint32_t header[2] = {0, 0};
    if (std::fread(header, sizeof header, 1, f) == 1 &&
        header[0] == kWalMagic && header[1] == kVersion) {
      valid_end = kWalHeaderBytes;
      std::vector<char> body;
      for (;;) {
        uint32_t len = 0, crc = 0;
        if (std::fread(&len, sizeof len, 1, f) != 1 ||
            std::fread(&crc, sizeof crc, 1, f) != 1) {
          break;  // clean end or torn frame
        }
        if (len < sizeof(uint64_t) || len > kMaxRecordBytes) break;
        body.resize(len);
        if (std::fread(body.data(), 1, len, f) != len) break;  // torn body
        if (util::Crc32c(body.data(), len) != crc) break;      // corrupt
        util::ByteReader r(body.data(), body.size());
        uint64_t seq = 0;
        r.U64(&seq);
        if (seq <= info->snapshot_seq) {
          // Already folded into the snapshot (crash landed between the
          // snapshot rename and the WAL truncate).
          ++info->skipped_records;
        } else {
          std::vector<char> payload(body.begin() + sizeof(uint64_t),
                                    body.end());
          Status st = apply_record(seq, payload);
          if (!st.ok()) {
            std::fclose(f);
            return st;
          }
          ++info->tail_records;
        }
        valid_end += kRecordFrameBytes + len;
      }
    }
    std::fseek(f, 0, SEEK_END);
    const long file_size = std::ftell(f);
    std::fclose(f);
    if (file_size > 0 && static_cast<size_t>(file_size) > valid_end) {
      info->truncated_bytes = static_cast<size_t>(file_size) - valid_end;
      info->tail_torn = true;
      GLINT_OBS_COUNT("glint.recovery.torn_tails", 1);
      GLINT_OBS_COUNT("glint.recovery.truncated_bytes",
                      static_cast<int64_t>(info->truncated_bytes));
      GLINT_FAULT_POINT("wal.recover.truncate");
      if (::truncate(wal_path().c_str(),
                     static_cast<off_t>(valid_end)) != 0) {
        return ErrnoStatus("cannot truncate torn WAL tail", wal_path());
      }
    }
    GLINT_OBS_COUNT("glint.recovery.records_replayed",
                    static_cast<int64_t>(info->tail_records));
  }

  // Recovery never rewrites history: reopen for append (creating the file
  // and header if this is a fresh directory).
  recovered_ = true;
  Status st = OpenWal(/*truncate=*/false);
  if (!st.ok()) recovered_ = false;
  return st;
}

}  // namespace glint::core
