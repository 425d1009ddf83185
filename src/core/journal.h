#pragma once

// Write-ahead log + snapshot pair for one ServingEngine's state directory:
//
//   <dir>/wal.log       append-only record log
//   <dir>/snapshot.bin  latest full-state snapshot (atomically replaced)
//
// WAL layout (all little-endian):
//   header: u32 magic 'GWAL' | u32 format version
//   record: u32 payload_len | u32 crc32c(payload) | payload
//   payload: u64 seq | operation bytes (opaque to the journal)
//
// Snapshot layout (one field list for the header, read and written):
//   u32 magic 'GSNP' | u32 version | u64 seq | u32 payload_len |
//   u32 crc32c(payload) | payload
// Recover reads the file whole; the payload must fill the rest of it.
//
// Durability contract:
//   - AppendRun writes a run of n >= 1 records with one write and one
//     flush to the OS; a crash can lose or tear only the *tail* run (a
//     prefix of its records may survive whole), never a middle one. A
//     failed append truncates the file back to the end of the last run
//     written, so none of the failed run's records survive.
//   - WriteSnapshot stages to snapshot.bin.tmp, fsyncs, renames over the
//     old snapshot (atomic on POSIX), fsyncs the directory, and only then
//     truncates the WAL — a crash at any step leaves either the old
//     (snapshot, full WAL) pair or the new one, never a mix that loses
//     operations (replay filters records with seq <= snapshot seq).
//   - Recover validates every record checksum; the first torn or corrupt
//     record ends the replay and the file is truncated to the last valid
//     boundary (graceful degradation — corruption is never silently
//     replayed and never a crash). A frame longer than the rest of the
//     file is torn: the file's size bounds what recovery allocates.
//
// Every fopen / fwrite / fsync / rename in this file sits behind a
// GLINT_FAULT_POINT, so the crash-matrix tests can kill or fail the
// process at each I/O step (see util/fault.h for the naming convention).

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/binio.h"
#include "util/status.h"

namespace glint::core {

class Journal {
 public:
  struct Config {
    /// fsync the WAL after every AppendRun. Off by default: the torn-tail
    /// detection already bounds loss to the final run, and serving
    /// workloads append per event batch.
    bool sync_each_append = false;
  };

  /// What Recover found; surfaced as glint.recovery.* counters too.
  struct RecoveryInfo {
    bool snapshot_loaded = false;
    uint64_t snapshot_seq = 0;   ///< ops folded into the snapshot
    size_t tail_records = 0;     ///< WAL records handed to apply
    size_t skipped_records = 0;  ///< records with seq <= snapshot_seq
    size_t truncated_bytes = 0;  ///< torn/corrupt tail dropped from the WAL
    bool tail_torn = false;      ///< a torn/corrupt tail was detected
  };

  explicit Journal(std::string dir);
  Journal(std::string dir, Config config);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& dir() const { return dir_; }
  std::string wal_path() const { return dir_ + "/wal.log"; }
  std::string snapshot_path() const { return dir_ + "/snapshot.bin"; }

  /// Creates the state directory if needed, loads the snapshot (if one
  /// exists) through `apply_snapshot`, replays the WAL tail through
  /// `apply_record` (already filtered to seq > snapshot seq), truncates a
  /// torn/corrupt tail, and leaves the WAL open for appends. Must be
  /// called exactly once, before any StartRecord/WriteSnapshot.
  Status Recover(
      const std::function<Status(const std::vector<char>&)>& apply_snapshot,
      const std::function<Status(uint64_t, const std::vector<char>&)>&
          apply_record,
      RecoveryInfo* info);

  /// Starts record `seq` of the pending run and returns the writer that
  /// takes its operation bytes. The journal frames the record (length and
  /// checksum) when the next one starts or the run is appended. Records
  /// are framed in place in one buffer the journal keeps, so a run
  /// allocates nothing once that buffer has grown.
  util::ByteWriter& StartRecord(uint64_t seq);

  /// Appends the pending run (at least one record) with one write and
  /// one flush, then empties it. On any error (including an injected
  /// fault) no record of the run is durable: the file is truncated back
  /// to the end of the last run written (so a later append after a
  /// transient failure cannot leave a duplicate or interleaved record),
  /// and the caller must apply none of the run's operations.
  Status AppendRun();

  /// Atomically replaces the snapshot with `payload` (covering every op up
  /// to and including `seq`) and truncates the WAL.
  Status WriteSnapshot(uint64_t seq, const std::vector<char>& payload);

 private:
  Status OpenWal(bool truncate);
  Status CloseWal();
  /// Writes the open record's length and checksum into its frame.
  void CloseRecord();
  /// Writes the pending run to the file (the fault points, the write,
  /// the flush and the optional fsync); AppendRun rolls back on failure.
  Status WriteRun();
  /// fsyncs the WAL.
  Status Sync();

  static constexpr size_t kNoRecord = SIZE_MAX;

  std::string dir_;
  Config config_;
  std::FILE* wal_ = nullptr;
  bool recovered_ = false;
  /// File offset one past the last record written: where a failed run
  /// is truncated back to.
  size_t end_ = 0;
  /// The pending run, framed records back to back.
  util::ByteWriter run_;
  size_t run_records_ = 0;
  /// Offset in run_ of the record StartRecord opened (kNoRecord once it is
  /// framed) and of the run's last record.
  size_t open_record_ = kNoRecord;
  size_t last_record_ = 0;
};

}  // namespace glint::core
