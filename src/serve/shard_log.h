/// \file
/// Per-shard append-only delta log for the sharded population store.
///
/// Between snapshots, every contribution to a shard is appended as one
/// self-framed record:
///
///   [magic "SYL1"] [payload_len u32] [payload] [SHA-256(payload), 32 bytes]
///   payload: [seq u64] [contributor u32] [context u32]
///            [n_vectors u64] per vector: [dim u64] [raw doubles]
///
/// `seq` increases strictly per shard across the shard's whole lifetime and
/// never resets, so recovery can skip records a snapshot already folded in
/// (a crash between "snapshot renamed" and "log truncated" replays nothing
/// twice). Replay distinguishes the two failure shapes the corruption-matrix
/// tests pin down:
///   - an INCOMPLETE record at end-of-file is a torn write from the crash
///     itself: dropped with a warning, recovery succeeds;
///   - a complete record whose digest (or framing) does not verify is media
///     corruption: ModelCorruptError naming the path and shard.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/auth_server.h"
#include "serve/volume.h"

namespace sy::serve {

class ShardLog {
 public:
  struct Record {
    std::uint64_t seq{0};
    int contributor{0};
    sensors::DetectedContext context{sensors::DetectedContext::kStationary};
    std::vector<std::vector<double>> vectors;
  };

  struct ReplayResult {
    std::vector<Record> records;
    bool dropped_torn_tail{false};
    std::size_t torn_tail_bytes{0};
  };

  /// Log file name for shard `shard` under `dir`.
  static std::string path_for(const std::string& dir, std::size_t shard);

  /// Appends to `sink`, the log at `path` (Volume::open_log(path)).
  ShardLog(std::string path, std::size_t shard,
           std::unique_ptr<LogSink> sink);

  void append(std::uint64_t seq, int contributor,
              sensors::DetectedContext context,
              const std::vector<std::vector<double>>& vectors);
  void sync() { sink_->sync(); }
  /// Truncates the log to empty (after a snapshot folded its records in).
  void reset();

  std::uint64_t records_appended() const { return records_appended_; }
  const std::string& path() const { return path_; }

  /// Reads every intact record from `path` (a missing file is an empty log).
  /// Torn tail => dropped with a util::log_warn; mid-log corruption =>
  /// core::ModelCorruptError naming `path` and `shard`.
  static ReplayResult replay(const std::string& path, std::size_t shard);

 private:
  std::string path_;
  std::size_t shard_;
  std::unique_ptr<LogSink> sink_;
  std::uint64_t records_appended_{0};
};

}  // namespace sy::serve
