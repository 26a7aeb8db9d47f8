/// \file
/// The persistence volume: the one seam every durable gateway write goes
/// through.
///
/// Two operations cover every write the gateway makes to disk:
///   - open_log(path) returns the LogSink a serve::ShardLog appends to;
///   - publish(path, bytes, durability) replaces a whole file atomically
///     (write `path.tmp`, then rename) — shard snapshots and model bundles.
/// Reads (ModelStore::load, ShardLog::replay, load_shard_snapshot) stay
/// plain file reads.
///
/// FileVolume is the POSIX implementation. ChaosVolume wraps another volume
/// and consults a shared ChaosController before every log op and publish,
/// so chaos runs and the crash-recovery tests can inject disk errors, slow
/// I/O and dropped fsyncs, and prove that recovery replays exactly the
/// durable prefix instead of crashing or resurrecting lost data.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/resilience.h"

namespace sy::serve {

/// An append-only log file. append() hands bytes to the OS (visible to a
/// post-crash read after a mere process kill); sync() makes everything
/// appended so far survive power loss; reset() truncates the log to empty
/// (compaction).
class LogSink {
 public:
  virtual ~LogSink() = default;

  virtual void append(const std::uint8_t* data, std::size_t len) = 0;
  virtual void sync() = 0;
  virtual void reset() = 0;
};

/// Where the gateway's durable state lives. Implementations are
/// thread-safe: shards open logs and publish snapshots concurrently, and
/// bundles publish from any pool worker.
class Volume {
 public:
  /// How far publish() goes before it returns.
  enum class Durability {
    /// tmp + rename: a reader sees the old file or the new one, never a
    /// torn one, but a power loss may leave the old one.
    kAtomic,
    /// Also fsyncs the data before the rename and the directory after it,
    /// so the new file survives power loss.
    kDurable,
  };

  virtual ~Volume() = default;

  /// The sink for the append-only log at `path` (created if absent).
  virtual std::unique_ptr<LogSink> open_log(const std::string& path) = 0;
  /// Replaces the file at `path` with `bytes` by writing `path + ".tmp"`
  /// and renaming it into place.
  virtual void publish(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       Durability durability) = 0;
};

/// POSIX volume. Logs are O_APPEND files: fsync() on sync(), ftruncate()
/// plus fsync() on reset(). Every failure — open, write, fsync, rename —
/// throws serve::IoError carrying the errno, path and operation, so retry
/// and the circuit breaker can tell transient faults (EIO, ENOSPC) from
/// misconfiguration (ENOTDIR, EACCES).
class FileVolume : public Volume {
 public:
  std::unique_ptr<LogSink> open_log(const std::string& path) override;
  void publish(const std::string& path, const std::vector<std::uint8_t>& bytes,
               Durability durability) override;
};

/// One storage fault, armed on a ChaosController over a window of the op
/// stream: disk errors, slow I/O, and fsync drops injected through a
/// ChaosVolume while traffic continues.
struct FaultPlan {
  enum class Kind {
    kNone,
    kErrorOps,     // ops in the window throw IoError(EIO)
    kSlowOps,      // ops in the window stall for delay_ns, then complete
    kDropSyncOps,  // log syncs in the window silently do nothing
  };
  Kind kind{Kind::kNone};
  /// First affected op, counted from arming.
  std::uint64_t at{0};
  /// Window length in ops after `at` (0 = until disarmed).
  std::uint64_t count{0};
  /// kSlowOps only: injected stall per op.
  std::uint64_t delay_ns{0};
};

/// Parses a `--fault-plan` spec into a FaultPlan:
///   "error[@AT[+COUNT]]"            kErrorOps
///   "slow[@AT[+COUNT]]:DELAY_US"    kSlowOps
///   "dropsync[@AT[+COUNT]]"         kDropSyncOps
/// AT is the first affected op index (counted from arming), COUNT the window
/// length (omitted = until disarmed). Each number is a whole field of
/// decimal digits. Throws std::invalid_argument on a malformed spec — a
/// sign, space, or suffix, a value beyond 64 bits, or a delay whose
/// nanosecond count overflows.
FaultPlan parse_fault_plan(const std::string& spec);

/// Shared switchboard for live fault injection. One controller serves a
/// whole ChaosVolume, so the op-index window is global across the volume
/// (matching "the disk went bad", not "one shard's file went bad") and the
/// harness can arm/disarm mid-run from the scenario thread. Thread-safe.
class ChaosController {
 public:
  /// What the volume should do with the next operation.
  enum class Action { kPass, kError, kDelay, kDropSync };

  /// Arms `plan`; the op window is relative to this call.
  /// Re-arming replaces the previous plan.
  void arm(FaultPlan plan);
  /// Stops injecting; op counting continues.
  void disarm();
  bool armed() const;

  struct Stats {
    std::uint64_t ops{0};              // log appends, syncs and publishes
    std::uint64_t injected_errors{0};  // ops failed with IoError
    std::uint64_t injected_delays{0};  // ops stalled
    std::uint64_t dropped_syncs{0};    // syncs silently skipped
  };
  Stats stats() const;

  /// Counts one op — a log append or a publish, or a log fsync when `sync`
  /// is set — and decides its fate.
  Action next_action(bool sync);
  std::uint64_t delay_ns() const;

 private:
  mutable std::mutex mutex_;
  FaultPlan plan_{};
  bool armed_{false};
  std::uint64_t armed_at_op_{0};
  std::uint64_t ops_{0};
  Stats counters_{};
};

/// Chaos decorator over another volume (a FileVolume, so the gateway under
/// test stays genuinely durable). Every log append and sync, and every
/// publish, first consults the shared ChaosController, which may inject
/// IoError(EIO), a stall through `sleep`, or (log syncs only) a dropped
/// fsync. Log reset() always passes through: compaction only truncates
/// after its snapshot is safely published, so faulting it would test the
/// wrong invariant.
class ChaosVolume final : public Volume {
 public:
  /// `sleep` is injectable for tests; default is a real thread sleep.
  ChaosVolume(std::shared_ptr<Volume> inner,
              std::shared_ptr<ChaosController> chaos, SleepFn sleep = {});

  std::unique_ptr<LogSink> open_log(const std::string& path) override;
  void publish(const std::string& path, const std::vector<std::uint8_t>& bytes,
               Durability durability) override;

 private:
  std::shared_ptr<Volume> inner_;
  std::shared_ptr<ChaosController> chaos_;
  SleepFn sleep_;
};

/// In-memory log for crash-recovery tests: keeps the appended bytes and
/// the durable prefix (everything the last sync() covered). Behind a
/// ChaosVolume armed with kDropSyncOps, syncs stop reaching it and the
/// durable prefix freezes. materialize_crash() then writes what storage held
/// to the real log path, which a fresh store recovers from disk.
class MemoryLogSink final : public LogSink {
 public:
  explicit MemoryLogSink(std::string path) : path_(std::move(path)) {}

  void append(const std::uint8_t* data, std::size_t len) override;
  void sync() override { durable_ = buffer_.size(); }
  /// ftruncate-to-zero is durable at once in this model: compaction resets
  /// the log only after its snapshot is fsynced and renamed into place.
  void reset() override;

  /// Simulates the crash: replaces the file at `path` with the durable
  /// image, cut to its first `cut_at` bytes when that is shorter (a torn
  /// write).
  void materialize_crash(std::size_t cut_at = SIZE_MAX) const;

  std::size_t bytes_appended() const { return buffer_.size(); }

 private:
  std::string path_;
  std::vector<std::uint8_t> buffer_;
  std::size_t durable_{0};
};

}  // namespace sy::serve
