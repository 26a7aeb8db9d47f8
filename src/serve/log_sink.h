/// \file
/// Byte sinks behind the per-shard append-log (serve::ShardLog).
///
/// The log's durability semantics live behind this interface so chaos runs
/// and the crash-recovery tests can inject storage faults — disk errors,
/// slow I/O, dropped fsyncs, torn (truncated) writes — and prove that
/// recovery replays exactly the durable prefix instead of crashing or
/// silently resurrecting lost data.
///
/// Model: append() buffers bytes with the OS (visible to a post-crash read
/// after a mere process kill); sync() makes everything appended so far
/// survive power loss; reset() truncates the log to empty (compaction).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/resilience.h"

namespace sy::serve {

class LogSink {
 public:
  virtual ~LogSink() = default;

  virtual void append(const std::uint8_t* data, std::size_t len) = 0;
  virtual void sync() = 0;
  virtual void reset() = 0;
};

/// POSIX file appender: O_APPEND writes, fsync() on sync(), ftruncate() on
/// reset(). I/O failures (including ENOSPC/EIO surfaced by a partial write
/// or fsync) throw serve::IoError carrying the errno, path, and operation,
/// so the circuit breaker can tell transient faults from fatal
/// misconfiguration. IoError derives std::runtime_error — callers that only
/// wanted "fail loudly" are unchanged.
class FileLogSink final : public LogSink {
 public:
  explicit FileLogSink(std::string path);
  ~FileLogSink() override;

  FileLogSink(const FileLogSink&) = delete;
  FileLogSink& operator=(const FileLogSink&) = delete;

  void append(const std::uint8_t* data, std::size_t len) override;
  void sync() override;
  void reset() override;

 private:
  std::string path_;
  int fd_{-1};
};

/// One storage fault, armed on a ChaosController over a window of the op
/// stream: disk errors, slow I/O, and fsync drops injected through
/// ChaosLogSink while traffic continues.
struct FaultPlan {
  enum class Kind {
    kNone,
    kErrorOps,     // append/sync ops in the window throw IoError(EIO)
    kSlowOps,      // append/sync ops in the window stall for delay_ns
    kDropSyncOps,  // sync() ops in the window silently do nothing
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

/// Shared switchboard for live fault injection. One controller is shared by
/// every shard's ChaosLogSink, so the op-index window is global across the
/// store (matching "the disk went bad", not "one shard's file went bad") and
/// the harness can arm/disarm mid-run from the scenario thread. Thread-safe.
class ChaosController {
 public:
  /// What the sinks should do with the next operation.
  enum class Action { kPass, kError, kDelay, kDropSync };

  /// Arms `plan`; the op window is relative to this call.
  /// Re-arming replaces the previous plan.
  void arm(FaultPlan plan);
  /// Stops injecting; op counting continues.
  void disarm();
  bool armed() const;

  struct Stats {
    std::uint64_t ops{0};              // appends + syncs observed
    std::uint64_t injected_errors{0};  // ops failed with IoError
    std::uint64_t injected_delays{0};  // ops stalled
    std::uint64_t dropped_syncs{0};    // syncs silently skipped
  };
  Stats stats() const;

  /// Sink-side hooks: count the op and decide its fate.
  Action next_append_action();
  Action next_sync_action();
  std::uint64_t delay_ns() const;

 private:
  Action classify_locked(bool is_sync);

  mutable std::mutex mutex_;
  FaultPlan plan_{};
  bool armed_{false};
  std::uint64_t armed_at_op_{0};
  std::uint64_t ops_{0};
  Stats counters_{};
};

/// Write-through chaos wrapper: delegates to a real sink (a FileLogSink, so
/// the gateway under test stays genuinely durable, or a MemoryLogSink for
/// crash images) but
/// consults a shared ChaosController before every append/sync — injecting
/// IoError(EIO), a stall, or an fsync drop per the armed FaultPlan. reset()
/// always passes through: compaction only truncates after its snapshot is
/// safely renamed into place, so faulting it would test the wrong invariant.
class ChaosLogSink final : public LogSink {
 public:
  /// `sleep` is injectable for tests; default is a real thread sleep.
  ChaosLogSink(std::unique_ptr<LogSink> inner,
               std::shared_ptr<ChaosController> chaos, std::string path,
               SleepFn sleep = {});

  void append(const std::uint8_t* data, std::size_t len) override;
  void sync() override;
  void reset() override;

 private:
  std::unique_ptr<LogSink> inner_;
  std::shared_ptr<ChaosController> chaos_;
  std::string path_;
  SleepFn sleep_;
};

/// In-memory sink for crash-recovery tests: keeps the appended bytes and
/// the durable prefix (everything the last sync() covered). Wrapped in a
/// ChaosLogSink armed with kDropSyncOps, syncs stop reaching it and the
/// durable prefix freezes. materialize_crash() then writes what storage held
/// to the real log path, which a fresh store recovers with FileLogSinks.
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
