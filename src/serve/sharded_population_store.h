/// \file
/// Sharded population feature store for the serving gateway.
///
/// The single copy-on-write map behind AuthServer serializes every
/// contribution through one structure; at gateway scale thousands of phones
/// upload concurrently. ShardedPopulationStore partitions contributors across
/// N shards by user-hash: contribution takes only the owning shard's mutex,
/// so writers on different shards never contend. Training still wants one
/// immutable map, so snapshot() merges the shards (in shard-index order, a
/// deterministic layout) into a cached std::shared_ptr<const PopulationStore>
/// that is rebuilt lazily only after new contributions.
///
/// Rebuilds are incremental: the snapshot cache keeps, per (context, shard),
/// the bucket handle it captured last time (a core::PopulationBucket copy
/// only shares the immutable block list). A rebuild re-captures only the
/// shards whose version moved — every bucket of a stale shard is re-shared
/// under ONE mutex acquisition, preserving the intra-shard point-in-time
/// consistency the full re-merge had — then re-concatenates block pointers
/// for exactly the contexts whose captured handles changed (copy-on-write
/// makes handle identity a sound change detector) and reuses every other
/// merged bucket wholesale. Work per rebuild is therefore proportional to
/// what changed since the last snapshot — observable as
/// Stats::snapshot_buckets_copied — not to the total store size, so
/// per-enroll contribute/snapshot patterns are O(delta), not O(users²).
///
/// Determinism contract: with shards == 1 and the same contribution order,
/// the merged snapshot is element-for-element identical to the single-map
/// CowPopulationStore path, so trained models are bit-identical (asserted in
/// tests/serve_sharded_store_test.cc).
///
/// Durability (optional, attach_persistence): each shard persists as a
/// digest-protected snapshot file plus an append-only delta log of the
/// contributions since (serve/shard_snapshot.h, serve/shard_log.h). The log
/// compacts into a fresh snapshot once its record count crosses a threshold.
/// attach_persistence on a fresh store replays snapshot+log back into a store
/// whose merged snapshot is bit-identical to the pre-crash one (asserted
/// across random op interleavings in serve_shard_recovery_property_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/auth_server.h"
#include "obs/registry.h"
#include "serve/shard_log.h"
#include "serve/volume.h"

namespace sy::serve {

/// Durability knobs for attach_persistence().
struct PersistenceOptions {
  /// Directory holding shard_<i>.snap / shard_<i>.log; created if absent.
  std::string dir;
  /// Fold the log into a fresh snapshot once it holds this many records
  /// (0 = only on explicit checkpoint()). Compaction runs under the shard's
  /// mutex, so the threshold trades per-contribution tail latency against
  /// replay length after a crash.
  std::size_t compact_threshold{1024};
  /// fsync the log every N records (0 = only at compaction/checkpoint).
  /// 1 survives power loss per contribution; a process crash alone loses
  /// nothing either way, because appends reach the page cache immediately.
  std::size_t sync_every{1};
  /// Where the shard logs and snapshots are written (serve/volume.h).
  /// Null = a FileVolume. A ChaosVolume here fails the log and the snapshot
  /// writes together, as a bad disk would.
  std::shared_ptr<Volume> volume{};
  /// Graceful degradation (set by the gateway; may be null): log I/O runs
  /// through this breaker. While it is open — or once an append has failed,
  /// possibly leaving torn bytes — contributions stay fully visible in
  /// memory but their log records are *deferred*; the next allowed
  /// contribution (or flush_deferred()) heals the shard by folding
  /// everything into a fresh snapshot. Not owned; must outlive the store.
  CircuitBreaker* breaker{nullptr};
  /// Retry schedule for transient log-append/fsync failures.
  BackoffPolicy io_retry{};
  /// Seed for the deterministic retry jitter (per-shard streams are forked
  /// from it).
  std::uint64_t io_retry_seed{0x10bac0ff};
  /// Injectable backoff sleep (tests); default real thread sleep.
  SleepFn io_retry_sleep{};
};

/// What attach_persistence() recovered from disk.
struct RecoveryStats {
  std::size_t shards_with_snapshot{0};
  std::uint64_t snapshot_vectors{0};  // vectors restored from snapshots
  std::uint64_t replayed_records{0};  // log records applied (seq > last_seq)
  std::uint64_t replayed_vectors{0};  // vectors restored from the logs
  std::size_t torn_tails_dropped{0};  // logs whose final record was torn
};

class ShardedPopulationStore final : public core::PopulationStoreBackend {
 public:
  /// `registry` hosts the store.* metrics (contribution/snapshot/log
  /// counters plus snapshot_rebuild_ns / log_append_ns / log_fsync_ns /
  /// recovery_replay_ns latency histograms); nullptr = private registry.
  explicit ShardedPopulationStore(std::size_t shards = 16,
                                  obs::Registry* registry = nullptr);

  /// Thread-safe: locks only the contributor's shard. With persistence
  /// attached, the contribution is appended to the shard's log (and the log
  /// compacted) before the call returns.
  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors) override;

  /// Thread-safe: returns the cached merged snapshot, rebuilding it first if
  /// any shard grew since the last call. The returned map never changes.
  /// A rebuild is incremental: untouched context buckets are shared from the
  /// previous snapshot and only contexts contributed to since the last call
  /// are re-merged (block-pointer concatenation — vector payloads are never
  /// copied), so alternating contribute/snapshot is O(delta), not O(store).
  std::shared_ptr<const core::PopulationStore> snapshot() const override;

  /// Thread-safe: sums the per-shard bucket sizes for `context`.
  std::size_t store_size(sensors::DetectedContext context) const override;

  /// Enables durability: recovers any existing snapshot+log state under
  /// options.dir into the shards (recovered vectors order BEFORE anything
  /// contributed to this instance so far), then checkpoints every shard so
  /// the on-disk state is canonical (fresh snapshots, empty logs — which
  /// also clears any torn log tail the crash left behind). Thread-safe
  /// against concurrent contribute(): each shard is recovered under its own
  /// mutex, and a contribution races either before its shard's recovery
  /// (folded into the checkpoint snapshot) or after (appended to the new
  /// log) — durable exactly once either way.
  ///
  /// Failure contract: throws std::logic_error if already attached.
  /// Corrupt files throw core::ModelCorruptError from the staging phase,
  /// before anything is mutated — repairing the file and retrying on the
  /// same instance is fully supported. An I/O failure while installing
  /// (log open / snapshot write) also rolls the store back to "not
  /// attached" with its pre-attach in-memory contents intact, but shards
  /// compacted before the failure may already have folded raced-in live
  /// contributions into their on-disk snapshots — so after an I/O failure,
  /// recover into a FRESH store rather than re-attaching this instance
  /// (re-attaching would re-merge those contributions a second time).
  RecoveryStats attach_persistence(const PersistenceOptions& options);

  /// Folds every shard's log into a fresh snapshot now (e.g. before a
  /// planned shutdown). No-op when persistence is not attached. Also flushes
  /// any deferred records (the snapshot covers them).
  void checkpoint();

  /// Degraded-recovery replay: heals every shard that holds deferred log
  /// records (or a possibly-torn log) by folding its full in-memory state
  /// into a fresh snapshot. Reports the outcome to the breaker and stops at
  /// the first failing shard (the volume is still bad). The gateway invokes
  /// this from the breaker's open→closed transition; it is also safe to call
  /// at any time. Returns the number of deferred records made durable.
  std::uint64_t flush_deferred();

  /// Log records currently deferred in memory across all shards (0 in
  /// healthy operation). Deferred contributions are fully visible to
  /// snapshot()/training; only their durability is pending.
  std::uint64_t deferred_records() const;

  bool persistent() const { return persistent_.load(std::memory_order_acquire); }

  std::size_t shard_count() const { return shards_.size(); }
  /// Which shard a contributor's vectors land in (splitmix64 of the token).
  std::size_t shard_of(int contributor_token) const;
  /// Vectors held by one shard for `context` (diagnostics / balance checks).
  std::size_t shard_size(std::size_t shard,
                         sensors::DetectedContext context) const;

  /// Back-compat stats view over the store.* registry counters. The four
  /// snapshot-cache counters (rebuilds / reuses / buckets_copied /
  /// buckets_shared) are read under snapshot_mutex_, so a stats() call never
  /// observes a half-applied rebuild — e.g. a rebuild counted whose bucket
  /// tallies are still missing. Fields read zero when instrumentation is
  /// disabled (SY_OBS_OFF).
  struct Stats {
    std::uint64_t contributions{0};      // contribute() calls
    std::uint64_t snapshot_rebuilds{0};  // snapshots that had to merge
    std::uint64_t snapshot_reuses{0};    // snapshots served from cache
    /// Merged context buckets re-concatenated because a contribution touched
    /// their context since the last rebuild. This is the O(delta) evidence:
    /// it grows with contexts-touched-per-rebuild, never with store size
    /// (bench_serving --enroll-heavy gates on it).
    std::uint64_t snapshot_buckets_copied{0};
    /// Merged context buckets reused wholesale from the previous snapshot
    /// (one pointer copy, no block-list traversal).
    std::uint64_t snapshot_buckets_shared{0};
    std::uint64_t log_records{0};        // delta records appended
    std::uint64_t log_compactions{0};    // log-into-snapshot folds
    std::uint64_t log_deferred{0};       // records deferred while degraded
    std::uint64_t deferred_flushed{0};   // deferred records made durable
  };
  Stats stats() const;

  /// Registry hosting this store's metrics (the one passed in, or the
  /// private fallback).
  obs::Registry& metrics() { return *registry_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    core::PopulationStore data;
    /// Bumped on every contribution; the snapshot cache keys off the vector
    /// of shard versions it merged.
    std::uint64_t version{0};
    /// --- durability (null/zero until attach_persistence reaches the shard)
    std::unique_ptr<ShardLog> log;
    std::uint64_t next_seq{1};
    std::uint64_t records_since_snapshot{0};
    std::uint64_t records_since_sync{0};
    /// --- graceful degradation (only used when persist_.breaker is set)
    /// Count of contributions whose log record is deferred: the data is in
    /// `data` (and owns a seq number), but nothing reached the log. Healing
    /// folds the whole shard into a snapshot whose last_seq covers them.
    std::uint64_t deferred{0};
    /// A log append threw mid-record: the file may hold torn bytes, so no
    /// further appends until a compaction resets it.
    bool log_dirty{false};
    /// Deterministic jitter stream for this shard's append retries.
    std::uint64_t retry_draws{0};
  };

  /// Contribution persistence tail of contribute(): append-with-retry, sync
  /// cadence, compaction, and the degraded defer/heal paths. Caller holds
  /// the shard's mutex.
  void persist_contribution_locked(std::size_t s, int contributor_token,
                                   sensors::DetectedContext context,
                                   const std::vector<std::vector<double>>&
                                       vectors);

  /// Writes shard s's snapshot (last_seq = next_seq - 1) and resets its log.
  /// Caller holds the shard's mutex and persistence is attached.
  void compact_shard_locked(std::size_t s);

  /// attach_persistence is two-phase so any failure rolls back to exactly
  /// "not attached": phase A stages disk state without mutating shards
  /// (where all corruption errors surface); phase B installs per shard,
  /// recording what it prepended so rollback_installed_shards can undo it.
  struct StagedShard {
    core::PopulationStore segment;  // recovered snapshot + replayed log
    std::uint64_t max_seq{0};
    /// Filled during install, consumed by rollback: how many BLOCKS of each
    /// context's bucket came from disk (the recovered prefix the install
    /// prepended), and which contexts already existed live.
    std::map<sensors::DetectedContext, std::size_t> recovered_prefix;
    std::set<sensors::DetectedContext> live_contexts;
  };
  void install_staged_shard(std::size_t s, StagedShard& stage,
                            const PersistenceOptions& options);
  void rollback_installed_shards(const std::vector<StagedShard>& staged,
                                 std::size_t installed);

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Invalidates the snapshot cache (rollback is the one path that can make
  /// a context key disappear, which handle-identity tracking cannot see).
  /// Must not be called while holding any shard mutex.
  void invalidate_snapshot_cache() const;

  mutable std::mutex snapshot_mutex_;
  mutable std::shared_ptr<const core::PopulationStore> cached_;
  mutable std::vector<std::uint64_t> cached_versions_;
  /// Per context, the bucket handle captured from each shard (index = shard)
  /// at its last re-capture. Handles share the shards' immutable block
  /// lists; copy-on-write guarantees a shard mutation always produces a
  /// different handle, so comparing storage identity detects every change.
  mutable std::map<sensors::DetectedContext,
                   std::vector<core::PopulationBucket>>
      cached_segments_;

  /// Written once by attach_persistence before any shard's log is installed;
  /// shard-mutex acquire/release orders the reads in contribute().
  PersistenceOptions persist_;
  std::atomic<bool> persistent_{false};

  std::unique_ptr<obs::Registry> own_registry_;  // fallback when none passed
  obs::Registry* registry_;
  obs::Counter* contributions_;
  /// The four snapshot-cache counters are only written under
  /// snapshot_mutex_; stats() reads them under it too, so the group is
  /// always mutually consistent.
  obs::Counter* snapshot_rebuilds_;
  obs::Counter* snapshot_reuses_;
  obs::Counter* snapshot_buckets_copied_;
  obs::Counter* snapshot_buckets_shared_;
  obs::Counter* log_records_;
  obs::Counter* log_compactions_;
  obs::Counter* log_deferred_;       // store.log_deferred
  obs::Counter* deferred_flushed_;   // store.deferred_flushed
  obs::Histogram* snapshot_rebuild_ns_;  // merge passes only, not reuse hits
  obs::Histogram* log_append_ns_;
  obs::Histogram* log_fsync_ns_;
  obs::Histogram* recovery_replay_ns_;  // successful attach_persistence calls
};

}  // namespace sy::serve
