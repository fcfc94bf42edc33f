#pragma once
// ProfileStore: sharded, thread-safe persistence facade, indexed by
// command + tags.
//
// Mirrors the paper's dual storage backends (section 4) and goes
// beyond them: persistence is delegated to a registry-resolved
// StoreBackend per shard (see store_backend.hpp), so the store's
// concurrency machinery — sharding, per-shard locking, read caching,
// batched writes, background flushing — is shared by every backend,
// built-in ("memory", "docstore", "files", "cluster") or
// user-registered. The command line and the tag list form the search
// index, exactly as in radical.synapse.profile(command, tags).
//
// Scale model: the store is split into N shards keyed by
// hash(command, tags_key). Each shard owns its own mutex, its own
// registry-resolved backend instance and an in-shard LRU read cache,
// so parallel emulation ranks and watchers can record and query
// profiles concurrently without serializing on one lock or one
// docstore file. All public methods are safe to call from multiple
// threads; a given (command, tags) workload always maps to the same
// shard, so per-workload ordering guarantees are preserved.
//
// Formats: every write is SYNB (binary_codec.hpp). Reads sniff each
// stored blob's magic, so stores written as JSON before SYNB existed
// serve every profile as they are, and a new put simply lands as SYNB
// next to its JSON siblings. The one JSON write left is the docstore's
// fallback for a profile whose SYNB envelope exceeds the 16 MB document
// limit (store_backend.hpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "profile/profile.hpp"
#include "profile/stats.hpp"
#include "profile/store_backend.hpp"

namespace synapse::sys {
class TaskPool;
}

namespace synapse::profile {

/// When the background flush worker persists pending writes on its own
/// (eager backends never run the worker, so the policy is a no-op
/// there). Both triggers combine with explicit flush()/flush_async()
/// calls; 0 disables a trigger.
struct FlushPolicy {
  /// Flush once this many puts accumulated since the last flush.
  size_t max_pending = 0;
  /// Flush once the oldest unflushed put is this many seconds old (the
  /// worker arms a deadline at the first dirty put).
  double max_age_s = 0.0;
};

/// Backend selection plus sharding and caching knobs. Persistent
/// backends record the backend name and shard count in a meta file
/// inside the store directory, so reopening an existing store always
/// uses the layout it was created with (the options are then checked,
/// not honoured: a backend mismatch is a hard error).
struct ProfileStoreOptions {
  /// Registered StoreBackend name; resolved through `registry` (or the
  /// process-wide StoreBackendRegistry::instance() when unset).
  std::string backend = "memory";
  /// Store root for persistent backends; ignored (cleared) by the
  /// "memory" backend.
  std::string directory;
  /// Backend-specific configuration file, handed to the backend
  /// factories verbatim — the cluster backend's spec
  /// (--store-cluster spec.json).
  std::string cluster_spec;
  size_t shards = 8;                   ///< clamped to >= 1
  size_t cache_entries_per_shard = 16; ///< LRU find() cache; 0 disables
  /// Byte budget for the decoded-profile cache, split evenly across
  /// shards (each cached entry is charged its Profile::decoded_bytes()
  /// sum). 0 = no byte bound (the entry count alone bounds the cache);
  /// an entry larger than a whole shard's budget is served but not
  /// cached.
  size_t cache_max_bytes = 64 * 1024 * 1024;
  /// Worker threads for cross-shard operations (put_many, list, flush):
  /// 0 = share the process-wide sys::TaskPool, 1 = serial (no pool),
  /// N >= 2 = a private pool of N threads owned by this store.
  size_t threads = 0;
  FlushPolicy flush_policy;            ///< time/size-triggered flushing
  /// Registry backend names resolve through (nullptr = the process-wide
  /// StoreBackendRegistry::instance()); must outlive the store.
  const StoreBackendRegistry* registry = nullptr;
};

/// Aggregate read-cache counters across all shards.
struct ProfileStoreCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  ///< cache entries dropped by writes
  uint64_t bytes = 0;          ///< decoded bytes currently cached
};

class ProfileStore {
 public:
  /// Backend and layout from `options` (default: in-memory store).
  explicit ProfileStore(ProfileStoreOptions options = {});

  /// Convenience: options with `backend` (a registered name, e.g.
  /// "files", "docstore", "cluster") and `directory` overridden.
  ProfileStore(const std::string& backend, const std::string& directory,
               ProfileStoreOptions options = {});

  ~ProfileStore();
  ProfileStore(ProfileStore&&) noexcept;
  ProfileStore& operator=(ProfileStore&&) noexcept;

  /// Store a profile; returns true when the profile was truncated to fit
  /// a backend document limit (paper section 4.5).
  bool put(const Profile& profile);

  /// Batched insert: profiles are grouped per shard and each shard is
  /// locked once, so concurrent writers pay one lock per shard rather
  /// than one per profile. Returns the number of truncated profiles.
  /// `stored`, when non-null, is resized to profiles.size() and
  /// stored[i] is set true the moment profiles[i] lands — so a caller
  /// catching an exception out of a partial batch knows exactly which
  /// profiles made it and can retry only the rest (the Session's
  /// exactly-once batching contract).
  size_t put_many(const std::vector<Profile>& profiles,
                  std::vector<bool>* stored = nullptr);

  /// All profiles recorded for this command/tags combination, ordered
  /// by recorded timestamp (`created_at`), ties keeping backend order.
  std::vector<Profile> find(const std::string& command,
                            const std::vector<std::string>& tags = {}) const;

  /// find() without the copy-out: the returned vector is shared with
  /// the store's decoded-profile cache, so a cache hit costs one
  /// refcount bump instead of re-decoding (or deep-copying) every
  /// profile. The snapshot is immutable and stays valid after
  /// concurrent writes/removals/evictions (they replace cache entries,
  /// never mutate them). Never null — an unknown workload yields an
  /// empty vector.
  std::shared_ptr<const std::vector<Profile>> find_shared(
      const std::string& command,
      const std::vector<std::string>& tags = {}) const;

  /// Profile with the latest recorded timestamp (created_at), not the
  /// latest insertion: concurrent writers may interleave insertions out
  /// of timestamp order.
  std::optional<Profile> find_latest(
      const std::string& command,
      const std::vector<std::string>& tags = {}) const;

  /// find_latest without the copy: an aliasing pointer into the shared
  /// find_shared() snapshot (the hot replay path — repeated emulation
  /// of a hot profile skips decode AND copy). nullptr when the workload
  /// has no recordings.
  std::shared_ptr<const Profile> find_latest_shared(
      const std::string& command,
      const std::vector<std::string>& tags = {}) const;

  /// Aggregate statistics over all stored repetitions of a workload.
  std::map<std::string, MetricStats> stats(
      const std::string& command,
      const std::vector<std::string>& tags = {}) const;

  /// Remove every stored repetition of a workload; returns the number
  /// removed. The removal dirties the shard like a put, so buffering
  /// backends persist it via the same flush machinery.
  size_t remove(const std::string& command,
                const std::vector<std::string>& tags = {});

  /// Persist pending state (no-op for backends that persist eagerly).
  /// Synchronous and bounded: covers every put() that happened before
  /// the call, independent of the background flush worker.
  void flush();

  /// Queue a flush on the background flush worker and return
  /// immediately. No-op for backends that persist eagerly. The same
  /// worker also honours ProfileStoreOptions::flush_policy: it flushes
  /// on its own once max_pending puts accumulated or the oldest
  /// unflushed put exceeds max_age_s, and it drains outstanding writes
  /// (timed or requested) before the store destructs.
  void flush_async();

  /// The registered backend name a store directory was created with,
  /// read from its meta file (tools that only got a directory use this
  /// instead of guessing "files" and refusing other stores). Returns
  /// the meta file's name VERBATIM — opening resolves it through the
  /// registry, so an unknown name fails there with a diagnostic listing
  /// what is registered. Meta-less directories fall back to the legacy
  /// layout scan ("docstore" for a root collection, else "files").
  static std::string detect_backend(const std::string& directory);

  /// Catalog of every stored profile across all shards
  /// (StoreBackend::list()), sorted by (created_at, command, tags) so
  /// the output is deterministic across shard counts and across the
  /// parallel per-shard fan-out.
  std::vector<StoredProfileEntry> list() const;

  size_t size() const;
  size_t shard_count() const;
  /// Threads cross-shard operations fan out on (1 = serial store).
  size_t task_threads() const;
  /// Registered backend name this store resolves through.
  const std::string& backend() const { return options_.backend; }
  ProfileStoreCacheStats cache_stats() const;
  /// Per-shard backend metadata (StoreBackend::meta()), indexed by
  /// shard — e.g. the cluster backend reports each shard's instance.
  std::vector<json::Value> shard_meta() const;

  /// Canonical tag index key: sorted, comma-joined (tag order is
  /// irrelevant for lookups, as in the paper's profile(command, tags)).
  static std::string tags_key(const std::vector<std::string>& tags);

 private:
  struct Shard;
  struct Flusher;

  /// `tkey` is the profile's tags_key(), computed once by the caller.
  Shard& shard_for(const std::string& command, const std::string& tkey) const;
  /// Backend read of one workload from an already-locked shard, ordered
  /// by created_at.
  std::vector<Profile> read_from(const Shard& shard,
                                 const std::string& command,
                                 const std::string& tkey) const;
  void start_flush_worker();
  void flush_all_shards();
  /// Account `n` fresh buffered writes with the flush worker: arms the
  /// age deadline at the first dirty put, requests a flush when the
  /// size trigger fires. No-op without a worker.
  void note_puts(size_t n);
  /// Adoption of a pre-sharding store directory (flat *.profile.json
  /// files or a root-level docstore collection): re-route every legacy
  /// profile into its owning shard, then remove the legacy files.
  /// Attempted on EVERY open (the check is an existence scan) so
  /// not-yet-claimed files from an interrupted migration are retried.
  /// Individual files are claimed with atomic renames so concurrent
  /// openers never adopt one twice; unparsable files are parked as
  /// *.unreadable rather than aborting the open. A crash between claim
  /// and re-put leaves that one file parked under its *.migrating-*
  /// claim name (data preserved on disk, adopt manually by renaming it
  /// back) — the trade against double-adoption by concurrent openers.
  /// Legacy layouts only ever existed for the files/docstore backends,
  /// so other backends skip this.
  void migrate_legacy_layout();

  ProfileStoreOptions options_;
  /// Private pool when options_.threads >= 2; destroyed after shards_
  /// would be unsafe only with outstanding tasks, and there are none:
  /// every pool use blocks until its tasks finished (parallel_for), and
  /// the flush worker joins first (flusher_ declared last).
  std::unique_ptr<sys::TaskPool> owned_pool_;
  /// The pool cross-shard ops run on: &shared(), owned_pool_.get(), or
  /// nullptr for serial (threads == 1).
  sys::TaskPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Flusher> flusher_;
};

}  // namespace synapse::profile
