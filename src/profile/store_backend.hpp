#pragma once
// StoreBackend: the pluggable per-shard persistence interface behind
// ProfileStore, and the name -> factory registry resolving it.
//
// The paper's store is one MongoDB instance and inherits its limits
// (section 4.5). Mirroring the AtomRegistry (PR 1) and WatcherRegistry
// (PR 3), storage backends are resolved by name: ProfileStore asks the
// registry for one backend instance PER SHARD, and anything registered
// here — the built-ins `memory`, `docstore`, `files` and `cluster`, or
// a user-registered custom backend — persists profiles without the
// store knowing its type. Every future backend (remote, replicated,
// tiered) is a registration, not a ProfileStore refactor.
//
// Contract: a backend instance serves exactly one shard. ProfileStore
// serializes calls per shard (the shard mutex), so implementations need
// no internal locking against their own shard — but different shards'
// instances run concurrently, so any state shared BETWEEN instances
// (files on disk, a common service) must tolerate concurrent access.
// read() may return profiles in any order; ProfileStore sorts by
// recorded timestamp.
//
// Formats: the built-ins write SYNB (binary_codec.hpp) — files as
// *.profile.synb, docstore as a base64 envelope document — except that
// the docstore stores a profile whose envelope cannot fit its 16 MB
// document limit as the plain JSON document, which the docstore then
// truncates (paper section 4.5). Reads sniff every file and document,
// so JSON written before SYNB existed stays readable as it is.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "profile/profile.hpp"

namespace synapse::docstore {
class Store;
}

namespace synapse::profile {

/// Canonical tag index key: sorted, comma-joined (tag order is
/// irrelevant for lookups, as in the paper's profile(command, tags)).
/// Shared by ProfileStore routing and backend implementations.
std::string store_tags_key(const std::vector<std::string>& tags);

/// Everything a backend factory needs to open one shard. Factories are
/// called once per shard with consecutive indices; `directory` is the
/// store root (empty for in-memory stores) and `spec_file` the
/// backend-specific configuration file (--store-cluster), empty when
/// none was given.
struct StoreBackendContext {
  std::string directory;
  size_t shard_index = 0;
  size_t shard_count = 1;
  std::string spec_file;
};

/// One stored profile as a backend catalogs it (synapse-inspect
/// listings): identity plus how and how big it is encoded at rest.
struct StoredProfileEntry {
  std::string command;
  std::vector<std::string> tags;
  double created_at = 0.0;
  std::string format;         ///< "json" | "binary"
  size_t encoded_bytes = 0;   ///< size at rest (0 when not encoded)
};

class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  /// Store one profile; `tkey` is store_tags_key(profile.tags), computed
  /// once by the caller. Returns true when the profile was truncated to
  /// fit a document limit (paper section 4.5).
  virtual bool put(const Profile& profile, const std::string& tkey) = 0;

  /// All profiles stored for (command, tkey), in any order.
  virtual std::vector<Profile> read(const std::string& command,
                                    const std::string& tkey) const = 0;

  /// Remove every profile stored for (command, tkey); returns the
  /// number removed.
  virtual size_t remove(const std::string& command,
                        const std::string& tkey) = 0;

  /// Persist pending state. Default: no-op (eager backends).
  virtual void flush() {}

  /// Number of profiles in this shard.
  virtual size_t size() const = 0;

  /// True when writes buffer until flush() — ProfileStore then runs its
  /// background flush worker (FlushPolicy, flush_async, drain on
  /// destruction). Eager backends return false and never see the worker.
  virtual bool needs_flush() const { return false; }

  /// Cross-process version stamp of the shard's data, used to invalidate
  /// ProfileStore's read cache when OTHER processes write (in-process
  /// writes invalidate explicitly). Backends whose view is
  /// process-private may keep the constant default.
  virtual uint64_t cache_stamp() const { return 0; }

  /// Backend-specific description of this shard (diagnostics /
  /// synapse-inspect): e.g. the cluster backend reports the docstore
  /// instance the shard is placed on. Default: empty object.
  virtual json::Value meta() const { return json::Value(json::Object{}); }

  /// Catalog of every profile in this shard, in any order. Default:
  /// empty — custom backends that predate the listing API keep working,
  /// they just show up empty in synapse-inspect listings.
  virtual std::vector<StoredProfileEntry> list() const { return {}; }
};

/// The docstore built-in: one embedded docstore::Store per shard
/// directory (16 MB document limit applies, paper section 4.5). Public
/// because the cluster backend reuses it verbatim for each shard it
/// places on a docstore instance — the on-disk format is identical, so
/// a shard's data can move between the two backends by moving its
/// directory.
class DocStoreShardBackend : public StoreBackend {
 public:
  /// Writes wrap a SYNB blob in a base64 envelope document that keeps
  /// the query fields (command, tags_key, created_at) as plain
  /// top-level members; reads also take plain JSON profile documents.
  explicit DocStoreShardBackend(const std::string& shard_dir);
  ~DocStoreShardBackend() override;

  bool put(const Profile& profile, const std::string& tkey) override;
  std::vector<Profile> read(const std::string& command,
                            const std::string& tkey) const override;
  size_t remove(const std::string& command, const std::string& tkey) override;
  void flush() override;
  size_t size() const override;
  bool needs_flush() const override { return true; }
  json::Value meta() const override;
  std::vector<StoredProfileEntry> list() const override;

 private:
  std::unique_ptr<docstore::Store> store_;
};

class StoreBackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<StoreBackend>(const StoreBackendContext&)>;

  /// The process-wide registry with the built-ins pre-registered.
  /// Runtime registrations here are visible to every ProfileStore that
  /// does not inject its own registry.
  static StoreBackendRegistry& instance();

  /// A fresh registry seeded with the built-in factories. Use this (via
  /// ProfileStoreOptions::registry) to scope custom backends to one
  /// store.
  StoreBackendRegistry();

  /// Register or replace a factory. Registering a name that already
  /// exists overrides it — how a user swaps a built-in for a custom
  /// implementation.
  void register_backend(const std::string& name, Factory factory);

  /// Instantiate one shard's backend. Throws sys::ConfigError for
  /// unknown names (the message lists what is registered).
  std::unique_ptr<StoreBackend> create(const std::string& name,
                                       const StoreBackendContext& context) const;

  /// Throw the same ConfigError as create() for an unknown name without
  /// instantiating anything — lets callers validate a backend name up
  /// front (e.g. before stamping a store meta file).
  void ensure_registered(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;

  /// The built-in backend set.
  static const std::vector<std::string>& builtin_names();

 private:
  std::map<std::string, Factory> factories_;
};

namespace storedetail {
// Filesystem helpers shared by the built-in backends, ProfileStore's
// meta/migration code and the cluster backend's placement file. All
// claim-style writes go through link()/rename() so concurrent store
// instances and processes never observe partial files.

bool file_exists(const std::string& path);

/// Temp-file suffix unique across processes (pid) AND across store
/// instances/threads within one process (counter).
std::string unique_tmp_suffix();

/// True for names ending in ".profile.json" (the files backend's
/// pre-SYNB one-file-per-profile layout; also the pre-sharding legacy
/// layout, which is why the legacy migration scans use exactly this).
bool has_profile_suffix(const std::string& name);

/// True for names ending in ".profile.synb" (the files backend's
/// SYNB files, the only ones it writes).
bool has_binary_profile_suffix(const std::string& name);

/// Number of profile entries (either suffix) directly inside `dir`.
size_t count_profile_files(const std::string& dir);

/// Filesystem-safe mangling of commands/tags for file names.
std::string sanitize(const std::string& s);
}  // namespace storedetail

}  // namespace synapse::profile
