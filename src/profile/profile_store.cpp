#include "profile/profile_store.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "docstore/docstore.hpp"
#include "json/json.hpp"
#include "profile/store_backend.hpp"
#include "sys/dir.hpp"
#include "sys/error.hpp"
#include "sys/task_pool.hpp"

namespace synapse::profile {

namespace {

constexpr const char* kMetaFile = "store.meta.json";

using storedetail::count_profile_files;
using storedetail::file_exists;
using storedetail::has_profile_suffix;
using storedetail::unique_tmp_suffix;

/// FNV-1a, chosen over std::hash for a shard routing that is stable
/// across processes and library versions (it is part of the layout).
uint64_t fnv1a(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string index_key(const std::string& command,
                      const std::string& tags_key) {
  return command + '\x1f' + tags_key;
}

/// Run body(i) for i in [0, count): on the store's task pool when it
/// has one (threads != 1), serially inline otherwise. Every cross-shard
/// operation goes through here; bodies lock at most one shard, so
/// shard-per-task never nests locks.
void run_on(sys::TaskPool* pool, size_t count,
            const std::function<void(size_t)>& body) {
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool->parallel_for(count, body);
}

}  // namespace

// --- shard -----------------------------------------------------------------

struct ProfileStore::Shard {
  mutable std::mutex mutex;

  /// Registry-resolved persistence for this shard.
  std::unique_ptr<StoreBackend> backend;

  // In-shard LRU decoded-profile cache: find() results keyed by
  // command+tags, bounded by an entry count AND a decoded-byte budget.
  // Guarded by `mutex`; front of the list is most recently used. Each
  // entry carries the backend's cache_stamp() at fill time, so writes
  // from other processes invalidate stale entries (backends with a
  // process-private view keep a constant stamp). Entries are immutable
  // shared snapshots: find_shared() hands out a reference to the cached
  // vector, and writers REPLACE entries rather than mutating them, so a
  // reader's snapshot survives concurrent puts/removes/evictions.
  struct CacheEntry {
    std::string key;
    std::shared_ptr<const std::vector<Profile>> profiles;
    uint64_t stamp = 0;
    size_t bytes = 0;  ///< decoded_bytes() sum at fill time
  };
  std::list<CacheEntry> lru;
  std::map<std::string, std::list<CacheEntry>::iterator> lru_index;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  size_t cache_bytes = 0;  ///< sum of CacheEntry::bytes

  static size_t entry_bytes(const std::vector<Profile>& profiles) {
    size_t bytes = 0;
    for (const auto& p : profiles) bytes += p.decoded_bytes();
    return bytes;
  }

  /// Caller holds `mutex`. `stamp` must match the entry's fill stamp;
  /// a mismatched (stale) entry is dropped and counted as a miss.
  std::shared_ptr<const std::vector<Profile>> cache_lookup(
      const std::string& key, uint64_t stamp) {
    const auto it = lru_index.find(key);
    if (it == lru_index.end()) {
      ++cache_misses;
      return nullptr;
    }
    if (it->second->stamp != stamp) {
      cache_invalidate(key);
      ++cache_misses;
      return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);
    ++cache_hits;
    return it->second->profiles;
  }

  /// Caller holds `mutex`. `max_bytes` is this shard's slice of the
  /// store's decoded-byte budget (0 = unbounded); an entry that alone
  /// exceeds it is not cached at all — a single oversize workload must
  /// not wipe every other hot entry.
  void cache_store(const std::string& key,
                   std::shared_ptr<const std::vector<Profile>> profiles,
                   uint64_t stamp, size_t capacity, size_t max_bytes) {
    if (capacity == 0) return;
    const size_t bytes = entry_bytes(*profiles);
    if (max_bytes > 0 && bytes > max_bytes) {
      cache_invalidate(key);  // don't leave a stale smaller snapshot
      return;
    }
    const auto it = lru_index.find(key);
    if (it != lru_index.end()) {
      cache_bytes -= it->second->bytes;
      it->second->profiles = std::move(profiles);
      it->second->stamp = stamp;
      it->second->bytes = bytes;
      cache_bytes += bytes;
      lru.splice(lru.begin(), lru, it->second);
    } else {
      lru.push_front(CacheEntry{key, std::move(profiles), stamp, bytes});
      lru_index[key] = lru.begin();
      cache_bytes += bytes;
    }
    while (lru.size() > capacity ||
           (max_bytes > 0 && cache_bytes > max_bytes)) {
      cache_bytes -= lru.back().bytes;
      lru_index.erase(lru.back().key);
      lru.pop_back();
    }
  }

  /// Caller holds `mutex`.
  void cache_invalidate(const std::string& key) {
    const auto it = lru_index.find(key);
    if (it == lru_index.end()) return;
    cache_bytes -= it->second->bytes;
    lru.erase(it->second);
    lru_index.erase(it);
    ++cache_invalidations;
  }
};

// --- background flush worker ----------------------------------------------

struct ProfileStore::Flusher {
  using Clock = std::chrono::steady_clock;

  std::mutex mutex;
  std::condition_variable cv;
  bool pending = false;  ///< a flush_async() request not yet picked up
  bool running = false;  ///< the worker is flushing right now
  bool stop = false;
  /// Writes since the last flush began; drives FlushPolicy::max_pending
  /// and the drain-on-destruction guarantee.
  size_t dirty = 0;
  /// When the first of the `dirty` writes happened; the age deadline
  /// anchor (meaningful only while dirty > 0).
  Clock::time_point oldest_dirty{};
  FlushPolicy policy;
  std::thread worker;

  Clock::duration max_age() const {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(policy.max_age_s));
  }

  ~Flusher() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    cv.notify_all();
    // The worker drains outstanding writes (a timed flush still in
    // flight, or dirty puts whose deadline never fired) before exiting;
    // see start_flush_worker().
    if (worker.joinable()) worker.join();
  }
};

// --- construction ----------------------------------------------------------

ProfileStore::ProfileStore(ProfileStoreOptions options)
    : options_(std::move(options)) {
  options_.shards = std::max<size_t>(1, options_.shards);
  const StoreBackendRegistry& registry =
      options_.registry ? *options_.registry : StoreBackendRegistry::instance();
  // Validate the requested name before touching the filesystem — the
  // diagnostic lists every registered backend.
  registry.ensure_registered(options_.backend);
  // The memory backend never persists; a stray directory would only
  // stamp a meta file over a path it will never read again.
  if (options_.backend == "memory") options_.directory.clear();

  bool fresh_meta = false;
  if (!options_.directory.empty()) {
    ::mkdir(options_.directory.c_str(), 0755);
    // The backend name and shard count are part of the on-disk layout:
    // honour the meta file of an existing store over the requested
    // options, so a store reopened with different options still finds
    // every profile. The meta file is claimed with link() so that when
    // several processes first-open the same directory concurrently,
    // exactly one defines the layout; losers read the winner's
    // (complete, link() only exposes whole files) meta.
    const std::string meta_path = options_.directory + "/" + kMetaFile;
    if (!file_exists(meta_path)) {
      // Refuse to stamp a meta file over legacy content of ANOTHER
      // backend: that would bind the directory to a layout that can
      // never adopt the existing profiles.
      if (options_.backend != "files" &&
          count_profile_files(options_.directory) > 0) {
        throw sys::ConfigError(
            "profile store '" + options_.directory +
            "' holds a files-backend layout; open it with the 'files' "
            "backend");
      }
      if (options_.backend != "docstore" &&
          file_exists(options_.directory + "/profiles.collection.json")) {
        throw sys::ConfigError(
            "profile store '" + options_.directory +
            "' holds a docstore layout; open it with the 'docstore' "
            "backend");
      }
      json::Object meta;
      meta["shards"] = options_.shards;
      meta["backend"] = options_.backend;
      const std::string tmp = meta_path + ".tmp-" + unique_tmp_suffix();
      json::save_file(tmp, json::Value(std::move(meta)), /*indent=*/0);
      if (::link(tmp.c_str(), meta_path.c_str()) == 0) {
        fresh_meta = true;
      } else if (errno != EEXIST) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw sys::SystemError("link(" + meta_path + ")", err);
      }
      ::unlink(tmp.c_str());
    }
    if (!fresh_meta) {
      const json::Value meta = json::load_file(meta_path);
      const size_t persisted =
          static_cast<size_t>(meta.get_or("shards", 0.0));
      if (persisted >= 1) options_.shards = persisted;
      // A store directory is bound to the backend that created it;
      // opening it with another backend would silently show zero
      // profiles and interleave incompatible layouts. A meta file
      // naming a backend nobody registered is a hard error too — not a
      // silent fall-through to some default.
      const std::string persisted_backend =
          meta.get_or("backend", options_.backend);
      if (persisted_backend != options_.backend) {
        if (!registry.contains(persisted_backend)) {
          std::string known;
          for (const auto& name : registry.names()) {
            if (!known.empty()) known += ", ";
            known += name;
          }
          throw sys::ConfigError(
              "profile store '" + options_.directory +
              "' was created with backend '" + persisted_backend +
              "', which is not registered (registered: " + known + ")");
        }
        throw sys::ConfigError("profile store '" + options_.directory +
                               "' was created with the " + persisted_backend +
                               " backend, not " + options_.backend);
      }
      // A "format" key (stores written before SYNB-only writes) is
      // ignored: every put is SYNB and reads sniff every stored blob.
    }
  }

  // The pool cross-shard operations fan out on. threads == 1 keeps the
  // store fully serial (no pool at all); 0 shares the process-wide
  // pool so a dozen stores do not spawn a dozen thread herds.
  if (options_.threads == 0) {
    pool_ = &sys::TaskPool::shared();
  } else if (options_.threads >= 2) {
    owned_pool_ = std::make_unique<sys::TaskPool>(options_.threads);
    pool_ = owned_pool_.get();
  }

  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    StoreBackendContext context;
    context.directory = options_.directory;
    context.shard_index = i;
    context.shard_count = options_.shards;
    context.spec_file = options_.cluster_spec;
    shard->backend = registry.create(options_.backend, context);
    shards_.push_back(std::move(shard));
  }
  // A directory may hold profiles written by the pre-sharding layout —
  // either because this open created the store meta, or because an
  // earlier migration was interrupted mid-way. The check is a cheap
  // existence scan, so attempt adoption on every open; leftovers from
  // an interrupted run are picked up then.
  if (!options_.directory.empty()) migrate_legacy_layout();
  // The async-flush worker only matters for backends that buffer until
  // flush() (the others persist eagerly); started here so flush_async()
  // and flush() never race on its creation.
  if (shards_.front()->backend->needs_flush()) start_flush_worker();
}

ProfileStore::ProfileStore(const std::string& backend,
                           const std::string& directory,
                           ProfileStoreOptions options)
    : ProfileStore([&] {
        options.backend = backend;
        options.directory = directory;
        return std::move(options);
      }()) {}

void ProfileStore::migrate_legacy_layout() {
  if (options_.backend == "files") {
    // Legacy layout: *.profile.json directly in the store root.
    for (const auto& name : sys::list_dir(options_.directory)) {
      if (!has_profile_suffix(name)) continue;
      const std::string path = options_.directory + "/" + name;
      // Claim the file with an atomic rename so concurrent openers
      // cannot both adopt it (the claimed name no longer matches the
      // *.profile.json scans); the loser's rename fails and it skips.
      const std::string claimed = path + ".migrating-" + unique_tmp_suffix();
      if (::rename(path.c_str(), claimed.c_str()) != 0) continue;
      try {
        put(Profile::from_json(json::load_file(claimed)));
      } catch (const std::exception&) {
        // A corrupt legacy file must not abort the open (which would
        // hide every *other* legacy profile); park it under a name the
        // scans ignore so the data is kept but not retried.
        ::rename(claimed.c_str(), (path + ".unreadable").c_str());
        continue;
      }
      ::unlink(claimed.c_str());
    }
  } else if (options_.backend == "docstore") {
    // Legacy layout: one docstore rooted at the store directory itself.
    // Claim the collection file by renaming it into a scratch directory
    // (atomic, so concurrent openers cannot both adopt it), then open a
    // docstore over that scratch directory to read the documents.
    const std::string legacy_path =
        options_.directory + "/profiles.collection.json";
    if (!file_exists(legacy_path)) return;
    const std::string scratch =
        options_.directory + "/.migrating-" + unique_tmp_suffix();
    ::mkdir(scratch.c_str(), 0755);
    const std::string claimed = scratch + "/profiles.collection.json";
    if (::rename(legacy_path.c_str(), claimed.c_str()) != 0) {
      ::rmdir(scratch.c_str());
      return;  // another opener claimed it
    }
    try {
      docstore::Store legacy(scratch);
      for (const auto& doc : legacy.collection("profiles").all()) {
        try {
          put(Profile::from_json(doc));
        } catch (const std::exception&) {
          continue;  // skip one malformed document, keep the rest
        }
      }
    } catch (const std::exception&) {
      // Unreadable legacy collection: park it (data kept, not retried)
      // rather than failing every subsequent open.
      ::rename(claimed.c_str(), (legacy_path + ".unreadable").c_str());
      ::rmdir(scratch.c_str());
      return;
    }
    flush_all_shards();
    ::unlink(claimed.c_str());
    ::rmdir(scratch.c_str());
  }
}

ProfileStore::~ProfileStore() = default;
ProfileStore::ProfileStore(ProfileStore&&) noexcept = default;

ProfileStore& ProfileStore::operator=(ProfileStore&& other) noexcept {
  if (this != &other) {
    // Join our flush worker BEFORE the shards it captured are freed; a
    // member-wise move would assign shards_ first (declaration order)
    // and leave a running worker pointing at destroyed shards.
    flusher_.reset();
    options_ = std::move(other.options_);
    // Pool pointers stay valid across the move: they reference either
    // the process-wide shared pool or the heap pool owned_pool_ now
    // owns (the flush worker captured the same raw pointer).
    owned_pool_ = std::move(other.owned_pool_);
    pool_ = other.pool_;
    other.pool_ = nullptr;
    shards_ = std::move(other.shards_);
    flusher_ = std::move(other.flusher_);
  }
  return *this;
}

// --- keys and routing ------------------------------------------------------

std::string ProfileStore::detect_backend(const std::string& directory) {
  const std::string meta_path = directory + "/" + kMetaFile;
  if (file_exists(meta_path)) {
    try {
      const json::Value meta = json::load_file(meta_path);
      const std::string name = meta.get_or("backend", std::string());
      // Return the recorded name VERBATIM (even one nobody registered):
      // opening resolves it through the registry, which fails unknown
      // names with a diagnostic listing the registered backends —
      // falling back to a default here would silently misread the
      // store.
      if (!name.empty()) return name;
      return "files";  // pre-backend-field meta: always a files store
    } catch (const std::exception&) {
      // Unreadable meta: fall through to the layout scan below.
    }
  }
  // Pre-meta legacy layouts: a root docstore collection marks docstore;
  // anything else (flat profile files, empty, fresh) opens as files.
  if (file_exists(directory + "/profiles.collection.json")) {
    return "docstore";
  }
  return "files";
}

std::string ProfileStore::tags_key(const std::vector<std::string>& tags) {
  return store_tags_key(tags);
}

ProfileStore::Shard& ProfileStore::shard_for(const std::string& command,
                                             const std::string& tkey) const {
  const uint64_t h = fnv1a(index_key(command, tkey));
  return *shards_[h % shards_.size()];
}

size_t ProfileStore::shard_count() const { return shards_.size(); }

size_t ProfileStore::task_threads() const {
  return pool_ == nullptr ? 1 : pool_->thread_count();
}

// --- writes ----------------------------------------------------------------

bool ProfileStore::put(const Profile& profile) {
  const std::string tkey = tags_key(profile.tags);
  Shard& shard = shard_for(profile.command, tkey);
  bool truncated;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.cache_invalidate(index_key(profile.command, tkey));
    truncated = shard.backend->put(profile, tkey);
  }
  note_puts(1);
  return truncated;
}

size_t ProfileStore::put_many(const std::vector<Profile>& profiles,
                              std::vector<bool>* stored) {
  // Group by shard so each shard is locked once per batch; tags_key is
  // computed once per profile and reused for routing, cache keys and
  // the backend write. The per-shard batches then run CONCURRENTLY on
  // the task pool (one task per shard, each locking only its own
  // shard), which is where multi-shard ingest scales.
  struct Pending {
    const Profile* profile;
    std::string tkey;
    size_t index;  ///< position in the caller's vector, for `stored`
  };
  if (stored != nullptr) stored->assign(profiles.size(), false);
  std::map<Shard*, std::vector<Pending>> by_shard;
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::string tkey = tags_key(profiles[i].tags);
    Shard& shard = shard_for(profiles[i].command, tkey);
    by_shard[&shard].push_back(Pending{&profiles[i], std::move(tkey), i});
  }
  std::vector<std::pair<Shard*, std::vector<Pending>*>> groups;
  groups.reserve(by_shard.size());
  for (auto& [shard, batch] : by_shard) groups.emplace_back(shard, &batch);

  std::atomic<size_t> truncated{0};
  std::atomic<size_t> landed{0};
  // Per-profile landed flags live in a vector<char>, not vector<bool>:
  // shard tasks set disjoint elements concurrently, which vector<bool>'s
  // bit packing would turn into a data race. Merged into the caller's
  // vector<bool> below — in the guard, because the flags must reach the
  // caller even when a put throws mid-batch (the exactly-once retry
  // contract) and parallel_for rethrows only after every index ran.
  std::vector<char> landed_flags(profiles.size(), 0);
  struct MergeGuard {
    ProfileStore* self;
    const std::atomic<size_t>* landed;
    const std::vector<char>* flags;
    std::vector<bool>* stored;
    ~MergeGuard() {
      if (stored != nullptr) {
        for (size_t i = 0; i < flags->size(); ++i) {
          (*stored)[i] = (*flags)[i] != 0;
        }
      }
      // Account writes even on a throwing batch: everything flagged is
      // in the store and needs flushing like any other put.
      self->note_puts(landed->load());
    }
  } guard{this, &landed, &landed_flags, stored};

  run_on(pool_, groups.size(), [&](size_t g) {
    Shard* shard = groups[g].first;
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const Pending& pending : *groups[g].second) {
      shard->cache_invalidate(
          index_key(pending.profile->command, pending.tkey));
      if (shard->backend->put(*pending.profile, pending.tkey)) {
        truncated.fetch_add(1);
      }
      landed.fetch_add(1);
      landed_flags[pending.index] = 1;
    }
  });
  return truncated.load();
}

size_t ProfileStore::remove(const std::string& command,
                            const std::vector<std::string>& tags) {
  const std::string tkey = tags_key(tags);
  Shard& shard = shard_for(command, tkey);
  size_t removed;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.cache_invalidate(index_key(command, tkey));
    removed = shard.backend->remove(command, tkey);
  }
  // A removal mutates buffering backends like a put does: account it so
  // the flush worker persists the deletion.
  if (removed > 0) note_puts(1);
  return removed;
}

// --- reads -----------------------------------------------------------------

std::vector<Profile> ProfileStore::read_from(const Shard& shard,
                                             const std::string& command,
                                             const std::string& tkey) const {
  std::vector<Profile> out = shard.backend->read(command, tkey);
  // Recorded-timestamp order; stable so equal timestamps keep backend
  // (insertion) order.
  std::stable_sort(out.begin(), out.end(),
                   [](const Profile& a, const Profile& b) {
                     return a.created_at < b.created_at;
                   });
  return out;
}

std::shared_ptr<const std::vector<Profile>> ProfileStore::find_shared(
    const std::string& command, const std::vector<std::string>& tags) const {
  const std::string tkey = tags_key(tags);
  // Point lookups route to the single shard that owns the key — no
  // cross-shard fan-out, no other shard's mutex or backend touched.
  Shard& shard = shard_for(command, tkey);
  const std::string key = index_key(command, tkey);

  // Cache entries are validated against the backend's cross-process
  // version stamp (for the files backend one stat(), so only paid when
  // caching is on); backends with a process-private view (memory,
  // docstore snapshots) keep a constant stamp. Taken before the read,
  // so a racing write can only make an entry look older than it is.
  const bool caching = options_.cache_entries_per_shard > 0;
  const uint64_t stamp = caching ? shard.backend->cache_stamp() : 0;
  const size_t max_bytes =
      options_.cache_max_bytes == 0
          ? 0
          : std::max<size_t>(1, options_.cache_max_bytes / shards_.size());

  std::lock_guard<std::mutex> lock(shard.mutex);
  if (caching) {
    if (auto cached = shard.cache_lookup(key, stamp)) return cached;
  }
  auto out = std::make_shared<const std::vector<Profile>>(
      read_from(shard, command, tkey));
  shard.cache_store(key, out, stamp, options_.cache_entries_per_shard,
                    max_bytes);
  return out;
}

std::vector<Profile> ProfileStore::find(
    const std::string& command, const std::vector<std::string>& tags) const {
  return *find_shared(command, tags);
}

std::shared_ptr<const Profile> ProfileStore::find_latest_shared(
    const std::string& command, const std::vector<std::string>& tags) const {
  auto all = find_shared(command, tags);
  if (all->empty()) return nullptr;
  // find_shared() orders by created_at (stable), so the true latest
  // recording is at the back even when concurrent writers interleaved
  // insertions. The aliasing constructor keeps the whole snapshot alive.
  return std::shared_ptr<const Profile>(all, &all->back());
}

std::optional<Profile> ProfileStore::find_latest(
    const std::string& command, const std::vector<std::string>& tags) const {
  auto latest = find_latest_shared(command, tags);
  if (!latest) return std::nullopt;
  return *latest;
}

std::map<std::string, MetricStats> ProfileStore::stats(
    const std::string& command, const std::vector<std::string>& tags) const {
  return aggregate_totals(find(command, tags));
}

// --- flushing --------------------------------------------------------------

void ProfileStore::flush_all_shards() {
  run_on(pool_, shards_.size(), [this](size_t i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.backend->flush();
  });
}

void ProfileStore::flush() {
  // Every put that happened-before this call is about to be persisted,
  // so its dirty accounting is settled — otherwise an armed FlushPolicy
  // deadline would rewrite every collection file again later for data
  // already on disk. Clearing BEFORE flushing is the safe order: a put
  // racing with the flush re-arms the counter via note_puts and at
  // worst earns one redundant background flush, never a lost one.
  if (flusher_) {
    std::lock_guard<std::mutex> lock(flusher_->mutex);
    flusher_->dirty = 0;
  }
  // No need to wait for the background worker: flush_all_shards() is
  // idempotent and every put() that happened-before this call is
  // covered by it directly. (Waiting on the worker would also let
  // concurrent flush_async() callers starve this thread by re-setting
  // the pending flag forever.)
  flush_all_shards();
}

void ProfileStore::start_flush_worker() {
  flusher_ = std::make_unique<Flusher>();
  flusher_->policy = options_.flush_policy;
  // The worker captures stable heap pointers (the Flusher, the Shards
  // and the pool — process-wide or owned heap object), so it survives
  // moves of the ProfileStore object itself.
  Flusher* f = flusher_.get();
  sys::TaskPool* pool = pool_;
  std::vector<Shard*> shard_ptrs;
  shard_ptrs.reserve(shards_.size());
  for (auto& s : shards_) shard_ptrs.push_back(s.get());
  f->worker = std::thread([f, shard_ptrs, pool] {
    using Clock = Flusher::Clock;
    std::unique_lock<std::mutex> lock(f->mutex);
    while (true) {
      const auto requested = [f] { return f->pending || f->stop; };
      if (f->policy.max_age_s > 0 && f->dirty > 0) {
        // An age deadline is armed: sleep at most until the oldest
        // dirty put matures, then flush even without a request.
        f->cv.wait_until(lock, f->oldest_dirty + f->max_age(), requested);
      } else {
        // Also wake when the first dirty put arms an age deadline —
        // note_puts' notify would otherwise be swallowed here and the
        // worker would never switch to the deadline wait above.
        f->cv.wait(lock, [f, &requested] {
          return requested() || (f->policy.max_age_s > 0 && f->dirty > 0);
        });
      }
      const bool age_due = f->policy.max_age_s > 0 && f->dirty > 0 &&
                           Clock::now() >= f->oldest_dirty + f->max_age();
      // On stop, drain whatever is outstanding — a timed flush whose
      // deadline has not fired yet must not be lost with the store.
      if (f->pending || age_due || (f->stop && f->dirty > 0)) {
        f->pending = false;
        f->dirty = 0;
        f->running = true;
        lock.unlock();
        run_on(pool, shard_ptrs.size(), [&shard_ptrs](size_t i) {
          std::lock_guard<std::mutex> shard_lock(shard_ptrs[i]->mutex);
          shard_ptrs[i]->backend->flush();
        });
        lock.lock();
        f->running = false;
        f->cv.notify_all();
        continue;  // re-evaluate stop/pending with fresh state
      }
      if (f->stop) return;
    }
  });
}

void ProfileStore::note_puts(size_t n) {
  if (!flusher_ || n == 0) return;
  Flusher* f = flusher_.get();
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(f->mutex);
    if (f->dirty == 0) {
      f->oldest_dirty = Flusher::Clock::now();
      // Wake the worker so it re-arms its wait with the new deadline.
      wake = f->policy.max_age_s > 0;
    }
    f->dirty += n;
    if (f->policy.max_pending > 0 && f->dirty >= f->policy.max_pending) {
      f->pending = true;
      wake = true;
    }
  }
  if (wake) f->cv.notify_all();
}

void ProfileStore::flush_async() {
  if (!flusher_) return;  // eager backends: nothing ever pends
  {
    std::lock_guard<std::mutex> lock(flusher_->mutex);
    flusher_->pending = true;
    flusher_->dirty = 0;  // everything queued so far is covered
  }
  flusher_->cv.notify_all();
}

// --- sizing ----------------------------------------------------------------

size_t ProfileStore::size() const {
  std::atomic<size_t> n{0};
  run_on(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    n.fetch_add(shard.backend->size());
  });
  return n.load();
}

ProfileStoreCacheStats ProfileStore::cache_stats() const {
  // Serial on purpose: a cheap diagnostic walk over in-memory counters,
  // not a hot path worth pool dispatch.
  ProfileStoreCacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.hits += shard->cache_hits;
    out.misses += shard->cache_misses;
    out.invalidations += shard->cache_invalidations;
    out.bytes += shard->cache_bytes;
  }
  return out;
}

std::vector<StoredProfileEntry> ProfileStore::list() const {
  // One catalog task per shard; each writes its own slot, so no shared
  // state beyond the pre-sized outer vector.
  std::vector<std::vector<StoredProfileEntry>> per_shard(shards_.size());
  run_on(pool_, shards_.size(), [&](size_t i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    per_shard[i] = shard.backend->list();
  });
  std::vector<StoredProfileEntry> out;
  for (auto& entries : per_shard) {
    out.insert(out.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  // Deterministic catalog order, independent of shard count, shard
  // placement and fan-out completion order.
  std::stable_sort(out.begin(), out.end(),
                   [](const StoredProfileEntry& a, const StoredProfileEntry& b) {
                     if (a.created_at != b.created_at) {
                       return a.created_at < b.created_at;
                     }
                     if (a.command != b.command) return a.command < b.command;
                     return store_tags_key(a.tags) < store_tags_key(b.tags);
                   });
  return out;
}

std::vector<json::Value> ProfileStore::shard_meta() const {
  std::vector<json::Value> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.push_back(shard->backend->meta());
  }
  return out;
}

}  // namespace synapse::profile
