// StoreBackendRegistry and the pluggable-backend contract of
// ProfileStore: built-ins resolve by name, unknown names fail with a
// diagnostic listing what is registered, and a custom backend
// registered at runtime round-trips profiles through the store
// unmodified — every future backend is a registration, not a refactor.

#include "profile/store_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "json/json.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "sys/error.hpp"

namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Profile make_profile(const std::string& cmd,
                              const std::vector<std::string>& tags,
                              double cycles, double created_at) {
  profile::Profile p;
  p.command = cmd;
  p.tags = tags;
  p.created_at = created_at;
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  return p;
}

/// A minimal in-memory custom backend, plus a hook counter proving the
/// store actually routed operations through it.
class CountingBackend : public profile::StoreBackend {
 public:
  explicit CountingBackend(size_t* puts) : puts_(puts) {}

  bool put(const profile::Profile& p, const std::string&) override {
    if (puts_ != nullptr) ++*puts_;
    profiles_.push_back(p);
    return false;
  }

  std::vector<profile::Profile> read(const std::string& command,
                                     const std::string& tkey) const override {
    std::vector<profile::Profile> out;
    for (const auto& p : profiles_) {
      if (p.command == command && profile::store_tags_key(p.tags) == tkey) {
        out.push_back(p);
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    const size_t before = profiles_.size();
    profiles_.erase(std::remove_if(profiles_.begin(), profiles_.end(),
                                   [&](const profile::Profile& p) {
                                     return p.command == command &&
                                            profile::store_tags_key(p.tags) ==
                                                tkey;
                                   }),
                    profiles_.end());
    return before - profiles_.size();
  }

  size_t size() const override { return profiles_.size(); }

 private:
  std::vector<profile::Profile> profiles_;
  size_t* puts_;
};

}  // namespace

TEST(StoreBackendRegistry, BuiltinsAreRegistered) {
  auto& registry = profile::StoreBackendRegistry::instance();
  for (const auto& name : profile::StoreBackendRegistry::builtin_names()) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_TRUE(registry.contains("memory"));
  EXPECT_TRUE(registry.contains("docstore"));
  EXPECT_TRUE(registry.contains("files"));
  EXPECT_TRUE(registry.contains("cluster"));
}

TEST(StoreBackendRegistry, UnknownNameListsRegisteredBackends) {
  const auto& registry = profile::StoreBackendRegistry::instance();
  try {
    registry.ensure_registered("no-such-backend");
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
    EXPECT_NE(what.find("docstore"), std::string::npos);
  }
}

TEST(StoreBackendRegistry, ScopedRegistryDoesNotLeakIntoProcessWide) {
  profile::StoreBackendRegistry scoped;
  scoped.register_backend("scoped-only",
                          [](const profile::StoreBackendContext&) {
                            return std::make_unique<CountingBackend>(nullptr);
                          });
  EXPECT_TRUE(scoped.contains("scoped-only"));
  EXPECT_FALSE(
      profile::StoreBackendRegistry::instance().contains("scoped-only"));
  // A fresh scoped registry still carries every built-in.
  for (const auto& name : profile::StoreBackendRegistry::builtin_names()) {
    EXPECT_TRUE(scoped.contains(name)) << name;
  }
}

TEST(StoreBackend, CustomBackendRoundTripsThroughProfileStore) {
  profile::StoreBackendRegistry registry;
  size_t puts = 0;
  registry.register_backend("counting",
                            [&puts](const profile::StoreBackendContext&) {
                              return std::make_unique<CountingBackend>(&puts);
                            });

  profile::ProfileStoreOptions options;
  options.backend = "counting";
  options.registry = &registry;
  profile::ProfileStore store(std::move(options));
  EXPECT_EQ(store.backend(), "counting");

  store.put(make_profile("custom-cmd", {"b", "a"}, 10, 1.0));
  store.put(make_profile("custom-cmd", {"a", "b"}, 20, 2.0));
  store.put(make_profile("other", {}, 5, 3.0));
  EXPECT_EQ(puts, 3u);
  EXPECT_EQ(store.size(), 3u);

  // Profiles come back unmodified, tag order canonicalized, ordered by
  // recorded timestamp — the store's semantics on top of a backend it
  // has never heard of.
  const auto hits = store.find("custom-cmd", {"a", "b"});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].total(m::kCyclesUsed), 10.0);
  EXPECT_DOUBLE_EQ(hits[1].total(m::kCyclesUsed), 20.0);
  const auto latest = store.find_latest("custom-cmd", {"b", "a"});
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->created_at, 2.0);
  const auto stats = store.stats("custom-cmd", {"a", "b"});
  EXPECT_DOUBLE_EQ(stats.at(std::string(m::kCyclesUsed)).mean, 15.0);

  // put_many batches reach the custom backend too.
  std::vector<profile::Profile> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(make_profile("batched", {}, i, 10.0 + i));
  }
  EXPECT_EQ(store.put_many(batch), 0u);
  EXPECT_EQ(store.find("batched").size(), 6u);
  EXPECT_EQ(puts, 9u);
}

TEST(StoreBackend, RegisteringExistingNameOverrides) {
  profile::StoreBackendRegistry registry;
  size_t puts = 0;
  registry.register_backend("memory",
                            [&puts](const profile::StoreBackendContext&) {
                              return std::make_unique<CountingBackend>(&puts);
                            });
  profile::ProfileStoreOptions options;
  options.backend = "memory";
  options.registry = &registry;
  profile::ProfileStore store(std::move(options));
  store.put(make_profile("swap", {}, 1, 1.0));
  EXPECT_EQ(puts, 1u);  // the override, not the built-in, got the write
}

TEST(StoreBackend, UnknownBackendNameIsRejectedAtOpen) {
  try {
    profile::ProfileStore store("oracle", "/tmp/synapse_store_unknown");
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oracle"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
  }
  // The rejected open must not have created store state.
  EXPECT_NE(std::system("test -d /tmp/synapse_store_unknown"), 0);
}

TEST(StoreBackend, MetaNamingUnregisteredBackendIsAHardError) {
  // A store whose meta file names a backend nobody registered must not
  // fall through to some default (silently misreading the layout): the
  // open fails with a diagnostic listing the registered names.
  const std::string dir = "/tmp/synapse_store_alien_meta";
  std::system(("rm -rf " + dir).c_str());
  { profile::ProfileStore store("files", dir); }
  {
    std::ofstream meta(dir + "/store.meta.json");
    meta << "{\"shards\": 8, \"backend\": \"frobnicator\"}";
  }
  // detect_backend reports the recorded name verbatim...
  EXPECT_EQ(profile::ProfileStore::detect_backend(dir), "frobnicator");
  // ...and opening through it (what synapse-inspect does) fails loudly.
  try {
    profile::ProfileStore store(profile::ProfileStore::detect_backend(dir),
                                dir);
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frobnicator"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
  }
  // Opening with a known-but-different backend names the culprit too.
  EXPECT_THROW(profile::ProfileStore("files", dir),
               synapse::sys::ConfigError);
  std::system(("rm -rf " + dir).c_str());
}

TEST(StoreBackend, FilesCacheSeesRemovesFromOtherStoreInstances) {
  // Two ProfileStore instances over one directory model two processes:
  // instance A's read cache must notice B's remove() even when a
  // following put() restores the shard's profile-file count (the
  // removal epoch breaks the mtime+count stamp collision).
  const std::string dir = "/tmp/synapse_store_remove_xproc";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore a("files", dir);
    profile::ProfileStore b("files", dir);
    a.put(make_profile("victim", {}, 1, 1.0));
    ASSERT_EQ(a.find("victim").size(), 1u);  // fills A's cache
    EXPECT_EQ(b.remove("victim", {}), 1u);
    b.put(make_profile("victim", {}, 2, 2.0));  // count restored
    const auto seen = a.find("victim");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_DOUBLE_EQ(seen[0].created_at, 2.0);  // the NEW profile
  }
  std::system(("rm -rf " + dir).c_str());
}

namespace {

/// A one-shard files store, so its generation file has a known path.
profile::ProfileStore one_shard_files_store(const std::string& dir) {
  profile::ProfileStoreOptions options;
  options.backend = "files";
  options.directory = dir;
  options.shards = 1;
  return profile::ProfileStore(std::move(options));
}

size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

}  // namespace

TEST(StoreBackend, FilesCacheHitsOnEveryRepeatLookupWithoutWrites) {
  const std::string dir = "/tmp/synapse_store_gen_hits";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore a = one_shard_files_store(dir);
    a.put(make_profile("steady", {"s"}, 1, 1.0));
    ASSERT_NE(a.find_latest_shared("steady", {"s"}), nullptr);  // fill
    // Opening another instance creates nothing and writes nothing.
    profile::ProfileStore b = one_shard_files_store(dir);
    const auto before = a.cache_stats();
    constexpr size_t kLookups = 50;
    for (size_t i = 0; i < kLookups; ++i) {
      ASSERT_NE(a.find_latest_shared("steady", {"s"}), nullptr);
    }
    const auto after = a.cache_stats();
    EXPECT_EQ(after.hits - before.hits, kLookups);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.invalidations, before.invalidations);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(StoreBackend, FilesGenerationFileDeletedOrReplacedNeverServesStaleHit) {
  const std::string dir = "/tmp/synapse_store_gen_lost";
  const std::string generation = dir + "/shard-0/.generation";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore a = one_shard_files_store(dir);
    profile::ProfileStore b = one_shard_files_store(dir);
    a.put(make_profile("gen", {}, 1, 1.0));
    ASSERT_EQ(a.find("gen").size(), 1u);  // fills A's cache

    // Deleted: lookups cannot validate anything, so none of them hits,
    // and a write by another instance shows at once.
    ASSERT_EQ(std::remove(generation.c_str()), 0);
    const auto before = a.cache_stats();
    EXPECT_EQ(a.find("gen").size(), 1u);
    EXPECT_EQ(a.find("gen").size(), 1u);
    EXPECT_EQ(a.cache_stats().hits, before.hits);
    b.put(make_profile("gen", {}, 2, 2.0));
    EXPECT_EQ(a.find("gen").size(), 2u);
    // That write recreated the file, so hits resume.
    ASSERT_GT(file_size(generation), 0u);
    const size_t hits = a.cache_stats().hits;
    EXPECT_EQ(a.find("gen").size(), 2u);
    EXPECT_EQ(a.cache_stats().hits, hits + 1);

    // Replaced by a file of the same size: the inode differs, so the
    // cached entry is not trusted, and a later write by an instance that
    // opened the old file still lands in the new one.
    const std::string tmp = generation + ".replacement";
    {
      std::ofstream out(tmp, std::ios::binary);
      out << std::string(file_size(generation), '+');
    }
    ASSERT_EQ(std::rename(tmp.c_str(), generation.c_str()), 0);
    EXPECT_EQ(a.find("gen").size(), 2u);  // refills under the new stamp
    b.remove("gen", {});
    EXPECT_TRUE(a.find("gen").empty());
    b.put(make_profile("gen", {}, 3, 3.0));
    const auto seen = a.find("gen");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_DOUBLE_EQ(seen[0].created_at, 3.0);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(StoreBackend, RemoveDeletesOneWorkloadAcrossBackends) {
  for (const std::string backend : {"memory", "docstore", "files"}) {
    const std::string dir = "/tmp/synapse_store_remove_" + backend;
    std::system(("rm -rf " + dir).c_str());
    {
      profile::ProfileStoreOptions options;
      options.backend = backend;
      if (backend != "memory") options.directory = dir;
      profile::ProfileStore store(std::move(options));
      store.put(make_profile("keep", {"k"}, 1, 1.0));
      store.put(make_profile("drop", {"d"}, 2, 2.0));
      store.put(make_profile("drop", {"d"}, 3, 3.0));
      EXPECT_EQ(store.remove("drop", {"d"}), 2u) << backend;
      EXPECT_TRUE(store.find("drop", {"d"}).empty()) << backend;
      EXPECT_EQ(store.find("keep", {"k"}).size(), 1u) << backend;
      EXPECT_EQ(store.size(), 1u) << backend;
      EXPECT_EQ(store.remove("never stored", {}), 0u) << backend;
      store.flush();
    }
    if (backend != "memory") {
      // The deletion persisted: a fresh open still shows one profile.
      profile::ProfileStore reopened(backend, dir);
      EXPECT_TRUE(reopened.find("drop", {"d"}).empty()) << backend;
      EXPECT_EQ(reopened.size(), 1u) << backend;
    }
    std::system(("rm -rf " + dir).c_str());
  }
}
