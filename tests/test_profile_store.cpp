#include "profile/profile_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "delta_golden.hpp"
#include "docstore/docstore.hpp"
#include "json/json.hpp"
#include "profile/metrics.hpp"
#include "sys/clock.hpp"
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

}  // namespace

class ProfileStoreAllBackends
    : public ::testing::TestWithParam<std::string> {
 protected:
  profile::ProfileStore make_store() {
    const std::string backend = GetParam();
    if (backend == "memory") {
      return profile::ProfileStore();
    }
    dir_ = "/tmp/synapse_store_test_" + backend;
    std::system(("rm -rf " + dir_).c_str());
    return profile::ProfileStore(backend, dir_);
  }

  void TearDown() override {
    if (!dir_.empty()) std::system(("rm -rf " + dir_).c_str());
  }

  std::string dir_;
};

TEST_P(ProfileStoreAllBackends, PutAndFind) {
  auto store = make_store();
  store.put(make_profile("cmd-a", {"t1"}, 100, 1.0));
  store.put(make_profile("cmd-a", {"t1"}, 120, 2.0));
  store.put(make_profile("cmd-a", {"t2"}, 999, 3.0));
  store.put(make_profile("cmd-b", {}, 5, 4.0));

  const auto hits = store.find("cmd-a", {"t1"});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].total(m::kCyclesUsed), 100.0);
  EXPECT_DOUBLE_EQ(hits[1].total(m::kCyclesUsed), 120.0);
  EXPECT_EQ(store.find("cmd-a", {"t2"}).size(), 1u);
  EXPECT_EQ(store.find("cmd-b").size(), 1u);
  EXPECT_TRUE(store.find("cmd-absent").empty());
  EXPECT_EQ(store.size(), 4u);
}

TEST_P(ProfileStoreAllBackends, TagOrderIsIrrelevant) {
  auto store = make_store();
  store.put(make_profile("cmd", {"a", "b"}, 1, 1.0));
  EXPECT_EQ(store.find("cmd", {"b", "a"}).size(), 1u);
}

TEST_P(ProfileStoreAllBackends, FindLatest) {
  auto store = make_store();
  EXPECT_FALSE(store.find_latest("cmd").has_value());
  store.put(make_profile("cmd", {}, 1, 10.0));
  store.put(make_profile("cmd", {}, 2, 20.0));
  const auto latest = store.find_latest("cmd");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->total(m::kCyclesUsed), 2.0);
}

TEST_P(ProfileStoreAllBackends, FindLatestOrdersByRecordedTimestamp) {
  // Concurrent shard writers may insert out of timestamp order; the
  // latest profile is the one with the newest created_at, not the last
  // insertion.
  auto store = make_store();
  store.put(make_profile("cmd", {}, 3, 30.0));
  store.put(make_profile("cmd", {}, 1, 10.0));
  store.put(make_profile("cmd", {}, 2, 20.0));
  const auto latest = store.find_latest("cmd");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->created_at, 30.0);
  EXPECT_DOUBLE_EQ(latest->total(m::kCyclesUsed), 3.0);

  const auto all = store.find("cmd");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].created_at, 10.0);
  EXPECT_DOUBLE_EQ(all[1].created_at, 20.0);
  EXPECT_DOUBLE_EQ(all[2].created_at, 30.0);
}

TEST_P(ProfileStoreAllBackends, PutManyBatchesAcrossShards) {
  auto store = make_store();
  std::vector<profile::Profile> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back(make_profile("batch-cmd-" + std::to_string(i % 6),
                                 {"b"}, i, static_cast<double>(i)));
  }
  EXPECT_EQ(store.put_many(batch), 0u);
  EXPECT_EQ(store.size(), 24u);
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(store.find("batch-cmd-" + std::to_string(c), {"b"}).size(), 4u)
        << "command " << c;
  }
}

TEST_P(ProfileStoreAllBackends, ManyWorkloadsSpreadAcrossShards) {
  auto store = make_store();
  EXPECT_GT(store.shard_count(), 1u);
  for (int i = 0; i < 40; ++i) {
    store.put(make_profile("spread-" + std::to_string(i), {"t"}, i, 1.0));
  }
  EXPECT_EQ(store.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(store.find("spread-" + std::to_string(i), {"t"}).size(), 1u);
  }
}

TEST_P(ProfileStoreAllBackends, ReadCacheHitsAndInvalidatesOnWrite) {
  auto store = make_store();
  store.put(make_profile("cached", {}, 1, 1.0));

  ASSERT_EQ(store.find("cached").size(), 1u);  // miss, fills cache
  ASSERT_EQ(store.find("cached").size(), 1u);  // hit
  auto stats = store.cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);

  // A write to the same workload must not serve a stale cached read.
  store.put(make_profile("cached", {}, 2, 2.0));
  EXPECT_EQ(store.find("cached").size(), 2u);
  EXPECT_GE(store.cache_stats().invalidations, 1u);
}

TEST_P(ProfileStoreAllBackends, StatsAcrossRepetitions) {
  auto store = make_store();
  store.put(make_profile("cmd", {}, 10, 1.0));
  store.put(make_profile("cmd", {}, 12, 2.0));
  store.put(make_profile("cmd", {}, 14, 3.0));
  const auto stats = store.stats("cmd");
  ASSERT_TRUE(stats.count(std::string(m::kCyclesUsed)));
  EXPECT_DOUBLE_EQ(stats.at(std::string(m::kCyclesUsed)).mean, 12.0);
  EXPECT_EQ(stats.at(std::string(m::kCyclesUsed)).n, 3u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProfileStoreAllBackends,
                         ::testing::Values("memory", "docstore", "files"));

TEST(ProfileStore, FilesBackendSurvivesReopen) {
  const std::string dir = "/tmp/synapse_store_reopen";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("files", dir);
    store.put(make_profile("persist me", {"x"}, 42, 1.0));
  }
  {
    profile::ProfileStore store("files", dir);
    const auto hits = store.find("persist me", {"x"});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_DOUBLE_EQ(hits[0].total(m::kCyclesUsed), 42.0);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, DocStoreBackendSurvivesFlushAndReopen) {
  const std::string dir = "/tmp/synapse_store_docflush";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore", dir);
    store.put(make_profile("cmd", {}, 7, 1.0));
    store.flush();
  }
  {
    profile::ProfileStore store("docstore", dir);
    EXPECT_EQ(store.find("cmd").size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, ReopenWithDifferentShardOptionKeepsLayout) {
  // The shard count is part of the on-disk layout; a store reopened
  // with a different option must honour the persisted meta file and
  // still find every profile.
  const std::string dir = "/tmp/synapse_store_shardmeta";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStoreOptions four;
  four.shards = 4;
  {
    profile::ProfileStore store("files", dir,
                                four);
    ASSERT_EQ(store.shard_count(), 4u);
    for (int i = 0; i < 12; ++i) {
      store.put(make_profile("meta-" + std::to_string(i), {}, i, 1.0));
    }
  }
  {
    profile::ProfileStoreOptions one;
    one.shards = 1;  // ignored: meta file wins
    profile::ProfileStore store("files", dir,
                                one);
    EXPECT_EQ(store.shard_count(), 4u);
    EXPECT_EQ(store.size(), 12u);
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(store.find("meta-" + std::to_string(i)).size(), 1u);
    }
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, MigratesLegacyFlatFilesLayout) {
  // Pre-sharding stores kept *.profile.json directly in the store root;
  // first open with the sharded layout must adopt them, not hide them.
  const std::string dir = "/tmp/synapse_store_legacy_files";
  std::system(("rm -rf " + dir).c_str());
  ::system(("mkdir -p " + dir).c_str());
  const auto legacy = make_profile("old cmd", {"legacy"}, 7, 5.0);
  synapse::json::save_file(dir + "/old_cmd.legacy.0.profile.json",
                           legacy.to_json(), 0);
  {
    profile::ProfileStore store("files", dir);
    EXPECT_EQ(store.size(), 1u);
    const auto hits = store.find("old cmd", {"legacy"});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_DOUBLE_EQ(hits[0].total(m::kCyclesUsed), 7.0);
  }
  {
    // Still there after the one-time migration.
    profile::ProfileStore store("files", dir);
    EXPECT_EQ(store.find("old cmd", {"legacy"}).size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, CorruptLegacyFileDoesNotHideTheOthers) {
  // One unreadable legacy file must neither abort the open nor stop the
  // remaining legacy profiles from being adopted — also on a SECOND
  // open (interrupted migrations are retried, not locked out by the
  // meta file).
  const std::string dir = "/tmp/synapse_store_legacy_corrupt";
  std::system(("rm -rf " + dir).c_str());
  ::system(("mkdir -p " + dir).c_str());
  synapse::json::save_file(dir + "/good.x.0.profile.json",
                           make_profile("good", {"x"}, 1, 1.0).to_json(), 0);
  {
    std::ofstream broken(dir + "/broken.x.0.profile.json");
    broken << "{ not json";
  }
  {
    profile::ProfileStore store("files", dir);
    EXPECT_EQ(store.find("good", {"x"}).size(), 1u);
    EXPECT_EQ(store.size(), 1u);
  }
  // Simulate an interrupted first migration: drop another legacy file
  // into the root after the meta file exists.
  synapse::json::save_file(dir + "/late.x.0.profile.json",
                           make_profile("late", {"x"}, 2, 2.0).to_json(), 0);
  {
    profile::ProfileStore store("files", dir);
    EXPECT_EQ(store.find("late", {"x"}).size(), 1u);
    EXPECT_EQ(store.find("good", {"x"}).size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, MigratesLegacyDocstoreLayout) {
  const std::string dir = "/tmp/synapse_store_legacy_doc";
  std::system(("rm -rf " + dir).c_str());
  {
    // Pre-sharding layout: one docstore rooted at the store directory.
    synapse::docstore::Store legacy(dir);
    auto doc = make_profile("old doc cmd", {}, 3, 1.0).to_json();
    doc.as_object()["tags_key"] = "";
    legacy.collection("profiles").insert(std::move(doc));
    legacy.flush();
  }
  {
    profile::ProfileStore store("docstore",
                                dir);
    EXPECT_EQ(store.find("old doc cmd").size(), 1u);
    store.flush();
  }
  {
    profile::ProfileStore store("docstore",
                                dir);
    EXPECT_EQ(store.find("old doc cmd").size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, ReopenWithWrongBackendIsRejected) {
  // A store directory is bound to the backend that created it; the
  // other backend would silently show zero profiles.
  const std::string dir = "/tmp/synapse_store_wrongbackend";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore",
                                dir);
    store.put(make_profile("cmd", {}, 1, 1.0));
    store.flush();
  }
  EXPECT_THROW(
      profile::ProfileStore("files", dir),
      synapse::sys::ConfigError);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, LegacyDirectoryOpenedWithWrongBackendIsRejected) {
  // A flat pre-sharding Files layout must not be stamped with a
  // docstore meta — that would hide the profiles forever.
  const std::string dir = "/tmp/synapse_store_legacy_wrong";
  std::system(("rm -rf " + dir).c_str());
  ::system(("mkdir -p " + dir).c_str());
  synapse::json::save_file(dir + "/cmd..0.profile.json",
                           make_profile("cmd", {}, 1, 1.0).to_json(), 0);
  EXPECT_THROW(
      profile::ProfileStore("docstore", dir),
      synapse::sys::ConfigError);
  // The right backend still adopts the profile afterwards.
  profile::ProfileStore store("files", dir);
  EXPECT_EQ(store.find("cmd").size(), 1u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, FilesCacheSeesWritesFromOtherStoreInstances) {
  // Two ProfileStore instances over the same directory model two
  // processes: instance A's read cache must not hide B's writes.
  const std::string dir = "/tmp/synapse_store_crossproc";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStore a("files", dir);
  profile::ProfileStore b("files", dir);

  a.put(make_profile("xp", {}, 1, 1.0));
  EXPECT_EQ(a.find("xp").size(), 1u);  // fills A's cache
  b.put(make_profile("xp", {}, 2, 2.0));
  EXPECT_EQ(a.find("xp").size(), 2u);  // stale: B's put grew .generation
  const auto latest = a.find_latest("xp");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->created_at, 2.0);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, AsyncFlushPersistsDocstore) {
  const std::string dir = "/tmp/synapse_store_asyncflush";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore",
                                dir);
    store.put(make_profile("async", {}, 9, 1.0));
    store.flush_async();
    store.flush();  // synchronous flush is independent of the worker
  }
  {
    profile::ProfileStore store("docstore",
                                dir);
    EXPECT_EQ(store.find("async").size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, DestructorDrainsPendingAsyncFlush) {
  const std::string dir = "/tmp/synapse_store_asyncdrain";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore",
                                dir);
    store.put(make_profile("drain", {}, 1, 1.0));
    store.flush_async();
    // No explicit flush(): destruction must not lose the queued flush.
  }
  {
    profile::ProfileStore store("docstore",
                                dir);
    EXPECT_EQ(store.find("drain").size(), 1u);
  }
  std::system(("rm -rf " + dir).c_str());
}

// --- FlushPolicy (time/size-triggered background flushing) ------------------

namespace {

/// Profiles visible to a FRESH store opened over `dir` — i.e. actually
/// flushed to disk, not just resident in the writer's memory. Retries
/// around concurrent collection writes (docstore saves are not atomic).
size_t flushed_profiles(const std::string& dir, const std::string& cmd) {
  try {
    profile::ProfileStore reader("docstore",
                                 dir);
    return reader.find(cmd).size();
  } catch (const std::exception&) {
    return 0;  // mid-write collection file; caller polls again
  }
}

}  // namespace

TEST(ProfileStore, FlushPolicyAgeFlushesWithoutExplicitRequest) {
  const std::string dir = "/tmp/synapse_store_policy_age";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStoreOptions options;
  options.flush_policy.max_age_s = 0.05;
  profile::ProfileStore store("docstore", dir,
                              options);
  store.put(make_profile("aged", {}, 1, 1.0));
  // No flush()/flush_async(): the worker must flush on its own once the
  // put is 50 ms old. Poll (bounded) for the background write.
  size_t seen = 0;
  for (int i = 0; i < 100 && seen == 0; ++i) {
    synapse::sys::sleep_for(0.05);
    seen = flushed_profiles(dir, "aged");
  }
  EXPECT_EQ(seen, 1u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, FlushPolicyMaxPendingFlushesAtThreshold) {
  const std::string dir = "/tmp/synapse_store_policy_size";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStoreOptions options;
  options.flush_policy.max_pending = 3;
  profile::ProfileStore store("docstore", dir,
                              options);
  store.put(make_profile("sized", {}, 1, 1.0));
  store.put(make_profile("sized", {}, 2, 2.0));
  // Below the threshold, with no age trigger, nothing flushes.
  synapse::sys::sleep_for(0.15);
  EXPECT_EQ(flushed_profiles(dir, "sized"), 0u);
  store.put(make_profile("sized", {}, 3, 3.0));  // threshold reached
  size_t seen = 0;
  for (int i = 0; i < 100 && seen < 3; ++i) {
    synapse::sys::sleep_for(0.05);
    seen = flushed_profiles(dir, "sized");
  }
  EXPECT_EQ(seen, 3u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, DestructorDrainsDirtyPutsWithoutAnyFlushCall) {
  const std::string dir = "/tmp/synapse_store_policy_drain";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStoreOptions options;
    options.flush_policy.max_age_s = 30.0;  // deadline far in the future
    profile::ProfileStore store("docstore",
                                dir, options);
    store.put(make_profile("undrained", {}, 1, 1.0));
    // Neither flush() nor flush_async(), and the age deadline has not
    // fired: destruction must still drain the dirty put.
  }
  EXPECT_EQ(flushed_profiles(dir, "undrained"), 1u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStore, PutManyReportsStoredFlags) {
  profile::ProfileStore store;  // memory backend
  std::vector<profile::Profile> batch;
  batch.push_back(make_profile("flags", {"a"}, 1, 1.0));
  batch.push_back(make_profile("flags", {"b"}, 2, 2.0));
  std::vector<bool> stored;
  store.put_many(batch, &stored);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_TRUE(stored[0]);
  EXPECT_TRUE(stored[1]);
}

TEST(ProfileStore, DetectBackendReadsMetaFile) {
  const std::string dir = "/tmp/synapse_store_detect";
  for (const auto backend : {"docstore",
                             "files"}) {
    std::system(("rm -rf " + dir).c_str());
    { profile::ProfileStore store(backend, dir); }
    EXPECT_EQ(profile::ProfileStore::detect_backend(dir), backend);
  }
  // Fresh (meta-less) directories default to Files.
  std::system(("rm -rf " + dir).c_str());
  EXPECT_EQ(profile::ProfileStore::detect_backend(dir),
            "files");
}

TEST(ProfileStore, CommandsWithShellCharsAreStorable) {
  const std::string dir = "/tmp/synapse_store_chars";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStore store("files", dir);
  const std::string cmd = "./mdsim --steps 100 | tee 'out file'";
  store.put(make_profile(cmd, {}, 1, 1.0));
  EXPECT_EQ(store.find(cmd).size(), 1u);
  std::system(("rm -rf " + dir).c_str());
}

// ---------------------------------------------------------------------------
// Profile formats: every write is SYNB. JSON is read-only: stores written
// before SYNB existed (golden fixtures below) and the docstore's oversize
// fallback.

namespace {

/// A profile with real sample series, so format tests cover the data
/// that actually round-trips through the codecs (not just identity).
profile::Profile make_series_profile(const std::string& cmd, double cycles,
                                     double created_at) {
  profile::Profile p = make_profile(cmd, {"fmt"}, cycles, created_at);
  p.sample_rate_hz = 10.0;
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  ts.sample_rate_hz = 10.0;
  for (int i = 0; i < 20; ++i) {
    const size_t row = ts.samples.add_row(created_at + 0.1 * i);
    ts.samples.set(row, m::kCyclesUsed, cycles + i * 1e6);
    if (i % 4 == 0) ts.samples.set(row, "io_wait", 0.01 * i);
  }
  p.series.push_back(std::move(ts));
  return p;
}

/// make_series_profile plus everything else the JSON form carries: a
/// variable-rate io series with gate parameters, a hostname that needs
/// escaping, system facts and derived values.
profile::Profile make_rich_profile() {
  profile::Profile p = make_series_profile("json-rt", 5, 3.0);
  p.tags = {"fmt", "b-tag"};
  p.system.hostname = "host \"quoted\"";
  p.system.num_cores = 8;
  p.system.total_memory_bytes = 17179869184ull;
  p.derived["efficiency"] = 0.125;
  profile::TimeSeries io;
  io.watcher = "io";
  io.sample_rate_hz = 50.0;
  io.variable_rate = true;
  io.gate.floor_hz = 2.0;
  io.gate.burst_hz = 50.0;
  for (const double t : {3.0, 3.02, 3.5}) {
    const size_t row = io.samples.add_row(t);
    io.samples.set(row, m::kBytesWritten, 1e-7 + t);
  }
  p.series.push_back(std::move(io));
  return p;
}

/// The builders of the profiles in tests/fixtures/legacy_json_store/.
std::vector<profile::Profile> legacy_fixture_profiles() {
  return {make_rich_profile(), make_series_profile("legacy-a", 10, 1.0),
          make_series_profile("legacy-a", 20, 2.0),
          make_series_profile("legacy-b", 30, 4.0)};
}

void expect_equal_profiles(const profile::Profile& a,
                           const profile::Profile& b) {
  EXPECT_EQ(synapse::json::dump(a.to_json()), synapse::json::dump(b.to_json()));
}

/// The stored profile of `original`'s workload recorded at its
/// created_at, or nullptr.
const profile::Profile* find_recorded(const std::vector<profile::Profile>& hits,
                                      const profile::Profile& original) {
  for (const auto& hit : hits) {
    if (hit.created_at == original.created_at) return &hit;
  }
  return nullptr;
}

}  // namespace

TEST(ProfileStoreFormat, NewStoresDefaultToBinary) {
  // Puts land as SYNB, and a new store's meta names no format.
  const std::string dir = "/tmp/synapse_store_fmt_default";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("files", dir);
    store.put(make_series_profile("fmt-cmd", 100, 1.0));
    const auto entries = store.list();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].format, "binary");
    EXPECT_EQ(entries[0].command, "fmt-cmd");
    EXPECT_GT(entries[0].encoded_bytes, 0u);
  }
  EXPECT_FALSE(
      synapse::json::load_file(dir + "/store.meta.json").contains("format"));
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStoreFormat, ListedBytesAreTheSynbBlobSize) {
  // list() reports a SYNB profile's size at rest as its blob size on
  // every backend. The docstore keeps the blob base64-encoded, so its
  // '=' padding must not count: one profile per blob size residue mod 3
  // covers every padding length.
  std::vector<profile::Profile> profiles;
  std::map<std::string, size_t> blob_bytes;
  std::set<size_t> residues;
  for (const std::string cmd : {"pad", "pad-", "pad--"}) {
    profiles.push_back(make_series_profile(cmd, 1, 1.0));
    blob_bytes[cmd] = profiles.back().to_binary().size();
    residues.insert(blob_bytes[cmd] % 3);
  }
  ASSERT_EQ(residues.size(), 3u) << "blob sizes must cover every residue";
  for (const std::string backend : {"files", "docstore"}) {
    SCOPED_TRACE(backend);
    const std::string dir = "/tmp/synapse_store_fmt_bytes_" + backend;
    std::system(("rm -rf " + dir).c_str());
    {
      profile::ProfileStore store(backend, dir);
      store.put_many(profiles);
      const auto entries = store.list();
      ASSERT_EQ(entries.size(), profiles.size());
      for (const auto& e : entries) {
        EXPECT_EQ(e.format, "binary") << e.command;
        EXPECT_EQ(e.encoded_bytes, blob_bytes.at(e.command)) << e.command;
      }
    }
    std::system(("rm -rf " + dir).c_str());
  }
}

TEST(ProfileStoreFormat, DocstoreEnvelopeLimitIsDecidedAtTheExactBlobSize) {
  // The envelope is kept while blob/3*4 + 4096 < the document limit. A
  // long watcher name sets the SYNB blob size to the byte: the largest
  // size that still fits lands as SYNB, one byte more as plain JSON
  // (small enough that the docstore keeps it whole).
  constexpr size_t kLimit = synapse::docstore::kMaxDocumentBytes;
  const size_t fits = ((kLimit - 4096 - 1) / 4) * 3 + 2;
  ASSERT_LT(fits / 3 * 4 + 4096, kLimit);
  ASSERT_GE((fits + 1) / 3 * 4 + 4096, kLimit);
  const auto sized_profile = [](const std::string& command, size_t bytes) {
    profile::Profile p = make_profile(command, {"edge"}, 1, 1.0);
    p.series.emplace_back();
    const size_t framing = p.to_binary().size();
    p.series.back().watcher.assign(bytes - framing, 'w');
    return p;
  };
  const profile::Profile under = sized_profile("under", fits);
  const profile::Profile over = sized_profile("over", fits + 1);
  ASSERT_EQ(under.to_binary().size(), fits);
  ASSERT_EQ(over.to_binary().size(), fits + 1);

  const std::string dir = "/tmp/synapse_store_fmt_envelope_edge";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore", dir);
    EXPECT_FALSE(store.put(under));
    EXPECT_FALSE(store.put(over));
    std::map<std::string, std::string> formats;
    for (const auto& e : store.list()) formats[e.command] = e.format;
    EXPECT_EQ(formats["under"], "binary");
    EXPECT_EQ(formats["over"], "json");
    store.flush();
  }
  profile::ProfileStore store("docstore", dir);  // cold: parses the file
  for (const auto* p : {&under, &over}) {
    const auto found = store.find_latest(p->command, p->tags);
    ASSERT_TRUE(found.has_value()) << p->command;
    ASSERT_EQ(found->series.size(), 1u);
    EXPECT_EQ(found->series[0].watcher, p->series[0].watcher);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStoreFormat, OversizeDocstorePutFallsBackToTruncatedJson) {
  // The one JSON write left: a SYNB envelope that cannot fit the 16 MB
  // document limit is stored as the plain JSON document, which the
  // docstore truncates by trimming its sample array (paper section 4.5).
  profile::Profile big = make_profile("oversize", {"big"}, 1, 1.0);
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  ts.sample_rate_hz = 100.0;
  constexpr int kSamples = 320000;
  ts.samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const size_t row = ts.samples.add_row(1.0 + 0.01 * i);
    ts.samples.set(row, m::kCyclesUsed, 1e6 * i);
    ts.samples.set(row, m::kInstructions, 2e6 * i);
    ts.samples.set(row, m::kBytesRead, 512.0 * i);
    ts.samples.set(row, m::kBytesWritten, 256.0 * i);
  }
  big.series.push_back(std::move(ts));
  ASSERT_GT(big.to_binary().size() / 3 * 4,
            synapse::docstore::kMaxDocumentBytes);

  const std::string dir = "/tmp/synapse_store_fmt_oversize";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore store("docstore", dir);
    EXPECT_TRUE(store.put(big));
    const auto entries = store.list();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].format, "json");
  }
  {
    profile::ProfileStore store("docstore", dir);  // cold: parses the file
    const auto found = store.find_latest("oversize", {"big"});
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->command, big.command);
    EXPECT_EQ(found->tags, big.tags);
    ASSERT_EQ(found->series.size(), 1u);
    const auto& got = found->series[0].samples;
    const auto& put = big.series[0].samples;
    // The docstore trims the sample array to the length its loop kept
    // when it re-dumped the whole document every round.
    EXPECT_EQ(got.size(), 103220u);
    ASSERT_EQ(got.metrics().size(), put.metrics().size());
    for (size_t i = 0; i < std::min(got.size(), put.size()); ++i) {
      bool same = got.timestamps()[i] == put.timestamps()[i];
      for (size_t k = 0; k < put.metrics().size(); ++k) {
        const auto& a = got.metrics()[k];
        const auto& b = put.metrics()[k];
        same = same && a.name == b.name && a.present[i] == b.present[i] &&
               a.values[i] == b.values[i];
      }
      if (!same) {
        ADD_FAILURE() << "sample " << i << " differs from the put prefix";
        break;
      }
    }
  }
  std::system(("rm -rf " + dir).c_str());
}

/// Golden legacy stores (tests/fixtures/legacy_json_store/<backend>/,
/// 2 shards, the profiles of legacy_fixture_profiles()) written by the
/// JSON writer that predates SYNB. The files fixture's meta has no
/// "format" key, the docstore fixture's still says "json". Opening a
/// store writes (meta checks, migration scans, flushes), so each test
/// opens a fresh copy.
class ProfileStoreLegacyJson : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = "/tmp/synapse_store_legacy_json_" + GetParam();
    std::filesystem::remove_all(dir_);
    std::filesystem::copy(
        std::string(SYNAPSE_TEST_FIXTURE_DIR "/legacy_json_store/") +
            GetParam(),
        dir_, std::filesystem::copy_options::recursive);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(ProfileStoreLegacyJson, ReadBackDumpsIdentically) {
  profile::ProfileStore store(GetParam(), dir_);
  EXPECT_EQ(store.size(), legacy_fixture_profiles().size());
  for (const auto& original : legacy_fixture_profiles()) {
    SCOPED_TRACE(original.command + " @ " +
                 std::to_string(original.created_at));
    const auto hits = store.find(original.command, original.tags);
    const profile::Profile* found = find_recorded(hits, original);
    ASSERT_NE(found, nullptr);
    expect_equal_profiles(*found, original);
    // Bit-level hash over rows, lane names, durations, cells, presence.
    EXPECT_EQ(delta_golden::checksum(found->delta_table()),
              delta_golden::checksum(original.delta_table()));
  }
}

TEST_P(ProfileStoreLegacyJson, ListReportsJsonAtRest) {
  profile::ProfileStore store(GetParam(), dir_);
  const auto entries = store.list();
  ASSERT_EQ(entries.size(), legacy_fixture_profiles().size());
  std::multiset<size_t> listed;
  for (const auto& e : entries) {
    EXPECT_EQ(e.format, "json") << e.command;
    listed.insert(e.encoded_bytes);
  }
  if (GetParam() != "files") return;
  // A files entry's size at rest is its file's size.
  std::multiset<size_t> on_disk;
  for (const auto& f : std::filesystem::recursive_directory_iterator(dir_)) {
    const std::string name = f.path().filename().string();
    if (name.size() > 13 && name.substr(name.size() - 13) == ".profile.json") {
      on_disk.insert(static_cast<size_t>(f.file_size()));
    }
  }
  EXPECT_EQ(listed, on_disk);
}

TEST_P(ProfileStoreLegacyJson, PutLandsAsBinaryAndBothFormatsRead) {
  // A new recording of a legacy workload sits next to its JSON siblings.
  const auto added = make_series_profile("legacy-a", 40, 5.0);
  {
    profile::ProfileStore store(GetParam(), dir_);
    store.put(added);
    size_t binary = 0;
    for (const auto& e : store.list()) {
      EXPECT_EQ(e.format, e.created_at == added.created_at ? "binary" : "json")
          << e.command << " @ " << e.created_at;
      binary += e.format == "binary" ? 1 : 0;
    }
    EXPECT_EQ(binary, 1u);
    store.flush();
  }
  profile::ProfileStore store(GetParam(), dir_);  // cold reopen
  auto expected = legacy_fixture_profiles();
  expected.push_back(added);
  EXPECT_EQ(store.size(), expected.size());
  for (const auto& original : expected) {
    SCOPED_TRACE(original.command + " @ " +
                 std::to_string(original.created_at));
    const auto hits = store.find(original.command, original.tags);
    const profile::Profile* found = find_recorded(hits, original);
    ASSERT_NE(found, nullptr);
    expect_equal_profiles(*found, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ProfileStoreLegacyJson,
                         ::testing::Values("files", "docstore"));
