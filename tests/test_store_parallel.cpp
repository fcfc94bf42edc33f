// ProfileStore's parallel cross-shard operations, the decoded-profile
// byte budget, the mmap read path and the lifetime of what it decodes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "profile/binary_codec.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "sys/mmap_file.hpp"
#include "workload/scenario.hpp"

namespace profile = synapse::profile;
namespace sys = synapse::sys;
namespace m = synapse::metrics;

namespace {

profile::Profile make_profile(const std::string& cmd,
                              const std::vector<std::string>& tags,
                              double created_at, size_t samples = 8) {
  profile::Profile p;
  p.command = cmd;
  p.tags = tags;
  p.created_at = created_at;
  p.sample_rate_hz = 10.0;
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  for (size_t i = 0; i < samples; ++i) {
    const size_t row = ts.samples.add_row(100.0 + 0.1 * static_cast<double>(i));
    ts.samples.set(row, m::kCyclesUsed, 1000.0 * static_cast<double>(i + 1));
  }
  p.series.push_back(std::move(ts));
  p.totals[std::string(m::kCyclesUsed)] = 1000.0 * static_cast<double>(samples);
  return p;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = "/tmp/synapse_parallel_test_" + tag;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

bool deltas_equal(const std::vector<profile::SampleDelta>& a,
                  const std::vector<profile::SampleDelta>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].duration != b[i].duration || a[i].deltas != b[i].deltas) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- mmap decode -------------------------------------------------------------

TEST(MmapProfileDecode, BitIdenticalToBufferedAcrossBuiltinCatalog) {
  // Every builtin scenario profile, encoded once, decoded twice: out of
  // an mmap-backed Blob (the files backend's read path for *.synb) and
  // out of the encoded string. Identical JSON projections and identical
  // sample_deltas — bit for bit.
  const std::string path =
      "/tmp/synapse_mmap_catalog_" + std::to_string(::getpid()) +
      ".profile.synb";
  for (const auto& spec : synapse::workload::builtin_scenarios()) {
    const profile::Profile original = spec.make_profile();
    const std::string encoded = original.to_binary();
    {
      std::ofstream out(path, std::ios::binary);
      out << encoded;
    }
    auto mapped = sys::MappedBlob::map(path);
    ASSERT_NE(mapped, nullptr) << spec.name;
    const profile::Profile via_mmap =
        profile::Profile::from_binary(mapped->view());
    const profile::Profile via_buffer = profile::Profile::from_binary(encoded);

    EXPECT_EQ(synapse::json::dump(via_mmap.to_json()),
              synapse::json::dump(via_buffer.to_json()))
        << spec.name;
    EXPECT_TRUE(deltas_equal(via_mmap.sample_deltas(),
                             via_buffer.sample_deltas()))
        << spec.name;
  }
  ::unlink(path.c_str());
}

TEST(MmapProfileDecode, DecodedProfileOutlivesFileDeletion) {
  // The files backend decodes *.synb reads out of an mmap and copies the
  // columns out; a decoded Profile owns its data, so it stays whole past
  // the end of that mapping and a concurrent remove() of the file.
  const std::string dir = fresh_dir("mmap_lifetime");
  profile::ProfileStoreOptions options;
  options.backend = "files";
  options.directory = dir;
  options.shards = 2;
  profile::ProfileStore store(options);
  const profile::Profile put = make_profile("held-cmd", {"x"}, 1.0, 64);
  store.put(put);

  const auto held = store.find_latest_shared("held-cmd", {"x"});
  ASSERT_NE(held, nullptr);
  const auto before = held->sample_deltas();
  EXPECT_TRUE(deltas_equal(before, put.sample_deltas()));

  EXPECT_EQ(store.remove("held-cmd", {"x"}), 1u);
  EXPECT_TRUE(store.find("held-cmd", {"x"}).empty());

  // The store no longer has the profile; the held snapshot is intact.
  EXPECT_EQ(held->command, "held-cmd");
  EXPECT_EQ(synapse::json::dump(held->to_json()),
            synapse::json::dump(put.to_json()));
  EXPECT_TRUE(deltas_equal(held->sample_deltas(), before));
  std::system(("rm -rf " + dir).c_str());
}

// --- deterministic list -----------------------------------------------------

TEST(ProfileStoreParallel, ListIsDeterministicAcrossShardCounts) {
  std::vector<std::vector<profile::StoredProfileEntry>> catalogs;
  for (const size_t shards : {1u, 3u, 8u}) {
    const std::string dir =
        fresh_dir("list_det_" + std::to_string(shards));
    profile::ProfileStoreOptions options;
    options.backend = "files";
    options.directory = dir;
    options.shards = shards;
    profile::ProfileStore store(options);
    // Insertion order deliberately unrelated to timestamp order.
    store.put(make_profile("cmd-c", {}, 30.0));
    store.put(make_profile("cmd-a", {"t"}, 10.0));
    store.put(make_profile("cmd-b", {}, 20.0));
    store.put(make_profile("cmd-a", {}, 20.0));
    catalogs.push_back(store.list());
    std::system(("rm -rf " + dir).c_str());
  }
  for (const auto& catalog : catalogs) {
    ASSERT_EQ(catalog.size(), 4u);
    // Sorted by (created_at, command): stable across shard counts.
    EXPECT_EQ(catalog[0].command, "cmd-a");
    EXPECT_DOUBLE_EQ(catalog[0].created_at, 10.0);
    EXPECT_EQ(catalog[1].command, "cmd-a");
    EXPECT_TRUE(catalog[1].tags.empty());
    EXPECT_EQ(catalog[2].command, "cmd-b");
    EXPECT_EQ(catalog[3].command, "cmd-c");
  }
}

// --- single-shard point lookups ---------------------------------------------

namespace {

/// In-memory backend that counts read() calls per shard, to pin that
/// point lookups touch exactly one shard.
struct ReadCounters {
  std::mutex mutex;
  std::map<size_t, size_t> reads_by_shard;
};

class CountingBackend : public profile::StoreBackend {
 public:
  CountingBackend(size_t shard_index, std::shared_ptr<ReadCounters> counters)
      : shard_index_(shard_index), counters_(std::move(counters)) {}

  bool put(const profile::Profile& p, const std::string&) override {
    profiles_.push_back(p);
    return false;
  }

  std::vector<profile::Profile> read(const std::string& command,
                                     const std::string& tkey) const override {
    {
      std::lock_guard<std::mutex> lock(counters_->mutex);
      ++counters_->reads_by_shard[shard_index_];
    }
    std::vector<profile::Profile> out;
    for (const auto& p : profiles_) {
      if (p.command == command && profile::store_tags_key(p.tags) == tkey) {
        out.push_back(p);
      }
    }
    return out;
  }

  size_t remove(const std::string&, const std::string&) override { return 0; }
  size_t size() const override { return profiles_.size(); }

 private:
  size_t shard_index_;
  std::shared_ptr<ReadCounters> counters_;
  std::vector<profile::Profile> profiles_;
};

}  // namespace

TEST(ProfileStoreParallel, FindLatestReadsOnlyTheOwningShard) {
  auto counters = std::make_shared<ReadCounters>();
  profile::StoreBackendRegistry registry;
  registry.register_backend(
      "counting", [counters](const profile::StoreBackendContext& ctx) {
        return std::make_unique<CountingBackend>(ctx.shard_index, counters);
      });
  profile::ProfileStoreOptions options;
  options.backend = "counting";
  options.registry = &registry;
  options.shards = 8;
  options.cache_entries_per_shard = 0;  // every find hits the backend
  profile::ProfileStore store(options);
  for (int i = 0; i < 16; ++i) {
    store.put(make_profile("cmd-" + std::to_string(i), {}, i));
  }
  counters->reads_by_shard.clear();

  ASSERT_TRUE(store.find_latest("cmd-3").has_value());
  size_t shards_touched = 0;
  size_t total_reads = 0;
  for (const auto& [shard, reads] : counters->reads_by_shard) {
    ++shards_touched;
    total_reads += reads;
  }
  EXPECT_EQ(shards_touched, 1u);
  EXPECT_EQ(total_reads, 1u);
}

// --- decoded-profile cache byte budget --------------------------------------

TEST(ProfileStoreCache, ReportsCachedBytes) {
  profile::ProfileStoreOptions options;  // memory backend
  profile::ProfileStore store(options);
  store.put(make_profile("cmd", {}, 1.0, 32));
  EXPECT_EQ(store.cache_stats().bytes, 0u);
  store.find("cmd");
  const auto stats = store.cache_stats();
  EXPECT_GT(stats.bytes, 0u);
  // A second find is a pure cache hit and does not change the footprint.
  store.find("cmd");
  EXPECT_EQ(store.cache_stats().bytes, stats.bytes);
  EXPECT_GE(store.cache_stats().hits, 1u);
}

TEST(ProfileStoreCache, ByteBudgetBoundsTheCache) {
  profile::ProfileStoreOptions options;
  options.shards = 1;  // budget == cache_max_bytes exactly
  options.cache_entries_per_shard = 64;
  options.cache_max_bytes = 64 * 1024;
  profile::ProfileStore store(options);
  for (int i = 0; i < 40; ++i) {
    store.put(make_profile("cmd-" + std::to_string(i), {}, i, 32));
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(store.find("cmd-" + std::to_string(i)).size(), 1u);
  }
  const auto stats = store.cache_stats();
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LE(stats.bytes, options.cache_max_bytes);
}

TEST(ProfileStoreCache, OversizeEntryIsServedButNotCached) {
  profile::ProfileStoreOptions options;
  options.shards = 1;
  options.cache_max_bytes = 1;  // nothing fits
  profile::ProfileStore store(options);
  store.put(make_profile("big", {}, 1.0, 64));
  EXPECT_EQ(store.find("big").size(), 1u);  // served fine
  EXPECT_EQ(store.cache_stats().bytes, 0u);
  // Repeat reads keep missing (never cached), but stay correct.
  EXPECT_EQ(store.find("big").size(), 1u);
  EXPECT_EQ(store.cache_stats().hits, 0u);
}

TEST(ProfileStoreCache, SharedSnapshotIsStableAcrossLaterWrites) {
  profile::ProfileStore store{profile::ProfileStoreOptions{}};
  store.put(make_profile("cmd", {}, 1.0));
  const auto snapshot = store.find_shared("cmd");
  ASSERT_EQ(snapshot->size(), 1u);
  store.put(make_profile("cmd", {}, 2.0));
  // The earlier snapshot is immutable; new reads see the new write.
  EXPECT_EQ(snapshot->size(), 1u);
  EXPECT_EQ(store.find("cmd").size(), 2u);
  const auto latest = store.find_latest_shared("cmd");
  ASSERT_NE(latest, nullptr);
  EXPECT_DOUBLE_EQ(latest->created_at, 2.0);
}

// --- thread-count knob ------------------------------------------------------

TEST(ProfileStoreParallel, ThreadKnobProducesIdenticalResults) {
  std::vector<size_t> sizes;
  for (const size_t threads : {1u, 4u}) {
    const std::string dir =
        fresh_dir("threads_" + std::to_string(threads));
    profile::ProfileStoreOptions options;
    options.backend = "files";
    options.directory = dir;
    options.threads = threads;
    options.shards = 8;
    profile::ProfileStore store(options);
    EXPECT_EQ(store.task_threads(), threads);

    std::vector<profile::Profile> batch;
    for (int i = 0; i < 48; ++i) {
      batch.push_back(
          make_profile("cmd-" + std::to_string(i % 12), {"t"}, i));
    }
    std::vector<bool> stored;
    EXPECT_EQ(store.put_many(batch, &stored), 0u);
    ASSERT_EQ(stored.size(), batch.size());
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_TRUE(stored[i]) << "profile " << i;
    }
    EXPECT_EQ(store.size(), 48u);
    EXPECT_EQ(store.list().size(), 48u);
    sizes.push_back(store.size());
    std::system(("rm -rf " + dir).c_str());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
}
