// Concurrency regression tests for the sharded ProfileStore: multiple
// writer threads hammer put()/put_many() while readers run find() and
// stats() concurrently, over all three backends. The invariants are
// simple and strict: no lost writes, stable size(), and per-workload
// ordering by recorded timestamp.
//
// These run under the `concurrency` ctest label (tests/CMakeLists.txt).

#include "profile/profile_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "profile/metrics.hpp"

namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

constexpr int kThreads = 4;
constexpr int kProfilesPerThread = 120;  // half shared, half private

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

/// A throwaway 2-instance cluster: spec file + instance roots under
/// `base`, all removed by cleanup(). Used to run the same hammer suite
/// against the multi-instance backend.
struct ClusterFixture {
  static std::string write_spec(const std::string& base) {
    std::system(("rm -rf " + base).c_str());
    ::system(("mkdir -p " + base).c_str());
    const std::string spec_path = base + "/cluster.json";
    std::ofstream spec(spec_path);
    spec << "{\"instances\": ["
         << "{\"name\": \"a\", \"root\": \"" << base << "/inst-a\"},"
         << "{\"name\": \"b\", \"root\": \"" << base << "/inst-b\"}]}";
    return spec_path;
  }
};

/// Backends the parameterized hammer suites run against. The
/// SYNAPSE_TEST_STORE_BACKEND environment variable narrows the run to
/// one backend — CI uses it to repeat the whole `concurrency` label
/// against `cluster`.
std::vector<std::string> backends_under_test() {
  if (const char* env = std::getenv("SYNAPSE_TEST_STORE_BACKEND")) {
    if (*env != '\0') return {env};
  }
  return {"memory", "docstore", "files"};
}

class ProfileStoreConcurrency
    : public ::testing::TestWithParam<std::string> {
 protected:
  profile::ProfileStore make_store(size_t threads = 0) {
    const std::string backend = GetParam();
    if (backend == "memory") {
      profile::ProfileStoreOptions options;
      options.threads = threads;
      return profile::ProfileStore(std::move(options));
    }
    dir_ = "/tmp/synapse_store_conc_" + backend;
    std::system(("rm -rf " + dir_).c_str());
    profile::ProfileStoreOptions options;
    options.backend = backend;
    options.directory = dir_;
    options.threads = threads;
    if (backend == "cluster") {
      cluster_base_ = "/tmp/synapse_store_conc_cluster_instances";
      options.cluster_spec = ClusterFixture::write_spec(cluster_base_);
    }
    return profile::ProfileStore(std::move(options));
  }

  void TearDown() override {
    if (!dir_.empty()) std::system(("rm -rf " + dir_).c_str());
    if (!cluster_base_.empty()) {
      std::system(("rm -rf " + cluster_base_).c_str());
    }
  }

  std::string dir_;
  std::string cluster_base_;
};

TEST_P(ProfileStoreConcurrency, ParallelWritersLoseNothing) {
  auto store = make_store();

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kProfilesPerThread; ++i) {
        if (i % 2 == 0) {
          // Shared workload: every thread appends repetitions to the
          // same (command, tags) index — the contended path.
          store.put(make_profile("shared-cmd", {"conc"},
                                 t * 1000 + i,
                                 static_cast<double>(t * 1000 + i)));
        } else {
          // Private workload per thread: spreads across shards.
          store.put(make_profile("thread-" + std::to_string(t), {"conc"},
                                 i, static_cast<double>(i)));
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  const size_t total = static_cast<size_t>(kThreads) * kProfilesPerThread;
  EXPECT_EQ(store.size(), total);
  EXPECT_EQ(store.find("shared-cmd", {"conc"}).size(),
            static_cast<size_t>(kThreads) * (kProfilesPerThread / 2));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(store.find("thread-" + std::to_string(t), {"conc"}).size(),
              static_cast<size_t>(kProfilesPerThread / 2))
        << "thread " << t;
  }

  // The shared workload's profiles come back ordered by created_at
  // regardless of the interleaving of writers.
  const auto shared = store.find("shared-cmd", {"conc"});
  for (size_t i = 1; i < shared.size(); ++i) {
    EXPECT_LE(shared[i - 1].created_at, shared[i].created_at);
  }
}

TEST_P(ProfileStoreConcurrency, ReadersRunConcurrentlyWithWriters) {
  auto store = make_store();
  store.put(make_profile("rw-cmd", {}, 0, 0.0));

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto found = store.find("rw-cmd");
      ASSERT_GE(found.size(), 1u);  // never observes a torn/empty state
      const auto stats = store.stats("rw-cmd");
      ASSERT_TRUE(stats.count(std::string(m::kCyclesUsed)));
      (void)store.find_latest("rw-cmd");
      (void)store.size();
      reads.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kProfilesPerThread; ++i) {
        store.put(make_profile("rw-cmd", {}, t * 1000 + i,
                               static_cast<double>(t * 1000 + i)));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_GE(reads.load(), 1u);
  EXPECT_EQ(store.find("rw-cmd").size(),
            1u + static_cast<size_t>(kThreads) * kProfilesPerThread);
  // After all writers joined, the latest is the max created_at.
  const auto latest = store.find_latest("rw-cmd");
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->created_at,
                   (kThreads - 1) * 1000.0 + (kProfilesPerThread - 1));
}

TEST_P(ProfileStoreConcurrency, ParallelPutManyBatches) {
  auto store = make_store();

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, t] {
      std::vector<profile::Profile> batch;
      for (int i = 0; i < kProfilesPerThread; ++i) {
        batch.push_back(make_profile("batch-" + std::to_string(i % 8),
                                     {"pm"}, t, static_cast<double>(i)));
      }
      EXPECT_EQ(store.put_many(batch), 0u);
    });
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(store.size(),
            static_cast<size_t>(kThreads) * kProfilesPerThread);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(store.find("batch-" + std::to_string(c), {"pm"}).size(),
              static_cast<size_t>(kThreads) * (kProfilesPerThread / 8))
        << "command " << c;
  }
}

TEST_P(ProfileStoreConcurrency, ConcurrentFlushesAreSafe) {
  auto store = make_store();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (int i = 0; i < 40; ++i) {
        store.put(make_profile("flush-cmd", {}, t, static_cast<double>(i)));
        if (i % 8 == 0) store.flush_async();
        if (i % 16 == 0) store.flush();
      }
    });
  }
  for (auto& w : workers) w.join();
  store.flush();

  EXPECT_EQ(store.find("flush-cmd").size(),
            static_cast<size_t>(kThreads) * 40);
}

TEST_P(ProfileStoreConcurrency, PoolBackedPutManyRacesReadersAndRemove) {
  // The pool-parallel cross-shard put_many path (options.threads > 1)
  // racing concurrent readers and a remover. Invariants: stored[] is
  // all-true for every successful batch, readers never observe a torn
  // state, and the per-workload counts add up exactly once the remover
  // and writers have joined.
  auto store = make_store(/*threads=*/4);

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)store.find("hammer-0", {"pm"});
      (void)store.find_latest_shared("hammer-1", {"pm"});
      (void)store.list();
      (void)store.size();
      reads.fetch_add(1);
    }
  });

  // The remover only ever touches the victim workload; writers re-seed
  // it, so removal races a concurrent put of the same index.
  std::atomic<size_t> removed{0};
  std::thread remover([&] {
    for (int i = 0; i < 30; ++i) {
      removed.fetch_add(store.remove("victim", {"pm"}));
      std::this_thread::yield();
    }
  });

  constexpr int kBatches = 10;
  constexpr int kBatchSize = 24;
  std::atomic<size_t> victim_puts{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<profile::Profile> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          if (i % 8 == 7) {
            batch.push_back(make_profile("victim", {"pm"}, t,
                                         static_cast<double>(b)));
          } else {
            batch.push_back(make_profile("hammer-" + std::to_string(i % 4),
                                         {"pm"}, t,
                                         static_cast<double>(t * 100 + b)));
          }
        }
        std::vector<bool> stored;
        EXPECT_EQ(store.put_many(batch, &stored), 0u);
        ASSERT_EQ(stored.size(), batch.size());
        for (size_t i = 0; i < stored.size(); ++i) {
          EXPECT_TRUE(stored[i]) << "batch " << b << " profile " << i;
        }
        victim_puts.fetch_add(kBatchSize / 8);
      }
    });
  }
  for (auto& w : writers) w.join();
  remover.join();
  stop.store(true);
  reader.join();

  EXPECT_GE(reads.load(), 1u);
  const size_t total_puts =
      static_cast<size_t>(kThreads) * kBatches * kBatchSize;
  const size_t hammer_puts = total_puts - victim_puts.load();
  // Non-victim workloads were never removed: exact.
  size_t hammer_found = 0;
  for (int c = 0; c < 4; ++c) {
    hammer_found +=
        store.find("hammer-" + std::to_string(c), {"pm"}).size();
  }
  EXPECT_EQ(hammer_found, hammer_puts);
  // Victim accounting: whatever the remover reaped plus what survives.
  EXPECT_EQ(store.find("victim", {"pm"}).size() + removed.load(),
            victim_puts.load());
  EXPECT_EQ(store.size(), total_puts - removed.load());
}

INSTANTIATE_TEST_SUITE_P(Backends, ProfileStoreConcurrency,
                         ::testing::ValuesIn(backends_under_test()));

// The PR 2 multi-writer scenario pinned to the `cluster` backend: four
// threads hammer a store whose shards are distributed across two
// docstore instances, so writes to both instances interleave. Runs
// unconditionally (the parameterized suite covers cluster only when
// SYNAPSE_TEST_STORE_BACKEND=cluster).
TEST(ProfileStoreConcurrencyCluster, ParallelWritersLoseNothing) {
  const std::string base = "/tmp/synapse_store_conc_cluster_pinned";
  const std::string dir = base + "/store";
  const std::string spec = ClusterFixture::write_spec(base);
  {
    profile::ProfileStoreOptions options;
    options.backend = "cluster";
    options.directory = dir;
    options.cluster_spec = spec;
    profile::ProfileStore store(std::move(options));

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, t] {
        for (int i = 0; i < kProfilesPerThread; ++i) {
          if (i % 2 == 0) {
            store.put(make_profile("shared-cmd", {"conc"}, t * 1000 + i,
                                   static_cast<double>(t * 1000 + i)));
          } else {
            store.put(make_profile("thread-" + std::to_string(t), {"conc"},
                                   i, static_cast<double>(i)));
          }
        }
      });
    }
    for (auto& w : writers) w.join();

    EXPECT_EQ(store.size(),
              static_cast<size_t>(kThreads) * kProfilesPerThread);
    EXPECT_EQ(store.find("shared-cmd", {"conc"}).size(),
              static_cast<size_t>(kThreads) * (kProfilesPerThread / 2));
    const auto shared = store.find("shared-cmd", {"conc"});
    for (size_t i = 1; i < shared.size(); ++i) {
      EXPECT_LE(shared[i - 1].created_at, shared[i].created_at);
    }
    store.flush();
  }
  // Both instances actually hold shard data (the writes spread).
  EXPECT_EQ(std::system(
                ("ls " + base + "/inst-a/shard-*/profiles.collection.json "
                 ">/dev/null 2>&1")
                    .c_str()),
            0);
  EXPECT_EQ(std::system(
                ("ls " + base + "/inst-b/shard-*/profiles.collection.json "
                 ">/dev/null 2>&1")
                    .c_str()),
            0);
  std::system(("rm -rf " + base).c_str());
}

// FlushPolicy destructor-race hammer: stores with an aggressive age
// trigger are destroyed while timed flushes are in flight, with writers
// racing right up to destruction. The invariants: no deadlock (the test
// would time out), no crash from a double flush, and no lost write —
// every put must be on disk after the store is gone (the worker drains
// on stop).
TEST(ProfileStoreConcurrencyCross, DestructionDrainsTimedFlushesInFlight) {
  const std::string dir = "/tmp/synapse_store_conc_drain";
  constexpr int kIterations = 12;
  constexpr int kWriters = 3;
  constexpr int kPutsPerWriter = 10;

  for (int iter = 0; iter < kIterations; ++iter) {
    std::system(("rm -rf " + dir).c_str());
    {
      profile::ProfileStoreOptions options;
      options.shards = 4;
      // Tiny age: timed flushes fire continuously while writers run, so
      // destruction routinely lands mid-flush.
      options.flush_policy.max_age_s = 0.002;
      profile::ProfileStore store("docstore",
                                  dir, options);
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&store, w] {
          for (int i = 0; i < kPutsPerWriter; ++i) {
            store.put(make_profile("drain-" + std::to_string(w), {"hammer"},
                                   i, static_cast<double>(i)));
          }
        });
      }
      for (auto& t : writers) t.join();
      // Destroy immediately: the youngest puts' deadline has not fired.
    }
    profile::ProfileStore reopened("docstore",
                                   dir);
    ASSERT_EQ(reopened.size(),
              static_cast<size_t>(kWriters) * kPutsPerWriter)
        << "iteration " << iter;
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ProfileStoreConcurrencyCross, TwoInstancesWriteTheSameFilesStore) {
  // Two ProfileStore instances over one directory model two processes
  // (their shard mutexes are unrelated): concurrent puts to the same
  // workload must not overwrite each other's sequence files.
  const std::string dir = "/tmp/synapse_store_conc_cross";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore a("files", dir);
    profile::ProfileStore b("files", dir);

    constexpr int kPerInstance = 60;
    std::thread ta([&a] {
      for (int i = 0; i < kPerInstance; ++i) {
        a.put(make_profile("cross-cmd", {"x"}, i, static_cast<double>(i)));
      }
    });
    std::thread tb([&b] {
      for (int i = 0; i < kPerInstance; ++i) {
        b.put(make_profile("cross-cmd", {"x"}, 100 + i,
                           static_cast<double>(100 + i)));
      }
    });
    ta.join();
    tb.join();

    EXPECT_EQ(a.find("cross-cmd", {"x"}).size(), 2u * kPerInstance);
    EXPECT_EQ(b.find("cross-cmd", {"x"}).size(), 2u * kPerInstance);
    EXPECT_EQ(a.size(), 2u * kPerInstance);
  }
  std::system(("rm -rf " + dir).c_str());
}
