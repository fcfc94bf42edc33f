// store-ensemble: the RADICAL-Pilot ensemble pattern against a default
// files/SYNB store.
//
// Each repetition is one ensemble cycle: several hundred tasks store
// their profiles (one put each, as Session::profile does, then one
// flush); a later session reopens the store cold and looks every profile
// up once (find_latest + delta_table, i.e. ready to replay); then it
// repeatedly looks up a small hot set (find_latest_shared + delta_table).
// Profile sizes spread from tens to thousands of samples, so the decoded
// working set exceeds the store's 64 MiB cache budget while the hot set
// fits. No atoms and no watchers run.
//
// Integrity: every acknowledged put must come back after the cold
// reopen with its command, tags, sample count and delta-table checksum.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "perfbench.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace profile = synapse::profile;
namespace workload = synapse::workload;
namespace m = synapse::metrics;

namespace {

constexpr size_t kProfiles = 400;
constexpr size_t kHotSet = 8;
constexpr size_t kHotLookups = 4000;
constexpr size_t kHotMaxRows = 200;

/// FNV-1a over a delta table's lanes, durations, cells and presence.
uint64_t checksum(const profile::DeltaTable& table) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const size_t rows = table.rows();
  mix(&rows, sizeof(rows));
  for (const auto& name : table.lanes().names()) mix(name.data(), name.size());
  for (size_t row = 0; row < rows; ++row) {
    const double d = table.duration(row);
    mix(&d, sizeof(d));
    for (uint32_t lane = 0; lane < table.lanes().size(); ++lane) {
      const double v = table.get(lane, row);
      const bool present = table.present(lane, row);
      mix(&v, sizeof(v));
      mix(&present, sizeof(present));
    }
  }
  return h;
}

struct Task {
  profile::Profile profile;
  size_t rows = 0;
  uint64_t checksum = 0;
};

/// The seed's ensemble: sizes stratified over a log scale from 20 to
/// 3000 samples (so the total stays put across seeds), shuffled; each
/// task gets its own command, tags and a seeded mix of metrics.
std::vector<Task> make_ensemble(const RunOptions& options, Tracer& tracer) {
  Rng rng(options.seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<size_t> sizes(kProfiles);
  for (size_t i = 0; i < kProfiles; ++i) {
    const double q = (static_cast<double>(i) + u(rng)) / kProfiles;
    sizes[i] = static_cast<size_t>(20.0 * std::pow(150.0, q));
  }
  std::shuffle(sizes.begin(), sizes.end(), rng);

  static const std::string kMetrics[] = {
      std::string(m::kCyclesUsed), std::string(m::kMemAllocated),
      std::string(m::kMemFreed), std::string(m::kBytesWritten),
      std::string(m::kBytesRead)};
  std::vector<Task> tasks(kProfiles);
  for (size_t i = 0; i < kProfiles; ++i) {
    workload::ScenarioSpec spec;
    spec.name = "ensemble-" + std::to_string(options.seed) + "-task-" +
                std::to_string(i);
    spec.atom_set = {"compute", "memory", "storage"};
    spec.source.samples = sizes[i];
    spec.source.sample_rate_hz = 10.0;
    for (const auto& metric : kMetrics) {
      if (u(rng) < 0.7) spec.source.deltas[metric] = 1e3 + 1e6 * u(rng);
    }
    if (spec.source.deltas.empty()) {
      spec.source.deltas[kMetrics[0]] = 1e3 + 1e6 * u(rng);
    }
    spec.tags = {"ensemble", "seed-" + std::to_string(options.seed),
                 "stage-" + std::to_string(i % 7)};
    Scope call(tracer, "workload.make_profile");
    tasks[i].profile = spec.make_profile();
  }
  return tasks;
}

}  // namespace

Result run_store_ensemble(const RunOptions& options, Tracer& tracer) {
  Result result;
  std::vector<Task> tasks;
  constexpr size_t kSetups = 3;
  for (size_t k = 0; k < kSetups; ++k) {
    tracer.set_run(Tracer::kSetupRun + k);
    tracer.set_enabled(options.trace);
    const synapse::sys::Stopwatch w;
    {
      Scope s(tracer, "bench.setup");
      tasks = make_ensemble(options, tracer);
    }
    result.setup_seconds.push_back(w.elapsed());
  }
  tracer.set_enabled(false);

  // References for the integrity check and the hot set (not timed).
  Rng rng(options.seed ^ 0x5bd1e995ull);
  std::vector<size_t> order(kProfiles), small;
  for (size_t i = 0; i < kProfiles; ++i) {
    order[i] = i;
    const profile::DeltaTable table = tasks[i].profile.delta_table();
    tasks[i].rows = table.rows();
    tasks[i].checksum = checksum(table);
    if (tasks[i].rows <= kHotMaxRows) small.push_back(i);
  }
  std::shuffle(small.begin(), small.end(), rng);
  small.resize(std::min(small.size(), kHotSet));
  const std::vector<size_t> hot = small;

  std::vector<double> ingest, cold, hot_rate, hit_ratio, hits, misses, disk,
      working_set;
  const size_t budget = profile::ProfileStoreOptions{}.cache_max_bytes;
  std::vector<size_t> hot_rows(kHotLookups);
  const synapse::sys::Stopwatch clock;
  for (size_t rep = 0; keep_going(clock, options, rep, options.trace ? 4 : 3);
       ++rep) {
    settle_disk(options.work_dir);
    tracer.set_run(rep);
    tracer.set_enabled(options.trace && rep % 2 == 1);
    const bool traced = tracer.enabled();
    const std::string dir = options.work_dir + "/ensemble-" +
                            std::to_string(rep);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<bool> acknowledged(kProfiles, false);

    double t_open_write = 0, t_put = 0, t_flush = 0, t_cold = 0;
    double decoded_bytes = 0;
    Scope rep_scope(tracer, "bench.rep");
    synapse::sys::Stopwatch w;
    {
      std::optional<profile::ProfileStore> store;
      {
        Scope call(tracer, "profile.store.open");
        store.emplace("files", dir);
      }
      t_open_write = w.reset();
      for (size_t i = 0; i < kProfiles; ++i) {
        try {
          Scope call(tracer, "profile.store.put");
          store->put(tasks[i].profile);
          acknowledged[i] = true;
        } catch (const std::exception& e) {
          result.check(false, std::string("put: ") + e.what());
        }
      }
      t_put = w.reset();
      {
        Scope call(tracer, "profile.store.flush");
        store->flush();
      }
      t_flush = w.reset();
    }
    const double t_close = w.reset();
    if (traced) disk.push_back(static_cast<double>(tree_bytes(dir)));

    std::optional<profile::ProfileStore> store;
    w.reset();
    {
      Scope call(tracer, "profile.store.open");
      store.emplace("files", dir);
    }
    const double t_open_read = w.elapsed();

    // Cold pass: every profile once, in a seeded order. Checks run
    // between lookups and are not timed.
    for (const size_t i : order) {
      const Task& task = tasks[i];
      const double start = synapse::sys::steady_now();
      std::optional<profile::Profile> found;
      profile::DeltaTable table;
      {
        Scope call(tracer, "profile.store.find_latest");
        found = store->find_latest(task.profile.command, task.profile.tags);
      }
      if (found) {
        Scope call(tracer, "profile.delta_table");
        table = found->delta_table();
      }
      t_cold += synapse::sys::steady_now() - start;
      if (!acknowledged[i]) continue;
      if (found) decoded_bytes += static_cast<double>(found->decoded_bytes());
      result.check(found && found->command == task.profile.command &&
                       profile::ProfileStore::tags_key(found->tags) ==
                           profile::ProfileStore::tags_key(task.profile.tags) &&
                       found->sample_count() == task.profile.sample_count() &&
                       table.rows() == task.rows &&
                       checksum(table) == task.checksum,
                   "cold lookup of " + task.profile.command +
                       " does not match what was put");
    }

    // Hot pass: the small hot set, round robin.
    const auto before = store->cache_stats();
    w.reset();
    for (size_t j = 0; j < kHotLookups; ++j) {
      const profile::Profile& wanted = tasks[hot[j % hot.size()]].profile;
      std::shared_ptr<const profile::Profile> found;
      {
        Scope call(tracer, "profile.store.find_latest_shared");
        found = store->find_latest_shared(wanted.command, wanted.tags);
      }
      Scope call(tracer, "profile.delta_table");
      hot_rows[j] = found ? found->delta_table().rows() : 0;
    }
    const double t_hot = w.elapsed();
    const auto after = store->cache_stats();
    for (size_t j = 0; j < kHotLookups; ++j) {
      const size_t i = hot[j % hot.size()];
      result.check(!acknowledged[i] || hot_rows[j] == tasks[i].rows,
                   "hot lookup of " + tasks[i].profile.command +
                       " returned the wrong profile");
    }
    store.reset();

    const double cycle =
        t_open_write + t_put + t_flush + t_close + t_open_read + t_cold + t_hot;
    result.reps.push_back(
        {static_cast<double>(2 * kProfiles + kHotLookups), cycle, traced});
    if (!traced) {
      ingest.push_back(kProfiles / (t_put + t_flush));
      cold.push_back(kProfiles / t_cold);
      hot_rate.push_back(kHotLookups / t_hot);
    }
    if (traced || !options.trace) {
      const double h = static_cast<double>(after.hits - before.hits);
      const double mi = static_cast<double>(after.misses - before.misses);
      hits.push_back(h);
      misses.push_back(mi);
      hit_ratio.push_back(h + mi > 0 ? h / (h + mi) : 0.0);
      working_set.push_back(decoded_bytes);
    }
    remove_tree(dir);

    if (traced) {
      // Layer probe outside the cycle: encode and decode every profile.
      double encoded = 0;
      for (const Task& task : tasks) {
        std::string bytes;
        {
          Scope call(tracer, "profile.to_binary");
          bytes = task.profile.to_binary();
        }
        encoded += static_cast<double>(bytes.size());
        Scope call(tracer, "profile.from_binary");
        profile::Profile::from_binary(std::move(bytes));
      }
      result.layer["profile.encoded_bytes"] = encoded;
    }
  }
  tracer.set_enabled(false);

  result.named.push_back(
      {"ingest_profiles_per_s", median(ingest), "1/s", ingest.size()});
  result.named.push_back(
      {"cold_lookup_per_s", median(cold), "1/s", cold.size()});
  result.named.push_back(
      {"hot_lookup_per_s", median(hot_rate), "1/s", hot_rate.size()});

  auto& layer = result.layer;
  layer["workload.make_profile_s"] =
      median_of(tracer.total_per_run("workload.make_profile", true));
  layer["profile.encode_s"] = median_of(tracer.total_per_run("profile.to_binary"));
  layer["profile.decode_s"] =
      median_of(tracer.total_per_run("profile.from_binary"));
  layer["profile.delta_table_s"] =
      median_of(tracer.total_per_run("profile.delta_table"));
  layer["profile.decoded_bytes"] = median(working_set);
  layer["profile.store.open_s"] =
      median_of(tracer.total_per_run("profile.store.open"));
  const auto puts = tracer.durations("profile.store.put");
  layer["profile.store.put_ms.p50"] = 1e3 * percentile(puts, 50);
  layer["profile.store.put_ms.p99"] = 1e3 * percentile(puts, 99);
  layer["profile.store.flush_s"] =
      median(tracer.durations("profile.store.flush"));
  layer["profile.store.disk_bytes"] = median(disk);
  const auto finds = tracer.durations("profile.store.find_latest");
  layer["profile.store.cold_find_ms.p50"] = 1e3 * percentile(finds, 50);
  layer["profile.store.cold_find_ms.p99"] = 1e3 * percentile(finds, 99);
  const auto hot_finds = tracer.durations("profile.store.find_latest_shared");
  layer["profile.store.hot_find_us.p50"] = 1e6 * percentile(hot_finds, 50);
  layer["profile.store.hot_find_us.p99"] = 1e6 * percentile(hot_finds, 99);
  layer["profile.store.cache_hit_ratio"] = median(hit_ratio);
  layer["profile.store.cache_hits"] = median(hits);
  layer["profile.store.cache_misses"] = median(misses);
  layer["shape.working_set_ratio"] =
      median(working_set) / static_cast<double>(budget);

  char line[240];
  std::snprintf(line, sizeof(line),
                "store-ensemble: %zu profiles, decoded working set %.1f MiB "
                "vs cache budget %.1f MiB (%.2fx); hot set %zu profiles, "
                "hit ratio %.3f",
                kProfiles, median(working_set) / (1024.0 * 1024.0),
                static_cast<double>(budget) / (1024.0 * 1024.0),
                median(working_set) / static_cast<double>(budget), hot.size(),
                median(hit_ratio));
  result.shape.push_back(line);
  return result;
}

}  // namespace perfbench
