// synapse-inspect: examine a profile store.
//
// Subcommands:
//   list                       every stored profile: format, size, identity
//   show    -- COMMAND         totals + derived of the latest profile
//   stats   -- COMMAND         mean/stddev/CI99 across repetitions
//   diff    -- COMMAND         latest vs previous profile, diff% per total
//   export  FILE -- COMMAND    totals CSV of all repetitions
//   export-series FILE -- CMD  tidy per-sample CSV of the latest profile
//
// Options before the subcommand: --store DIR (default .synapse),
// --tag TAG (repeatable), --store-cluster SPEC.json (cluster stores:
// override the persisted instance roots), --stats (after the
// subcommand, report the store backend by registry name, per-format
// stored counts and the read cache counters the run accumulated).
//
// The store opens with whatever backend its meta file records
// (ProfileStore::detect_backend); a meta naming an unregistered
// backend is a hard error listing what is registered. Reads sniff each
// profile's stored bytes, so stores holding JSON profiles written
// before SYNB existed inspect fine next to SYNB ones.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "profile/export.hpp"
#include "profile/profile_store.hpp"
#include "profile/stats.hpp"

using synapse::profile::Profile;
using synapse::profile::ProfileStore;

namespace {

int cmd_list(const ProfileStore& store, const std::string& dir) {
  std::printf("store: %s (backend %s)\n", dir.c_str(),
              store.backend().c_str());
  auto entries = store.list();
  if (entries.empty()) {
    std::printf("(no profiles)\n");
    return 0;
  }
  std::sort(entries.begin(), entries.end(),
            [](const synapse::profile::StoredProfileEntry& a,
               const synapse::profile::StoredProfileEntry& b) {
              if (a.command != b.command) return a.command < b.command;
              return a.created_at < b.created_at;
            });
  std::printf("%-7s %12s  %s\n", "format", "bytes", "command [tags]");
  std::map<std::string, size_t> by_format;
  for (const auto& e : entries) {
    ++by_format[e.format];
    std::string tags;
    for (const auto& t : e.tags) {
      tags += tags.empty() ? " [" : ", ";
      tags += t;
    }
    if (!tags.empty()) tags += ']';
    std::printf("%-7s %12zu  %s%s\n", e.format.c_str(), e.encoded_bytes,
                e.command.c_str(), tags.c_str());
  }
  std::string breakdown;
  for (const auto& [format, n] : by_format) {
    if (!breakdown.empty()) breakdown += ", ";
    breakdown += std::to_string(n) + " " + format;
  }
  std::printf("%zu profiles (%s)\n", entries.size(), breakdown.c_str());
  return 0;
}

void print_profile(const Profile& p) {
  std::printf("command      : %s\n", p.command.c_str());
  std::string tags;
  for (const auto& t : p.tags) {
    if (!tags.empty()) tags += ", ";
    tags += t;
  }
  std::printf("tags         : %s\n", tags.c_str());
  std::printf("resource     : %s\n", p.system.resource_name.c_str());
  std::printf("sample rate  : %.1f Hz\n", p.sample_rate_hz);
  std::printf("samples      : %zu\n", p.sample_count());
  std::printf("series:\n");
  for (const auto& ts : p.series) {
    // Per-series rates may diverge from the profile-level rate
    // (WatcherConfig::rate_overrides); 0 means "not recorded".
    const double rate =
        ts.sample_rate_hz > 0 ? ts.sample_rate_hz : p.sample_rate_hz;
    if (ts.variable_rate) {
      // Adaptively recorded: the nominal rate is just the burst ceiling,
      // so show the realized spacing instead.
      const auto gaps = ts.gap_stats();
      std::printf(
          "  %-10s %6zu samples, variable rate (eff %.1f Hz, "
          "gap min/mean/max %.3f/%.3f/%.3f s)\n",
          ts.watcher.c_str(), ts.size(), ts.effective_rate_hz(), gaps.min_s,
          gaps.mean_s, gaps.max_s);
    } else {
      std::printf("  %-10s %6zu samples @ %.1f Hz\n", ts.watcher.c_str(),
                  ts.size(), rate);
    }
  }
  std::printf("totals:\n");
  for (const auto& [metric, value] : p.totals) {
    std::printf("  %-36s %.6g\n", metric.c_str(), value);
  }
  if (!p.derived.empty()) {
    std::printf("derived:\n");
    for (const auto& [metric, value] : p.derived) {
      std::printf("  %-36s %.6g\n", metric.c_str(), value);
    }
  }
}

int cmd_show(const ProfileStore& store, const std::string& command,
             const std::vector<std::string>& tags) {
  const auto p = store.find_latest(command, tags);
  if (!p) {
    std::fprintf(stderr, "no profile for '%s'\n", command.c_str());
    return 1;
  }
  print_profile(*p);
  return 0;
}

int cmd_stats(const ProfileStore& store, const std::string& command,
              const std::vector<std::string>& tags) {
  const auto profiles = store.find(command, tags);
  if (profiles.empty()) {
    std::fprintf(stderr, "no profile for '%s'\n", command.c_str());
    return 1;
  }
  std::printf("repetitions: %zu\n", profiles.size());
  std::printf("%-36s %12s %12s %8s\n", "metric", "mean", "stddev",
              "ci99%%");
  for (const auto& [metric, s] : store.stats(command, tags)) {
    std::printf("%-36s %12.6g %12.6g %7.2f%%\n", metric.c_str(), s.mean,
                s.stddev, 100.0 * s.ci99_relative());
  }
  return 0;
}

/// --stats: the backend (by registry name), layout, and the read-cache
/// counters accumulated by the queries this invocation ran.
void print_store_stats(const ProfileStore& store) {
  const auto cache = store.cache_stats();
  std::printf("store stats:\n");
  std::printf("  backend             : %s\n", store.backend().c_str());
  // What is at rest may mix formats (legacy JSON data, oversize
  // docstore documents): count per format across all shards.
  std::map<std::string, size_t> by_format;
  for (const auto& e : store.list()) ++by_format[e.format];
  for (const auto& [format, n] : by_format) {
    std::printf("  stored %-12s : %zu profiles\n", format.c_str(), n);
  }
  std::printf("  shards              : %zu\n", store.shard_count());
  std::printf("  store threads       : %zu\n", store.task_threads());
  // Per-instance shard placement (the cluster backend reports one
  // instance per shard; single-instance backends have no such field).
  std::map<std::string, size_t> instances;
  for (const auto& meta : store.shard_meta()) {
    const std::string instance = meta.get_or("instance", std::string());
    if (!instance.empty()) ++instances[instance];
  }
  for (const auto& [name, shards] : instances) {
    std::printf("  instance %-10s : %zu shards\n", name.c_str(), shards);
  }
  std::printf("  cache hits          : %llu\n",
              static_cast<unsigned long long>(cache.hits));
  std::printf("  cache misses        : %llu\n",
              static_cast<unsigned long long>(cache.misses));
  std::printf("  cache invalidations : %llu\n",
              static_cast<unsigned long long>(cache.invalidations));
  std::printf("  cache bytes         : %llu\n",
              static_cast<unsigned long long>(cache.bytes));
}

int cmd_diff(const ProfileStore& store, const std::string& command,
             const std::vector<std::string>& tags) {
  const auto profiles = store.find(command, tags);
  if (profiles.size() < 2) {
    std::fprintf(stderr, "need at least two profiles of '%s' to diff\n",
                 command.c_str());
    return 1;
  }
  const Profile& prev = profiles[profiles.size() - 2];
  const Profile& last = profiles.back();
  std::printf("%-36s %12s %12s %8s\n", "metric", "previous", "latest",
              "diff%%");
  std::set<std::string> metrics;
  for (const auto& [k, v] : prev.totals) metrics.insert(k);
  for (const auto& [k, v] : last.totals) metrics.insert(k);
  for (const auto& metric : metrics) {
    const double a = prev.total(metric);
    const double b = last.total(metric);
    const double diff = a != 0 ? 100.0 * (b - a) / a : 0.0;
    std::printf("%-36s %12.6g %12.6g %+7.2f%%\n", metric.c_str(), a, b,
                diff);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir = ".synapse";
  std::string cluster_spec;
  std::vector<std::string> tags;
  std::string subcommand;
  std::string export_path;
  std::string command;
  bool stats_flag = false;
  size_t store_threads = 0;
  long store_cache_mb = -1;  ///< -1 = keep the store default

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--store-cluster") {
      cluster_spec = next();
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--store-threads") {
      const long n = std::atol(next());
      if (n < 0) {
        std::fprintf(stderr,
                     "synapse-inspect: --store-threads needs a thread "
                     "count >= 0 (0 = shared pool)\n");
        return 2;
      }
      store_threads = static_cast<size_t>(n);
    } else if (arg == "--store-cache-mb") {
      const long mb = std::atol(next());
      if (mb < 0) {
        std::fprintf(stderr,
                     "synapse-inspect: --store-cache-mb needs a budget "
                     ">= 0 MiB\n");
        return 2;
      }
      store_cache_mb = mb;
    } else if (arg == "--tag") {
      tags.push_back(next());
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "synapse-inspect [--store DIR] [--store-cluster SPEC.json]\n"
          "                [--tag TAG]... [--stats]\n"
          "                [--store-threads N] (cross-shard parallelism;\n"
          "                 0 = shared pool, 1 = serial)\n"
          "                [--store-cache-mb MB] (decoded-profile cache\n"
          "                 byte budget; 0 = unbounded)\n"
          "                [SUBCOMMAND]\n"
          "  list | show -- CMD | stats -- CMD | diff -- CMD\n"
          "  export FILE -- CMD | export-series FILE -- CMD\n"
          "  (--stats appends the store backend name, per-format\n"
          "   counts, shard/instance layout and read-cache counters)\n");
      return 0;
    } else if (subcommand.empty()) {
      subcommand = arg;
      if (subcommand == "export" || subcommand == "export-series") {
        export_path = next();
      }
    } else if (arg == "--") {
      ++i;
      break;
    } else {
      std::fprintf(stderr, "synapse-inspect: unexpected argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  for (; i < argc; ++i) {
    if (!command.empty()) command += ' ';
    command += argv[i];
  }

  if (subcommand.empty()) {
    std::fprintf(stderr, "synapse-inspect: no subcommand (try --help)\n");
    return 2;
  }

  try {
    // Open with the backend the store was created with (the meta file
    // records its registered name): hard-coding "files" here used to
    // make every docstore-backed store uninspectable. Cluster stores
    // reopen from their persisted placement; --store-cluster overrides
    // the instance roots when they moved.
    synapse::profile::ProfileStoreOptions store_options;
    store_options.backend = ProfileStore::detect_backend(store_dir);
    store_options.directory = store_dir;
    store_options.cluster_spec = cluster_spec;
    store_options.threads = store_threads;
    if (store_cache_mb >= 0) {
      store_options.cache_max_bytes =
          static_cast<size_t>(store_cache_mb) * 1024 * 1024;
    }
    if (!cluster_spec.empty() && store_options.backend != "cluster") {
      // Dropping an explicitly given spec would hide a mistyped
      // --store path (a fresh directory detects as "files") behind an
      // empty-looking store.
      std::fprintf(stderr,
                   "synapse-inspect: --store-cluster given, but '%s' is a "
                   "%s store, not a cluster store\n",
                   store_dir.c_str(), store_options.backend.c_str());
      return 2;
    }
    ProfileStore store(std::move(store_options));

    int rc = 2;
    if (subcommand == "list") {
      rc = cmd_list(store, store_dir);
    } else if (command.empty()) {
      std::fprintf(stderr, "synapse-inspect: missing -- COMMAND\n");
      return 2;
    } else if (subcommand == "show") {
      rc = cmd_show(store, command, tags);
    } else if (subcommand == "stats") {
      rc = cmd_stats(store, command, tags);
    } else if (subcommand == "diff") {
      rc = cmd_diff(store, command, tags);
    } else if (subcommand == "export") {
      const auto profiles = store.find(command, tags);
      if (profiles.empty()) {
        std::fprintf(stderr, "no profile for '%s'\n", command.c_str());
        return 1;
      }
      synapse::profile::write_file(
          export_path, synapse::profile::totals_to_csv(profiles));
      std::printf("wrote %zu profiles to %s\n", profiles.size(),
                  export_path.c_str());
      rc = 0;
    } else if (subcommand == "export-series") {
      const auto p = store.find_latest(command, tags);
      if (!p) {
        std::fprintf(stderr, "no profile for '%s'\n", command.c_str());
        return 1;
      }
      synapse::profile::write_file(export_path,
                                   synapse::profile::series_to_csv(*p));
      std::printf("wrote series to %s\n", export_path.c_str());
      rc = 0;
    } else {
      std::fprintf(stderr, "synapse-inspect: unknown subcommand %s\n",
                   subcommand.c_str());
      return 2;
    }
    // After the subcommand, so the counters reflect the queries it ran.
    if (stats_flag) print_store_stats(store);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synapse-inspect: %s\n", e.what());
    return 1;
  }
}
