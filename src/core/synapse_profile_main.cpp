// synapse-profile: command-line wrapper around Session::profile
// (the paper ships "a set of command line tools which are wrappers
// around certain configurations ... of the profile and emulate methods").
//
// Usage:
//   synapse-profile [--rate HZ] [--tag TAG]... [--store DIR]
//                   [--store-backend NAME] [--store-cluster SPEC.json]
//                   [--watchers LIST] [--watcher-rate NAME=HZ]...
//                   [--scheduler thread|multiplexed|adaptive]
//                   [--gate-floor HZ] [--gate-burst HZ]
//                   [--gate-threshold X] [--gate-hold S]
//                   [--watcher-gate NAME=FLOOR:BURST:THRESHOLD:HOLD]...
//                   [--store-batch N]
//                   [--store-flush-ms MS] [--store-flush-max N]
//                   [--store-threads N] [--store-cache-mb MB]
//                   [--resource NAME] -- COMMAND [ARGS...]
//   synapse-profile --list-watchers | --list-store-backends
//
// The gate flags shape --scheduler adaptive (edge-triggered sampling):
// closed gates poll at FLOOR Hz, an activity delta above THRESHOLD
// opens the gate to BURST Hz (0 = the watcher's sampling rate), and
// HOLD seconds of quiet closes it again. The recorded series are
// variable-rate: their timestamps carry the effective rate trajectory.
//
// --store-flush-ms / --store-flush-max set the store's FlushPolicy:
// the background worker flushes once the oldest unflushed write is MS
// old or N writes accumulated, and a partially filled --store-batch is
// handed to the store once it exceeds the same age.
//
// Profiles are stored as SYNB, the store's only write format; a store
// holding JSON profiles written before SYNB existed takes new SYNB
// profiles next to them.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cli_util.hpp"
#include "core/synapse.hpp"
#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "watchers/watcher_registry.hpp"

namespace {

int list_watchers() {
  using synapse::watchers::WatcherRegistry;
  const auto& defaults = WatcherRegistry::default_set();
  std::printf("%-10s %s\n", "name", "attached by default");
  for (const auto& name : WatcherRegistry::instance().names()) {
    const bool dflt = std::find(defaults.begin(), defaults.end(), name) !=
                      defaults.end();
    std::printf("%-10s %s\n", name.c_str(), dflt ? "yes" : "no");
  }
  std::printf(
      "\nnote: 'net' attributes system-wide /proc/net/dev deltas to the\n"
      "profiled process (accurate when it dominates traffic); opt in\n"
      "with --watchers ...,net\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace synapse;

  SessionOptions options;
  std::vector<std::string> tags;
  std::string command;
  std::string resource_name;
  bool backend_flag = false;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--rate") {
      options.profiler.sample_rate_hz = std::atof(next());
    } else if (arg == "--tag") {
      tags.push_back(next());
    } else if (arg == "--store") {
      options.store_dir = next();
    } else if (arg == "--store-backend") {
      // Any name registered with the StoreBackendRegistry ("files" is
      // the default); unknown names fail with a ConfigError listing
      // what is registered. The FlushPolicy flags below only have a
      // worker to drive on buffering backends (docstore, cluster).
      options.store_backend = next();
      backend_flag = true;
    } else if (arg == "--store-cluster") {
      // Cluster-spec file for the multi-instance backend; implies
      // --store-backend cluster unless one was named explicitly.
      options.store_options.cluster_spec = next();
      if (options.store_options.cluster_spec.empty()) {
        std::fprintf(stderr,
                     "synapse-profile: --store-cluster needs a spec file\n");
        return 2;
      }
      if (!backend_flag) options.store_backend = "cluster";
    } else if (arg == "--list-store-backends") {
      return cli::list_store_backends();
    } else if (arg == "--resource") {
      resource_name = next();
    } else if (arg == "--adaptive") {
      options.profiler.adaptive = true;
    } else if (arg == "--watchers") {
      options.profiler.watcher_set = cli::split_name_list(next());
      if (options.profiler.watcher_set.empty()) {
        // An explicit-but-empty list must not silently fall back to
        // the default set — the opposite of the user's intent.
        std::fprintf(stderr,
                     "synapse-profile: --watchers needs at least one name\n");
        return 2;
      }
    } else if (arg == "--list-watchers") {
      return list_watchers();
    } else if (arg == "--watcher-rate") {
      const std::string spec = next();
      const auto eq = spec.find('=');
      const double hz =
          eq == std::string::npos ? 0.0 : std::atof(spec.c_str() + eq + 1);
      if (eq == std::string::npos || eq == 0 || hz <= 0.0) {
        std::fprintf(stderr,
                     "synapse-profile: --watcher-rate expects NAME=HZ "
                     "with HZ > 0 (got '%s')\n",
                     spec.c_str());
        return 2;
      }
      options.profiler.watcher_rates[spec.substr(0, eq)] = hz;
    } else if (arg == "--scheduler") {
      try {
        options.profiler.scheduler =
            watchers::scheduler_mode_from_string(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "synapse-profile: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--gate-floor") {
      options.profiler.gate.floor_hz = std::atof(next());
    } else if (arg == "--gate-burst") {
      options.profiler.gate.burst_hz = std::atof(next());
    } else if (arg == "--gate-threshold") {
      options.profiler.gate.open_threshold = std::atof(next());
    } else if (arg == "--gate-hold") {
      options.profiler.gate.close_hold_s = std::atof(next());
    } else if (arg == "--watcher-gate") {
      const std::string spec = next();
      std::string name;
      watchers::GateParams gate;
      if (!cli::parse_gate_spec(spec, name, gate)) {
        std::fprintf(stderr,
                     "synapse-profile: --watcher-gate expects "
                     "NAME=FLOOR:BURST:THRESHOLD:HOLD (got '%s')\n",
                     spec.c_str());
        return 2;
      }
      options.profiler.watcher_gates[name] = gate;
    } else if (arg == "--store-batch") {
      options.store_batch = std::strtoull(next(), nullptr, 10);
      if (options.store_batch == 0) options.store_batch = 1;
    } else if (arg == "--store-flush-ms") {
      const double ms = std::atof(next());
      if (ms <= 0.0) {
        std::fprintf(stderr,
                     "synapse-profile: --store-flush-ms needs a positive "
                     "duration in milliseconds\n");
        return 2;
      }
      options.store_options.flush_policy.max_age_s = ms / 1000.0;
    } else if (arg == "--store-flush-max") {
      const long n = std::atol(next());
      if (n < 1) {
        std::fprintf(stderr,
                     "synapse-profile: --store-flush-max needs a pending-"
                     "write count >= 1\n");
        return 2;
      }
      options.store_options.flush_policy.max_pending =
          static_cast<size_t>(n);
    } else if (arg == "--store-threads") {
      // Cross-shard store parallelism: 0 = process-wide sys::TaskPool
      // (default), 1 = serial, N = private pool of N threads.
      const long n = std::atol(next());
      if (n < 0) {
        std::fprintf(stderr,
                     "synapse-profile: --store-threads needs a thread "
                     "count >= 0 (0 = shared pool)\n");
        return 2;
      }
      options.store_options.threads = static_cast<size_t>(n);
    } else if (arg == "--store-cache-mb") {
      // Decoded-profile cache budget in MiB; 0 removes the byte bound
      // (the per-shard entry count still applies).
      const long mb = std::atol(next());
      if (mb < 0) {
        std::fprintf(stderr,
                     "synapse-profile: --store-cache-mb needs a budget "
                     ">= 0 MiB\n");
        return 2;
      }
      options.store_options.cache_max_bytes =
          static_cast<size_t>(mb) * 1024 * 1024;
    } else if (arg == "--") {
      ++i;
      break;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "synapse-profile [--rate HZ] [--tag TAG]... [--store DIR]\n"
          "                [--store-backend NAME] (registered backend; see\n"
          "                 --list-store-backends)\n"
          "                [--store-cluster SPEC.json] (multi-instance\n"
          "                 cluster backend; implies --store-backend "
          "cluster)\n"
          "                [--watchers LIST] [--watcher-rate NAME=HZ]...\n"
          "                [--scheduler thread|multiplexed|adaptive]\n"
          "                [--gate-floor HZ] [--gate-burst HZ]\n"
          "                [--gate-threshold X] [--gate-hold S]\n"
          "                (adaptive-gate defaults: closed gates poll at\n"
          "                 FLOOR Hz, an edge above THRESHOLD bursts at\n"
          "                 BURST Hz, HOLD s of quiet closes again)\n"
          "                [--watcher-gate NAME=FLOOR:BURST:THRESHOLD:HOLD]\n"
          "                (per-watcher gate override)\n"
          "                [--store-batch N]\n"
          "                [--store-flush-ms MS] [--store-flush-max N]\n"
          "                (store FlushPolicy: background flush by\n"
          "                 age/size on buffering backends)\n"
          "                [--store-threads N] (cross-shard store "
          "parallelism;\n"
          "                 0 = shared pool, 1 = serial)\n"
          "                [--store-cache-mb MB] (decoded-profile cache "
          "byte\n"
          "                 budget; 0 = unbounded)\n"
          "                [--resource NAME] [--adaptive] -- COMMAND...\n"
          "synapse-profile --list-watchers | --list-store-backends\n");
      return 0;
    } else {
      std::fprintf(stderr, "synapse-profile: unknown option %s\n",
                   arg.c_str());
      return 2;
    }
  }
  for (; i < argc; ++i) {
    if (!command.empty()) command += ' ';
    command += argv[i];
  }
  if (command.empty()) {
    std::fprintf(stderr, "synapse-profile: no command given (use --)\n");
    return 2;
  }

  // A rate override for a watcher that will not run is a typo, not a
  // no-op: diagnose it with the same loudness as an unknown --watchers
  // name.
  {
    const auto set =
        watchers::Profiler(options.profiler).effective_watcher_set();
    for (const auto& [name, hz] : options.profiler.watcher_rates) {
      if (std::find(set.begin(), set.end(), name) == set.end()) {
        std::fprintf(stderr,
                     "synapse-profile: --watcher-rate names '%s', which is "
                     "not in the watcher set (running:",
                     name.c_str());
        for (const auto& w : set) std::fprintf(stderr, " %s", w.c_str());
        std::fprintf(stderr, ")\n");
        return 2;
      }
    }
    for (const auto& [name, gate] : options.profiler.watcher_gates) {
      if (std::find(set.begin(), set.end(), name) == set.end()) {
        std::fprintf(stderr,
                     "synapse-profile: --watcher-gate names '%s', which is "
                     "not in the watcher set (running:",
                     name.c_str());
        for (const auto& w : set) std::fprintf(stderr, " %s", w.c_str());
        std::fprintf(stderr, ")\n");
        return 2;
      }
    }
  }

  if (!resource_name.empty()) {
    resource::activate_resource(resource_name);
  }

  try {
    Session session(options);
    const profile::Profile p = session.profile(command, tags);

    namespace m = synapse::metrics;
    std::printf("profiled: %s\n", command.c_str());
    std::printf("  resource    : %s\n", p.system.resource_name.c_str());
    std::printf("  Tx          : %.3f s\n", p.runtime());
    std::printf("  samples     : %zu\n", p.sample_count());
    std::printf("  cycles      : %.3e\n", p.total(m::kCyclesUsed));
    std::printf("  instructions: %.3e\n", p.total(m::kInstructions));
    std::printf("  bytes read  : %.0f\n", p.total(m::kBytesRead));
    std::printf("  bytes written: %.0f\n", p.total(m::kBytesWritten));
    std::printf("  peak RSS    : %.0f\n", p.total(m::kMemPeak));
    if (p.find_series("net") != nullptr) {
      std::printf("  net rx/tx   : %.0f/%.0f\n", p.total(m::kNetBytesRead),
                  p.total(m::kNetBytesWritten));
    }
    std::printf("  stored in   : %s\n", session.options().store_dir.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synapse-profile: %s\n", e.what());
    return 1;
  }
}
