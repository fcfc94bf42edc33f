// synapse-emulate: command-line wrapper around Session::emulate and the
// scenario library.
//
// Usage:
//   synapse-emulate [--tag TAG]... [--store DIR] [--resource NAME]
//                   [--store-backend NAME] [--store-cluster SPEC.json]
//                   [--kernel NAME] [--omp N | --ranks N]
//                   [--atoms NAME[,NAME...]] [--net] [--replay-batch N]
//                   [--pace auto|off|on]
//                   [--store-flush-ms MS] [--store-flush-max N]
//                   [--read-block KiB] [--write-block KiB] [--fs NAME]
//                   -- COMMAND [ARGS...]
//   synapse-emulate --scenario NAME|FILE [--profile] [tuning flags...]
//   synapse-emulate --list-scenarios
//
// --replay-batch N >= 2 replays in windows of N samples instead of
// lockstep (identical non-timing stats, amortized dispatch); --store-flush-ms /
// --store-flush-max set the store's FlushPolicy (age / size triggers
// for the background flush worker). --pace controls replay pacing by
// the recorded inter-sample gaps: auto (default) paces variable-rate
// (adaptively recorded) profiles only, on paces everything, off never.
//
// --profile runs the scenario's emulation under the profiler (watcher
// set from the scenario's `watchers` field) and stores the recorded
// profile as "scenario:<name>" — the profile-then-emulate round trip.
// The profiler's --scheduler (thread|multiplexed|adaptive) and gate
// flags (--gate-floor/--gate-burst/--gate-threshold/--gate-hold,
// --watcher-gate NAME=F:B:T:H) apply to such runs; the profile is
// stored as SYNB. Replays read SYNB and the JSON of stores written
// before SYNB existed alike.
//
// Without --store-backend or --store-cluster, the store opens with the
// backend it records, as in synapse-profile and synapse-inspect.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "atoms/atom_registry.hpp"
#include "core/cli_util.hpp"
#include "core/synapse.hpp"
#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "workload/scenario.hpp"

namespace {

/// One line per atom so scripts (and tests) can assert per-atom stats.
void print_atom_stats(const synapse::emulator::EmulationResult& result) {
  for (const auto& [atom, s] : result.atom_stats) {
    std::printf(
        "  atom %-10s samples=%llu cycles=%.3e flops=%.3e "
        "bytes r/w=%llu/%llu alloc/free=%llu/%llu net s/r=%llu/%llu "
        "errors=%llu\n",
        atom.c_str(), static_cast<unsigned long long>(s.samples_consumed),
        s.cycles, s.flops, static_cast<unsigned long long>(s.bytes_read),
        static_cast<unsigned long long>(s.bytes_written),
        static_cast<unsigned long long>(s.bytes_allocated),
        static_cast<unsigned long long>(s.bytes_freed),
        static_cast<unsigned long long>(s.net_bytes_sent),
        static_cast<unsigned long long>(s.net_bytes_received),
        static_cast<unsigned long long>(s.errors));
  }
}

int list_scenarios() {
  std::printf("%-18s %-28s %8s  %s\n", "name", "atoms", "samples",
              "description");
  for (const auto& s : synapse::workload::builtin_scenarios()) {
    std::string atoms;
    for (const auto& a : s.atom_set) {
      if (!atoms.empty()) atoms += ',';
      atoms += a;
    }
    std::printf("%-18s %-28s %8zu  %s\n", s.name.c_str(), atoms.c_str(),
                s.source.samples, s.description.c_str());
  }
  return 0;
}

int run_scenario_mode(const std::string& scenario_arg,
                      const synapse::SessionOptions& options,
                      bool profile_run) {
  using namespace synapse;
  const workload::ScenarioSpec spec =
      workload::resolve_scenario(scenario_arg);
  if (profile_run) {
    // Profile-then-emulate round trip: run the scenario's emulation in
    // a child with the profiler attached (watcher set from the
    // scenario's own `watchers` field) and store the recorded profile
    // so `synapse-emulate --store DIR -- scenario:<name>` replays it.
    const profile::Profile p =
        workload::profile_scenario(spec, options.profiler, options.emulator);
    Session session(options);
    session.store().put(p);
    session.store().flush();
    namespace m = synapse::metrics;
    std::printf("profiled scenario : %s (%d reps in one run)\n",
                spec.name.c_str(), spec.repetitions);
    std::printf("  Tx        : %.3f s\n", p.runtime());
    std::printf("  samples   : %zu\n", p.sample_count());
    std::printf("  net rx/tx : %.0f/%.0f\n", p.total(m::kNetBytesRead),
                p.total(m::kNetBytesWritten));
    std::printf("  stored as : %s (in %s)\n", p.command.c_str(),
                session.options().store_dir.c_str());
    return 0;
  }
  const auto run = workload::run_scenario(spec, options.emulator);
  std::printf("scenario : %s (%zu samples x %d reps)\n", spec.name.c_str(),
              spec.source.samples, run.repetitions);
  std::printf("  resource : %s\n", resource::active_resource().name.c_str());
  std::printf("  Tx       : %.3f s\n", run.result.wall_seconds);
  std::printf("  samples  : %zu\n", run.result.samples_replayed);
  print_atom_stats(run.result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace synapse;

  SessionOptions options;
  std::vector<std::string> tags;
  std::string command;
  std::string resource_name;
  std::string scenario;
  bool store_flag = false;
  std::string store_backend;  ///< --store-backend, or implied by --store-cluster
  bool profile_flag = false;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--tag") {
      tags.push_back(next());
    } else if (arg == "--store") {
      options.store_dir = next();
      store_flag = true;
    } else if (arg == "--store-backend") {
      // Any name registered with the StoreBackendRegistry; unknown names
      // fail with a ConfigError listing what is registered. Without it
      // the store opens with the backend it records (files when fresh).
      // The FlushPolicy flags only have a worker to drive on buffering
      // backends (docstore, cluster).
      store_backend = next();
      if (store_backend.empty()) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-backend needs a name\n");
        return 2;
      }
    } else if (arg == "--store-cluster") {
      // Cluster-spec file for the multi-instance backend; implies
      // --store-backend cluster unless one was named explicitly.
      options.store_options.cluster_spec = next();
      if (options.store_options.cluster_spec.empty()) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-cluster needs a spec file\n");
        return 2;
      }
      if (store_backend.empty()) store_backend = "cluster";
    } else if (arg == "--list-store-backends") {
      return cli::list_store_backends();
    } else if (arg == "--resource") {
      resource_name = next();
    } else if (arg == "--kernel") {
      options.emulator.compute.kernel = next();
    } else if (arg == "--omp") {
      options.emulator.parallel_mode = emulator::ParallelMode::OpenMp;
      options.emulator.parallel_degree = std::atoi(next());
    } else if (arg == "--ranks") {
      options.emulator.parallel_mode = emulator::ParallelMode::Process;
      options.emulator.parallel_degree = std::atoi(next());
    } else if (arg == "--atoms") {
      options.emulator.atom_set = cli::split_name_list(next());
      if (options.emulator.atom_set.empty()) {
        // An explicit-but-empty list must not silently fall back to
        // the full default set — the opposite of the user's intent.
        std::fprintf(stderr,
                     "synapse-emulate: --atoms needs at least one name\n");
        return 2;
      }
    } else if (arg == "--net") {
      options.emulator.emulate_network = true;
    } else if (arg == "--replay-batch") {
      const long n = std::atol(next());
      if (n < 1) {
        std::fprintf(stderr,
                     "synapse-emulate: --replay-batch needs a batch size "
                     ">= 1\n");
        return 2;
      }
      options.emulator.replay_batch = static_cast<size_t>(n);
    } else if (arg == "--pace") {
      try {
        options.emulator.pace = emulator::replay_pace_from_string(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "synapse-emulate: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--scheduler") {
      try {
        options.profiler.scheduler =
            watchers::scheduler_mode_from_string(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "synapse-emulate: %s\n", e.what());
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
                     "synapse-emulate: --watcher-gate expects "
                     "NAME=FLOOR:BURST:THRESHOLD:HOLD (got '%s')\n",
                     spec.c_str());
        return 2;
      }
      options.profiler.watcher_gates[name] = gate;
    } else if (arg == "--store-flush-ms") {
      const double ms = std::atof(next());
      if (ms <= 0.0) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-flush-ms needs a positive "
                     "duration in milliseconds\n");
        return 2;
      }
      options.store_options.flush_policy.max_age_s = ms / 1000.0;
    } else if (arg == "--store-flush-max") {
      const long n = std::atol(next());
      if (n < 1) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-flush-max needs a pending-"
                     "write count >= 1\n");
        return 2;
      }
      options.store_options.flush_policy.max_pending =
          static_cast<size_t>(n);
    } else if (arg == "--store-threads") {
      const long n = std::atol(next());
      if (n < 0) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-threads needs a thread "
                     "count >= 0 (0 = shared pool)\n");
        return 2;
      }
      options.store_options.threads = static_cast<size_t>(n);
    } else if (arg == "--store-cache-mb") {
      const long mb = std::atol(next());
      if (mb < 0) {
        std::fprintf(stderr,
                     "synapse-emulate: --store-cache-mb needs a budget "
                     ">= 0 MiB\n");
        return 2;
      }
      options.store_options.cache_max_bytes =
          static_cast<size_t>(mb) * 1024 * 1024;
    } else if (arg == "--scenario") {
      scenario = next();
      if (scenario.empty()) {
        std::fprintf(stderr,
                     "synapse-emulate: --scenario needs a name or file\n");
        return 2;
      }
    } else if (arg == "--list-scenarios") {
      return list_scenarios();
    } else if (arg == "--profile") {
      profile_flag = true;
    } else if (arg == "--read-block") {
      options.emulator.storage.read_block_bytes =
          std::strtoull(next(), nullptr, 10) * 1024;
    } else if (arg == "--write-block") {
      options.emulator.storage.write_block_bytes =
          std::strtoull(next(), nullptr, 10) * 1024;
    } else if (arg == "--fs") {
      options.emulator.storage.filesystem = next();
    } else if (arg == "--") {
      ++i;
      break;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "synapse-emulate [--tag TAG]... [--store DIR] [--resource NAME]\n"
          "                [--store-backend NAME | --list-store-backends]\n"
          "                [--store-cluster SPEC.json]\n"
          "                [--kernel asm|c|omp|sleep] [--omp N | --ranks N]\n"
          "                [--atoms NAME[,NAME...]] [--net]\n"
          "                [--replay-batch N] (N >= 2: replay in windows of\n"
          "                 N samples; same non-timing stats)\n"
          "                [--pace auto|off|on] (pace replay by recorded\n"
          "                 inter-sample gaps; auto = variable-rate only)\n"
          "                [--store-flush-ms MS] [--store-flush-max N]\n"
          "                (store FlushPolicy: docstore background flush\n"
          "                 by age/size)\n"
          "                [--store-threads N] (cross-shard store "
          "parallelism;\n"
          "                 0 = shared pool, 1 = serial)\n"
          "                [--store-cache-mb MB] (decoded-profile cache "
          "byte\n"
          "                 budget; 0 = unbounded)\n"
          "                [--read-block KiB] [--write-block KiB]\n"
          "                [--fs NAME] -- COMMAND...\n"
          "synapse-emulate --scenario NAME|FILE [--profile] [tuning...]\n"
          "                (--profile records the scenario run through the\n"
          "                 profiler and stores it as scenario:<name>;\n"
          "                 [--scheduler thread|multiplexed|adaptive]\n"
          "                 [--gate-floor HZ] [--gate-burst HZ]\n"
          "                 [--gate-threshold X] [--gate-hold S]\n"
          "                 [--watcher-gate NAME=F:B:T:H] tune it)\n"
          "synapse-emulate --list-scenarios\n"
          "registered atoms:");
      for (const auto& name : synapse::atoms::AtomRegistry::instance().names()) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n");
      return 0;
    } else {
      std::fprintf(stderr, "synapse-emulate: unknown option %s\n",
                   arg.c_str());
      return 2;
    }
  }
  for (; i < argc; ++i) {
    if (!command.empty()) command += ' ';
    command += argv[i];
  }
  options.store_backend =
      cli::resolve_store_backend(options.store_dir, store_backend);
  if (command.empty() && scenario.empty()) {
    std::fprintf(stderr,
                 "synapse-emulate: no command given (use -- or --scenario)\n");
    return 2;
  }
  if (!command.empty() && !scenario.empty()) {
    // Running a scenario would silently ignore the command (and any
    // store lookup the user expected for it); refuse the ambiguity.
    std::fprintf(stderr,
                 "synapse-emulate: --scenario and -- COMMAND are mutually "
                 "exclusive\n");
    return 2;
  }

  // An explicit --atoms list overrides the enable flags, so honour
  // --net by appending the network atom to it.
  auto& atom_set = options.emulator.atom_set;
  if (options.emulator.emulate_network && !atom_set.empty() &&
      std::find(atom_set.begin(), atom_set.end(), "network") ==
          atom_set.end()) {
    atom_set.push_back("network");
  }

  if (!resource_name.empty()) {
    resource::activate_resource(resource_name);
  }

  if (profile_flag && scenario.empty()) {
    std::fprintf(stderr,
                 "synapse-emulate: --profile only applies to --scenario "
                 "runs\n");
    return 2;
  }

  if (!scenario.empty()) {
    // Plain scenario runs synthesize their own samples and neither read
    // nor write the profile store; say so instead of silently ignoring
    // these flags. With --profile the store is the destination and the
    // profile carries the scenario's own tags.
    if (!profile_flag && (store_flag || !tags.empty())) {
      std::fprintf(stderr,
                   "synapse-emulate: note: --store/--tag have no effect "
                   "with --scenario (scenarios do not touch the store)\n");
    }
    if (profile_flag && !tags.empty()) {
      std::fprintf(stderr,
                   "synapse-emulate: note: --profile stores the scenario's "
                   "own tags; --tag is ignored\n");
    }
    try {
      return run_scenario_mode(scenario, options, profile_flag);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "synapse-emulate: %s\n", e.what());
      return 1;
    }
  }

  try {
    Session session(options);
    const auto result = session.emulate(command, tags);
    std::printf("emulated: %s\n", command.c_str());
    std::printf("  resource : %s\n",
                resource::active_resource().name.c_str());
    std::printf("  Tx       : %.3f s\n", result.wall_seconds);
    std::printf("  samples  : %zu\n", result.samples_replayed);
    std::printf("  cycles   : %.3e\n", result.compute.cycles);
    std::printf("  flops    : %.3e\n", result.compute.flops);
    std::printf("  bytes out: %llu\n",
                static_cast<unsigned long long>(result.storage.bytes_written));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synapse-emulate: %s\n", e.what());
    return 1;
  }
}
