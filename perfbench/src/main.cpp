// perfbench: one benchmark for the profile -> store -> replay pipeline.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload (replay-dispatch, replay-mixed, mdsim-roundtrip,
// store-ensemble) for S seconds with inputs generated from seed N,
// checks its outputs, and prints a report followed, as the last line,
// by one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// every per-layer metric (0 where the workload bypasses the layer), from
// a run whose repetitions alternate untraced and traced so the tracing
// overhead is measured too. Every run also writes its full record (host,
// shape, workload-specific figures, failures) to DIR (default .bench_out), and
// a traced run writes its spans there as Chrome trace-event JSON.

#include <sched.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "perfbench.hpp"
#include "profile/profile_store.hpp"

namespace perfbench {
namespace {

namespace json = synapse::json;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; the ones a workload does not touch read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"watchers.profile_s", "s"},
      {"watchers.overhead_pct", "%"},
      {"watchers.samples", "count"},
      {"watchers.jitter_ms.p50", "ms"},
      {"watchers.jitter_ms.p99", "ms"},
      {"apps.md_native_s", "s"},
      {"profile.encode_s", "s"},
      {"profile.encoded_bytes", "B"},
      {"profile.decode_s", "s"},
      {"profile.delta_table_s", "s"},
      {"profile.decoded_bytes", "B"},
      {"profile.store.open_s", "s"},
      {"profile.store.put_ms.p50", "ms"},
      {"profile.store.put_ms.p99", "ms"},
      {"profile.store.flush_s", "s"},
      {"profile.store.disk_bytes", "B"},
      {"profile.store.cold_find_ms.p50", "ms"},
      {"profile.store.cold_find_ms.p99", "ms"},
      {"profile.store.hot_find_us.p50", "us"},
      {"profile.store.hot_find_us.p99", "us"},
      {"profile.store.cache_hit_ratio", "ratio"},
      {"profile.store.cache_hits", "count"},
      {"profile.store.cache_misses", "count"},
      {"emulator.startup_s", "s"},
      {"emulator.replay_s", "s"},
      {"emulator.dispatch_us_per_sample", "us"},
      {"emulator.idle_share", "ratio"},
      {"emulator.tx_diff_pct", "%"},
      {"atoms.compute.busy_s", "s"},
      {"atoms.memory.busy_s", "s"},
      {"atoms.storage.busy_s", "s"},
      {"atoms.compute.samples", "count"},
      {"atoms.memory.samples", "count"},
      {"atoms.storage.samples", "count"},
      {"atoms.compute.conservation_err_pct", "%"},
      {"atoms.memory.conservation_err_pct", "%"},
      {"atoms.storage.conservation_err_pct", "%"},
      {"workload.make_profile_s", "s"},
      {"self_s.bench", "s"},
      {"self_s.watchers", "s"},
      {"self_s.apps", "s"},
      {"self_s.profile", "s"},
      {"self_s.emulator", "s"},
      {"self_s.workload", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"shape.dispatch_share", "ratio"},
      {"shape.atom_share", "ratio"},
      {"shape.working_set_ratio", "ratio"},
      {"shape.startup_over_app_tx", "ratio"},
  };
  return list;
}

const std::map<std::string, std::function<Result(const RunOptions&, Tracer&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<Result(const RunOptions&, Tracer&)>>
      table = {{"replay-dispatch", run_replay_dispatch},
               {"replay-mixed", run_replay_mixed},
               {"mdsim-roundtrip", run_mdsim_roundtrip},
               {"store-ensemble", run_store_ensemble}};
  return table;
}

double thread_cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Host record: what the machine advertises and what it delivers. The
/// parallel capacity is the CPU time N busy threads accrue over a short
/// window divided by the window (N = the CPUs this process may use).
json::Value host_record(const std::vector<int>& allowed) {
  const json::Array affinity(allowed.begin(), allowed.end());
  const size_t threads = std::max<size_t>(1, allowed.size());
  constexpr double kWindow = 0.25;
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> pool;
  const double start = synapse::sys::steady_now();
  for (size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&cpu, i, start] {
      const double c0 = thread_cpu_now();
      volatile double sink = 0.0;
      while (synapse::sys::steady_now() - start < kWindow) sink = sink + 1.0;
      cpu[i] = thread_cpu_now() - c0;
    });
  }
  for (auto& t : pool) t.join();
  const double wall = synapse::sys::steady_now() - start;
  double total = 0.0;
  for (const double c : cpu) total += c;

  json::Object host;
  host["nproc"] = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  host["affinity"] = json::Value(json::Array(affinity));
  host["cpu_capacity"] = total / wall;
  host["store_cache_budget_bytes"] = static_cast<double>(
      synapse::profile::ProfileStoreOptions{}.cache_max_bytes);
  host["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  return json::Value(std::move(host));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int run(int argc, char** argv) {
  RunOptions options;
  std::string out_dir = ".bench_out";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto it = workloads().find(options.workload);
  if (it == workloads().end()) usage("unknown or missing --workload");
  if (!have_trace) usage("missing --trace");

  ::mkdir(out_dir.c_str(), 0755);
  options.work_dir = out_dir + "/work-" + std::to_string(::getpid());
  if (::mkdir(options.work_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  const std::vector<int> allowed = allowed_cpus();
  json::Value host = host_record(allowed);
  // Run on one fixed CPU, the last one this process may use. On a VM
  // whose vCPUs are shared, replay's per-sample thread handoffs otherwise
  // pay cross-vCPU wake-ups whose cost follows the neighbours' load. A
  // fixed choice also keeps interrupt routing the same from run to run
  // (the storage atom's fsync completions wake it locally only on the
  // CPU that takes the disk's interrupts). The host record keeps the
  // unpinned capacity.
  const int cpu = allowed.empty() ? -1 : allowed.back();
  cpu_set_t one;
  CPU_ZERO(&one);
  if (cpu >= 0) CPU_SET(cpu, &one);
  if (cpu < 0 || ::sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }
  host.as_object()["pinned_cpu"] = cpu;
  Tracer tracer;
  Result result;
  try {
    result = it->second(options, tracer);
  } catch (...) {
    remove_tree(options.work_dir);
    throw;
  }
  remove_tree(options.work_dir);

  // --- end-to-end ------------------------------------------------------------
  std::vector<double> untraced, traced;
  for (const auto& rep : result.reps) {
    (rep.traced ? traced : untraced).push_back(rep.units / rep.seconds);
  }
  const double throughput = median(untraced);
  std::map<std::string, std::pair<double, std::string>> e2e = {
      {"setup_s", {median(result.setup_seconds), "s"}},
      {"throughput_per_s", {throughput, "1/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
  };

  // --- per-layer -------------------------------------------------------------
  std::map<std::string, double> layer;
  for (const auto& [name, unit] : per_layer_metrics()) layer[name] = 0.0;
  for (const auto& [name, value] : result.layer) {
    if (layer.count(name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
                   name.c_str());
      return 1;
    }
    layer[name] = value;
  }
  if (options.trace) {
    const double traced_reps = std::max<double>(1.0, traced.size());
    for (const auto& [name, seconds] : tracer.self_seconds_by_layer()) {
      const std::string key = "self_s." + name;
      if (layer.count(key) != 0) layer[key] = seconds / traced_reps;
    }
    size_t rep_spans = 0;
    for (const auto& s : tracer.spans()) rep_spans += s.run < Tracer::kSetupRun;
    layer["trace.spans"] = static_cast<double>(rep_spans) / traced_reps;
    // Overhead: cost per unit of work, traced vs untraced repetitions.
    const double on = median(traced);
    layer["trace.overhead_pct"] =
        on > 0 && throughput > 0 ? 100.0 * (throughput / on - 1.0) : 0.0;
  }

  // --- report ----------------------------------------------------------------
  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  std::printf("perfbench %s: seed %llu, %.0f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: %s\n", json::dump(host).c_str());
  for (const auto& line : result.shape) std::printf("shape: %s\n", line.c_str());
  std::printf("setup_s: median of %zu setups\n", result.setup_seconds.size());
  for (const auto& [name, v] : e2e) {
    std::printf("e2e %-24s %14.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  for (const auto& n : result.named) {
    std::printf("e2e %-24s %14.6g %s (median of %zu repetitions)\n",
                n.name.c_str(), n.value, n.unit.c_str(), n.n);
  }
  std::printf("checks: %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& f : result.failures) std::printf("  FAILED %s\n", f.c_str());

  json::Object record;
  record["workload"] = options.workload;
  record["seed"] = static_cast<double>(options.seed);
  record["seconds"] = options.seconds;
  record["trace"] = options.trace;
  record["host"] = host;
  json::Array shape, failures;
  for (const auto& line : result.shape) shape.emplace_back(line);
  for (const auto& f : result.failures) failures.emplace_back(f);
  record["shape"] = json::Value(std::move(shape));
  record["failures"] = json::Value(std::move(failures));
  json::Array reps;
  for (const auto& rep : result.reps) {
    json::Object entry;
    entry["units"] = rep.units;
    entry["seconds"] = rep.seconds;
    entry["traced"] = rep.traced;
    reps.emplace_back(std::move(entry));
  }
  record["repetitions"] = json::Value(std::move(reps));
  json::Array setups(result.setup_seconds.begin(), result.setup_seconds.end());
  record["setup_seconds"] = json::Value(std::move(setups));
  record["attempted"] = static_cast<double>(result.attempted);
  record["failed"] = static_cast<double>(result.failed);
  json::Object named;
  for (const auto& n : result.named) {
    json::Object entry;
    entry["value"] = n.value;
    entry["unit"] = n.unit;
    entry["n"] = static_cast<double>(n.n);
    named[n.name] = json::Value(std::move(entry));
  }
  record["named"] = json::Value(std::move(named));

  std::string metrics;
  const auto add_metric = [&metrics](const std::string& name, double value,
                                     const std::string& unit) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit +
               "\"}";
  };
  if (options.trace) {
    json::Object layer_record;
    for (const auto& [name, unit] : per_layer_metrics()) {
      std::printf("layer %-36s %14.6g %s\n", name.c_str(), layer[name],
                  unit.c_str());
      add_metric(name, layer[name], unit);
      layer_record[name] = layer[name];
    }
    record["layer"] = json::Value(std::move(layer_record));
    const std::string trace_path = out_dir + "/" + tag + ".trace.json";
    tracer.write_chrome_trace(trace_path, options.workload);
    std::printf("trace: %s\n", trace_path.c_str());
  } else {
    json::Object e2e_record;
    for (const auto& [name, v] : e2e) {
      add_metric(name, v.first, v.second);
      e2e_record[name] = v.first;
    }
    record["e2e"] = json::Value(std::move(e2e_record));
  }
  const std::string record_path = out_dir + "/" + tag + ".json";
  json::save_file(record_path, json::Value(std::move(record)), 2);
  std::printf("record: %s\n", record_path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
