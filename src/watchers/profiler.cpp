#include "watchers/profiler.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "profile/metrics.hpp"
#include "sys/error.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/cpuinfo.hpp"
#include "sys/env.hpp"
#include "sys/procfs.hpp"
#include "watchers/trace.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

Profiler::Profiler(ProfilerOptions options) : options_(std::move(options)) {}

const WatcherRegistry& Profiler::registry() const {
  return options_.registry != nullptr ? *options_.registry
                                      : WatcherRegistry::instance();
}

std::vector<std::string> Profiler::effective_watcher_set() const {
  const std::vector<std::string>& requested =
      options_.watcher_set.empty() ? WatcherRegistry::default_set()
                                   : options_.watcher_set;
  std::vector<std::string> names;
  names.reserve(requested.size());
  for (const auto& name : requested) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  return names;
}

std::string Profiler::make_trace_path() const {
  const std::string dir =
      !options_.scratch_dir.empty()
          ? options_.scratch_dir
          : sys::getenv_or("TMPDIR", std::string("/tmp"));
  static std::atomic<uint64_t> counter{0};
  return dir + "/synapse_trace_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".bin";
}

namespace {

/// Gate sanity shared by the defaults and every per-watcher override;
/// `scope` names the watcher (or "gate defaults") in the diagnostic.
void validate_gate(const GateParams& gate, const std::string& scope) {
  if (!(gate.floor_hz > 0.0) || !std::isfinite(gate.floor_hz)) {
    throw sys::ConfigError("profiler: " + scope +
                           ": gate floor_hz must be a positive rate, got " +
                           std::to_string(gate.floor_hz));
  }
  if (gate.burst_hz < 0.0 || !std::isfinite(gate.burst_hz)) {
    throw sys::ConfigError(
        "profiler: " + scope +
        ": gate burst_hz must be >= 0 (0 = the watcher's sampling rate)");
  }
  if (gate.open_threshold < 0.0 || !std::isfinite(gate.open_threshold)) {
    throw sys::ConfigError("profiler: " + scope +
                           ": gate open_threshold must be >= 0");
  }
  if (gate.close_hold_s < 0.0 || !std::isfinite(gate.close_hold_s)) {
    throw sys::ConfigError("profiler: " + scope +
                           ": gate close_hold_s must be >= 0");
  }
}

}  // namespace

std::string Profiler::prepare_run() const {
  bool trace = false;
  const std::vector<std::string> set = effective_watcher_set();
  for (const auto& name : set) {
    registry().ensure_registered(name);  // throws before the spawn
    trace = trace || name == "trace";
  }

  // A non-positive rate used to be silently clamped to 1 Hz deep in the
  // scheduler — sampling at a rate the user never asked for. Reject it
  // here, before any child is spawned, naming the watcher.
  for (const auto& name : set) {
    const auto it = options_.watcher_rates.find(name);
    const double rate =
        it != options_.watcher_rates.end() ? it->second
                                           : options_.sample_rate_hz;
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      throw sys::ConfigError(
          "profiler: watcher '" + name +
          "' has a non-positive sampling rate (" + std::to_string(rate) +
          " Hz) — " +
          (it != options_.watcher_rates.end() ? "fix its rate override"
                                              : "fix sample_rate_hz"));
    }
  }

  validate_gate(options_.gate, "gate defaults");
  for (const auto& [name, gate] : options_.watcher_gates) {
    validate_gate(gate, "watcher '" + name + "'");
  }
  return trace ? make_trace_path() : std::string();
}

std::vector<std::unique_ptr<Watcher>> Profiler::build_watchers(
    const std::string& trace_path) const {
  WatcherBuildContext build;
  build.net_include_loopback = options_.net_include_loopback;

  std::vector<std::unique_ptr<Watcher>> watchers;
  for (const auto& name : effective_watcher_set()) {
    // The trace watcher is a no-op without its side channel; drop it
    // rather than attaching a watcher that can never produce data.
    if (name == "trace" && trace_path.empty()) continue;
    watchers.push_back(registry().create(name, build));
  }
  return watchers;
}

profile::Profile Profiler::profile_command(
    const std::vector<std::string>& argv,
    const std::vector<std::string>& tags,
    const std::string& command_label) {
  const std::string trace_path = prepare_run();

  sys::SpawnOptions spawn_opts;
  spawn_opts.extra_env = options_.extra_env;
  if (!trace_path.empty()) {
    spawn_opts.extra_env.push_back(std::string(kTraceEnvVar) + "=" +
                                   trace_path);
  }
  spawn_opts.stdout_path = options_.stdout_path;
  spawn_opts.stderr_path = options_.stderr_path;

  std::string command = command_label;
  if (command.empty()) {
    for (const auto& a : argv) {
      if (!command.empty()) command += ' ';
      command += a;
    }
  }
  auto watchers = build_watchers(trace_path);
  return run(sys::ChildProcess::spawn(argv, spawn_opts), std::move(watchers),
             command, tags, trace_path);
}

profile::Profile Profiler::profile(const std::string& command,
                                   const std::vector<std::string>& tags) {
  // Store the command string exactly as given: it is the search index
  // for emulate(command) and must survive quoting untouched.
  return profile_command(sys::split_command(command), tags, command);
}

profile::Profile Profiler::profile_function(
    const std::function<int()>& fn, const std::string& pseudo_command,
    const std::vector<std::string>& tags) {
  const std::string trace_path = prepare_run();
  auto watchers = build_watchers(trace_path);
  if (!trace_path.empty()) {
    // fork_function children inherit our environment directly.
    sys::setenv_str(kTraceEnvVar, trace_path);
  }
  auto child = sys::ChildProcess::fork_function(fn);
  if (!trace_path.empty()) sys::unsetenv_str(kTraceEnvVar);
  return run(std::move(child), std::move(watchers), pseudo_command, tags,
             trace_path);
}

profile::Profile Profiler::run(sys::ChildProcess child,
                               std::vector<std::unique_ptr<Watcher>> watchers,
                               const std::string& command,
                               const std::vector<std::string>& tags,
                               const std::string& trace_path) {
  WatcherConfig config;
  config.pid = child.pid();
  config.sample_rate_hz = options_.sample_rate_hz;
  config.adaptive = options_.adaptive;
  config.adaptive_window_s = options_.adaptive_window_s;
  config.adaptive_floor_hz = options_.adaptive_floor_hz;
  config.gate = options_.gate;
  config.gate_overrides = options_.watcher_gates;
  if (options_.adaptive) {
    // Legacy decay flags map onto the gate so `--adaptive` keeps its
    // meaning under `--scheduler adaptive`: decay floor -> gate floor,
    // startup window -> quiet hold. Explicit gate settings win.
    const GateParams defaults;
    if (config.gate.floor_hz == defaults.floor_hz) {
      config.gate.floor_hz = options_.adaptive_floor_hz;
    }
    if (config.gate.close_hold_s == defaults.close_hold_s) {
      config.gate.close_hold_s = options_.adaptive_window_s;
    }
  }
  config.trace_path = trace_path;
  config.rate_overrides = options_.watcher_rates;

  std::vector<Watcher*> scheduled;
  scheduled.reserve(watchers.size());
  for (const auto& w : watchers) scheduled.push_back(w.get());

  SamplingScheduler scheduler(options_.scheduler);
  scheduler.start(scheduled, config);
  const sys::ExitStatus status = child.wait();
  scheduler.stop();

  // Assemble the profile.
  profile::Profile p;
  p.command = command;
  p.tags = tags;
  if (!status.success()) {
    p.tags.push_back("exit_code=" + std::to_string(status.exit_code));
  }
  p.sample_rate_hz = options_.sample_rate_hz;
  p.created_at = sys::wallclock_now();

  const auto& cpu = sys::cpu_info();
  const auto& spec = resource::active_resource();
  char host[256] = {0};
  ::gethostname(host, sizeof(host) - 1);
  p.system.hostname = host;
  p.system.cpu_model = cpu.model_name;
  p.system.num_cores = spec.cores;
  p.system.max_cpu_freq_hz = spec.name == "host" ? cpu.best_hz() : spec.turbo_hz;
  if (const auto mi = sys::read_meminfo()) {
    p.system.total_memory_bytes = mi->total_bytes;
  }
  p.system.resource_name = spec.name;

  std::vector<const Watcher*> watcher_ptrs;
  watcher_ptrs.reserve(watchers.size());
  for (const auto& w : watchers) watcher_ptrs.push_back(w.get());

  // Cross-watcher deduplication (the finalize() contract of section
  // 4.1): when the cooperative trace carries analytic counters, the CPU
  // watcher's modelled cycles/instructions describe the same work a
  // second time (including any pacing spin) and must not survive into
  // the merged sample stream the emulator replays.
  const Watcher* trace_w = find_watcher(watcher_ptrs, "trace");
  const bool trace_has_counters =
      trace_w != nullptr && trace_w->series().last(m::kFlops) > 0;

  const bool adaptive_mode = options_.scheduler == SchedulerMode::Adaptive;
  for (auto& w : watchers) {
    w->finalize(watcher_ptrs, p.totals);
    profile::TimeSeries ts = w->series();
    ts.sample_rate_hz = config.rate_for(w->name());
    if (adaptive_mode) {
      // Gated series are variable-rate: timestamps, not the nominal
      // rate, are the source of truth downstream (sample_deltas
      // switches to timestamp bucketing, replay paces by recorded
      // gaps). The resolved gate rides along as series metadata and
      // the nominal rate records the burst rate.
      const GateParams gate = config.gate_for(w->name());
      ts.variable_rate = true;
      ts.gate.floor_hz = gate.floor_hz;
      ts.gate.burst_hz = gate.burst_hz;
      ts.gate.open_threshold = gate.open_threshold;
      ts.gate.close_hold_s = gate.close_hold_s;
      if (gate.burst_hz > 0) ts.sample_rate_hz = gate.burst_hz;
    }
    if (trace_has_counters && ts.watcher == "cpu") {
      ts.samples.erase(m::kCyclesUsed);
      ts.samples.erase(m::kInstructions);
    }
    p.series.push_back(std::move(ts));
  }

  // rusage-based corrections (the paper's `time -v` wrapper): exact Tx
  // and peak RSS from the kernel, covering the pre-first-sample window.
  p.totals[std::string(m::kRuntime)] = status.wall_seconds;
  p.totals[std::string(m::kTaskClock)] =
      std::max(p.totals[std::string(m::kTaskClock)], status.usage.cpu_seconds());
  if (status.usage.max_rss_bytes > 0) {
    auto& peak = p.totals[std::string(m::kMemPeak)];
    peak = std::max(peak, static_cast<double>(status.usage.max_rss_bytes));
  }

  p.compute_derived();

  if (!trace_path.empty()) ::unlink(trace_path.c_str());
  return p;
}

}  // namespace synapse::watchers
