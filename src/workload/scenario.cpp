#include "workload/scenario.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>

#include "emulator/replay_engine.hpp"
#include "profile/metrics.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"

namespace synapse::workload {

namespace m = synapse::metrics;

namespace {

std::string scenario_prefix(const std::string& name) {
  return "scenario '" + (name.empty() ? "<unnamed>" : name) + "': ";
}

/// get_or would silently substitute the default for a wrong-typed
/// field; a misspelt value deserves the same diagnostic as a malformed
/// one.
double require_number(const json::Value& v, const std::string& key,
                      double dflt, const std::string& prefix) {
  if (!v.contains(key)) return dflt;
  if (!v[key].is_number()) {
    throw sys::ConfigError(prefix + "'" + key + "' must be a number");
  }
  return v[key].as_double();
}

/// Watcher bucket for a metric: the prefix before the first '.'
/// ("compute.cycles_used" -> "compute"). Synthetic series are grouped
/// per watcher like real profiles; sample_deltas() merges them on the
/// common time origin either way.
std::string watcher_of(const std::string& metric) {
  const auto dot = metric.find('.');
  return dot == std::string::npos ? metric : metric.substr(0, dot);
}

/// "Still the compiled-in defaults" is the precedence test both the
/// scheduler and the gate use: a caller that touched any field keeps it.
bool gate_is_default(const watchers::GateParams& g) {
  const watchers::GateParams d;
  return g.floor_hz == d.floor_hz && g.burst_hz == d.burst_hz &&
         g.open_threshold == d.open_threshold &&
         g.close_hold_s == d.close_hold_s;
}

}  // namespace

void ScenarioSpec::validate(
    const atoms::AtomRegistry& registry,
    const watchers::WatcherRegistry* watcher_registry) const {
  const std::string prefix = scenario_prefix(name);
  if (name.empty()) {
    throw sys::ConfigError(prefix + "missing a name");
  }
  if (atom_set.empty()) {
    throw sys::ConfigError(prefix + "atom set is empty");
  }
  if (source.samples == 0) {
    throw sys::ConfigError(prefix + "needs at least one sample");
  }
  if (!(source.sample_rate_hz > 0.0) ||
      !std::isfinite(source.sample_rate_hz)) {
    throw sys::ConfigError(prefix + "sample_rate_hz must be positive");
  }
  if (repetitions < 1) {
    throw sys::ConfigError(prefix + "repetitions must be >= 1");
  }
  if (source.deltas.empty()) {
    // Without deltas the synthetic profile has no series at all and
    // would "successfully" replay zero samples.
    throw sys::ConfigError(prefix +
                           "needs at least one per-sample delta metric");
  }
  for (const auto& [metric, value] : source.deltas) {
    if (!std::isfinite(value) || value < 0.0) {
      throw sys::ConfigError(prefix + "delta for '" + metric +
                             "' must be finite and >= 0");
    }
  }
  for (const auto& scale : {cycle_scale, memory_scale, io_scale}) {
    if (!std::isfinite(scale) || scale <= 0.0) {
      throw sys::ConfigError(prefix + "scales must be finite and > 0");
    }
  }
  if (!scheduler.empty()) {
    try {
      watchers::scheduler_mode_from_string(scheduler);
    } catch (const sys::ConfigError& e) {
      throw sys::ConfigError(prefix + e.what());
    }
  }
  if (!(gate.floor_hz > 0.0) || !std::isfinite(gate.floor_hz)) {
    throw sys::ConfigError(prefix + "gate floor_hz must be a positive rate");
  }
  if (gate.burst_hz < 0.0 || !std::isfinite(gate.burst_hz)) {
    throw sys::ConfigError(
        prefix + "gate burst_hz must be >= 0 (0 = the sampling rate)");
  }
  if (gate.open_threshold < 0.0 || !std::isfinite(gate.open_threshold)) {
    throw sys::ConfigError(prefix + "gate open_threshold must be >= 0");
  }
  if (gate.close_hold_s < 0.0 || !std::isfinite(gate.close_hold_s)) {
    throw sys::ConfigError(prefix + "gate close_hold_s must be >= 0");
  }
  for (const auto& atom : atom_set) {
    registry.ensure_registered(atom);  // throws with the registered list
  }
  const watchers::WatcherRegistry& wreg =
      watcher_registry != nullptr ? *watcher_registry
                                  : watchers::WatcherRegistry::instance();
  for (const auto& watcher : watchers) {
    wreg.ensure_registered(watcher);
  }
}

profile::Profile ScenarioSpec::make_profile() const {
  profile::Profile p;
  p.command = "scenario:" + name;
  p.tags = tags;
  p.sample_rate_hz = source.sample_rate_hz;
  const double period = 1.0 / source.sample_rate_hz;

  // One series per watcher prefix, cumulative counters summed up.
  std::map<std::string, profile::TimeSeries> by_watcher;
  std::map<std::string, double> cumulative;
  for (size_t i = 0; i < source.samples; ++i) {
    const double timestamp = static_cast<double>(i) * period;
    for (const auto& [metric, per_sample] : source.deltas) {
      auto& series = by_watcher[watcher_of(metric)];
      if (series.watcher.empty()) {
        series.watcher = watcher_of(metric);
        series.samples.reserve(source.samples);
      }
      if (series.samples.size() <= i) series.samples.add_row(timestamp);
      if (profile::is_instantaneous_metric(metric)) {
        series.samples.set(i, metric, per_sample);
      } else {
        cumulative[metric] += per_sample;
        series.samples.set(i, metric, cumulative[metric]);
      }
    }
  }
  for (auto& [watcher, series] : by_watcher) {
    p.series.push_back(std::move(series));
  }

  const double runtime = static_cast<double>(source.samples) * period;
  p.totals[std::string(m::kRuntime)] = runtime;
  for (const auto& [metric, value] : cumulative) {
    p.totals[metric] = value;
  }
  return p;
}

emulator::EmulatorOptions ScenarioSpec::make_options(
    emulator::EmulatorOptions base) const {
  // An explicit --atoms selection on the command line outranks the
  // scenario's own set (same precedence as atom_set over the flags).
  if (base.atom_set.empty()) base.atom_set = atom_set;
  // Same precedence for the replay feed mode: the scenario's requested
  // batch size (including an explicit 1 = pin single mode) applies only
  // when the base options left it unset (0); an explicit --replay-batch
  // outranks the scenario either way.
  if (base.replay_batch == 0 && replay_batch >= 1) {
    base.replay_batch = replay_batch;
  }
  base.cycle_scale *= cycle_scale;
  base.memory_scale *= memory_scale;
  base.io_scale *= io_scale;
  return base;
}

json::Value ScenarioSpec::to_json() const {
  json::Object root;
  root["name"] = name;
  root["description"] = description;
  json::Array atoms;
  for (const auto& a : atom_set) atoms.push_back(a);
  root["atoms"] = std::move(atoms);
  if (!watchers.empty()) {
    json::Array jwatchers;
    for (const auto& w : watchers) jwatchers.push_back(w);
    root["watchers"] = std::move(jwatchers);
  }
  root["samples"] = source.samples;
  root["sample_rate_hz"] = source.sample_rate_hz;
  json::Object deltas;
  for (const auto& [metric, value] : source.deltas) deltas[metric] = value;
  root["deltas"] = std::move(deltas);
  root["repetitions"] = repetitions;
  if (replay_batch >= 1) root["replay_batch"] = replay_batch;
  if (!scheduler.empty()) root["scheduler"] = scheduler;
  if (!gate_is_default(gate)) {
    json::Object jg;
    jg["floor_hz"] = gate.floor_hz;
    jg["burst_hz"] = gate.burst_hz;
    jg["open_threshold"] = gate.open_threshold;
    jg["close_hold_s"] = gate.close_hold_s;
    root["gate"] = std::move(jg);
  }
  json::Array jtags;
  for (const auto& t : tags) jtags.push_back(t);
  root["tags"] = std::move(jtags);
  root["cycle_scale"] = cycle_scale;
  root["memory_scale"] = memory_scale;
  root["io_scale"] = io_scale;
  return json::Value(std::move(root));
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& v) {
  if (!v.is_object()) {
    throw sys::ConfigError("scenario: top-level JSON value must be an object");
  }
  ScenarioSpec spec;
  spec.name = v.get_or("name", std::string());
  const std::string prefix = scenario_prefix(spec.name);
  spec.description = v.get_or("description", std::string());
  try {
    if (v.contains("atoms")) {
      for (const auto& a : v["atoms"].as_array()) {
        spec.atom_set.push_back(a.as_string());
      }
    }
    if (v.contains("watchers")) {
      for (const auto& w : v["watchers"].as_array()) {
        spec.watchers.push_back(w.as_string());
      }
    }
    // Range-check before casting: JSON numbers are doubles, and casting
    // a negative or huge value to an unsigned type is undefined
    // behaviour (and would turn a typo into an endless loop).
    const double samples_raw = require_number(v, "samples", 10.0, prefix);
    if (!(samples_raw >= 1.0) || samples_raw > 1e9 ||
        samples_raw != std::floor(samples_raw)) {
      throw sys::ConfigError(prefix +
                             "'samples' must be an integer in [1, 1e9]");
    }
    spec.source.samples = static_cast<size_t>(samples_raw);
    spec.source.sample_rate_hz =
        require_number(v, "sample_rate_hz", 10.0, prefix);
    if (v.contains("deltas")) {
      for (const auto& [metric, value] : v["deltas"].as_object()) {
        spec.source.deltas[metric] = value.as_double();
      }
    }
    const double reps_raw = require_number(v, "repetitions", 1.0, prefix);
    if (!(reps_raw >= 1.0) || reps_raw > 1e6 ||
        reps_raw != std::floor(reps_raw)) {
      throw sys::ConfigError(prefix +
                             "'repetitions' must be an integer in [1, 1e6]");
    }
    spec.repetitions = static_cast<int>(reps_raw);
    const double batch_raw = require_number(v, "replay_batch", 0.0, prefix);
    if (batch_raw < 0.0 || batch_raw > 1e6 ||
        batch_raw != std::floor(batch_raw)) {
      throw sys::ConfigError(prefix +
                             "'replay_batch' must be an integer in [0, 1e6]");
    }
    spec.replay_batch = static_cast<size_t>(batch_raw);
    spec.scheduler = v.get_or("scheduler", std::string());
    if (v.contains("gate")) {
      const json::Value& jg = v["gate"];
      if (!jg.is_object()) {
        throw sys::ConfigError(prefix + "'gate' must be an object");
      }
      const watchers::GateParams d;
      spec.gate.floor_hz =
          require_number(jg, "floor_hz", d.floor_hz, prefix);
      spec.gate.burst_hz =
          require_number(jg, "burst_hz", d.burst_hz, prefix);
      spec.gate.open_threshold =
          require_number(jg, "open_threshold", d.open_threshold, prefix);
      spec.gate.close_hold_s =
          require_number(jg, "close_hold_s", d.close_hold_s, prefix);
    }
    if (v.contains("tags")) {
      for (const auto& t : v["tags"].as_array()) {
        spec.tags.push_back(t.as_string());
      }
    }
    spec.cycle_scale = require_number(v, "cycle_scale", 1.0, prefix);
    spec.memory_scale = require_number(v, "memory_scale", 1.0, prefix);
    spec.io_scale = require_number(v, "io_scale", 1.0, prefix);
  } catch (const json::JsonError& e) {
    throw sys::ConfigError(prefix + "malformed field: " + e.what());
  }
  if (spec.name.empty()) {
    throw sys::ConfigError("scenario: missing required field 'name'");
  }
  if (spec.atom_set.empty()) {
    throw sys::ConfigError(prefix +
                           "missing required field 'atoms' (non-empty list)");
  }
  return spec;
}

// --- built-in catalog -------------------------------------------------------

namespace {

ScenarioSpec make_builtin(const char* name, const char* description,
                          std::vector<std::string> atoms, size_t samples,
                          std::map<std::string, double> deltas,
                          std::vector<std::string> tags) {
  ScenarioSpec s;
  s.name = name;
  s.description = description;
  s.atom_set = std::move(atoms);
  s.source.samples = samples;
  s.source.sample_rate_hz = 10.0;
  s.source.deltas = std::move(deltas);
  s.tags = std::move(tags);
  return s;
}

std::vector<ScenarioSpec> make_catalog() {
  std::vector<ScenarioSpec> catalog;
  // Budgets are deliberately small: every scenario replays in well
  // under a second, so the full catalog sweeps quickly in tests/CI.
  catalog.push_back(make_builtin(
      "cpu-bound", "pure compute kernel, no memory or I/O traffic",
      {"compute"}, 20, {{std::string(m::kCyclesUsed), 5e6}},
      {"builtin", "compute"}));
  catalog.push_back(make_builtin(
      "memory-bound", "malloc/free churn with a rising resident set",
      {"memory"}, 10,
      {{std::string(m::kMemAllocated), 8.0 * 1024 * 1024},
       {std::string(m::kMemFreed), 4.0 * 1024 * 1024}},
      {"builtin", "memory"}));
  catalog.push_back(make_builtin(
      "io-granularity", "steady read/write stream (paper E.5 block-size dims)",
      {"storage"}, 10,
      {{std::string(m::kBytesWritten), 256.0 * 1024},
       {std::string(m::kBytesRead), 128.0 * 1024}},
      {"builtin", "storage"}));
  catalog.push_back(make_builtin(
      "network-loopback", "socket traffic over loopback (section 4.5 IPC)",
      {"network"}, 8, {{std::string(m::kNetBytesWritten), 64.0 * 1024}},
      {"builtin", "network"}));
  // Table 1 "(-)" closure: profiling this scenario records the replayed
  // loopback traffic through the net watcher, and the recorded profile
  // replays again — the full profile-then-emulate round trip.
  catalog.back().watchers = {"cpu", "net"};
  catalog.push_back(make_builtin(
      "mixed-mdsim-like", "compute + memory + storage mix shaped like mdsim",
      {"compute", "memory", "storage"}, 16,
      {{std::string(m::kCyclesUsed), 2e6},
       {std::string(m::kMemAllocated), 2.0 * 1024 * 1024},
       {std::string(m::kMemFreed), 1.0 * 1024 * 1024},
       {std::string(m::kBytesWritten), 64.0 * 1024},
       {std::string(m::kBytesRead), 32.0 * 1024}},
      {"builtin", "mixed", "mdsim"}));
  return catalog;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec> catalog = make_catalog();
  return catalog;
}

const ScenarioSpec* find_builtin(const std::string& name) {
  for (const auto& s : builtin_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ScenarioSpec resolve_scenario(const std::string& name_or_path) {
  if (const ScenarioSpec* builtin = find_builtin(name_or_path)) {
    return *builtin;
  }
  struct stat st {};
  if (::stat(name_or_path.c_str(), &st) != 0) {
    std::string known;
    for (const auto& s : builtin_scenarios()) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    throw sys::ConfigError("scenario '" + name_or_path +
                           "' is neither a built-in (" + known +
                           ") nor a readable file");
  }
  try {
    return ScenarioSpec::from_json(json::load_file(name_or_path));
  } catch (const sys::ConfigError&) {
    throw;  // already carries a scenario diagnostic
  } catch (const std::exception& e) {
    throw sys::ConfigError("scenario file '" + name_or_path +
                           "': " + e.what());
  }
}

// --- running ----------------------------------------------------------------

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const emulator::EmulatorOptions& base,
                            const atoms::AtomRegistry* registry) {
  const atoms::AtomRegistry& reg =
      registry != nullptr ? *registry : atoms::AtomRegistry::instance();
  spec.validate(reg);

  const emulator::EmulatorOptions options = spec.make_options(base);
  const profile::Profile profile = spec.make_profile();
  emulator::Emulator emulator(options, registry);

  ScenarioResult out;
  out.scenario = spec.name;
  out.repetitions = spec.repetitions;
  for (int rep = 0; rep < spec.repetitions; ++rep) {
    const emulator::EmulationResult r = emulator.emulate(profile);
    out.result.wall_seconds += r.wall_seconds;
    out.result.startup_seconds += r.startup_seconds;
    out.result.samples_replayed += r.samples_replayed;
    // The worst repetition wins: a rank failure in any repetition must
    // stay visible in the aggregate.
    out.result.ranks_ok =
        rep == 0 ? r.ranks_ok : std::min(out.result.ranks_ok, r.ranks_ok);
    out.result.comm_bytes += r.comm_bytes;
    for (const auto& [atom, stats] : r.atom_stats) {
      atoms::accumulate(out.result.atom_stats[atom], stats);
      emulator::ReplayEngine::mirror_builtin_stats(
          out.result, atom, out.result.atom_stats[atom]);
    }
  }
  return out;
}

profile::Profile profile_scenario(const ScenarioSpec& spec,
                                  watchers::ProfilerOptions popts,
                                  const emulator::EmulatorOptions& base,
                                  const atoms::AtomRegistry* registry) {
  const atoms::AtomRegistry& reg =
      registry != nullptr ? *registry : atoms::AtomRegistry::instance();
  // Watcher names must resolve through the registry the profiler below
  // will actually use — a scoped registry may hold custom watchers the
  // process-wide one does not.
  spec.validate(reg, popts.registry);
  if (popts.watcher_set.empty()) popts.watcher_set = spec.watchers;
  // Scheduler + gate follow the replay_batch precedence: the scenario
  // speaks only where the caller kept the compiled-in defaults.
  if (!spec.scheduler.empty() &&
      popts.scheduler == watchers::SchedulerMode::ThreadPerWatcher) {
    popts.scheduler = watchers::scheduler_mode_from_string(spec.scheduler);
  }
  if (!gate_is_default(spec.gate) && gate_is_default(popts.gate)) {
    popts.gate = spec.gate;
  }

  watchers::Profiler profiler(std::move(popts));
  return profiler.profile_function(
      [&spec, &base, registry] {
        // Watcher attach window: small scenarios replay in milliseconds,
        // and on a loaded machine the watchers' baselines (taken after
        // the fork) would otherwise race the traffic they are supposed
        // to record. The pause mirrors the startup phase a real
        // application has before its hot loop.
        sys::sleep_for(0.05);
        run_scenario(spec, base, registry);
        return 0;
      },
      "scenario:" + spec.name, spec.tags);
}

}  // namespace synapse::workload
