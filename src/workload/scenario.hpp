#pragma once
// Scenario library: declarative, named emulation workloads.
//
// The ROADMAP's "richer scenario library" direction: a ScenarioSpec
// names an atom set (resolved through atoms::AtomRegistry, so custom
// atoms participate), a synthetic sample source, repetitions and tags —
// everything needed to drive the emulator without profiling a real
// application first. Scenarios load from JSON files or from the
// built-in catalog (cpu-bound, memory-bound, io-granularity,
// network-loopback, mixed-mdsim-like) and run via
// `synapse-emulate --scenario <name|file>`.
//
// This is the traffic generator for the sharded profile store and the
// future multi-node backends: each scenario is a reproducible stream of
// per-sample resource consumption.

#include <map>
#include <string>
#include <vector>

#include "atoms/atom_registry.hpp"
#include "emulator/emulator.hpp"
#include "json/json.hpp"
#include "profile/profile.hpp"
#include "watchers/profiler.hpp"

namespace synapse::workload {

/// Synthetic sample source: `samples` periods at `sample_rate_hz`, each
/// consuming the listed per-period metric deltas (canonical metric
/// names from profile/metrics.hpp; instantaneous metrics are taken as
/// absolute per-period values).
struct SampleSourceSpec {
  size_t samples = 10;
  double sample_rate_hz = 10.0;
  std::map<std::string, double> deltas;  ///< metric -> per-sample amount
};

/// One named scenario, JSON round-trippable.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<std::string> atom_set;  ///< registry names, dispatch order
  /// Watcher set for profile-then-emulate round trips (names resolved
  /// through watchers::WatcherRegistry). Empty = the profiler's default
  /// set. Only consulted by profile_scenario(); plain run_scenario()
  /// never attaches watchers.
  std::vector<std::string> watchers;
  SampleSourceSpec source;
  int repetitions = 1;
  std::vector<std::string> tags;

  /// Replay window this scenario asks for: >= 2 replays in windows of
  /// this many samples (EmulatorOptions::replay_batch), 1 pins the
  /// single-sample lockstep feed, 0 (default) inherits the base
  /// options. A batch size the command line sets explicitly
  /// (--replay-batch, including an explicit 1) outranks this, like
  /// --atoms over atom_set.
  size_t replay_batch = 0;

  /// Sampling scheduler for profile-then-emulate round trips ("" =
  /// inherit): "thread", "multiplexed" or "adaptive"
  /// (watchers::scheduler_mode_from_string). Only consulted by
  /// profile_scenario(), and only while the caller's ProfilerOptions
  /// still carry the default mode — an explicit --scheduler wins, the
  /// same precedence replay_batch follows.
  std::string scheduler;
  /// Gate defaults for the adaptive scheduler (watchers::GateParams),
  /// applied under the same precedence: only when the caller left its
  /// own gate defaults untouched.
  watchers::GateParams gate;

  // Workload-override scales, multiplied into the base EmulatorOptions.
  double cycle_scale = 1.0;
  double memory_scale = 1.0;
  double io_scale = 1.0;

  /// Structural checks plus atom-set resolution through `registry` and
  /// watcher-set resolution through `watcher_registry` (nullptr = the
  /// process-wide WatcherRegistry::instance(); profile_scenario passes
  /// the scoped registry it will actually build watchers from).
  /// Throws sys::ConfigError with a diagnostic naming the scenario.
  void validate(const atoms::AtomRegistry& registry,
                const watchers::WatcherRegistry* watcher_registry =
                    nullptr) const;

  /// Materialize the synthetic sample source as a replayable Profile
  /// (cumulative counters for cumulative metrics, absolute values for
  /// instantaneous ones; command = "scenario:<name>").
  profile::Profile make_profile() const;

  /// Merge this scenario into `base` options: the scenario's atom_set
  /// applies unless `base` already selects atoms explicitly (a user's
  /// --atoms override wins), and the scales multiply.
  emulator::EmulatorOptions make_options(
      emulator::EmulatorOptions base = {}) const;

  json::Value to_json() const;
  /// Throws sys::ConfigError on structurally invalid specs (missing
  /// name, empty atom list, non-positive rate/samples/repetitions, ...).
  static ScenarioSpec from_json(const json::Value& v);
};

/// The built-in catalog, resolvable by name.
const std::vector<ScenarioSpec>& builtin_scenarios();

/// nullptr when `name` is not a built-in.
const ScenarioSpec* find_builtin(const std::string& name);

/// Resolve a `--scenario` argument: a built-in name, otherwise a JSON
/// file path. Throws sys::ConfigError (never crashes) on unknown names,
/// unreadable files and malformed JSON, with a diagnostic message.
ScenarioSpec resolve_scenario(const std::string& name_or_path);

/// Outcome of a scenario run: per-atom stats aggregated over all
/// repetitions (the named built-in mirrors of EmulationResult included).
struct ScenarioResult {
  std::string scenario;
  int repetitions = 0;
  emulator::EmulationResult result;
};

/// Validate, synthesize the profile once, and emulate it
/// `spec.repetitions` times with the merged options. `registry` =
/// nullptr uses the process-wide AtomRegistry::instance().
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const emulator::EmulatorOptions& base = {},
                            const atoms::AtomRegistry* registry = nullptr);

/// Profile-then-emulate round trip (the paper's Fig. 1 loop driven from
/// a scenario): run the scenario's emulation in a forked child with the
/// profiler attached and return the recorded profile
/// (command = "scenario:<name>", tagged with the scenario tags). The
/// watcher set is `popts.watcher_set` when non-empty, else the
/// scenario's own `watchers` field, else the profiler default — so a
/// scenario listing "net" records the replayed loopback traffic, and
/// the resulting profile feeds straight back into the emulator.
profile::Profile profile_scenario(const ScenarioSpec& spec,
                                  watchers::ProfilerOptions popts = {},
                                  const emulator::EmulatorOptions& base = {},
                                  const atoms::AtomRegistry* registry = nullptr);

}  // namespace synapse::workload
