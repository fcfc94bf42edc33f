#pragma once
// The replay engine: the ONE place that feeds a profile's sample
// sequence to emulation atoms (paper section 4.2, Fig. 2 semantics).
//
// Both emulation modes are drivers over this engine:
//   - single mode runs one engine in-process;
//   - process-parallel mode forks N ranks, each running one engine on a
//     per-rank slice of the options (emulator.cpp).
//
// The engine resolves the configured atom set through an AtomRegistry
// (atoms/atom_registry.hpp), so custom atoms registered at runtime
// participate in replay without any emulator change. Per-sample
// semantics are unchanged from the paper: samples replay strictly in
// recorded order, all atoms of one sample start concurrently, the
// sample ends when the LAST atom finishes, and intra-sample timing is
// discarded.
//
// One loop implements those semantics (ReplayEngine::feed). The replay
// is first compiled into a ReplayPlan (replay_plan.hpp): a columnar
// DeltaTable with the scale factors baked in and one LaneMask per atom.
// Every engaged atom then gets one persistent consumer thread fed
// through its own lock-free SPSC ring (spsc_ring.hpp). The calling
// thread publishes {first_row, rows} windows to the atoms that want at
// least one of their rows, keeps at most a fixed number in flight, and
// retires the oldest window once every receiving atom finished it,
// firing the per-sample hook for its rows in recorded order.
//
//   single (replay_batch <= 1) - window 1, one window in flight: the
//     paper's lockstep, sample k+1 starts only after every atom
//     finished sample k.
//
//   batch (replay_batch >= 2) - windows of replay_batch rows, up to
//     six in flight. Each atom still consumes its rows in recorded
//     order, so non-timing stats are bit-identical to single mode; the
//     barrier coarsens to the window.
//
// Atoms that don't implement the frame interface are fed through the
// unbox adapter (Atom::consume_frame) and behave exactly as before.
//
// Either mode optionally paces the feed by the recorded inter-sample
// gaps (EmulatorOptions::pace; default: variable-rate profiles only): a
// window is released at its first row's recorded offset. Consumption
// order, barriers and hook order are identical paced or not.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atoms/atom_registry.hpp"
#include "emulator/emulator.hpp"
#include "profile/profile.hpp"

namespace synapse::emulator {

class ReplayEngine {
 public:
  /// Called after every replayed sample with its index (0-based) —
  /// process-parallel mode hangs the halo-exchange ring step here.
  using SampleHook = std::function<void(size_t)>;

  /// `registry` = nullptr uses the process-wide AtomRegistry::instance().
  /// The registry must outlive the engine; it is not copied.
  explicit ReplayEngine(EmulatorOptions options,
                        const atoms::AtomRegistry* registry = nullptr);

  /// Build the configured atoms (startup/calibration), feed every
  /// sample through the barrier loop, and aggregate per-atom stats.
  /// Blocks until the last sample completes. A throwing hook stops the
  /// replay: the consumers are joined and the error propagates.
  EmulationResult replay(const profile::Profile& profile,
                         const SampleHook& per_sample_hook = {});

  /// The atom names this engine will instantiate: the declarative
  /// EmulatorOptions::atom_set when non-empty, otherwise the built-ins
  /// selected by the emulate_* flags (network included only behind
  /// emulate_network).
  static std::vector<std::string> resolve_atom_set(
      const EmulatorOptions& options);

  /// Parallel-efficiency model for the VR compute time (Amdahl serial
  /// fraction + per-worker coordination overhead): scale factor applied
  /// to per-sample compute budgets when emulating with N workers.
  static double parallel_time_factor(int workers, double overhead_per_worker);

  /// Copy one atom's stats into the matching named EmulationResult slot
  /// (the built-ins' convenience mirrors); no-op for custom names.
  static void mirror_builtin_stats(EmulationResult& result,
                                   const std::string& name,
                                   const atoms::AtomStats& stats);

  const EmulatorOptions& options() const { return options_; }
  const atoms::AtomRegistry& registry() const { return *registry_; }

 private:
  /// The sample feed loop over a compiled ReplayPlan (see the file
  /// comment): windows of max(1, replay_batch) rows to persistent
  /// per-atom consumers, hooks fired as each window retires.
  void feed(const profile::Profile& profile, const EmulatorOptions& opts,
            const std::vector<std::unique_ptr<atoms::Atom>>& active,
            const SampleHook& per_sample_hook, EmulationResult& result);

  EmulatorOptions options_;
  const atoms::AtomRegistry* registry_;  ///< not owned, never null
};

}  // namespace synapse::emulator
