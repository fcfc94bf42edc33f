#pragma once
// The Synapse emulator (paper Fig. 1 right half, sections 4.2, 4.4).
//
// Feeds the sample sequence of a profile to the emulation atoms:
//
//  - samples are replayed strictly in recorded order (dependencies are
//    implicitly captured in that order — Fig. 2/3);
//  - within one sample, every atom starts concurrently and the sample
//    ends when the LAST atom finishes (the serialization present in the
//    original application inside a sampling period is deliberately lost;
//    higher sampling rates reduce that effect);
//  - all timing information inside samples is discarded: emulation
//    reproduces resource consumption, not timings.
//
// The sample feed loop itself lives in emulator::ReplayEngine
// (replay_engine.hpp); the Emulator is a driver that picks the
// execution mode (single process, OpenMP threads, forked ranks) and
// hands the engine a per-mode view of the options. Atoms are resolved
// by name through atoms::AtomRegistry, so custom atoms registered at
// runtime replay like the built-ins.
//
// Tunables (requirement E.3 Malleability): kernel choice, OpenMP thread
// or MPI-style rank count, I/O block sizes and target filesystem, memory
// scale, cycle scale — all dimensions the paper varies in E.3/E.4/E.5.

#include <map>
#include <string>
#include <vector>

#include "atoms/atom.hpp"
#include "atoms/atom_registry.hpp"
#include "profile/profile.hpp"

namespace synapse::emulator {

/// Parallelisation mode for the compute emulation (experiment E.4).
enum class ParallelMode {
  None,     ///< single-threaded compute atom
  OpenMp,   ///< one process, N OpenMP threads
  Process,  ///< N forked ranks (the OpenMPI substitute)
};

/// Replay pacing: whether the feed loop sleeps between deltas so the
/// replay follows the profile's recorded inter-sample gaps (each
/// SampleDelta::duration) instead of running as fast as the atoms
/// allow. Pacing reproduces the recorded *timeline*; the atoms still
/// reproduce the recorded *consumption*.
enum class ReplayPace {
  Auto,  ///< pace variable-rate (adaptively recorded) profiles only
  Off,   ///< never pace: replay at full speed (the classic behaviour)
  On,    ///< pace every profile by its recorded durations
};

/// Parse "auto" / "off" / "on" (throws sys::ConfigError otherwise).
ReplayPace replay_pace_from_string(const std::string& name);
const char* replay_pace_name(ReplayPace pace);

struct EmulatorOptions {
  /// Declarative atom-set selection: the registry names to replay
  /// through, in dispatch order (e.g. {"compute", "storage", "my-gpu"}).
  /// Empty = derive from the emulate_* flags below. Names must exist in
  /// the AtomRegistry in use; unknown names fail the run with
  /// ConfigError at startup. Duplicates collapse (first occurrence
  /// wins).
  std::vector<std::string> atom_set;

  // Atom enable flags, honoured when atom_set is empty (experiments
  // often emulate compute only).
  bool emulate_compute = true;
  bool emulate_memory = true;
  bool emulate_storage = true;
  bool emulate_network = false;  ///< adds the "network" atom to the set

  atoms::ComputeAtomOptions compute;
  atoms::MemoryAtomOptions memory;
  atoms::StorageAtomOptions storage;
  atoms::NetworkAtomOptions network;

  ParallelMode parallel_mode = ParallelMode::None;
  int parallel_degree = 1;  ///< threads or ranks

  /// Replay window: 0 (default, "unset") and 1 both replay in lockstep,
  /// one sample at a time, the paper's loop; >= 2 publishes windows of
  /// this many samples to the persistent per-atom consumers, with up to
  /// six windows in flight. Per-atom consumption order (and therefore
  /// every non-timing stat) is identical either way; the per-sample
  /// barrier coarsens to a per-window barrier, amortizing dispatch cost
  /// across the window. 0 vs 1 only matters for scenario precedence: a
  /// scenario's replay_batch field applies when this is 0, while an
  /// explicit 1 (e.g. --replay-batch 1) pins single mode against it.
  size_t replay_batch = 0;

  /// Pace the feed loop by the recorded inter-sample gaps (see
  /// ReplayPace). Default Auto: variable-rate profiles replay on their
  /// recorded timeline (a burst is replayed as a burst, an idle stretch
  /// as an idle stretch), fixed-rate profiles replay at full speed as
  /// before. Each window is released when its first sample's recorded
  /// period starts, and a paced replay lasts at least the recorded span,
  /// keeping the barrier and hook-order semantics untouched.
  ReplayPace pace = ReplayPace::Auto;

  /// Ring-exchange bytes per rank per replayed sample in Process mode
  /// (0 = no communication, the paper's behaviour). Models the halo
  /// exchange of domain-decomposed codes; see emulator/comm.hpp.
  uint64_t comm_bytes_per_sample = 0;

  // Workload overrides (tuning dimensions the original application does
  // not offer — the RADICAL-Pilot use case of section 2.1).
  double cycle_scale = 1.0;   ///< multiply every compute delta
  double memory_scale = 1.0;  ///< multiply allocation deltas
  double io_scale = 1.0;      ///< multiply storage deltas
};

/// Outcome of one emulation run.
struct EmulationResult {
  double wall_seconds = 0.0;       ///< emulation Tx
  size_t samples_replayed = 0;
  double startup_seconds = 0.0;    ///< atom construction + calibration
  atoms::AtomStats compute;
  atoms::AtomStats memory;
  atoms::AtomStats storage;
  atoms::AtomStats network;
  /// Per-atom stats keyed by registry name — the only place custom
  /// atoms report; the four named fields above mirror the built-ins.
  std::map<std::string, atoms::AtomStats> atom_stats;
  int ranks_ok = 0;                ///< successful ranks (Process mode)
  uint64_t comm_bytes = 0;         ///< total ring-exchanged bytes
};

class Emulator {
 public:
  /// `registry` = nullptr uses the process-wide AtomRegistry::instance()
  /// (where runtime registrations land); inject a registry to scope
  /// custom atoms to this emulator. Must outlive the emulator.
  explicit Emulator(EmulatorOptions options = {},
                    const atoms::AtomRegistry* registry = nullptr);

  /// Replay a profile on the active resource. Blocks until done.
  EmulationResult emulate(const profile::Profile& profile);

  const EmulatorOptions& options() const { return options_; }

 private:
  EmulationResult run_single(const profile::Profile& profile);
  EmulationResult run_process_parallel(const profile::Profile& profile);

  EmulatorOptions options_;
  const atoms::AtomRegistry* registry_;  ///< not owned, never null
};

}  // namespace synapse::emulator
