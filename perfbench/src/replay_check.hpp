#pragma once
// Replay-side checks and figures shared by the workloads that emulate:
// replay-dispatch, replay-mixed and mdsim-roundtrip.
//
// Conservation is the only outside signal of an atom that failed: the
// replay engine swallows atom exceptions, so a failed sample shows up
// only as consumption missing from AtomStats. Each replay is checked
// against the delta table it replayed: compute cycles must equal the
// recorded cycles times the kernel's calibration bias on the active
// resource (within 1%), allocated, written and read bytes must match
// exactly, and every atom must have consumed every sample that had
// work for it.

#include <string>
#include <vector>

#include "emulator/emulator.hpp"
#include "perfbench.hpp"
#include "profile/delta_frame.hpp"

namespace perfbench {

/// What the built-in atoms should consume for one delta table.
struct Expected {
  double cycles = 0.0;      ///< recorded cycles x calibration bias
  double allocated = 0.0;   ///< bytes
  double written = 0.0;     ///< bytes
  double read = 0.0;        ///< bytes
  uint64_t compute_rows = 0;
  uint64_t memory_rows = 0;
  uint64_t storage_rows = 0;
  size_t rows = 0;
};

/// `kernel` is the compute kernel the replay uses (EmulatorOptions).
Expected expected_consumption(const synapse::profile::DeltaTable& table,
                              const std::string& kernel);

/// Layer figures of the traced replays, published as per-layer metrics.
class ReplayFigures {
 public:
  /// Check one replay's conservation (counted in `result`) and, when
  /// `keep`, keep its layer figures (a traced run keeps only its traced
  /// repetitions). `wall` is the replay's wall time as the caller
  /// measured it, startup included.
  void add(const synapse::emulator::EmulationResult& r, const Expected& e,
           double wall, bool keep, Result& result);
  /// Set the emulator.* and atoms.* per-layer metrics.
  void publish(Result& result) const;
  /// Median share of replay wall time not spent in the busiest atom
  /// (startup, plan compile, dispatch and barrier waits).
  double dispatch_share() const;
  /// Median share of replay wall time the busiest atom was busy.
  double atom_share() const;
  double startup_median() const { return median(startup_); }

 private:
  std::vector<double> startup_, replay_, dispatch_us_, idle_share_;
  std::vector<double> dispatch_share_, atom_share_;
  std::vector<double> busy_[3], samples_[3];
  double worst_err_[3] = {0.0, 0.0, 0.0};
};

}  // namespace perfbench
