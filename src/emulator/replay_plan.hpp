#pragma once
// The compiled form of one replay: everything the feed loop would
// otherwise re-derive per sample, resolved once up front.
//
// Building a plan (1) compiles the profile's deltas into a columnar
// DeltaTable (interned metric lanes — profile/delta_frame.hpp),
// (2) bakes the EmulatorOptions workload scale factors into the
// affected lanes as one contiguous multiply each (identity scaling is
// skipped entirely), and (3) resolves every atom's wanted_metrics()
// against the lane table into a LaneMask, so per-sample dispatch is a
// couple of dense lane reads instead of string-keyed map probes. Atoms
// that declare metrics none of which were recorded are marked idle and
// never dispatched to; atoms that declare nothing get the adapter mask
// (per-row unbox + wants()/consume() keeps them correct).

#include <memory>
#include <vector>

#include "atoms/atom.hpp"
#include "emulator/emulator.hpp"
#include "profile/delta_frame.hpp"
#include "profile/profile.hpp"

namespace synapse::emulator {

class ReplayPlan {
 public:
  /// Compiles the profile + options for `active`; calls bind_lanes() on
  /// every atom. The plan must outlive every frame fed from it.
  ReplayPlan(const profile::Profile& profile, const EmulatorOptions& opts,
             const std::vector<std::unique_ptr<atoms::Atom>>& active);

  const profile::DeltaTable& table() const { return table_; }
  /// Mask of active[atom_index] (same indexing as the constructor arg).
  const atoms::LaneMask& mask(size_t atom_index) const {
    return masks_[atom_index];
  }

 private:
  profile::DeltaTable table_;
  std::vector<atoms::LaneMask> masks_;
};

}  // namespace synapse::emulator
