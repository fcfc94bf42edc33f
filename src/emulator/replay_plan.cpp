#include "emulator/replay_plan.hpp"

#include <string_view>

#include "profile/metrics.hpp"

namespace synapse::emulator {

namespace m = synapse::metrics;

ReplayPlan::ReplayPlan(
    const profile::Profile& profile, const EmulatorOptions& opts,
    const std::vector<std::unique_ptr<atoms::Atom>>& active)
    : table_(profile.delta_table()) {
  // Bake the workload overrides into the lanes they touch: one
  // contiguous multiply per lane instead of a map find per sample.
  // Absent cells hold 0.0 and stay 0.0, so presence is unaffected.
  const auto scale = [this](std::string_view key, double factor) {
    table_.scale_lane(table_.lanes().id(key), factor);
  };
  if (opts.cycle_scale != 1.0) {
    scale(m::kCyclesUsed, opts.cycle_scale);
    scale(m::kInstructions, opts.cycle_scale);
    scale(m::kFlops, opts.cycle_scale);
  }
  if (opts.memory_scale != 1.0) {
    scale(m::kMemAllocated, opts.memory_scale);
    scale(m::kMemFreed, opts.memory_scale);
  }
  if (opts.io_scale != 1.0) {
    scale(m::kBytesRead, opts.io_scale);
    scale(m::kBytesWritten, opts.io_scale);
  }

  masks_.reserve(active.size());
  for (const auto& atom : active) {
    atoms::LaneMask mask;
    const std::vector<std::string> wanted = atom->wanted_metrics();
    if (wanted.empty()) {
      // Undeclared routing: the atom may want anything, so it keeps the
      // per-sample wants() probe through the adapter path.
      mask.adapter = true;
    } else {
      for (const auto& name : wanted) {
        const uint32_t lane = table_.lanes().id(name);
        if (lane != profile::LaneTable::kNoLane) mask.triggers.push_back(lane);
      }
      // Every declared metric is unrecorded: no row can ever trigger,
      // so the feed loop drops the atom from dispatch entirely.
      mask.idle = mask.triggers.empty();
    }
    atom->bind_lanes(table_.lanes());
    masks_.push_back(std::move(mask));
  }
}

}  // namespace synapse::emulator
