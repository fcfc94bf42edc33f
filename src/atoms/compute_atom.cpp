#include "atoms/compute_atom.hpp"

#include <exception>

#include "profile/metrics.hpp"
#include "resource/cache_model.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"

namespace synapse::atoms {

namespace m = synapse::metrics;

ComputeAtom::ComputeAtom(ComputeAtomOptions options)
    : Atom("compute"), options_(std::move(options)) {
  if (options_.kernel == "omp" && options_.omp_threads > 0) {
    kernel_ = make_omp_kernel(options_.omp_threads);
  } else {
    kernel_ = KernelRegistry::instance().create(options_.kernel);
  }
}

bool ComputeAtom::wants(const profile::SampleDelta& delta) const {
  return delta.get(m::kCyclesUsed) > 0;
}

std::vector<std::string> ComputeAtom::wanted_metrics() const {
  return {std::string(m::kCyclesUsed)};
}

void ComputeAtom::bind_lanes(const profile::LaneTable& lanes) {
  lane_cycles_ = lanes.id(m::kCyclesUsed);
}

void ComputeAtom::consume_frame(const profile::DeltaFrame& frame,
                                const LaneMask& mask) {
  for (size_t row = 0; row < frame.rows(); ++row) {
    if (!mask.row_wanted(frame, row)) continue;
    try {
      consume_cycles(frame.get(lane_cycles_, row));
    } catch (const std::exception&) {
      ++stats_.errors;  // same contract as consume(): count, never propagate
    }
  }
}

void ComputeAtom::consume(const profile::SampleDelta& delta) {
  consume_cycles(delta.get(m::kCyclesUsed));
}

void ComputeAtom::consume_cycles(double cycles) {
  if (cycles <= 0) return;

  const auto& spec = resource::active_resource();
  const auto& traits = kernel_->traits();
  const double bias = resource::calibration_bias(traits, spec);
  const double actual_cycles = cycles * bias;
  const double seconds =
      resource::seconds_for_cycles(spec, actual_cycles) * options_.time_scale;

  const double start = sys::steady_now();
  kernel_->busy(seconds);
  stats_.busy_seconds += sys::steady_now() - start;

  const double ipc = resource::effective_ipc(traits, spec);
  const double flops = actual_cycles * ipc / traits.instructions_per_flop;
  const double instructions =
      resource::instructions_for_flops(traits, flops);
  stats_.cycles += actual_cycles;
  stats_.flops += flops;
  stats_.samples_consumed += 1;

  if (trace_ != nullptr) {
    trace_->add_counters(static_cast<uint64_t>(flops),
                         static_cast<uint64_t>(instructions),
                         static_cast<uint64_t>(actual_cycles));
  }
}

}  // namespace synapse::atoms
