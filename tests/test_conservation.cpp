// Conservation properties: the emulator's central invariant is that it
// consumes exactly the resources the profile records (scaled by the
// overrides), on EVERY virtual resource and with EVERY kernel, modulo
// the per-kernel calibration bias the model prescribes. Parameterized
// sweep across the full (machine x kernel) grid.

#include <gtest/gtest.h>

#include <tuple>

#include "core/synapse.hpp"
#include "profile/metrics.hpp"
#include "resource/cache_model.hpp"
#include "resource/resource_spec.hpp"

namespace emulator = synapse::emulator;
namespace resource = synapse::resource;
namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Profile synthetic_profile(double cycles_total, double bytes_total,
                                   double alloc_total) {
  profile::Profile p;
  p.command = "synthetic";
  p.sample_rate_hz = 10.0;
  profile::TimeSeries trace;
  trace.watcher = "trace";
  constexpr int kSamples = 4;
  for (int i = 1; i <= kSamples; ++i) {
    const size_t row = trace.samples.add_row(100.0 + i * 0.1);
    trace.samples.set(row, m::kCyclesUsed, cycles_total * i / kSamples);
    trace.samples.set(row, m::kMemAllocated, alloc_total * i / kSamples);
    trace.samples.set(row, m::kBytesWritten, bytes_total * i / kSamples);
  }
  p.series.push_back(std::move(trace));
  return p;
}

const resource::KernelTraits& traits_of(const std::string& kernel) {
  return kernel == "c" ? resource::c_kernel_traits()
                       : resource::asm_kernel_traits();
}

}  // namespace

class Conservation
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  void TearDown() override { resource::activate_resource("host"); }
};

TEST_P(Conservation, CyclesMatchModelBias) {
  const auto& [machine, kernel] = GetParam();
  resource::activate_resource(machine);

  const double requested = 2e8;
  const auto p = synthetic_profile(requested, 0, 0);

  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  opts.emulate_storage = false;
  opts.emulate_memory = false;
  opts.compute.kernel = kernel;
  const auto r = synapse::emulate_profile(p, opts);

  const double bias =
      resource::calibration_bias(traits_of(kernel), resource::active_resource());
  EXPECT_NEAR(r.compute.cycles, requested * bias, requested * 0.01)
      << machine << "/" << kernel;
  EXPECT_EQ(r.samples_replayed, 4u);
}

TEST_P(Conservation, BytesConservedExactly) {
  const auto& [machine, kernel] = GetParam();
  resource::activate_resource(machine);

  const auto p = synthetic_profile(0, 512.0 * 1024, 2.0 * 1024 * 1024);
  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  opts.emulate_compute = false;
  opts.compute.kernel = kernel;
  const auto r = synapse::emulate_profile(p, opts);

  EXPECT_EQ(r.storage.bytes_written, 512u * 1024) << machine;
  EXPECT_EQ(r.memory.bytes_allocated, 2u * 1024 * 1024) << machine;
}

TEST_P(Conservation, WallTimeTracksModelPrediction) {
  const auto& [machine, kernel] = GetParam();
  resource::activate_resource(machine);
  const auto& spec = resource::active_resource();

  const double requested = 0.15 * spec.turbo_hz;  // ~0.15 s x bias
  const auto p = synthetic_profile(requested, 0, 0);

  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  opts.emulate_storage = false;
  opts.emulate_memory = false;
  opts.compute.kernel = kernel;
  const auto r = synapse::emulate_profile(p, opts);

  const double bias = resource::calibration_bias(traits_of(kernel), spec);
  const double predicted = requested * bias / spec.turbo_hz;
  EXPECT_GE(r.wall_seconds, predicted * 0.9) << machine << "/" << kernel;
  EXPECT_LE(r.wall_seconds, predicted * 1.6 + 0.1) << machine << "/" << kernel;
}

INSTANTIATE_TEST_SUITE_P(
    MachineKernelGrid, Conservation,
    ::testing::Combine(::testing::Values("host", "thinkie", "stampede",
                                         "archer", "comet", "supermic",
                                         "titan"),
                       ::testing::Values("asm", "c")),
    [](const ::testing::TestParamInfo<Conservation::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });
