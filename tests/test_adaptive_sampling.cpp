// Adaptive (edge-triggered) sampling coverage: Watcher::poll()
// semantics, gate resolution, the Adaptive scheduler's open/close state
// machine, and the Profiler-level wiring (validation diagnostics,
// variable-rate series metadata, legacy flag mapping).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"
#include "watchers/profiler.hpp"
#include "watchers/sampling_scheduler.hpp"
#include "watchers/watcher.hpp"

namespace watchers = synapse::watchers;
namespace resource = synapse::resource;
namespace sys = synapse::sys;

namespace {

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

/// Watcher whose activity counter is a test-controlled value; records
/// the counter into a metric on every sample so the series mirrors the
/// gate's decisions. The counter is atomic so a workload thread can
/// drive activity while the scheduler thread polls.
class PulseWatcher final : public watchers::Watcher {
 public:
  PulseWatcher() : Watcher("pulse") {}

  void sample(double now) override {
    const size_t row = series_.samples.add_row(now);
    series_.samples.set(row, "custom.pulse",
                        static_cast<double>(counter_.load()));
  }

  void bump(long amount = 1) { counter_.fetch_add(amount); }
  void set_unreadable(bool v) { unreadable_.store(v); }

 protected:
  std::optional<double> activity_counter() override {
    if (unreadable_.load()) return std::nullopt;
    return static_cast<double>(counter_.load());
  }

 private:
  std::atomic<long> counter_{0};
  std::atomic<bool> unreadable_{false};
};

std::vector<double> gaps_of(const synapse::profile::TimeSeries& ts) {
  std::vector<double> gaps;
  for (size_t i = 1; i < ts.samples.size(); ++i) {
    gaps.push_back(ts.samples[i].timestamp - ts.samples[i - 1].timestamp);
  }
  return gaps;
}

}  // namespace

TEST(WatcherPoll, FirstCallBaselinesThenReportsAbsoluteDelta) {
  PulseWatcher w;
  w.bump(100);
  EXPECT_DOUBLE_EQ(w.poll(), 0.0);  // baseline, not a 100-delta
  w.bump(7);
  EXPECT_DOUBLE_EQ(w.poll(), 7.0);
  EXPECT_DOUBLE_EQ(w.poll(), 0.0);  // no movement since
  w.bump(-3);
  EXPECT_DOUBLE_EQ(w.poll(), 3.0);  // |delta|, a shrinking counter counts
}

TEST(WatcherPoll, UnreadableCounterIsQuietNotAnEdge) {
  PulseWatcher w;
  w.poll();  // baseline
  w.bump(50);
  w.set_unreadable(true);
  EXPECT_DOUBLE_EQ(w.poll(), 0.0);  // vanished process: quiet, not 50
  w.set_unreadable(false);
  // Baseline survived the unreadable stretch; the movement registers.
  EXPECT_DOUBLE_EQ(w.poll(), 50.0);
}

TEST(WatcherPoll, BaseClassWithoutProbeStaysQuiet) {
  class NoProbe final : public watchers::Watcher {
   public:
    NoProbe() : Watcher("noprobe") {}
    void sample(double now) override { series_.samples.add_row(now); }
  };
  NoProbe w;
  EXPECT_DOUBLE_EQ(w.poll(), 0.0);
  EXPECT_DOUBLE_EQ(w.poll(), 0.0);
}

TEST(GateParams, GateForResolvesOverridesAndBurstRate) {
  watchers::WatcherConfig config;
  config.sample_rate_hz = 25.0;
  config.rate_overrides["cpu"] = 80.0;
  config.gate.floor_hz = 2.0;
  config.gate.close_hold_s = 0.5;
  watchers::GateParams io_gate;
  io_gate.floor_hz = 0.25;
  io_gate.burst_hz = 40.0;
  io_gate.open_threshold = 4096.0;
  config.gate_overrides["io"] = io_gate;

  // Shared defaults, burst_hz=0 resolved to the watcher's rate.
  const auto mem = config.gate_for("mem");
  EXPECT_DOUBLE_EQ(mem.floor_hz, 2.0);
  EXPECT_DOUBLE_EQ(mem.burst_hz, 25.0);
  EXPECT_DOUBLE_EQ(mem.close_hold_s, 0.5);
  // ...including per-watcher rate overrides.
  EXPECT_DOUBLE_EQ(config.gate_for("cpu").burst_hz, 80.0);
  // Per-watcher gate override wins wholesale.
  const auto io = config.gate_for("io");
  EXPECT_DOUBLE_EQ(io.floor_hz, 0.25);
  EXPECT_DOUBLE_EQ(io.burst_hz, 40.0);
  EXPECT_DOUBLE_EQ(io.open_threshold, 4096.0);
}

TEST(SchedulerMode, AdaptiveParsesAndNamesRoundTrip) {
  EXPECT_EQ(watchers::scheduler_mode_from_string("adaptive"),
            watchers::SchedulerMode::Adaptive);
  for (const auto mode :
       {watchers::SchedulerMode::ThreadPerWatcher,
        watchers::SchedulerMode::Multiplexed,
        watchers::SchedulerMode::Adaptive}) {
    EXPECT_EQ(watchers::scheduler_mode_from_string(
                  watchers::scheduler_mode_name(mode)),
              mode);
  }
}

// An idle watcher: the startup burst is the only open phase. After
// close_hold_s of quiet the gate closes and the watcher is only polled,
// so the sample count stays far below burst_rate * runtime.
TEST(AdaptiveScheduler, IdleWatcherDecaysToFloorAfterStartupBurst) {
  PulseWatcher watcher;  // counter never moves: permanently quiet
  watchers::WatcherConfig config;
  config.sample_rate_hz = 100.0;  // burst rate (gate.burst_hz = 0)
  config.gate.floor_hz = 10.0;
  config.gate.close_hold_s = 0.1;

  watchers::SamplingScheduler scheduler(watchers::SchedulerMode::Adaptive);
  scheduler.start({&watcher}, config);
  sys::sleep_for(0.8);
  scheduler.stop();

  const auto& ts = watcher.series();
  // Open for ~0.1 s at <=100 Hz, then closed for ~0.7 s (no samples),
  // plus the closing sample. A fixed 100 Hz run would take ~80.
  EXPECT_GE(ts.size(), 2u);
  EXPECT_LE(ts.size(), 40u);
  // The closed stretch shows up as one large inter-sample gap.
  const auto gaps = gaps_of(ts);
  ASSERT_FALSE(gaps.empty());
  EXPECT_GE(*std::max_element(gaps.begin(), gaps.end()), 0.3);
}

// Edge-triggered reopen: a quiet stretch closes the gate, counter
// movement above the threshold reopens it and the burst is densely
// sampled again.
TEST(AdaptiveScheduler, EdgeReopensGateAndBurstIsDenselySampled) {
  PulseWatcher watcher;
  watchers::WatcherConfig config;
  config.sample_rate_hz = 100.0;
  config.gate.floor_hz = 20.0;  // <=50 ms edge-detection latency
  config.gate.close_hold_s = 0.15;

  watchers::SamplingScheduler scheduler(watchers::SchedulerMode::Adaptive);
  scheduler.start({&watcher}, config);
  sys::sleep_for(0.4);  // idle: startup burst closes after ~0.15 s
  const double burst_start = sys::wallclock_now();
  const double deadline = burst_start + 0.4;
  while (sys::wallclock_now() < deadline) {
    watcher.bump();
    sys::sleep_for(0.005);
  }
  sys::sleep_for(0.1);
  scheduler.stop();

  const auto& ts = watcher.series();
  const auto gaps = gaps_of(ts);
  ASSERT_GE(ts.size(), 8u);
  // The closed idle stretch: at least one gap well above the burst
  // period (10 ms) but the series kept sampling across the whole run.
  EXPECT_GE(*std::max_element(gaps.begin(), gaps.end()), 0.1);
  // Dense burst coverage: several samples landed inside the active
  // window at (near-)burst spacing.
  size_t in_burst = 0;
  for (const double t : ts.samples.timestamps()) {
    if (t >= burst_start && t <= deadline) ++in_burst;
  }
  EXPECT_GE(in_burst, 5u);
  // ...while the total stays adaptive: well under 100 Hz * ~0.9 s.
  EXPECT_LE(ts.size(), 70u);
}

TEST(Profiler, RejectsNonPositiveRateNamingTheWatcher) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.watcher_set = {"cpu", "mem"};
  opts.watcher_rates["mem"] = 0.0;
  watchers::Profiler profiler(opts);
  try {
    profiler.profile("sleep 5");
    FAIL() << "expected ConfigError";
  } catch (const sys::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("mem"), std::string::npos)
        << e.what();
  }
}

TEST(Profiler, RejectsNonPositiveGlobalRate) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.sample_rate_hz = -5.0;
  watchers::Profiler profiler(opts);
  EXPECT_THROW(profiler.profile("sleep 5"), sys::ConfigError);
}

TEST(Profiler, RejectsInvalidGateNamingTheWatcher) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.watcher_set = {"cpu", "io"};
  opts.watcher_gates["io"].floor_hz = -1.0;
  watchers::Profiler profiler(opts);
  try {
    profiler.profile("sleep 5");
    FAIL() << "expected ConfigError";
  } catch (const sys::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("io"), std::string::npos) << e.what();
  }
}

TEST(Profiler, AdaptiveRunRecordsVariableRateSeriesWithGateMetadata) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.scheduler = watchers::SchedulerMode::Adaptive;
  opts.sample_rate_hz = 50.0;
  opts.gate.floor_hz = 5.0;
  opts.gate.close_hold_s = 0.25;
  opts.watcher_set = {"cpu", "mem"};
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.4");

  EXPECT_TRUE(p.variable_rate());
  for (const auto& ts : p.series) {
    EXPECT_TRUE(ts.variable_rate) << ts.watcher;
    EXPECT_TRUE(ts.gate.any()) << ts.watcher;
    EXPECT_DOUBLE_EQ(ts.gate.floor_hz, 5.0);
    EXPECT_DOUBLE_EQ(ts.gate.burst_hz, 50.0);  // resolved from the rate
    EXPECT_DOUBLE_EQ(ts.gate.close_hold_s, 0.25);
    EXPECT_DOUBLE_EQ(ts.sample_rate_hz, 50.0);
  }
}

TEST(Profiler, FixedRateRunsRecordNoVariableRateFlag) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.scheduler = watchers::SchedulerMode::Multiplexed;
  opts.sample_rate_hz = 30.0;
  opts.watcher_set = {"cpu"};
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.2");
  EXPECT_FALSE(p.variable_rate());
  for (const auto& ts : p.series) {
    EXPECT_FALSE(ts.variable_rate);
    EXPECT_FALSE(ts.gate.any());
  }
}

// Old --adaptive flags keep their meaning under the new scheduler: the
// decay floor becomes the gate floor, the startup window the quiet hold.
TEST(Profiler, LegacyAdaptiveFlagsMapOntoTheGate) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.scheduler = watchers::SchedulerMode::Adaptive;
  opts.sample_rate_hz = 40.0;
  opts.adaptive = true;
  opts.adaptive_floor_hz = 3.5;
  opts.adaptive_window_s = 0.3;
  opts.watcher_set = {"mem"};
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.2");
  const auto* mem = p.find_series("mem");
  ASSERT_NE(mem, nullptr);
  EXPECT_DOUBLE_EQ(mem->gate.floor_hz, 3.5);
  EXPECT_DOUBLE_EQ(mem->gate.close_hold_s, 0.3);
}

// An explicit gate setting wins over the legacy mapping.
TEST(Profiler, ExplicitGateBeatsLegacyAdaptiveFlags) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.scheduler = watchers::SchedulerMode::Adaptive;
  opts.sample_rate_hz = 40.0;
  opts.adaptive = true;
  opts.adaptive_floor_hz = 3.5;
  opts.gate.floor_hz = 8.0;  // explicit: not the GateParams default
  opts.watcher_set = {"mem"};
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.2");
  const auto* mem = p.find_series("mem");
  ASSERT_NE(mem, nullptr);
  EXPECT_DOUBLE_EQ(mem->gate.floor_hz, 8.0);
}
