// WatcherRegistry + SamplingScheduler coverage: declarative watcher
// sets, unknown-name diagnostics, runtime-registered custom watchers,
// per-watcher rates, and multiplexed-vs-thread-per-watcher parity.

#include "watchers/watcher_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "apps/mdsim.hpp"
#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"
#include "watchers/profiler.hpp"
#include "watchers/sampling_scheduler.hpp"
#include "workload/scenario.hpp"

namespace watchers = synapse::watchers;
namespace resource = synapse::resource;
namespace sys = synapse::sys;
namespace m = synapse::metrics;

namespace {

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

/// A trivial custom watcher: counts its own invocations as a metric.
class TickWatcher final : public watchers::Watcher {
 public:
  TickWatcher() : Watcher("tick") {}
  void sample(double now) override {
    ++ticks_;
    const size_t row = series_.samples.add_row(now);
    series_.samples.set(row, "custom.ticks", static_cast<double>(ticks_));
  }

 private:
  uint64_t ticks_ = 0;
};

}  // namespace

TEST(WatcherRegistry, BuiltinsPreRegistered) {
  watchers::WatcherRegistry registry;
  for (const auto& name : watchers::WatcherRegistry::builtin_names()) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_EQ(registry.names().size(),
            watchers::WatcherRegistry::builtin_names().size());
}

TEST(WatcherRegistry, DefaultSetExcludesNet) {
  const auto& defaults = watchers::WatcherRegistry::default_set();
  EXPECT_EQ(std::find(defaults.begin(), defaults.end(), "net"),
            defaults.end());
  // ...but net IS registered, just opt-in.
  EXPECT_TRUE(watchers::WatcherRegistry::instance().contains("net"));
}

TEST(WatcherRegistry, UnknownNameDiagnosticListsRegistered) {
  watchers::WatcherRegistry registry;
  try {
    registry.create("gpu", {});
    FAIL() << "expected ConfigError";
  } catch (const sys::ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("gpu"), std::string::npos);
    EXPECT_NE(message.find("cpu"), std::string::npos);  // the known list
    EXPECT_NE(message.find("net"), std::string::npos);
  }
}

TEST(WatcherRegistry, CreateHonoursBuildContext) {
  watchers::WatcherRegistry registry;
  watchers::WatcherBuildContext ctx;
  auto w = registry.create("net", ctx);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "net");
}

TEST(WatcherRegistry, ProfilerRejectsUnknownWatcherBeforeSpawn) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.watcher_set = {"cpu", "definitely-not-a-watcher"};
  watchers::Profiler profiler(opts);
  // The diagnostic fires before any child process is spawned.
  EXPECT_THROW(profiler.profile("sleep 10"), sys::ConfigError);
}

TEST(WatcherRegistry, RuntimeRegisteredWatcherAppearsInProfile) {
  HostGuard guard;
  watchers::WatcherRegistry registry;  // scoped, not the instance
  registry.register_watcher("tick", [](const watchers::WatcherBuildContext&) {
    return std::make_unique<TickWatcher>();
  });

  watchers::ProfilerOptions opts;
  opts.registry = &registry;
  opts.watcher_set = {"cpu", "tick"};
  opts.sample_rate_hz = 20.0;
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.3");

  const auto* tick = p.find_series("tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_GE(tick->size(), 2u);  // at least one loop + closing sample
  EXPECT_GT(tick->last("custom.ticks"), 0.0);
  // The scoped registration never leaked into the process-wide registry.
  EXPECT_FALSE(watchers::WatcherRegistry::instance().contains("tick"));
}

TEST(WatcherRegistry, WatcherSetDeduplicatesPreservingOrder) {
  watchers::ProfilerOptions opts;
  opts.watcher_set = {"mem", "cpu", "mem", "cpu"};
  watchers::Profiler profiler(opts);
  const auto effective = profiler.effective_watcher_set();
  ASSERT_EQ(effective.size(), 2u);
  EXPECT_EQ(effective[0], "mem");
  EXPECT_EQ(effective[1], "cpu");
}

TEST(SamplingScheduler, ModeParsing) {
  EXPECT_EQ(watchers::scheduler_mode_from_string("thread"),
            watchers::SchedulerMode::ThreadPerWatcher);
  EXPECT_EQ(watchers::scheduler_mode_from_string("thread_per_watcher"),
            watchers::SchedulerMode::ThreadPerWatcher);
  EXPECT_EQ(watchers::scheduler_mode_from_string("multiplexed"),
            watchers::SchedulerMode::Multiplexed);
  EXPECT_THROW(watchers::scheduler_mode_from_string("fancy"),
               sys::ConfigError);
}

TEST(SamplingScheduler, PerWatcherRateOverridesRespected) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.sample_rate_hz = 4.0;
  opts.watcher_rates["cpu"] = 40.0;  // 10x the global rate
  opts.watcher_set = {"cpu", "mem"};
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.5");

  const auto* cpu = p.find_series("cpu");
  const auto* mem = p.find_series("mem");
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(mem, nullptr);
  // ~20 cpu samples vs ~3 mem samples; demand a conservative 2x gap.
  EXPECT_GT(cpu->size(), mem->size() * 2);
  // The per-series metadata records the effective rates.
  EXPECT_DOUBLE_EQ(cpu->sample_rate_hz, 40.0);
  EXPECT_DOUBLE_EQ(mem->sample_rate_hz, 4.0);
}

TEST(SamplingScheduler, MultiplexedModeProfiles) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.scheduler = watchers::SchedulerMode::Multiplexed;
  opts.sample_rate_hz = 20.0;
  watchers::Profiler profiler(opts);
  const auto p = profiler.profile("sleep 0.4");
  EXPECT_GE(p.runtime(), 0.35);
  EXPECT_GT(p.sample_count(), 0u);
  // Every default watcher produced a series (trace drops out only when
  // the side channel is disabled, which it is not here).
  for (const auto& name : watchers::WatcherRegistry::default_set()) {
    EXPECT_NE(p.find_series(name), nullptr) << name;
  }
}

// The parity property the multiplexed mode must keep: on a fixed
// deterministic workload the recorded totals match thread-per-watcher
// within tolerance (the paper's consistency requirement P.4 applied to
// the new run loop).
// Catch-up clamp regression: when the multiplexed loop stalls (a
// suspended child, a watcher whose sample() outlasts the period,
// scheduler starvation), it must fire at most ONE catch-up sample and
// re-anchor its cadence on the post-stall clock — never a burst of
// back-to-back samples. The scheduler's injectable steady clock makes
// the stall deterministic: every sample() advances the fake clock by
// 50 periods, simulating a pathologically slow watcher. The unfixed
// loop re-anchored against the stale loop-top time, degenerating into
// a zero-sleep sampling storm (hundreds of samples in this window).
TEST(SamplingScheduler, MultiplexedClampsCatchUpToOneTickAfterStall) {
  // Single-writer fake clock: only the scheduler thread reads it inside
  // the loop, and only StallingWatcher::sample (same thread) advances it.
  std::atomic<double> fake_now{0.0};

  class StallingWatcher final : public watchers::Watcher {
   public:
    explicit StallingWatcher(std::atomic<double>* clock)
        : Watcher("stall"), clock_(clock) {}
    void sample(double) override {
      ++samples_;
      clock_->store(clock_->load() + 5.0);  // 50x the 0.1 s period
    }
    int samples() const { return samples_; }

   private:
    std::atomic<double>* clock_;
    int samples_ = 0;
  };

  StallingWatcher watcher(&fake_now);
  watchers::WatcherConfig config;
  config.sample_rate_hz = 10.0;  // period 0.1 s on the fake clock

  watchers::SamplingScheduler scheduler(
      watchers::SchedulerMode::Multiplexed,
      [&fake_now] { return fake_now.load(); });
  scheduler.start({&watcher}, config);
  // Real time for the loop to spin; the fake clock only moves when a
  // sample fires, so any extra samples in here are catch-up bursts.
  synapse::sys::sleep_for(0.4);
  scheduler.stop();

  // One initial sample, at most one legitimate catch-up tick, one
  // closing sample from stop(). The pre-fix burst produced dozens to
  // thousands here.
  EXPECT_GE(watcher.samples(), 2);
  EXPECT_LE(watcher.samples(), 4);
}

TEST(SamplingScheduler, MultiplexedMatchesThreadPerWatcherTotals) {
  HostGuard guard;
  synapse::apps::MdOptions md;
  md.steps = 120;
  md.scratch_dir = "/tmp";
  md.write_output = false;

  auto run_with = [&md](watchers::SchedulerMode mode) {
    watchers::ProfilerOptions opts;
    opts.scheduler = mode;
    opts.sample_rate_hz = 25.0;
    watchers::Profiler profiler(opts);
    return profiler.profile_function(
        [md] {
          synapse::apps::run_md(md);
          return 0;
        },
        "mdsim-scheduler-parity");
  };

  const auto threaded = run_with(watchers::SchedulerMode::ThreadPerWatcher);
  const auto muxed = run_with(watchers::SchedulerMode::Multiplexed);

  // mdsim's analytic trace makes the flops deterministic; both modes
  // must capture the same work.
  const double expected = 120.0 * 10500.0 * 400.0;  // steps x pairs x flops
  EXPECT_NEAR(threaded.total(m::kFlops), expected, expected * 0.25);
  EXPECT_NEAR(muxed.total(m::kFlops), expected, expected * 0.25);
  EXPECT_NEAR(muxed.total(m::kFlops), threaded.total(m::kFlops),
              threaded.total(m::kFlops) * 0.25);
  // Wall-clock runtime agrees as well (same child workload).
  EXPECT_NEAR(muxed.runtime(), threaded.runtime(),
              std::max(0.3, threaded.runtime() * 0.5));
}

TEST(WatcherRegistry, ProfileScenarioResolvesScopedRegistry) {
  HostGuard guard;
  watchers::WatcherRegistry registry;  // scoped, not the instance
  registry.register_watcher("tick", [](const watchers::WatcherBuildContext&) {
    return std::make_unique<TickWatcher>();
  });

  synapse::workload::ScenarioSpec spec;
  spec.name = "scoped-watcher";
  spec.atom_set = {"compute"};
  spec.watchers = {"cpu", "tick"};  // "tick" exists only in the scoped registry
  spec.source.samples = 3;
  spec.source.deltas[std::string(m::kCyclesUsed)] = 1e5;

  watchers::ProfilerOptions popts;
  popts.registry = &registry;
  popts.sample_rate_hz = 50.0;
  const auto p = synapse::workload::profile_scenario(spec, popts);
  EXPECT_NE(p.find_series("tick"), nullptr);
  EXPECT_NE(p.find_series("cpu"), nullptr);
}
