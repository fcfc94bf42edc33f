// Failure injection: the profiler and emulator must degrade gracefully
// when the observed application crashes, exits instantly, or the
// environment misbehaves — requirement P.2/P.3 imply the tooling never
// makes a flaky application flakier.

#include <gtest/gtest.h>

#include <csignal>

#include "core/synapse.hpp"
#include "docstore/docstore.hpp"
#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/spawn.hpp"
#include "watchers/profiler.hpp"

namespace watchers = synapse::watchers;
namespace profile = synapse::profile;
namespace resource = synapse::resource;
namespace sys = synapse::sys;
namespace m = synapse::metrics;

namespace {
struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};
}  // namespace

TEST(FailureInjection, ProfiledAppCrashesMidRun) {
  HostGuard guard;
  watchers::ProfilerOptions opts;
  opts.sample_rate_hz = 50.0;
  watchers::Profiler profiler(opts);
  // The child burns CPU for a moment and then dies on SIGKILL.
  const auto p = profiler.profile_function(
      [] {
        const double until = sys::steady_now() + 0.2;
        volatile double x = 1.0;
        while (sys::steady_now() < until) x = x * 1.0000001 + 1e-9;
        ::raise(SIGKILL);
        return 0;
      },
      "crashy-app");
  // Profiling completes with the data gathered so far.
  EXPECT_GE(p.runtime(), 0.15);
  EXPECT_GT(p.sample_count(), 0u);
}

TEST(FailureInjection, InstantExitStillProfiles) {
  HostGuard guard;
  watchers::Profiler profiler;
  const auto p = profiler.profile("true");
  EXPECT_GE(p.runtime(), 0.0);
  EXPECT_LT(p.runtime(), 1.0);
  // The rusage correction covers even the zero-sample case.
  EXPECT_GT(p.total(m::kMemPeak), 0.0);
}

TEST(FailureInjection, NonExistentBinaryRecordedNotThrown) {
  HostGuard guard;
  watchers::Profiler profiler;
  const auto p = profiler.profile("/definitely/not/here");
  ASSERT_FALSE(p.tags.empty());
  EXPECT_EQ(p.tags.back(), "exit_code=127");
}

TEST(FailureInjection, EmulationOfCorruptProfileIsBounded) {
  HostGuard guard;
  // A profile with nonsense values (negative deltas, absurd timestamps)
  // must not hang or crash the emulator.
  profile::Profile p;
  p.sample_rate_hz = 10.0;
  profile::TimeSeries ts;
  ts.watcher = "trace";
  for (int i = 0; i < 3; ++i) {
    const size_t row = ts.samples.add_row(1000.0 - i);  // decreasing
    ts.samples.set(row, m::kCyclesUsed, i % 2 == 0 ? -1e9 : 1e6);
  }
  p.series.push_back(std::move(ts));

  synapse::emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  const sys::Stopwatch sw;
  const auto r = synapse::emulate_profile(p, opts);
  EXPECT_LT(sw.elapsed(), 5.0);
  (void)r;
}

TEST(FailureInjection, DocstoreSurvivesCorruptCollectionFile) {
  const std::string dir = "/tmp/synapse_corrupt_store";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  // A valid store next to a corrupt file: construction must throw a
  // JsonError (diagnosable), not crash.
  std::system(("echo 'not json' > " + dir + "/bad.collection.json").c_str());
  EXPECT_THROW(synapse::docstore::Store store(dir),
               synapse::json::JsonError);
  std::system(("rm -rf " + dir).c_str());
}

TEST(FailureInjection, WatcherSurvivesChildExitBetweenSamples) {
  HostGuard guard;
  // Race the watchers hard: profile a process that exits in ~10 ms at a
  // 200 Hz sampling rate; many samples land after the exit.
  watchers::ProfilerOptions opts;
  opts.sample_rate_hz = 200.0;
  watchers::Profiler profiler(opts);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW({
      const auto p = profiler.profile("sleep 0.01");
      EXPECT_GE(p.runtime(), 0.0);
    });
  }
}

TEST(FailureInjection, SessionEmulateAfterStoreDeletedThrows) {
  HostGuard guard;
  const std::string dir = "/tmp/synapse_vanishing_store";
  std::system(("rm -rf " + dir).c_str());
  synapse::SessionOptions opts;
  opts.store_dir = dir;
  synapse::Session session(opts);
  session.profile("true");
  std::system(("rm -rf " + dir).c_str());
  EXPECT_THROW(session.emulate("true"), sys::ProfileNotFound);
}
