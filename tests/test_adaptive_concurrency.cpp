// Adaptive scheduler under concurrent activity: workload threads drive
// the watchers' activity counters while the gate loop polls and
// samples. Runs in the concurrency suite (and under TSan in CI) to
// catch data races between the probe path and the sampling path.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "sys/clock.hpp"
#include "watchers/sampling_scheduler.hpp"
#include "watchers/watcher.hpp"

namespace watchers = synapse::watchers;
namespace sys = synapse::sys;

namespace {

/// Activity counter fed from another thread; sample() reads it too, so
/// both scheduler paths touch the shared state the workload mutates.
class SharedCounterWatcher final : public watchers::Watcher {
 public:
  explicit SharedCounterWatcher(std::string name, std::atomic<long>* counter)
      : Watcher(std::move(name)), counter_(counter) {}

  void sample(double now) override {
    const size_t row = series_.samples.add_row(now);
    series_.samples.set(row, "custom.shared",
                        static_cast<double>(counter_->load()));
  }

 protected:
  std::optional<double> activity_counter() override {
    return static_cast<double>(counter_->load());
  }

 private:
  std::atomic<long>* counter_;
};

}  // namespace

TEST(AdaptiveGateConcurrency, WorkloadThreadsDriveGatesRaceFree) {
  constexpr int kWatchers = 4;
  std::vector<std::atomic<long>> counters(kWatchers);
  std::vector<std::unique_ptr<SharedCounterWatcher>> owned;
  std::vector<watchers::Watcher*> borrowed;
  for (int i = 0; i < kWatchers; ++i) {
    owned.push_back(std::make_unique<SharedCounterWatcher>(
        "shared" + std::to_string(i), &counters[i]));
    borrowed.push_back(owned.back().get());
  }

  watchers::WatcherConfig config;
  config.sample_rate_hz = 200.0;
  config.gate.floor_hz = 50.0;
  config.gate.close_hold_s = 0.05;

  watchers::SamplingScheduler scheduler(watchers::SchedulerMode::Adaptive);
  scheduler.start(borrowed, config);

  // Each workload thread alternates bursts and quiet so every gate
  // opens, closes and reopens while the others are mid-transition.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < kWatchers; ++i) {
    workers.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 20 && !stop.load(std::memory_order_relaxed);
             ++k) {
          counters[i].fetch_add(1);
          sys::sleep_for(0.002);
        }
        sys::sleep_for(0.08);  // quiet: past close_hold_s
      }
    });
  }
  sys::sleep_for(0.6);
  stop.store(true);
  for (auto& t : workers) t.join();
  scheduler.stop();

  for (const auto& w : owned) {
    const auto& ts = w->series();
    // Every watcher sampled (startup burst + closing sample at least)
    // and timestamps are strictly ordered — the gate loop never raced
    // its own series.
    ASSERT_GE(ts.size(), 2u) << w->name();
    for (size_t i = 1; i < ts.samples.size(); ++i) {
      EXPECT_LE(ts.samples[i - 1].timestamp, ts.samples[i].timestamp)
          << w->name();
    }
  }
}
