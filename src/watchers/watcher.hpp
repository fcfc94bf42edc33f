#pragma once
// Watcher plugin interface (paper section 4.1).
//
// Each watcher observes one type of system resource of the profiled
// process and runs in its own thread:
//
//   pre_process()  - set up the profiling environment
//   sample(now)    - invoked at the configured rate by the run loop
//   post_process() - tear down
//   finalize(all)  - may access the raw results of *other* watchers to
//                    derive totals without duplicating measurements
//
// Timestamps are taken per watcher and never synchronised across
// watchers (the paper found synchronisation overhead worse than drift).

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "profile/profile.hpp"

namespace synapse::watchers {

/// Open/close-gate parameters of one watcher under the Adaptive
/// scheduler (sampling_scheduler.hpp). The gate decides which of two
/// rates the watcher runs at:
///
///   closed - the watcher is only poll()ed at `floor_hz`; no samples are
///     taken, so an idle phase costs near-zero samples.
///   open   - full sample()s at `burst_hz`; poll() activity above
///     `open_threshold` keeps it open, `close_hold_s` of quiet closes it.
///
/// The defaults mirror the legacy startup-window decay they subsume
/// (adaptive_floor_hz=1, adaptive_window_s=2), so mapping old flags onto
/// the gate is the identity unless the user overrode them.
struct GateParams {
  double floor_hz = 1.0;  ///< poll rate while the gate is closed
  /// Sample rate while open; 0 = the watcher's configured sampling rate
  /// (rate_for), which is the resolved value everywhere downstream.
  double burst_hz = 0.0;
  /// poll() delta that counts as activity (strictly greater-than, so
  /// the default 0 opens on ANY positive counter movement).
  double open_threshold = 0.0;
  double close_hold_s = 2.0;  ///< quiet time before the gate closes
};

/// Configuration shared by all watchers of one profiling run.
struct WatcherConfig {
  pid_t pid = 0;               ///< observed process
  double sample_rate_hz = 10;  ///< global sampling rate
  /// Adaptive sampling (paper section 6 "Sampling Rate", implemented as
  /// an extension): sample at `sample_rate_hz` for `adaptive_window_s`
  /// seconds, then decay to `adaptive_floor_hz`.
  ///
  /// Under SchedulerMode::Adaptive these legacy knobs are subsumed by
  /// the gate (Profiler maps adaptive_floor_hz -> gate.floor_hz and
  /// adaptive_window_s -> gate.close_hold_s); the decay itself only
  /// applies in the thread/multiplexed modes.
  bool adaptive = false;
  double adaptive_window_s = 2.0;
  double adaptive_floor_hz = 1.0;
  /// Gate defaults for SchedulerMode::Adaptive, plus per-watcher
  /// overrides (watcher name -> params); ignored by the other modes.
  GateParams gate;
  std::map<std::string, GateParams> gate_overrides;
  /// Estimate I/O block sizes from byte/op deltas (blktrace stand-in).
  bool estimate_block_sizes = true;
  /// Path of the cooperative counter trace file ("" disables).
  std::string trace_path;
  /// Per-watcher sampling-rate overrides (watcher name -> Hz); watchers
  /// not listed sample at the global `sample_rate_hz`.
  std::map<std::string, double> rate_overrides;

  /// Configured sampling rate of one watcher. Non-positive rates are
  /// rejected with sys::ConfigError at Profiler::prepare_run() time;
  /// direct scheduler users get the scheduler's defensive 1 Hz fallback
  /// instead of a silent clamp here.
  double rate_for(const std::string& watcher) const {
    const auto it = rate_overrides.find(watcher);
    return it != rate_overrides.end() ? it->second : sample_rate_hz;
  }

  /// Resolved gate of one watcher: the per-watcher override when
  /// present, else the shared defaults, with burst_hz=0 resolved to the
  /// watcher's configured sampling rate.
  GateParams gate_for(const std::string& watcher) const {
    const auto it = gate_overrides.find(watcher);
    GateParams g = it != gate_overrides.end() ? it->second : gate;
    if (g.burst_hz <= 0.0) g.burst_hz = rate_for(watcher);
    return g;
  }
};

class Watcher {
 public:
  explicit Watcher(std::string name) : name_(std::move(name)) {
    series_.watcher = name_;
  }
  virtual ~Watcher() = default;

  const std::string& name() const { return name_; }

  virtual void pre_process(const WatcherConfig& config) { config_ = config; }

  /// Take one sample at wall-clock time `now`. Must be cheap and must
  /// never throw: a vanished process is recorded as a missed sample.
  virtual void sample(double now) = 0;

  virtual void post_process() {}

  /// Cheap activity probe for the Adaptive scheduler's gate: |delta| of
  /// the watcher's primary cumulative counter since the last poll().
  /// Returns 0.0 on the first call (it establishes the baseline) and
  /// whenever the counter is unreadable (vanished process). Costs one
  /// counter read — no sample is recorded, no allocation beyond the
  /// procfs read itself.
  double poll() {
    const std::optional<double> v = activity_counter();
    if (!v.has_value()) return 0.0;
    if (!polled_) {
      polled_ = true;
      poll_baseline_ = *v;
      return 0.0;
    }
    const double delta = std::fabs(*v - poll_baseline_);
    poll_baseline_ = *v;
    return delta;
  }

  /// Contribute totals; may inspect other watchers' series.
  virtual void finalize(const std::vector<const Watcher*>& all,
                        std::map<std::string, double>& totals) {
    (void)all;
    (void)totals;
  }

  /// The samples collected so far (owned by the watcher).
  const profile::TimeSeries& series() const { return series_; }

 protected:
  /// The primary cumulative counter poll() differences: each built-in
  /// returns its cheapest always-moving-under-load counter (cpu: CPU
  /// ticks, io: bytes requested, net: interface bytes, ...). nullopt =
  /// unreadable right now; the base default keeps the gate permanently
  /// quiet for watchers that do not implement a probe.
  virtual std::optional<double> activity_counter() { return std::nullopt; }

  WatcherConfig config_;
  profile::TimeSeries series_;

 private:
  std::string name_;
  bool polled_ = false;
  double poll_baseline_ = 0.0;
};

/// Find a sibling watcher by name in the finalize() argument.
const Watcher* find_watcher(const std::vector<const Watcher*>& all,
                            std::string_view name);

}  // namespace synapse::watchers
