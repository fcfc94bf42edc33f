#include "watchers/cpu_watcher.hpp"

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"
#include "watchers/trace_watcher.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void CpuWatcher::pre_process(const WatcherConfig& config) {
  Watcher::pre_process(config);
  backend_ = sys::make_counter_backend(config.pid);
}

void CpuWatcher::sample(double now) {
  if (!backend_) return;
  const auto snap = backend_->read();
  if (!snap) return;  // process gone: miss the sample, don't fail

  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  rows.set(row, m::kCyclesUsed, static_cast<double>(snap->cycles));
  rows.set(row, m::kInstructions, static_cast<double>(snap->instructions));
  rows.set(row, m::kCyclesStalledFrontend,
           static_cast<double>(snap->stalled_frontend));
  rows.set(row, m::kCyclesStalledBackend,
           static_cast<double>(snap->stalled_backend));
  rows.set(row, m::kTaskClock, snap->task_clock_seconds);
  if (const auto stat = sys::read_proc_stat(config_.pid)) {
    rows.set(row, m::kNumThreads, static_cast<double>(stat->num_threads));
  }
}

std::optional<double> CpuWatcher::activity_counter() {
  const auto stat = sys::read_proc_stat(config_.pid);
  if (!stat) return std::nullopt;
  return static_cast<double>(stat->utime_ticks + stat->stime_ticks);
}

void CpuWatcher::finalize(const std::vector<const Watcher*>& all,
                          std::map<std::string, double>& totals) {
  // Prefer the application's analytic counters when available: they are
  // what a hardware PMU would have reported (DESIGN.md section 1). The
  // task clock and thread count are ours either way.
  const Watcher* trace = find_watcher(all, "trace");
  const bool trace_has_data =
      trace != nullptr && trace->series().last(m::kFlops) > 0;

  if (!trace_has_data) {
    totals[std::string(m::kCyclesUsed)] = series_.last(m::kCyclesUsed);
    totals[std::string(m::kInstructions)] = series_.last(m::kInstructions);
  }
  totals[std::string(m::kCyclesStalledFrontend)] =
      series_.last(m::kCyclesStalledFrontend);
  totals[std::string(m::kCyclesStalledBackend)] =
      series_.last(m::kCyclesStalledBackend);
  totals[std::string(m::kTaskClock)] = series_.last(m::kTaskClock);
  totals[std::string(m::kNumThreads)] = series_.max(m::kNumThreads);
}

}  // namespace synapse::watchers
