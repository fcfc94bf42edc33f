#include "watchers/trace_watcher.hpp"

#include "profile/metrics.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void TraceWatcher::pre_process(const WatcherConfig& config) {
  Watcher::pre_process(config);
  if (!config.trace_path.empty()) {
    reader_ = std::make_unique<TraceReader>(config.trace_path);
  }
}

void TraceWatcher::sample(double now) {
  if (!reader_) return;
  const auto counters = reader_->read();
  if (!counters) return;

  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  rows.set(row, m::kFlops, static_cast<double>(counters->flops));
  rows.set(row, m::kInstructions, static_cast<double>(counters->instructions));
  rows.set(row, m::kCyclesUsed, static_cast<double>(counters->cycles));
  rows.set(row, m::kMemAllocated,
           static_cast<double>(counters->bytes_allocated));
  rows.set(row, m::kMemFreed, static_cast<double>(counters->bytes_freed));
}

std::optional<double> TraceWatcher::activity_counter() {
  if (!reader_) return std::nullopt;
  const auto counters = reader_->read();
  if (!counters) return std::nullopt;
  return static_cast<double>(counters->flops) +
         static_cast<double>(counters->instructions);
}

bool TraceWatcher::has_data() const { return series_.last(m::kFlops) > 0; }

void TraceWatcher::finalize(const std::vector<const Watcher*>& all,
                            std::map<std::string, double>& totals) {
  (void)all;
  if (!has_data()) return;
  totals[std::string(m::kFlops)] = series_.last(m::kFlops);
  totals[std::string(m::kInstructions)] = series_.last(m::kInstructions);
  totals[std::string(m::kCyclesUsed)] = series_.last(m::kCyclesUsed);
}

}  // namespace synapse::watchers
