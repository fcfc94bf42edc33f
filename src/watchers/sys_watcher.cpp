#include "watchers/sys_watcher.hpp"

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void SysWatcher::sample(double now) {
  const auto la = sys::read_loadavg();
  const auto mi = sys::read_meminfo();
  const bool has_memory = mi && mi->total_bytes > 0;
  if (!la && !has_memory) return;
  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  if (la) rows.set(row, m::kLoadCpu, la->load1);
  if (has_memory) {
    rows.set(row, m::kLoadMemory,
             1.0 - static_cast<double>(mi->available_bytes) /
                       static_cast<double>(mi->total_bytes));
  }
}

std::optional<double> SysWatcher::activity_counter() {
  const auto la = sys::read_loadavg();
  if (!la) return std::nullopt;
  return la->load1;
}

void SysWatcher::finalize(const std::vector<const Watcher*>& all,
                          std::map<std::string, double>& totals) {
  (void)all;
  // Load is an ambient observation; store the run average.
  double sum = 0.0;
  size_t n = 0;
  if (const profile::MetricColumn* load = series_.samples.find(m::kLoadCpu)) {
    for (size_t i = 0; i < load->values.size(); ++i) {
      if (load->present[i] == 0) continue;
      sum += load->values[i];
      ++n;
    }
  }
  if (n > 0) totals[std::string(m::kLoadCpu)] = sum / static_cast<double>(n);
}

}  // namespace synapse::watchers
