#include "watchers/mem_watcher.hpp"

#include <algorithm>

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"
#include "watchers/trace_watcher.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void MemWatcher::sample(double now) {
  const auto status = sys::read_proc_status(config_.pid);
  if (!status) return;

  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  rows.set(row, m::kMemResident, static_cast<double>(status->vm_rss_bytes));
  // Some sandboxed kernels omit VmHWM; the running maximum of VmRSS is
  // the natural fallback (it is what VmHWM tracks).
  rows.set(row, m::kMemPeak,
           static_cast<double>(
               std::max(status->vm_hwm_bytes, status->vm_rss_bytes)));
}

std::optional<double> MemWatcher::activity_counter() {
  const auto status = sys::read_proc_status(config_.pid);
  if (!status) return std::nullopt;
  return static_cast<double>(status->vm_rss_bytes);
}

void MemWatcher::finalize(const std::vector<const Watcher*>& all,
                          std::map<std::string, double>& totals) {
  totals[std::string(m::kMemPeak)] = series_.max(m::kMemPeak);
  totals[std::string(m::kMemResident)] = series_.max(m::kMemResident);

  // Allocation totals come from the cooperative trace when present; the
  // pure sampling view cannot distinguish alloc/free churn from steady
  // state.
  const Watcher* trace = find_watcher(all, "trace");
  if (trace != nullptr) {
    const double allocated = trace->series().last(m::kMemAllocated);
    const double freed = trace->series().last(m::kMemFreed);
    if (allocated > 0) totals[std::string(m::kMemAllocated)] = allocated;
    if (freed > 0) totals[std::string(m::kMemFreed)] = freed;
  }
}

}  // namespace synapse::watchers
