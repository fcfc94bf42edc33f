#include "watchers/io_watcher.hpp"

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void IoWatcher::sample(double now) {
  const auto io = sys::read_proc_io(config_.pid);
  if (!io) return;

  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  // rchar/wchar cover cache-served I/O as well — that is what the
  // emulation must reproduce (the application *requested* those bytes).
  const auto rchar = static_cast<double>(io->rchar);
  const auto wchar = static_cast<double>(io->wchar);
  const auto syscr = static_cast<double>(io->syscr);
  const auto syscw = static_cast<double>(io->syscw);
  rows.set(row, m::kBytesRead, rchar);
  rows.set(row, m::kBytesWritten, wchar);
  rows.set(row, m::kReadOps, syscr);
  rows.set(row, m::kWriteOps, syscw);

  if (config_.estimate_block_sizes && have_prev_) {
    const double dr = rchar - prev_rchar_;
    const double dw = wchar - prev_wchar_;
    const double dor = syscr - prev_syscr_;
    const double dow = syscw - prev_syscw_;
    if (dor > 0) rows.set(row, m::kBlockSizeRead, dr / dor);
    if (dow > 0) rows.set(row, m::kBlockSizeWrite, dw / dow);
  }
  prev_rchar_ = rchar;
  prev_wchar_ = wchar;
  prev_syscr_ = syscr;
  prev_syscw_ = syscw;
  have_prev_ = true;
}

std::optional<double> IoWatcher::activity_counter() {
  const auto io = sys::read_proc_io(config_.pid);
  if (!io) return std::nullopt;
  return static_cast<double>(io->rchar) + static_cast<double>(io->wchar);
}

void IoWatcher::finalize(const std::vector<const Watcher*>& all,
                         std::map<std::string, double>& totals) {
  (void)all;
  totals[std::string(m::kBytesRead)] = series_.last(m::kBytesRead);
  totals[std::string(m::kBytesWritten)] = series_.last(m::kBytesWritten);
  totals[std::string(m::kReadOps)] = series_.last(m::kReadOps);
  totals[std::string(m::kWriteOps)] = series_.last(m::kWriteOps);

  // Aggregate block size estimate: bytes / ops over the whole run.
  const double reads = series_.last(m::kReadOps);
  const double writes = series_.last(m::kWriteOps);
  if (reads > 0) {
    totals[std::string(m::kBlockSizeRead)] =
        series_.last(m::kBytesRead) / reads;
  }
  if (writes > 0) {
    totals[std::string(m::kBlockSizeWrite)] =
        series_.last(m::kBytesWritten) / writes;
  }
}

}  // namespace synapse::watchers
