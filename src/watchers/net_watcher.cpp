#include "watchers/net_watcher.hpp"

#include <cinttypes>
#include <cstdio>

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

std::optional<NetDevTotals> read_netdev_totals(bool include_loopback) {
  const auto content = sys::slurp_file("/proc/net/dev");
  if (!content) return std::nullopt;

  NetDevTotals totals;
  size_t pos = 0;
  int line_no = 0;
  while (pos < content->size()) {
    const size_t eol = content->find('\n', pos);
    const std::string line = content->substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? content->size() : eol + 1;
    // First two lines are headers.
    if (++line_no <= 2) continue;

    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string iface = line.substr(0, colon);
    iface.erase(0, iface.find_first_not_of(' '));
    if (!include_loopback && iface == "lo") continue;

    // Fields after the colon: rx bytes is #1, tx bytes is #9.
    uint64_t rx = 0, tx = 0;
    uint64_t skip;
    if (std::sscanf(line.c_str() + colon + 1,
                    "%" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64,
                    &rx, &skip, &skip, &skip, &skip, &skip, &skip, &skip,
                    &tx) == 9) {
      totals.rx_bytes += rx;
      totals.tx_bytes += tx;
    }
  }
  return totals;
}

NetWatcher::NetWatcher(bool include_loopback)
    : Watcher("net"), include_loopback_(include_loopback) {
  if (const auto t = read_netdev_totals(include_loopback_)) {
    baseline_ = *t;
    have_baseline_ = true;
  }
}

void NetWatcher::sample(double now) {
  if (!have_baseline_) return;
  const auto t = read_netdev_totals(include_loopback_);
  if (!t) return;

  auto& rows = series_.samples;
  const size_t row = rows.add_row(now);
  rows.set(row, m::kNetBytesRead,
           static_cast<double>(t->rx_bytes - baseline_.rx_bytes));
  rows.set(row, m::kNetBytesWritten,
           static_cast<double>(t->tx_bytes - baseline_.tx_bytes));
}

std::optional<double> NetWatcher::activity_counter() {
  const auto t = read_netdev_totals(include_loopback_);
  if (!t) return std::nullopt;
  return static_cast<double>(t->rx_bytes) + static_cast<double>(t->tx_bytes);
}

void NetWatcher::finalize(const std::vector<const Watcher*>& all,
                          std::map<std::string, double>& totals) {
  (void)all;
  const double read = series_.last(m::kNetBytesRead);
  const double written = series_.last(m::kNetBytesWritten);
  if (read > 0) totals[std::string(m::kNetBytesRead)] = read;
  if (written > 0) totals[std::string(m::kNetBytesWritten)] = written;
}

}  // namespace synapse::watchers
