#include "atoms/network_atom.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <vector>

#include "profile/metrics.hpp"
#include "sys/error.hpp"

namespace synapse::atoms {

namespace m = synapse::metrics;

NetworkAtom::NetworkAtom(NetworkAtomOptions options)
    : Atom("network"), options_(options) {
  // Loopback TCP: listener on an ephemeral port, one connect/accept.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) throw sys::SystemError("socket", errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    throw sys::SystemError("bind/listen", errno);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    throw sys::SystemError("getsockname", errno);
  }

  send_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (send_fd_ < 0 ||
      ::connect(send_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(listener);
    if (send_fd_ >= 0) ::close(send_fd_);
    throw sys::SystemError("connect(loopback)", errno);
  }
  recv_fd_ = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (recv_fd_ < 0) {
    ::close(send_fd_);
    throw sys::SystemError("accept", errno);
  }

  drain_thread_ = std::thread([this] {
    std::vector<char> buf(256 * 1024);
    for (;;) {
      const ssize_t n = ::recv(recv_fd_, buf.data(), buf.size(), 0);
      if (n <= 0) break;  // peer EOF or error: end of emulation
      drained_.fetch_add(static_cast<uint64_t>(n),
                         std::memory_order_relaxed);
    }
  });
}

NetworkAtom::~NetworkAtom() {
  // Finish the stream instead of dropping it: send() only queues bytes
  // in the socket buffer, and closing both directions here used to
  // discard whatever the drain thread had not received yet — those
  // bytes never traversed the loopback device, so the emulated traffic
  // was silently truncated (and invisible to the net watcher).
  // Shutting down the write side sends EOF; the drain thread reads the
  // queued remainder until it sees it, which bounds the join.
  if (send_fd_ >= 0) ::shutdown(send_fd_, SHUT_WR);
  if (drain_thread_.joinable()) drain_thread_.join();
  if (send_fd_ >= 0) ::close(send_fd_);
  if (recv_fd_ >= 0) ::close(recv_fd_);
}

bool NetworkAtom::wants(const profile::SampleDelta& delta) const {
  return delta.get(m::kNetBytesWritten) > 0 || delta.get(m::kNetBytesRead) > 0;
}

void NetworkAtom::consume(const profile::SampleDelta& delta) {
  consume_traffic(delta.get(m::kNetBytesWritten), delta.get(m::kNetBytesRead));
}

std::vector<std::string> NetworkAtom::wanted_metrics() const {
  return {std::string(m::kNetBytesWritten), std::string(m::kNetBytesRead)};
}

void NetworkAtom::bind_lanes(const profile::LaneTable& lanes) {
  lane_written_ = lanes.id(m::kNetBytesWritten);
  lane_read_ = lanes.id(m::kNetBytesRead);
}

void NetworkAtom::consume_frame(const profile::DeltaFrame& frame,
                                const LaneMask& mask) {
  for (size_t row = 0; row < frame.rows(); ++row) {
    if (!mask.row_wanted(frame, row)) continue;
    try {
      consume_traffic(frame.get(lane_written_, row),
                      frame.get(lane_read_, row));
    } catch (const std::exception&) {
      ++stats_.errors;  // same contract as consume(): count, never propagate
    }
  }
}

void NetworkAtom::consume_traffic(double bytes_written, double bytes_read) {
  // Reads and writes collapse onto the same loopback stream: the atom
  // emulates traffic volume, not topology (paper: partial support).
  const auto total = static_cast<uint64_t>(bytes_written) +
                     static_cast<uint64_t>(bytes_read);
  if (total == 0) return;

  std::vector<char> buf(std::min<uint64_t>(options_.block_bytes, total));
  uint64_t sent = 0;
  while (sent < total) {
    const auto chunk =
        static_cast<size_t>(std::min<uint64_t>(buf.size(), total - sent));
    const ssize_t n = ::send(send_fd_, buf.data(), chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // record what was sent; do not wedge the sample barrier
    }
    sent += static_cast<uint64_t>(n);
  }
  stats_.net_bytes_sent += sent;
  stats_.net_bytes_received += static_cast<uint64_t>(bytes_read);
  stats_.samples_consumed += 1;
}

}  // namespace synapse::atoms
