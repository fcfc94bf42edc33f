#include "atoms/memory_atom.hpp"

#include <algorithm>
#include <exception>

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace synapse::atoms {

namespace m = synapse::metrics;

MemoryAtom::MemoryAtom(MemoryAtomOptions options)
    : Atom("memory"), options_(options) {}

MemoryAtom::~MemoryAtom() = default;

bool MemoryAtom::wants(const profile::SampleDelta& delta) const {
  return delta.get(m::kMemAllocated) > 0 || delta.get(m::kMemFreed) > 0;
}

void MemoryAtom::allocate(uint64_t bytes) {
  const long page = sys::page_size();
  while (bytes > 0) {
    const uint64_t chunk = std::min(bytes, options_.block_bytes);
    blocks_.emplace_back();
    auto& block = blocks_.back();
    block.resize(chunk);
    if (options_.touch_pages) {
      for (uint64_t off = 0; off < chunk; off += static_cast<uint64_t>(page)) {
        block[off] = static_cast<char>(off);
      }
    }
    held_bytes_ += chunk;
    stats_.bytes_allocated += chunk;
    if (trace_ != nullptr) trace_->add_alloc(chunk);
    bytes -= chunk;

    // Enforce the residency budget by retiring the oldest blocks.
    while (held_bytes_ > options_.max_held_bytes && !blocks_.empty()) {
      const uint64_t freed = blocks_.front().size();
      blocks_.pop_front();
      held_bytes_ -= freed;
      stats_.bytes_freed += freed;
      if (trace_ != nullptr) trace_->add_free(freed);
    }
  }
}

void MemoryAtom::release(uint64_t bytes) {
  while (bytes > 0 && !blocks_.empty()) {
    const uint64_t freed = blocks_.front().size();
    blocks_.pop_front();
    held_bytes_ -= freed;
    stats_.bytes_freed += freed;
    if (trace_ != nullptr) trace_->add_free(freed);
    bytes -= std::min(bytes, freed);
  }
}

void MemoryAtom::consume(const profile::SampleDelta& delta) {
  consume_bytes(delta.get(m::kMemAllocated), delta.get(m::kMemFreed));
}

std::vector<std::string> MemoryAtom::wanted_metrics() const {
  return {std::string(m::kMemAllocated), std::string(m::kMemFreed)};
}

void MemoryAtom::bind_lanes(const profile::LaneTable& lanes) {
  lane_allocated_ = lanes.id(m::kMemAllocated);
  lane_freed_ = lanes.id(m::kMemFreed);
}

void MemoryAtom::consume_frame(const profile::DeltaFrame& frame,
                               const LaneMask& mask) {
  for (size_t row = 0; row < frame.rows(); ++row) {
    if (!mask.row_wanted(frame, row)) continue;
    try {
      consume_bytes(frame.get(lane_allocated_, row),
                    frame.get(lane_freed_, row));
    } catch (const std::exception&) {
      ++stats_.errors;  // same contract as consume(): count, never propagate
    }
  }
}

void MemoryAtom::consume_bytes(double allocated, double freed) {
  const auto to_alloc = static_cast<uint64_t>(allocated);
  const auto to_free = static_cast<uint64_t>(freed);
  if (to_alloc > 0) allocate(to_alloc);
  if (to_free > 0) release(to_free);
  stats_.samples_consumed += 1;
}

}  // namespace synapse::atoms
