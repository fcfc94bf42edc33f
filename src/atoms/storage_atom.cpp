#include "atoms/storage_atom.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>

#include "profile/metrics.hpp"

namespace synapse::atoms {

namespace m = synapse::metrics;

StorageAtom::StorageAtom(StorageAtomOptions options)
    : Atom("storage"),
      options_(options),
      vfs_(resource::VirtualFilesystem::for_active_resource(
          options.filesystem, options.base_dir)) {
  file_name_ = "storage_atom_" + std::to_string(::getpid()) + ".dat";
  file_ = vfs_.open(file_name_, /*for_write=*/true);
}

StorageAtom::~StorageAtom() {
  file_.reset();
  vfs_.remove(file_name_);
}

bool StorageAtom::wants(const profile::SampleDelta& delta) const {
  return delta.get(m::kBytesRead) > 0 || delta.get(m::kBytesWritten) > 0;
}

void StorageAtom::consume(const profile::SampleDelta& delta) {
  consume_io(delta.get(m::kBytesWritten), delta.get(m::kBytesRead),
             delta.get(m::kBlockSizeWrite), delta.get(m::kBlockSizeRead));
}

std::vector<std::string> StorageAtom::wanted_metrics() const {
  return {std::string(m::kBytesRead), std::string(m::kBytesWritten)};
}

void StorageAtom::bind_lanes(const profile::LaneTable& lanes) {
  lane_read_ = lanes.id(m::kBytesRead);
  lane_written_ = lanes.id(m::kBytesWritten);
  lane_block_read_ = lanes.id(m::kBlockSizeRead);
  lane_block_write_ = lanes.id(m::kBlockSizeWrite);
}

void StorageAtom::consume_frame(const profile::DeltaFrame& frame,
                                const LaneMask& mask) {
  for (size_t row = 0; row < frame.rows(); ++row) {
    if (!mask.row_wanted(frame, row)) continue;
    try {
      consume_io(frame.get(lane_written_, row), frame.get(lane_read_, row),
                 frame.get(lane_block_write_, row),
                 frame.get(lane_block_read_, row));
    } catch (const std::exception&) {
      ++stats_.errors;  // same contract as consume(): count, never propagate
    }
  }
}

void StorageAtom::consume_io(double bytes_written, double bytes_read,
                             double block_write_estimate,
                             double block_read_estimate) {
  const auto to_write = static_cast<uint64_t>(bytes_written);
  const auto to_read = static_cast<uint64_t>(bytes_read);

  uint64_t wblock = options_.write_block_bytes;
  if (wblock == 0) {
    wblock = block_write_estimate >= 1.0
                 ? static_cast<uint64_t>(block_write_estimate)
                 : kDefaultBlock;
  }
  uint64_t rblock = options_.read_block_bytes;
  if (rblock == 0) {
    rblock = block_read_estimate >= 1.0
                 ? static_cast<uint64_t>(block_read_estimate)
                 : kDefaultBlock;
  }

  const double cost_before =
      file_->stats().read_seconds + file_->stats().write_seconds;

  // Writes first: they create the data subsequent reads consume (the
  // common dependency direction; cross-sample ordering is preserved by
  // the emulator's sample barrier either way).
  uint64_t written = 0;
  while (written < to_write) {
    const uint64_t chunk = std::min(wblock, to_write - written);
    file_->write(chunk);
    written += chunk;
  }
  if (to_write > 0) file_->sync();

  uint64_t read = 0;
  while (read < to_read) {
    const uint64_t chunk = std::min(rblock, to_read - read);
    file_->read(chunk);
    read += chunk;
  }

  stats_.bytes_written += to_write;
  stats_.bytes_read += to_read;
  stats_.busy_seconds += file_->stats().read_seconds +
                         file_->stats().write_seconds - cost_before;
  stats_.samples_consumed += 1;
}

}  // namespace synapse::atoms
