#pragma once
// The compiled replay representation: sample deltas as a structure-of-
// arrays table instead of one std::map<std::string,double> per sample.
//
// A DeltaTable interns the profile's metric names into dense lane IDs
// (LaneTable) and stores one contiguous f64 column per metric plus a
// presence column (distinguishing "metric absent from this period" from
// "delta sums to zero"). One kernel builds it, Profile::delta_table(),
// straight over the profile's own columns (profile.hpp SampleColumns).
// No SampleDelta map is ever materialized on the way.
//
// A DeltaFrame is a cheap value-type view of a contiguous row range of
// one table — the unit the replay engine hands to
// atoms::Atom::consume_frame, and the wire shape a future shared-memory
// live mode would publish. unbox() converts one row back into the legacy
// SampleDelta (sorted-name map of the present lanes), which is what
// keeps custom atoms without frame support working and what
// Profile::sample_deltas() returns.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "profile/profile.hpp"

namespace synapse::profile {

/// Sorted, deduplicated metric-name dictionary; the lane ID of a metric
/// is its index. Lookup is a binary search — done once per replay when
/// the ReplayPlan resolves atom masks, never per sample.
class LaneTable {
 public:
  static constexpr uint32_t kNoLane = 0xffffffffu;

  LaneTable() = default;
  /// `sorted_names` must be sorted and unique (the kernel guarantees it:
  /// its accumulation map iterates in name order).
  explicit LaneTable(std::vector<std::string> sorted_names)
      : names_(std::move(sorted_names)) {}

  /// Lane of a metric name; kNoLane when the profile never recorded it.
  uint32_t id(std::string_view name) const;

  size_t size() const { return names_.size(); }
  const std::string& name(uint32_t lane) const { return names_[lane]; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

class DeltaFrame;

/// Per-period consumption deltas, one row per period: row r of lane l
/// holds the delta of metric lanes().name(l) in period r, and
/// present(l, r) says whether that period recorded one. Every lane is
/// present in at least one row. Cells that are absent hold 0.0, so
/// get() matches SampleDelta::get's default without a presence check.
class DeltaTable {
 public:
  DeltaTable() = default;
  DeltaTable(LaneTable lanes, std::vector<double> durations,
             std::vector<std::vector<double>> values,
             std::vector<std::vector<uint8_t>> present)
      : lanes_(std::move(lanes)),
        durations_(std::move(durations)),
        values_(std::move(values)),
        present_(std::move(present)) {}

  size_t rows() const { return durations_.size(); }
  const LaneTable& lanes() const { return lanes_; }

  double duration(size_t row) const { return durations_[row]; }

  /// Value of a lane in one row; 0.0 for kNoLane (an unrecorded metric
  /// reads as 0 everywhere, like SampleDelta::get).
  double get(uint32_t lane, size_t row) const {
    return lane == LaneTable::kNoLane ? 0.0 : values_[lane][row];
  }

  bool present(uint32_t lane, size_t row) const {
    return lane != LaneTable::kNoLane && present_[lane][row] != 0;
  }

  /// Multiply every cell of one lane in place — how the ReplayPlan bakes
  /// EmulatorOptions scale factors. Absent cells are 0.0 and stay 0.0,
  /// so the result matches scaling only the present map entries.
  void scale_lane(uint32_t lane, double factor);

  /// Rebuild the legacy SampleDelta of one row: present lanes become map
  /// keys in sorted order.
  SampleDelta unbox(size_t row) const;

  /// View of `count` rows starting at `first` (bounds unchecked beyond
  /// debug assertions; callers slice within rows()).
  DeltaFrame frame(size_t first, size_t count) const;

 private:
  LaneTable lanes_;
  std::vector<double> durations_;              ///< one per row
  std::vector<std::vector<double>> values_;    ///< [lane][row]
  std::vector<std::vector<uint8_t>> present_;  ///< [lane][row], 0/1
};

/// A contiguous row window of a DeltaTable. Plain value type (two words
/// + a pointer): copy it into worker threads; the table must outlive
/// every frame over it. Row indices are frame-relative.
class DeltaFrame {
 public:
  DeltaFrame() = default;
  DeltaFrame(const DeltaTable* table, size_t first, size_t count)
      : table_(table), first_(first), count_(count) {}

  size_t rows() const { return count_; }
  /// Global index of row 0 within the full replay (hooks report these).
  size_t first_index() const { return first_; }
  const LaneTable& lanes() const { return table_->lanes(); }

  double duration(size_t row) const { return table_->duration(first_ + row); }
  double get(uint32_t lane, size_t row) const {
    return table_->get(lane, first_ + row);
  }
  bool present(uint32_t lane, size_t row) const {
    return table_->present(lane, first_ + row);
  }
  SampleDelta unbox(size_t row) const { return table_->unbox(first_ + row); }

 private:
  const DeltaTable* table_ = nullptr;
  size_t first_ = 0;
  size_t count_ = 0;
};

inline DeltaFrame DeltaTable::frame(size_t first, size_t count) const {
  return DeltaFrame(this, first, count);
}

}  // namespace synapse::profile
