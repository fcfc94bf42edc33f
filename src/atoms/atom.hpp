#pragma once
// Emulation atom base (paper Fig. 1 right half, section 4.2).
//
// An atom consumes one type of system resource. The emulator's global
// loop feeds per-sample consumption deltas to every atom concurrently;
// a sample ends when the last atom finishes (Fig. 2 semantics — the
// barrier lives in the emulator, not the atom).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "profile/delta_frame.hpp"
#include "profile/profile.hpp"
#include "watchers/trace.hpp"

namespace synapse::atoms {

/// Cumulative accounting of what an atom consumed.
struct AtomStats {
  double busy_seconds = 0.0;  ///< wall time spent consuming
  double cycles = 0.0;
  double flops = 0.0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_allocated = 0;
  uint64_t bytes_freed = 0;
  uint64_t net_bytes_sent = 0;
  uint64_t net_bytes_received = 0;
  uint64_t samples_consumed = 0;
  uint64_t errors = 0;  ///< samples whose consumption threw
};

/// Field-wise accumulation, used wherever per-rank or per-repetition
/// stats are summed (process-parallel aggregation, scenario runs).
inline void accumulate(AtomStats& into, const AtomStats& from) {
  into.busy_seconds += from.busy_seconds;
  into.cycles += from.cycles;
  into.flops += from.flops;
  into.bytes_read += from.bytes_read;
  into.bytes_written += from.bytes_written;
  into.bytes_allocated += from.bytes_allocated;
  into.bytes_freed += from.bytes_freed;
  into.net_bytes_sent += from.net_bytes_sent;
  into.net_bytes_received += from.net_bytes_received;
  into.samples_consumed += from.samples_consumed;
  into.errors += from.errors;
}

/// One atom's compiled dispatch decision over one DeltaTable, resolved
/// once per replay by the emulator's ReplayPlan. A row is wanted when
/// any trigger lane is positive — the exact predicate every built-in
/// wants() implements, evaluated on dense lanes instead of map probes.
/// Atoms that do not declare wanted_metrics() get `adapter = true`: the
/// engine falls back to per-row unbox + wants()/consume().
struct LaneMask {
  std::vector<uint32_t> triggers;  ///< lanes whose value > 0 means "wanted"
  bool adapter = false;  ///< dispatch through the legacy SampleDelta path
  bool idle = false;     ///< none of the atom's metrics were recorded at all

  bool row_wanted(const profile::DeltaFrame& frame, size_t row) const {
    for (const uint32_t lane : triggers) {
      if (frame.get(lane, row) > 0) return true;
    }
    return false;
  }
};

class Atom {
 public:
  explicit Atom(std::string name) : name_(std::move(name)) {}
  virtual ~Atom() = default;

  const std::string& name() const { return name_; }

  /// True when this sample contains work for this atom (lets the
  /// emulator skip dispatch for idle atoms).
  virtual bool wants(const profile::SampleDelta& delta) const = 0;

  /// Consume the resources recorded in one sampling period. Called from
  /// the atom's consumer thread. A throw is counted in stats().errors
  /// and the replay moves on, so one atom cannot wedge the barrier.
  virtual void consume(const profile::SampleDelta& delta) = 0;

  /// The metric names whose positive per-sample delta means this atom
  /// has work — the declarative form of wants(), resolved into a
  /// LaneMask once per replay. An empty list (the default) means "not
  /// declared": the engine keeps probing wants() per sample and frames
  /// reach the atom through the unboxing consume_frame below.
  virtual std::vector<std::string> wanted_metrics() const { return {}; }

  /// Called once per replay with the profile's interned lane table,
  /// before any frame is fed. Atoms that consume frames natively cache
  /// their lane IDs here (atoms are built per replay, so the binding
  /// cannot go stale).
  virtual void bind_lanes(const profile::LaneTable& lanes) { (void)lanes; }

  /// Consume every wanted row of one frame. Same exception contract as
  /// consume(): a failing row is counted in stats().errors. The default
  /// implementation is the compatibility adapter — it re-boxes each row
  /// into a legacy SampleDelta and routes it through wants()/consume(),
  /// so registry-registered custom atoms replay unmodified.
  virtual void consume_frame(const profile::DeltaFrame& frame,
                             const LaneMask& mask);

  const AtomStats& stats() const { return stats_; }

  /// Count one failed consumption (the replay's consumer thread calls
  /// this when consume_frame() itself throws).
  void count_error() { ++stats_.errors; }

  /// Attach the cooperative trace (emulation runs are themselves
  /// profile-able; the atoms publish the counters they consume).
  void set_trace(watchers::TraceWriter* trace) { trace_ = trace; }

 protected:
  AtomStats stats_;
  watchers::TraceWriter* trace_ = nullptr;  ///< not owned, may be null

 private:
  std::string name_;
};

}  // namespace synapse::atoms
