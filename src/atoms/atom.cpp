#include "atoms/atom.hpp"

#include <exception>

namespace synapse::atoms {

void Atom::consume_frame(const profile::DeltaFrame& frame,
                         const LaneMask& mask) {
  (void)mask;
  // The compatibility adapter: atoms that never learned about frames see
  // exactly the per-sample maps the legacy feed loop would have built —
  // same keys (sorted), same values, same wants() gating, same per-row
  // exception contract.
  for (size_t row = 0; row < frame.rows(); ++row) {
    const profile::SampleDelta delta = frame.unbox(row);
    if (!wants(delta)) continue;
    try {
      consume(delta);
    } catch (const std::exception&) {
      // Counted, never propagated: one atom cannot wedge the barrier.
      ++stats_.errors;
    }
  }
}

}  // namespace synapse::atoms
