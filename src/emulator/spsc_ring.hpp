#pragma once
// Bounded lock-free single-producer/single-consumer ring.
//
// The transport of the replay loop (replay_engine.cpp): the calling
// thread pushes windows, one atom's consumer thread pops them, and
// either side may close the ring to shut the loop down. Slots are a
// fixed array; head and tail are monotonically increasing counters
// synchronized with acquire/release — pushing publishes the slot
// write, popping publishes the slot release — so steady-state
// transfers take no locks and no allocations.
//
// Blocking semantics:
//   push()  blocks while full, returns false once closed (item dropped);
//   pop()   blocks while empty, returns false once closed AND drained —
//           or immediately after close(discard_pending=true), leaving
//           undrained items to die with the ring;
//   close() idempotent, callable from any thread.
//
// Waiting is a spin that escalates to yield and then to a short sleep —
// C++17 has no std::atomic::wait, and replay stalls are either
// nanoseconds (slot turnaround) or "the other side is doing real atom
// work", where a microsecond sleep is noise.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace synapse::emulator {

/// One escalation step of a bounded spin-wait; `spins` is the caller's
/// loop counter. Busy-spin first (the common sub-microsecond handoff),
/// then yield the core, then sleep outright so a genuinely stalled peer
/// does not burn a CPU.
inline void spsc_backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) return;
  if (spins < 256) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

template <typename T>
class SpscRing {
 public:
  /// `capacity` is clamped to >= 1 (a zero-capacity ring could never
  /// accept a push).
  explicit SpscRing(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity), slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return capacity_; }

  /// Enqueue, blocking while full. Returns false (dropping the item)
  /// once the ring is closed. Producer thread only.
  bool push(T item) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    unsigned spins = 0;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (tail - head_.load(std::memory_order_acquire) < capacity_) break;
      spsc_backoff(spins);
    }
    slots_[tail % capacity_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Dequeue into `out`, blocking while empty. Returns false once the
  /// ring is closed and drained — or closed discarding, in which case
  /// whatever is still queued stays in its slots until destruction.
  /// Consumer thread only.
  bool pop(T& out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    unsigned spins = 0;
    for (;;) {
      if (discard_.load(std::memory_order_acquire)) return false;
      if (head != tail_.load(std::memory_order_acquire)) break;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check after the closed flag: a final push may have landed
        // between the empty check and the close.
        if (head == tail_.load(std::memory_order_acquire)) return false;
        break;
      }
      spsc_backoff(spins);
    }
    out = std::move(slots_[head % capacity_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// No further pushes; pending items remain poppable (a normal
  /// end-of-stream must drain). `discard_pending` additionally makes
  /// pop() stop immediately — the error-path variant, so the consumer
  /// stops after the item it is on instead of working through stale
  /// backlog. Idempotent; callable from any thread (flags only, no slot
  /// access, so it is safe against a producer mid-push).
  void close(bool discard_pending = false) {
    // Discard is ordered before closed so a consumer woken by the close
    // observes the discard request with it; the benign race (a consumer
    // popping one last item between the two stores) matches the "stops
    // after the item it is on" contract.
    if (discard_pending) discard_.store(true, std::memory_order_release);
    closed_.store(true, std::memory_order_release);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  const size_t capacity_;
  std::vector<T> slots_;
  std::atomic<size_t> head_{0};  ///< next slot to pop (consumer-owned)
  std::atomic<size_t> tail_{0};  ///< next slot to fill (producer-owned)
  std::atomic<bool> closed_{false};
  std::atomic<bool> discard_{false};
};

}  // namespace synapse::emulator
