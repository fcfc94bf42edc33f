#include "emulator/replay_engine.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "emulator/replay_plan.hpp"
#include "emulator/spsc_ring.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"
#include "watchers/trace.hpp"

namespace synapse::emulator {

ReplayPace replay_pace_from_string(const std::string& name) {
  if (name == "auto") return ReplayPace::Auto;
  if (name == "off") return ReplayPace::Off;
  if (name == "on") return ReplayPace::On;
  throw sys::ConfigError("unknown replay pace: " + name +
                         " (expected auto, off or on)");
}

const char* replay_pace_name(ReplayPace pace) {
  switch (pace) {
    case ReplayPace::Off:
      return "off";
    case ReplayPace::On:
      return "on";
    default:
      return "auto";
  }
}

ReplayEngine::ReplayEngine(EmulatorOptions options,
                           const atoms::AtomRegistry* registry)
    : options_(std::move(options)),
      registry_(registry != nullptr ? registry
                                    : &atoms::AtomRegistry::instance()) {
  if (options_.parallel_degree < 1) options_.parallel_degree = 1;
}

std::vector<std::string> ReplayEngine::resolve_atom_set(
    const EmulatorOptions& options) {
  std::vector<std::string> names;
  if (!options.atom_set.empty()) {
    // Deduplicate, keeping first-occurrence order: a repeated name
    // would double-consume the budget yet report only one atom's stats
    // (and double-count in the process-parallel slot aggregation).
    for (const auto& name : options.atom_set) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    return names;
  }
  if (options.emulate_compute) names.push_back("compute");
  if (options.emulate_memory) names.push_back("memory");
  if (options.emulate_storage) names.push_back("storage");
  if (options.emulate_network) names.push_back("network");
  return names;
}

double ReplayEngine::parallel_time_factor(int workers,
                                          double overhead_per_worker) {
  if (workers <= 1) return 1.0;
  // Amdahl serial fraction (the emulator's sample feed is sequential)
  // plus linear per-worker coordination cost: time(N) =
  // T1 * (f + (1-f)/N) * (1 + a*(N-1)). Good scaling for small N,
  // diminishing returns toward a full node — the Fig. 12 shape.
  constexpr double kSerialFraction = 0.03;
  const double n = static_cast<double>(workers);
  return (kSerialFraction + (1.0 - kSerialFraction) / n) *
         (1.0 + overhead_per_worker * (n - 1.0));
}

namespace {

/// Resolve the pacing decision for this run (ReplayPace::Auto paces
/// exactly the profiles whose gaps carry information).
bool replay_paced(const EmulatorOptions& opts,
                  const profile::Profile& profile) {
  switch (opts.pace) {
    case ReplayPace::On:
      return true;
    case ReplayPace::Off:
      return false;
    default:
      return profile.variable_rate();
  }
}

/// Windows in flight at once in batch mode (single mode keeps one).
/// The fastest atom can run this many windows minus one ahead of the
/// slowest. On the mixed mdsim-like profile at window 8, four in
/// flight replayed slower than six in each of four alternating runs.
constexpr size_t kBatchLookahead = 6;

/// One window in flight: published by the calling thread, consumed by
/// every atom it was sent to, retired once `remaining` reaches zero.
struct FrameTask {
  size_t first_row = 0;
  size_t rows = 0;
  std::atomic<uint32_t> remaining{0};
};

/// Does the atom behind `mask` get this window? Adapter atoms probe
/// wants() per row themselves, so they receive every window.
bool window_wanted(const atoms::LaneMask& mask,
                   const profile::DeltaFrame& frame) {
  if (mask.adapter) return true;
  for (size_t row = 0; row < frame.rows(); ++row) {
    if (mask.row_wanted(frame, row)) return true;
  }
  return false;
}

}  // namespace

void ReplayEngine::mirror_builtin_stats(EmulationResult& result,
                                        const std::string& name,
                                        const atoms::AtomStats& stats) {
  if (name == "compute") result.compute = stats;
  if (name == "memory") result.memory = stats;
  if (name == "storage") result.storage = stats;
  if (name == "network") result.network = stats;
}

EmulationResult ReplayEngine::replay(const profile::Profile& profile,
                                     const SampleHook& per_sample_hook) {
  EmulationResult result;
  const sys::Stopwatch total;

  // --- startup: build atoms, warm the kernel (calibration) -----------------
  const sys::Stopwatch startup;

  // The engine replays in ONE process. Forking and splitting the budget
  // across ranks is the Emulator driver's job; accepting Process mode
  // here would silently consume the full N-rank budget in-process.
  if (options_.parallel_mode == ParallelMode::Process &&
      options_.parallel_degree > 1) {
    throw sys::ConfigError(
        "ReplayEngine replays in-process; use Emulator for Process mode");
  }

  EmulatorOptions opts = options_;
  if (opts.parallel_mode == ParallelMode::OpenMp && opts.parallel_degree > 1) {
    opts.compute.kernel = "omp";
    opts.compute.omp_threads = opts.parallel_degree;
    opts.compute.time_scale = parallel_time_factor(
        opts.parallel_degree,
        resource::active_resource().omp_overhead_per_worker);
  }

  const atoms::AtomBuildContext context{opts.compute, opts.memory,
                                        opts.storage, opts.network};
  const std::vector<std::string> atom_names = resolve_atom_set(opts);
  std::vector<std::unique_ptr<atoms::Atom>> active;
  for (const auto& name : atom_names) {
    active.push_back(registry_->create(name, context));
  }

  // Emulation runs are themselves profile-able: publish consumed
  // counters through the cooperative trace when one is requested.
  auto trace = watchers::TraceWriter::from_env();
  for (auto& atom : active) atom->set_trace(trace.get());

  result.startup_seconds = startup.elapsed();

  // --- the global sample feed loop (section 4.2) ---------------------------
  feed(profile, opts, active, per_sample_hook, result);

  for (size_t i = 0; i < active.size(); ++i) {
    result.atom_stats[atom_names[i]] = active[i]->stats();
    mirror_builtin_stats(result, atom_names[i], active[i]->stats());
  }

  result.wall_seconds = total.elapsed();
  result.ranks_ok = 1;
  return result;
}

void ReplayEngine::feed(const profile::Profile& profile,
                        const EmulatorOptions& opts,
                        const std::vector<std::unique_ptr<atoms::Atom>>& active,
                        const SampleHook& per_sample_hook,
                        EmulationResult& result) {
  const ReplayPlan plan(profile, opts, active);
  const profile::DeltaTable& table = plan.table();
  const size_t window = std::max<size_t>(1, opts.replay_batch);
  const size_t ahead = window == 1 ? 1 : kBatchLookahead;

  // Idle atoms (none of their metrics recorded) get no consumer at all.
  std::vector<size_t> engaged;
  for (size_t i = 0; i < active.size(); ++i) {
    if (!plan.mask(i).idle) engaged.push_back(i);
  }
  // A ring never holds more than the windows in flight, so publishing
  // never blocks; slot w % ahead is reused only after window w retired.
  std::vector<FrameTask> slots(ahead);
  std::vector<std::unique_ptr<SpscRing<FrameTask*>>> rings;
  for (size_t k = 0; k < engaged.size(); ++k) {
    rings.push_back(std::make_unique<SpscRing<FrameTask*>>(ahead));
  }

  std::vector<std::thread> consumers;
  const auto shut_down = [&](bool discard_pending) {
    for (const auto& ring : rings) ring->close(discard_pending);
    for (auto& consumer : consumers) consumer.join();
  };
  try {
    for (size_t k = 0; k < engaged.size(); ++k) {
      atoms::Atom* atom = active[engaged[k]].get();
      const atoms::LaneMask* mask = &plan.mask(engaged[k]);
      SpscRing<FrameTask*>* ring = rings[k].get();
      consumers.emplace_back([atom, mask, ring, &table] {
        FrameTask* task = nullptr;
        while (ring->pop(task)) {
          try {
            atom->consume_frame(table.frame(task->first_row, task->rows),
                                *mask);
          } catch (...) {
            atom->count_error();  // never wedge the barrier
          }
          task->remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
      });
    }

    // Pacing clock: row k holds what was consumed in the period ending
    // at sample k, so a window is released when its first row's period
    // starts, the sum of the durations of rows 1..first_row-1. Rows 0
    // and 1 both start at once: row 0's duration describes the period
    // BEFORE the first sample, which the replay has no counterpart for.
    // A paced replay then lasts at least the recorded span, the sum of
    // the durations of rows 1..rows-1: it waits out an idle tail.
    const bool paced = replay_paced(opts, profile);
    const double t0 = sys::steady_now();
    double offset = 0.0;
    size_t covered = 0;  ///< offset includes durations 1..covered
    const auto advance_clock = [&](size_t row) {
      for (; covered < row; ++covered) offset += table.duration(covered + 1);
      const double wait = t0 + offset - sys::steady_now();
      if (wait > 0) sys::sleep_for(wait);
    };
    std::vector<size_t> receivers;
    receivers.reserve(engaged.size());

    const size_t windows = (table.rows() + window - 1) / window;
    size_t published = 0;
    for (size_t retired = 0; retired < windows; ++retired) {
      for (; published < windows && published - retired < ahead;
           ++published) {
        FrameTask& task = slots[published % ahead];
        task.first_row = published * window;
        task.rows = std::min(window, table.rows() - task.first_row);
        if (paced && task.first_row > 0) advance_clock(task.first_row - 1);
        const profile::DeltaFrame frame =
            table.frame(task.first_row, task.rows);
        receivers.clear();
        for (size_t k = 0; k < engaged.size(); ++k) {
          if (window_wanted(plan.mask(engaged[k]), frame)) {
            receivers.push_back(k);
          }
        }
        // Armed before the first push: the ring push publishes the task
        // fields to the consumer.
        task.remaining.store(static_cast<uint32_t>(receivers.size()),
                             std::memory_order_relaxed);
        for (const size_t k : receivers) rings[k]->push(&task);
      }
      // All published: consumers drain their rings and exit instead of
      // polling for windows that will never come.
      if (published == windows) {
        for (const auto& ring : rings) ring->close();
      }

      // The barrier (Fig. 2): the window ends when its last atom
      // finishes; then its hooks fire in recorded order.
      const FrameTask& task = slots[retired % ahead];
      unsigned spins = 0;
      while (task.remaining.load(std::memory_order_acquire) != 0) {
        spsc_backoff(spins);
      }
      for (size_t k = 0; k < task.rows; ++k) {
        if (per_sample_hook) per_sample_hook(task.first_row + k);
        ++result.samples_replayed;
      }
    }
    if (paced && table.rows() > 0) advance_clock(table.rows() - 1);
  } catch (...) {
    // A throwing hook (e.g. a ring-exchange failure in Process mode):
    // consumers stop after the window they are on, then propagate.
    shut_down(/*discard_pending=*/true);
    throw;
  }
  shut_down(/*discard_pending=*/false);
}

}  // namespace synapse::emulator
