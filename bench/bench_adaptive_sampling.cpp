// Adaptive (edge-triggered) sampling vs fixed-rate scheduling on an
// idle-burst-idle workload (ROADMAP: "event-driven + adaptive
// sampling").
//
// The workload sleeps, spins the CPU for a burst window, then sleeps
// again. A fixed-rate profiler pays burst_hz for the whole run; the
// adaptive scheduler polls a cheap activity counter at the floor rate
// while the gate is closed and only samples at burst_hz inside (and
// shortly after) the burst. The bench profiles the same child under
// thread-per-watcher, multiplexed and adaptive scheduling and reports
// recorded samples, encoded profile bytes, and the burst-window
// coverage of the adaptive run. Expectation: the adaptive profile
// carries >= 5x fewer samples than either fixed-rate mode while the
// burst itself stays densely sampled.
//
// Usage: bench_adaptive_sampling [--smoke] [--json PATH]
//   --smoke      short phases (CI smoke run)
//   --json PATH  machine-readable results (bench_util.hpp Results)

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sys/clock.hpp"
#include "watchers/profiler.hpp"

namespace profile = synapse::profile;
namespace watchers = synapse::watchers;
namespace sys = synapse::sys;

namespace {

struct Phases {
  double idle_s = 5.0;   ///< each side of the burst
  double burst_s = 1.5;
  double rate_hz = 100.0;  ///< fixed rate == adaptive burst rate
  double floor_hz = 2.0;
  double hold_s = 0.25;
};

/// Profile the idle-burst-idle child under one scheduler mode.
profile::Profile run_mode(watchers::SchedulerMode mode, const Phases& ph) {
  watchers::ProfilerOptions opts;
  opts.scheduler = mode;
  opts.sample_rate_hz = ph.rate_hz;
  opts.watcher_set = {"cpu"};
  opts.gate.floor_hz = ph.floor_hz;
  opts.gate.close_hold_s = ph.hold_s;
  watchers::Profiler profiler(opts);
  const double idle_s = ph.idle_s;
  const double burst_s = ph.burst_s;
  return profiler.profile_function(
      [idle_s, burst_s] {
        sys::sleep_for(idle_s);
        const double until = sys::steady_now() + burst_s;
        volatile double x = 0.0;
        while (sys::steady_now() < until) {
          for (int i = 0; i < 200000; ++i) x += i * 0.5;
        }
        sys::sleep_for(idle_s);
        return 0;
      },
      "idle-burst-idle");
}

/// Samples of the cpu series falling inside the burst window, measured
/// from the series' own first timestamp (watcher clocks are local).
size_t burst_samples(const profile::Profile& p, const Phases& ph) {
  const auto* cpu = p.find_series("cpu");
  if (cpu == nullptr || cpu->empty()) return 0;
  const std::vector<double>& t = cpu->samples.timestamps();
  size_t n = 0;
  for (const double ts : t) {
    const double rel = ts - t.front();
    if (rel >= ph.idle_s && rel <= ph.idle_s + ph.burst_s + ph.hold_s) ++n;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  results().set_bench("adaptive_sampling");
  Phases ph;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ph.idle_s = 1.5;
      ph.burst_s = 0.4;
      ph.rate_hz = 75.0;
      ph.floor_hz = 4.0;
      ph.hold_s = 0.1;
    } else if (json_flag(argc, argv, i)) {
    } else {
      std::fprintf(stderr,
                   "usage: bench_adaptive_sampling [--smoke] [--json PATH]\n");
      return 2;
    }
  }
  synapse::resource::activate_resource("host");

  heading("Adaptive vs fixed-rate sampling (idle-burst-idle workload)");
  row("  phases: idle %.1fs | burst %.1fs | idle %.1fs at %.0f Hz "
      "(floor %.1f Hz, hold %.2fs)",
      ph.idle_s, ph.burst_s, ph.idle_s, ph.rate_hz, ph.floor_hz, ph.hold_s);
  row("  %-12s %8s %10s %12s %10s", "scheduler", "samples", "bytes",
      "burst_hits", "var_rate");

  const struct {
    const char* name;
    watchers::SchedulerMode mode;
  } modes[] = {
      {"thread", watchers::SchedulerMode::ThreadPerWatcher},
      {"multiplexed", watchers::SchedulerMode::Multiplexed},
      {"adaptive", watchers::SchedulerMode::Adaptive},
  };

  size_t fixed_samples = 0;
  size_t adaptive_samples = 0;
  size_t adaptive_burst = 0;
  for (const auto& mode : modes) {
    const auto p = run_mode(mode.mode, ph);
    const size_t samples = p.sample_count();
    const size_t bytes = p.to_binary().size();
    const size_t hits = burst_samples(p, ph);
    row("  %-12s %8zu %10zu %12zu %10s", mode.name, samples, bytes, hits,
        p.variable_rate() ? "yes" : "no");
    results().record("sampling", std::string(mode.name) + "_samples",
                     static_cast<double>(samples), "samples");
    results().record("sampling", std::string(mode.name) + "_bytes",
                     static_cast<double>(bytes), "bytes");
    results().record("sampling", std::string(mode.name) + "_burst_hits",
                     static_cast<double>(hits), "samples");
    if (mode.mode == watchers::SchedulerMode::Adaptive) {
      adaptive_samples = samples;
      adaptive_burst = hits;
    } else {
      fixed_samples = std::max(fixed_samples, samples);
    }
  }

  const double reduction =
      adaptive_samples > 0
          ? static_cast<double>(fixed_samples) /
                static_cast<double>(adaptive_samples)
          : 0.0;
  const double coverage =
      ph.burst_s > 0.0
          ? static_cast<double>(adaptive_burst) / (ph.burst_s * ph.rate_hz)
          : 0.0;
  row("\n  sample reduction (fixed/adaptive): %.1fx", reduction);
  row("  burst coverage (adaptive hits / burst periods): %.0f%%",
      100.0 * coverage);
  results().record("sampling", "reduction", reduction, "x");
  results().record("sampling", "burst_coverage", coverage, "fraction");
  row("\nexpectation: >= 5x fewer samples than fixed-rate at burst_hz on"
      "\nthe full run, with the burst window itself densely covered (the"
      "\nfloor rate only bounds edge-detection latency, closed gates take"
      "\nno samples at all).");
  results().write();
  return 0;
}
