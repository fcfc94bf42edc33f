// replay-dispatch and replay-mixed: a stored-shape synthetic profile
// replayed over and over, plus the replay checks shared with
// mdsim-roundtrip.
//
// replay-dispatch exists for the cost the emulator adds per sample: tiny
// compute and memory budgets over many samples, replayed in the default
// single mode, so thread dispatch and the barrier, not the atoms, set
// the pace. replay-mixed exists for the batched path: the
// mixed-mdsim-like catalog shape at replay_batch = 8, where the atoms
// dominate and the rings, barrier and backoff sit on the critical path.
// A dispatch gain that costs the batched path shows on the second.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "atoms/kernels.hpp"
#include "emulator/replay_engine.hpp"
#include "profile/metrics.hpp"
#include "replay_check.hpp"
#include "resource/cache_model.hpp"
#include "resource/resource_spec.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace workload = synapse::workload;
namespace m = synapse::metrics;

Expected expected_consumption(const profile::DeltaTable& table,
                              const std::string& kernel) {
  const auto& lanes = table.lanes();
  const uint32_t cycles = lanes.id(m::kCyclesUsed);
  const uint32_t alloc = lanes.id(m::kMemAllocated);
  const uint32_t freed = lanes.id(m::kMemFreed);
  const uint32_t written = lanes.id(m::kBytesWritten);
  const uint32_t read = lanes.id(m::kBytesRead);
  const double bias = synapse::resource::calibration_bias(
      synapse::atoms::KernelRegistry::instance().create(kernel)->traits(),
      synapse::resource::active_resource());

  // The atoms truncate byte budgets to whole bytes per sample.
  const auto bytes = [](double v) {
    return v > 0 ? static_cast<double>(static_cast<uint64_t>(v)) : 0.0;
  };
  Expected e;
  e.rows = table.rows();
  for (size_t row = 0; row < table.rows(); ++row) {
    const double c = table.get(cycles, row);
    if (c > 0) {
      e.cycles += c * bias;
      ++e.compute_rows;
    }
    if (table.get(alloc, row) > 0 || table.get(freed, row) > 0) {
      e.allocated += bytes(table.get(alloc, row));
      ++e.memory_rows;
    }
    if (table.get(written, row) > 0 || table.get(read, row) > 0) {
      e.written += bytes(table.get(written, row));
      e.read += bytes(table.get(read, row));
      ++e.storage_rows;
    }
  }
  return e;
}

namespace {

const char* const kAtomNames[3] = {"compute", "memory", "storage"};

/// |consumed - expected| as a percentage of expected (100 when nothing
/// was expected but something was consumed).
double error_pct(double consumed, double expected) {
  if (expected == 0.0) return consumed == 0.0 ? 0.0 : 100.0;
  return 100.0 * std::fabs(consumed - expected) / expected;
}

}  // namespace

void ReplayFigures::add(const emulator::EmulationResult& r, const Expected& e,
                        double wall, bool keep, Result& result) {
  const synapse::atoms::AtomStats* stats[3] = {&r.compute, &r.memory,
                                               &r.storage};
  const double err[3] = {
      error_pct(r.compute.cycles, e.cycles),
      error_pct(static_cast<double>(r.memory.bytes_allocated), e.allocated),
      error_pct(static_cast<double>(r.storage.bytes_written) +
                    static_cast<double>(r.storage.bytes_read),
                e.written + e.read)};
  const uint64_t rows[3] = {e.compute_rows, e.memory_rows, e.storage_rows};
  const double tolerance[3] = {1.0, 0.0, 0.0};
  std::string problems;
  char what[160];
  if (r.samples_replayed != e.rows) {
    std::snprintf(what, sizeof(what), "replayed %zu of %zu samples; ",
                  r.samples_replayed, e.rows);
    problems += what;
  }
  for (int a = 0; a < 3; ++a) {
    worst_err_[a] = std::max(worst_err_[a], err[a]);
    if (err[a] > tolerance[a] || stats[a]->samples_consumed != rows[a]) {
      std::snprintf(what, sizeof(what),
                    "%s atom: conservation error %.4f%%, %llu of %llu "
                    "samples consumed; ",
                    kAtomNames[a], err[a],
                    static_cast<unsigned long long>(stats[a]->samples_consumed),
                    static_cast<unsigned long long>(rows[a]));
      problems += what;
    }
  }
  result.check(problems.empty(), "replay: " + problems);
  if (!keep) return;

  const double busiest = std::max({r.compute.busy_seconds,
                                   r.memory.busy_seconds,
                                   r.storage.busy_seconds});
  const double feed = std::max(wall - r.startup_seconds, 1e-12);
  const double samples = std::max<double>(1.0, r.samples_replayed);
  startup_.push_back(r.startup_seconds);
  replay_.push_back(wall);
  dispatch_us_.push_back(1e6 * (feed - busiest) / samples);
  idle_share_.push_back(1.0 - busiest / feed);
  dispatch_share_.push_back((wall - busiest) / wall);
  atom_share_.push_back(busiest / wall);
  for (int a = 0; a < 3; ++a) {
    busy_[a].push_back(stats[a]->busy_seconds);
    samples_[a].push_back(static_cast<double>(stats[a]->samples_consumed));
  }
}

void ReplayFigures::publish(Result& result) const {
  auto& layer = result.layer;
  layer["emulator.startup_s"] = median(startup_);
  layer["emulator.replay_s"] = median(replay_);
  layer["emulator.dispatch_us_per_sample"] = median(dispatch_us_);
  layer["emulator.idle_share"] = median(idle_share_);
  for (int a = 0; a < 3; ++a) {
    const std::string prefix = std::string("atoms.") + kAtomNames[a];
    layer[prefix + ".busy_s"] = median(busy_[a]);
    layer[prefix + ".samples"] = median(samples_[a]);
    layer[prefix + ".conservation_err_pct"] = worst_err_[a];
  }
  layer["shape.dispatch_share"] = dispatch_share();
  layer["shape.atom_share"] = atom_share();
}

double ReplayFigures::dispatch_share() const { return median(dispatch_share_); }
double ReplayFigures::atom_share() const { return median(atom_share_); }

namespace {

/// Seeded, mean-preserving per-sample jitter of a synthetic profile's
/// cumulative counters: sample i's increments are scaled by 1 + a*u_i,
/// u_i uniform in [-1, 1], shared by every series. Seeds vary every
/// sample's budget while the total work stays near the spec's.
void jitter_increments(profile::Profile& p, Rng& rng, double amplitude) {
  size_t n = 0;
  for (const auto& s : p.series) n = std::max(n, s.samples.size());
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> factor(n);
  for (auto& f : factor) f = 1.0 + amplitude * u(rng);
  for (auto& series : p.series) {
    std::map<std::string, std::pair<double, double>> running;  // prev, new
    for (size_t i = 0; i < series.samples.size(); ++i) {
      for (auto& [metric, value] : series.samples[i].values) {
        if (profile::is_instantaneous_metric(metric)) continue;
        auto& [prev, cumulative] = running[metric];
        cumulative += (value - prev) * factor[i];
        prev = value;
        value = cumulative;
      }
    }
    for (const auto& [metric, pc] : running) p.totals[metric] = pc.second;
  }
}

struct ReplayInput {
  std::optional<profile::Profile> stored;  ///< decoded from SYNB
  Expected expected;
  size_t encoded_bytes = 0;
};

/// Setup shared by both replay workloads: synthesize the spec's profile,
/// jitter it from the seed, SYNB round trip it (the stored shape), take
/// its delta table for the conservation reference, and pay the
/// emulator's one-time startup with a short warm-up replay.
ReplayInput build_input(workload::ScenarioSpec spec, const RunOptions& options,
                        const emulator::EmulatorOptions& eopts,
                        Tracer& tracer) {
  Rng rng(options.seed);
  ReplayInput in;
  profile::Profile synthetic;
  {
    Scope s(tracer, "workload.make_profile");
    synthetic = spec.make_profile();
  }
  jitter_increments(synthetic, rng, 0.5);
  std::string bytes;
  {
    Scope s(tracer, "profile.to_binary");
    bytes = synthetic.to_binary();
  }
  in.encoded_bytes = bytes.size();
  {
    Scope s(tracer, "profile.from_binary");
    in.stored = profile::Profile::from_binary(std::move(bytes));
  }
  {
    Scope s(tracer, "profile.delta_table");
    in.expected =
        expected_consumption(in.stored->delta_table(), eopts.compute.kernel);
  }
  spec.source.samples = 16;
  emulator::ReplayEngine(eopts).replay(spec.make_profile());
  return in;
}

Result run_replay(const std::string& label, const workload::ScenarioSpec& spec,
                  const emulator::EmulatorOptions& eopts,
                  const RunOptions& options, Tracer& tracer) {
  synapse::resource::activate_resource("host");
  Result result;
  ReplayInput input;
  constexpr size_t kSetups = 9;
  for (size_t k = 0; k < kSetups; ++k) {
    tracer.set_run(Tracer::kSetupRun + k);
    tracer.set_enabled(options.trace);
    const synapse::sys::Stopwatch w;
    {
      Scope s(tracer, "bench.setup");
      input = build_input(spec, options, eopts, tracer);
    }
    result.setup_seconds.push_back(w.elapsed());
  }

  ReplayFigures figures;
  const profile::Profile& stored = *input.stored;
  const synapse::sys::Stopwatch clock;
  for (size_t rep = 0; keep_going(clock, options, rep, 4); ++rep) {
    settle_disk(options.work_dir);
    tracer.set_run(rep);
    tracer.set_enabled(options.trace && rep % 2 == 1);
    const bool traced = tracer.enabled();
    emulator::EmulationResult r;
    const synapse::sys::Stopwatch w;
    {
      Scope s(tracer, "bench.rep");
      Scope call(tracer, "emulator.replay");
      r = emulator::ReplayEngine(eopts).replay(stored);
    }
    const double wall = w.elapsed();
    result.reps.push_back(
        {static_cast<double>(r.samples_replayed), wall, traced});
    figures.add(r, input.expected, wall, traced || !options.trace, result);
  }
  tracer.set_enabled(false);

  std::vector<double> samples_per_s;
  for (const auto& rep : result.reps) {
    if (!rep.traced) samples_per_s.push_back(rep.units / rep.seconds);
  }
  result.named.push_back({"replay_samples_per_s", median(samples_per_s),
                          "1/s", samples_per_s.size()});

  figures.publish(result);
  auto& layer = result.layer;
  layer["workload.make_profile_s"] =
      median(tracer.durations("workload.make_profile", true));
  layer["profile.encode_s"] = median(tracer.durations("profile.to_binary", true));
  layer["profile.decode_s"] = median(tracer.durations("profile.from_binary", true));
  layer["profile.delta_table_s"] =
      median(tracer.durations("profile.delta_table", true));
  layer["profile.encoded_bytes"] = static_cast<double>(input.encoded_bytes);
  layer["profile.decoded_bytes"] = static_cast<double>(stored.decoded_bytes());

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu samples; dispatch share %.2f of replay wall, "
                "busiest-atom share %.2f",
                label.c_str(), input.expected.rows, figures.dispatch_share(),
                figures.atom_share());
  result.shape.push_back(line);
  return result;
}

}  // namespace

Result run_replay_dispatch(const RunOptions& options, Tracer& tracer) {
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ull);
  workload::ScenarioSpec spec;
  spec.name = "perfbench-dispatch";
  spec.atom_set = {"compute", "memory"};
  spec.source.samples = 20000 + rng() % 200;
  spec.source.sample_rate_hz = 100.0;
  spec.source.deltas[std::string(m::kCyclesUsed)] = 1000.0;
  spec.source.deltas[std::string(m::kMemAllocated)] = 1024.0;
  spec.source.deltas[std::string(m::kMemFreed)] = 1024.0;

  emulator::EmulatorOptions eopts;  // defaults: single mode
  eopts.storage.base_dir = options.work_dir;
  return run_replay("replay-dispatch", spec, eopts, options, tracer);
}

Result run_replay_mixed(const RunOptions& options, Tracer& tracer) {
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ull);
  workload::ScenarioSpec spec = *workload::find_builtin("mixed-mdsim-like");
  spec.source.samples = 600 + rng() % 6;

  emulator::EmulatorOptions eopts;
  eopts.storage.base_dir = options.work_dir;
  eopts.replay_batch = 8;
  return run_replay("replay-mixed", spec, eopts, options, tracer);
}

}  // namespace perfbench
