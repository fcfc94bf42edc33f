// Single-vs-batched replay throughput (ROADMAP: "batching inside the
// replay path itself").
//
// Replays one dispatch-bound synthetic profile (many samples, tiny
// per-sample budgets, the full compute+memory+storage atom mix) through
// the ReplayEngine in single mode and in batch mode across a sweep of
// batch sizes, and reports samples/s plus the speedup over single mode.
// With per-sample work this small, the single-mode cost is dominated by
// the per-sample lockstep barrier — exactly what wider windows
// amortize; the expectation (asserted by CI eyeballs, not exit codes)
// is batch >= 8 at least matching single mode.
//
// A second, decode-bound section replays the same profile out of a
// files-backed ProfileStore written once as JSON and once as SYNB
// binary: the timed path is store read (parse/decode) + delta_table
// (what the replay plan compiles) + the replay itself, so the binary
// codec's whole-pipeline win ("vs json" on the decode columns) is
// measured where it matters.
//
// A third section times the hot-cache lookup path: cold find_latest
// (read + decode) vs repeated find_latest / find_latest_shared hits on
// the store's decoded-profile cache — the repeated-emulation loop.
//
// Usage: bench_replay_batch [--smoke] [--json PATH] [N]
//   --smoke      tiny sample count (CI smoke run)
//   --json PATH  machine-readable results (bench_util.hpp Results)
//   N            samples in the synthetic profile (default 1500, smoke 150)

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "emulator/replay_engine.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "sys/clock.hpp"
#include "workload/scenario.hpp"

namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace workload = synapse::workload;
namespace sys = synapse::sys;
namespace m = synapse::metrics;

namespace {

/// Dispatch-bound scenario: per-sample budgets small enough that the
/// feed loop's own overhead, not the atoms' work, dominates.
profile::Profile make_dispatch_bound_profile(size_t samples) {
  workload::ScenarioSpec spec;
  spec.name = "replay-batch-bench";
  spec.atom_set = {"compute", "memory", "storage"};
  spec.source.samples = samples;
  spec.source.sample_rate_hz = 100.0;
  spec.source.deltas[std::string(m::kCyclesUsed)] = 2e4;
  spec.source.deltas[std::string(m::kMemAllocated)] = 64.0 * 1024;
  spec.source.deltas[std::string(m::kMemFreed)] = 64.0 * 1024;
  spec.source.deltas[std::string(m::kBytesWritten)] = 4.0 * 1024;
  return spec.make_profile();
}

double run_once(const profile::Profile& p, size_t batch) {
  emulator::EmulatorOptions opts = bench::emu_options();
  opts.atom_set = {"compute", "memory", "storage"};
  opts.replay_batch = batch;
  emulator::ReplayEngine engine(opts);
  const sys::Stopwatch w;
  const auto r = engine.replay(p);
  const double elapsed = w.elapsed();
  if (r.samples_replayed != p.sample_count() / 3) {
    // 3 series (trace/mem/io watcher buckets) over the same periods.
    bench::row("!! replayed %zu of %zu samples", r.samples_replayed,
               p.sample_count() / 3);
  }
  return elapsed;
}

/// The dispatch showcase: a memory atom with a 1 KiB alloc/free per
/// sample — sub-microsecond of real work, so per-sample dispatch (lane
/// reads, ring hand-off, window barrier) IS the wall time. The other
/// atoms would mask it: storage does real file I/O per sample and the
/// compute kernel has a fixed per-call floor.
void dispatch_bound_section(size_t samples) {
  workload::ScenarioSpec spec;
  spec.name = "replay-dispatch-bench";
  spec.atom_set = {"memory"};
  spec.source.samples = samples * 20;
  spec.source.sample_rate_hz = 100.0;
  spec.source.deltas[std::string(m::kMemAllocated)] = 1024.0;
  spec.source.deltas[std::string(m::kMemFreed)] = 1024.0;
  // SYNB round trip: a stored profile arrives with its binary payload,
  // so the plan builds its columnar table straight off the
  // decode_columns() views — no SampleDelta maps anywhere.
  const profile::Profile p =
      profile::Profile::from_binary(spec.make_profile().to_binary());
  const double n = static_cast<double>(spec.source.samples);

  bench::heading("Dispatch-bound feed — " +
                 std::to_string(spec.source.samples) +
                 " samples, memory atom, 1 KiB budgets");
  bench::row("%-12s %10s %12s", "mode", "wall", "samples/s");

  for (const size_t batch : {size_t{1}, size_t{8}, size_t{32}}) {
    emulator::EmulatorOptions opts = bench::emu_options();
    opts.atom_set = {"memory"};
    opts.replay_batch = batch;
    const sys::Stopwatch w;
    emulator::ReplayEngine(opts).replay(p);
    const double wall_s = w.elapsed();

    const std::string mode =
        batch <= 1 ? "single" : "batch=" + std::to_string(batch);
    bench::row("%-12s %9.3fs %10.0f/s", mode.c_str(), wall_s, n / wall_s);
    const std::string key = batch <= 1 ? "single" : std::to_string(batch);
    bench::results().record("dispatch", "frames_" + key + "_per_s",
                            n / wall_s, "1/s");
  }
}

/// JSON-vs-binary replay out of a files store: read + delta_table +
/// replay per format. The decode columns (read + deltas) are where the
/// codec shows; the replay column is format-independent atom work.
void store_backed_section(size_t samples) {
  const std::string dir = "/tmp/synapse_bench_replay_store";
  const profile::Profile src = make_dispatch_bound_profile(samples);

  bench::heading("Store-backed replay — files backend, " +
                 std::to_string(samples) + " samples per series");
  bench::row("%-8s %10s %10s %10s %10s  %s", "format", "read", "deltas",
             "replay", "total", "decode vs json");

  double json_decode_s = 0.0;
  for (const std::string format : {"json", "binary"}) {
    std::system(("rm -rf " + dir).c_str());
    {
      profile::ProfileStoreOptions options;
      options.backend = "files";
      options.directory = dir;
      options.format = format;
      profile::ProfileStore store(std::move(options));
      store.put(src);
      store.flush();
    }
    profile::ProfileStoreOptions options;
    options.backend = "files";
    options.directory = dir;
    profile::ProfileStore store(std::move(options));

    sys::Stopwatch w;
    const auto stored = store.find_latest(src.command);
    const double read_s = w.elapsed();
    if (!stored) {
      bench::row("!! %s profile did not round-trip through the store",
                 format.c_str());
      continue;
    }
    w.reset();
    const profile::DeltaTable table = stored->delta_table();
    const double deltas_s = w.elapsed();
    (void)table;

    emulator::EmulatorOptions opts = bench::emu_options();
    opts.atom_set = {"compute", "memory", "storage"};
    opts.replay_batch = 8;
    emulator::ReplayEngine engine(opts);
    w.reset();
    engine.replay(*stored);
    const double replay_s = w.elapsed();

    const double decode_s = read_s + deltas_s;
    if (format == "json") json_decode_s = decode_s;
    std::string vs_json = "-";
    if (format == "binary" && json_decode_s > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1fx", json_decode_s / decode_s);
      vs_json = buf;
    }
    bench::row("%-8s %9.4fs %9.4fs %9.4fs %9.4fs  %s", format.c_str(),
               read_s, deltas_s, replay_s, read_s + deltas_s + replay_s,
               vs_json.c_str());
    const std::string section = "store/" + format;
    bench::results().record(section, "read_s", read_s, "s");
    bench::results().record(section, "deltas_s", deltas_s, "s");
    bench::results().record(section, "replay_s", replay_s, "s");
  }
  std::system(("rm -rf " + dir).c_str());
}

/// Hot-cache replay: the first find_latest pays the full read + decode;
/// repeated lookups of the same workload hit the store's decoded-profile
/// cache, and find_latest_shared additionally skips the copy-out (one
/// refcount bump). This is the paper's hot loop — re-emulating the same
/// recorded workload many times.
void hot_cache_section(size_t samples) {
  const std::string dir = "/tmp/synapse_bench_replay_cache";
  const profile::Profile src = make_dispatch_bound_profile(samples);
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStoreOptions options;
    options.backend = "files";
    options.directory = dir;
    options.format = "binary";
    profile::ProfileStore store(std::move(options));
    store.put(src);
    store.flush();
  }
  profile::ProfileStoreOptions options;
  options.backend = "files";
  options.directory = dir;
  profile::ProfileStore store(std::move(options));

  bench::heading("Hot-cache lookups — files/binary, " +
                 std::to_string(samples) + " samples per series");
  bench::row("%-22s %12s %12s  %s", "path", "per lookup", "lookups/s",
             "vs cold");

  constexpr size_t kIterations = 200;
  sys::Stopwatch w;
  (void)store.find_latest(src.command);
  const double cold_s = std::max(w.elapsed(), 1e-9);
  bench::row("%-22s %11.6fs %10.0f/s  %5s", "cold (read+decode)", cold_s,
             1.0 / cold_s, "1.0x");
  bench::results().record("hot_cache", "cold_s", cold_s, "s");

  w.reset();
  for (size_t i = 0; i < kIterations; ++i) {
    (void)store.find_latest(src.command);
  }
  const double hot_copy_s = std::max(w.elapsed() / kIterations, 1e-12);
  bench::row("%-22s %11.6fs %10.0f/s  %4.0fx", "hot find_latest",
             hot_copy_s, 1.0 / hot_copy_s, cold_s / hot_copy_s);
  bench::results().record("hot_cache", "hot_copy_s", hot_copy_s, "s");

  w.reset();
  for (size_t i = 0; i < kIterations; ++i) {
    (void)store.find_latest_shared(src.command);
  }
  const double hot_shared_s = std::max(w.elapsed() / kIterations, 1e-12);
  bench::row("%-22s %11.6fs %10.0f/s  %4.0fx", "hot find_latest_shared",
             hot_shared_s, 1.0 / hot_shared_s, cold_s / hot_shared_s);
  bench::results().record("hot_cache", "hot_shared_s", hot_shared_s, "s");

  const auto stats = store.cache_stats();
  bench::row("cache: %llu hits / %llu misses, %llu bytes decoded",
             static_cast<unsigned long long>(stats.hits),
             static_cast<unsigned long long>(stats.misses),
             static_cast<unsigned long long>(stats.bytes));
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::results().set_bench("bench_replay_batch");
  size_t samples = 1500;
  for (int i = 1; i < argc; ++i) {
    if (bench::json_flag(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      samples = 150;
    } else {
      const long n = std::atol(argv[i]);
      if (n > 0) samples = static_cast<size_t>(n);
    }
  }

  const profile::Profile p = make_dispatch_bound_profile(samples);
  bench::heading("Replay feed modes — " + std::to_string(samples) +
                 " samples, compute+memory+storage");
  bench::row("%-12s %10s %12s  %8s", "mode", "wall", "samples/s", "speedup");

  const double n = static_cast<double>(samples);
  const double single_s = run_once(p, 1);
  bench::row("%-12s %9.3fs %10.0f/s  %7s", "single", single_s, n / single_s,
             "1.0x");
  bench::results().record("feed", "frames_single_per_s", n / single_s, "1/s");

  for (const size_t batch : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
    const double batch_s = run_once(p, batch);
    bench::row("%-12s %9.3fs %10.0f/s  %6.1fx",
               ("batch=" + std::to_string(batch)).c_str(), batch_s,
               n / batch_s, single_s / batch_s);
    bench::results().record("feed", "frames_batch" + std::to_string(batch) +
                            "_per_s", n / batch_s, "1/s");
  }

  dispatch_bound_section(samples);
  store_backed_section(samples);
  hot_cache_section(samples);
  bench::results().write();
  return 0;
}
