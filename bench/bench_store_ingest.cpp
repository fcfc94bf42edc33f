// Scenario-driven ProfileStore ingest benchmark (ROADMAP: "scenario-
// driven store ingest benchmarks").
//
// Synthesizes a profile stream from the built-in scenario catalog (each
// repetition re-tagged so the stream spreads across shards, as a fleet
// of concurrent recorders would) and measures, per backend and shard
// count:
//
//   put        - one store insert per profile (one lock each)
//   put_many   - the whole stream in one batched insert
//   flush      - synchronous persistence of the batch
//   flush_async- foreground cost of handing persistence to the worker
//                (the drain is timed separately as "drain")
//
// Persistent backends encode every put as SYNB, so the encoder sits on
// the put path; the memory backend stores Profile objects and never
// encodes.
//
// A second section sweeps ProfileStoreOptions::threads (1/2/4/shared
// pool) over a 16-shard files store and times the pool-parallel
// cross-shard operations: put_many and the list() scan.
//
// Usage: bench_store_ingest [--smoke] [--json PATH] [N]
//   --smoke      tiny stream (CI smoke run)
//   --json PATH  machine-readable results (bench_util.hpp Results)
//   N            profiles per scenario (default 40, smoke 4)

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "profile/profile_store.hpp"
#include "sys/clock.hpp"
#include "workload/scenario.hpp"

namespace profile = synapse::profile;
namespace workload = synapse::workload;
namespace sys = synapse::sys;

namespace {

/// Profile stream shaped like repeated scenario recordings: every
/// catalog entry contributes `reps` profiles with distinct rep tags and
/// monotonically increasing timestamps.
std::vector<profile::Profile> make_stream(size_t reps) {
  std::vector<profile::Profile> stream;
  double clock = 1.0e9;  // synthetic created_at epoch
  for (const auto& spec : workload::builtin_scenarios()) {
    const profile::Profile base = spec.make_profile();
    for (size_t rep = 0; rep < reps; ++rep) {
      profile::Profile p = base;
      p.tags.push_back("rep=" + std::to_string(rep));
      p.created_at = clock += 1.0;
      stream.push_back(std::move(p));
    }
  }
  return stream;
}

struct IngestTiming {
  double put_s = 0.0;
  double put_many_s = 0.0;
  double flush_s = 0.0;
  double async_fg_s = 0.0;  ///< foreground put_many + flush_async
  double drain_s = 0.0;     ///< waiting for the background worker
};

profile::ProfileStore make_store(const std::string& backend,
                                 const std::string& dir, size_t shards,
                                 size_t threads = 1) {
  profile::ProfileStoreOptions options;
  options.shards = shards;
  options.backend = backend;
  options.threads = threads;
  if (backend == "memory") {
    return profile::ProfileStore(std::move(options));
  }
  std::system(("rm -rf " + dir).c_str());
  options.directory = dir;
  return profile::ProfileStore(std::move(options));
}

IngestTiming run_one(const std::string& backend, size_t shards,
                     const std::vector<profile::Profile>& stream) {
  const std::string dir = "/tmp/synapse_bench_ingest";
  IngestTiming t;

  {
    auto store = make_store(backend, dir, shards);
    sys::Stopwatch w;
    for (const auto& p : stream) store.put(p);
    t.put_s = w.elapsed();
    w.reset();
    store.flush();
    t.flush_s = w.elapsed();
  }
  {
    auto store = make_store(backend, dir, shards);
    sys::Stopwatch w;
    store.put_many(stream);
    t.put_many_s = w.elapsed();
  }
  {
    auto store = make_store(backend, dir, shards);
    sys::Stopwatch w;
    store.put_many(stream);
    store.flush_async();
    t.async_fg_s = w.elapsed();
    w.reset();
    store.flush();  // bounded: waits for everything queued above
    t.drain_s = w.elapsed();
  }
  std::system(("rm -rf " + dir).c_str());
  return t;
}

/// Cross-shard parallelism sweep: the same files-backed stream,
/// shards fixed at 16, worker threads 1 (fully serial store), 2, 4 and
/// 0 (the process-wide shared pool at its default width). put_many
/// fans out one task per shard; list() is the full-store scan; the
/// speedup column is each row's put_many rate over the threads=1 row.
void parallel_section(const std::vector<profile::Profile>& stream) {
  const std::string dir = "/tmp/synapse_bench_ingest_par";
  const double n = static_cast<double>(stream.size());
  constexpr size_t kShards = 16;

  bench::heading("Cross-shard parallelism — files backend, " +
                 std::to_string(kShards) + " shards");
  bench::row("%-12s %10s %10s %9s", "threads", "put_many", "scan",
             "speedup");

  double serial_put_many_s = 0.0;
  for (const size_t threads :
       {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    auto store = make_store("files", dir, kShards, threads);
    sys::Stopwatch w;
    store.put_many(stream);
    const double put_many_s = std::max(w.elapsed(), 1e-9);
    w.reset();
    const size_t listed = store.list().size();
    const double scan_s = std::max(w.elapsed(), 1e-9);
    if (listed != stream.size()) {
      bench::row("!! scan saw %zu of %zu profiles", listed, stream.size());
    }

    if (threads == 1) serial_put_many_s = put_many_s;
    const std::string label =
        threads == 0 ? "pool(" + std::to_string(store.task_threads()) + ")"
                     : std::to_string(threads);
    bench::row("%-12s %8.0f/s %9.3fs %8.1fx", label.c_str(),
               n / put_many_s, scan_s, serial_put_many_s / put_many_s);
    const std::string section = "parallel/threads=" + label;
    bench::results().record(section, "put_many_per_s", n / put_many_s,
                            "1/s");
    bench::results().record(section, "scan_s", scan_s, "s");
  }
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::results().set_bench("bench_store_ingest");
  size_t reps = 40;
  for (int i = 1; i < argc; ++i) {
    if (bench::json_flag(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      reps = 4;
    } else {
      const long n = std::atol(argv[i]);
      if (n > 0) reps = static_cast<size_t>(n);
    }
  }

  const auto stream = make_stream(reps);
  bench::heading("ProfileStore ingest — " + std::to_string(stream.size()) +
                 " profiles (" + std::to_string(reps) + " reps x " +
                 std::to_string(workload::builtin_scenarios().size()) +
                 " scenarios)");
  bench::row("%-9s %6s %10s %10s %10s %12s %10s %8s", "backend", "shards",
             "put", "put_many", "flush", "async(fg)", "drain", "speedup");

  const double n = static_cast<double>(stream.size());
  for (const std::string backend : {"memory", "docstore", "files"}) {
    for (const size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
      IngestTiming t = run_one(backend, shards, stream);
      // Sub-microsecond phases (tiny smoke streams) would divide to inf.
      t.put_s = std::max(t.put_s, 1e-9);
      t.put_many_s = std::max(t.put_many_s, 1e-9);
      bench::row("%-9s %6zu %8.0f/s %8.0f/s %9.3fs %11.3fs %9.3fs %7.1fx",
                 backend.c_str(), shards, n / t.put_s, n / t.put_many_s,
                 t.flush_s, t.async_fg_s, t.drain_s, t.put_s / t.put_many_s);
      const std::string section =
          backend + "/shards=" + std::to_string(shards);
      bench::results().record(section, "put_per_s", n / t.put_s, "1/s");
      bench::results().record(section, "put_many_per_s", n / t.put_many_s,
                              "1/s");
      bench::results().record(section, "flush_s", t.flush_s, "s");
      bench::results().record(section, "async_fg_s", t.async_fg_s, "s");
      bench::results().record(section, "drain_s", t.drain_s, "s");
    }
  }
  parallel_section(stream);
  bench::results().write();
  return 0;
}
