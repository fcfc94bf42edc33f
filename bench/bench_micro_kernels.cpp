// Micro-benchmarks (google-benchmark) for the hot building blocks:
// compute kernels, token bucket, virtual filesystem ops, JSON, and the
// sample-delta decomposition. These are engineering benchmarks, not
// paper figures; they guard the emulator's overhead budget (paper
// section 4.5 "Overheads").

#include <benchmark/benchmark.h>

#include "atoms/kernels.hpp"
#include "json/json.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile.hpp"
#include "resource/throttle.hpp"
#include "resource/vfs.hpp"

namespace atoms = synapse::atoms;
namespace resource = synapse::resource;
namespace profile = synapse::profile;
namespace json = synapse::json;
namespace m = synapse::metrics;

static void BM_AsmKernelFlopRate(benchmark::State& state) {
  auto kernel = atoms::make_asm_kernel();
  double flops = 0.0;
  for (auto _ : state) {
    flops += kernel->busy(0.01);
  }
  state.counters["flops/s"] = benchmark::Counter(
      flops, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AsmKernelFlopRate)->Unit(benchmark::kMillisecond);

static void BM_CKernelFlopRate(benchmark::State& state) {
  auto kernel = atoms::make_c_kernel();
  double flops = 0.0;
  for (auto _ : state) {
    flops += kernel->busy(0.01);
  }
  state.counters["flops/s"] = benchmark::Counter(
      flops, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CKernelFlopRate)->Unit(benchmark::kMillisecond);

static void BM_TokenBucketAcquire(benchmark::State& state) {
  resource::TokenBucket bucket(1e12, 1e12);  // never blocks: measure overhead
  for (auto _ : state) {
    bucket.acquire(1024.0);
  }
}
BENCHMARK(BM_TokenBucketAcquire);

static void BM_VfsWrite64k(benchmark::State& state) {
  resource::FilesystemSpec fs;  // free model: measures the real I/O path
  fs.read_bw_bps = 1e15;
  fs.write_bw_bps = 1e15;
  resource::VirtualFilesystem vfs(fs, "/tmp/synapse_bench_vfs");
  auto file = vfs.open("bench.dat", true);
  for (auto _ : state) {
    file->write(64 * 1024);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          1024);
  vfs.remove("bench.dat");
}
BENCHMARK(BM_VfsWrite64k);

static void BM_JsonDumpProfileSample(benchmark::State& state) {
  json::Object sample;
  sample["t"] = 1234.5678;
  json::Object values;
  values[std::string(m::kCyclesUsed)] = 1.23e9;
  values[std::string(m::kBytesWritten)] = 4.5e6;
  values[std::string(m::kMemResident)] = 6.7e8;
  sample["v"] = std::move(values);
  const json::Value v(std::move(sample));
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::dump(v));
  }
}
BENCHMARK(BM_JsonDumpProfileSample);

static void BM_JsonParseProfileSample(benchmark::State& state) {
  const std::string doc =
      R"({"t":1234.5678,"v":{"compute.cycles_used":1.23e9,)"
      R"("storage.bytes_written":4.5e6,"memory.bytes_resident":6.7e8}})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(doc));
  }
}
BENCHMARK(BM_JsonParseProfileSample);

static void BM_SampleDeltaDecomposition(benchmark::State& state) {
  profile::Profile p;
  p.sample_rate_hz = 10.0;
  profile::TimeSeries ts;
  ts.watcher = "trace";
  const auto n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    s.set(m::kCyclesUsed, static_cast<double>(i) * 1e6);
    s.set(m::kBytesWritten, static_cast<double>(i) * 1e3);
    ts.samples.push_back(std::move(s));
  }
  p.series.push_back(std::move(ts));
  // No SYNB payload: delta_table() encodes the series, then runs the
  // column kernel.
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.delta_table());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SampleDeltaDecomposition)->Range(64, 4096)->Complexity();

BENCHMARK_MAIN();
