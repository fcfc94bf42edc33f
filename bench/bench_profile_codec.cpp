// Profile codec benchmark: JSON text vs the SYNB binary columnar
// container (profile/binary_codec.hpp) across the built-in scenario
// catalog.
//
// Per scenario, averaged over `iters` repetitions:
//
//   dump    - Profile::to_json + json::dump (compact)
//   encode  - Profile::to_binary (SYNB)
//   parse   - json::parse (heap DOM) + Profile::from_json
//   decode  - Profile::from_binary (includes the payload copy a store
//             read would make)
//
// plus the encoded sizes and the binary/json size ratio — the codec's
// acceptance bar is ratio <= 0.50 on catalog profiles. The TOTAL row
// aggregates the whole catalog.
//
// Usage: bench_profile_codec [--smoke] [--json PATH] [ITERS]
//   --smoke      few iterations (CI smoke run)
//   --json PATH  machine-readable results (bench_util.hpp Results)
//   ITERS        repetitions per scenario (default 50, smoke 3)

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "json/json.hpp"
#include "profile/profile.hpp"
#include "sys/clock.hpp"
#include "workload/scenario.hpp"

namespace json = synapse::json;
namespace profile = synapse::profile;
namespace workload = synapse::workload;
namespace sys = synapse::sys;

namespace {

struct CodecTiming {
  double dump_s = 0.0;
  double encode_s = 0.0;
  double parse_s = 0.0;
  double decode_s = 0.0;
  size_t json_bytes = 0;
  size_t synb_bytes = 0;
};

CodecTiming run_one(const profile::Profile& p, size_t iters) {
  CodecTiming t;
  const std::string text = json::dump(p.to_json());
  const std::string blob = p.to_binary();
  t.json_bytes = text.size();
  t.synb_bytes = blob.size();

  sys::Stopwatch w;
  for (size_t i = 0; i < iters; ++i) {
    const std::string out = json::dump(p.to_json());
    if (out.empty()) std::abort();
  }
  t.dump_s = w.elapsed() / static_cast<double>(iters);

  w.reset();
  for (size_t i = 0; i < iters; ++i) {
    const std::string out = p.to_binary();
    if (out.empty()) std::abort();
  }
  t.encode_s = w.elapsed() / static_cast<double>(iters);

  w.reset();
  for (size_t i = 0; i < iters; ++i) {
    const profile::Profile back = profile::Profile::from_json(
        json::parse(text));
    if (back.sample_count() != p.sample_count()) std::abort();
  }
  t.parse_s = w.elapsed() / static_cast<double>(iters);

  w.reset();
  for (size_t i = 0; i < iters; ++i) {
    const profile::Profile back = profile::Profile::from_binary(blob);
    if (back.sample_count() != p.sample_count()) std::abort();
  }
  t.decode_s = w.elapsed() / static_cast<double>(iters);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::results().set_bench("bench_profile_codec");
  size_t iters = 50;
  for (int i = 1; i < argc; ++i) {
    if (bench::json_flag(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      iters = 3;
    } else {
      const long n = std::atol(argv[i]);
      if (n > 0) iters = static_cast<size_t>(n);
    }
  }

  bench::heading("Profile codec — JSON vs SYNB, " + std::to_string(iters) +
                 " iters per scenario");
  bench::row("%-22s %8s %9s %9s %6s %8s %8s %8s %8s", "scenario",
             "samples", "json", "synb", "ratio", "dump", "encode", "parse",
             "decode");

  CodecTiming total;
  size_t total_samples = 0;
  for (const auto& spec : workload::builtin_scenarios()) {
    const profile::Profile p = spec.make_profile();
    const CodecTiming t = run_one(p, iters);
    bench::row("%-22s %8zu %8zuB %8zuB %5.2f %7.0fus %7.0fus %7.0fus "
               "%7.0fus",
               spec.name.c_str(), p.sample_count(), t.json_bytes,
               t.synb_bytes,
               static_cast<double>(t.synb_bytes) /
                   static_cast<double>(t.json_bytes),
               t.dump_s * 1e6, t.encode_s * 1e6, t.parse_s * 1e6,
               t.decode_s * 1e6);
    bench::results().record(spec.name, "json_bytes",
                            static_cast<double>(t.json_bytes), "B");
    bench::results().record(spec.name, "synb_bytes",
                            static_cast<double>(t.synb_bytes), "B");
    bench::results().record(spec.name, "dump_s", t.dump_s, "s");
    bench::results().record(spec.name, "encode_s", t.encode_s, "s");
    bench::results().record(spec.name, "parse_s", t.parse_s, "s");
    bench::results().record(spec.name, "decode_s", t.decode_s, "s");
    total.dump_s += t.dump_s;
    total.encode_s += t.encode_s;
    total.parse_s += t.parse_s;
    total.decode_s += t.decode_s;
    total.json_bytes += t.json_bytes;
    total.synb_bytes += t.synb_bytes;
    total_samples += p.sample_count();
  }
  bench::row("%-22s %8zu %8zuB %8zuB %5.2f %7.0fus %7.0fus %7.0fus "
             "%7.0fus",
             "TOTAL", total_samples, total.json_bytes, total.synb_bytes,
             static_cast<double>(total.synb_bytes) /
                 static_cast<double>(total.json_bytes),
             total.dump_s * 1e6, total.encode_s * 1e6, total.parse_s * 1e6,
             total.decode_s * 1e6);
  bench::row("(parse/decode %.1fx, dump/encode %.1fx, size ratio %.2f)",
             total.parse_s / total.decode_s,
             total.dump_s / total.encode_s,
             static_cast<double>(total.synb_bytes) /
                 static_cast<double>(total.json_bytes));
  bench::results().record("TOTAL", "size_ratio",
                          static_cast<double>(total.synb_bytes) /
                              static_cast<double>(total.json_bytes),
                          "");
  bench::results().write();
  return 0;
}
