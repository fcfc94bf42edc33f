#include "profile/profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "json/json.hpp"
#include "profile/binary_codec.hpp"
#include "profile/metrics.hpp"

namespace json = synapse::json;
namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Sample sample_at(double t,
                          std::initializer_list<std::pair<std::string_view, double>>
                              values) {
  profile::Sample s;
  s.timestamp = t;
  for (const auto& [k, v] : values) s.set(k, v);
  return s;
}

/// A profile with a cpu series (cumulative cycles) and an io series
/// (cumulative bytes) on drifting timestamps.
profile::Profile make_profile() {
  profile::Profile p;
  p.command = "fake";
  p.sample_rate_hz = 10.0;  // 0.1 s period

  profile::TimeSeries cpu;
  cpu.watcher = "cpu";
  cpu.samples.push_back(sample_at(100.00, {{m::kCyclesUsed, 1000.0}}));
  cpu.samples.push_back(sample_at(100.10, {{m::kCyclesUsed, 3000.0}}));
  cpu.samples.push_back(sample_at(100.20, {{m::kCyclesUsed, 6000.0}}));
  p.series.push_back(cpu);

  profile::TimeSeries io;
  io.watcher = "io";
  // Deliberately drifted by 30 ms relative to the cpu watcher.
  io.samples.push_back(sample_at(100.03, {{m::kBytesWritten, 50.0}}));
  io.samples.push_back(sample_at(100.13, {{m::kBytesWritten, 150.0}}));
  io.samples.push_back(sample_at(100.23, {{m::kBytesWritten, 150.0}}));
  p.series.push_back(io);

  profile::TimeSeries mem;
  mem.watcher = "mem";
  mem.samples.push_back(sample_at(100.05, {{m::kMemResident, 4096.0}}));
  mem.samples.push_back(sample_at(100.15, {{m::kMemResident, 8192.0}}));
  p.series.push_back(mem);

  p.totals[std::string(m::kRuntime)] = 0.25;
  p.totals[std::string(m::kCyclesUsed)] = 6000.0;
  return p;
}

}  // namespace

TEST(Profile, SampleGetSet) {
  profile::Sample s;
  EXPECT_DOUBLE_EQ(s.get(m::kFlops, 7.0), 7.0);
  s.set(m::kFlops, 3.0);
  EXPECT_DOUBLE_EQ(s.get(m::kFlops), 3.0);
}

TEST(Profile, TimeSeriesLastAndMax) {
  const auto p = make_profile();
  const auto* cpu = p.find_series("cpu");
  ASSERT_NE(cpu, nullptr);
  EXPECT_DOUBLE_EQ(cpu->last(m::kCyclesUsed), 6000.0);
  EXPECT_DOUBLE_EQ(cpu->max(m::kCyclesUsed), 6000.0);
  EXPECT_DOUBLE_EQ(cpu->last(m::kFlops), 0.0);
  EXPECT_EQ(p.find_series("nope"), nullptr);
}

TEST(Profile, SampleDeltasDifferenceCumulativeMetrics) {
  const auto deltas = make_profile().sample_deltas();
  ASSERT_GE(deltas.size(), 3u);
  // First bucket: cycles 1000 (0 -> 1000), bytes 50.
  EXPECT_DOUBLE_EQ(deltas[0].get(m::kCyclesUsed), 1000.0);
  EXPECT_DOUBLE_EQ(deltas[0].get(m::kBytesWritten), 50.0);
  // Second bucket: cycles 2000, bytes 100.
  EXPECT_DOUBLE_EQ(deltas[1].get(m::kCyclesUsed), 2000.0);
  EXPECT_DOUBLE_EQ(deltas[1].get(m::kBytesWritten), 100.0);
  // Third bucket: cycles 3000, bytes 0 (unchanged cumulative value).
  EXPECT_DOUBLE_EQ(deltas[2].get(m::kCyclesUsed), 3000.0);
  EXPECT_DOUBLE_EQ(deltas[2].get(m::kBytesWritten), 0.0);
}

TEST(Profile, SampleDeltasSumEqualsTotals) {
  const auto p = make_profile();
  double cycles = 0.0, bytes = 0.0;
  for (const auto& d : p.sample_deltas()) {
    cycles += d.get(m::kCyclesUsed);
    bytes += d.get(m::kBytesWritten);
  }
  EXPECT_DOUBLE_EQ(cycles, 6000.0);
  EXPECT_DOUBLE_EQ(bytes, 150.0);
}

TEST(Profile, SampleDeltasInstantaneousUsesMax) {
  const auto deltas = make_profile().sample_deltas();
  EXPECT_DOUBLE_EQ(deltas[0].get(m::kMemResident), 4096.0);
  EXPECT_DOUBLE_EQ(deltas[1].get(m::kMemResident), 8192.0);
}

TEST(Profile, SampleDeltasPreserveOrderAcrossDriftedWatchers) {
  // The io watcher's timestamps lag the cpu watcher's by less than one
  // period; bucketing must still co-locate concurrent activity.
  const auto deltas = make_profile().sample_deltas();
  EXPECT_GT(deltas[0].get(m::kCyclesUsed), 0.0);
  EXPECT_GT(deltas[0].get(m::kBytesWritten), 0.0);
}

TEST(Profile, SampleDeltasEmptyProfile) {
  profile::Profile p;
  EXPECT_TRUE(p.sample_deltas().empty());
  p.sample_rate_hz = 0.0;
  EXPECT_TRUE(p.sample_deltas().empty());
}

TEST(Profile, DerivedEfficiencyFormula) {
  profile::Profile p;
  p.totals[std::string(m::kCyclesUsed)] = 800.0;
  p.totals[std::string(m::kCyclesStalledFrontend)] = 100.0;
  p.totals[std::string(m::kCyclesStalledBackend)] = 100.0;
  p.compute_derived();
  // efficiency = used / (used + wasted) = 800/1000.
  EXPECT_DOUBLE_EQ(p.get_derived(m::kEfficiency), 0.8);
}

TEST(Profile, DerivedUtilizationFormula) {
  profile::Profile p;
  p.system.max_cpu_freq_hz = 1000.0;
  p.system.num_cores = 2;
  p.totals[std::string(m::kRuntime)] = 2.0;
  p.totals[std::string(m::kCyclesUsed)] = 1000.0;
  p.compute_derived();
  // utilization = used / (freq * cores * Tx) = 1000/4000.
  EXPECT_DOUBLE_EQ(p.get_derived(m::kUtilization), 0.25);
}

TEST(Profile, DerivedFlopRate) {
  profile::Profile p;
  p.totals[std::string(m::kRuntime)] = 2.0;
  p.totals[std::string(m::kFlops)] = 500.0;
  p.compute_derived();
  EXPECT_DOUBLE_EQ(p.get_derived(m::kFlopsRate), 250.0);
}

TEST(Profile, JsonRoundTrip) {
  profile::Profile p = make_profile();
  p.tags = {"tag1", "tag2"};
  p.created_at = 1234.5;
  p.system.hostname = "testhost";
  p.system.num_cores = 8;
  p.system.max_cpu_freq_hz = 2.5e9;
  p.derived["x"] = 1.5;

  const profile::Profile q = profile::Profile::from_json(p.to_json());
  EXPECT_EQ(q.command, p.command);
  EXPECT_EQ(q.tags, p.tags);
  EXPECT_DOUBLE_EQ(q.sample_rate_hz, p.sample_rate_hz);
  EXPECT_DOUBLE_EQ(q.created_at, p.created_at);
  EXPECT_EQ(q.system.hostname, "testhost");
  EXPECT_EQ(q.system.num_cores, 8);
  EXPECT_EQ(q.series.size(), p.series.size());
  EXPECT_EQ(q.sample_count(), p.sample_count());
  EXPECT_DOUBLE_EQ(q.total(m::kCyclesUsed), 6000.0);
  EXPECT_DOUBLE_EQ(q.derived.at("x"), 1.5);

  // Deltas computed from the deserialized profile are identical.
  const auto d1 = p.sample_deltas();
  const auto d2 = q.sample_deltas();
  ASSERT_EQ(d1.size(), d2.size());
  for (size_t i = 0; i < d1.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1[i].get(m::kCyclesUsed), d2[i].get(m::kCyclesUsed));
  }
}

// Property: for any sampling rate, the delta decomposition conserves the
// cumulative totals (the emulation consumes exactly what was profiled).
class DeltaConservation : public ::testing::TestWithParam<double> {};

TEST_P(DeltaConservation, CyclesConserved) {
  profile::Profile p;
  p.sample_rate_hz = GetParam();
  profile::TimeSeries cpu;
  cpu.watcher = "cpu";
  double cumulative = 0.0;
  for (int i = 0; i < 50; ++i) {
    cumulative += 100.0 + 13.0 * (i % 7);
    cpu.samples.push_back(
        sample_at(200.0 + i / GetParam(), {{m::kCyclesUsed, cumulative}}));
  }
  p.series.push_back(cpu);

  double sum = 0.0;
  for (const auto& d : p.sample_deltas()) sum += d.get(m::kCyclesUsed);
  EXPECT_NEAR(sum, cumulative, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, DeltaConservation,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 100.0));

TEST(Profile, PerSeriesSampleRateRoundTripsThroughJson) {
  profile::Profile p = make_profile();
  ASSERT_FALSE(p.series.empty());
  p.series[0].sample_rate_hz = 42.0;  // per-watcher override metadata

  const profile::Profile q = profile::Profile::from_json(p.to_json());
  ASSERT_EQ(q.series.size(), p.series.size());
  EXPECT_DOUBLE_EQ(q.series[0].sample_rate_hz, 42.0);
  // Unset rates stay unset (0 = profile-level rate applies).
  for (size_t i = 1; i < q.series.size(); ++i) {
    EXPECT_DOUBLE_EQ(q.series[i].sample_rate_hz, 0.0) << i;
  }
}

TEST(Profile, EffectiveRateMeasuresRecordedSpan) {
  profile::TimeSeries ts;
  ts.sample_rate_hz = 100.0;
  EXPECT_DOUBLE_EQ(ts.effective_rate_hz(), 100.0);  // nothing to measure
  ts.samples.push_back(sample_at(10.0, {{m::kCyclesUsed, 1.0}}));
  EXPECT_DOUBLE_EQ(ts.effective_rate_hz(), 100.0);  // one sample: ditto
  ts.samples.push_back(sample_at(12.0, {{m::kCyclesUsed, 2.0}}));
  ts.samples.push_back(sample_at(14.0, {{m::kCyclesUsed, 3.0}}));
  // 2 gaps over 4 s -> 0.5 Hz, regardless of the nominal rate.
  EXPECT_DOUBLE_EQ(ts.effective_rate_hz(), 0.5);
}

TEST(Profile, GapStatsSummarizeInterSampleSpacing) {
  profile::TimeSeries ts;
  EXPECT_EQ(ts.gap_stats().gaps, 0u);
  ts.samples.push_back(sample_at(0.0, {}));
  EXPECT_EQ(ts.gap_stats().gaps, 0u);
  ts.samples.push_back(sample_at(0.1, {}));
  ts.samples.push_back(sample_at(0.3, {}));
  ts.samples.push_back(sample_at(1.3, {}));
  const auto g = ts.gap_stats();
  EXPECT_EQ(g.gaps, 3u);
  EXPECT_DOUBLE_EQ(g.min_s, 0.1);
  EXPECT_DOUBLE_EQ(g.max_s, 1.0);
  EXPECT_NEAR(g.mean_s, 1.3 / 3.0, 1e-12);
}

TEST(Profile, VariableRateDeltasBucketOnRecordedTimestamps) {
  // A burst-idle-burst trajectory: 3 samples 10 ms apart, a 2 s idle
  // stretch, then 2 more. Timestamp bucketing must keep each recorded
  // instant as its own delta with the recorded gap as its duration.
  profile::Profile p;
  p.sample_rate_hz = 100.0;
  profile::TimeSeries cpu;
  cpu.watcher = "cpu";
  cpu.variable_rate = true;
  const double times[] = {100.00, 100.01, 100.02, 102.02, 102.03};
  double cumulative = 0.0;
  for (const double t : times) {
    cumulative += 250.0;
    cpu.samples.push_back(sample_at(t, {{m::kCyclesUsed, cumulative}}));
  }
  p.series.push_back(cpu);

  ASSERT_TRUE(p.variable_rate());
  const auto deltas = p.sample_deltas();
  ASSERT_EQ(deltas.size(), 5u);
  EXPECT_DOUBLE_EQ(deltas[0].duration, 0.01);  // nominal first period
  EXPECT_DOUBLE_EQ(deltas[1].duration, 100.01 - 100.00);
  EXPECT_DOUBLE_EQ(deltas[3].duration, 102.02 - 100.02);  // the idle gap
  EXPECT_DOUBLE_EQ(deltas[4].duration, 102.03 - 102.02);
  double sum = 0.0;
  for (const auto& d : deltas) sum += d.get(m::kCyclesUsed);
  EXPECT_NEAR(sum, cumulative, 1e-9);
}

TEST(Profile, VariableRateDeltasUnionEdgesAcrossWatchers) {
  // Two gated watchers with disjoint trajectories: the edge list is the
  // union, and each watcher's cumulative deltas land at its own
  // recorded instants. Conservation holds per metric.
  profile::Profile p;
  p.sample_rate_hz = 50.0;
  profile::TimeSeries cpu;
  cpu.watcher = "cpu";
  cpu.variable_rate = true;
  cpu.samples.push_back(sample_at(10.0, {{m::kCyclesUsed, 100.0}}));
  cpu.samples.push_back(sample_at(10.5, {{m::kCyclesUsed, 300.0}}));
  p.series.push_back(cpu);
  profile::TimeSeries io;
  io.watcher = "io";
  io.variable_rate = true;
  io.samples.push_back(sample_at(10.2, {{m::kBytesWritten, 40.0}}));
  io.samples.push_back(sample_at(10.5, {{m::kBytesWritten, 90.0}}));  // shared edge
  io.samples.push_back(sample_at(11.0, {{m::kBytesWritten, 90.0}}));
  p.series.push_back(io);

  const auto deltas = p.sample_deltas();
  ASSERT_EQ(deltas.size(), 4u);  // 10.0, 10.2, 10.5 (shared), 11.0
  EXPECT_DOUBLE_EQ(deltas[0].get(m::kCyclesUsed), 100.0);
  EXPECT_DOUBLE_EQ(deltas[1].get(m::kBytesWritten), 40.0);
  EXPECT_DOUBLE_EQ(deltas[2].get(m::kCyclesUsed), 200.0);
  EXPECT_DOUBLE_EQ(deltas[2].get(m::kBytesWritten), 50.0);
  EXPECT_DOUBLE_EQ(deltas[3].get(m::kBytesWritten), 0.0);
  EXPECT_DOUBLE_EQ(deltas[2].duration, 10.5 - 10.2);
  EXPECT_DOUBLE_EQ(deltas[3].duration, 11.0 - 10.5);
}

TEST(Profile, VariableRateFlagAndGateRoundTripThroughJson) {
  profile::Profile p = make_profile();
  p.series[0].variable_rate = true;
  p.series[0].gate.floor_hz = 2.0;
  p.series[0].gate.burst_hz = 50.0;
  p.series[0].gate.open_threshold = 10.0;
  p.series[0].gate.close_hold_s = 0.5;

  const profile::Profile q = profile::Profile::from_json(p.to_json());
  ASSERT_EQ(q.series.size(), p.series.size());
  EXPECT_TRUE(q.series[0].variable_rate);
  EXPECT_TRUE(q.series[0].gate.any());
  EXPECT_DOUBLE_EQ(q.series[0].gate.floor_hz, 2.0);
  EXPECT_DOUBLE_EQ(q.series[0].gate.burst_hz, 50.0);
  EXPECT_DOUBLE_EQ(q.series[0].gate.open_threshold, 10.0);
  EXPECT_DOUBLE_EQ(q.series[0].gate.close_hold_s, 0.5);
  // Fixed-rate siblings stay unflagged and gate-less.
  for (size_t i = 1; i < q.series.size(); ++i) {
    EXPECT_FALSE(q.series[i].variable_rate) << i;
    EXPECT_FALSE(q.series[i].gate.any()) << i;
  }
  EXPECT_TRUE(q.variable_rate());

  // Deltas from the deserialized profile are identical (variable path).
  const auto d1 = p.sample_deltas();
  const auto d2 = q.sample_deltas();
  ASSERT_EQ(d1.size(), d2.size());
  for (size_t i = 0; i < d1.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1[i].duration, d2[i].duration) << i;
    EXPECT_DOUBLE_EQ(d1[i].get(m::kCyclesUsed), d2[i].get(m::kCyclesUsed))
        << i;
  }
}

TEST(Profile, SampleDeltasBucketAtFastestSeriesRate) {
  // A profile-level 10 Hz rate with one 50 Hz series: buckets form at
  // 50 Hz, so the fast series' five samples land in distinct periods.
  profile::Profile p;
  p.sample_rate_hz = 10.0;
  profile::TimeSeries cpu;
  cpu.watcher = "cpu";
  cpu.sample_rate_hz = 50.0;
  for (int i = 0; i < 5; ++i) {
    cpu.samples.push_back(
        sample_at(100.0 + i * 0.02, {{m::kCyclesUsed, (i + 1) * 100.0}}));
  }
  p.series.push_back(cpu);

  const auto deltas = p.sample_deltas();
  ASSERT_EQ(deltas.size(), 5u);
  EXPECT_DOUBLE_EQ(deltas[0].duration, 0.02);
  double sum = 0.0;
  for (const auto& d : deltas) sum += d.get(m::kCyclesUsed);
  EXPECT_NEAR(sum, 500.0, 1e-9);
}

namespace {

/// `text` with its one occurrence of `from` replaced by `to`.
std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// A SYNB blob with its JSON header edited: "SYNB" | u32 version |
/// u32 header_len | header, with header_len rewritten to match.
std::string edit_binary_header(const std::string& blob,
                               const std::string& from,
                               const std::string& to) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(blob[8 + i]))
           << (8 * i);
  }
  const std::string header = replace_once(blob.substr(12, len), from, to);
  std::string out = blob.substr(0, 8);
  const auto n = static_cast<uint32_t>(header.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(n >> (8 * i)));
  return out + header + blob.substr(12 + len);
}

}  // namespace

TEST(Profile, OutOfRangeSystemCountsAreRejected) {
  // num_cores and total_memory_bytes are integers stored as doubles;
  // converting an out-of-range double is undefined behaviour, so the
  // reader must refuse it. SYNB headers go through the same reader and
  // surface the error as CodecError.
  profile::Profile p = make_profile();
  p.system.num_cores = 4;
  p.system.total_memory_bytes = 1024;
  const std::string doc = json::dump(p.to_json());
  const std::string blob = p.to_binary();
  const std::pair<std::string, std::string> fields[] = {
      {"num_cores", "4"}, {"total_memory_bytes", "1024"}};
  for (const auto& [key, good] : fields) {
    const std::string from = "\"" + key + "\":" + good;
    for (const std::string bad : {"-1", "1e300", "1e999", "-1e999"}) {
      const std::string to = "\"" + key + "\":" + bad;
      SCOPED_TRACE(to);
      EXPECT_THROW(profile::Profile::from_json(
                       json::parse(replace_once(doc, from, to))),
                   json::JsonError);
      EXPECT_THROW(
          profile::Profile::from_binary(edit_binary_header(blob, from, to)),
          profile::CodecError);
    }
  }
  // JSON text cannot spell NaN, but a DOM built in code can hold one.
  json::Value system = p.system.to_json();
  system["num_cores"] = std::nan("");
  EXPECT_THROW(profile::SystemInfo::from_json(system), json::JsonError);

  // The edges of the ranges still read back.
  system["num_cores"] = 2147483647.0;
  system["total_memory_bytes"] = 18446744073709549568.0;  // 2^64 - 2^11
  const profile::SystemInfo edge = profile::SystemInfo::from_json(system);
  EXPECT_EQ(edge.num_cores, 2147483647);
  EXPECT_EQ(edge.total_memory_bytes, 18446744073709549568ull);
  system["total_memory_bytes"] = 18446744073709551616.0;  // 2^64
  EXPECT_THROW(profile::SystemInfo::from_json(system), json::JsonError);
}
