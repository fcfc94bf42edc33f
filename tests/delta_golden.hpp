#pragma once
// The profiles behind fixtures/delta_tables.golden and the checks
// against it. The fixture pins what Profile::delta_table() produced for
// payload-less profiles while it still ran the per-sample map walk (the
// SampleDelta maps re-shaped into a DeltaTable). The column kernel that
// replaced the walk must reproduce it bit for bit, with and without a
// retained SYNB payload.
//
// Fixture format (one line per record, '#' starts a comment):
//   table LABEL ROWS FNV1A64 LANE_COUNT LANE...
//   row LABEL ROW DURATION CELL...   (one CELL per lane, "-" = absent)
// Doubles are printed with %.17g, which strtod reads back exactly.
// Every profile has a `table` line; the small test-builder profiles
// also have one `row` line per row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile.hpp"
#include "workload/scenario.hpp"

namespace delta_golden {

namespace profile = synapse::profile;
namespace m = synapse::metrics;

/// Fixed-rate profile with compute, memory and storage consumption.
inline profile::Profile fixed_profile(size_t samples) {
  profile::Profile p;
  p.command = "frames-fixed";
  p.sample_rate_hz = 10.0;
  profile::TimeSeries trace;
  trace.watcher = "trace";
  double cycles = 0, alloc = 0, bytes = 0;
  for (size_t i = 0; i < samples; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    cycles += 1e6 + static_cast<double>(i);
    alloc += 128 * 1024;
    bytes += 32 * 1024;
    s.set(m::kCyclesUsed, cycles);
    s.set(m::kMemAllocated, alloc);
    s.set(m::kBytesWritten, bytes);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);
  return p;
}

/// Variable-rate (adaptively gated) profile: io samples at explicit
/// offsets, plus a second fixed-cadence series so the delta pipeline
/// exercises the timestamp-union bucketing.
inline profile::Profile variable_profile() {
  profile::Profile p;
  p.command = "frames-variable";
  p.sample_rate_hz = 100.0;

  profile::TimeSeries io;
  io.watcher = "io";
  io.sample_rate_hz = 100.0;
  io.variable_rate = true;
  double b = 0;
  for (const double off : {0.0, 0.01, 0.02, 0.3, 0.31, 0.6}) {
    profile::Sample s;
    s.timestamp = 100.0 + off;
    b += 4096;
    s.set(m::kBytesWritten, b);
    io.samples.push_back(std::move(s));
  }
  p.series.push_back(io);

  profile::TimeSeries trace;
  trace.watcher = "trace";
  trace.sample_rate_hz = 100.0;
  trace.variable_rate = true;
  double cycles = 0;
  for (const double off : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    profile::Sample s;
    s.timestamp = 100.0 + off;
    cycles += 5e5;
    s.set(m::kCyclesUsed, cycles);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);
  return p;
}

/// Hand-built codec edge cases: an empty profile; series with holes so
/// presence bitmaps are exercised, negative/huge values and an empty
/// series; and an adaptively recorded (gated) profile.
inline std::vector<profile::Profile> codec_edge_profiles() {
  std::vector<profile::Profile> out;

  profile::Profile empty;
  empty.command = "empty";
  out.push_back(std::move(empty));

  profile::Profile holes;
  holes.command = "holes \"quoted\" \xc3\xa9";  // header escaping
  holes.tags = {"b-tag", "a-tag"};
  holes.sample_rate_hz = 7.5;
  holes.created_at = 1.5e9;
  holes.totals["cycles_used"] = 1e12;
  holes.derived["flops_per_cycle"] = 0.25;
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  ts.sample_rate_hz = 5.0;
  for (int i = 0; i < 10; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + 0.2 * i;
    s.values["cycles_used"] = 1e9 + i;           // dense
    if (i % 3 == 0) s.values["io_wait"] = -0.5;  // sparse, negative
    if (i == 7) s.values["rare"] = 1e300;        // near-max double
    ts.samples.push_back(std::move(s));
  }
  holes.series.push_back(std::move(ts));
  profile::TimeSeries none;
  none.watcher = "idle";
  none.sample_rate_hz = 1.0;
  holes.series.push_back(std::move(none));
  out.push_back(std::move(holes));

  // Variable-rate series with gate metadata and a burst-idle-burst
  // timestamp trajectory, mixed with a fixed-rate sibling. Exercises
  // the v2 per-series flags byte and the timestamp-union bucketing.
  profile::Profile gated;
  gated.command = "gated";
  gated.sample_rate_hz = 100.0;
  profile::TimeSeries vcpu;
  vcpu.watcher = "cpu";
  vcpu.sample_rate_hz = 100.0;
  vcpu.variable_rate = true;
  vcpu.gate.floor_hz = 2.0;
  vcpu.gate.burst_hz = 100.0;
  vcpu.gate.open_threshold = 0.5;
  vcpu.gate.close_hold_s = 0.25;
  const double trajectory[] = {5.00, 5.01, 5.02, 5.03, 7.50, 7.51, 7.52};
  double cycles = 0.0;
  for (const double t : trajectory) {
    profile::Sample s;
    s.timestamp = t;
    cycles += 1e6;
    s.values["cycles_used"] = cycles;
    vcpu.samples.push_back(std::move(s));
  }
  gated.series.push_back(std::move(vcpu));
  profile::TimeSeries fmem;
  fmem.watcher = "mem";  // fixed-rate sibling: flags byte stays 0
  fmem.sample_rate_hz = 10.0;
  for (int i = 0; i < 4; ++i) {
    profile::Sample s;
    s.timestamp = 5.0 + 0.1 * i;
    s.values["mem_resident"] = 4096.0 * (i + 1);
    fmem.samples.push_back(std::move(s));
  }
  gated.series.push_back(std::move(fmem));
  out.push_back(std::move(gated));
  return out;
}

struct GoldenProfile {
  std::string label;
  profile::Profile profile;
  bool cells = false;  ///< the fixture dumps every cell, not just the hash
};

/// Every profile the fixture covers: the builtin scenario catalog
/// (hash only), the replay-test builders under their replay golden
/// labels, and the codec edge cases (every cell).
inline std::vector<GoldenProfile> golden_profiles() {
  std::vector<GoldenProfile> out;
  for (const auto& spec : synapse::workload::builtin_scenarios()) {
    out.push_back({"scenario:" + spec.name, spec.make_profile(), false});
  }
  out.push_back({"fixed", fixed_profile(6), true});
  out.push_back({"scaled", fixed_profile(8), true});
  out.push_back({"tally", fixed_profile(9), true});
  out.push_back({"idle-net", fixed_profile(5), true});
  out.push_back({"binary", fixed_profile(10), true});
  out.push_back({"variable", variable_profile(), true});
  const char* const edge_labels[] = {"codec:empty", "codec:holes",
                                     "codec:gated"};
  auto edges = codec_edge_profiles();
  for (size_t i = 0; i < edges.size(); ++i) {
    out.push_back({edge_labels[i], std::move(edges[i]), true});
  }
  return out;
}

/// FNV-1a-64 over a table's row count, lane names, durations, cells
/// and presence (the perfbench store-ensemble checksum).
inline uint64_t checksum(const profile::DeltaTable& table) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const size_t rows = table.rows();
  mix(&rows, sizeof(rows));
  for (const auto& name : table.lanes().names()) mix(name.data(), name.size());
  for (size_t row = 0; row < rows; ++row) {
    const double d = table.duration(row);
    mix(&d, sizeof(d));
    for (uint32_t lane = 0; lane < table.lanes().size(); ++lane) {
      const double v = table.get(lane, row);
      const bool present = table.present(lane, row);
      mix(&v, sizeof(v));
      mix(&present, sizeof(present));
    }
  }
  return h;
}

/// Raw IEEE-754 bits: "bit for bit" tells -0.0 from 0.0.
inline uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

struct GoldenTable {
  size_t rows = 0;
  uint64_t hash = 0;
  std::vector<std::string> lanes;
  std::vector<double> durations;                         ///< cell dumps only
  std::vector<std::vector<std::optional<double>>> cells;  ///< [row][lane]
};

/// fixtures/delta_tables.golden, keyed by label.
inline const std::map<std::string, GoldenTable>& golden_tables() {
  static const auto table = [] {
    std::map<std::string, GoldenTable> out;
    std::ifstream in(SYNAPSE_TEST_FIXTURE_DIR "/delta_tables.golden");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream rec(line);
      std::string kind, label;
      rec >> kind >> label;
      GoldenTable& g = out[label];
      if (kind == "table") {
        std::string hash;
        size_t lanes = 0;
        rec >> g.rows >> hash >> lanes;
        g.hash = std::strtoull(hash.c_str(), nullptr, 16);
        g.lanes.resize(lanes);
        for (auto& name : g.lanes) rec >> name;
      } else {
        size_t row = 0;
        std::string duration;
        rec >> row >> duration;
        // Rows are written in order, after their table line.
        g.durations.push_back(std::strtod(duration.c_str(), nullptr));
        auto& cells = g.cells.emplace_back();
        for (size_t lane = 0; lane < g.lanes.size(); ++lane) {
          std::string cell;
          rec >> cell;
          if (cell == "-") {
            cells.emplace_back();
          } else {
            cells.emplace_back(std::strtod(cell.c_str(), nullptr));
          }
        }
      }
    }
    return out;
  }();
  return table;
}

inline const GoldenTable* find_golden(const std::string& label) {
  const auto it = golden_tables().find(label);
  return it == golden_tables().end() ? nullptr : &it->second;
}

/// Lane names, rows, durations, cells and presence of `table` equal the
/// fixture's record of `label`, bit for bit.
inline void expect_table_matches_golden(const std::string& label,
                                        const profile::DeltaTable& table) {
  const GoldenTable* g = find_golden(label);
  ASSERT_NE(g, nullptr) << "no golden record for " << label;
  ASSERT_EQ(table.rows(), g->rows) << label;
  ASSERT_EQ(table.lanes().names(), g->lanes) << label;
  EXPECT_EQ(checksum(table), g->hash) << label;
  for (size_t row = 0; row < g->cells.size(); ++row) {
    EXPECT_EQ(bits(table.duration(row)), bits(g->durations[row]))
        << label << " row " << row;
    for (uint32_t lane = 0; lane < g->lanes.size(); ++lane) {
      const auto& cell = g->cells[row][lane];
      EXPECT_EQ(table.present(lane, row), cell.has_value())
          << label << " row " << row << " lane " << g->lanes[lane];
      EXPECT_EQ(bits(table.get(lane, row)), bits(cell.value_or(0.0)))
          << label << " row " << row << " lane " << g->lanes[lane];
    }
  }
}

/// The SampleDelta list of `label` (one map per row, present lanes as
/// keys) equals the fixture bit for bit. Needs a cell dump.
inline void expect_deltas_match_golden(
    const std::string& label, const std::vector<profile::SampleDelta>& deltas) {
  const GoldenTable* g = find_golden(label);
  ASSERT_NE(g, nullptr) << "no golden record for " << label;
  ASSERT_EQ(g->cells.size(), g->rows) << label << " has no cell dump";
  ASSERT_EQ(deltas.size(), g->rows) << label;
  for (size_t row = 0; row < deltas.size(); ++row) {
    EXPECT_EQ(bits(deltas[row].duration), bits(g->durations[row]))
        << label << " row " << row;
    std::map<std::string, double> want;
    for (size_t lane = 0; lane < g->lanes.size(); ++lane) {
      if (g->cells[row][lane]) want[g->lanes[lane]] = *g->cells[row][lane];
    }
    ASSERT_EQ(deltas[row].deltas.size(), want.size()) << label << " row " << row;
    for (const auto& [name, value] : deltas[row].deltas) {
      ASSERT_TRUE(want.count(name)) << label << " row " << row << " " << name;
      EXPECT_EQ(bits(value), bits(want.at(name)))
          << label << " row " << row << " " << name;
    }
  }
}

}  // namespace delta_golden
