#include "profile/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Profile sample_profile(const std::string& cmd, double cycles) {
  profile::Profile p;
  p.command = cmd;
  p.tags = {"a", "b"};
  p.created_at = 1000.0;
  p.sample_rate_hz = 10.0;
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  const size_t row = ts.samples.add_row(100.5);
  ts.samples.set(row, m::kCyclesUsed, cycles);
  p.series.push_back(std::move(ts));
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  p.totals[std::string(m::kRuntime)] = 1.5;
  return p;
}

size_t count_lines(const std::string& s) {
  size_t n = 0;
  for (const char c : s) {
    if (c == '\n') ++n;
  }
  return n;
}

}  // namespace

TEST(Export, SeriesCsvShape) {
  const auto p = sample_profile("cmd", 123.0);
  const std::string csv = profile::series_to_csv(p);
  EXPECT_EQ(count_lines(csv), 2u);  // header + one value row
  EXPECT_NE(csv.find("watcher,timestamp,metric,value"), std::string::npos);
  EXPECT_NE(csv.find("cpu,100.5,compute.cycles_used,123"),
            std::string::npos);
}

TEST(Export, TotalsCsvUnionOfColumns) {
  auto p1 = sample_profile("cmd", 100.0);
  auto p2 = sample_profile("cmd", 200.0);
  p2.totals["extra.metric"] = 7.0;
  const std::string csv = profile::totals_to_csv({p1, p2});

  EXPECT_EQ(count_lines(csv), 3u);  // header + 2 profiles
  // The union column appears; p1's row has an empty cell for it.
  EXPECT_NE(csv.find("extra.metric"), std::string::npos);
  std::istringstream lines(csv);
  std::string header, row1, row2;
  std::getline(lines, header);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_NE(row1.find("cmd,a;b,1000,10,"), std::string::npos);
  // p1 lacks extra.metric -> trailing empty field somewhere.
  EXPECT_NE(row1.find(",,"), std::string::npos);
  EXPECT_NE(row2.find("7"), std::string::npos);
}

TEST(Export, CsvQuoting) {
  auto p = sample_profile("cmd, with \"quotes\"", 1.0);
  const std::string csv = profile::totals_to_csv({p});
  EXPECT_NE(csv.find("\"cmd, with \"\"quotes\"\"\""), std::string::npos);
}

TEST(Export, WriteFileRoundTrip) {
  const std::string path = "/tmp/synapse_export_test.csv";
  profile::write_file(path, "a,b\n1,2\n");
  const auto content = synapse::sys::slurp_file(path);
  ::unlink(path.c_str());
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "a,b\n1,2\n");
}

TEST(Export, WriteFileBadPathThrows) {
  EXPECT_THROW(profile::write_file("/no/such/dir/file.csv", "x"),
               synapse::sys::SystemError);
}

TEST(Export, EmptyInputs) {
  EXPECT_EQ(profile::totals_to_csv({}),
            "command,tags,created_at,sample_rate_hz\n");
  profile::Profile empty;
  EXPECT_EQ(profile::series_to_csv(empty),
            "watcher,timestamp,metric,value,effective_rate_hz\n");
}
