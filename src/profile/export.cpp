#include "profile/export.hpp"

#include <cerrno>
#include <cstdio>
#include <set>

#include "sys/error.hpp"

namespace synapse::profile {

namespace {

/// Quote a CSV field when needed (commas, quotes, newlines).
std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string series_to_csv(const Profile& profile) {
  std::string out = "watcher,timestamp,metric,value,effective_rate_hz\n";
  for (const auto& ts : profile.series) {
    // Measured, not nominal: for variable-rate (gated) series the two
    // diverge, and the measured one is what plots should annotate.
    const std::string rate = format_double(ts.effective_rate_hz());
    for (const auto& s : ts.samples) {
      for (const auto& [metric, value] : s.values) {
        out += csv_field(ts.watcher);
        out += ',';
        out += format_double(s.timestamp);
        out += ',';
        out += csv_field(metric);
        out += ',';
        out += format_double(value);
        out += ',';
        out += rate;
        out += '\n';
      }
    }
  }
  return out;
}

std::string totals_to_csv(const std::vector<Profile>& profiles) {
  // Column set: union of totals across profiles, sorted for stability.
  std::set<std::string> columns;
  for (const auto& p : profiles) {
    for (const auto& [metric, value] : p.totals) columns.insert(metric);
  }
  // Per-series effective-rate columns (rate_hz:<watcher>): the measured
  // rate of each watcher's series. The profile-level sample_rate_hz
  // alone misrepresents variable-rate (adaptively gated) recordings.
  std::set<std::string> watchers;
  for (const auto& p : profiles) {
    for (const auto& ts : p.series) watchers.insert(ts.watcher);
  }

  std::string out = "command,tags,created_at,sample_rate_hz";
  for (const auto& w : watchers) {
    out += ',';
    out += csv_field("rate_hz:" + w);
  }
  for (const auto& c : columns) {
    out += ',';
    out += csv_field(c);
  }
  out += '\n';

  for (const auto& p : profiles) {
    out += csv_field(p.command);
    out += ',';
    std::string tags;
    for (const auto& t : p.tags) {
      if (!tags.empty()) tags += ';';
      tags += t;
    }
    out += csv_field(tags);
    out += ',';
    out += format_double(p.created_at);
    out += ',';
    out += format_double(p.sample_rate_hz);
    for (const auto& w : watchers) {
      out += ',';
      const TimeSeries* ts = p.find_series(w);
      if (ts != nullptr) out += format_double(ts->effective_rate_hz());
    }
    for (const auto& c : columns) {
      out += ',';
      const auto it = p.totals.find(c);
      out += it != p.totals.end() ? format_double(it->second) : "";
    }
    out += '\n';
  }
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw sys::SystemError("fopen(" + path + ")", errno);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  if (std::fclose(f) != 0 || written != content.size()) {
    const int err = errno;
    std::remove(path.c_str());
    throw sys::SystemError("write(" + path + ")", err);
  }
}

}  // namespace synapse::profile
