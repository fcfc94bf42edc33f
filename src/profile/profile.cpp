#include "profile/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "profile/binary_codec.hpp"
#include "profile/metrics.hpp"
#include "sys/mmap_file.hpp"

namespace synapse::profile {

double Sample::get(std::string_view metric, double dflt) const {
  const auto it = values.find(std::string(metric));
  return it == values.end() ? dflt : it->second;
}

void Sample::set(std::string_view metric, double value) {
  values[std::string(metric)] = value;
}

double TimeSeries::last(std::string_view metric) const {
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    const auto found = it->values.find(std::string(metric));
    if (found != it->values.end()) return found->second;
  }
  return 0.0;
}

double TimeSeries::max(std::string_view metric) const {
  double best = 0.0;
  for (const auto& s : samples) {
    best = std::max(best, s.get(metric));
  }
  return best;
}

double TimeSeries::effective_rate_hz() const {
  if (samples.size() < 2) return sample_rate_hz;
  const double span = samples.back().timestamp - samples.front().timestamp;
  if (!(span > 0.0)) return sample_rate_hz;
  return static_cast<double>(samples.size() - 1) / span;
}

GapStats TimeSeries::gap_stats() const {
  GapStats g;
  if (samples.size() < 2) return g;
  g.gaps = samples.size() - 1;
  g.min_s = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (size_t i = 1; i < samples.size(); ++i) {
    const double gap = samples[i].timestamp - samples[i - 1].timestamp;
    g.min_s = std::min(g.min_s, gap);
    g.max_s = std::max(g.max_s, gap);
    sum += gap;
  }
  g.mean_s = sum / static_cast<double>(g.gaps);
  return g;
}

json::Value SystemInfo::to_json() const {
  json::Object o;
  o["hostname"] = hostname;
  o["cpu_model"] = cpu_model;
  o["num_cores"] = num_cores;
  o["max_cpu_freq_hz"] = max_cpu_freq_hz;
  o["total_memory_bytes"] = total_memory_bytes;
  o["resource_name"] = resource_name;
  return json::Value(std::move(o));
}

namespace {

/// A stored count as T. The double comes from untrusted JSON, and
/// converting a value outside T's range is undefined behaviour, so
/// non-finite, negative and too-large values throw instead.
template <typename T>
T count_or_throw(const json::Value& v, const std::string& key) {
  const double d = v.get_or(key, 0.0);
  // 2^digits is the first value past T's range; NaN fails both tests.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= 0.0 && d < limit)) {
    char text[32];
    std::snprintf(text, sizeof(text), "%g", d);
    throw json::JsonError("system." + key + " out of range: " + text);
  }
  return static_cast<T>(d);
}

}  // namespace

SystemInfo SystemInfo::from_json(const json::Value& v) {
  SystemInfo s;
  s.hostname = v.get_or("hostname", std::string());
  s.cpu_model = v.get_or("cpu_model", std::string());
  s.num_cores = count_or_throw<int>(v, "num_cores");
  s.max_cpu_freq_hz = v.get_or("max_cpu_freq_hz", 0.0);
  s.total_memory_bytes = count_or_throw<uint64_t>(v, "total_memory_bytes");
  s.resource_name = v.get_or("resource_name", std::string());
  return s;
}

double SampleDelta::get(std::string_view metric, double dflt) const {
  const auto it = deltas.find(std::string(metric));
  return it == deltas.end() ? dflt : it->second;
}

const TimeSeries* Profile::find_series(std::string_view watcher) const {
  for (const auto& ts : series) {
    if (ts.watcher == watcher) return &ts;
  }
  return nullptr;
}

double Profile::total(std::string_view metric, double dflt) const {
  const auto it = totals.find(std::string(metric));
  return it == totals.end() ? dflt : it->second;
}

double Profile::get_derived(std::string_view metric, double dflt) const {
  const auto it = derived.find(std::string(metric));
  return it == derived.end() ? dflt : it->second;
}

double Profile::runtime() const { return total(metrics::kRuntime); }

size_t Profile::sample_count() const {
  size_t n = 0;
  for (const auto& ts : series) n += ts.size();
  return n;
}

bool Profile::variable_rate() const {
  for (const auto& ts : series) {
    if (ts.variable_rate) return true;
  }
  return false;
}

bool is_instantaneous_metric(std::string_view metric) {
  static const std::set<std::string, std::less<>> inst = {
      std::string(metrics::kMemResident), std::string(metrics::kMemPeak),
      std::string(metrics::kNumThreads), std::string(metrics::kEfficiency),
      std::string(metrics::kUtilization)};
  return inst.count(metric) > 0;
}

namespace {

/// True when the retained SYNB payload still describes `series`: same
/// watchers, rates, sample counts and timestamps. Cheap relative to a
/// delta computation (no per-sample maps are touched), and the guard
/// that lets delta_table() trust the columns.
bool matches_payload_shape(const ProfileColumnsView& cols,
                           const std::vector<TimeSeries>& series) {
  if (cols.series.size() != series.size()) return false;
  for (size_t i = 0; i < series.size(); ++i) {
    const SeriesColumnsView& sv = cols.series[i];
    const TimeSeries& ts = series[i];
    if (sv.watcher != ts.watcher || sv.rate_hz != ts.sample_rate_hz ||
        sv.variable_rate != ts.variable_rate ||
        sv.sample_count != ts.samples.size()) {
      return false;
    }
    for (size_t j = 0; j < ts.samples.size(); ++j) {
      if (sv.timestamp(j) != ts.samples[j].timestamp) return false;
    }
  }
  return true;
}

}  // namespace

DeltaTable Profile::delta_table() const {
  if (binary_) {
    try {
      const ProfileColumnsView cols = decode_columns(binary_->view());
      if (matches_payload_shape(cols, series)) {
        return delta_table_from_columns(cols, sample_rate_hz);
      }
    } catch (const CodecError&) {
      // A damaged retained payload is not fatal — the materialized
      // series below is authoritative.
    }
  }
  // Encoding transposes the per-sample maps into the sorted,
  // presence-tagged columns the kernel reads.
  const std::string encoded = encode_binary(*this);
  return delta_table_from_columns(decode_columns(encoded), sample_rate_hz);
}

std::vector<SampleDelta> Profile::sample_deltas() const {
  const DeltaTable table = delta_table();
  std::vector<SampleDelta> out;
  out.reserve(table.rows());
  for (size_t row = 0; row < table.rows(); ++row) {
    out.push_back(table.unbox(row));
  }
  return out;
}

void Profile::compute_derived() {
  const double used = total(metrics::kCyclesUsed);
  const double stalled_fe = total(metrics::kCyclesStalledFrontend);
  const double stalled_be = total(metrics::kCyclesStalledBackend);
  const double wasted = stalled_fe + stalled_be;

  // efficiency = cycles_used / (cycles_used + cycles_wasted)   (section 4.3)
  if (used + wasted > 0) {
    derived[std::string(metrics::kEfficiency)] = used / (used + wasted);
  }

  // utilization = cycles_used / cycles_max, with cycles_max derived from
  // clock speed, core count and runtime.
  const double tx = runtime();
  const double cycles_max =
      system.max_cpu_freq_hz * static_cast<double>(system.num_cores) * tx;
  if (cycles_max > 0) {
    derived[std::string(metrics::kUtilization)] = used / cycles_max;
  }

  const double flops = total(metrics::kFlops);
  if (tx > 0 && flops > 0) {
    derived[std::string(metrics::kFlopsRate)] = flops / tx;
  }
}

json::Value Profile::to_json() const {
  json::Object root;
  root["command"] = command;
  json::Array jtags;
  for (const auto& t : tags) jtags.push_back(t);
  root["tags"] = std::move(jtags);
  root["sample_rate_hz"] = sample_rate_hz;
  root["created_at"] = created_at;
  root["system"] = system.to_json();

  json::Array jseries;
  for (const auto& ts : series) {
    json::Object jts;
    jts["watcher"] = ts.watcher;
    if (ts.sample_rate_hz > 0) jts["rate_hz"] = ts.sample_rate_hz;
    if (ts.variable_rate) jts["variable_rate"] = true;
    if (ts.gate.any()) {
      json::Object jg;
      jg["floor_hz"] = ts.gate.floor_hz;
      jg["burst_hz"] = ts.gate.burst_hz;
      jg["open_threshold"] = ts.gate.open_threshold;
      jg["close_hold_s"] = ts.gate.close_hold_s;
      jts["gate"] = std::move(jg);
    }
    json::Array jsamples;
    for (const auto& s : ts.samples) {
      json::Object js;
      js["t"] = s.timestamp;
      json::Object jv;
      for (const auto& [k, v] : s.values) jv[k] = v;
      js["v"] = std::move(jv);
      jsamples.push_back(json::Value(std::move(js)));
    }
    jts["samples"] = std::move(jsamples);
    jseries.push_back(json::Value(std::move(jts)));
  }
  root["series"] = std::move(jseries);

  json::Object jtotals;
  for (const auto& [k, v] : totals) jtotals[k] = v;
  root["totals"] = std::move(jtotals);

  json::Object jderived;
  for (const auto& [k, v] : derived) jderived[k] = v;
  root["derived"] = std::move(jderived);
  return json::Value(std::move(root));
}

Profile Profile::from_json(const json::Value& v) {
  Profile p;
  p.command = v.get_or("command", std::string());
  if (v.contains("tags")) {
    for (const auto& t : v["tags"].as_array()) p.tags.push_back(t.as_string());
  }
  p.sample_rate_hz = v.get_or("sample_rate_hz", 10.0);
  p.created_at = v.get_or("created_at", 0.0);
  if (v.contains("system")) p.system = SystemInfo::from_json(v["system"]);

  if (v.contains("series")) {
    for (const auto& jts : v["series"].as_array()) {
      TimeSeries ts;
      ts.watcher = jts.get_or("watcher", std::string());
      ts.sample_rate_hz = jts.get_or("rate_hz", 0.0);
      ts.variable_rate = jts.get_or("variable_rate", false);
      if (jts.contains("gate")) {
        const json::Value& jg = jts["gate"];
        ts.gate.floor_hz = jg.get_or("floor_hz", 0.0);
        ts.gate.burst_hz = jg.get_or("burst_hz", 0.0);
        ts.gate.open_threshold = jg.get_or("open_threshold", 0.0);
        ts.gate.close_hold_s = jg.get_or("close_hold_s", 0.0);
      }
      for (const auto& js : jts["samples"].as_array()) {
        Sample s;
        s.timestamp = js.get_or("t", 0.0);
        for (const auto& [k, val] : js["v"].as_object()) {
          s.values[k] = val.as_double();
        }
        ts.samples.push_back(std::move(s));
      }
      p.series.push_back(std::move(ts));
    }
  }
  if (v.contains("totals")) {
    for (const auto& [k, val] : v["totals"].as_object()) {
      p.totals[k] = val.as_double();
    }
  }
  if (v.contains("derived")) {
    for (const auto& [k, val] : v["derived"].as_object()) {
      p.derived[k] = val.as_double();
    }
  }
  return p;
}

std::string Profile::to_binary() const { return encode_binary(*this); }

Profile Profile::from_binary(std::string data) {
  return from_binary_view(
      std::make_shared<const sys::StringBlob>(std::move(data)));
}

Profile Profile::from_binary_view(std::shared_ptr<const sys::Blob> blob) {
  Profile p = decode_binary(blob->view());
  p.binary_ = std::move(blob);
  return p;
}

size_t Profile::decoded_bytes() const {
  // Map nodes dominate; count them with a flat per-node overhead
  // (key + two doubles-ish + rb-tree pointers) so the cache budget
  // tracks sample volume rather than pretending to be malloc-exact.
  constexpr size_t kMapNode = 64;
  size_t bytes = sizeof(Profile) + command.capacity();
  for (const auto& t : tags) bytes += sizeof(std::string) + t.capacity();
  for (const auto& ts : series) {
    bytes += sizeof(TimeSeries) + ts.watcher.capacity();
    for (const auto& s : ts.samples) {
      bytes += sizeof(Sample);
      for (const auto& [k, v] : s.values) {
        (void)v;
        bytes += kMapNode + k.capacity();
      }
    }
  }
  for (const auto& [k, v] : totals) {
    (void)v;
    bytes += kMapNode + k.capacity();
  }
  for (const auto& [k, v] : derived) {
    (void)v;
    bytes += kMapNode + k.capacity();
  }
  if (binary_) bytes += binary_->view().size();
  return bytes;
}

}  // namespace synapse::profile
