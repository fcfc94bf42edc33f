#include "profile/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "profile/binary_codec.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"

namespace synapse::profile {

namespace {

/// Where `metric`'s column is, or would go, in the sorted columns.
template <typename Columns>
auto column_of(Columns& metrics, std::string_view metric) {
  return std::lower_bound(metrics.begin(), metrics.end(), metric,
                          [](const MetricColumn& c, std::string_view name) {
                            return c.name < name;
                          });
}

}  // namespace

const MetricColumn* SampleColumns::find(std::string_view metric) const {
  const auto it = column_of(metrics_, metric);
  return it == metrics_.end() || it->name != metric ? nullptr : &*it;
}

size_t SampleColumns::add_row(double timestamp) {
  timestamps_.push_back(timestamp);
  for (auto& c : metrics_) {
    c.values.push_back(0.0);
    c.present.push_back(0);
  }
  return timestamps_.size() - 1;
}

void SampleColumns::set(size_t row, std::string_view metric, double value) {
  auto it = column_of(metrics_, metric);
  if (it == metrics_.end() || it->name != metric) {
    MetricColumn c;
    c.name = std::string(metric);
    c.values.reserve(timestamps_.capacity());
    c.present.reserve(timestamps_.capacity());
    c.values.resize(timestamps_.size(), 0.0);
    c.present.resize(timestamps_.size(), 0);
    it = metrics_.insert(it, std::move(c));
  }
  it->values[row] = value;
  it->present[row] = 1;
}

void SampleColumns::reserve(size_t rows) {
  timestamps_.reserve(rows);
  for (auto& c : metrics_) {
    c.values.reserve(rows);
    c.present.reserve(rows);
  }
}

void SampleColumns::erase(std::string_view metric) {
  const auto it = column_of(metrics_, metric);
  if (it != metrics_.end() && it->name == metric) metrics_.erase(it);
}

double TimeSeries::last(std::string_view metric) const {
  const MetricColumn* c = samples.find(metric);
  if (c == nullptr) return 0.0;
  for (size_t i = c->present.size(); i-- > 0;) {
    if (c->present[i] != 0) return c->values[i];
  }
  return 0.0;
}

double TimeSeries::max(std::string_view metric) const {
  // Absent cells hold 0.0, the value an absent metric always counted as.
  double best = 0.0;
  if (const MetricColumn* c = samples.find(metric)) {
    for (const double v : c->values) best = std::max(best, v);
  }
  return best;
}

double TimeSeries::effective_rate_hz() const {
  const std::vector<double>& t = samples.timestamps();
  if (t.size() < 2) return sample_rate_hz;
  const double span = t.back() - t.front();
  if (!(span > 0.0)) return sample_rate_hz;
  return static_cast<double>(t.size() - 1) / span;
}

GapStats TimeSeries::gap_stats() const {
  GapStats g;
  const std::vector<double>& t = samples.timestamps();
  if (t.size() < 2) return g;
  g.gaps = t.size() - 1;
  g.min_s = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (size_t i = 1; i < t.size(); ++i) {
    const double gap = t[i] - t[i - 1];
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

/// One accumulation lane per metric name, shared across series (a delta
/// row holds one slot per metric, whichever series recorded it).
/// `present` distinguishes "never touched" from "delta sums to zero";
/// `touched` is whether any row is present at all.
struct Accum {
  bool instantaneous = false;
  bool touched = false;
  std::vector<double> value;
  std::vector<uint8_t> present;
};

/// The delta kernel. Per slot, the float operations run in (series,
/// sample) order, which is what keeps the result bit-identical to the
/// golden tables the retired per-sample map walk produced.
/// Instantaneous metrics carry their max within the row (present on
/// every touch); cumulative ones are differenced per series and
/// present only where a positive delta lands. `bucket_of` supplies the
/// bucketing (fixed period or timestamp union).
template <typename BucketFn>
std::map<std::string, Accum, std::less<>> accumulate_lanes(
    const std::vector<TimeSeries>& series, size_t buckets,
    BucketFn bucket_of) {
  std::map<std::string, Accum, std::less<>> accums;
  std::vector<size_t> bucket;
  for (const auto& ts : series) {
    const std::vector<double>& t = ts.samples.timestamps();
    bucket.resize(t.size());
    for (size_t i = 0; i < t.size(); ++i) bucket[i] = bucket_of(t[i]);
    for (const auto& mc : ts.samples.metrics()) {
      auto it = accums.find(mc.name);
      if (it == accums.end()) {
        it = accums.emplace(mc.name, Accum{}).first;
        it->second.instantaneous = is_instantaneous_metric(mc.name);
        it->second.value.assign(buckets, 0.0);
        it->second.present.assign(buckets, 0);
      }
      Accum& acc = it->second;
      if (acc.instantaneous) {
        for (size_t i = 0; i < t.size(); ++i) {
          if (mc.present[i] == 0) continue;
          const size_t b = bucket[i];
          acc.present[b] = 1;
          acc.touched = true;
          acc.value[b] = std::max(acc.value[b], mc.values[i]);
        }
      } else {
        double prev = 0.0;
        for (size_t i = 0; i < t.size(); ++i) {
          if (mc.present[i] == 0) continue;
          const double v = mc.values[i];
          const double delta = v - prev;
          prev = v;
          if (delta > 0) {
            const size_t b = bucket[i];
            acc.value[b] += delta;
            acc.present[b] = 1;
            acc.touched = true;
          }
        }
      }
    }
  }
  return accums;
}

/// Accumulated lanes -> DeltaTable. The map iterates in sorted name
/// order, which is the LaneTable's order, and each lane's value/present
/// vectors move straight in as its columns. A metric no row ever
/// received gets no lane, so an unrecorded metric and one whose deltas
/// were never positive read the same (kNoLane).
DeltaTable make_table(std::map<std::string, Accum, std::less<>> accums,
                      std::vector<double> durations) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<uint8_t>> present;
  for (auto& [name, lane] : accums) {
    if (!lane.touched) continue;
    names.push_back(name);
    values.push_back(std::move(lane.value));
    present.push_back(std::move(lane.present));
  }
  return DeltaTable(LaneTable(std::move(names)), std::move(durations),
                    std::move(values), std::move(present));
}

}  // namespace

DeltaTable Profile::delta_table() const {
  // Row resolution follows the fastest recorded series: with
  // per-watcher rate overrides the high-rate series defines the replay
  // granularity, slower series simply contribute to fewer rows.
  double rate = sample_rate_hz;
  for (const auto& ts : series) rate = std::max(rate, ts.sample_rate_hz);

  if (variable_rate()) {
    // Variable-rate profiles: the recorded timestamps ARE the rows.
    // Edges = sorted unique union of every sample instant across
    // series; each row's duration is the recorded gap to the previous
    // edge, so the replay trajectory (burst density, idle stretches)
    // survives exactly. Bucket lookup is an exact-double binary search,
    // so a sample always finds its own timestamp.
    std::vector<double> edges;
    edges.reserve(sample_count());
    for (const auto& ts : series) {
      const std::vector<double>& t = ts.samples.timestamps();
      edges.insert(edges.end(), t.begin(), t.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.empty()) return {};

    std::vector<double> durations(edges.size());
    // The first row has no predecessor; fall back to the nominal
    // (burst) period, then to the first recorded gap.
    durations[0] = rate > 0.0 ? 1.0 / rate
                              : (edges.size() > 1 ? edges[1] - edges[0] : 0.0);
    for (size_t j = 1; j < edges.size(); ++j) {
      durations[j] = edges[j] - edges[j - 1];
    }
    const auto bucket_of = [&edges](double t) {
      return static_cast<size_t>(
          std::lower_bound(edges.begin(), edges.end(), t) - edges.begin());
    };
    return make_table(accumulate_lanes(series, edges.size(), bucket_of),
                      std::move(durations));
  }

  if (rate <= 0.0) return {};
  const double period = 1.0 / rate;

  // The profile time origin: the earliest timestamp of any series.
  // Watcher clocks are unsynchronised (deliberately, section 4.1);
  // bucketing on the common origin reconstructs the recorded ordering
  // across resource types, which is all the emulation semantics need.
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& ts : series) {
    if (!ts.empty()) origin = std::min(origin, ts.samples.timestamps()[0]);
  }
  if (!std::isfinite(origin)) return {};

  // The epsilon absorbs floating-point jitter when timestamps land
  // exactly on period boundaries (synthetic profiles do).
  auto bucket_of = [origin, period](double t) {
    return static_cast<size_t>(std::max(0.0, (t - origin) / period + 1e-9));
  };

  size_t max_bucket = 0;
  for (const auto& ts : series) {
    for (const double t : ts.samples.timestamps()) {
      max_bucket = std::max(max_bucket, bucket_of(t));
    }
  }
  const size_t buckets = max_bucket + 1;
  return make_table(accumulate_lanes(series, buckets, bucket_of),
                    std::vector<double>(buckets, period));
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
    jsamples.reserve(ts.size());
    for (size_t i = 0; i < ts.size(); ++i) {
      const auto row = ts.samples[i];
      json::Object js;
      js["t"] = row.timestamp;
      json::Object jv;
      for (const auto& [k, v] : row.values) jv.emplace_hint(jv.end(), k, v);
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
      const json::Array& jsamples = jts["samples"].as_array();
      ts.samples.reserve(jsamples.size());
      for (const auto& js : jsamples) {
        const size_t row = ts.samples.add_row(js.get_or("t", 0.0));
        for (const auto& [k, val] : js["v"].as_object()) {
          ts.samples.set(row, k, val.as_double());
        }
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

size_t Profile::decoded_bytes() const {
  // Columns and strings are charged their capacities; the small
  // totals/derived maps a flat per-node overhead (key + value +
  // rb-tree pointers).
  constexpr size_t kMapNode = 64;
  size_t bytes = sizeof(Profile) + command.capacity();
  for (const auto& t : tags) bytes += sizeof(std::string) + t.capacity();
  for (const auto& ts : series) {
    bytes += sizeof(TimeSeries) + ts.watcher.capacity() +
             ts.samples.timestamps().capacity() * sizeof(double);
    for (const auto& c : ts.samples.metrics()) {
      bytes += sizeof(MetricColumn) + c.name.capacity() +
               c.values.capacity() * sizeof(double) + c.present.capacity();
    }
  }
  for (const auto* map : {&totals, &derived}) {
    for (const auto& entry : *map) bytes += kMapNode + entry.first.capacity();
  }
  return bytes;
}

}  // namespace synapse::profile
