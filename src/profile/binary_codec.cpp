#include "profile/binary_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

namespace synapse::profile {

namespace {

// --- little-endian primitives ----------------------------------------------
// Byte-explicit so the format is identical across hosts; compilers fold
// these into single loads/stores on little-endian targets.

void put_u32(std::string& out, uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  out.append(b, 4);
}

void put_f64(std::string& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  out.append(b, 8);
}

uint32_t load_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

double load_f64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(u[i]) << (8 * i);
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bounds-checked reader over an encoded blob. All decode paths funnel
/// through need(), so any truncation throws with the offset and the
/// field being read instead of running off the buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  size_t offset() const { return off_; }

  void need(uint64_t bytes, const char* what) const {
    if (static_cast<uint64_t>(off_) + bytes > data_.size()) {
      throw CodecError("truncated SYNB container: need " +
                       std::to_string(bytes) + " byte(s) for " + what +
                       " at offset " + std::to_string(off_) + ", have " +
                       std::to_string(data_.size() - off_));
    }
  }

  uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<uint8_t>(data_[off_++]);
  }

  uint32_t u32(const char* what) {
    need(4, what);
    const uint32_t v = load_u32(data_.data() + off_);
    off_ += 4;
    return v;
  }

  double f64(const char* what) {
    need(8, what);
    const double v = load_f64(data_.data() + off_);
    off_ += 8;
    return v;
  }

  std::string_view bytes(uint64_t n, const char* what) {
    need(n, what);
    const std::string_view v = data_.substr(off_, n);
    off_ += n;
    return v;
  }

  /// Advance past n bytes, returning a pointer to their start.
  const char* raw(uint64_t n, const char* what) {
    need(n, what);
    const char* p = data_.data() + off_;
    off_ += n;
    return p;
  }

  bool done() const { return off_ == data_.size(); }

 private:
  std::string_view data_;
  size_t off_ = 0;
};

void put_string(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<uint32_t>::max()) {
    throw CodecError("string too large for SYNB container");
  }
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

std::string_view read_string(Cursor& c, const char* what) {
  const uint32_t len = c.u32(what);
  return c.bytes(len, what);
}

/// The low-volume profile parts as a compact JSON header — exactly
/// Profile::to_json minus "series", so header-only consumers see the
/// familiar shape.
std::string encode_header(const Profile& p) {
  json::Object root;
  root["command"] = p.command;
  json::Array jtags;
  for (const auto& t : p.tags) jtags.push_back(t);
  root["tags"] = std::move(jtags);
  root["sample_rate_hz"] = p.sample_rate_hz;
  root["created_at"] = p.created_at;
  root["system"] = p.system.to_json();
  json::Object jtotals;
  for (const auto& [k, v] : p.totals) jtotals[k] = v;
  root["totals"] = std::move(jtotals);
  json::Object jderived;
  for (const auto& [k, v] : p.derived) jderived[k] = v;
  root["derived"] = std::move(jderived);
  return json::dump(json::Value(std::move(root)));
}

struct ContainerHead {
  std::string_view header;  ///< raw JSON header text
  uint32_t version = 0;     ///< drives per-series framing in read_columns
};

/// Validate magic + version and position the cursor on the series
/// framing (past the header). Returns the raw header text + version.
ContainerHead open_container(Cursor& c) {
  const std::string_view magic = c.bytes(4, "magic");
  if (std::memcmp(magic.data(), kBinaryMagic, 4) != 0) {
    throw CodecError(
        "not a SYNB container (bad magic; expected \"SYNB\", got \"" +
        std::string(magic) + "\")");
  }
  const uint32_t version = c.u32("version");
  if (version < kBinaryMinVersion || version > kBinaryVersion) {
    throw CodecError("unsupported SYNB version " + std::to_string(version) +
                     " (this build reads versions " +
                     std::to_string(kBinaryMinVersion) + ".." +
                     std::to_string(kBinaryVersion) + ")");
  }
  const uint32_t header_len = c.u32("header length");
  return {c.bytes(header_len, "JSON header"), version};
}

}  // namespace

bool looks_like_binary_profile(std::string_view data) {
  return data.size() >= 4 && std::memcmp(data.data(), kBinaryMagic, 4) == 0;
}

std::string encode_binary(const Profile& p) {
  std::string out;
  const std::string header = encode_header(p);

  // Framing + header + per-series fixed parts; the f64 columns dominate,
  // so reserve for them up front.
  size_t estimate = 12 + header.size() + 4;
  for (const auto& ts : p.series) {
    estimate += 64 + ts.watcher.size() + ts.samples.size() * 8;
  }
  estimate += p.sample_count() * 4 * 8;  // rough metric-column volume
  out.reserve(estimate);

  out.append(kBinaryMagic, 4);
  put_u32(out, kBinaryVersion);
  if (header.size() > std::numeric_limits<uint32_t>::max()) {
    throw CodecError("profile header too large for SYNB container");
  }
  put_u32(out, static_cast<uint32_t>(header.size()));
  out += header;

  put_u32(out, static_cast<uint32_t>(p.series.size()));
  for (const auto& ts : p.series) {
    put_string(out, ts.watcher);
    put_f64(out, ts.sample_rate_hz);

    uint8_t flags = 0;
    if (ts.variable_rate) flags |= 1u;
    const bool has_gate = ts.gate.any();
    if (has_gate) flags |= 2u;
    out.push_back(static_cast<char>(flags));
    if (has_gate) {
      put_f64(out, ts.gate.floor_hz);
      put_f64(out, ts.gate.burst_hz);
      put_f64(out, ts.gate.open_threshold);
      put_f64(out, ts.gate.close_hold_s);
    }

    // Interned metric dictionary: the sorted union of metric names across
    // the series' samples. Sorted order matters: the delta kernel's lane
    // order and its float-op order follow it.
    std::set<std::string_view> names;
    for (const auto& s : ts.samples) {
      for (const auto& [k, _] : s.values) names.insert(k);
    }
    const std::vector<std::string_view> dict(names.begin(), names.end());
    put_u32(out, static_cast<uint32_t>(dict.size()));
    for (const auto& n : dict) put_string(out, n);

    const size_t count = ts.samples.size();
    put_u32(out, static_cast<uint32_t>(count));
    for (const auto& s : ts.samples) put_f64(out, s.timestamp);

    // Stage all columns in one pass over the samples. Each sample's keys
    // are a sorted subsequence of the sorted dictionary, so a merge walk
    // finds every column index without any per-value lookup.
    std::vector<std::string> columns(dict.size());
    std::vector<std::vector<char>> bitmaps(
        dict.size(), std::vector<char>((count + 7) / 8, 0));
    std::vector<uint32_t> present(dict.size(), 0);
    for (size_t i = 0; i < count; ++i) {
      size_t d = 0;
      for (const auto& [k, v] : ts.samples[i].values) {
        while (dict[d] != k) ++d;
        bitmaps[d][i >> 3] = static_cast<char>(
            static_cast<unsigned char>(bitmaps[d][i >> 3]) | (1u << (i & 7)));
        put_f64(columns[d], v);
        ++present[d];
        ++d;
      }
    }
    for (size_t d = 0; d < dict.size(); ++d) {
      const bool dense = present[d] == count;
      out.push_back(dense ? '\1' : '\0');
      if (!dense) out.append(bitmaps[d].data(), bitmaps[d].size());
      put_u32(out, present[d]);
      out += columns[d];
    }
  }
  return out;
}

size_t encoded_binary_size(const Profile& p) {
  size_t bytes = 12 + encode_header(p).size() + 4;
  for (const auto& ts : p.series) {
    const size_t count = ts.samples.size();
    std::map<std::string_view, size_t> present;  // dictionary + counts
    for (const auto& s : ts.samples) {
      for (const auto& [k, _] : s.values) ++present[k];
    }
    // Framing, flags, gate, metric and sample counts, timestamps.
    bytes += 4 + ts.watcher.size() + 8 + 1 + (ts.gate.any() ? 32 : 0) + 8 +
             count * 8;
    for (const auto& [name, n] : present) {
      bytes += 4 + name.size() + 1 + (n == count ? 0 : (count + 7) / 8) + 4 +
               n * 8;
    }
  }
  return bytes;
}

double MetricColumnView::value(size_t packed_index) const {
  return load_f64(values + packed_index * 8);
}

double SeriesColumnsView::timestamp(size_t sample_index) const {
  return load_f64(timestamps + sample_index * 8);
}

namespace {

/// Shared framing walk: header already consumed, cursor at series_count.
/// `version` selects the per-series framing (v1 has no flags byte).
ProfileColumnsView read_columns(Cursor& c, uint32_t version) {
  ProfileColumnsView out;
  const uint32_t series_count = c.u32("series count");
  // Bound the reserve by what the payload could possibly frame (each
  // series costs >= 20 bytes) so a corrupt count throws CodecError
  // instead of attempting a multi-gigabyte allocation.
  c.need(static_cast<uint64_t>(series_count) * 20, "series table");
  out.series.reserve(series_count);
  for (uint32_t si = 0; si < series_count; ++si) {
    SeriesColumnsView sv;
    sv.watcher = read_string(c, "watcher name");
    sv.rate_hz = c.f64("series rate");
    if (version >= 2) {
      const uint8_t flags = c.u8("series flags");
      if (flags > 3) {
        throw CodecError("corrupt SYNB container: series flags " +
                         std::to_string(flags) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      sv.variable_rate = (flags & 1u) != 0;
      if ((flags & 2u) != 0) {
        sv.gate.floor_hz = c.f64("gate floor_hz");
        sv.gate.burst_hz = c.f64("gate burst_hz");
        sv.gate.open_threshold = c.f64("gate open_threshold");
        sv.gate.close_hold_s = c.f64("gate close_hold_s");
      }
    }
    const uint32_t metric_count = c.u32("metric count");
    // Same guard: every metric needs >= 9 framing bytes downstream.
    c.need(static_cast<uint64_t>(metric_count) * 9, "metric table");
    sv.metrics.resize(metric_count);
    for (auto& m : sv.metrics) m.name = read_string(c, "metric name");
    sv.sample_count = c.u32("sample count");
    sv.timestamps =
        c.raw(static_cast<uint64_t>(sv.sample_count) * 8, "timestamp column");
    for (auto& m : sv.metrics) {
      const uint8_t dense = c.u8("density flag");
      if (dense > 1) {
        throw CodecError("corrupt SYNB container: density flag " +
                         std::to_string(dense) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      if (!dense) {
        m.presence = c.raw((static_cast<uint64_t>(sv.sample_count) + 7) / 8,
                           "presence bitmap");
      }
      m.value_count = c.u32("value count");
      if (m.value_count > sv.sample_count) {
        throw CodecError("corrupt SYNB container: metric \"" +
                         std::string(m.name) + "\" has " +
                         std::to_string(m.value_count) + " values for " +
                         std::to_string(sv.sample_count) + " samples");
      }
      if (dense && m.value_count != sv.sample_count) {
        throw CodecError("corrupt SYNB container: dense metric \"" +
                         std::string(m.name) + "\" has " +
                         std::to_string(m.value_count) + " values for " +
                         std::to_string(sv.sample_count) + " samples");
      }
      m.values = c.raw(static_cast<uint64_t>(m.value_count) * 8,
                       "metric value column");
    }
    out.series.push_back(std::move(sv));
  }
  if (!c.done()) {
    throw CodecError("corrupt SYNB container: " +
                     std::to_string(c.offset()) + " byte(s) decoded, " +
                     "trailing garbage follows");
  }
  return out;
}

}  // namespace

ProfileColumnsView decode_columns(std::string_view data) {
  Cursor c(data);
  // Validates magic/version, skips the header.
  const ContainerHead head = open_container(c);
  return read_columns(c, head.version);
}

Profile decode_binary(std::string_view data) {
  Cursor c(data);
  const ContainerHead head = open_container(c);
  const ProfileColumnsView cols = read_columns(c, head.version);

  Profile p;
  try {
    // The header is the series-less to_json shape; from_json handles it.
    p = Profile::from_json(json::parse(head.header));
  } catch (const json::JsonError& e) {
    throw CodecError(std::string("corrupt SYNB container: bad JSON header: ") +
                     e.what());
  }

  p.series.reserve(cols.series.size());
  for (const auto& sv : cols.series) {
    TimeSeries ts;
    ts.watcher = std::string(sv.watcher);
    ts.sample_rate_hz = sv.rate_hz;
    ts.variable_rate = sv.variable_rate;
    ts.gate = sv.gate;
    ts.samples.resize(sv.sample_count);
    for (size_t i = 0; i < sv.sample_count; ++i) {
      ts.samples[i].timestamp = sv.timestamp(i);
    }
    for (const auto& m : sv.metrics) {
      const std::string name(m.name);
      size_t cursor = 0;
      for (size_t i = 0; i < sv.sample_count; ++i) {
        if (!m.present(i)) continue;
        if (cursor >= m.value_count) {
          throw CodecError("corrupt SYNB container: metric \"" + name +
                           "\" presence bitmap claims more values than the " +
                           "column holds (" + std::to_string(m.value_count) +
                           ")");
        }
        // hint: metric names are visited in sorted dictionary order, so
        // each sample map grows by appending at its end.
        auto& values = ts.samples[i].values;
        values.emplace_hint(values.end(), name, m.value(cursor++));
      }
      if (cursor != m.value_count) {
        throw CodecError("corrupt SYNB container: metric \"" + name + "\" " +
                         "column holds " + std::to_string(m.value_count) +
                         " values but the presence bitmap selects " +
                         std::to_string(cursor));
      }
    }
    p.series.push_back(std::move(ts));
  }
  return p;
}

BinaryProfileInfo decode_binary_identity(std::string_view data) {
  Cursor c(data);
  const std::string_view header = open_container(c).header;
  BinaryProfileInfo info;
  try {
    const json::Value v = json::parse(header);
    info.command = v.get_or("command", std::string());
    if (v.contains("tags")) {
      for (const auto& t : v["tags"].as_array()) {
        info.tags.push_back(t.as_string());
      }
    }
    info.created_at = v.get_or("created_at", 0.0);
  } catch (const json::JsonError& e) {
    throw CodecError(std::string("corrupt SYNB container: bad JSON header: ") +
                     e.what());
  }
  return info;
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
    const ProfileColumnsView& columns, size_t buckets, BucketFn bucket_of) {
  std::map<std::string, Accum, std::less<>> accums;
  std::vector<size_t> bucket;
  for (const auto& sv : columns.series) {
    bucket.resize(sv.sample_count);
    for (size_t i = 0; i < sv.sample_count; ++i) {
      bucket[i] = bucket_of(sv.timestamp(i));
    }
    for (const auto& mc : sv.metrics) {
      auto it = accums.find(mc.name);
      if (it == accums.end()) {
        it = accums.emplace(std::string(mc.name), Accum{}).first;
        it->second.instantaneous = is_instantaneous_metric(mc.name);
        it->second.value.assign(buckets, 0.0);
        it->second.present.assign(buckets, 0);
      }
      Accum& acc = it->second;
      size_t cursor = 0;
      if (acc.instantaneous) {
        for (size_t i = 0; i < sv.sample_count; ++i) {
          if (!mc.present(i)) continue;
          const double v = mc.value(cursor++);
          const size_t b = bucket[i];
          acc.present[b] = 1;
          acc.touched = true;
          acc.value[b] = std::max(acc.value[b], v);
        }
      } else {
        double prev = 0.0;
        for (size_t i = 0; i < sv.sample_count; ++i) {
          if (!mc.present(i)) continue;
          const double v = mc.value(cursor++);
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

DeltaTable delta_table_from_columns(const ProfileColumnsView& columns,
                                    double profile_rate_hz) {
  // Row resolution follows the fastest recorded series: with
  // per-watcher rate overrides the high-rate series defines the replay
  // granularity, slower series simply contribute to fewer rows.
  double rate = profile_rate_hz;
  for (const auto& sv : columns.series) rate = std::max(rate, sv.rate_hz);

  bool variable = false;
  for (const auto& sv : columns.series) variable = variable || sv.variable_rate;

  if (variable) {
    // Variable-rate profiles: the recorded timestamps ARE the rows.
    // Edges = sorted unique union of every sample instant across
    // series; each row's duration is the recorded gap to the previous
    // edge, so the replay trajectory (burst density, idle stretches)
    // survives exactly. Bucket lookup is an exact-double binary search,
    // so a sample always finds its own timestamp.
    std::vector<double> edges;
    size_t total = 0;
    for (const auto& sv : columns.series) total += sv.sample_count;
    edges.reserve(total);
    for (const auto& sv : columns.series) {
      for (size_t i = 0; i < sv.sample_count; ++i) {
        edges.push_back(sv.timestamp(i));
      }
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
    return make_table(accumulate_lanes(columns, edges.size(), bucket_of),
                      std::move(durations));
  }

  if (rate <= 0.0) return {};
  const double period = 1.0 / rate;

  // The profile time origin: the earliest timestamp of any series.
  // Watcher clocks are unsynchronised (deliberately, section 4.1);
  // bucketing on the common origin reconstructs the recorded ordering
  // across resource types, which is all the emulation semantics need.
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& sv : columns.series) {
    if (sv.sample_count > 0) origin = std::min(origin, sv.timestamp(0));
  }
  if (!std::isfinite(origin)) return {};

  // The epsilon absorbs floating-point jitter when timestamps land
  // exactly on period boundaries (synthetic profiles do).
  auto bucket_of = [origin, period](double t) {
    return static_cast<size_t>(std::max(0.0, (t - origin) / period + 1e-9));
  };

  size_t max_bucket = 0;
  for (const auto& sv : columns.series) {
    for (size_t i = 0; i < sv.sample_count; ++i) {
      max_bucket = std::max(max_bucket, bucket_of(sv.timestamp(i)));
    }
  }
  const size_t buckets = max_bucket + 1;
  return make_table(accumulate_lanes(columns, buckets, bucket_of),
                    std::vector<double>(buckets, period));
}

// --- base64 -----------------------------------------------------------------

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}
}  // namespace

std::string base64_encode(std::string_view raw) {
  std::string out;
  out.reserve((raw.size() + 2) / 3 * 4);
  size_t i = 0;
  for (; i + 3 <= raw.size(); i += 3) {
    const uint32_t n = (static_cast<unsigned char>(raw[i]) << 16) |
                       (static_cast<unsigned char>(raw[i + 1]) << 8) |
                       static_cast<unsigned char>(raw[i + 2]);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back(kB64Alphabet[n & 63]);
  }
  const size_t rem = raw.size() - i;
  if (rem == 1) {
    const uint32_t n = static_cast<unsigned char>(raw[i]) << 16;
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out += "==";
  } else if (rem == 2) {
    const uint32_t n = (static_cast<unsigned char>(raw[i]) << 16) |
                       (static_cast<unsigned char>(raw[i + 1]) << 8);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::string base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    throw CodecError("bad base64 payload: length " +
                     std::to_string(text.size()) + " is not a multiple of 4");
  }
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int vals[4];
    int pad = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text[i + k];
      if (c == '=' && k >= 2 && i + 4 == text.size()) {
        vals[k] = 0;
        ++pad;
      } else if (pad > 0) {
        throw CodecError("bad base64 payload: data after '=' padding");
      } else {
        vals[k] = b64_value(c);
        if (vals[k] < 0) {
          throw CodecError(std::string("bad base64 payload: byte '") + c +
                           "' at offset " + std::to_string(i + k));
        }
      }
    }
    const uint32_t n = (static_cast<uint32_t>(vals[0]) << 18) |
                       (static_cast<uint32_t>(vals[1]) << 12) |
                       (static_cast<uint32_t>(vals[2]) << 6) |
                       static_cast<uint32_t>(vals[3]);
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((n >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(n & 0xff));
  }
  return out;
}

}  // namespace synapse::profile
