#include "profile/binary_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

/// Copy `n` little-endian f64s out of `src` into `dst`; one memcpy on
/// little-endian hosts.
void load_f64s(const char* src, size_t n, double* dst) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (n > 0) std::memcpy(dst, src, n * sizeof(double));
#else
  for (size_t i = 0; i < n; ++i) dst[i] = load_f64(src + 8 * i);
#endif
}

void put_f64s(std::string& out, const std::vector<double>& values) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(double));
#else
  for (const double v : values) put_f64(out, v);
#endif
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
    return {raw(n, what), static_cast<size_t>(n)};
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
  uint32_t version = 0;     ///< drives per-series framing in read_series
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

size_t present_count(const MetricColumn& c) {
  return static_cast<size_t>(std::count(c.present.begin(), c.present.end(), 1));
}

/// Encoded size of everything after the JSON header.
size_t series_bytes(const Profile& p) {
  size_t bytes = 4;  // series count
  for (const auto& ts : p.series) {
    const size_t count = ts.size();
    // Framing, flags, gate, metric and sample counts, timestamps.
    bytes += 4 + ts.watcher.size() + 8 + 1 + (ts.gate.any() ? 32 : 0) + 8 +
             count * 8;
    for (const auto& c : ts.samples.metrics()) {
      const size_t n = present_count(c);
      bytes += 4 + c.name.size() + 1 + (n == count ? 0 : (count + 7) / 8) + 4 +
               n * 8;
    }
  }
  return bytes;
}

/// The series framing, with every column copied out: header already
/// consumed, cursor at series_count. `version` selects the per-series
/// framing (v1 has no flags byte).
std::vector<TimeSeries> read_series(Cursor& c, uint32_t version) {
  const uint32_t series_count = c.u32("series count");
  // Bound the reserve by what the payload could possibly frame (each
  // series costs >= 20 bytes) so a corrupt count throws CodecError
  // instead of attempting a multi-gigabyte allocation.
  c.need(static_cast<uint64_t>(series_count) * 20, "series table");
  std::vector<TimeSeries> out;
  out.reserve(series_count);
  for (uint32_t si = 0; si < series_count; ++si) {
    TimeSeries ts;
    ts.watcher = std::string(read_string(c, "watcher name"));
    ts.sample_rate_hz = c.f64("series rate");
    if (version >= 2) {
      const uint8_t flags = c.u8("series flags");
      if (flags > 3) {
        throw CodecError("corrupt SYNB container: series flags " +
                         std::to_string(flags) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      ts.variable_rate = (flags & 1u) != 0;
      if ((flags & 2u) != 0) {
        ts.gate.floor_hz = c.f64("gate floor_hz");
        ts.gate.burst_hz = c.f64("gate burst_hz");
        ts.gate.open_threshold = c.f64("gate open_threshold");
        ts.gate.close_hold_s = c.f64("gate close_hold_s");
      }
    }
    const uint32_t metric_count = c.u32("metric count");
    // Same guard: every metric needs >= 9 framing bytes downstream.
    c.need(static_cast<uint64_t>(metric_count) * 9, "metric table");
    std::vector<std::string_view> names(metric_count);
    for (uint32_t k = 0; k < metric_count; ++k) {
      names[k] = read_string(c, "metric name");
      if (k > 0 && !(names[k - 1] < names[k])) {
        throw CodecError("corrupt SYNB container: metric \"" +
                         std::string(names[k]) + "\" out of sorted order at " +
                         "offset " + std::to_string(c.offset()));
      }
    }
    const uint32_t n = c.u32("sample count");
    const char* raw_timestamps =
        c.raw(static_cast<uint64_t>(n) * 8, "timestamp column");
    std::vector<double> timestamps(n);
    load_f64s(raw_timestamps, n, timestamps.data());

    std::vector<MetricColumn> metrics;
    metrics.reserve(metric_count);
    for (const std::string_view name : names) {
      const uint8_t dense = c.u8("density flag");
      if (dense > 1) {
        throw CodecError("corrupt SYNB container: density flag " +
                         std::to_string(dense) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      const char* presence =
          dense ? nullptr
                : c.raw((static_cast<uint64_t>(n) + 7) / 8, "presence bitmap");
      const uint32_t value_count = c.u32("value count");
      if (value_count > n) {
        throw CodecError("corrupt SYNB container: metric \"" +
                         std::string(name) + "\" has " +
                         std::to_string(value_count) + " values for " +
                         std::to_string(n) + " samples");
      }
      if (dense && value_count != n) {
        throw CodecError("corrupt SYNB container: dense metric \"" +
                         std::string(name) + "\" has " +
                         std::to_string(value_count) + " values for " +
                         std::to_string(n) + " samples");
      }
      const char* values = c.raw(static_cast<uint64_t>(value_count) * 8,
                                 "metric value column");
      MetricColumn m;
      m.name = std::string(name);
      if (dense) {
        m.values.resize(n);
        load_f64s(values, n, m.values.data());
        m.present.assign(n, 1);
      } else {
        m.values.assign(n, 0.0);
        m.present.assign(n, 0);
        size_t cursor = 0;
        for (size_t i = 0; i < n; ++i) {
          if (((static_cast<unsigned char>(presence[i >> 3]) >> (i & 7)) &
               1u) == 0) {
            continue;
          }
          if (cursor >= value_count) {
            throw CodecError("corrupt SYNB container: metric \"" + m.name +
                             "\" presence bitmap claims more values than the " +
                             "column holds (" + std::to_string(value_count) +
                             ")");
          }
          m.values[i] = load_f64(values + 8 * cursor++);
          m.present[i] = 1;
        }
        if (cursor != value_count) {
          throw CodecError("corrupt SYNB container: metric \"" + m.name +
                           "\" column holds " + std::to_string(value_count) +
                           " values but the presence bitmap selects " +
                           std::to_string(cursor));
        }
      }
      // A column no row records carries nothing (and the encoder never
      // writes one); every kept column records at least one row.
      if (value_count > 0) metrics.push_back(std::move(m));
    }
    ts.samples = SampleColumns(std::move(timestamps), std::move(metrics));
    out.push_back(std::move(ts));
  }
  if (!c.done()) {
    throw CodecError("corrupt SYNB container: " +
                     std::to_string(c.offset()) + " byte(s) decoded, " +
                     "trailing garbage follows");
  }
  return out;
}

}  // namespace

bool looks_like_binary_profile(std::string_view data) {
  return data.size() >= 4 && std::memcmp(data.data(), kBinaryMagic, 4) == 0;
}

std::string Profile::to_binary() const {
  const std::string header = encode_header(*this);
  if (header.size() > std::numeric_limits<uint32_t>::max()) {
    throw CodecError("profile header too large for SYNB container");
  }
  std::string out;
  out.reserve(12 + header.size() + series_bytes(*this));
  out.append(kBinaryMagic, 4);
  put_u32(out, kBinaryVersion);
  put_u32(out, static_cast<uint32_t>(header.size()));
  out += header;

  put_u32(out, static_cast<uint32_t>(series.size()));
  for (const auto& ts : series) {
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

    // The metric dictionary: the series' column names, already sorted.
    // Sorted order matters: the delta kernel's lane order and its
    // float-op order follow it.
    const auto& metrics = ts.samples.metrics();
    put_u32(out, static_cast<uint32_t>(metrics.size()));
    for (const auto& c : metrics) put_string(out, c.name);

    const size_t count = ts.size();
    put_u32(out, static_cast<uint32_t>(count));
    put_f64s(out, ts.samples.timestamps());

    for (const auto& c : metrics) {
      const size_t n = present_count(c);
      if (n == count) {  // dense: no bitmap, the column as is
        out.push_back('\1');
        put_u32(out, static_cast<uint32_t>(n));
        put_f64s(out, c.values);
        continue;
      }
      out.push_back('\0');
      const size_t bitmap = out.size();
      out.append((count + 7) / 8, '\0');
      for (size_t i = 0; i < count; ++i) {
        if (c.present[i] != 0) {
          out[bitmap + (i >> 3)] |= static_cast<char>(1u << (i & 7));
        }
      }
      put_u32(out, static_cast<uint32_t>(n));
      for (size_t i = 0; i < count; ++i) {
        if (c.present[i] != 0) put_f64(out, c.values[i]);
      }
    }
  }
  return out;
}

size_t encoded_binary_size(const Profile& p) {
  return 12 + encode_header(p).size() + series_bytes(p);
}

Profile Profile::from_binary(std::string_view data) {
  Cursor c(data);
  const ContainerHead head = open_container(c);
  std::vector<TimeSeries> series = read_series(c, head.version);

  Profile p;
  try {
    // The header is the series-less to_json shape; from_json handles it.
    p = Profile::from_json(json::parse(head.header));
  } catch (const json::JsonError& e) {
    throw CodecError(std::string("corrupt SYNB container: bad JSON header: ") +
                     e.what());
  }
  p.series = std::move(series);
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
