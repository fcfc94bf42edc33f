#pragma once
// SYNB: the binary columnar profile container.
//
// The JSON profile form (profile.hpp to_json/from_json) is the interop
// format; this module is the performance format the store prefers for
// new data. A SYNB blob keeps the low-volume identity/system/totals/
// derived parts as a compact JSON header — so external tooling keeps a
// self-describing prefix — and stores the high-volume sample payload as
// per-series columns: an interned metric-name dictionary, one timestamp
// column, and one contiguous little-endian f64 column per metric (with
// a presence bitmap when a metric is absent from some samples). That is
// the in-memory layout of a series (profile.hpp SampleColumns) packed:
// decode copies the timestamp and dense value columns straight in,
// scatters sparse ones along their bitmap, and keeps nothing of the
// blob; encode writes the columns back out.
//
// Container layout (all integers little-endian):
//
//   "SYNB" | u32 version=2 | u32 header_len | header JSON (compact)
//   u32 series_count
//   per series:
//     u32 watcher_len | watcher bytes | f64 rate_hz
//     u8 flags                                 (v2+; bit0 variable_rate,
//                                               bit1 gate params follow)
//     [f64 floor_hz | f64 burst_hz | f64 open_threshold | f64 close_hold_s]
//                                              (v2+, only when bit1 set)
//     u32 metric_count | per metric: u32 len | bytes     (sorted names)
//     u32 sample_count | f64 timestamps[sample_count]
//     per metric:
//       u8 dense | [presence bitmap, (sample_count+7)/8 bytes when !dense]
//       u32 value_count | f64 values[value_count]
//
// Version 1 containers (no flags byte, no gate) decode fine: every v1
// series is fixed-rate by construction. Writers always emit version 2.
//
// Doubles survive exactly (raw IEEE-754 bits), so binary→JSON→binary
// conversion is lossless modulo the JSON number printer, which is
// already round-trip exact ("%.17g").

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "profile/profile.hpp"

namespace synapse::profile {

/// Malformed SYNB input: wrong magic, unsupported version, truncation,
/// or internally inconsistent counts. The message carries the byte
/// offset so a corrupt store file can be diagnosed.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kBinaryMagic[4] = {'S', 'Y', 'N', 'B'};
inline constexpr uint32_t kBinaryVersion = 2;
/// Oldest container version this build still reads.
inline constexpr uint32_t kBinaryMinVersion = 1;

/// Cheap magic-byte sniff used by store backends to route mixed-format
/// reads. True only for data that starts with the SYNB magic.
bool looks_like_binary_profile(std::string_view data);

// Profile::to_binary() encodes and Profile::from_binary() decodes. The
// decoder throws CodecError on malformed input: truncation, bad framing,
// metric names out of order, or value counts that disagree with the
// sample count or the presence bitmap.

/// p.to_binary().size(), from the columns' names and presence counts,
/// without encoding.
size_t encoded_binary_size(const Profile& p);

/// Identity fields straight from the JSON header — listings and
/// identity checks pay for the small header parse only, never for the
/// columns. Throws CodecError on malformed input.
struct BinaryProfileInfo {
  std::string command;
  std::vector<std::string> tags;
  double created_at = 0.0;
};
BinaryProfileInfo decode_binary_identity(std::string_view data);

// --- base64 -----------------------------------------------------------------
// Used by the docstore/cluster backends to carry SYNB blobs inside JSON
// documents (the docstore speaks documents, not bytes).

std::string base64_encode(std::string_view raw);
/// Throws CodecError on non-base64 input.
std::string base64_decode(std::string_view text);

}  // namespace synapse::profile
