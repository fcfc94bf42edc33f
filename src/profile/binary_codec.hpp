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
// a presence bitmap when a metric is absent from some samples). Decode
// therefore walks flat arrays instead of re-hashing one string→double
// map per sample. The columns are also the only input of the delta
// kernel (delta_table_from_columns): a retained payload is read in
// place, any other profile is encoded first, since the encoder is
// exactly the transpose of the per-sample maps into sorted,
// presence-tagged columns.
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

#include "profile/delta_frame.hpp"
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

/// Encode a profile into a SYNB blob.
std::string encode_binary(const Profile& p);

/// encode_binary(p).size(), from one walk over the series and without
/// building the columns.
size_t encoded_binary_size(const Profile& p);

/// Decode a SYNB blob into a fully materialized Profile. Throws
/// CodecError on malformed input. Prefer Profile::from_binary, which
/// additionally retains the blob so delta_table() can run the kernel
/// over its columns without re-encoding.
Profile decode_binary(std::string_view data);

/// Identity fields straight from the JSON header — listings and
/// identity checks pay for the small header parse only, never for the
/// columns. Throws CodecError on malformed input.
struct BinaryProfileInfo {
  std::string command;
  std::vector<std::string> tags;
  double created_at = 0.0;
};
BinaryProfileInfo decode_binary_identity(std::string_view data);

// --- columnar views ---------------------------------------------------------
// Views point into the encoded buffer (no copies of the bulk data); they
// are valid only while that buffer is. Element accessors go through
// memcpy so unaligned column offsets are safe on every target.

/// One metric column of one series. Values are packed: values[k] is the
/// value of the k-th sample for which present() is true.
struct MetricColumnView {
  std::string_view name;
  const char* presence = nullptr;  ///< bitmap; nullptr when dense
  const char* values = nullptr;    ///< f64 little-endian, packed
  uint32_t value_count = 0;

  bool present(size_t sample_index) const {
    if (presence == nullptr) return true;
    return (static_cast<unsigned char>(presence[sample_index >> 3]) >>
            (sample_index & 7)) &
           1u;
  }
  double value(size_t packed_index) const;
};

/// The columns of one TimeSeries.
struct SeriesColumnsView {
  std::string_view watcher;
  double rate_hz = 0.0;
  bool variable_rate = false;  ///< v2 flag bit0; v1 series are fixed-rate
  SeriesGate gate;             ///< v2 gate params (all zero when absent)
  const char* timestamps = nullptr;  ///< f64 little-endian
  uint32_t sample_count = 0;
  std::vector<MetricColumnView> metrics;

  double timestamp(size_t sample_index) const;
};

/// Column views over a whole SYNB blob. The JSON header is skipped, not
/// parsed — obtaining the view costs a bounds-checked walk over the
/// series framing only, which is what makes it usable per-replay when
/// the emulator compiles its replay plan.
struct ProfileColumnsView {
  std::vector<SeriesColumnsView> series;
};

/// Build column views over `data` (which must outlive the view).
/// Throws CodecError on malformed input.
ProfileColumnsView decode_columns(std::string_view data);

/// The delta kernel: per-period consumption deltas computed from
/// columns into a DeltaTable (delta_frame.hpp), the only delta product.
/// Fixed-rate profiles are bucketed on the fastest series' period from
/// the earliest timestamp; if any series carries the variable_rate flag
/// the rows are the union of the recorded timestamps instead.
/// `profile_rate_hz` is the profile-level rate the per-series rates are
/// maxed against. Profile::delta_table() feeds it the retained payload
/// or a fresh encode_binary() of the profile.
DeltaTable delta_table_from_columns(const ProfileColumnsView& columns,
                                    double profile_rate_hz);

// --- base64 -----------------------------------------------------------------
// Used by the docstore/cluster backends to carry SYNB blobs inside JSON
// documents (the docstore speaks documents, not bytes).

std::string base64_encode(std::string_view raw);
/// Throws CodecError on non-base64 input.
std::string base64_decode(std::string_view text);

}  // namespace synapse::profile
