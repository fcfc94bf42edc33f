// SYNB binary columnar container (profile/binary_codec.hpp): lossless
// round trips across the scenario catalog with replay deltas that
// match the pinned map-walk tables (fixtures/delta_tables.golden) bit
// for bit, size bounds against compact JSON, and loud rejection of
// truncated/corrupt/foreign payloads.

#include "profile/binary_codec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "delta_golden.hpp"
#include "json/json.hpp"
#include "profile/profile.hpp"
#include "workload/scenario.hpp"

namespace json = synapse::json;
namespace profile = synapse::profile;
namespace workload = synapse::workload;

using profile::CodecError;

namespace {

/// Catalog profiles plus hand-built edge cases (empty profile, series
/// with holes so presence bitmaps are exercised, negative/huge values,
/// and an adaptively recorded profile last).
std::vector<profile::Profile> fixture_profiles() {
  std::vector<profile::Profile> out;
  for (const auto& spec : workload::builtin_scenarios()) {
    out.push_back(spec.make_profile());
  }
  for (auto& p : delta_golden::codec_edge_profiles()) {
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

TEST(BinaryCodec, RoundTripIsLosslessAcrossCatalog) {
  for (const auto& p : fixture_profiles()) {
    const std::string blob = p.to_binary();
    const profile::Profile back = profile::Profile::from_binary(blob);
    // Identical JSON projection == identical identity, system info,
    // totals, derived, and every series/sample/value.
    EXPECT_EQ(json::dump(back.to_json()), json::dump(p.to_json()))
        << p.command;
    // Re-encoding is deterministic and stable.
    EXPECT_EQ(back.to_binary(), blob) << p.command;
  }
}

TEST(BinaryCodec, ColumnarDeltasMatchMapWalkBitForBit) {
  // The retired map walk's tables are pinned in
  // fixtures/delta_tables.golden; the kernel over a decoded payload's
  // columns must reproduce them.
  for (const auto& g : delta_golden::golden_profiles()) {
    const profile::Profile decoded =
        profile::Profile::from_binary(g.profile.to_binary());
    ASSERT_TRUE(decoded.has_binary_payload());
    delta_golden::expect_table_matches_golden(g.label, decoded.delta_table());
    if (g.cells) {
      delta_golden::expect_deltas_match_golden(g.label,
                                               decoded.sample_deltas());
    }
  }
}

TEST(BinaryCodec, V2CarriesVariableRateAndGateMetadata) {
  const auto fixtures = fixture_profiles();
  const auto& gated = fixtures.back();  // the adaptive fixture above
  ASSERT_EQ(gated.command, "gated");
  const profile::Profile back =
      profile::Profile::from_binary(gated.to_binary());
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_TRUE(back.series[0].variable_rate);
  EXPECT_DOUBLE_EQ(back.series[0].gate.floor_hz, 2.0);
  EXPECT_DOUBLE_EQ(back.series[0].gate.burst_hz, 100.0);
  EXPECT_DOUBLE_EQ(back.series[0].gate.open_threshold, 0.5);
  EXPECT_DOUBLE_EQ(back.series[0].gate.close_hold_s, 0.25);
  EXPECT_FALSE(back.series[1].variable_rate);
  EXPECT_FALSE(back.series[1].gate.any());
  EXPECT_TRUE(back.variable_rate());
}

TEST(BinaryCodec, DropBinaryPayloadFallsBackToMapWalk) {
  const profile::Profile src = fixture_profiles().back();
  ASSERT_EQ(src.command, "gated");
  profile::Profile decoded = profile::Profile::from_binary(src.to_binary());
  delta_golden::expect_deltas_match_golden("codec:gated",
                                           decoded.sample_deltas());
  decoded.drop_binary_payload();
  EXPECT_FALSE(decoded.has_binary_payload());
  delta_golden::expect_deltas_match_golden("codec:gated",
                                           decoded.sample_deltas());
  delta_golden::expect_table_matches_golden("codec:gated",
                                            decoded.delta_table());
}

TEST(BinaryCodec, BinaryIsAtMostHalfOfCompactJsonOnCatalog) {
  // The acceptance bar: across the catalog, SYNB costs <= 50% of the
  // compact JSON encoding (tiny profiles are header-dominated, so the
  // bound is on the aggregate).
  size_t json_bytes = 0;
  size_t synb_bytes = 0;
  for (const auto& spec : workload::builtin_scenarios()) {
    const profile::Profile p = spec.make_profile();
    json_bytes += json::dump(p.to_json()).size();
    synb_bytes += p.to_binary().size();
  }
  EXPECT_LE(synb_bytes * 2, json_bytes)
      << synb_bytes << " binary vs " << json_bytes << " JSON bytes";
}

TEST(BinaryCodec, EncodedSizeMatchesTheEncoderWithoutEncoding) {
  // Catalog, presence-bitmap holes, gate params, the empty profile and
  // an adaptively recorded one: the sizing walk agrees with encode.
  for (const auto& g : delta_golden::golden_profiles()) {
    EXPECT_EQ(profile::encoded_binary_size(g.profile),
              g.profile.to_binary().size())
        << g.label;
  }
}

TEST(BinaryCodec, SniffsMagic) {
  const profile::Profile p = fixture_profiles().front();
  EXPECT_TRUE(profile::looks_like_binary_profile(p.to_binary()));
  EXPECT_FALSE(profile::looks_like_binary_profile(json::dump(p.to_json())));
  EXPECT_FALSE(profile::looks_like_binary_profile(""));
  EXPECT_FALSE(profile::looks_like_binary_profile("SYN"));
}

TEST(BinaryCodec, IdentityDecodesWithoutColumns) {
  profile::Profile p;
  p.command = "ident-cmd";
  p.tags = {"x", "y"};
  p.created_at = 123.5;
  const auto info = profile::decode_binary_identity(p.to_binary());
  EXPECT_EQ(info.command, "ident-cmd");
  EXPECT_EQ(info.tags, (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(info.created_at, 123.5);
}

TEST(BinaryCodec, RejectsWrongMagic) {
  std::string blob = fixture_profiles().front().to_binary();
  blob[0] = 'X';
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, RejectsUnsupportedVersion) {
  std::string blob = fixture_profiles().front().to_binary();
  blob[4] = 9;  // version u32 lives right after the magic
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported SYNB version 9"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, EveryTruncationThrowsWithDiagnostics) {
  const std::string blob = fixture_profiles().back().to_binary();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    try {
      profile::decode_binary(std::string_view(blob).substr(0, cut));
      FAIL() << "cut at " << cut << " decoded";
    } catch (const CodecError& e) {
      // Diagnostics name the container, not just "error".
      EXPECT_NE(std::string(e.what()).find("SYNB"), std::string::npos)
          << "cut " << cut << ": " << e.what();
    }
  }
}

TEST(BinaryCodec, ByteMutationsNeverCrash) {
  // Single-byte corruption must either still decode (payload bytes are
  // arbitrary doubles) or throw CodecError — never crash or exhaust
  // memory on a corrupt count.
  const std::string blob = fixture_profiles().back().to_binary();
  std::mt19937 rng(11);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = blob;
    const size_t pos =
        std::uniform_int_distribution<size_t>(0, blob.size() - 1)(rng);
    mutated[pos] = static_cast<char>(
        std::uniform_int_distribution<int>(0, 255)(rng));
    try {
      const profile::Profile p = profile::decode_binary(mutated);
      (void)p.sample_deltas();  // decoded fine: replay input must too
    } catch (const CodecError&) {
      // Expected for framing corruption.
    }
  }
  SUCCEED();
}

TEST(BinaryCodec, TrailingGarbageRejected) {
  const std::string blob = fixture_profiles().front().to_binary() + "x";
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, Base64RoundTripsAllLengths) {
  std::string raw;
  for (int len = 0; len <= 64; ++len) {
    const std::string encoded = profile::base64_encode(raw);
    EXPECT_EQ(profile::base64_decode(encoded), raw) << "len " << len;
    raw.push_back(static_cast<char>(len * 37 + 250));  // includes >127
  }
}

TEST(BinaryCodec, Base64RejectsMalformedInput) {
  EXPECT_THROW(profile::base64_decode("abc"), CodecError);     // length % 4
  EXPECT_THROW(profile::base64_decode("ab!d"), CodecError);    // alphabet
  EXPECT_THROW(profile::base64_decode("=abc"), CodecError);    // padding
  EXPECT_THROW(profile::base64_decode("ab=c"), CodecError);    // padding
  EXPECT_NO_THROW(profile::base64_decode("abc="));
  EXPECT_NO_THROW(profile::base64_decode("ab=="));
}
