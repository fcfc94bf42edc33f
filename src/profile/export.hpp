#pragma once
// Profile export: flatten profiles into CSV for external plotting.
//
// The paper publishes its raw data sets and plotting scripts alongside
// the software; this module is the equivalent export path. Two shapes:
//
//  - series CSV: one row per (watcher, timestamp, metric, value),
//    long/tidy format that plotting tools ingest directly;
//  - totals CSV: one row per profile with totals as columns, for
//    comparing repetitions or parameter sweeps.

#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace synapse::profile {

/// Tidy per-sample export of one profile. Each row carries the owning
/// series' measured effective rate (effective_rate_hz column) so
/// variable-rate recordings annotate their actual trajectory.
std::string series_to_csv(const Profile& profile);

/// One row per profile; the column set is the union of all totals.
/// The first columns are command, tags, created_at, sample_rate_hz,
/// then one `rate_hz:<watcher>` column per watcher seen in any profile
/// (the series' measured effective rate — for variable-rate series this
/// is the number that matters, not the nominal rate).
std::string totals_to_csv(const std::vector<Profile>& profiles);

/// Write a string to a file (creates/truncates). Throws SystemError,
/// after removing a partly written file.
void write_file(const std::string& path, const std::string& content);

}  // namespace synapse::profile
