#pragma once
// Small argument-parsing helpers shared by the synapse-* CLI mains.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "profile/profile_store.hpp"
#include "profile/store_backend.hpp"
#include "watchers/watcher.hpp"

namespace synapse::cli {

/// --list-store-backends, shared so every CLI prints the same table.
inline int list_store_backends() {
  using profile::StoreBackendRegistry;
  const auto& builtins = StoreBackendRegistry::builtin_names();
  std::printf("%-10s %s\n", "name", "built-in");
  for (const auto& name : StoreBackendRegistry::instance().names()) {
    const bool builtin = std::find(builtins.begin(), builtins.end(), name) !=
                         builtins.end();
    std::printf("%-10s %s\n", name.c_str(), builtin ? "yes" : "no");
  }
  std::printf(
      "\nnote: 'cluster' distributes the store's shards across the\n"
      "docstore instances of a --store-cluster spec.json\n");
  return 0;
}

/// The backend every CLI opens `store_dir` with: the name given with
/// --store-backend (or "cluster", implied by --store-cluster) when one
/// was given, otherwise the backend the store records
/// (ProfileStore::detect_backend; "files" for a fresh directory).
inline std::string resolve_store_backend(const std::string& store_dir,
                                         const std::string& requested) {
  if (!requested.empty()) return requested;
  return profile::ProfileStore::detect_backend(store_dir);
}

/// Split a comma-separated name list ("compute, storage,my-atom"),
/// trimming whitespace around each entry; empty entries are dropped.
inline std::vector<std::string> split_name_list(const std::string& list) {
  std::vector<std::string> names;
  std::string current;
  auto flush = [&] {
    const auto begin = current.find_first_not_of(" \t");
    if (begin != std::string::npos) {
      const auto end = current.find_last_not_of(" \t");
      names.push_back(current.substr(begin, end - begin + 1));
    }
    current.clear();
  };
  for (const char c : list) {
    if (c == ',') {
      flush();
    } else {
      current += c;
    }
  }
  flush();
  return names;
}

/// Parse a per-watcher gate override "NAME=FLOOR:BURST:THRESHOLD:HOLD"
/// (--watcher-gate): four numbers — floor rate (Hz), burst rate (Hz,
/// 0 = the watcher's sampling rate), open threshold, and quiet hold (s).
/// Returns false on a malformed spec (shape only); range validation is
/// Profiler::prepare_run's job, with a diagnostic naming the watcher.
inline bool parse_gate_spec(const std::string& spec, std::string& name,
                            watchers::GateParams& gate) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  name = spec.substr(0, eq);
  double* fields[4] = {&gate.floor_hz, &gate.burst_hz, &gate.open_threshold,
                       &gate.close_hold_s};
  size_t pos = eq + 1;
  for (int k = 0; k < 4; ++k) {
    const size_t sep = k < 3 ? spec.find(':', pos) : spec.size();
    if (sep == std::string::npos) return false;
    const std::string field = spec.substr(pos, sep - pos);
    if (field.empty()) return false;
    char* end = nullptr;
    *fields[k] = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0') return false;
    pos = sep + 1;
  }
  return true;
}

}  // namespace synapse::cli
