#include "profile/cluster_backend.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <set>

#include "sys/error.hpp"

namespace synapse::profile {

namespace {

constexpr const char* kPlacementFile = "cluster.placement.json";

/// Spec + shard assignment as persisted in cluster.placement.json.
struct PersistedPlacement {
  ClusterSpec instances;                 ///< roots/weights at creation time
  std::vector<std::string> assignment;   ///< shard index -> instance name
};

json::Value placement_to_json(const PersistedPlacement& placement) {
  json::Object root;
  root["instances"] = placement.instances.to_json();
  json::Array names;
  for (const auto& name : placement.assignment) {
    names.push_back(json::Value(name));
  }
  root["placement"] = std::move(names);
  return json::Value(std::move(root));
}

PersistedPlacement placement_from_json(const json::Value& value,
                                       const std::string& path) {
  if (!value.is_object() || !value.contains("placement")) {
    throw sys::ConfigError("cluster placement file '" + path +
                           "' is not a placement document");
  }
  PersistedPlacement out;
  out.instances = ClusterSpec::from_json(value["instances"]);
  for (const auto& name : value["placement"].as_array()) {
    out.assignment.push_back(name.as_string());
  }
  return out;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += "'" + n + "'";
  }
  return out;
}

/// Load-or-create the persisted placement for this store open. Called
/// once per shard (cheap JSON); concurrent first-openers race on a
/// link() claim, so exactly one placement ever defines the layout.
PersistedPlacement resolve_placement(const StoreBackendContext& context) {
  if (context.directory.empty()) {
    throw sys::ConfigError("store backend 'cluster' needs a store directory");
  }
  ClusterSpec spec;
  const bool have_spec = !context.spec_file.empty();
  if (have_spec) spec = ClusterSpec::load_file(context.spec_file);

  const std::string path =
      context.directory + "/" + std::string(kPlacementFile);
  if (!storedetail::file_exists(path)) {
    if (!have_spec) {
      throw sys::ConfigError(
          "cluster store '" + context.directory +
          "' has no persisted placement and no cluster spec was given "
          "(--store-cluster spec.json)");
    }
    PersistedPlacement fresh;
    fresh.instances = spec;
    fresh.assignment =
        ClusterBackend::compute_placement(spec, context.shard_count);
    // Claim with link() so concurrent first-openers agree on one
    // placement; the content is deterministic from the spec, but the
    // claim keeps the file whole under concurrent writes either way.
    const std::string tmp =
        path + ".tmp-" + storedetail::unique_tmp_suffix();
    json::save_file(tmp, placement_to_json(fresh), /*indent=*/0);
    const int linked = ::link(tmp.c_str(), path.c_str());
    const int err = errno;
    ::unlink(tmp.c_str());
    if (linked == 0) return fresh;
    if (err != EEXIST) {
      throw sys::SystemError("link(" + path + ")", err);
    }
    // Lost the race: fall through and honour the winner's placement.
  }

  PersistedPlacement persisted =
      placement_from_json(json::load_file(path), path);
  if (persisted.assignment.size() != context.shard_count) {
    throw sys::ConfigError(
        "cluster store '" + context.directory + "' placement covers " +
        std::to_string(persisted.assignment.size()) + " shards but the store "
        "has " + std::to_string(context.shard_count) +
        " — the placement file was tampered with or belongs to another store");
  }
  if (have_spec) {
    // The persisted placement wins over the spec (profiles live where
    // they were first placed); the spec may move instance roots, but an
    // instance that holds shards must not vanish from it — that would
    // silently lose every profile placed there.
    std::vector<std::string> missing;
    std::set<std::string> seen;
    for (const auto& name : persisted.assignment) {
      if (spec.find(name) == nullptr && seen.insert(name).second) {
        missing.push_back(name);
      }
    }
    if (!missing.empty()) {
      throw sys::ConfigError(
          "cluster spec '" + context.spec_file +
          "' no longer lists instance(s) holding shards of store '" +
          context.directory + "': " + join_names(missing) +
          " (placed instances: " +
          join_names([&] {
            std::vector<std::string> names;
            for (const auto& inst : persisted.instances.instances) {
              names.push_back(inst.name);
            }
            return names;
          }()) +
          ") — restore them to the spec or migrate their shards first");
    }
    // The current spec's roots/weights win — and are re-persisted, so a
    // moved instance root sticks for later SPEC-LESS opens too
    // (otherwise inspect would recreate the stale root as an empty
    // directory and silently read zero profiles from it). rename() is
    // atomic; racing openers with the same spec write identical
    // content.
    if (!(json::dump(persisted.instances.to_json()) ==
          json::dump(spec.to_json()))) {
      persisted.instances = spec;
      const std::string tmp =
          path + ".tmp-" + storedetail::unique_tmp_suffix();
      json::save_file(tmp, placement_to_json(persisted), /*indent=*/0);
      if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw sys::SystemError("rename(" + path + ")", err);
      }
    } else {
      persisted.instances = spec;
    }
  }
  return persisted;
}

}  // namespace

// --- spec -------------------------------------------------------------------

ClusterSpec ClusterSpec::from_json(const json::Value& value) {
  // Accepts the spec document ({"instances": [...]}) or the bare
  // instance array (the form persisted inside cluster.placement.json).
  if (!value.is_array() &&
      !(value.is_object() && value.contains("instances"))) {
    throw sys::ConfigError(
        "cluster spec must be an object with an 'instances' array");
  }
  ClusterSpec spec;
  const json::Array& instances =
      value.is_array() ? value.as_array() : value["instances"].as_array();
  std::set<std::string> names;
  for (size_t i = 0; i < instances.size(); ++i) {
    const json::Value& entry = instances[i];
    if (!entry.is_object()) {
      throw sys::ConfigError("cluster spec instance " + std::to_string(i) +
                             " must be an object");
    }
    ClusterInstance inst;
    inst.name = entry.get_or("name", "instance-" + std::to_string(i));
    inst.root = entry.get_or("root", std::string());
    if (inst.root.empty()) {
      throw sys::ConfigError("cluster spec instance '" + inst.name +
                             "' needs a non-empty 'root' directory");
    }
    if (entry.contains("weight") && !entry["weight"].is_number()) {
      throw sys::ConfigError("cluster spec instance '" + inst.name +
                             "' has a non-numeric 'weight'");
    }
    inst.weight = entry.get_or("weight", 1.0);
    if (inst.weight <= 0.0) {
      throw sys::ConfigError("cluster spec instance '" + inst.name +
                             "' needs a weight > 0");
    }
    if (!names.insert(inst.name).second) {
      throw sys::ConfigError("cluster spec lists instance '" + inst.name +
                             "' twice");
    }
    spec.instances.push_back(std::move(inst));
  }
  if (spec.instances.empty()) {
    throw sys::ConfigError("cluster spec needs at least one instance");
  }
  return spec;
}

ClusterSpec ClusterSpec::load_file(const std::string& path) {
  try {
    return from_json(json::load_file(path));
  } catch (const sys::ConfigError&) {
    throw;
  } catch (const std::exception& e) {
    throw sys::ConfigError("cannot read cluster spec '" + path +
                           "': " + e.what());
  }
}

json::Value ClusterSpec::to_json() const {
  json::Array out;
  for (const auto& inst : instances) {
    json::Object entry;
    entry["name"] = inst.name;
    entry["root"] = inst.root;
    entry["weight"] = inst.weight;
    out.push_back(json::Value(std::move(entry)));
  }
  return json::Value(std::move(out));
}

const ClusterInstance* ClusterSpec::find(const std::string& name) const {
  for (const auto& inst : instances) {
    if (inst.name == name) return &inst;
  }
  return nullptr;
}

// --- placement --------------------------------------------------------------

std::vector<std::string> ClusterBackend::compute_placement(
    const ClusterSpec& spec, size_t shard_count) {
  std::vector<size_t> assigned(spec.instances.size(), 0);
  std::vector<std::string> placement;
  placement.reserve(shard_count);
  for (size_t shard = 0; shard < shard_count; ++shard) {
    size_t best = 0;
    double best_cost = 0.0;
    for (size_t i = 0; i < spec.instances.size(); ++i) {
      const double cost = static_cast<double>(assigned[i] + 1) /
                          spec.instances[i].weight;
      if (i == 0 || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    ++assigned[best];
    placement.push_back(spec.instances[best].name);
  }
  return placement;
}

// --- backend ----------------------------------------------------------------

ClusterBackend::ClusterBackend(const StoreBackendContext& context)
    : shard_index_(context.shard_index) {
  const PersistedPlacement placement = resolve_placement(context);
  instance_name_ = placement.assignment[shard_index_];
  const ClusterInstance* inst = placement.instances.find(instance_name_);
  if (inst == nullptr) {
    // Spec-less reopen whose persisted instance list was edited by hand.
    throw sys::ConfigError("cluster store '" + context.directory +
                           "' placement names instance '" + instance_name_ +
                           "' but the persisted instance list does not "
                           "define it");
  }
  instance_root_ = inst->root;
  // The instance failing to open degrades THIS shard, not the store:
  // healthy instances keep serving their shards, and every operation on
  // a degraded shard throws a diagnostic naming the instance.
  try {
    ::mkdir(instance_root_.c_str(), 0755);  // EEXIST is fine
    shard_ = std::make_unique<DocStoreShardBackend>(
        instance_root_ + "/shard-" + std::to_string(shard_index_));
  } catch (const std::exception& e) {
    degraded_reason_ = e.what();
  }
}

void ClusterBackend::fail(const std::string& op) const {
  throw sys::SynapseError("cluster instance '" + instance_name_ + "' (" +
                          instance_root_ + ") is unavailable, " + op +
                          " on shard " + std::to_string(shard_index_) +
                          " failed: " + degraded_reason_);
}

bool ClusterBackend::put(const Profile& profile, const std::string& tkey) {
  if (!shard_) fail("put");
  return shard_->put(profile, tkey);
}

std::vector<Profile> ClusterBackend::read(const std::string& command,
                                          const std::string& tkey) const {
  if (!shard_) fail("read");
  return shard_->read(command, tkey);
}

size_t ClusterBackend::remove(const std::string& command,
                              const std::string& tkey) {
  if (!shard_) fail("remove");
  return shard_->remove(command, tkey);
}

void ClusterBackend::flush() {
  // Degraded shards never accepted a write, so there is nothing to
  // lose; throwing here would take down the store-wide flush worker.
  if (shard_) shard_->flush();
}

size_t ClusterBackend::size() const {
  if (!shard_) fail("size");
  return shard_->size();
}

std::vector<StoredProfileEntry> ClusterBackend::list() const {
  if (!shard_) fail("list");
  return shard_->list();
}

json::Value ClusterBackend::meta() const {
  json::Object meta;
  meta["instance"] = instance_name_;
  meta["root"] = instance_root_;
  meta["degraded"] = degraded();
  return json::Value(std::move(meta));
}

}  // namespace synapse::profile
