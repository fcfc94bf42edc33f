#include "docstore/docstore.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>

#include "sys/dir.hpp"
#include "sys/error.hpp"

namespace synapse::docstore {

const json::Value* lookup_path(const json::Value& doc,
                               const std::string& path) {
  const json::Value* current = &doc;
  size_t start = 0;
  while (start <= path.size()) {
    const size_t dot = path.find('.', start);
    const std::string key =
        path.substr(start, dot == std::string::npos ? std::string::npos
                                                    : dot - start);
    if (!current->is_object() || !current->contains(key)) return nullptr;
    current = &(*current)[key];
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return current;
}

size_t Collection::size() const {
  std::lock_guard lock(mutex_);
  return docs_.size();
}

namespace {

/// Find the largest array anywhere in the document (depth-first).
json::Array* largest_array(json::Value& v) {
  json::Array* best = nullptr;
  if (v.is_array()) best = &v.as_array();
  if (v.is_array()) {
    for (auto& elem : v.as_array()) {
      json::Array* sub = largest_array(elem);
      if (sub && (!best || sub->size() > best->size())) best = sub;
    }
  } else if (v.is_object()) {
    for (auto& [key, val] : v.as_object()) {
      json::Array* sub = largest_array(val);
      if (sub && (!best || sub->size() > best->size())) best = sub;
    }
  }
  return best;
}

}  // namespace

InsertResult Collection::insert(json::Value doc) {
  if (!doc.is_object()) {
    throw json::JsonError("docstore: only object documents are supported");
  }
  InsertResult result;
  // Reproduce the MongoDB 16 MB cap: trim the largest array until the
  // document fits. This is what loses the final sample of the largest
  // Fig. 4 run in the paper. The document is dumped once; every dropped
  // tail element takes its own compact dump and its ',' separator off
  // the running size.
  size_t size = json::dump(doc).size();
  while (size > kMaxDocumentBytes) {
    json::Array* arr = largest_array(doc);
    if (arr == nullptr || arr->empty()) {
      throw json::JsonError(
          "docstore: document exceeds 16MB and has no trimmable array");
    }
    // Drop a proportional chunk from the tail to converge quickly, but at
    // least one element.
    const size_t overshoot = size - kMaxDocumentBytes;
    const size_t avg_elem = std::max<size_t>(1, size / arr->size());
    const size_t drop =
        std::min(std::max<size_t>(1, overshoot / avg_elem), arr->size());
    for (size_t i = 0; i < drop; ++i) {
      size -= json::dump(arr->back()).size() + (arr->size() > 1 ? 1 : 0);
      arr->pop_back();
    }
    result.truncated = true;
  }
  std::lock_guard lock(mutex_);
  result.id = next_id_++;
  result.stored_bytes = size;
  doc["_id"] = result.id;
  docs_[result.id] = std::move(doc);
  return result;
}

bool Collection::matches(const json::Value& doc,
                         const std::vector<FieldEquals>& query) const {
  for (const auto& pred : query) {
    const json::Value* v = lookup_path(doc, pred.field);
    if (v == nullptr || !(*v == pred.value)) return false;
  }
  return true;
}

std::vector<json::Value> Collection::find(
    const std::vector<FieldEquals>& query) const {
  std::lock_guard lock(mutex_);
  std::vector<json::Value> out;
  for (const auto& [id, doc] : docs_) {
    if (matches(doc, query)) out.push_back(doc);
  }
  return out;
}

std::optional<json::Value> Collection::find_one(
    const std::vector<FieldEquals>& query) const {
  std::lock_guard lock(mutex_);
  for (const auto& [id, doc] : docs_) {
    if (matches(doc, query)) return doc;
  }
  return std::nullopt;
}

std::optional<json::Value> Collection::get(uint64_t id) const {
  std::lock_guard lock(mutex_);
  const auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second;
}

size_t Collection::remove(const std::vector<FieldEquals>& query) {
  std::lock_guard lock(mutex_);
  size_t removed = 0;
  for (auto it = docs_.begin(); it != docs_.end();) {
    if (matches(it->second, query)) {
      it = docs_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<json::Value> Collection::all() const {
  std::lock_guard lock(mutex_);
  std::vector<json::Value> out;
  out.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) out.push_back(doc);
  return out;
}

Store::Store(const std::string& directory) : directory_(directory) {
  if (::mkdir(directory.c_str(), 0755) != 0 && errno != EEXIST) {
    throw sys::SystemError("mkdir(" + directory + ")", errno);
  }
  const std::string suffix = ".collection.json";
  for (const auto& name : sys::list_dir(directory)) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      load_collection(name.substr(0, name.size() - suffix.size()),
                      directory + "/" + name);
    }
  }
}

void Store::load_collection(const std::string& name, const std::string& path) {
  json::Value data = json::load_file(path);
  auto coll = std::make_unique<Collection>(name);
  uint64_t max_id = 0;
  for (auto& doc : data["docs"].as_array()) {
    const uint64_t id = doc["_id"].as_uint();
    max_id = std::max(max_id, id);
    coll->docs_[id] = std::move(doc);
  }
  coll->next_id_ = max_id + 1;
  std::lock_guard lock(mutex_);
  collections_[name] = std::move(coll);
}

Collection& Store::collection(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
  }
  return *it->second;
}

std::vector<std::string> Store::collection_names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, coll] : collections_) names.push_back(name);
  return names;
}

void Store::flush() {
  if (directory_.empty()) return;
  std::lock_guard lock(mutex_);
  for (const auto& [name, coll] : collections_) {
    json::Object root;
    root["name"] = name;
    json::Array docs;
    {
      std::lock_guard coll_lock(coll->mutex_);
      for (const auto& [id, doc] : coll->docs_) docs.push_back(doc);
    }
    root["docs"] = std::move(docs);
    json::save_file(directory_ + "/" + name + ".collection.json",
                    json::Value(std::move(root)), /*indent=*/0);
  }
}

}  // namespace synapse::docstore
