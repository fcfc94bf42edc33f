#include "profile/store_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "docstore/docstore.hpp"
#include "profile/binary_codec.hpp"
#include "profile/cluster_backend.hpp"
#include "profile/export.hpp"
#include "sys/dir.hpp"
#include "sys/error.hpp"
#include "sys/mmap_file.hpp"
#include "sys/procfs.hpp"

namespace synapse::profile {

namespace storedetail {

constexpr const char* kProfileSuffix = ".profile.json";
constexpr const char* kBinarySuffix = ".profile.synb";
constexpr size_t kSuffixLen = 13;  // strlen of either suffix

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string unique_tmp_suffix() {
  static std::atomic<uint64_t> counter{0};
  return std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

bool has_profile_suffix(const std::string& name) {
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kProfileSuffix) ==
             0;
}

bool has_binary_profile_suffix(const std::string& name) {
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kBinarySuffix) ==
             0;
}

size_t count_profile_files(const std::string& dir) {
  size_t n = 0;
  for (const auto& name : sys::list_dir(dir)) {
    if (has_profile_suffix(name) || has_binary_profile_suffix(name)) ++n;
  }
  return n;
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_' || c == '.')
               ? c
               : '_';
  }
  return out.substr(0, 120);
}

}  // namespace storedetail

namespace {

using storedetail::has_binary_profile_suffix;
using storedetail::has_profile_suffix;
using storedetail::sanitize;
using storedetail::unique_tmp_suffix;

/// Open one stored profile file as a shared read-only buffer. SYNB
/// files are mmap-ed when possible (`prefer_mmap`, decided from the
/// file suffix) so decode copies the columns straight out of the page
/// cache; JSON
/// files and mmap failures (ENOENT from a racing remove(), mmap-less
/// filesystems) fall back to a buffered slurp. nullptr when the file
/// vanished entirely.
std::shared_ptr<const sys::Blob> load_profile_blob(const std::string& path,
                                                   bool prefer_mmap) {
  if (prefer_mmap) {
    if (auto mapped = sys::MappedBlob::map(path)) return mapped;
  }
  auto data = sys::slurp_file(path);
  if (!data) return nullptr;
  return std::make_shared<const sys::StringBlob>(std::move(*data));
}

/// Decode a stored profile in either format, SYNB by magic sniff. Both
/// paths read the buffer by view and copy out what they keep, so the
/// mapping is released as soon as the caller drops `blob`.
Profile parse_profile_blob(const sys::Blob& blob) {
  if (looks_like_binary_profile(blob.view())) {
    return Profile::from_binary(blob.view());
  }
  return Profile::from_json(json::parse(blob.view()));
}

/// Identity of a profile or envelope document: its top-level fields.
StoredProfileEntry doc_identity(const json::Value& doc) {
  StoredProfileEntry e;
  e.command = doc.get_or("command", std::string());
  if (doc.contains("tags")) {
    for (const auto& t : doc["tags"].as_array()) e.tags.push_back(t.as_string());
  }
  e.created_at = doc.get_or("created_at", 0.0);
  return e;
}

/// Identity, format and size of a stored blob of either format. SYNB
/// pays for its JSON header only: a mapped blob touches its first pages.
StoredProfileEntry blob_identity(std::string_view data) {
  if (!looks_like_binary_profile(data)) {
    StoredProfileEntry e = doc_identity(json::parse(data));
    e.format = "json";
    e.encoded_bytes = data.size();
    return e;
  }
  BinaryProfileInfo info = decode_binary_identity(data);
  return StoredProfileEntry{std::move(info.command), std::move(info.tags),
                            info.created_at, "binary", data.size()};
}

// --- memory ---------------------------------------------------------------

class MemoryBackend : public StoreBackend {
 public:
  bool put(const Profile& profile, const std::string&) override {
    profiles_.push_back(profile);
    return false;
  }

  std::vector<Profile> read(const std::string& command,
                            const std::string& tkey) const override {
    std::vector<Profile> out;
    for (const auto& p : profiles_) {
      if (p.command == command && store_tags_key(p.tags) == tkey) {
        out.push_back(p);
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    const size_t before = profiles_.size();
    profiles_.erase(
        std::remove_if(profiles_.begin(), profiles_.end(),
                       [&](const Profile& p) {
                         return p.command == command &&
                                store_tags_key(p.tags) == tkey;
                       }),
        profiles_.end());
    return before - profiles_.size();
  }

  size_t size() const override { return profiles_.size(); }

  std::vector<StoredProfileEntry> list() const override {
    std::vector<StoredProfileEntry> out;
    out.reserve(profiles_.size());
    for (const auto& p : profiles_) {
      // Nothing is encoded at rest in memory; report the format every
      // persistent backend writes, with no size, so listings stay
      // uniform across backends.
      out.push_back(StoredProfileEntry{p.command, p.tags, p.created_at,
                                       "binary", 0});
    }
    return out;
  }

 private:
  std::vector<Profile> profiles_;
};

// --- files ----------------------------------------------------------------

/// One flat file per profile under the shard directory (no size
/// limit): writes are *.profile.synb, and *.profile.json files written
/// before SYNB existed are read alongside them (reads sniff each file's
/// magic bytes). Writes are link()-claimed so concurrent writers in
/// other processes or store instances never collide on a sequence
/// number and readers only ever see complete files. Every put() (after
/// its link()) and every remove() that unlinked a file appends one byte
/// to `.generation` through an O_APPEND fd, so that file's size counts
/// writes across processes and cache_stamp() is one stat(). Crash
/// window: a writer killed between link() and the append leaves its
/// file unannounced; other live instances' cached entries miss it until
/// the next write to the shard, while cold opens see it at once.
class FilesBackend : public StoreBackend {
 public:
  explicit FilesBackend(std::string shard_dir)
      : directory_(std::move(shard_dir)),
        generation_path_(directory_ + "/.generation") {
    ::mkdir(directory_.c_str(), 0755);
    open_generation();  // stores from before this file gain it here
  }
  ~FilesBackend() override { ::close(generation_fd_); }  // -1: just EBADF
  FilesBackend(const FilesBackend&) = delete;
  FilesBackend& operator=(const FilesBackend&) = delete;

  bool put(const Profile& profile, const std::string& tkey) override {
    const std::string base = directory_ + "/" + sanitize(profile.command) +
                             "." + sanitize(tkey) + ".";
    // Write the full document to a temp name (which never matches the
    // profile-file read patterns), then claim the next free sequence
    // number with link().
    const std::string tmp = directory_ + "/.tmp-" + unique_tmp_suffix();
    write_file(tmp, profile.to_binary());
    for (size_t seq = 0;; ++seq) {
      const std::string path =
          base + std::to_string(seq) + storedetail::kBinarySuffix;
      if (::link(tmp.c_str(), path.c_str()) == 0) break;
      if (errno != EEXIST) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw sys::SystemError("link(" + path + ")", err);
      }
    }
    ::unlink(tmp.c_str());
    advance_generation();
    return false;
  }

  std::vector<Profile> read(const std::string& command,
                            const std::string& tkey) const override {
    std::vector<Profile> out;
    for (const auto& name : matching_files(command, tkey)) {
      auto blob = load_profile_blob(directory_ + "/" + name,
                                    has_binary_profile_suffix(name));
      if (!blob) continue;  // racing remove()
      Profile p = parse_profile_blob(*blob);
      // Sanitization can collide; verify the real identity.
      if (p.command == command && store_tags_key(p.tags) == tkey) {
        out.push_back(std::move(p));
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    size_t removed = 0;
    for (const auto& name : matching_files(command, tkey)) {
      const std::string path = directory_ + "/" + name;
      try {
        auto blob = load_profile_blob(path, has_binary_profile_suffix(name));
        if (!blob) continue;  // racing remove()
        const StoredProfileEntry id = blob_identity(blob->view());
        if (id.command != command || store_tags_key(id.tags) != tkey) continue;
      } catch (const std::exception&) {
        continue;  // unreadable file: leave it for diagnosis, not deletion
      }
      if (::unlink(path.c_str()) == 0) ++removed;
    }
    if (removed > 0) advance_generation();
    return removed;
  }

  size_t size() const override {
    return storedetail::count_profile_files(directory_);
  }

  /// (inode, size) of the generation file: the inode tells a recreated
  /// file from the old one. Valid stamps are even; a failed stat() gives
  /// an odd value that differs on every call, so it never validates.
  uint64_t cache_stamp() const override {
    struct stat st {};
    if (::stat(generation_path_.c_str(), &st) != 0) {
      static std::atomic<uint64_t> failures{0};
      return (failures.fetch_add(1) << 1) | 1u;
    }
    return ((static_cast<uint64_t>(st.st_ino) * 0x9e3779b97f4a7c15ull) ^
            static_cast<uint64_t>(st.st_size))
           << 1;
  }

  json::Value meta() const override {
    json::Object meta;
    meta["directory"] = directory_;
    return json::Value(std::move(meta));
  }

  std::vector<StoredProfileEntry> list() const override {
    std::vector<StoredProfileEntry> out;
    for (const auto& name : sys::list_dir(directory_)) {
      if (!has_profile_suffix(name) && !has_binary_profile_suffix(name)) {
        continue;
      }
      auto blob = load_profile_blob(directory_ + "/" + name,
                                    has_binary_profile_suffix(name));
      if (!blob) continue;  // racing remove()
      try {
        out.push_back(blob_identity(blob->view()));
      } catch (const std::exception&) {
        continue;  // unreadable file: absent from the catalog
      }
    }
    return out;
  }

 private:
  /// Open the generation file for appends, creating it if missing, and
  /// remember which inode the fd holds.
  void open_generation() {
    if (generation_fd_ >= 0) ::close(generation_fd_);
    generation_fd_ = ::open(generation_path_.c_str(),
                            O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    struct stat st {};
    generation_ino_ = generation_fd_ >= 0 && ::fstat(generation_fd_, &st) == 0
                          ? st.st_ino
                          : 0;
  }

  /// Append one byte to the generation file. If the path no longer
  /// names the file the fd holds (deleted or replaced since open),
  /// reopen it and append there, where other instances stat. If no
  /// append lands, unlink the path: readers' stat() then fails and they
  /// miss until a later write recreates the file.
  void advance_generation() {
    for (int attempt = 0; attempt < 2; ++attempt) {
      struct stat st {};
      if (generation_fd_ >= 0 && ::write(generation_fd_, "+", 1) == 1 &&
          ::stat(generation_path_.c_str(), &st) == 0 &&
          st.st_ino == generation_ino_) {
        return;
      }
      open_generation();
    }
    ::unlink(generation_path_.c_str());
  }

  std::vector<std::string> matching_files(const std::string& command,
                                          const std::string& tkey) const {
    std::vector<std::string> names;
    const std::string prefix = sanitize(command) + "." + sanitize(tkey) + ".";
    for (auto& name : sys::list_dir(directory_)) {
      if (name.rfind(prefix, 0) == 0 &&
          (has_profile_suffix(name) || has_binary_profile_suffix(name))) {
        names.push_back(std::move(name));
      }
    }
    return names;
  }

  std::string directory_;
  std::string generation_path_;
  int generation_fd_ = -1;
  ino_t generation_ino_ = 0;
};

}  // namespace

// --- docstore (shared with the cluster backend) ----------------------------

DocStoreShardBackend::DocStoreShardBackend(const std::string& shard_dir)
    : store_(std::make_unique<docstore::Store>(shard_dir)) {}

DocStoreShardBackend::~DocStoreShardBackend() = default;

bool DocStoreShardBackend::put(const Profile& profile,
                               const std::string& tkey) {
  // Envelope document: the SYNB blob rides as base64, the query fields
  // stay plain top-level members so FieldEquals lookups work identically
  // for both document shapes.
  // The docstore enforces its 16 MB document limit by trimming the
  // largest array (paper section 4.5) — a base64 string offers it
  // nothing to trim, so an envelope that cannot fit falls back to the
  // plain JSON document and inherits the documented sample-array
  // truncation instead of a hard failure. The blob size decides that
  // before anything is encoded.
  if (encoded_binary_size(profile) / 3 * 4 + 4096 <
      docstore::kMaxDocumentBytes) {
    const std::string blob = profile.to_binary();
    json::Object doc;
    doc["command"] = profile.command;
    json::Array jtags;
    for (const auto& t : profile.tags) jtags.push_back(t);
    doc["tags"] = std::move(jtags);
    doc["tags_key"] = tkey;
    doc["created_at"] = profile.created_at;
    doc["synb"] = base64_encode(blob);
    return store_->collection("profiles")
        .insert(json::Value(std::move(doc)))
        .truncated;
  }
  json::Value doc = profile.to_json();
  doc.as_object()["tags_key"] = tkey;
  return store_->collection("profiles").insert(std::move(doc)).truncated;
}

namespace {

/// Decode one stored document of either shape (binary envelope or
/// plain profile document).
Profile profile_from_doc(const json::Value& doc) {
  if (doc.contains("synb")) {
    return Profile::from_binary(base64_decode(doc["synb"].as_string()));
  }
  return Profile::from_json(doc);
}

}  // namespace

std::vector<Profile> DocStoreShardBackend::read(
    const std::string& command, const std::string& tkey) const {
  const std::vector<docstore::FieldEquals> query = {
      {"command", json::Value(command)}, {"tags_key", json::Value(tkey)}};
  std::vector<Profile> out;
  for (const auto& doc : store_->collection("profiles").find(query)) {
    out.push_back(profile_from_doc(doc));
  }
  return out;
}

std::vector<StoredProfileEntry> DocStoreShardBackend::list() const {
  std::vector<StoredProfileEntry> out;
  for (const auto& doc : store_->collection("profiles").all()) {
    StoredProfileEntry e = doc_identity(doc);
    if (doc.contains("synb")) {
      e.format = "binary";
      // Stored size is the decoded blob, not its base64 inflation —
      // that is what a files-backend copy of the same profile would
      // occupy, so sizes compare across backends. Every 4 base64 data
      // characters carry 3 bytes; '=' padding carries none.
      const std::string& b64 = doc["synb"].as_string();
      const size_t data_chars = b64.find_last_not_of('=') + 1;  // npos+1 = 0
      e.encoded_bytes = data_chars * 3 / 4;
    } else {
      e.format = "json";
      e.encoded_bytes = json::dump(doc).size();
    }
    out.push_back(std::move(e));
  }
  return out;
}

size_t DocStoreShardBackend::remove(const std::string& command,
                                    const std::string& tkey) {
  const std::vector<docstore::FieldEquals> query = {
      {"command", json::Value(command)}, {"tags_key", json::Value(tkey)}};
  return store_->collection("profiles").remove(query);
}

void DocStoreShardBackend::flush() { store_->flush(); }

size_t DocStoreShardBackend::size() const {
  return store_->collection("profiles").size();
}

json::Value DocStoreShardBackend::meta() const {
  json::Object meta;
  meta["directory"] = store_->directory();
  return json::Value(std::move(meta));
}

// --- key canonicalization ---------------------------------------------------

std::string store_tags_key(const std::vector<std::string>& tags) {
  std::vector<std::string> sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& t : sorted) {
    if (!key.empty()) key += ',';
    key += t;
  }
  return key;
}

// --- registry ---------------------------------------------------------------

namespace {

std::string shard_dir(const StoreBackendContext& context) {
  if (context.directory.empty()) {
    throw sys::ConfigError(
        "store backend needs a store directory (only 'memory' runs without "
        "one)");
  }
  return context.directory + "/shard-" + std::to_string(context.shard_index);
}

}  // namespace

StoreBackendRegistry::StoreBackendRegistry() {
  factories_["memory"] = [](const StoreBackendContext&) {
    return std::make_unique<MemoryBackend>();
  };
  factories_["docstore"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<DocStoreShardBackend>(shard_dir(ctx));
  };
  factories_["files"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<FilesBackend>(shard_dir(ctx));
  };
  factories_["cluster"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<ClusterBackend>(ctx);
  };
}

StoreBackendRegistry& StoreBackendRegistry::instance() {
  static StoreBackendRegistry registry;
  return registry;
}

void StoreBackendRegistry::register_backend(const std::string& name,
                                            Factory factory) {
  if (name.empty()) {
    throw sys::ConfigError("store backend name must not be empty");
  }
  if (!factory) {
    throw sys::ConfigError("store backend factory must not be empty");
  }
  factories_[name] = std::move(factory);
}

std::unique_ptr<StoreBackend> StoreBackendRegistry::create(
    const std::string& name, const StoreBackendContext& context) const {
  ensure_registered(name);
  return factories_.at(name)(context);
}

void StoreBackendRegistry::ensure_registered(const std::string& name) const {
  if (factories_.count(name) != 0) return;
  std::string known;
  for (const auto& [key, unused] : factories_) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw sys::ConfigError("unknown store backend: " + name +
                         " (registered: " + known + ")");
}

bool StoreBackendRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> StoreBackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, unused] : factories_) out.push_back(key);
  return out;
}

const std::vector<std::string>& StoreBackendRegistry::builtin_names() {
  static const std::vector<std::string> names = {"memory", "docstore", "files",
                                                 "cluster"};
  return names;
}

}  // namespace synapse::profile
