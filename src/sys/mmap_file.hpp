#pragma once
// Shared immutable byte buffers, including mmap-backed ones.
//
// The files store backend maps .profile.synb files instead of copying
// them through a std::string, so the SYNB decoder copies the columns
// straight out of the page cache into the profile; the mapping is
// dropped with the last reference to its Blob, after decode. POSIX
// keeps mapped pages readable past an unlink() of the file.
//
// Mapping a file that a writer later TRUNCATES would raise SIGBUS on
// access; the store's profile files are immutable once link()-claimed
// (only ever unlinked, never rewritten), which is what makes mmap safe
// there. Other callers must provide the same guarantee or use a
// StringBlob.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace synapse::sys {

/// An immutable byte buffer with shared ownership.
class Blob {
 public:
  virtual ~Blob() = default;
  virtual std::string_view view() const = 0;
};

/// Blob over heap bytes (the buffered fallback).
class StringBlob final : public Blob {
 public:
  explicit StringBlob(std::string data) : data_(std::move(data)) {}
  std::string_view view() const override { return data_; }

 private:
  std::string data_;
};

/// Read-only private mapping of one whole file.
class MappedBlob final : public Blob {
 public:
  /// nullptr when the file cannot be opened, stat-ed or mapped (ENOENT
  /// from a racing unlink, mmap-less filesystems, ...) — callers fall
  /// back to a buffered read. Empty files yield an empty view.
  static std::shared_ptr<MappedBlob> map(const std::string& path);

  ~MappedBlob() override;
  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  std::string_view view() const override {
    return std::string_view(static_cast<const char*>(addr_), size_);
  }

 private:
  MappedBlob(void* addr, size_t size) : addr_(addr), size_(size) {}

  void* addr_;  ///< nullptr for empty files (nothing mapped)
  size_t size_;
};

}  // namespace synapse::sys
