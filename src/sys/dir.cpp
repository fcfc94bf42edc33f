#include "sys/dir.hpp"

#include <dirent.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "sys/error.hpp"

namespace synapse::sys {

std::vector<std::string> list_dir(const std::string& path) {
  const std::unique_ptr<DIR, int (*)(DIR*)> dir(::opendir(path.c_str()),
                                                &::closedir);
  if (!dir) {
    if (errno == ENOENT) return {};
    throw SystemError("opendir(" + path + ")", errno);
  }
  std::vector<std::string> names;
  while (const struct dirent* entry = ::readdir(dir.get())) {
    if (std::strcmp(entry->d_name, ".") == 0 ||
        std::strcmp(entry->d_name, "..") == 0) {
      continue;
    }
    names.emplace_back(entry->d_name);
  }
  return names;
}

}  // namespace synapse::sys
