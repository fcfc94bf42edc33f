#pragma once
// Directory listing without a DIR* in the caller's hands.

#include <string>
#include <vector>

namespace synapse::sys {

/// The entry names of directory `path` ("." and ".." excluded), in
/// readdir order. The directory is closed before returning, on every
/// path. A missing directory (ENOENT) lists as empty; any other
/// failure to open it throws SystemError.
std::vector<std::string> list_dir(const std::string& path);

}  // namespace synapse::sys
