#include "sys/dir.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "sys/error.hpp"

namespace sys = synapse::sys;

TEST(SysDir, ListsEntryNamesWithoutDotEntries) {
  const std::string dir = "/tmp/synapse_sys_dir_test";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir + "/sub && touch " +
               dir + "/a " + dir + "/b")
                  .c_str());
  std::vector<std::string> names = sys::list_dir(dir);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "sub"}));
  std::system(("rm -rf " + dir).c_str());
}

TEST(SysDir, MissingDirectoryListsEmpty) {
  EXPECT_TRUE(sys::list_dir("/tmp/synapse_sys_dir_no_such_dir").empty());
}

TEST(SysDir, NonDirectoryThrows) {
  EXPECT_THROW(sys::list_dir("/proc/self/status"), sys::SystemError);
}
