#pragma once
// Per-process scratch directory for tests that write files. ctest runs each
// test case as its own process, and the sanitizer configurations also run
// whole suite binaries next to those per-case entries, so fixed file names
// under ::testing::TempDir() would collide between concurrent processes.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace reveal::test {

/// A directory unique to this process (with a trailing '/'), created on
/// first use and removed with its contents when the process exits.
inline const std::string& process_temp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir() + "reveal_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr)
        throw std::runtime_error("cannot create a test directory: " + pattern);
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside process_temp_dir().
inline std::string temp_path(const std::string& name) { return process_temp_dir() + name; }

}  // namespace reveal::test
