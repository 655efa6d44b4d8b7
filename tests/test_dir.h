// A scratch directory for one test: $TMPDIR/apks-<tag>-<test>-<pid>.
//
// gtest discovery runs every test in its own process and `ctest -j` runs
// those processes side by side, so a fixed directory name is shared state
// between unrelated tests. The test name and the pid keep each directory
// private; construction starts it empty and destruction removes it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace apks {

class TestDir {
 public:
  explicit TestDir(std::string_view tag) {
    std::string name = "apks-" + std::string(tag);
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("-") + info->test_suite_name() + "." + info->name();
    }
    name += "-" + std::to_string(::getpid());
    for (char& c : name) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
      if (!keep) c = '_';
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace apks
