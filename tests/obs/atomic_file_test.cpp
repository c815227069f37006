// Crash-safe emission tests (DESIGN.md §9.2): write_file_atomic must leave
// either the complete previous file or the complete new file — a simulated
// crash mid-write (kCrashBeforeRename) keeps the previous content intact,
// while the deliberately broken kTornDestination path shows what the helper
// exists to prevent.
#include "obs/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace psched::obs {
namespace {

namespace fs = std::filesystem;

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("psched-atomic-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "artifact.json").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(AtomicFileTest, WritesNewFileAndLeavesNoTemp) {
  EXPECT_TRUE(write_file_atomic(path_, "{\"v\":1}\n"));
  EXPECT_EQ(contents(), "{\"v\":1}\n");
  EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "temp file must not survive";
}

TEST_F(AtomicFileTest, ReplacesPreviousContentCompletely) {
  ASSERT_TRUE(write_file_atomic(path_, "old content, much longer than new\n"));
  ASSERT_TRUE(write_file_atomic(path_, "new\n"));
  EXPECT_EQ(contents(), "new\n") << "no stale suffix may leak through";
}

TEST_F(AtomicFileTest, CrashMidWriteLeavesThePreviousFileIntact) {
  // The property every report/trace/bench emission relies
  // on: a crash after the temp write starts but before the rename must
  // leave the destination byte-identical to its previous content.
  const std::string previous = "{\"schema\":\"psched-run-report/v1\"}\n";
  ASSERT_TRUE(write_file_atomic(path_, previous));
  EXPECT_FALSE(write_file_atomic(path_, "{\"half\":\"written replacement…",
                                 AtomicWriteFault::kCrashBeforeRename));
  EXPECT_EQ(contents(), previous);
}

TEST_F(AtomicFileTest, CrashMidWriteOnAFreshPathLeavesNoDestination) {
  EXPECT_FALSE(write_file_atomic(path_, "never lands",
                                 AtomicWriteFault::kCrashBeforeRename));
  EXPECT_FALSE(fs::exists(path_));
}

TEST_F(AtomicFileTest, TornDestinationFaultShowsTheFailureModePrevented) {
  // kTornDestination bypasses temp+rename on purpose: the destination ends
  // up a truncated prefix — exactly what downstream validation (report
  // schemas) must catch.
  const std::string full = "0123456789abcdef0123456789abcdef";
  EXPECT_TRUE(write_file_atomic(path_, full, AtomicWriteFault::kTornDestination));
  const std::string torn = contents();
  EXPECT_LT(torn.size(), full.size());
  EXPECT_EQ(full.compare(0, torn.size(), torn), 0) << "torn file is a prefix";
}

TEST_F(AtomicFileTest, BitFlipFaultCorruptsExactlyOneBit) {
  const std::string full = "0123456789abcdef";
  EXPECT_TRUE(write_file_atomic(path_, full, AtomicWriteFault::kBitFlip));
  const std::string flipped = contents();
  ASSERT_EQ(flipped.size(), full.size());
  int bits = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(full[i]) ^
                    static_cast<unsigned char>(flipped[i]);
    while (diff != 0) {
      bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits, 1);
}

TEST_F(AtomicFileTest, UnwritableDirectoryFailsWithoutTouchingAnything) {
  const std::string bad = (dir_ / "missing-subdir" / "artifact.json").string();
  EXPECT_FALSE(write_file_atomic(bad, "content"));
  EXPECT_FALSE(fs::exists(bad));
}

}  // namespace
}  // namespace psched::obs
