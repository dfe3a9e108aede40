// End-to-end tests of the wavesz_cli executable: run it as a subprocess on
// a raw float32 file and compare the containers it writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "data/io.hpp"

namespace wavesz {
namespace {

namespace fs = std::filesystem;

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wavesz_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    // 450 x 900 points: enough for a budget of 4 to split the Huffman
    // pack and the wavefront kernels.
    const auto f = data::field(data::Persona::CesmAtm, "CLDLOW", 4);
    data::write_f32(dir_ / "in.f32", f.materialize());
    dims_ = std::to_string(f.dims[0]) + " " + std::to_string(f.dims[1]);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Compress in.f32 to `out` with extra CLI flags; returns the container.
  std::vector<std::uint8_t> compress(const std::string& out,
                                     const std::string& flags) {
    const std::string cmd = std::string("\"") + WAVESZ_CLI_PATH +
                            "\" compress \"" + (dir_ / "in.f32").string() +
                            "\" \"" + (dir_ / out).string() + "\" " + dims_ +
                            " " + flags + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    return data::read_bytes(dir_ / out);
  }

  fs::path dir_;
  std::string dims_;
};

TEST_F(Cli, ThreadsFlagOutputIsByteIdentical) {
  for (const std::string mode : {"sz", "wave", "wave --huffman"}) {
    SCOPED_TRACE(mode);
    const auto one = compress("t1.wsz", "--mode " + mode + " --threads 1");
    const auto four = compress("t4.wsz", "--mode " + mode + " --threads 4");
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, four);
  }
}

}  // namespace
}  // namespace wavesz
