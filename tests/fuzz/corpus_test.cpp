// Replays the committed regression corpus (tests/fuzz/corpus/) under the
// full oracle set on every build: any case that once exposed a bug — or
// that seeds coverage for a target — must keep passing. Also covers the
// corpus disk format itself (append -> load round trip, comment handling).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/oracles.hpp"

namespace tp::fuzz {
namespace {

TEST(FuzzCorpus, CommittedCorpusReplaysClean) {
  std::vector<std::pair<std::string, FuzzCase>> corpus;
  std::string error;
  ASSERT_TRUE(LoadCorpus(TP_FUZZ_CORPUS_DIR, &corpus, &error)) << error;
  const std::vector<Target> targets = AllTargets();
  ASSERT_GE(corpus.size(), targets.size()) << "corpus must cover every target";
  std::set<Target> seen;
  for (const auto& [file, c] : corpus) {
    const OracleResult result = RunCase(c);
    EXPECT_TRUE(result.ok) << file << ": " << result.message
                           << "\n  replay: " << FormatCase(c);
    seen.insert(c.target);
  }
  for (Target target : targets) {
    EXPECT_TRUE(seen.count(target) != 0) << "no corpus case for target " << TargetName(target);
  }
}

class CorpusDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tp_fuzz_corpus_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CorpusDirTest, AppendThenLoadRoundTrips) {
  const FuzzCase a = GenerateCase(Target::kSoa, 11);
  const FuzzCase b = GenerateCase(Target::kTrajectory, 12);
  ASSERT_FALSE(AppendCorpusCase(dir_.string(), a, "first\nmultiline message").empty());
  ASSERT_FALSE(AppendCorpusCase(dir_.string(), b, "second").empty());

  std::vector<std::pair<std::string, FuzzCase>> corpus;
  std::string error;
  ASSERT_TRUE(LoadCorpus(dir_.string(), &corpus, &error)) << error;
  ASSERT_EQ(corpus.size(), 2u);
  // Directory iteration is sorted by filename; match by target instead.
  for (const auto& [file, c] : corpus) {
    EXPECT_EQ(c, c.target == Target::kSoa ? a : b) << file;
  }
}

TEST_F(CorpusDirTest, LoadRejectsCorruptTokens) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "bad.case") << "# comment survives\ntpf1:soa:nothex:::\n";
  std::vector<std::pair<std::string, FuzzCase>> corpus;
  std::string error;
  EXPECT_FALSE(LoadCorpus(dir_.string(), &corpus, &error));
  EXPECT_NE(error.find("bad.case"), std::string::npos) << error;
}

TEST_F(CorpusDirTest, LoadSkipsCommentsBlankLinesAndForeignFiles) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "ok.case") << "# a comment\n\n"
                                  << FormatCase(GenerateCase(Target::kReplay, 5)) << "\n";
  std::ofstream(dir_ / "README.md") << "not a corpus file\n";
  std::vector<std::pair<std::string, FuzzCase>> corpus;
  std::string error;
  ASSERT_TRUE(LoadCorpus(dir_.string(), &corpus, &error)) << error;
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus[0].second.target, Target::kReplay);
}

}  // namespace
}  // namespace tp::fuzz
