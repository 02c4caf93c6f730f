// Recorder crash paths: a stale .lock sidecar left by a killed sweep must
// not deadlock the next Flush (flock is released by the kernel when the
// holder dies; an unlocked leftover file is just a file), an orphaned
// temp file from a crashed writer must never corrupt BENCH_results.json,
// and a malformed or truncated existing file is left untouched rather
// than replaced by a fresh array.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "runner/recorder.hpp"
#include "trajectory/json.hpp"

namespace tp::bench {
namespace {

class RecorderCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tp_recorder_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "BENCH_results.json").string();
    ::setenv("TP_BENCH_JSON", path_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("TP_BENCH_JSON");
    std::filesystem::remove_all(dir_);
  }

  std::string ReadFile() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  // The file must always hold a parseable JSON array of records.
  std::optional<trajectory::JsonValue> ParseResults(std::string* error) const {
    return trajectory::ParseJson(ReadFile(), error);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(RecorderCrashTest, StaleLockFileIsRecoveredNotDeadlocked) {
  // A sweep killed mid-flush leaves the sidecar behind; its flock died with
  // the process. The next writer must take the lock and proceed.
  std::ofstream(path_ + ".lock") << "";

  Recorder recorder("crash_test");
  ASSERT_TRUE(recorder.enabled());
  BenchRecord r;
  r.cell = "after-stale-lock";
  recorder.Add(std::move(r));
  recorder.Flush();  // would hang here if the stale sidecar blocked us

  std::string error;
  const auto parsed = ParseResults(&error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->type, trajectory::JsonValue::Type::kArray);
  ASSERT_EQ(parsed->array.size(), 1u);
  EXPECT_NE(ReadFile().find("after-stale-lock"), std::string::npos);
}

TEST_F(RecorderCrashTest, OrphanedTempFileNeverCorruptsResults) {
  // A crashed writer's temp file (pid that no longer exists) holds garbage;
  // the atomic-replace protocol must ignore it entirely.
  std::ofstream(path_ + ".tmp.99999") << "{ torn garbage [[[";
  std::ofstream(path_) << "[\n{\"schema_version\": 3, \"cell\": \"earlier\"}\n]\n";

  {
    Recorder recorder("crash_test");
    BenchRecord r;
    r.cell = "fresh";
    recorder.Add(std::move(r));
    recorder.Flush();
  }

  std::string error;
  const auto parsed = ParseResults(&error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->type, trajectory::JsonValue::Type::kArray);
  // The earlier record survives and the new one is appended (plus the
  // destructor's "total" record); no trace of the orphan's garbage.
  EXPECT_EQ(parsed->array.size(), 3u);
  const std::string contents = ReadFile();
  EXPECT_NE(contents.find("earlier"), std::string::npos);
  EXPECT_NE(contents.find("fresh"), std::string::npos);
  EXPECT_EQ(contents.find("torn garbage"), std::string::npos);
  // The orphan itself is untouched — cleaning it is not Flush's job.
  EXPECT_TRUE(std::filesystem::exists(path_ + ".tmp.99999"));
}

TEST_F(RecorderCrashTest, MalformedExistingFileIsLeftUntouched) {
  // A results file cut in half (a partial copy, a full disk) is not an
  // array the Recorder can append to; replacing it would throw away every
  // record before the cut.
  {
    Recorder recorder("crash_test");
    recorder.Add({.cell = "earlier"});
  }
  const std::string whole = ReadFile();
  const std::string truncated = whole.substr(0, whole.size() / 2);
  for (const std::string& malformed : {std::string("not json at all"), truncated}) {
    std::ofstream(path_) << malformed;
    ::testing::internal::CaptureStderr();
    {
      Recorder recorder("crash_test");
      recorder.Add({.cell = "dropped"});
      recorder.Flush();
    }
    const std::string stderr_text = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ReadFile(), malformed);
    EXPECT_NE(stderr_text.find(path_), std::string::npos) << stderr_text;
  }
}

TEST_F(RecorderCrashTest, DestructorFlushAppendsTotalRecord) {
  {
    Recorder recorder("crash_test");
    BenchRecord r;
    r.cell = "only";
    recorder.Add(std::move(r));
  }  // destructor flushes pending + the whole-process "total" record

  std::string error;
  const auto parsed = ParseResults(&error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->type, trajectory::JsonValue::Type::kArray);
  EXPECT_EQ(parsed->array.size(), 2u);
  EXPECT_NE(ReadFile().find("\"total\""), std::string::npos);
}

}  // namespace
}  // namespace tp::bench
