// The bench Recorder: JSON array creation, cross-process append, schema
// fields, malformed files left untouched, and the TP_BENCH_JSON enable
// switch.
#include "runner/recorder.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tp::bench {
namespace {

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per case: ctest runs each discovered case as its own
    // process, concurrently under -j, so a shared path would race.
    path_ = ::testing::TempDir() + "recorder_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
    std::remove(path_.c_str());
    setenv("TP_BENCH_JSON", path_.c_str(), 1);
    setenv("TP_BENCH_LABEL", "unit-test", 1);
  }
  void TearDown() override {
    unsetenv("TP_BENCH_JSON");
    unsetenv("TP_BENCH_LABEL");
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
  }

  std::string ReadFile() const {
    std::ifstream in(path_);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static std::size_t Count(const std::string& haystack, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  }

  std::string path_;
};

TEST_F(RecorderTest, DisabledWithoutEnv) {
  unsetenv("TP_BENCH_JSON");
  Recorder r("nobench");
  EXPECT_FALSE(r.enabled());
  r.Add({.cell = "x"});
  r.Flush();
  EXPECT_EQ(ReadFile(), "");
}

TEST_F(RecorderTest, DisabledWhenSetToZero) {
  setenv("TP_BENCH_JSON", "0", 1);
  Recorder r("nobench");
  EXPECT_FALSE(r.enabled());
}

TEST_F(RecorderTest, WritesSchemaFieldsAndTotalRecord) {
  {
    Recorder r("mybench");
    ASSERT_TRUE(r.enabled());
    r.Add({.cell = "haswell/raw",
           .rounds = 100,
           .samples = 96,
           .mi_bits = 0.5,
           .m0_bits = 0.01,
           .wall_ns = 1234,
           .threads = 4,
           .shards = 8,
           .contract_clean = 1,
           .contract_switches = 128});
  }  // destructor appends the "total" record and flushes
  std::string text = ReadFile();
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(Count(text, "\"schema_version\": 3"), 2u);  // cell + total
  EXPECT_NE(text.find("\"contract_clean\": true"), std::string::npos);
  EXPECT_NE(text.find("\"contract_switches\": 128"), std::string::npos);
  EXPECT_NE(text.find("\"bench\": \"mybench\""), std::string::npos);
  EXPECT_NE(text.find("\"label\": \"unit-test\""), std::string::npos);
  EXPECT_NE(text.find("\"cell\": \"haswell/raw\""), std::string::npos);
  EXPECT_NE(text.find("\"mi_bits\": 0.5"), std::string::npos);
  EXPECT_NE(text.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"shards\": 8"), std::string::npos);
  EXPECT_NE(text.find("\"cell\": \"total\""), std::string::npos);
}

TEST_F(RecorderTest, OmitsMiFieldsWhenUnset) {
  {
    Recorder r("costbench");
    r.Add({.cell = "x86/L1", .metrics = {{"direct_us", 26.0}}});
  }
  std::string text = ReadFile();
  EXPECT_EQ(text.find("mi_bits"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\": {\"direct_us\": 26}"), std::string::npos);
}

TEST_F(RecorderTest, AppendsAcrossRecorders) {
  {
    Recorder r("bench_a");
    r.Add({.cell = "a"});
  }
  {
    Recorder r("bench_b");
    r.Add({.cell = "b"});
  }
  std::string text = ReadFile();
  // 4 records total (2 cells + 2 totals), in one valid-shaped array.
  EXPECT_EQ(Count(text, "\"schema_version\""), 4u);
  EXPECT_NE(text.find("\"bench\": \"bench_a\""), std::string::npos);
  EXPECT_NE(text.find("\"bench\": \"bench_b\""), std::string::npos);
  EXPECT_EQ(Count(text, "["), 1u);
  EXPECT_EQ(Count(text, "]"), 1u);
  // Well-formed comma placement: exactly record-count-1 separators between
  // closing and opening braces.
  EXPECT_EQ(Count(text, "},"), 3u);
}

// A file that is not a JSON array of records may still be someone's
// data: the Recorder drops its own records rather than replace it.
TEST_F(RecorderTest, LeavesMalformedFileUntouched) {
  {
    std::ofstream out(path_);
    out << "not json at all";
  }
  {
    Recorder r("bench_c");
    r.Add({.cell = "c"});
  }
  EXPECT_EQ(ReadFile(), "not json at all");
}

TEST_F(RecorderTest, LeavesFileWithCloseBracketButNoOpenUntouched) {
  {
    std::ofstream out(path_);
    out << "oops]";
  }
  {
    Recorder r("bench_d");
    r.Add({.cell = "d"});
  }
  EXPECT_EQ(ReadFile(), "oops]");
}

// Balanced braces are not enough: the Recorder reads with the loader's own
// reader, so a file tp_bench_diff would refuse is left byte-identical and
// the flush's records are dropped with a message naming the file.
TEST_F(RecorderTest, LeavesFileTheLoaderRefusesUntouched) {
  const std::string valid = trajectory::RecordJson({.bench = "x", .cell = "c"});
  const std::vector<std::string> refused_files = {
      R"([{"schema_version": 3, "bench": "x", "label": "old", "cell": "c", "quick": true,}])",
      "[\n" + valid + ",\n{\"b\": tru}\n]\n",
      "[\n" + valid + "\n] trailing",
  };
  for (const std::string& refused : refused_files) {
    {
      std::ofstream out(path_, std::ios::trunc);
      out << refused;
    }
    ::testing::internal::CaptureStderr();
    {
      Recorder r("bench_f");
      r.Add({.cell = "f"});
    }
    const std::string stderr_text = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ReadFile(), refused);
    EXPECT_NE(stderr_text.find(path_), std::string::npos) << stderr_text;
  }
}

// A results file refused between construction and flush (here cut short by
// another process) drops the flush's records and counts them, so tp_bench
// can fail the channel instead of passing it with nothing written.
TEST_F(RecorderTest, CountsRecordsDroppedByARefusedFlush) {
  const std::size_t before = Recorder::DroppedRecords();
  ::testing::internal::CaptureStderr();
  {
    Recorder r("bench_h");
    r.Add({.cell = "h"});
    std::ofstream(path_, std::ios::trunc) << "[{\"cut short";
  }
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(ReadFile(), "[{\"cut short");
  EXPECT_EQ(Recorder::DroppedRecords() - before, 2u);  // the cell and the total

  // A flush the file takes drops nothing.
  std::remove(path_.c_str());
  {
    Recorder r("bench_h");
    r.Add({.cell = "h"});
  }
  EXPECT_EQ(Count(ReadFile(), "\"bench\": \"bench_h\""), 2u);
  EXPECT_EQ(Recorder::DroppedRecords() - before, 2u);
}

// Records this build cannot type are still valid JSON: an append keeps
// them, and every earlier byte of a file the framing wrote, as a prefix.
TEST_F(RecorderTest, AppendKeepsRecordsItCannotTypeByteForByte) {
  const std::vector<std::string> untyped = {
      R"({"schema_version": 99, "bench": "future", "label": "l", "cell": "c", "new": [1]})",
      R"({"schema_version": 3, "bench": "b", "label": "l", "cell": "c", "rounds": "many"})",
      R"("not an object")",
  };
  const std::string earlier = trajectory::JoinRecordTexts(untyped);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << earlier;
  }
  {
    Recorder r("bench_g");
    r.Add({.cell = "g"});
  }
  const std::string text = ReadFile();
  const std::string prefix = earlier.substr(0, earlier.size() - 3);  // up to "\n]\n"
  EXPECT_EQ(text.substr(0, prefix.size()), prefix) << text;
  EXPECT_EQ(Count(text, "\"schema_version\""), 4u);  // 2 kept + cell + total
  EXPECT_NE(text.find("\"bench\": \"bench_g\""), std::string::npos);
}

TEST_F(RecorderTest, StartsAFreshArrayInAnEmptyFile) {
  {
    std::ofstream out(path_);
    out << "\n";
  }
  {
    Recorder r("bench_e");
    r.Add({.cell = "e"});
  }
  std::string text = ReadFile();
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(Count(text, "\"schema_version\""), 2u);
}

TEST_F(RecorderTest, EscapesStrings) {
  {
    Recorder r("bench\"quoted");
    r.Add({.cell = "cell\\back\nline"});
  }
  std::string text = ReadFile();
  EXPECT_NE(text.find("bench\\\"quoted"), std::string::npos);
  EXPECT_NE(text.find("cell\\\\back\\nline"), std::string::npos);
}

}  // namespace
}  // namespace tp::bench
