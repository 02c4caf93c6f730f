// The trajectory toolchain behind tp_bench_diff: JSON reader robustness,
// forgiving record parsing, and the always-on regression gate. The
// overriding property: hand-edited BENCH_results.json input must never
// crash the differ — it degrades to warnings or a load error.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "trajectory/diff.hpp"
#include "trajectory/json.hpp"
#include "trajectory/trajectory.hpp"

namespace tp::trajectory {
namespace {

// ---- JSON reader ----

TEST(Json, ParsesScalarsAndNesting) {
  std::optional<JsonValue> v = ParseJson(R"({"a": [1, -2.5e3, "x\n", true, null], "b": {}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2500.0);
  EXPECT_EQ(a->array[2].string, "x\n");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_TRUE(a->array[4].is(JsonValue::Type::kNull));
  EXPECT_NE(v->Find("b"), nullptr);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInputWithOffset) {
  std::string error;
  EXPECT_FALSE(ParseJson("[1, 2", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(ParseJson("[1] trailing", &error).has_value());
  EXPECT_FALSE(ParseJson("", &error).has_value());
  EXPECT_FALSE(ParseJson("nul", &error).has_value());
  EXPECT_FALSE(ParseJson("[1, ]", &error).has_value());
}

TEST(Json, BoundsRecursionDepth) {
  std::string bomb(5000, '[');
  std::string error;
  EXPECT_FALSE(ParseJson(bomb, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(Json, ParsesUnicodeEscapes) {
  std::optional<JsonValue> v = ParseJson("\"a\\u0041\\u00e9\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, "aA\xc3\xa9");
}

// ---- record parsing ----

std::string Rec(const std::string& body) {
  return R"({"schema_version": 1, "bench": "b", "label": "l", "cell": "c")" +
         (body.empty() ? "" : ", " + body) + "}";
}

TEST(Trajectory, ParsesFullRecord) {
  std::optional<Trajectory> t = ParseTrajectory(
      "[" +
      Rec(R"("quick": true, "threads": 4, "shards": 8, "rounds": 100, "samples": 96,
           "mi_bits": 0.5, "m0_bits": 0.01, "wall_ns": 1234,
           "metrics": {"x": 2.0})") +
      "]");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 1u);
  const TrajectoryRecord& r = t->records[0];
  EXPECT_EQ(r.bench, "b");
  EXPECT_EQ(r.label, "l");
  EXPECT_EQ(r.cell, "c");
  EXPECT_TRUE(r.quick);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_EQ(r.shards, 8u);
  EXPECT_EQ(r.samples, 96u);
  EXPECT_TRUE(r.has_mi());
  EXPECT_EQ(r.mi_bits, 0.5);
  EXPECT_EQ(r.wall_ns, 1234u);
  EXPECT_EQ(r.metrics.at("x"), 2.0);
  EXPECT_TRUE(t->warnings.empty());
}

// The writer and the reader are one schema: every field, optional blocks
// included, comes back from RecordJson -> ParseTrajectory unchanged.
TEST(Trajectory, RecordJsonRoundTripsEveryField) {
  TrajectoryRecord r;
  r.schema_version = 2;
  r.bench = "fig\"3\\kernel";
  r.label = "run\tlabel";
  r.cell = "Haswell (x86)/L2\n/protected";
  r.rounds = 150;
  r.samples = 142;
  r.mi_bits = 0.5;
  r.m0_bits = 0.0625;
  r.wall_ns = 123456789;
  r.threads = 4;
  r.shards = 8;
  r.metrics = {{"switch_us", 29.8}, {"odd \"key\"", -2.5}};
  r.contract_clean = 0;
  r.contract_switches = 128;
  r.contract_violations = 3;
  r.contract_whitelisted = 4;
  r.contract_first = "L1-I set 5 \x01";
  r.cell_status = "timeout";
  r.cell_error = "budget \"40 ms\" exceeded";
  r.quick = true;
  r.host_cpus = 16;
  r.unix_time = 1753430000;

  const std::string text = RecordJson(r);
  EXPECT_EQ(text,
            R"({"schema_version": 2, "bench": "fig\"3\\kernel", "label": "run\tlabel", )"
            R"("cell": "Haswell (x86)/L2\n/protected", "quick": true, "host_cpus": 16, )"
            R"("threads": 4, "shards": 8, "rounds": 150, "samples": 142, "mi_bits": 0.5, )"
            R"("m0_bits": 0.0625, "wall_ns": 123456789, "unix_time": 1753430000, )"
            R"("metrics": {"odd \"key\"": -2.5, "switch_us": 29.8}, "contract_clean": false, )"
            R"("contract_switches": 128, "contract_violations": 3, "contract_whitelisted": 4, )"
            R"("contract_first": "L1-I set 5 \u0001", "cell_status": "timeout", )"
            R"("cell_error": "budget \"40 ms\" exceeded"})");
  std::optional<Trajectory> t = ParseTrajectory("[" + text + "]");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 1u) << text;
  const TrajectoryRecord& p = t->records[0];
  EXPECT_EQ(p.schema_version, r.schema_version);
  EXPECT_EQ(p.bench, r.bench);
  EXPECT_EQ(p.label, r.label);
  EXPECT_EQ(p.cell, r.cell);
  EXPECT_EQ(p.rounds, r.rounds);
  EXPECT_EQ(p.samples, r.samples);
  EXPECT_EQ(p.mi_bits, r.mi_bits);
  EXPECT_EQ(p.m0_bits, r.m0_bits);
  EXPECT_EQ(p.wall_ns, r.wall_ns);
  EXPECT_EQ(p.threads, r.threads);
  EXPECT_EQ(p.shards, r.shards);
  EXPECT_EQ(p.metrics, r.metrics);
  EXPECT_EQ(p.contract_clean, r.contract_clean);
  EXPECT_EQ(p.contract_switches, r.contract_switches);
  EXPECT_EQ(p.contract_violations, r.contract_violations);
  EXPECT_EQ(p.contract_whitelisted, r.contract_whitelisted);
  EXPECT_EQ(p.contract_first, r.contract_first);
  EXPECT_EQ(p.cell_status, r.cell_status);
  EXPECT_EQ(p.cell_error, r.cell_error);
  EXPECT_EQ(p.quick, r.quick);
  EXPECT_EQ(p.host_cpus, r.host_cpus);
  EXPECT_EQ(p.unix_time, r.unix_time);

  // A default record writes none of the optional blocks: no MI, metrics,
  // contract or cell status fields.
  EXPECT_EQ(RecordJson(TrajectoryRecord{}),
            R"({"schema_version": 3, "bench": "", "label": "", "cell": "", "quick": false, )"
            R"("host_cpus": 0, "threads": 1, "shards": 1, "rounds": 0, "samples": 0, )"
            R"("wall_ns": 0, "unix_time": 0})");
}

TEST(Trajectory, MiAbsentMeansNaN) {
  // Built with += : GCC 12's -Wrestrict misanalyses `"[" + Rec("") + "]"`
  // here (bogus "may overlap" at PTRDIFF_MAX offsets) under -Werror.
  std::string doc = "[";
  doc += Rec("");
  doc += "]";
  std::optional<Trajectory> t = ParseTrajectory(doc);
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->records[0].has_mi());
}

TEST(Trajectory, SkipsMalformedRecordsWithWarnings) {
  // Built with += : GCC 12's -Wrestrict misanalyses
  // std::operator+(const char*, std::string&&) here at -O3 (bogus "may
  // overlap" at PTRDIFF_MAX offsets), which breaks the -Werror Release build.
  std::string doc = "[";
  doc += Rec("");
  doc += ", 17, \"record\",";
  doc += R"({"schema_version": 1, "bench": "b", "cell": "c"},)";  // missing label
  doc += R"({"schema_version": 99, "bench": "b", "label": "l", "cell": "c"},)";  // unknown schema
  doc += R"({"bench": "b", "label": "l", "cell": "c"},)";  // no schema_version
  doc += R"({"schema_version": 1, "bench": "b", "label": "l", "cell": "c", "mi_bits": "NaN"})";
  doc += "]";
  std::optional<Trajectory> t = ParseTrajectory(doc);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->records.size(), 1u);  // only the first record survives
  EXPECT_EQ(t->warnings.size(), 6u);
  bool unknown_schema = false;
  for (const std::string& w : t->warnings) {
    unknown_schema = unknown_schema || w.find("unknown schema_version 99") != std::string::npos;
  }
  EXPECT_TRUE(unknown_schema);
}

TEST(Trajectory, NonFiniteObservablesCannotEnterViaJson) {
  // An Inf that slipped into the file would sail through every threshold
  // comparison. The hardened JSON layer now rejects an overflowing numeric
  // literal outright ("number out of range"), so the whole document fails
  // to load — a poisoned record can no longer slip in. (The record parser
  // keeps its own non-finite hard-skip as defense-in-depth behind this.)
  EXPECT_FALSE(ParseTrajectory("[" + Rec(R"("mi_bits": 1e999)") + "]").has_value());
  EXPECT_FALSE(ParseTrajectory("[" + Rec(R"("m0_bits": -1e999)") + "]").has_value());
  EXPECT_FALSE(ParseTrajectory("[" + Rec(R"("wall_ns": 1e999)") + "]").has_value());

  std::optional<Trajectory> t = ParseTrajectory("[" + Rec(R"("mi_bits": 0.5)") + "]");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 1u);
  EXPECT_EQ(t->records[0].mi_bits, 0.5);
}

TEST(Trajectory, ParsesContractFields) {
  std::optional<Trajectory> t = ParseTrajectory(
      "[" +
      Rec(R"("contract_clean": false, "contract_switches": 520,
           "contract_violations": 2, "contract_whitelisted": 7,
           "contract_first": "L1-D slice 0 set 0 way 0")") +
      "," + Rec(R"("contract_clean": true)") + "," + Rec("") + "]");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 3u);
  EXPECT_TRUE(t->records[0].has_contract());
  EXPECT_EQ(t->records[0].contract_clean, 0);
  EXPECT_EQ(t->records[0].contract_switches, 520u);
  EXPECT_EQ(t->records[0].contract_violations, 2u);
  EXPECT_EQ(t->records[0].contract_whitelisted, 7u);
  EXPECT_NE(t->records[0].contract_first.find("L1-D"), std::string::npos);
  EXPECT_EQ(t->records[1].contract_clean, 1);
  // Pre-v3 records simply lack the observable.
  EXPECT_FALSE(t->records[2].has_contract());
  // A non-bool contract_clean is a type error, not a silent coercion.
  t = ParseTrajectory("[" + Rec(R"("contract_clean": "yes")") + "]");
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->records.empty());
  ASSERT_EQ(t->warnings.size(), 1u);
  EXPECT_NE(t->warnings[0].find("unexpected type"), std::string::npos);
}

TEST(Trajectory, WholeFileGarbageIsAnErrorNotACrash) {
  std::string error;
  EXPECT_FALSE(ParseTrajectory("not json at all", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseTrajectory(R"({"an": "object, not an array"})", &error).has_value());
  EXPECT_NE(error.find("array"), std::string::npos);
}

TEST(Trajectory, LoadMissingFileIsAnError) {
  std::string error;
  EXPECT_FALSE(LoadTrajectory("/nonexistent/path.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Trajectory, LabelsInFirstAppearanceOrder) {
  std::optional<Trajectory> t = ParseTrajectory(
      R"([{"schema_version": 1, "bench": "b", "label": "one", "cell": "c"},
          {"schema_version": 1, "bench": "b", "label": "two", "cell": "c"},
          {"schema_version": 1, "bench": "b", "label": "one", "cell": "d"}])");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->Labels(), (std::vector<std::string>{"one", "two"}));
  EXPECT_TRUE(t->HasLabel("two"));
  EXPECT_FALSE(t->HasLabel("three"));
}

// ---- diff gate ----

TrajectoryRecord MakeRecord(const std::string& label, const std::string& cell, double mi,
                            std::uint64_t wall_ns) {
  TrajectoryRecord r;
  r.schema_version = kSchemaVersion;
  r.bench = "bench";
  r.label = label;
  r.cell = cell;
  if (mi >= 0) {
    r.mi_bits = mi;
  }
  r.wall_ns = wall_ns;
  return r;
}

TEST(IsProtectedCellTest, MatchesExactSegmentOnly) {
  EXPECT_TRUE(IsProtectedCell("Haswell (x86)/protected"));
  EXPECT_TRUE(IsProtectedCell("Haswell (x86)/ts=0.25ms/cf=0.5/protected"));
  EXPECT_TRUE(IsProtectedCell("Haswell (x86)/L2/protected"));
  EXPECT_TRUE(IsProtectedCell("protected/extra"));
  EXPECT_FALSE(IsProtectedCell("Sabre (Arm)/protected-nopad"));
  EXPECT_FALSE(IsProtectedCell("Haswell (x86)/raw"));
  EXPECT_FALSE(IsProtectedCell("total"));
  EXPECT_FALSE(IsProtectedCell(""));
}

TEST(Diff, MissingLabelIsAnError) {
  Trajectory t;
  t.records.push_back(MakeRecord("a", "cell/raw", 1.0, 100));
  EXPECT_FALSE(DiffTrajectories(t, "a", "nope").error.empty());
  EXPECT_FALSE(DiffTrajectories(t, "nope", "a").error.empty());
  EXPECT_FALSE(DiffTrajectories(t, "nope", "a").ok());
}

TEST(Diff, IdenticalLabelsPass) {
  Trajectory t;
  for (const char* label : {"base", "cand"}) {
    t.records.push_back(MakeRecord(label, "x/protected", 0.0, 1e8));
    t.records.push_back(MakeRecord(label, "x/L2/protected", 0.8, 1e8));  // known residual leak
    t.records.push_back(MakeRecord(label, "x/raw", 2.0, 1e8));
    t.records.push_back(MakeRecord(label, "total", -1, 5e8));
  }
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok()) << ReportJson(o);
  EXPECT_EQ(o.result.cells.size(), 4u);
  EXPECT_EQ(o.result.leak_regressions, 0u);
  EXPECT_EQ(o.result.wall_regressions, 0u);
}

TEST(Diff, NewLeakInProtectedCellFails) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.01, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);
  ASSERT_EQ(o.result.cells.size(), 1u);
  EXPECT_TRUE(o.result.cells[0].leak_regression);
}

TEST(Diff, GrowingAKnownResidualLeakFails) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/L2/protected", 0.8, 1e8));
  t.records.push_back(MakeRecord("cand", "x/L2/protected", 0.9, 1e8));
  EXPECT_FALSE(DiffTrajectories(t, "base", "cand").ok());
  // ... while an unchanged or shrinking residual passes.
  t.records[1].mi_bits = 0.8;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  t.records[1].mi_bits = 0.5;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, LeakInUnprotectedCellIsReportedNotGated) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/raw", 2.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok());
  ASSERT_EQ(o.result.cells.size(), 1u);
  EXPECT_NEAR(o.result.cells[0].mi_delta, 1.0, 1e-12);
}

TEST(Diff, NewProtectedCellMustEnterClean) {
  // A protected cell with no baseline counterpart is held to MI = 0 (the
  // gate would otherwise never see a leaky new grid cell).
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "y/protected", 0.2, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);
  // Clean new protected cells (and new unprotected cells) are fine.
  t.records[2].mi_bits = 0.0;
  o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok());
  EXPECT_EQ(o.result.missing_in_baseline.size(), 1u);
}

TEST(Diff, LeakMetricRegressionInProtectedCellFails) {
  // Channels whose observable is not an MI estimate (the fig4 LLC spy)
  // leak-gate on the configured metric keys instead.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", -1, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", -1, 1e8));
  t.records[0].metrics["activity_fraction"] = 0.0;
  t.records[1].metrics["activity_fraction"] = 0.05;
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);

  // Equal or shrinking activity passes; unprotected cells are never gated.
  t.records[1].metrics["activity_fraction"] = 0.0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  t.records[0].cell = t.records[1].cell = "x/raw";
  t.records[1].metrics["activity_fraction"] = 0.9;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, NewProtectedCellLeakMetricHeldToZero) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/raw", 1.0, 1e8));
  TrajectoryRecord fresh = MakeRecord("cand", "y/protected", -1, 1e8);
  fresh.metrics["activity_fraction"] = 0.3;
  t.records.push_back(fresh);
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);
  t.records[2].metrics["activity_fraction"] = 0.0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, VanishedMiInProtectedCellFails) {
  // Same disarm rule for the MI observable itself: a protected cell whose
  // baseline records MI must keep recording it.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", -1, 1e8));  // MI gone
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);
  // A cell that never had MI on either side (metric-only channels) is not
  // hit by this rule.
  t.records[0].mi_bits = std::numeric_limits<double>::quiet_NaN();
  t.records[0].metrics["activity_fraction"] = 0.0;
  t.records[1].metrics["activity_fraction"] = 0.0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, VanishedLeakMetricKeyInProtectedCellFails) {
  // Dropping the observable would disarm the gate: a leak-metric key the
  // baseline records but the candidate lacks is a leak regression.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", -1, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", -1, 1e8));
  t.records[0].metrics["activity_fraction"] = 0.0;
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.leak_regressions, 1u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("vanished"), std::string::npos);
}

TEST(Diff, WallRegressionBeyondThresholdFails) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "total", -1, 1'000'000'000));
  t.records.push_back(MakeRecord("cand", "total", -1, 1'300'000'000));
  DiffOptions opt;
  opt.max_wall_ratio = 1.25;
  DiffOutcome o = DiffTrajectories(t, "base", "cand", opt);
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.wall_regressions, 1u);

  // Boundary: exactly at the threshold passes (strictly-beyond fails).
  t.records[1].wall_ns = 1'250'000'000;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand", opt).ok());
  t.records[1].wall_ns = 1'250'000'001;
  EXPECT_FALSE(DiffTrajectories(t, "base", "cand", opt).ok());
}

TEST(Diff, TinyCellsAreNeverWallGated) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", -1, 1'000'000));  // 1 ms
  t.records.push_back(MakeRecord("cand", "x/raw", -1, 40'000'000));  // 40x slower but tiny
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok());
  // Crossing kMinGatedWallNs on either side arms the gate.
  t.records[1].wall_ns = 60'000'000;
  EXPECT_FALSE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, RequireWallFailsWhenCandidateLosesTiming) {
  // Always on: a cell whose baseline records wall_ns must still record it,
  // or it would drop out of every future wall gate.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", -1, 1'000'000'000));
  t.records.push_back(MakeRecord("cand", "x/raw", -1, 0));  // timing vanished
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.missing_wall, 1u);
  // A candidate that records any wall time passes; an untimed baseline
  // cell (wall_ns 0 on both sides) never arms the gate.
  t.records[1].wall_ns = 5'000'000;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  t.records[0].wall_ns = 0;
  t.records[1].wall_ns = 0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, CellsNewToTheBaselineAreReportedNotGated) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "stays/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "stays/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "new/raw", 1.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok()) << ReportJson(o);
  EXPECT_EQ(o.result.cells.size(), 1u);
  EXPECT_TRUE(o.result.missing_in_candidate.empty());
  ASSERT_EQ(o.result.missing_in_baseline.size(), 1u);
  EXPECT_EQ(o.result.missing_in_baseline[0], "bench/new/raw");
}

TEST(Diff, QuickModeMismatchSkipsCellWithNote) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.back().quick = true;
  t.records.push_back(MakeRecord("cand", "x/protected", 0.5, 1e8));  // full-mode run
  t.records.push_back(MakeRecord("base", "y/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "y/raw", 1.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok()) << "incomparable cells must not false-positive";
  EXPECT_EQ(o.result.cells.size(), 1u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("quick/full mismatch"), std::string::npos);
}

TEST(Diff, NothingComparableIsAnErrorNotAPass) {
  // A gate that examined zero cells must refuse, not report success —
  // e.g. a quick baseline diffed against a full-mode run.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.back().quick = true;
  t.records.push_back(MakeRecord("cand", "x/protected", 0.5, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_NE(o.error.find("no comparable cells"), std::string::npos);
}

TEST(Diff, MissingProtectedCellFails) {
  // Dropping or renaming a protected cell would silently remove its
  // leakage gating; the baseline must be refreshed instead.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("base", "y/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "y/raw", 1.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  ASSERT_EQ(o.result.missing_in_candidate.size(), 1u);
  EXPECT_EQ(o.result.missing_in_candidate[0], "bench/x/protected");
  // So does every other baseline cell: a label is one whole run.
  t.records[0].cell = "x/raw";
  o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  ASSERT_EQ(o.result.missing_in_candidate.size(), 1u);
  EXPECT_EQ(o.result.missing_in_candidate[0], "bench/x/raw");
  std::string error;
  std::optional<JsonValue> report = ParseJson(ReportJson(o), &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->Find("missing_cells")->number, 1.0);
}

TEST(Diff, ZeroBaselineWallStillGatesExpensiveCandidate) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", -1, 0));
  t.records.push_back(MakeRecord("cand", "x/raw", -1, 10'000'000'000));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.wall_regressions, 1u);
  EXPECT_TRUE(std::isinf(o.result.cells[0].wall_ratio));
  // ... and the report stays valid JSON despite the infinite ratio.
  std::string error;
  EXPECT_TRUE(ParseJson(ReportJson(o), &error).has_value()) << error;
}

TEST(Diff, MaxMiDeltaGatesEveryCell) {
  // The CI serial-vs-parallel sharding check: identical grids must record
  // bit-identical MI in every cell, protected or not.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", 2.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/raw", 1.9, 1e8));  // MI *decrease*
  DiffOptions opt;
  opt.max_abs_mi_delta = 0.0;
  DiffOutcome o = DiffTrajectories(t, "base", "cand", opt);
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.mi_delta_regressions, 1u);

  t.records[1].mi_bits = 2.0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand", opt).ok());
  // Without the knob, MI drift in unprotected cells is report-only.
  t.records[1].mi_bits = 1.9;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, DuplicateRecordsWithinOneLabelAreAHardError) {
  // "Latest wins" silently masked double-appended runs: whichever record
  // happened to land last decided the gate. A duplicate (bench, cell)
  // within one label now refuses to compare anything.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.5, 1e8));
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));  // double-appended rerun
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_NE(o.error.find("duplicate record"), std::string::npos);
  // A duplicate in the candidate label fails identically.
  Trajectory t2;
  t2.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t2.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  t2.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  EXPECT_NE(DiffTrajectories(t2, "base", "cand").error.find("duplicate record"),
            std::string::npos);
  // The same (bench, cell) under *different* labels is the normal case.
  Trajectory t3;
  t3.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t3.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  EXPECT_TRUE(DiffTrajectories(t3, "base", "cand").ok());
}

TEST(Diff, RequireContractGatesProtectedCells) {
  // Always on: an MI-quiet protected cell that turns contract-dirty fails.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  t.records[0].contract_clean = 1;
  t.records[1].contract_clean = 0;
  t.records[1].contract_first = "L1-I slice 0 set 3 way 1";
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.contract_regressions, 1u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("L1-I slice 0 set 3 way 1"), std::string::npos);
  // A baseline already dirty (the paper's residual x86 private-L2 state)
  // passes as long as the candidate is no worse.
  t.records[0].contract_clean = 0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  // A cell with no baseline contract record is held to clean.
  t.records[0].contract_clean = -1;
  EXPECT_FALSE(DiffTrajectories(t, "base", "cand").ok());
  // A clean candidate always passes; unprotected cells are never gated.
  t.records[0].contract_clean = 1;
  t.records[1].contract_clean = 1;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  t.records[0].cell = t.records[1].cell = "x/raw";
  t.records[1].contract_clean = 0;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, RequireContractFailsWhenObservableVanishes) {
  // Dropping the observable would disarm the gate: baseline carried
  // contract_clean, candidate lost it.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  t.records[0].contract_clean = 1;
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.contract_regressions, 1u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("contract_clean missing"), std::string::npos);
  // Observable absent on both sides: nothing to gate (taint-off runs).
  t.records[0].contract_clean = -1;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

TEST(Diff, ReportJsonCarriesContractFields) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  t.records[0].contract_clean = 1;
  t.records[1].contract_clean = 0;
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  std::string report = ReportJson(o);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(report, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << report;
  EXPECT_EQ(parsed->Find("contract_regressions")->number, 1.0);
  const JsonValue* cells = parsed->Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 1u);
  const JsonValue& cell = cells->array[0];
  ASSERT_NE(cell.Find("base_contract_clean"), nullptr);
  EXPECT_TRUE(cell.Find("base_contract_clean")->boolean);
  ASSERT_NE(cell.Find("cand_contract_clean"), nullptr);
  EXPECT_FALSE(cell.Find("cand_contract_clean")->boolean);
  ASSERT_NE(cell.Find("contract_regression"), nullptr);
  EXPECT_TRUE(cell.Find("contract_regression")->boolean);
}

TEST(Diff, ReportJsonRoundTripsThroughTheParser) {
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 2e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.7, 5e8));
  t.records.push_back(MakeRecord("base", "gone/raw", 1.0, 1e8));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  std::string report = ReportJson(o);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(report, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << report;
  ASSERT_NE(parsed->Find("ok"), nullptr);
  EXPECT_FALSE(parsed->Find("ok")->boolean);
  EXPECT_EQ(parsed->Find("leak_regressions")->number, 1.0);
  EXPECT_EQ(parsed->Find("cells")->array.size(), 1u);
  EXPECT_EQ(parsed->Find("missing_in_candidate")->array.size(), 1u);
}

// ---- crash-isolated cells ----

TEST(Trajectory, ParsesCellStatusFields) {
  std::optional<Trajectory> t = ParseTrajectory(
      "[" + Rec(R"("cell_status": "failed", "cell_error": "boom")") + "," +
      Rec(R"("cell_status": "timeout")") + "," + Rec(R"("wall_ns": 5)") + "]");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->records.size(), 3u);
  EXPECT_FALSE(t->records[0].cell_ok());
  EXPECT_EQ(t->records[0].cell_status, "failed");
  EXPECT_EQ(t->records[0].cell_error, "boom");
  EXPECT_EQ(t->records[1].cell_status, "timeout");
  EXPECT_TRUE(t->records[1].cell_error.empty());
  // Absent field (every pre-crash-isolation record) reads as "ok".
  EXPECT_TRUE(t->records[2].cell_ok());
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ResultsFile, EditWaitsForTheLockThenEditsTheLatestContents) {
  const std::string path = ::testing::TempDir() + "results_file_lock_test.json";
  std::ofstream(path, std::ios::trunc) << "[\n{\"a\": 1}\n]\n";
  // Another writer (a Recorder mid-flush) holds the lock...
  const int lock_fd = ::open((path + ".lock").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(lock_fd, 0);
  ASSERT_EQ(::flock(lock_fd, LOCK_EX), 0);
  std::atomic<bool> done{false};
  std::string seen;
  std::string error;
  bool ok = false;
  std::thread editor([&] {
    ok = EditResultsFile(
        path,
        [&](std::string& text, std::string*) {
          seen = text;
          text += "edited\n";
          return true;
        },
        &error);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "the edit ran while another writer held the lock";
  // ...and replaces the file before releasing it.
  std::ofstream(path, std::ios::trunc) << "[\n{\"b\": 2}\n]\n";
  ::close(lock_fd);
  editor.join();
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(seen, "[\n{\"b\": 2}\n]\n");
  EXPECT_EQ(ReadText(path), "[\n{\"b\": 2}\n]\nedited\n");

  // An edit that fails leaves the file untouched and reports why.
  EXPECT_FALSE(EditResultsFile(
      path,
      [](std::string& text, std::string* why) {
        text.clear();
        *why = "refused";
        return false;
      },
      &error));
  EXPECT_EQ(error, "refused");
  EXPECT_EQ(ReadText(path), "[\n{\"b\": 2}\n]\nedited\n");
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(Diff, RequireCellsGatesOnFailedCandidateCells) {
  // Always on: a crash-isolated candidate cell fails, is exempt from the
  // leak/wall/contract gates (it has no observables) and is surfaced with
  // its error.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", -1, 0));
  t.records[0].contract_clean = 1;
  t.records[1].cell_status = "timeout";
  t.records[1].cell_error = "budget exceeded";
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.failed_cells, 1u);
  EXPECT_EQ(o.result.leak_regressions + o.result.missing_wall + o.result.contract_regressions,
            0u);
  ASSERT_EQ(o.result.cells.size(), 1u);
  EXPECT_TRUE(o.result.cells[0].cell_failure());
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("timeout: budget exceeded"), std::string::npos);
  // The report carries the status for machine consumers.
  std::string report = ReportJson(o);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(report, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << report;
  EXPECT_EQ(parsed->Find("failed_cells")->number, 1.0);
  const JsonValue& cell = parsed->Find("cells")->array[0];
  ASSERT_NE(cell.Find("cell_status"), nullptr);
  EXPECT_EQ(cell.Find("cell_status")->string, "timeout");
  // A crash-isolated cell new to the baseline fails too.
  t.records[1].cell_status = "ok";
  t.records[1].mi_bits = 0.0;
  t.records[1].wall_ns = 100'000'000;
  t.records[1].contract_clean = 1;
  t.records.push_back(MakeRecord("cand", "y/raw", -1, 0));
  t.records.back().cell_status = "failed";
  o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.failed_cells, 1u);
  EXPECT_EQ(o.result.missing_in_baseline.size(), 1u);
}

TEST(Diff, BaselineWithACrashIsolatedCellIsRefused) {
  // A crashed baseline cell carries no floors, so a baseline holding one
  // is unusable input rather than a vacuous pass, and the error names it.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.9, 1e8));
  t.records.push_back(MakeRecord("base", "y/raw", 1.0, 1e8));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 1e8));
  t.records.push_back(MakeRecord("cand", "y/raw", 1.0, 1e8));
  t.records[0].cell_status = "failed";
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_NE(o.error.find("crash-isolated cell 'bench/x/protected'"), std::string::npos)
      << o.error;
  EXPECT_TRUE(o.result.cells.empty());
  // The same label as a candidate is judged, and fails.
  o = DiffTrajectories(t, "cand", "base");
  EXPECT_TRUE(o.error.empty()) << o.error;
  EXPECT_EQ(o.result.failed_cells, 1u);
  EXPECT_FALSE(o.ok());
}

// ---- label coverage: what the old coverage check asked, as diff rules ----

TEST(Coverage, MissingLabelIsAnError) {
  Trajectory t;
  t.records.push_back(MakeRecord("a", "cell/raw", 1.0, 100));
  DiffOutcome o = DiffTrajectories(t, "a", "ghost");
  EXPECT_FALSE(o.ok());
  EXPECT_NE(o.error.find("ghost"), std::string::npos);
}

TEST(Coverage, EveryExpectedBenchMustRecordARealCell) {
  // A channel the baseline holds but the candidate never recorded leaves
  // every one of its cells missing.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "cell/raw", 1.0, 100));
  t.records.push_back(MakeRecord("base", "cell/raw", 1.0, 100));
  t.records.back().bench = "ghost_bench";
  t.records.push_back(MakeRecord("cand", "cell/raw", 1.0, 100));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  ASSERT_EQ(o.result.missing_in_candidate.size(), 1u);
  EXPECT_EQ(o.result.missing_in_candidate[0], "ghost_bench/cell/raw");
  EXPECT_EQ(o.result.cells.size(), 1u);
}

TEST(Coverage, RecorderTotalRowIsNotCoverage) {
  // A channel whose only candidate record is the per-process "total" row
  // ran but measured nothing: its baseline cells are missing.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "cell/raw", 1.0, 100));
  t.records.push_back(MakeRecord("base", "total", -1.0, 100));
  t.records.push_back(MakeRecord("cand", "total", -1.0, 100));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  ASSERT_EQ(o.result.missing_in_candidate.size(), 1u);
  EXPECT_EQ(o.result.missing_in_candidate[0], "bench/cell/raw");
}

TEST(Coverage, ProtectedCellMustRecordContractClean) {
  // A baseline that records contract observables (a taint-on run) holds
  // every healthy protected candidate cell, new ones included, to
  // recording its verdict.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/raw", 1.0, 100));
  t.records.back().contract_clean = 1;
  t.records.push_back(MakeRecord("cand", "x/raw", 1.0, 100));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 100));
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.contract_regressions, 1u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("bench/x/protected"), std::string::npos);

  // The unprotected cell never needs the observable; once the protected
  // cell records a verdict it cannot be held to, coverage is satisfied —
  // a dirty new protected cell then fails the contract rule itself.
  t.records[2].contract_clean = 1;
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
  t.records[2].contract_clean = 0;
  o = DiffTrajectories(t, "base", "cand");
  EXPECT_EQ(o.result.contract_regressions, 1u);
  EXPECT_EQ(o.result.notes.size(), 0u);
}

TEST(Coverage, CrashIsolatedProtectedCellFailsAsACrashNotAContractHole) {
  // A crashed cell has no contract verdict to record; it fails as a
  // crash-isolated cell, not as a cell missing contract_clean.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 100));
  t.records.back().contract_clean = 1;
  t.records.push_back(MakeRecord("cand", "x/protected", -1.0, 100));
  t.records.back().cell_status = "timeout";
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.failed_cells, 1u);
  EXPECT_EQ(o.result.contract_regressions, 0u);
  ASSERT_EQ(o.result.notes.size(), 1u);
  EXPECT_NE(o.result.notes[0].find("timeout"), std::string::npos);
}

TEST(Coverage, ContractRequirementCanBeDisabled) {
  // Only by the baseline: a taint-off baseline label records no contract
  // observables and so requires none.
  Trajectory t;
  t.records.push_back(MakeRecord("base", "x/protected", 0.0, 100));
  t.records.push_back(MakeRecord("cand", "x/protected", 0.0, 100));
  EXPECT_TRUE(DiffTrajectories(t, "base", "cand").ok());
}

// ---- retired early-stopping keys ----

TEST(Trajectory, RetiredStoppingKeysStillLoad) {
  // Older results files carry seven early-stopping keys per record. The
  // loader ignores them like any unknown key: the record loads with every
  // fixed-rounds field intact, and a retired key of the wrong type or out
  // of range no longer matters.
  std::optional<Trajectory> t = ParseTrajectory(
      "[" +
      Rec(R"("rounds": 112, "samples": 30, "mi_bits": 0.5, "m0_bits": 0.125,
           "wall_ns": 4000, "shards": 7, "metrics": {"switch_us": 1.5},
           "contract_clean": true, "contract_switches": 9,
           "rounds_run": 32, "rounds_budget": 112, "stopped_early": true,
           "mi_ci_low": 0.25, "mi_ci_high": 0.75, "significance": 0.05,
           "ci_method": "bootstrap")") +
      "," + Rec(R"("stopped_early": "yes", "mi_ci_low": -1, "significance": "x")") + "]");
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->warnings.empty());
  ASSERT_EQ(t->records.size(), 2u);
  const TrajectoryRecord& r = t->records[0];
  EXPECT_EQ(r.rounds, 112u);
  EXPECT_EQ(r.samples, 30u);
  EXPECT_EQ(r.mi_bits, 0.5);
  EXPECT_EQ(r.m0_bits, 0.125);
  EXPECT_EQ(r.wall_ns, 4000u);
  EXPECT_EQ(r.shards, 7u);
  EXPECT_EQ(r.metrics.at("switch_us"), 1.5);
  EXPECT_EQ(r.contract_clean, 1);
  EXPECT_EQ(r.contract_switches, 9u);
  EXPECT_TRUE(r.cell_ok());

  // Such a record diffs against a fixed-rounds record of the same cell.
  TrajectoryRecord old_run = r;
  old_run.label = "old";
  old_run.cell = "x/protected";
  TrajectoryRecord new_run = old_run;
  new_run.label = "new";
  DiffOutcome o = DiffTrajectories(Trajectory{{old_run, new_run}, {}}, "old", "new");
  EXPECT_TRUE(o.ok()) << ReportJson(o);
}

TEST(Diff, WallGateNormalizesPerRoundWhenRoundCountsDiffer) {
  // Candidate ran 32 rounds where the baseline ran 112, in 0.4x the wall
  // time. The raw ratio (0.4) hides that per-round cost rose 1.4x — past
  // the 1.25 default gate.
  Trajectory t;
  TrajectoryRecord base = MakeRecord("base", "x/raw", 1.0, 1'000'000'000);
  base.rounds = 112;
  t.records.push_back(base);
  TrajectoryRecord cand = MakeRecord("cand", "x/raw", 1.0, 400'000'000);
  cand.rounds = 32;
  t.records.push_back(cand);
  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.result.wall_regressions, 1u);
  ASSERT_EQ(o.result.cells.size(), 1u);
  EXPECT_TRUE(o.result.cells[0].wall_normalized);

  // Per-round cost unchanged (32/112 of the wall): passes.
  t.records[1].wall_ns = 285'714'285;
  o = DiffTrajectories(t, "base", "cand");
  EXPECT_TRUE(o.ok()) << ReportJson(o);
}

TEST(Diff, ReportJsonCarriesSummaryBlock) {
  Trajectory t;
  TrajectoryRecord base_mi = MakeRecord("base", "x/raw", 1.0, 2e8);
  base_mi.m0_bits = 0.1;
  base_mi.rounds = 112;
  t.records.push_back(base_mi);
  t.records.push_back(MakeRecord("base", "cost/total-cost", -1, 1e8));
  t.records.back().rounds = 100000;  // cost cell: huge rounds, no MI
  // Candidate wall proportional to its 32/112 rounds, so the per-round
  // wall gate reads ~1.0.
  TrajectoryRecord cand_mi = MakeRecord("cand", "x/raw", 1.1, 57'142'857);
  cand_mi.m0_bits = 0.1;
  cand_mi.rounds = 32;
  t.records.push_back(cand_mi);
  t.records.push_back(MakeRecord("cand", "cost/total-cost", -1, 1e8));
  t.records.back().rounds = 100000;

  DiffOutcome o = DiffTrajectories(t, "base", "cand");
  ASSERT_TRUE(o.error.empty());
  EXPECT_EQ(o.result.summary.base_wall_ns, 300'000'000u);
  EXPECT_EQ(o.result.summary.cand_wall_ns, 157'142'857u);
  EXPECT_EQ(o.result.summary.base_rounds, 100112u);
  EXPECT_EQ(o.result.summary.cand_rounds, 100032u);
  EXPECT_EQ(o.result.summary.cells_gated, 0u);

  std::string report = ReportJson(o);
  std::string error;
  std::optional<JsonValue> parsed = ParseJson(report, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << report;
  const JsonValue* summary = parsed->Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("cells_compared")->number, 2.0);
  EXPECT_EQ(summary->Find("base_total_rounds")->number, 100112.0);
  EXPECT_EQ(summary->Find("cand_total_rounds")->number, 100032.0);
  EXPECT_EQ(summary->Find("cells_gated")->number, 0.0);
  // Per-cell rounds and the per-round wall normalisation ride along for
  // machine consumers.
  bool found = false;
  for (const JsonValue& cell : parsed->Find("cells")->array) {
    if (cell.Find("cell")->string != "x/raw") {
      continue;
    }
    found = true;
    EXPECT_EQ(cell.Find("cand_rounds")->number, 32.0);
    EXPECT_EQ(cell.Find("base_rounds")->number, 112.0);
    ASSERT_NE(cell.Find("wall_normalized"), nullptr);
    EXPECT_TRUE(cell.Find("wall_normalized")->boolean);
  }
  EXPECT_TRUE(found) << report;
  // And the options block records the gate knobs (null: MI drift off).
  const JsonValue* opts = parsed->Find("options");
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(opts->Find("max_wall_ratio")->number, 1.25);
  ASSERT_NE(opts->Find("max_abs_mi_delta"), nullptr);
  EXPECT_TRUE(opts->Find("max_abs_mi_delta")->is(JsonValue::Type::kNull));
}

}  // namespace
}  // namespace tp::trajectory
