// The sharded parallel experiment runner: plan determinism, ordered
// fan-out, and the headline property — same root seed => bit-identical
// merged observations and MI at any thread count.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "attacks/intra_core.hpp"
#include "mi/leakage_test.hpp"
#include "support/test_support.hpp"

namespace tp::runner {
namespace {

TEST(ShardPlan, SplitsRoundsExactly) {
  ShardPlan plan = PlanShards(100, 42);
  EXPECT_EQ(plan.total_rounds(), 100u);
  EXPECT_EQ(plan.num_shards(), 6u);  // 100/16 = 6 shards
  // Remainder spread over the leading shards: 17,17,17,17,16,16.
  EXPECT_EQ(plan.shard_rounds[0], 17u);
  EXPECT_EQ(plan.shard_rounds[3], 17u);
  EXPECT_EQ(plan.shard_rounds[4], 16u);
}

TEST(ShardPlan, RespectsMinAndMaxPolicy) {
  EXPECT_EQ(PlanShards(8, 1).num_shards(), 1u);     // below the minimum
  EXPECT_EQ(PlanShards(0, 1).num_shards(), 1u);     // degenerate
  EXPECT_EQ(PlanShards(10'000, 1).num_shards(), 8u);  // capped
  EXPECT_EQ(PlanShards(10'000, 1, 16, 32).num_shards(), 32u);
}

TEST(ShardPlan, SeedsAreStableAndDistinct) {
  ShardPlan a = PlanShards(256, 0xDEAD);
  ShardPlan b = PlanShards(256, 0xDEAD);
  ShardPlan c = PlanShards(256, 0xBEEF);
  for (std::size_t i = 0; i < a.num_shards(); ++i) {
    EXPECT_EQ(a.SeedFor(i), b.SeedFor(i));
    EXPECT_NE(a.SeedFor(i), c.SeedFor(i));
    for (std::size_t j = i + 1; j < a.num_shards(); ++j) {
      EXPECT_NE(a.SeedFor(i), a.SeedFor(j));
    }
  }
}

TEST(ExperimentRunnerMap, PreservesTaskOrder) {
  ExperimentRunner pool(4);
  std::vector<int> out = pool.Map(100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ExperimentRunnerMap, RunsEveryTaskExactlyOnce) {
  ExperimentRunner pool(8);
  std::atomic<int> calls{0};
  pool.Map(37, [&](std::size_t) {
    calls.fetch_add(1);
    return 0;
  });
  EXPECT_EQ(calls.load(), 37);
}

TEST(ExperimentRunnerMap, PropagatesTaskExceptions) {
  ExperimentRunner pool(4);
  EXPECT_THROW(pool.Map(16,
                        [](std::size_t i) {
                          if (i == 7) {
                            throw std::runtime_error("boom");
                          }
                          return i;
                        }),
               std::runtime_error);
}

TEST(MergeObservationsTest, ConcatenatesInShardOrder) {
  std::vector<mi::Observations> parts(3);
  parts[0].Add(0, 1.0);
  parts[1].Add(1, 2.0);
  parts[1].Add(2, 3.0);
  parts[2].Add(3, 4.0);
  mi::Observations merged = MergeObservations(parts);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.inputs()[0], 0);
  EXPECT_EQ(merged.inputs()[1], 1);
  EXPECT_EQ(merged.inputs()[3], 3);
  EXPECT_DOUBLE_EQ(merged.outputs()[2], 3.0);
}

// The headline guarantee: a real sharded channel experiment produces
// bit-identical per-shard streams, merged observations, and MI with 1, 2,
// and 8 host threads.
TEST(RunnerDeterminism, ChannelExperimentIdenticalAcrossThreadCounts) {
  hw::MachineConfig mc = hw::MachineConfig::Sabre(1);
  ShardPlan plan = PlanShards(64, test::StableSeed("runner-determinism"));
  ASSERT_GT(plan.num_shards(), 1u);

  // Each shard runs from its own plan-derived seed; the merge is in shard
  // order whatever order the pool finishes them in.
  auto run = [&](std::size_t threads) {
    std::vector<mi::Observations> parts =
        ExperimentRunner(threads).Map(plan.num_shards(), [&](std::size_t i) {
          return attacks::RunIntraCoreChannel(mc, core::Scenario::kRaw,
                                              attacks::IntraCoreResource::kL1D,
                                              plan.shard_rounds[i], plan.SeedFor(i));
        });
    return MergeObservations(parts);
  };

  mi::Observations base = run(1);
  ASSERT_GT(base.size(), 0u);
  mi::LeakageOptions lopt;
  lopt.shuffles = 20;
  mi::LeakageResult base_mi = mi::TestLeakage(base, lopt);

  for (std::size_t threads : {2u, 8u}) {
    mi::Observations obs = run(threads);
    // Bit-identical streams, not just statistically close.
    ASSERT_EQ(obs.size(), base.size()) << threads << " threads";
    EXPECT_EQ(obs.inputs(), base.inputs()) << threads << " threads";
    EXPECT_EQ(obs.outputs(), base.outputs()) << threads << " threads";
    mi::LeakageResult r = mi::TestLeakage(obs, lopt);
    EXPECT_EQ(r.mi_bits, base_mi.mi_bits);
    EXPECT_EQ(r.m0_bits, base_mi.m0_bits);
  }
}

// Distinct shard seeds must give distinct streams (no accidental seed
// collapse into one repeated sub-experiment).
TEST(RunnerDeterminism, ShardsProduceDistinctStreams) {
  hw::MachineConfig mc = hw::MachineConfig::Sabre(1);
  ShardPlan plan = PlanShards(32, test::StableSeed("runner-distinct"));
  ASSERT_EQ(plan.num_shards(), 2u);
  ExperimentRunner pool(1);
  std::vector<mi::Observations> parts = pool.Map(plan.num_shards(), [&](std::size_t i) {
    return attacks::RunIntraCoreChannel(mc, core::Scenario::kRaw,
                                        attacks::IntraCoreResource::kL1D,
                                        plan.shard_rounds[i], plan.SeedFor(i));
  });
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_NE(parts[0].inputs(), parts[1].inputs());
}

}  // namespace
}  // namespace tp::runner
