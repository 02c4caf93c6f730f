// Trace-replay equivalence: Core::AccessBatch — including its fixpoint
// batch-replay memo, which elides re-simulation of a batch whose pre-state
// provably recurs — must be observationally identical to the per-op
// dispatching path. "Identical" is bit-level: same total cycles, same
// counters, and the same Machine::StateDigest (which folds every cache,
// TLB, prefetcher, taint and LRU word in the machine), across virtually-
// and physically-indexed hierarchies and with taint tracking on. The
// full-grid --max-mi-delta 0 CI diff proves the same property end-to-end
// on mi_bits; these tests localise a violation to the core layer. Since
// identity also holds for a memo that never replays, the LiveRounds tests
// check through Machine::state_gen() that both fixpoint proofs fire.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "hw/core.hpp"
#include "hw/machine.hpp"
#include "hw/taint.hpp"

namespace tp::hw {
namespace {

// A probe-shaped op stream: a strided sweep (prime), a re-walk (probe, all
// hits at steady state — the batch the replay memo elides), and a few
// conflicting lines to force evictions and writebacks.
std::vector<VAddr> ProbeStream() {
  std::vector<VAddr> vas;
  for (VAddr va = 0; va < 16 * 1024; va += 64) {
    vas.push_back(va);
  }
  for (VAddr va = 0x100000; va < 0x100000 + 4 * 1024; va += 64) {
    vas.push_back(va);
  }
  return vas;
}

struct RunResult {
  Cycles cycles = 0;
  std::uint64_t digest = 0;
  PerfCounters counters;
};

// Runs `rounds` repetitions of the stream via AccessBatch (recorded once,
// replayed when the memo proves a fixpoint) or per-op Access dispatch.
RunResult RunStream(const MachineConfig& config, AccessKind kind, int rounds, bool batched) {
  Machine machine(config);
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  Core& core = machine.core(0);
  const std::vector<VAddr> stream = ProbeStream();
  RunResult r;
  for (int round = 0; round < rounds; ++round) {
    if (batched) {
      r.cycles += core.AccessBatch(stream, kind);
    } else {
      for (VAddr va : stream) {
        r.cycles += core.Access(va, kind);
      }
    }
  }
  r.digest = machine.StateDigest();
  r.counters = core.counters();
  return r;
}

void ExpectEquivalent(const MachineConfig& config, AccessKind kind, int rounds) {
  const RunResult batch = RunStream(config, kind, rounds, true);
  const RunResult per_op = RunStream(config, kind, rounds, false);
  EXPECT_EQ(batch.cycles, per_op.cycles);
  EXPECT_EQ(batch.digest, per_op.digest)
      << "batched and dispatching paths left different machine state";
  EXPECT_EQ(batch.counters.l1d_misses, per_op.counters.l1d_misses);
  EXPECT_EQ(batch.counters.l1i_misses, per_op.counters.l1i_misses);
  EXPECT_EQ(batch.counters.llc_misses, per_op.counters.llc_misses);
  EXPECT_EQ(batch.counters.tlb_misses, per_op.counters.tlb_misses);
  EXPECT_EQ(batch.counters.page_walks, per_op.counters.page_walks);
}

// One live round records the batch; later rounds re-run it from its own
// post-state, so the memo replays them (all-hit fixpoint) — the equality
// below therefore covers record, verify and replay, not just the live run.
TEST(BatchReplay, ReplayedRoundsMatchDispatchOnVirtualIndexing) {
  ExpectEquivalent(MachineConfig::Sabre(1), AccessKind::kRead, 6);
}

TEST(BatchReplay, ReplayedRoundsMatchDispatchOnPhysicalIndexing) {
  // Haswell: virtually-indexed L1s over a physically-indexed L2/LLC, so
  // one stream exercises both indexing modes in one hierarchy.
  ExpectEquivalent(MachineConfig::Haswell(1), AccessKind::kRead, 6);
}

TEST(BatchReplay, WriteAndFetchStreamsMatchDispatch) {
  ExpectEquivalent(MachineConfig::Haswell(1), AccessKind::kWrite, 4);
  ExpectEquivalent(MachineConfig::Haswell(1), AccessKind::kFetch, 4);
}

TEST(BatchReplay, EquivalenceHoldsWithTaintTrackingOn) {
  const bool saved = TaintTrackingEnabled();
  SetTaintTrackingEnabled(true);
  ExpectEquivalent(MachineConfig::Haswell(1), AccessKind::kWrite, 6);
  ExpectEquivalent(MachineConfig::Sabre(1), AccessKind::kRead, 6);
  SetTaintTrackingEnabled(saved);
}

TEST(BatchReplay, MixedOpBatchMatchesDispatch) {
  std::vector<MemOp> ops;
  for (VAddr va = 0; va < 8 * 1024; va += 64) {
    ops.push_back({va, AccessKind::kRead});
    ops.push_back({va + 0x40000, AccessKind::kWrite});
  }
  Machine a(MachineConfig::Haswell(1));
  Machine b(MachineConfig::Haswell(1));
  FlatTranslationContext ctx(1);
  InstallFlatContext(a.core(0), ctx);
  InstallFlatContext(b.core(0), ctx);
  Cycles batched = 0;
  Cycles dispatched = 0;
  for (int round = 0; round < 4; ++round) {
    batched += a.core(0).AccessBatch(ops);
    for (const MemOp& op : ops) {
      dispatched += b.core(0).Access(op.va, op.kind);
    }
  }
  EXPECT_EQ(batched, dispatched);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

// TP_NO_REPLAY pins every batch to the live path (the A/B switch for
// localising a suspected replay divergence); results must not change.
TEST(BatchReplay, NoReplayFlagIsObservationallyIdentical) {
  const RunResult with_replay = RunStream(MachineConfig::Haswell(1), AccessKind::kRead, 6, true);
  setenv("TP_NO_REPLAY", "1", 1);
  const RunResult without = RunStream(MachineConfig::Haswell(1), AccessKind::kRead, 6, true);
  unsetenv("TP_NO_REPLAY");
  EXPECT_EQ(with_replay.cycles, without.cycles);
  EXPECT_EQ(with_replay.digest, without.digest);
  EXPECT_EQ(with_replay.counters.llc_misses, without.counters.llc_misses);
}

// A flush between rounds moves the state generation, so a stale memo must
// never replay against the flushed (different) state.
TEST(BatchReplay, FlushBetweenRoundsInvalidatesTheMemo) {
  Machine a(MachineConfig::Haswell(1));
  Machine b(MachineConfig::Haswell(1));
  FlatTranslationContext ctx(1);
  InstallFlatContext(a.core(0), ctx);
  InstallFlatContext(b.core(0), ctx);
  const std::vector<VAddr> stream = ProbeStream();
  Cycles batched = 0;
  Cycles dispatched = 0;
  for (int round = 0; round < 4; ++round) {
    batched += a.core(0).AccessBatch(stream, AccessKind::kRead);
    a.core(0).FlushTlbAll();
    dispatched += [&] {
      Cycles c = 0;
      for (VAddr va : stream) {
        c += b.core(0).Access(va, AccessKind::kRead);
      }
      return c;
    }();
    b.core(0).FlushTlbAll();
  }
  EXPECT_EQ(batched, dispatched);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

// Which of `rounds` batched probe-stream reads on core 0 ran live. A live
// run bumps Machine::state_gen(); a replay mutates nothing and does not.
std::vector<bool> LiveRounds(const MachineConfig& config, int rounds) {
  Machine machine(config);
  FlatTranslationContext ctx(1);
  InstallFlatContext(machine.core(0), ctx);
  const std::vector<VAddr> stream = ProbeStream();
  std::vector<bool> live;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t gen = machine.state_gen();
    machine.core(0).AccessBatch(stream, AccessKind::kRead);
    live.push_back(machine.state_gen() != gen);
  }
  return live;
}

// Haswell: the 20 KiB stream fits the L1-D and the 4-way D-TLB, so round 1
// misses nowhere and the all-hit proof lets every later round replay.
TEST(BatchReplay, AllHitRoundsReplay) {
  EXPECT_EQ(LiveRounds(MachineConfig::Haswell(1), 6),
            (std::vector<bool>{true, true, false, false, false, false}));
}

// Sabre: the D-TLB is direct-mapped with 32 entries, so VPN 0 and VPN 256
// share an entry and every round misses twice. Rounds 1 and 2 start from
// their predecessor's post-state and end in the same StateDigest, which
// proves the fixpoint; rounds 3-5 replay.
TEST(BatchReplay, MissingRoundsReplayOnceTheDigestConverges) {
  EXPECT_EQ(LiveRounds(MachineConfig::Sabre(1), 6),
            (std::vector<bool>{true, true, true, false, false, false}));
}

// Any live run on any core bumps the machine generation, so a verified memo
// on core 0 must not replay after core 1 ran a batch in between — and with
// the generation only growing, no older memo could ever match again either.
TEST(BatchReplay, LiveBatchOnAnotherCoreForcesALiveRound) {
  Machine a(MachineConfig::Haswell(2));
  Machine b(MachineConfig::Haswell(2));
  FlatTranslationContext ctx0(1);
  FlatTranslationContext ctx1(2);
  for (Machine* m : {&a, &b}) {
    InstallFlatContext(m->core(0), ctx0);
    InstallFlatContext(m->core(1), ctx1);
  }
  const std::vector<VAddr> stream = ProbeStream();
  std::vector<bool> live;
  auto round = [&](std::size_t core) {
    const std::uint64_t gen = a.state_gen();
    a.core(core).AccessBatch(stream, AccessKind::kRead);
    live.push_back(a.state_gen() != gen);
    for (VAddr va : stream) {
      b.core(core).Access(va, AccessKind::kRead);
    }
  };
  round(0);
  round(0);
  round(0);  // replayed: all-hit fixpoint
  round(1);
  round(0);  // must run live: core 1 moved the generation
  round(0);  // replayed again
  EXPECT_EQ(live, (std::vector<bool>{true, true, false, true, true, false}));
  EXPECT_EQ(a.core(0).now(), b.core(0).now());
  EXPECT_EQ(a.core(1).now(), b.core(1).now());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

}  // namespace
}  // namespace tp::hw
