// One differential-fuzzing case: which oracle to run it under, the seed
// that derives everything not spelled out explicitly, and the explicit
// dimensions the shrinker is allowed to mutate (bounded parameter knobs, an
// op/schedule stream, raw payload bytes). A case round-trips through a
// one-line "tpf1:..." token, which is what tp_fuzz prints on failure
// (--replay) and what the committed regression corpus under
// tests/fuzz/corpus/ stores.
#ifndef TP_FUZZ_FUZZ_CASE_HPP_
#define TP_FUZZ_FUZZ_CASE_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tp::fuzz {

// The oracle families (see oracles.hpp for what each one checks).
enum class Target {
  kSoa,         // SoA cache/TLB vs the retained reference models
  kReplay,      // batch-replay vs TP_NO_REPLAY vs per-op dispatch identity
  kTaint,       // contract cleanliness + taint-map counting consistency
  kThreads,     // SweepEngine 1-vs-N thread bit-identity
  kTrajectory,  // strict JSON parser robustness
};

struct FuzzCase {
  Target target = Target::kSoa;
  std::uint64_t seed = 0;                 // derives batches, addresses, machines
  std::vector<std::uint64_t> params;      // bounded knobs; layout per target
  std::vector<std::uint64_t> ops;         // op stream / schedule, target-encoded
  std::string payload;                    // raw input bytes (trajectory target)

  bool operator==(const FuzzCase&) const = default;
};

const char* TargetName(Target target);
bool TargetFromName(std::string_view name, Target* out);
std::vector<Target> AllTargets();

// One-line replay token: "tpf1:<target>:<seed>:<params>:<ops>:<payload>"
// with hex scalars, '.'-separated lists and hex-byte payload.
std::string FormatCase(const FuzzCase& c);
bool ParseCase(std::string_view token, FuzzCase* out, std::string* error);

}  // namespace tp::fuzz

#endif  // TP_FUZZ_FUZZ_CASE_HPP_
