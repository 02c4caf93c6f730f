// tp_fuzz — differential fuzzer for the time-protection simulator.
//
// Randomized mode (default): generate seed-deterministic cases round-robin
// across the oracle targets, run each under its invariant oracle, shrink
// and print a replay token for any violation.
//
//   tp_fuzz --cases 500 --seed 1
//   tp_fuzz --target soa,replay --cases 200
//   tp_fuzz --replay 'tpf1:soa:1a2b:...'     # re-run one failing case
//   tp_fuzz --replay @failing.case           # token (or corpus file) on disk
//   tp_fuzz --corpus tests/fuzz/corpus       # replay a whole corpus
//   tp_fuzz --emit-corpus 3 --corpus-append DIR  # seed a corpus with
//                                            # passing cases per target
//
// Exit codes: 0 all invariants held, 1 violation found, 2 usage error (a
// malformed --cases, --seed, --budget-s or --emit-corpus value included).
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/oracles.hpp"
#include "runner/runner.hpp"

namespace {

using tp::fuzz::AllTargets;
using tp::fuzz::FormatCase;
using tp::fuzz::FuzzCase;
using tp::fuzz::FuzzOptions;
using tp::fuzz::FuzzSummary;
using tp::fuzz::GenerateCase;
using tp::fuzz::OracleResult;
using tp::fuzz::ParseCase;
using tp::fuzz::RunCase;
using tp::fuzz::Target;
using tp::fuzz::TargetFromName;
using tp::fuzz::TargetName;
using tp::runner::ParsePositiveInt;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --cases N          randomized cases to run (default 500)\n"
               "  --seed S           root seed (default 1)\n"
               "  --target T[,T...]  restrict to targets (repeatable); one of\n"
               "                     soa replay taint threads trajectory\n"
               "  --replay TOKEN     re-run one case from a tpf1 token (or @file)\n"
               "  --corpus DIR       replay every *.case under DIR\n"
               "  --corpus-append DIR  append shrunk failures to DIR\n"
               "  --emit-corpus N    generate N passing cases per target into\n"
               "                     the --corpus-append dir, then exit\n"
               "  --budget-s SECS    wall-clock budget for randomized mode\n"
               "  --no-shrink        report failures unshrunk\n"
               "  --list-targets     print target names and exit\n"
               "  --quiet            suppress progress output\n",
               argv0);
  return 2;
}

// A numeric option's value is missing or malformed: bad usage, never a
// silent default that would let a CI run pass on zero cases.
int BadValue(const char* argv0, const std::string& option, const char* value,
             const char* expected) {
  if (value != nullptr) {
    std::fprintf(stderr, "%s: %s '%s' must be %s\n", argv0, option.c_str(), value, expected);
  }
  return Usage(argv0);
}

// A case count: a positive integer that fits size_t. A missing value
// (nullptr) is nullopt, as the parsers below treat it.
std::optional<std::size_t> ParseCount(const char* text) {
  if (text == nullptr) {
    return std::nullopt;
  }
  return ParsePositiveInt(text, std::numeric_limits<std::size_t>::max());
}

// A root seed: a whole-string unsigned 64-bit integer, decimal or 0x hex
// as strtoull reads it with base 0. "zz", "7x", "-1", " 7" and an overflow
// are nullopt, never seed 0 or a wrapped value.
std::optional<std::uint64_t> ParseSeed(const char* text) {
  if (text == nullptr || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(text, &end, 0);
  if (*end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return seed;
}

// A wall-clock budget: a complete, finite number of seconds above 0.
std::optional<double> ParseBudgetSeconds(const char* text) {
  if (text == nullptr) {
    return std::nullopt;
  }
  double secs = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, secs);
  if (ptr == text || ec != std::errc{} || ptr != end || !std::isfinite(secs) || secs <= 0.0) {
    return std::nullopt;
  }
  return secs;
}

bool ParseTargets(const std::string& arg, std::vector<Target>* out) {
  std::stringstream ss(arg);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (name.empty()) {
      continue;
    }
    Target t;
    if (!TargetFromName(name, &t)) {
      std::fprintf(stderr, "unknown target '%s'\n", name.c_str());
      return false;
    }
    out->push_back(t);
  }
  return true;
}

// --replay accepts the token inline or "@path" to a file holding it
// (comments and blank lines ignored, first token wins — so a corpus .case
// file works directly).
bool LoadReplayToken(const std::string& arg, std::string* token) {
  if (arg.empty() || arg[0] != '@') {
    *token = arg;
    return true;
  }
  std::ifstream in(arg.substr(1));
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", arg.c_str() + 1);
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    *token = line;
    return true;
  }
  std::fprintf(stderr, "%s holds no replay token\n", arg.c_str() + 1);
  return false;
}

int ReplayOne(const std::string& token, bool quiet) {
  FuzzCase c;
  std::string error;
  if (!ParseCase(token, &c, &error)) {
    std::fprintf(stderr, "bad replay token: %s\n", error.c_str());
    return 2;
  }
  const OracleResult result = RunCase(c);
  if (!result.ok) {
    std::fprintf(stderr, "VIOLATION (%s): %s\n", TargetName(c.target), result.message.c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("%s case %s: %s\n", TargetName(c.target),
                result.skipped ? "skipped" : "passed", token.c_str());
  }
  return 0;
}

int ReplayCorpus(const std::string& dir, bool quiet) {
  std::vector<std::pair<std::string, FuzzCase>> corpus;
  std::string error;
  if (!tp::fuzz::LoadCorpus(dir, &corpus, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& [file, c] : corpus) {
    const OracleResult result = RunCase(c);
    if (!result.ok) {
      std::fprintf(stderr, "%s: VIOLATION (%s): %s\n", file.c_str(), TargetName(c.target),
                   result.message.c_str());
      ++failures;
    } else if (!quiet) {
      std::printf("%s: %s\n", file.c_str(), result.skipped ? "skipped" : "ok");
    }
  }
  if (!quiet) {
    std::printf("corpus: %zu cases, %d violations\n", corpus.size(), failures);
  }
  return failures == 0 ? 0 : 1;
}

// Seeds a corpus with passing cases: these document the oracle contract in
// tree and keep the replay path exercised even while no real bug is known.
int EmitCorpus(std::size_t per_target, std::uint64_t seed, const std::string& dir, bool quiet) {
  if (dir.empty()) {
    std::fprintf(stderr, "--emit-corpus requires --corpus-append DIR\n");
    return 2;
  }
  for (Target target : AllTargets()) {
    std::size_t emitted = 0;
    for (std::uint64_t i = 0; emitted < per_target && i < per_target + 64; ++i) {
      const std::uint64_t case_seed = tp::runner::SplitMix64(
          seed ^ tp::runner::SplitMix64((static_cast<std::uint64_t>(target) << 32) | (i + 1)));
      const FuzzCase c = GenerateCase(target, case_seed);
      const OracleResult result = RunCase(c);
      if (!result.ok) {
        std::fprintf(stderr, "VIOLATION while emitting corpus (%s): %s\n  replay: %s\n",
                     TargetName(target), result.message.c_str(), FormatCase(c).c_str());
        return 1;
      }
      if (result.skipped) {
        continue;  // keep the committed corpus free of no-op cases
      }
      const std::string path =
          tp::fuzz::AppendCorpusCase(dir, c, std::string("seed corpus: ") + TargetName(target));
      if (path.empty()) {
        std::fprintf(stderr, "cannot write corpus case under %s\n", dir.c_str());
        return 2;
      }
      if (!quiet) {
        std::printf("emitted %s\n", path.c_str());
      }
      ++emitted;
    }
    if (emitted < per_target) {
      std::fprintf(stderr, "could not find %zu non-skipped %s cases\n", per_target,
                   TargetName(target));
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  options.out = stdout;
  std::string replay_arg;
  std::string corpus_dir;
  std::size_t emit_corpus = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--cases") {
      const char* v = next();
      const std::optional<std::size_t> n = ParseCount(v);
      if (!n) {
        return BadValue(argv[0], arg, v, "a positive integer");
      }
      options.cases = *n;
    } else if (arg == "--seed") {
      const char* v = next();
      const std::optional<std::uint64_t> seed = ParseSeed(v);
      if (!seed) {
        return BadValue(argv[0], arg, v, "an unsigned 64-bit integer (decimal or 0x hex)");
      }
      options.seed = *seed;
    } else if (arg == "--target") {
      const char* v = next();
      if (v == nullptr || !ParseTargets(v, &options.targets)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      replay_arg = v;
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      corpus_dir = v;
    } else if (arg == "--corpus-append") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      options.corpus_append_dir = v;
    } else if (arg == "--emit-corpus") {
      const char* v = next();
      const std::optional<std::size_t> n = ParseCount(v);
      if (!n) {
        return BadValue(argv[0], arg, v, "a positive integer");
      }
      emit_corpus = *n;
    } else if (arg == "--budget-s") {
      const char* v = next();
      const std::optional<double> secs = ParseBudgetSeconds(v);
      if (!secs) {
        return BadValue(argv[0], arg, v, "a finite number of seconds above 0");
      }
      options.budget_s = *secs;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--list-targets") {
      for (Target t : AllTargets()) {
        std::printf("%s\n", TargetName(t));
      }
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
      options.out = nullptr;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (!replay_arg.empty()) {
    std::string token;
    if (!LoadReplayToken(replay_arg, &token)) {
      return 2;
    }
    return ReplayOne(token, quiet);
  }
  if (emit_corpus > 0) {
    return EmitCorpus(emit_corpus, options.seed, options.corpus_append_dir, quiet);
  }
  if (!corpus_dir.empty()) {
    return ReplayCorpus(corpus_dir, quiet);
  }

  const FuzzSummary summary = RunFuzz(options);
  if (!quiet) {
    std::printf("ran %zu cases (%zu skipped), %zu violations\n", summary.cases_run,
                summary.skipped, summary.failures.size());
  }
  return summary.ok() ? 0 : 1;
}
