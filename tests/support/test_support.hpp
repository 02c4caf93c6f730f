// Shared test scaffolding: deterministic seeding and canonical machine /
// kernel setups, shared by suites across layers.
#ifndef TP_TESTS_SUPPORT_TEST_SUPPORT_HPP_
#define TP_TESTS_SUPPORT_TEST_SUPPORT_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/time_protection.hpp"
#include "hw/machine.hpp"
#include "kernel/kernel.hpp"
#include "mi/leakage_test.hpp"
#include "mi/observations.hpp"

namespace tp::test {

// Stable 64-bit seed derived from a label (typically the test name), so a
// test keeps its RNG stream when unrelated tests are added or reordered.
std::uint64_t StableSeed(const std::string& label);

// Fixture giving every test a deterministic, per-test-name RNG.
class DeterministicTest : public ::testing::Test {
 protected:
  std::mt19937_64& rng() { return rng_; }
  std::uint64_t seed() const;

 private:
  std::mt19937_64 rng_{seed()};
};

// Pins TP_QUICK=1 for a test body and restores the prior value, so grid
// scale never leaks into other tests in the binary (or their shuffle
// order).
class QuickModeGuard {
 public:
  QuickModeGuard();
  ~QuickModeGuard();
  QuickModeGuard(const QuickModeGuard&) = delete;
  QuickModeGuard& operator=(const QuickModeGuard&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

// Canonical small cache shape for unit tests that do not need Table 1
// fidelity: 4 KiB, 64 B lines, 2-way.
hw::CacheGeometry TinyCacheGeometry();

// Default kernel config used by kernel/core/integration tests.
kernel::KernelConfig TestKernelConfig(bool clone_support = false,
                                      hw::Cycles timeslice_cycles = 200'000);

// A booted machine + kernel pair, the common preamble of kernel-level tests.
struct BootedSystem {
  explicit BootedSystem(std::size_t cores = 1, bool clone_support = false,
                        hw::MachineConfig config = hw::MachineConfig::Haswell());
  hw::Machine machine;
  kernel::Kernel kernel;
};

// A machine + kernel + domain manager booted under a scenario preset with
// the platform's colours pre-split — the common preamble of the
// integration suites.
struct ScenarioSystem {
  struct Options {
    double timeslice_ms = 0.2;
    bool pad_switches = true;      // preset value; audits of the access set disable it
    std::size_t colour_parts = 2;  // SplitColours split held in `colours`
    hw::MachineConfig config = hw::MachineConfig::Haswell(1);
  };

  explicit ScenarioSystem(core::Scenario scenario) : ScenarioSystem(scenario, Options()) {}
  ScenarioSystem(core::Scenario scenario, Options options);

  hw::Machine machine;
  kernel::Kernel kernel;
  core::DomainManager manager;
  std::vector<std::set<std::size_t>> colours;
};

// A thread that just burns compute and counts its steps.
class BusyProgram final : public kernel::UserProgram {
 public:
  void Step(kernel::UserApi& api) override {
    api.Compute(150);
    ++steps_;
  }
  std::uint64_t steps() const { return steps_; }

 private:
  std::uint64_t steps_ = 0;
};

// --- paired-observation builders for the MI suites ---

// `n_per_symbol` draws per symbol, symbol s centred at s * separation.
mi::Observations GaussianChannel(int num_symbols, double separation, double sd,
                                 int n_per_symbol, std::uint64_t seed);

// `n` draws with uniformly random inputs and input-independent outputs —
// a channel that carries nothing.
mi::Observations IndependentChannel(int num_symbols, double sd, int n, std::uint64_t seed);

// `n` N(mean, sd) draws, for the KDE suites.
std::vector<double> GaussianSamples(int n, double mean, double sd, std::uint64_t seed);

// The suites' canonical quick leakage test (fewer shuffles than the
// benches for runtime).
mi::LeakageResult Analyse(const mi::Observations& obs, std::size_t shuffles = 40);

}  // namespace tp::test

#endif  // TP_TESTS_SUPPORT_TEST_SUPPORT_HPP_
