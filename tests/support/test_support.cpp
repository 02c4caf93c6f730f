#include "support/test_support.hpp"

#include <cstdlib>

#include "runner/sweep.hpp"

namespace tp::test {

std::uint64_t StableSeed(const std::string& label) {
  // FNV-1a: stable across platforms and standard-library versions (unlike
  // std::hash), so recorded test behaviour is reproducible everywhere.
  return runner::Fnv1a64(label);
}

QuickModeGuard::QuickModeGuard() {
  const char* prev = std::getenv("TP_QUICK");
  had_prev_ = prev != nullptr;
  if (had_prev_) {
    prev_ = prev;
  }
  setenv("TP_QUICK", "1", 1);
}

QuickModeGuard::~QuickModeGuard() {
  if (had_prev_) {
    setenv("TP_QUICK", prev_.c_str(), 1);
  } else {
    unsetenv("TP_QUICK");
  }
}

std::uint64_t DeterministicTest::seed() const {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info == nullptr) {
    return StableSeed("tp-default");
  }
  return StableSeed(std::string(info->test_suite_name()) + "." + info->name());
}

hw::CacheGeometry TinyCacheGeometry() {
  return hw::CacheGeometry{.size_bytes = 4096, .line_size = 64, .associativity = 2};
}

kernel::KernelConfig TestKernelConfig(bool clone_support, hw::Cycles timeslice_cycles) {
  kernel::KernelConfig c;
  c.clone_support = clone_support;
  c.timeslice_cycles = timeslice_cycles;
  return c;
}

namespace {
hw::MachineConfig WithCores(hw::MachineConfig config, std::size_t cores) {
  config.num_cores = cores;
  return config;
}
}  // namespace

BootedSystem::BootedSystem(std::size_t cores, bool clone_support, hw::MachineConfig config)
    : machine(WithCores(std::move(config), cores)),
      kernel(machine, TestKernelConfig(clone_support)) {}

namespace {
kernel::KernelConfig ScenarioConfig(core::Scenario scenario, const hw::Machine& machine,
                                    const ScenarioSystem::Options& options) {
  kernel::KernelConfig kc = core::MakeKernelConfig(scenario, machine, options.timeslice_ms);
  kc.pad_switches = kc.pad_switches && options.pad_switches;
  return kc;
}
}  // namespace

ScenarioSystem::ScenarioSystem(core::Scenario scenario, Options options)
    : machine(options.config),
      kernel(machine, ScenarioConfig(scenario, machine, options)),
      manager(kernel),
      colours(options.colour_parts > 0
                  ? core::SplitColours(options.config, options.colour_parts)
                  : std::vector<std::set<std::size_t>>()) {}

mi::Observations GaussianChannel(int num_symbols, double separation, double sd,
                                 int n_per_symbol, std::uint64_t seed) {
  mi::Observations obs;
  std::mt19937_64 rng(seed);
  std::vector<std::normal_distribution<double>> dists;
  dists.reserve(static_cast<std::size_t>(num_symbols));
  for (int s = 0; s < num_symbols; ++s) {
    dists.emplace_back(s * separation, sd);
  }
  for (int i = 0; i < n_per_symbol; ++i) {
    for (int s = 0; s < num_symbols; ++s) {
      obs.Add(s, dists[static_cast<std::size_t>(s)](rng));
    }
  }
  return obs;
}

mi::Observations IndependentChannel(int num_symbols, double sd, int n, std::uint64_t seed) {
  mi::Observations obs;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> in(0, num_symbols - 1);
  std::normal_distribution<double> out(0.0, sd);
  for (int i = 0; i < n; ++i) {
    obs.Add(in(rng), out(rng));
  }
  return obs;
}

std::vector<double> GaussianSamples(int n, double mean, double sd, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(mean, sd);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    samples.push_back(dist(rng));
  }
  return samples;
}

mi::LeakageResult Analyse(const mi::Observations& obs, std::size_t shuffles) {
  mi::LeakageOptions opt;
  opt.shuffles = shuffles;
  return mi::TestLeakage(obs, opt);
}

}  // namespace tp::test
