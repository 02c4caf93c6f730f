#include "faults/fault.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace tp::faults {
namespace {

// Same mixers the sweep engine uses for coordinate-keyed cell seeds.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

const std::vector<FaultSiteInfo>& SiteTable() {
  // kRepeat sites break from the Nth eligible event *onward* by default
  // (param = finite drop count instead): a regression that un-fixes a flush
  // stays broken, and a single dropped flush too often lands on a switch
  // with no victim residue to expose — the seeded start ordinal already
  // exercises "the defense worked for a while, then stopped". Drops start
  // at event 3 so both domains have run before the first skipped flush.
  static const std::vector<FaultSiteInfo> sites = {
      {"flush.l1d", "kernel", FaultParam::kRepeat,
       "flushes to drop (default: all from the Nth)", "contract",
       "drop the L1-D flush from the Nth domain switch onward", 3, 8},
      {"flush.l1i", "kernel", FaultParam::kRepeat,
       "flushes to drop (default: all from the Nth)", "contract",
       "drop the L1-I flush/invalidate from the Nth domain switch onward", 3, 8},
      {"flush.tlb", "kernel", FaultParam::kRepeat,
       "flushes to drop (default: all from the Nth)", "contract",
       "drop the TLB flush from the Nth domain switch onward", 3, 8},
      {"flush.bp", "kernel", FaultParam::kRepeat,
       "flushes to drop (default: all from the Nth)", "contract",
       "drop the branch-predictor flush from the Nth domain switch onward", 3, 8},
      {"flush.llc", "kernel", FaultParam::kRepeat,
       "flushes to drop (default: all from the Nth)", "contract",
       "skip the LLC portion of full cache flushes from the Nth onward", 3, 8},
      {"prefetch.reset", "kernel", FaultParam::kNone, "-", "contract",
       "leave the data prefetcher enabled when the full-flush config "
       "requires it off",
       1, 1},
      {"colour.frame", "core", FaultParam::kRepeat,
       "frames to mis-place (default: all from the Nth)", "contract",
       "serve colour-constrained frame requests from another domain's "
       "colour, from the Nth eligible request onward",
       1, 4},
      {"colour.mask", "core", FaultParam::kNone, "-", "contract",
       "leak one colour of partition 0 into partition 1's colour mask", 1, 1},
      {"pad.truncate", "kernel", FaultParam::kFraction,
       "fraction of the pad window kept (default 0)", "mi",
       "truncate the paper's Step-10 worst-case padding window", 1, 1},
      {"memo.stale", "hw", FaultParam::kNone, "-", "contract",
       "keep the per-core translation memo across context switches and "
       "reuse a stale entry",
       4, 16},
      {"harness.cell_throw", "harness", FaultParam::kCellFilter,
       "cell-name substring (default: every cell)", "cell_status",
       "throw from the shard body of matching sweep cells", 1, 1},
      {"harness.cell_stall", "harness", FaultParam::kCellFilter,
       "cell-name substring (default: every cell)", "cell_status",
       "stall matching sweep cells past the per-cell wall-time budget", 1, 1},
  };
  return sites;
}

std::mutex g_plan_mu;
std::shared_ptr<const FaultPlan> g_plan;
bool g_env_checked = false;

thread_local std::uint64_t t_cell_seed = 0;

// Must be called with g_plan_mu held.
void InitFromEnvLocked() {
  if (g_env_checked) {
    return;
  }
  g_env_checked = true;
  const char* spec = std::getenv("TP_INJECT");
  if (spec != nullptr && spec[0] != '\0') {
    FaultPlan plan = ParseFaultSpec(spec);
    g_plan = std::make_shared<const FaultPlan>(std::move(plan));
  }
}

std::shared_ptr<const FaultPlan> ActivePlan() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  InitFromEnvLocked();
  return g_plan;
}

}  // namespace

const std::vector<FaultSiteInfo>& FaultSites() { return SiteTable(); }

const FaultSiteInfo* FindFaultSite(std::string_view name) {
  for (const FaultSiteInfo& site : SiteTable()) {
    if (name == site.name) {
      return &site;
    }
  }
  return nullptr;
}

bool IsKnownFaultSite(std::string_view name) { return FindFaultSite(name) != nullptr; }

FaultPlan ParseFaultSpec(std::string_view spec) {
  FaultPlan plan;
  std::size_t colon = spec.find(':');
  plan.site = std::string(spec.substr(0, colon));
  if (colon != std::string_view::npos) {
    plan.param = std::string(spec.substr(colon + 1));
  }
  if (!IsKnownFaultSite(plan.site)) {
    throw std::invalid_argument("unknown fault site: '" + plan.site + "'");
  }
  return plan;
}

void InstallFaultPlan(FaultPlan plan) {
  if (!IsKnownFaultSite(plan.site)) {
    throw std::invalid_argument("unknown fault site: '" + plan.site + "'");
  }
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_env_checked = true;  // an explicit install overrides TP_INJECT
  g_plan = std::make_shared<const FaultPlan>(std::move(plan));
}

void ClearFaultPlan() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  g_env_checked = true;
  g_plan.reset();
}

bool FaultInjectionEnabled() { return ActivePlan() != nullptr; }

ScopedCellSeed::ScopedCellSeed(std::uint64_t seed) : prev_(t_cell_seed) {
  t_cell_seed = seed;
}

ScopedCellSeed::~ScopedCellSeed() { t_cell_seed = prev_; }

std::uint64_t CurrentCellSeed() { return t_cell_seed; }

FaultSite FaultSite::For(const char* site) {
  FaultSite s;
  std::shared_ptr<const FaultPlan> plan = ActivePlan();
  if (!plan || plan->site != site) {
    return s;
  }
  const FaultSiteInfo* info = FindFaultSite(site);
  s.armed_ = true;
  s.param_ = plan->param;
  std::uint64_t mix =
      SplitMix64(plan->seed ^ SplitMix64(t_cell_seed ^ Fnv1a64(site)));
  s.countdown_ = info->first_event - 1 + mix % info->event_span;
  s.fires_left_ = 1;
  if (info->param == FaultParam::kRepeat) {
    // Default: broken from the seeded ordinal onward; a parameter limits
    // the breakage to that many consecutive eligible events.
    if (s.param_.empty()) {
      s.fires_left_ = ~std::uint64_t{0};
    } else {
      double repeat = s.ParamOr(1.0);
      s.fires_left_ = repeat >= 1.0 ? static_cast<std::uint64_t>(repeat) : 1;
    }
  }
  return s;
}

double FaultSite::ParamOr(double fallback) const {
  if (param_.empty()) {
    return fallback;
  }
  try {
    return std::stod(param_);
  } catch (const std::exception&) {
    return fallback;
  }
}

bool FaultSite::MatchesCell(const std::string& cell_name) const {
  if (!armed_) {
    return false;
  }
  return param_.empty() || cell_name.find(param_) != std::string::npos;
}

}  // namespace tp::faults
