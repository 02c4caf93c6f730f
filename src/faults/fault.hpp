// Deterministic fault injection for the time-protection mechanisms.
//
// Mutation-testing support: every defense the kernel relies on (flushes,
// colouring, padding, prefetcher reset, translation-memo invalidation) has
// a named injection site that can be broken on demand, so the detection
// stack — the taint-tracking ContractChecker and the MI leak gate — can be
// proven *live*, not just assumed (see "Can We Prove Time Protection?").
//
// The machinery follows the TP_TAINT construct-time pattern: a process
// -global FaultPlan is installed before an experiment builds its machines,
// and every structure latches its own FaultSite at construction. With no
// plan installed a FaultSite is disarmed and every query is a single
// predictable branch on a constructor-initialised bool — simulated
// behaviour is bit-identical to a build without this subsystem.
//
// Determinism: a site fires on the Nth eligible event, where N is derived
// by splitmix64 from (plan seed ^ ambient cell seed ^ site-name hash). The
// sweep engine publishes each grid cell's coordinate-keyed seed as the
// thread-local ambient seed (ScopedCellSeed), so a given (site, cell) pair
// always breaks at the same event, at any host thread count.
#ifndef TP_FAULTS_FAULT_HPP_
#define TP_FAULTS_FAULT_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tp::faults {

// How a site interprets its optional parameter.
enum class FaultParam {
  kNone,        // no parameter
  kRepeat,      // integer: number of consecutive eligible events to break
  kFraction,    // double in [0,1]: scale factor (e.g. remaining pad window)
  kCellFilter,  // substring of the grid-cell name the site is limited to
};

struct FaultSiteInfo {
  const char* name;
  const char* layer;       // "kernel", "hw", "core" or "harness"
  FaultParam param;
  const char* param_doc;   // one-line parameter semantics ("-" if none)
  const char* detector;    // detector expected to catch the mutant
  const char* description;
  // One-shot firing window: the site fires on eligible event number
  // first + seed % span (1-based). Sites that fire on every eligible
  // event (FireAlways) use {1, 1}.
  std::uint64_t first_event;
  std::uint64_t event_span;
};

// All registered sites, in a stable order (the tp_mutate matrix order).
const std::vector<FaultSiteInfo>& FaultSites();
const FaultSiteInfo* FindFaultSite(std::string_view name);
bool IsKnownFaultSite(std::string_view name);

// An installed plan breaks exactly one site, process-wide.
struct FaultPlan {
  std::string site;
  std::string param;       // "" = site default
  std::uint64_t seed = 0;  // mixed with the ambient cell seed
};

// Parses "site" or "site:param". Throws std::invalid_argument on an
// unknown site name.
FaultPlan ParseFaultSpec(std::string_view spec);

// Installs/clears the process-global plan. Structures constructed while a
// plan is active latch it; structures already built are unaffected.
// InstallFaultPlan throws std::invalid_argument on an unknown site.
void InstallFaultPlan(FaultPlan plan);
void ClearFaultPlan();

// True iff a plan is active (the TP_INJECT environment variable installs
// one on first query, so env-driven runs need no code change).
bool FaultInjectionEnabled();

// Thread-local ambient cell seed, published by the sweep engine around
// each shard so construct-time latches are coordinate-keyed.
class ScopedCellSeed {
 public:
  explicit ScopedCellSeed(std::uint64_t seed);
  ~ScopedCellSeed();
  ScopedCellSeed(const ScopedCellSeed&) = delete;
  ScopedCellSeed& operator=(const ScopedCellSeed&) = delete;

 private:
  std::uint64_t prev_;
};
std::uint64_t CurrentCellSeed();

// Construct-time latch for one named site. Default-constructed or latched
// while the plan names a different site => disarmed forever.
class FaultSite {
 public:
  FaultSite() = default;

  // Latches the active plan (and the ambient cell seed) for `site`.
  static FaultSite For(const char* site);

  bool armed() const { return armed_; }

  // Persistent sites: true on every eligible event while armed.
  bool FireAlways() const { return armed_; }

  // One-shot sites: counts eligible events and returns true for the
  // seeded ordinal (and, with a kRepeat parameter, the following
  // param-1 events); false forever after.
  bool FireOnce() {
    if (!armed_ || fires_left_ == 0) {
      return false;
    }
    if (countdown_ > 0) {
      --countdown_;
      return false;
    }
    --fires_left_;
    return true;
  }

  // Parameter accessors (site-specific semantics, see FaultSiteInfo).
  double ParamOr(double fallback) const;
  const std::string& param() const { return param_; }

  // True when `cell_name` passes the site's kCellFilter parameter
  // (empty parameter matches every cell).
  bool MatchesCell(const std::string& cell_name) const;

 private:
  bool armed_ = false;
  std::uint64_t countdown_ = 0;    // eligible events before the first fire
  std::uint64_t fires_left_ = 0;   // remaining fires once countdown hits 0
  std::string param_;
};

}  // namespace tp::faults

#endif  // TP_FAULTS_FAULT_HPP_
