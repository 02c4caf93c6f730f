// Optional owner-domain taint metadata for microarchitectural state.
//
// When taint tracking is enabled (TP_TAINT environment variable, or
// SetTaintTrackingEnabled before constructing the machine), every stateful
// structure — cache lines, TLB entries, branch-predictor entries, prefetcher
// streams, the per-core translation memo, pending interrupts — carries the
// DomainId that last (re)filled it. The kernel-side ContractChecker then
// verifies at each domain switch that no *observable* state tainted by
// another domain survived the active flush/partition mode (the
// time-protection contract of the paper, checked structurally rather than
// statistically via MI).
//
// The switch is construct-time: structures latch the flag when built, so
// the batched hot paths pay exactly one predictable branch per access when
// tracking is off and nothing changes bit-for-bit in the simulated
// behaviour either way (taint is pure metadata).
//
// Owner tag 0 is "taint-neutral": state whose contents are
// schedule-determined rather than secret-dependent (the kernel switch
// sequence itself, the §4.1 deterministically-prefetched shared region, the
// x86 flush buffers) is tagged 0 and never counts as a violation.
#ifndef TP_HW_TAINT_HPP_
#define TP_HW_TAINT_HPP_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tp::hw {

// Matches kernel DomainId (std::uint16_t); 0 = taint-neutral.
using TaintTag = std::uint16_t;

// Process-global construct-time switch. Reads TP_TAINT ("" / "0" = off)
// unless overridden; structures latch the value at construction, so flip it
// before building a Machine.
bool TaintTrackingEnabled();
void SetTaintTrackingEnabled(bool enabled);

// One residual-state finding: after a switch to `incoming`, `structure`
// still held state owned by `residual_owner` at `where`.
struct TaintViolation {
  std::string structure;  // "L1-D", "LLC", "D-TLB", "BTB", ...
  std::string where;      // "slice 1 set 5 way 2", "slot 3", ...
  TaintTag residual_owner = 0;
  TaintTag incoming = 0;
  std::uint64_t switch_index = 0;  // ordinal of the offending switch
};

std::string ToString(const TaintViolation& v);

// Aggregated contract-check outcome over a run: how many domain switches
// were checked, how many left foreign-tainted observable state behind, and
// the first violating access (the bug report).
struct ContractTally {
  std::uint64_t switches = 0;
  std::uint64_t dirty_switches = 0;
  std::uint64_t violations = 0;   // foreign entries summed over dirty switches
  std::uint64_t whitelisted = 0;  // known-unfixable residue (prefetcher, §5.3.2)
  bool has_first = false;
  TaintViolation first;

  bool clean() const { return dirty_switches == 0; }
  void Merge(const ContractTally& other);
};

// The tally the kernel's checker writes into; thread-local so sharded
// sweeps on a thread pool do not interleave. Use ContractCapture to scope
// a measurement.
ContractTally& ThreadContractTally();

// RAII capture: zeroes the thread tally on entry, Take() reads what
// accumulated, and the destructor folds it back into whatever tally was
// live before (so nested/ambient accounting is never lost).
class ContractCapture {
 public:
  ContractCapture();
  ~ContractCapture();
  ContractCapture(const ContractCapture&) = delete;
  ContractCapture& operator=(const ContractCapture&) = delete;

  ContractTally Take() const { return ThreadContractTally(); }

 private:
  ContractTally saved_;
};

// Owner tags for one indexed structure (cache lines, TLB/BTB/PHT entries).
// Maintains per-owner, per-colour counts incrementally so the per-switch
// contract check is O(owners x colours) without scanning entries; the full
// scan (FindForeign) runs only to localise an already-detected violation.
class TaintMap {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  // Activates the map (default state is off and free). `colours` is the
  // page-colour count of the structure (1 = uncolourable, everything
  // observable); must be <= 64 so a colour set fits a mask word.
  void Enable(std::size_t entries, std::size_t colours);
  bool on() const { return !meta_.empty(); }

  // Owner and colour pack into one metadata word so the retag fast path —
  // by far the common case: a domain re-touching its own state — is a
  // single load and compare, inline. Only a real ownership/colour change
  // drops to the counting slow path.
  void Tag(std::size_t index, TaintTag owner, std::size_t colour) {
    const std::uint32_t meta =
        static_cast<std::uint32_t>(owner) | (static_cast<std::uint32_t>(colour) << 16);
    const std::uint32_t old = meta_[index];
    if (old == meta || (owner == 0 && (old & 0xFFFF) == 0)) {
      return;
    }
    TagSlow(index, meta, old);
  }
  void Clear(std::size_t index) { Tag(index, 0, 0); }
  void ClearAll();

  TaintTag OwnerOf(std::size_t index) const {
    return static_cast<TaintTag>(meta_[index] & 0xFFFF);
  }
  std::size_t ColourOf(std::size_t index) const {
    return static_cast<std::size_t>(meta_[index] >> 16);
  }
  // Entry count (0 when the map is off) and the colour count the map was
  // enabled with — the bounds a brute-force consistency walk iterates over.
  std::size_t size() const { return meta_.size(); }
  std::size_t colours() const { return colours_; }

  // Folds the per-entry metadata into a batch-replay state digest (the
  // per-owner counts are derived from it and need no separate fold).
  void DigestState(std::uint64_t& h) const;

  // Entries owned by a domain other than 0/`incoming` whose colour is in
  // `colour_mask` (bit c = colour c observable by the incoming domain).
  std::uint64_t ForeignCount(TaintTag incoming, std::uint64_t colour_mask) const;
  // Index of the first such entry, or npos.
  std::size_t FindForeign(TaintTag incoming, std::uint64_t colour_mask) const;

 private:
  struct OwnerCount {
    TaintTag owner = 0;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> per_colour;
  };
  OwnerCount& Slot(TaintTag owner);
  void TagSlow(std::size_t index, std::uint32_t meta, std::uint32_t old);

  std::vector<std::uint32_t> meta_;  // owner | colour << 16; owner 0 = neutral
  std::size_t colours_ = 1;
  std::vector<OwnerCount> counts_;  // small linear owner list
};

}  // namespace tp::hw

#endif  // TP_HW_TAINT_HPP_
