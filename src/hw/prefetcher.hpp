// Hardware stream-prefetcher state machine.
//
// This is the piece of hidden microarchitectural state the paper could *not*
// scrub on Haswell (§5.3.2): stream-detector slots are trained by demand
// misses and persist across every architected flush. After a domain switch,
// streams trained by the previous domain keep issuing prefetches, contending
// for memory bandwidth with the new domain's misses — a residual timing
// channel (Table 3: 50.5 mb with the prefetcher on, 6.4 mb with the data
// prefetcher disabled via MSR 0x1A4, the remainder being the instruction
// prefetcher, which cannot be disabled at all).
//
// The model: a table of stream slots {next line, direction, confidence,
// credits, owner}. Demand misses train streams; confident streams issue
// prefetch fills. On each miss, stale streams (owner != current domain tag)
// with remaining credits issue one prefetch each and add bandwidth
// interference cycles to the miss. Data slots can be disabled/reset (the MSR
// write); instruction slots cannot.
#ifndef TP_HW_PREFETCHER_HPP_
#define TP_HW_PREFETCHER_HPP_

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace tp::hw {

struct PrefetcherGeometry {
  std::size_t data_slots = 16;
  std::size_t instruction_slots = 2;
  int confidence_threshold = 2;
  int prefetch_degree = 2;        // lines fetched ahead once confident
  int credits_on_train = 4;       // prefetches a stream may issue unprompted
  Cycles interference_cycles = 6;  // added to a miss per stale-stream issue
  std::size_t max_stale_issues_per_miss = 2;
  // Streams track within one page and die at its boundary: physical
  // contiguity is not guaranteed past a page, so hardware streamers never
  // cross one — and a prefetch that did would punch through the colouring
  // partition into a neighbouring domain's frame.
  std::size_t lines_per_page = kPageSize / 64;

  // "" when buildable, else the reason (the constructor throws
  // std::invalid_argument on the same bounds; see CacheGeometry::Validate).
  std::string Validate() const;
};

// Per-miss prefetch fill list. A miss issues at most
// max_stale_issues_per_miss + prefetch_degree fills, so the storage is a
// small inline array — OnDemandMiss sits on the demand-miss hot path and
// must not allocate.
class PrefetchFillList {
 public:
  static constexpr std::size_t kCapacity = 8;

  // `owner` is the *taint* owner of the fill: the stream's taint owner for
  // stale-stream issues (the previous domain keeps prefetching, §5.3.2),
  // the training access's taint owner for degree fills. Streams trained by
  // taint-neutral accesses (the deterministic kernel tick sequence) carry
  // taint owner 0 even though their behaviour owner is the domain tag. Only
  // consulted by taint tracking; fills behave identically either way.
  void push_back(std::uint64_t line, std::uint16_t owner = 0) {
    assert(count_ < kCapacity);
    owners_[count_] = owner;
    lines_[count_++] = line;
  }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint64_t front() const { return lines_[0]; }
  std::uint64_t operator[](std::size_t i) const { return lines_[i]; }
  std::uint16_t owner(std::size_t i) const { return owners_[i]; }
  const std::uint64_t* begin() const { return lines_.data(); }
  const std::uint64_t* end() const { return lines_.data() + count_; }

 private:
  std::array<std::uint64_t, kCapacity> lines_{};
  std::array<std::uint16_t, kCapacity> owners_{};
  std::size_t count_ = 0;
};

struct PrefetchOutcome {
  // Lines (physical line addresses, i.e. paddr / line_size) to insert into
  // the cache below L1 as prefetch fills.
  PrefetchFillList fills;
  Cycles interference = 0;  // extra latency from stale-stream bandwidth use
};

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const PrefetcherGeometry& geometry);

  // Called on every demand miss at physical line address `line`
  // (paddr / line_size). `owner` tags the training domain (the kernel passes
  // the current kernel-image id or ASID) and drives the stale-stream
  // behaviour; `taint_owner` is stamped on the fills this training produces.
  // They differ only during the taint-neutral kernel tick sequence: the
  // schedule-driven accesses train real streams (simulated behaviour must
  // not change with taint mode), but the state those streams leave behind
  // is deterministic and carries no domain secret, so it is stamped 0.
  PrefetchOutcome OnDemandMiss(std::uint64_t line, std::uint16_t owner, bool instruction,
                               std::uint16_t taint_owner);
  PrefetchOutcome OnDemandMiss(std::uint64_t line, std::uint16_t owner, bool instruction) {
    return OnDemandMiss(line, owner, instruction, owner);
  }

  // MSR-style control: disabling the *data* prefetcher also clears its
  // slots. The instruction slots are untouched (not architected).
  void SetDataPrefetcherEnabled(bool enabled);
  bool data_prefetcher_enabled() const { return data_enabled_; }

  std::size_t ActiveDataStreams() const;
  std::size_t ActiveInstructionStreams() const;
  // Streams whose owner differs from `owner` and that still hold credits.
  // The data/instruction split matters to the contract checker: under a
  // full-flush configuration the data prefetcher is supposed to be off, so
  // a stale *data* stream is a violation there, not §5.3.2 residue.
  std::size_t StaleStreams(std::uint16_t owner) const;
  std::size_t StaleDataStreams(std::uint16_t owner) const;
  std::size_t StaleInstructionStreams(std::uint16_t owner) const;

  const PrefetcherGeometry& geometry() const { return geometry_; }

  // Folds every stream slot plus the round-robin victim cursors and the
  // MSR enable bit into a batch-replay state digest (field by field — the
  // slot struct has padding the digest must not read).
  void DigestState(std::uint64_t& h) const;

 private:
  struct Stream {
    std::uint64_t next_line = 0;
    std::int64_t direction = 1;
    int confidence = 0;
    int credits = 0;
    std::uint16_t owner = 0;        // behaviour: stale-stream detection
    std::uint16_t taint_owner = 0;  // taint stamp on the fills it issues
    bool valid = false;
  };

  std::uint64_t PageOf(std::uint64_t line) const;

  PrefetchOutcome HandleMiss(std::vector<Stream>& slots, std::uint64_t line,
                             std::uint16_t owner, std::uint16_t taint_owner, bool enabled);

  PrefetcherGeometry geometry_;
  std::vector<Stream> data_slots_;
  std::vector<Stream> instruction_slots_;
  std::size_t data_victim_rr_ = 0;
  std::size_t instr_victim_rr_ = 0;
  bool data_enabled_ = true;
};

}  // namespace tp::hw

#endif  // TP_HW_PREFETCHER_HPP_
