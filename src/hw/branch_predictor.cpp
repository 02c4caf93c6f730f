#include "hw/branch_predictor.hpp"

#include <cassert>
#include <stdexcept>

namespace tp::hw {

std::string BranchPredictorGeometry::Validate() const {
  if (btb_associativity == 0) {
    return "btb_associativity must be nonzero";
  }
  if (btb_entries == 0 || btb_entries % btb_associativity != 0) {
    return "btb_entries must be a nonzero multiple of btb_associativity";
  }
  if (pht_entries == 0) {
    return "pht_entries must be nonzero";
  }
  // The history mask is built by shifting 1 << history_bits (PhtIndex).
  if (history_bits >= 64) {
    return "history_bits must be < 64";
  }
  return "";
}

BranchPredictor::BranchPredictor(const BranchPredictorGeometry& geometry) : geometry_(geometry) {
  if (std::string err = geometry_.Validate(); !err.empty()) {
    throw std::invalid_argument("BranchPredictor: " + err);
  }
  btb_.resize(geometry_.btb_entries);
  pht_.assign(geometry_.pht_entries, 1);  // weakly not-taken
  if (TaintTrackingEnabled()) {
    btb_taint_.Enable(geometry_.btb_entries, 1);
    pht_taint_.Enable(geometry_.pht_entries, 1);
  }
}

std::size_t BranchPredictor::BtbSetBase(VAddr pc) const {
  std::size_t sets = geometry_.btb_entries / geometry_.btb_associativity;
  // Branch instructions are rarely line-aligned; index on the instruction
  // address directly (low bits carry information, as in real BTBs).
  return ((pc >> 2) % sets) * geometry_.btb_associativity;
}

std::size_t BranchPredictor::PhtIndex(VAddr pc) const {
  std::uint64_t history_mask = (std::uint64_t{1} << geometry_.history_bits) - 1;
  return static_cast<std::size_t>(((pc >> 2) ^ (ghr_ & history_mask)) % geometry_.pht_entries);
}

BranchResult BranchPredictor::Branch(VAddr pc, VAddr target, bool taken, bool conditional) {
  BranchResult result;

  if (!enabled_) {
    result.mispredicted = true;
    result.penalty = geometry_.mispredict_penalty;
    return result;
  }

  // Direction prediction via the PHT (conditional branches only).
  bool predicted_taken = true;
  if (conditional) {
    std::size_t idx = PhtIndex(pc);
    predicted_taken = pht_[idx] >= 2;
    // Update the 2-bit counter.
    if (taken && pht_[idx] < 3) {
      ++pht_[idx];
    } else if (!taken && pht_[idx] > 0) {
      --pht_[idx];
    }
    std::uint64_t history_mask = (std::uint64_t{1} << geometry_.history_bits) - 1;
    ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & history_mask;
    if (pht_taint_.on()) {
      pht_taint_.Tag(idx, taint_owner_, 0);
      ghr_owner_ = taint_owner_;
    }
  }

  // Target prediction via the BTB (only needed for taken branches).
  bool target_hit = false;
  std::size_t base = BtbSetBase(pc);
  std::uint64_t tag = pc >> 2;
  std::size_t victim = base;
  std::uint64_t victim_lru = ~std::uint64_t{0};
  for (std::size_t way = 0; way < geometry_.btb_associativity; ++way) {
    BtbEntry& e = btb_[base + way];
    if (e.valid && e.tag == tag) {
      target_hit = e.target == target;
      e.lru = ++lru_clock_;
      if (taken) {
        e.target = target;
      }
      if (btb_taint_.on()) {
        btb_taint_.Tag(base + way, taint_owner_, 0);
      }
      victim = static_cast<std::size_t>(-1);
      break;
    }
    if (!e.valid) {
      victim = base + way;
      victim_lru = 0;
    } else if (e.lru < victim_lru) {
      victim = base + way;
      victim_lru = e.lru;
    }
  }
  if (taken && victim != static_cast<std::size_t>(-1)) {
    BtbEntry& e = btb_[victim];
    e.tag = tag;
    e.target = target;
    e.valid = true;
    e.lru = ++lru_clock_;
    if (btb_taint_.on()) {
      btb_taint_.Tag(victim, taint_owner_, 0);
    }
  }

  bool direction_wrong = conditional && (predicted_taken != taken);
  bool target_wrong = taken && !target_hit;
  if (direction_wrong || target_wrong) {
    result.mispredicted = true;
    result.penalty = geometry_.mispredict_penalty;
  }
  return result;
}

void BranchPredictor::FlushBtb() {
  for (BtbEntry& e : btb_) {
    e.valid = false;
  }
  if (btb_taint_.on()) {
    btb_taint_.ClearAll();
  }
}

void BranchPredictor::FlushHistory() {
  ghr_ = 0;
  pht_.assign(pht_.size(), 1);
  if (pht_taint_.on()) {
    pht_taint_.ClearAll();
    ghr_owner_ = 0;
  }
}

std::size_t BranchPredictor::BtbValidCount() const {
  std::size_t n = 0;
  for (const BtbEntry& e : btb_) {
    if (e.valid) {
      ++n;
    }
  }
  return n;
}

}  // namespace tp::hw
