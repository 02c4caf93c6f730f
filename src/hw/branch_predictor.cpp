#include "hw/branch_predictor.hpp"

#include <cassert>
#include <stdexcept>

namespace tp::hw {

std::string BranchPredictorGeometry::Validate() const {
  // One bit per way in the BTB's packed valid mask (see way_sets.hpp).
  if (btb_associativity < 1 || btb_associativity > 64) {
    return "btb_associativity must be 1..64";
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
  btb_sets_ = geometry_.btb_entries / geometry_.btb_associativity;
  btb_tags_.resize(geometry_.btb_entries);
  btb_targets_.resize(geometry_.btb_entries);
  btb_ = WaySets(btb_sets_, geometry_.btb_associativity, 1);
  pht_.assign(geometry_.pht_entries, 1);  // weakly not-taken
  if (TaintTrackingEnabled()) {
    pht_taint_.Enable(geometry_.pht_entries, 1);
  }
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

  // Target prediction via the BTB (only needed for taken branches). Branch
  // instructions are rarely line-aligned; index on the instruction address
  // directly (low bits carry information, as in real BTBs).
  const std::uint64_t tag = pc >> 2;
  const std::size_t set = static_cast<std::size_t>(tag % btb_sets_);
  const std::size_t base = set * geometry_.btb_associativity;
  const std::uint8_t sig = WaySets::Signature(tag);
  const int hit = btb_.Find(set, sig, [&](unsigned way) { return btb_tags_[base + way] == tag; });
  bool target_hit = false;
  if (hit >= 0) {
    const unsigned way = static_cast<unsigned>(hit);
    target_hit = btb_targets_[base + way] == target;
    btb_.Touch(set, way);
    if (taken) {
      btb_targets_[base + way] = target;
    }
    btb_.Stamp(set, way, taint_owner_, 0);
  } else if (taken) {
    const unsigned victim = btb_.Victim(set);
    btb_.Fill(set, victim, sig);
    btb_tags_[base + victim] = tag;
    btb_targets_[base + victim] = target;
    btb_.Stamp(set, victim, taint_owner_, 0);
  }

  bool direction_wrong = conditional && (predicted_taken != taken);
  bool target_wrong = taken && !target_hit;
  if (direction_wrong || target_wrong) {
    result.mispredicted = true;
    result.penalty = geometry_.mispredict_penalty;
  }
  return result;
}

void BranchPredictor::FlushHistory() {
  ghr_ = 0;
  pht_.assign(pht_.size(), 1);
  if (pht_taint_.on()) {
    pht_taint_.ClearAll();
    ghr_owner_ = 0;
  }
}

}  // namespace tp::hw
