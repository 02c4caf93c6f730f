// The time-protection contract checker.
//
// After each domain switch the kernel's flush/partition mechanisms claim
// that no microarchitectural state another domain could observe still
// depends on the previous domain's execution. With taint tracking enabled
// (hw/taint.hpp), this checker verifies that claim structurally: it walks
// every tagged structure on the switching core and counts entries whose
// owner is neither neutral (0) nor the incoming domain *and* whose colour
// the incoming domain can reach. MI ~ 0 on sampled inputs says "we did not
// see a leak"; a clean contract says "there was no residual state to leak".
//
// Known-unfixable residue is whitelisted, not flagged: instruction-
// prefetcher (and undisabled data-prefetcher) stream slots survive every
// architected flush on real hardware and in this model (paper §5.3.2,
// Table 3) — they are tallied separately so violations always mean
// *unexpected* leaks.
#ifndef TP_KERNEL_CONTRACT_HPP_
#define TP_KERNEL_CONTRACT_HPP_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "hw/taint.hpp"
#include "kernel/types.hpp"

namespace tp::kernel {

class Kernel;

class ContractChecker {
 public:
  explicit ContractChecker(Kernel& kernel);

  // Declares the LLC page colours a domain's frames may occupy. An
  // unregistered (or empty-set) domain is treated as unrestricted — every
  // colour observable — which is the uncoloured kernels' reality.
  void RegisterDomainColours(DomainId domain, const std::set<std::size_t>& colours);

  // Verifies the contract on `core` after a switch to `incoming`; called at
  // the end of the §4.3 sequence (after flush, prefetch and padding).
  // Results accumulate into hw::ThreadContractTally().
  void CheckSwitch(hw::CoreId core, DomainId incoming);

 private:
  // Colour-observability mask of `incoming` projected onto a structure with
  // `structure_colours` page colours (bit c = colour c reachable).
  std::uint64_t ObservableMask(DomainId incoming, std::size_t structure_colours) const;

  Kernel& kernel_;
  std::unordered_map<DomainId, std::vector<std::size_t>> domain_colours_;  // LLC colours
};

}  // namespace tp::kernel

#endif  // TP_KERNEL_CONTRACT_HPP_
