#include "validate/fault.hpp"

namespace psched::validate {

const char* to_string(FaultInjection fault) noexcept {
  switch (fault) {
    case FaultInjection::kNone: return "none";
    case FaultInjection::kBillingOffByOne: return "billing-off-by-one";
    case FaultInjection::kSkipBootDelay: return "skip-boot-delay";
    case FaultInjection::kCapOvershoot: return "cap-overshoot";
    case FaultInjection::kCandidateThrow: return "candidate-throw";
    case FaultInjection::kTenantCapOvershoot: return "tenant-cap-overshoot";
    case FaultInjection::kTenantUnfairShare: return "tenant-unfair-share";
  }
  return "unknown";
}

FaultInjection fault_from_string(const std::string& name, bool& ok) {
  ok = true;
  if (name.empty() || name == "none") return FaultInjection::kNone;
  if (name == "billing-off-by-one") return FaultInjection::kBillingOffByOne;
  if (name == "skip-boot-delay") return FaultInjection::kSkipBootDelay;
  if (name == "cap-overshoot") return FaultInjection::kCapOvershoot;
  if (name == "candidate-throw") return FaultInjection::kCandidateThrow;
  if (name == "tenant-cap-overshoot") return FaultInjection::kTenantCapOvershoot;
  if (name == "tenant-unfair-share") return FaultInjection::kTenantUnfairShare;
  ok = false;
  return FaultInjection::kNone;
}

}  // namespace psched::validate
