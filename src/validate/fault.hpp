#pragma once
// Seeded-fault mutations for the validation subsystem's self-test mode.
//
// Each fault flips one known-bad behavior that a correct InvariantChecker
// must catch (tests/validate/*): the checker is only trustworthy if it
// demonstrably fires on the bug classes it claims to guard against —
// mutation testing for the safety net itself. The faults are implemented at
// their natural layer (cloud::CloudProvider), gated on this enum, and are
// never enabled outside validation runs.
//
// This header is dependency-free so the cloud layer can carry the fault
// switch in its config without depending on the rest of src/validate.

#include <string>

namespace psched::validate {

enum class FaultInjection {
  kNone,             ///< correct behavior (default)
  kBillingOffByOne,  ///< charge one billing quantum too few on VM release
  kSkipBootDelay,    ///< leased VMs are usable immediately (boot not awaited)
  kCapOvershoot,     ///< the provider grants one VM beyond max_vms
  kCandidateThrow,   ///< every online candidate simulation throws — the
                     ///< selector's graceful-degradation path must absorb
                     ///< it (quarantine + last-known-good), not abort
  kTenantCapOvershoot,  ///< the multi-tenant arbiter allocates one VM beyond
                        ///< the shared global cap (tenant.global-cap)
  kTenantUnfairShare,   ///< once, at the first decision where that is unfair,
                        ///< the arbiter hands the lowest-id tenant everything
                        ///< above the other tenants' floors (tenant.fairness)
};

[[nodiscard]] const char* to_string(FaultInjection fault) noexcept;

/// Parse a CLI spelling ("none", "billing-off-by-one", "skip-boot-delay",
/// "cap-overshoot", "candidate-throw", "tenant-cap-overshoot",
/// "tenant-unfair-share").
/// Sets ok=false and returns kNone on unknown input.
[[nodiscard]] FaultInjection fault_from_string(const std::string& name, bool& ok);

}  // namespace psched::validate
