#include "core/round_snapshot.hpp"

#include <algorithm>

namespace psched::core {

void RoundSnapshot::build(std::span<const policy::QueuedJob> jobs,
                          const cloud::CloudProfile& profile) {
  t0 = profile.now;
  max_vms = profile.max_vms;
  billing_quantum = profile.billing_quantum;
  queue.assign(jobs.begin(), jobs.end());

  vms.clear();
  facts.clear();
  vms.reserve(profile.vms.size());
  facts.reserve(profile.vms.size());
  for (const cloud::VmView& view : profile.vms) {
    vms.push_back(policy::VmAvail{static_cast<VmId>(vms.size()), view.lease_time,
                                  std::max(view.available_at, t0)});
    facts.push_back(VmFacts{.family = view.family, .tier = view.tier, .busy = view.busy});
  }

  // The snapshot always carries a market. With pricing off it is the
  // paper's cloud: one on-demand family at price 1.0 with the provider's
  // boot delay and no family cap. `enabled` stays false, so tier-aware
  // policies still plan exactly like ODA.
  pricing = profile.pricing;
  if (!pricing.enabled)
    pricing.families.assign(1, cloud::PricingView::Family{1.0, profile.boot_delay, 0, 0});
}

}  // namespace psched::core
