#include "policy/vm_selection.hpp"

#include <algorithm>
#include <stdexcept>

#include "cloud/vm.hpp"

namespace psched::policy {

double remaining_after_run(const VmCandidate& vm, double predicted_runtime,
                           SimTime now, SimDuration billing_quantum) noexcept {
  return cloud::remaining_paid_at(vm.lease_time, now + predicted_runtime,
                                  billing_quantum);
}

void FirstFit::order(std::vector<VmCandidate>& candidates, double predicted_runtime,
                     SimTime now, SimDuration billing_quantum) const {
  (void)candidates;
  (void)predicted_runtime;
  (void)now;
  (void)billing_quantum;  // identity: candidates arrive in stable id order
}

namespace {
/// Each candidate's key is computed once per call, not twice per
/// comparison. VM ids are unique, so (key, id) is a total order and the
/// sort needs no stability.
template <bool Ascending>
void sort_by_remaining(std::vector<VmCandidate>& candidates, double predicted_runtime,
                       SimTime now, SimDuration quantum) {
  for (VmCandidate& c : candidates)
    c.key = remaining_after_run(c, predicted_runtime, now, quantum);
  std::sort(candidates.begin(), candidates.end(),
            [](const VmCandidate& a, const VmCandidate& b) {
              if (a.key != b.key) return Ascending ? a.key < b.key : a.key > b.key;
              return a.id < b.id;
            });
}
}  // namespace

void BestFit::order(std::vector<VmCandidate>& candidates, double predicted_runtime,
                    SimTime now, SimDuration billing_quantum) const {
  sort_by_remaining<true>(candidates, predicted_runtime, now, billing_quantum);
}

void WorstFit::order(std::vector<VmCandidate>& candidates, double predicted_runtime,
                     SimTime now, SimDuration billing_quantum) const {
  sort_by_remaining<false>(candidates, predicted_runtime, now, billing_quantum);
}

std::unique_ptr<VmSelectionPolicy> make_vm_selection(const std::string& name) {
  if (name == "FirstFit" || name == "FF") return std::make_unique<FirstFit>();
  if (name == "BestFit" || name == "BF") return std::make_unique<BestFit>();
  if (name == "WorstFit" || name == "WF") return std::make_unique<WorstFit>();
  throw std::invalid_argument("unknown VM-selection policy: " + name);
}

std::vector<std::unique_ptr<VmSelectionPolicy>> all_vm_selection() {
  std::vector<std::unique_ptr<VmSelectionPolicy>> out;
  for (const char* name : {"BestFit", "FirstFit", "WorstFit"})
    out.push_back(make_vm_selection(name));
  return out;
}

}  // namespace psched::policy
