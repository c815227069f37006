#pragma once
// The three VM-selection policies (paper §3.1), classic online bin-packing
// heuristics adapted to hourly-billed VMs. Idle VMs differ only in how much
// already-paid time they have left before the next hourly charge; the
// policies rank candidates by the paid time that would remain *after*
// running the job (predicted runtime) on them. BestFit and WorstFit key
// each candidate once per order() call and sort on (key, id).

#include <memory>
#include <string>
#include <vector>

#include "policy/context.hpp"

namespace psched::policy {

class VmSelectionPolicy {
 public:
  virtual ~VmSelectionPolicy() = default;

  /// Reorder `candidates` into preference order (most preferred first) for
  /// a job with the given predicted runtime starting at `now`. The caller
  /// takes the first `procs` entries. Candidate ids must be unique; each
  /// candidate's `key` is scratch the policy may overwrite.
  virtual void order(std::vector<VmCandidate>& candidates, double predicted_runtime,
                     SimTime now,
                     SimDuration billing_quantum = kSecondsPerHour) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// FirstFit (baseline): keep the candidates' existing order — no sort cost.
class FirstFit final : public VmSelectionPolicy {
 public:
  void order(std::vector<VmCandidate>& candidates, double predicted_runtime,
             SimTime now, SimDuration billing_quantum) const override;
  [[nodiscard]] std::string name() const override { return "FirstFit"; }
};

/// BestFit: prefer VMs whose remaining paid time after the job is minimal
/// (pack work tightly into already-charged hours).
class BestFit final : public VmSelectionPolicy {
 public:
  void order(std::vector<VmCandidate>& candidates, double predicted_runtime,
             SimTime now, SimDuration billing_quantum) const override;
  [[nodiscard]] std::string name() const override { return "BestFit"; }
};

/// WorstFit: prefer VMs whose remaining paid time after the job is maximal
/// (spread usage, keep slack for future wide jobs).
class WorstFit final : public VmSelectionPolicy {
 public:
  void order(std::vector<VmCandidate>& candidates, double predicted_runtime,
             SimTime now, SimDuration billing_quantum) const override;
  [[nodiscard]] std::string name() const override { return "WorstFit"; }
};

/// Remaining paid seconds on a candidate VM after it would finish a job of
/// `predicted_runtime` seconds started at `now` (the BF/WF ranking key).
[[nodiscard]] double remaining_after_run(const VmCandidate& vm, double predicted_runtime,
                                         SimTime now,
                                         SimDuration billing_quantum = kSecondsPerHour) noexcept;

/// Factory by name ("FirstFit", "BestFit", "WorstFit", or "FF"/"BF"/"WF").
[[nodiscard]] std::unique_ptr<VmSelectionPolicy> make_vm_selection(const std::string& name);

/// All three, in the paper's Figure-5 iteration order (BF, FF, WF).
[[nodiscard]] std::vector<std::unique_ptr<VmSelectionPolicy>> all_vm_selection();

}  // namespace psched::policy
