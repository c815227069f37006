#pragma once
// The five resource-provisioning policies of the portfolio (paper §3.1).
// Each sizes how many *new* VMs to lease right now (vms_to_lease). The
// engine and the online simulator only ask for lease_plan, which spends
// that count across VM families and purchase tiers, and cap the grants at
// the provider's headroom.

#include <memory>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "policy/context.hpp"

namespace psched::policy {

class ProvisioningPolicy {
 public:
  virtual ~ProvisioningPolicy() = default;
  [[nodiscard]] virtual std::size_t vms_to_lease(const SchedContext& ctx) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Earliest future instant at which this policy's answer could change if
  /// no job arrives/finishes and no VM changes state — i.e. purely because
  /// waiting times grow. kTimeNever for wait-time-independent policies.
  /// The online simulator uses this to fast-forward idle stretches exactly.
  [[nodiscard]] virtual SimTime next_change(const SchedContext& /*ctx*/) const {
    return kTimeNever;
  }

  /// Tier-aware provisioning (DESIGN.md §12): split this tick's lease
  /// decision into per-family/per-tier requests, replacing the contents of
  /// `out`. The default maps vms_to_lease to the paper's behavior —
  /// everything on-demand in family 0 — so the five paper policies need no
  /// override. Tier-aware overrides must fall back to that default when
  /// `ctx.pricing` is null or not enabled (pricing off: callers pass a
  /// disabled view, the one-family degenerate market).
  virtual void lease_plan(const SchedContext& ctx,
                          std::vector<cloud::LeaseRequest>& out) const;
};

/// ODA (On-Demand All, the baseline): lease enough VMs for *every* queued
/// job to start — total queued processors minus already-available capacity.
class OnDemandAll final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "ODA"; }
};

/// ODB (On-Demand Balance): keep the fleet size equal to the total
/// processors required by the queue; busy VMs count toward the balance, so
/// short jobs finishing soon absorb queued work without new leases
/// (DawningCloud-style).
class OnDemandBalance final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "ODB"; }
};

/// ODE (On-Demand ExecTime): size the fleet to pack the queue's predicted
/// work into one charged hour: target = ceil(sum(procs * runtime) / 3600).
/// Deviation from the paper (see DESIGN.md): a starvation guard raises the
/// target to the widest queued job's size once that job has waited more
/// than an hour, otherwise a wide job can never start on a small fleet.
class OnDemandExecTime final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "ODE"; }
  [[nodiscard]] SimTime next_change(const SchedContext& ctx) const override;

  static constexpr double kStarvationWait = 3600.0;  ///< seconds
};

/// ODM (On-Demand Maximum): make the widest queued job startable:
/// lease max_i(procs_i) minus already-available capacity.
class OnDemandMaximum final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "ODM"; }
};

/// ODX (On-Demand XFactor): lease for every job whose bounded slowdown
/// (wait + max(rt,10)) / max(rt,10) exceeds a threshold of 2.
class OnDemandXFactor final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "ODX"; }
  [[nodiscard]] SimTime next_change(const SchedContext& ctx) const override;

  static constexpr double kThreshold = 2.0;
  static constexpr double kBound = 10.0;  ///< bounded-slowdown runtime floor
};

// --- Tier-aware provisioning (pricing on; DESIGN.md §12) -------------------
// Each of these sizes the fleet with ODA's deficit and spends the decision
// across purchase tiers/families. With ctx.pricing null they all degrade to
// plain ODA, so they are only worth adding to a portfolio when pricing is on
// (Portfolio::pricing_portfolio does exactly that).

/// CPF (Cheapest-Feasible): reserved commitment headroom first (zero
/// marginal cost), then the remainder on the cheapest open option — spot
/// when the market is open and discounted, else on-demand — spilling across
/// families from cheapest to priciest as family caps bind.
class CheapestFeasible final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "CPF"; }
  void lease_plan(const SchedContext& ctx,
                  std::vector<cloud::LeaseRequest>& out) const override;
};

/// SPT (Spot-First with on-demand fallback): fill the whole deficit from
/// the spot market when it is open; fall back to on-demand (cheapest
/// family) when it is not.
class SpotFirst final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "SPT"; }
  void lease_plan(const SchedContext& ctx,
                  std::vector<cloud::LeaseRequest>& out) const override;
};

/// RSB (Reserved-Baseline + Spot-Burst): keep the pre-paid reserved
/// commitment fully used as the baseline, burst the remainder to spot when
/// the market is open (else on-demand).
class ReservedBaseline final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "RSB"; }
  void lease_plan(const SchedContext& ctx,
                  std::vector<cloud::LeaseRequest>& out) const override;
};

/// PRT (Price-Threshold deferral): lease on-demand only while the market
/// multiplier is at or below 1.0; in an expensive market defer leasing
/// entirely — unless some queued job has starved past an hour, which
/// overrides the deferral (liveness guard, mirroring ODE's).
class PriceThreshold final : public ProvisioningPolicy {
 public:
  [[nodiscard]] std::size_t vms_to_lease(const SchedContext& ctx) const override;
  [[nodiscard]] std::string name() const override { return "PRT"; }
  [[nodiscard]] SimTime next_change(const SchedContext& ctx) const override;
  void lease_plan(const SchedContext& ctx,
                  std::vector<cloud::LeaseRequest>& out) const override;

  static constexpr double kMultiplierThreshold = 1.0;
  static constexpr double kStarvationWait = 3600.0;  ///< seconds
};

/// Factory by name ("ODA", "ODB", "ODE", "ODM", "ODX", and the tier-aware
/// "CPF", "SPT", "RSB", "PRT"); throws std::invalid_argument on unknown
/// names.
[[nodiscard]] std::unique_ptr<ProvisioningPolicy> make_provisioning(const std::string& name);

/// All five, in the paper's order.
[[nodiscard]] std::vector<std::unique_ptr<ProvisioningPolicy>> all_provisioning();

/// The four tier-aware pricing policies, in doc order (CPF, SPT, RSB, PRT).
[[nodiscard]] std::vector<std::unique_ptr<ProvisioningPolicy>> pricing_provisioning();

}  // namespace psched::policy
