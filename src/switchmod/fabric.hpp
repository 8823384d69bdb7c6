// Functional switch-fabric engine.
//
// Given a network, a per-link channel capacity (dilation) and a set of
// group realizations (which links each group occupies, optionally with mux
// relay taps), the engine:
//   * checks channel capacity on every link (conflict detection — the
//     "multiplicity of routing conflicts" made operational),
//   * propagates combining signals level by level through fan-in/fan-out
//     switch semantics,
//   * reports the delivered member set at every group output, plus fan-in /
//     fan-out operation counts for the cost discussion.
//
// The engine is deliberately independent of the conference layer: it works
// on plain `GroupRealization`s so the conference designs above it and the
// unit tests below it share one notion of "what the hardware would do".
//
// Observability: every evaluate() publishes per-stage link-load and
// peak-sharing observations to the `fabric` subsystem of the obs::Registry
// (histograms `fabric/link_load{level=l}` and `fabric/peak_link_load`),
// which makes the analytic conflict-multiplicity bounds of
// conference/multiplicity.hpp cross-checkable against live traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "min/network.hpp"
#include "switchmod/signal.hpp"

namespace confnet::min {
class FaultSet;
}

namespace confnet::sw {

/// One group (conference) mapped onto fabric links.
struct GroupRealization {
  u32 id = 0;
  /// Sorted member rows; members inject at level 0 and listen at level n
  /// (or at their relay tap).
  std::vector<u32> members;
  /// links[level] = sorted rows occupied at that level (levels 0..n).
  std::vector<std::vector<u32>> links;
  /// Optional mux relay: member `output` listens to link
  /// (tap_level, its own row) instead of level n. One entry per member when
  /// used; empty means "listen at level n".
  struct Tap {
    u32 output;
    u32 tap_level;
    friend bool operator==(const Tap&, const Tap&) = default;
  };
  std::vector<Tap> taps;
};

/// A link where demand exceeded the channel capacity.
struct Overflow {
  u32 level;
  u32 row;
  u32 demand;  // number of groups on the link
};

struct EvalReport {
  /// delivered[g] = member sets observed at group g's member outputs, in
  /// the order of GroupRealization::members.
  std::vector<std::vector<MemberSet>> delivered;
  std::vector<Overflow> overflows;
  /// Per-level maximum number of groups sharing one link.
  std::vector<u32> max_link_load;  // indexed by level
  std::uint64_t fan_in_ops = 0;    // switch outputs that combined two inputs
  std::uint64_t fan_out_ops = 0;   // inputs duplicated to both outputs
  /// Fan-in/fan-out uses demanded from modules lacking the capability.
  std::uint64_t capability_violations = 0;
  [[nodiscard]] bool ok() const noexcept {
    return overflows.empty() && capability_violations == 0;
  }
};

/// Throws unless `g` is well-formed on `net`: members non-empty, sorted and
/// in range; n+1 link levels, each sorted and in range.
void validate_group(const min::Network& net, const GroupRealization& g);

/// What one group's propagation produces: the delivered member set at each
/// of its outputs (order of GroupRealization::members) plus the fan-op
/// accounting.
struct PropagationResult {
  std::vector<MemberSet> delivered;
  std::uint64_t fan_in_ops = 0;
  std::uint64_t fan_out_ops = 0;
  std::uint64_t capability_violations = 0;
};

/// The set-based signal sweep for one group: a level-0 link carries its
/// member's own signal, each used link mixes its used predecessors
/// (MemberSet union), and members hear their relay tap or their level-n
/// row. A link in `faults` (nullptr = healthy fabric) is signal-dead: it
/// neither injects, mixes nor delivers, and no switch duplicates into it.
/// Fan ops that a module lacking `fan_in` / `fan_out` would need count as
/// capability violations. Both Fabric::evaluate and
/// FabricState::propagate_reference run this one sweep.
[[nodiscard]] PropagationResult propagate_group(const min::Network& net,
                                                const GroupRealization& g,
                                                const min::FaultSet* faults,
                                                bool fan_in, bool fan_out);

struct FabricConfig {
  /// Channels per physical link (dilation). 1 = plain network.
  u32 channels_per_link = 1;
  /// Capabilities of every switch module.
  bool fan_in = true;
  bool fan_out = true;
};

class Fabric {
 public:
  Fabric(const min::Network& net, FabricConfig config);

  /// Evaluate a set of groups. Groups must have pairwise disjoint member
  /// sets; link sets may overlap (that is what channel capacity is for).
  /// Signals still propagate for overflowing links so callers can observe
  /// what *would* happen with enough channels; `ok()` reports feasibility.
  [[nodiscard]] EvalReport evaluate(
      const std::vector<GroupRealization>& groups) const;

  /// Degraded-fabric evaluation: a faulty link carries no signal — it
  /// neither injects, mixes, nor delivers, and a switch never duplicates
  /// into it (so fan ops are counted on the surviving wiring only). Channel
  /// load/overflow accounting is unchanged: assignments still reserve the
  /// physical link. `faults == nullptr` (or an empty set) is the healthy
  /// fabric.
  [[nodiscard]] EvalReport evaluate(const std::vector<GroupRealization>& groups,
                                    const min::FaultSet* faults) const;

  [[nodiscard]] const min::Network& network() const noexcept { return net_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

 private:
  const min::Network& net_;
  FabricConfig config_;
};

}  // namespace confnet::sw
