#include "switchmod/fabric_state.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::sw {

namespace {
/// Index of `row` in a sorted vector, or npos.
std::size_t index_of(const std::vector<u32>& sorted_rows, u32 row) {
  const auto it =
      std::lower_bound(sorted_rows.begin(), sorted_rows.end(), row);
  if (it == sorted_rows.end() || *it != row)
    return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - sorted_rows.begin());
}

/// Invoke fn(level, row) for every link present in `a` but not in `b`.
template <typename Fn>
void for_each_delta(const std::vector<std::vector<u32>>& a,
                    const std::vector<std::vector<u32>>& b, Fn&& fn) {
  for (u32 level = 0; level < a.size(); ++level)
    for (u32 row : a[level])
      if (!std::binary_search(b[level].begin(), b[level].end(), row))
        fn(level, row);
}
}  // namespace

FabricState::FabricState(const min::Network& net, FabricConfig config)
    : FabricState(net,
                  std::vector<u32>(net.n() + 1, config.channels_per_link),
                  config.fan_in, config.fan_out) {}

FabricState::FabricState(const min::Network& net, std::vector<u32> capacity,
                         bool fan_in, bool fan_out)
    : net_(net),
      capacity_(std::move(capacity)),
      fan_in_(fan_in),
      fan_out_(fan_out),
      faults_(net.n()),
      load_(net.n() + 1, std::vector<u32>(net.size(), 0)),
      owner_(net.size(), -1) {
  expects(capacity_.size() == static_cast<std::size_t>(net_.n()) + 1,
          "FabricState capacity needs n+1 levels");
  for (u32 c : capacity_)
    expects(c >= 1, "FabricState needs at least one channel per link");
}

void FabricState::apply_load(const GroupRealization& group, bool add) {
  for (u32 level = 0; level < group.links.size(); ++level) {
    const u32 cap = capacity_[level];
    for (u32 row : group.links[level]) {
      u32& load = load_[level][row];
      if (add) {
        if (++load == cap + 1) ++overflowing_;
      } else {
        expects(load > 0, "link load underflow");
        if (load-- == cap + 1) --overflowing_;
      }
    }
  }
}

u32 FabricState::occupy_slot(u32 id) {
  u32 slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
    slot_gen_.push_back(0);
  }
  ++slot_gen_[slot];
  // Keep live_ sorted; control-plane ids are monotone, so the common case
  // is a cheap append.
  if (live_.empty() || live_.back().id < id)
    live_.push_back({id, slot});
  else
    live_.insert(live_at(id), {id, slot});
  slots_[slot].id = id;
  return slot;
}

std::vector<FabricState::Live>::const_iterator FabricState::live_at(
    u32 id) const {
  return std::lower_bound(
      live_.begin(), live_.end(), id,
      [](const Live& l, u32 key) { return l.id < key; });
}

u32 FabricState::slot_of(u32 id) const {
  const auto it = live_at(id);
  return it != live_.end() && it->id == id ? it->slot : kNoSlot;
}

CONFNET_HOT bool FabricState::try_add(GroupRealization group) {
  validate_group(net_, group);
  expects(!contains(group.id), "group id already admitted");
  for (u32 m : group.members)
    expects(owner_[m] < 0, "groups must be pairwise disjoint");
  if (!links_clear(group.links)) return false;
  for (u32 level = 0; level < group.links.size(); ++level)
    for (u32 row : group.links[level])
      if (load_[level][row] + 1 > capacity_[level]) return false;

  for (u32 m : group.members) owner_[m] = static_cast<int>(group.id);
  apply_load(group, true);
  const u32 id = group.id;
  Entry& entry = slots_[occupy_slot(id)];
  entry.group = std::move(group);
  entry.plan.built = false;
  entry.dirty = true;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return true;
}

// static_check: allow(audit-hook) delegates to replace(), which audits
CONFNET_HOT bool FabricState::try_replace(u32 id,
                                          GroupRealization group) {
  const u32 slot = slot_of(id);
  expects(slot != kNoSlot, "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_group(net_, group);
  const GroupRealization& old = slots_[slot].group;

  // The whole replacement realization must avoid the fault mask (not just
  // the gained links): a successful try_ mutation never yields a degraded
  // group. Shrink paths that must tolerate degradation use replace().
  if (!links_clear(group.links)) return false;

  // Capacity check on the links gained by the swap, before any change.
  bool feasible = true;
  for_each_delta(group.links, old.links, [&](u32 level, u32 row) {
    if (load_[level][row] + 1 > capacity_[level]) feasible = false;
  });
  if (!feasible) return false;

  replace(id, std::move(group));
  return true;
}

CONFNET_HOT void FabricState::replace(u32 id, GroupRealization group) {
  const u32 slot = slot_of(id);
  expects(slot != kNoSlot, "replace of unknown group id");
  expects(group.id == id, "replacement must keep the group id");
  validate_group(net_, group);
  Entry& entry = slots_[slot];

  for (u32 m : entry.group.members) owner_[m] = -1;
  for (u32 m : group.members) {
    expects(owner_[m] < 0, "groups must be pairwise disjoint");
    owner_[m] = static_cast<int>(id);
  }
  for_each_delta(group.links, entry.group.links, [&](u32 level, u32 row) {
    u32& load = load_[level][row];
    if (++load == capacity_[level] + 1) ++overflowing_;
  });
  for_each_delta(entry.group.links, group.links, [&](u32 level, u32 row) {
    u32& load = load_[level][row];
    expects(load > 0, "link load underflow");
    if (load-- == capacity_[level] + 1) --overflowing_;
  });
  entry.group = std::move(group);
  entry.plan.built = false;
  entry.dirty = true;
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT void FabricState::remove(u32 id) {
  const auto it = live_at(id);
  expects(it != live_.end() && it->id == id, "remove of unknown group id");
  const u32 slot = it->slot;
  Entry& entry = slots_[slot];
  apply_load(entry.group, false);
  for (u32 m : entry.group.members) owner_[m] = -1;
  live_.erase(it);
  // static_check: allow(hot-alloc) slot free-list, bounded by peak groups
  free_slots_.push_back(slot);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
}

CONFNET_HOT const std::vector<u32>& FabricState::mark_link_users_dirty(
    u32 level, u32 row) {
  dirty_scratch_.clear();
  const u32 users = load_[level][row];  // one channel per group per link
  if (users == 0) return dirty_scratch_;
  for (const Live& l : live_) {
    Entry& entry = slots_[l.slot];
    const auto& rows = entry.group.links[level];
    if (std::binary_search(rows.begin(), rows.end(), row)) {
      entry.dirty = true;
      // static_check: allow(hot-alloc) capacity reused across mutations,
      // bounded by peak groups on one link
      dirty_scratch_.push_back(l.id);
      if (dirty_scratch_.size() == users) break;
    }
  }
  return dirty_scratch_;
}

const std::vector<u32>& FabricState::fail_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "fail_link out of range");
  if (faults_.is_faulty(level, row)) {
    dirty_scratch_.clear();
    return dirty_scratch_;
  }
  faults_.fail_link(level, row);
  const auto& touched = mark_link_users_dirty(level, row);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

const std::vector<u32>& FabricState::repair_link(u32 level, u32 row) {
  expects(level <= net_.n() && row < net_.size(), "repair_link out of range");
  if (!faults_.is_faulty(level, row)) {
    dirty_scratch_.clear();
    return dirty_scratch_;
  }
  faults_.repair_link(level, row);
  const auto& touched = mark_link_users_dirty(level, row);
  CONFNET_AUDIT_HOOK(maybe_periodic_audit());
  return touched;
}

bool FabricState::group_survives(u32 id) const {
  return links_clear(entry_of(id).group.links);
}

bool FabricState::links_clear(
    const std::vector<std::vector<u32>>& links) const {
  if (faults_.fault_count() == 0) return true;
  for (u32 level = 0; level < links.size(); ++level)
    for (u32 row : links[level])
      if (faults_.is_faulty(level, row)) return false;
  return true;
}

const GroupRealization& FabricState::group(u32 id) const {
  return entry_of(id).group;
}

const std::vector<MemberSet>& FabricState::delivered(u32 id) const {
  const Entry& entry = entry_of(id);
  if (entry.dirty) propagate(entry);
  return entry.delivered;
}

bool FabricState::delivery_ok() const {
  for (const Live& l : live_) {
    const Entry& entry = slots_[l.slot];
    if (entry.dirty) propagate(entry);
    // delivered_exact is the plane engine's mask-row equality probe: true
    // iff every output heard exactly the full member set. No per-member
    // vector comparison on this path.
    if (entry.capability_violations != 0 || !entry.delivered_exact)
      return false;
  }
  return true;
}

void FabricState::invalidate_signal_caches() {
  for (const Live& l : live_) slots_[l.slot].dirty = true;
}

u32 FabricState::load_at(u32 level, u32 row) const {
  expects(level < load_.size(), "level out of range");
  expects(row < net_.size(), "row out of range");
  return load_[level][row];
}

u32 FabricState::level_peak_load(u32 level) const {
  expects(level < load_.size(), "level out of range");
  u32 peak = 0;
  for (u32 v : load_[level]) peak = std::max(peak, v);
  return peak;
}

void FabricState::build_plan(const Entry& entry) const {
  const GroupRealization& g = entry.group;
  const u32 n = net_.n();
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  constexpr u32 absent = PropagationPlan::kAbsent;
  PropagationPlan& plan = entry.plan;

  plan.inject.assign(g.links[0].size(), absent);
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const std::size_t mi = index_of(g.members, g.links[0][i]);
    if (mi != npos) plan.inject[i] = static_cast<u32>(mi);
  }

  plan.preds.clear();
  plan.pred_off.assign(n + 1, 0);
  for (u32 level = 1; level <= n; ++level) {
    plan.pred_off[level] = static_cast<u32>(plan.preds.size());
    for (u32 row : g.links[level]) {
      std::array<u32, 2> pi{absent, absent};
      const auto qs = net_.predecessors(level, row);
      for (std::size_t s = 0; s < qs.size(); ++s) {
        const std::size_t idx = index_of(g.links[level - 1], qs[s]);
        if (idx != npos) pi[s] = static_cast<u32>(idx);
      }
      plan.preds.push_back(pi);
    }
  }

  plan.succs.clear();
  plan.succ_off.assign(n, 0);
  for (u32 level = 0; level < n; ++level) {
    plan.succ_off[level] = static_cast<u32>(plan.succs.size());
    for (u32 row : g.links[level]) {
      std::array<u32, 2> si{absent, absent};
      const auto qs = net_.successors(level, row);
      for (std::size_t s = 0; s < qs.size(); ++s) {
        const std::size_t idx = index_of(g.links[level + 1], qs[s]);
        if (idx != npos) si[s] = static_cast<u32>(idx);
      }
      plan.succs.push_back(si);
    }
  }

  plan.read_at.assign(g.members.size(), {0, 0});
  if (!g.taps.empty()) {
    expects(g.taps.size() == g.members.size(),
            "relay taps must cover every member");
    for (const auto& tap : g.taps) {
      const std::size_t mi = index_of(g.members, tap.output);
      expects(mi != npos, "tap output is not a member");
      expects(tap.tap_level <= n, "tap level out of range");
      const std::size_t li = index_of(g.links[tap.tap_level], tap.output);
      expects(li != npos, "tap link is not part of the group's subnetwork");
      plan.read_at[mi] = {tap.tap_level, static_cast<u32>(li)};
    }
  } else {
    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const std::size_t li = index_of(g.links[n], g.members[mi]);
      expects(li != npos, "member output missing from level-n links");
      plan.read_at[mi] = {n, static_cast<u32>(li)};
    }
  }
  plan.built = true;
}

void FabricState::propagate(const Entry& entry) const {
  const GroupRealization& g = entry.group;
  const u32 n = net_.n();
  // Mirror of Fabric::evaluate's degraded semantics: a faulty link is
  // signal-dead. One branch up front keeps the healthy path probe-free.
  const bool degraded = faults_.fault_count() != 0;
  const auto dead = [&](u32 level, u32 row) {
    return degraded && faults_.is_faulty(level, row);
  };
  if (!entry.plan.built) build_plan(entry);
  const PropagationPlan& plan = entry.plan;
  constexpr u32 absent = PropagationPlan::kAbsent;

  // Bitset-row layout: bit mi of a link's row = "member g.members[mi] has
  // been heard here". Fan-in is a SIMD OR of rows, the liveness flag
  // replaces the MemberSet::empty probe, and delivery reduces to an
  // equality check against the full-member mask row. All neighbour
  // positions come pre-resolved from the plan, so the sweep is straight
  // streaming over the arena.
  SignalPlane& plane = plane_;
  plane.begin_group(g.links, g.members.size());
  const auto& k = util::simd::kernels();
  const std::size_t words = plane.words();

  entry.fan_in_ops = 0;
  entry.fan_out_ops = 0;
  entry.capability_violations = 0;

  // Injection: a level-0 link carries its member's own signal.
  for (std::size_t i = 0; i < g.links[0].size(); ++i) {
    const u32 mi = plan.inject[i];
    if (mi == absent) continue;
    if (dead(0, g.links[0][i])) continue;
    plane.row(0, static_cast<u32>(i))[mi >> 6] |= std::uint64_t{1}
                                                  << (mi & 63);
    plane.mark_live(0, static_cast<u32>(i));
  }

  // Sweep forward: each used link ORs in its used, live predecessors.
  for (u32 level = 1; level <= n; ++level) {
    const std::array<u32, 2>* preds = plan.preds.data() + plan.pred_off[level];
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (dead(level, g.links[level][i])) continue;  // carries nothing
      u32 feeding = 0;
      std::uint64_t* out = plane.row(level, static_cast<u32>(i));
      for (u32 pi : preds[i]) {
        if (pi == absent) continue;
        if (!plane.live(level - 1, pi)) continue;
        k.or_into(out, plane.row(level - 1, pi), words);
        ++feeding;
      }
      if (feeding > 0) plane.mark_live(level, static_cast<u32>(i));
      if (feeding == 2) {
        ++entry.fan_in_ops;
        if (!fan_in_) ++entry.capability_violations;
      }
    }
  }

  // Fan-out accounting: a used link feeding both its successors.
  for (u32 level = 0; level < n; ++level) {
    const std::array<u32, 2>* succs = plan.succs.data() + plan.succ_off[level];
    const std::vector<u32>& next_rows = g.links[level + 1];
    for (std::size_t i = 0; i < g.links[level].size(); ++i) {
      if (!plane.live(level, static_cast<u32>(i))) continue;
      u32 fed = 0;
      for (u32 si : succs[i]) {
        if (si == absent) continue;
        if (dead(level + 1, next_rows[si])) continue;  // cannot drive it
        ++fed;
      }
      if (fed == 2) {
        ++entry.fan_out_ops;
        if (!fan_out_) ++entry.capability_violations;
      }
    }
  }

  // Delivery: relay taps when present, otherwise level-n member rows —
  // both pre-resolved into plan.read_at. The mask-row equality probe feeds
  // delivery_ok's fast path; the MemberSets are still materialized (bit
  // mi -> g.members[mi], already sorted) for delivered()/report()
  // consumers.
  entry.delivered.assign(g.members.size(), MemberSet{});
  entry.delivered_exact = true;
  const std::uint64_t* mask = plane.mask_row();
  for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
    const auto [level, li] = plan.read_at[mi];
    const std::uint64_t* src = plane.row(level, li);
    if (!k.rows_equal(src, mask, words)) entry.delivered_exact = false;
    std::vector<u32> heard;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = src[w];
      while (bits != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        heard.push_back(g.members[w * 64 + bit]);
        bits &= bits - 1;
      }
    }
    entry.delivered[mi] = MemberSet(std::move(heard));
  }
  entry.dirty = false;
}

PropagationResult FabricState::propagate_reference(u32 id) const {
  return propagate_group(net_, entry_of(id).group, &faults_, fan_in_,
                         fan_out_);
}

EvalReport FabricState::report() const {
  const u32 N = net_.size();
  const u32 n = net_.n();
  EvalReport report;
  report.max_link_load.assign(n + 1, 0);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 r = 0; r < N; ++r) {
      report.max_link_load[level] =
          std::max(report.max_link_load[level], load_[level][r]);
      if (load_[level][r] > capacity_[level])
        report.overflows.push_back(Overflow{level, r, load_[level][r]});
    }
  }
  report.delivered.reserve(live_.size());
  for (const Live& l : live_) {
    const Entry& entry = slots_[l.slot];
    if (entry.dirty) propagate(entry);
    report.delivered.push_back(entry.delivered);
    report.fan_in_ops += entry.fan_in_ops;
    report.fan_out_ops += entry.fan_out_ops;
    report.capability_violations += entry.capability_violations;
  }
  return report;
}

void FabricState::cross_check() const {
  constexpr std::string_view kSub = "fabric_state";
  const u32 N = net_.size();
  const u32 n = net_.n();

  // Recount the load matrix and overflow counter from the admitted groups.
  std::vector<std::vector<u32>> expected_load(n + 1, std::vector<u32>(N, 0));
  std::vector<int> expected_owner(N, -1);
  u32 expected_overflowing = 0;
  for (const Live& l : live_) {
    const Entry& entry = slots_[l.slot];
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : entry.group.links[level]) ++expected_load[level][row];
    for (u32 m : entry.group.members) {
      audit::require(expected_owner[m] < 0, kSub,
                     "admitted groups share a member port");
      expected_owner[m] = static_cast<int>(l.id);
    }
  }

  // Slot-table coherence: live_ is strictly ascending by id, maps to
  // distinct live slots that name their owner back, and free slots are
  // exactly the remainder.
  audit::require(
      std::adjacent_find(live_.begin(), live_.end(),
                         [](const Live& a, const Live& b) {
                           return a.id >= b.id;
                         }) == live_.end(),
      kSub, "live id list is not sorted and unique");
  audit::require(live_.size() + free_slots_.size() == slots_.size(), kSub,
                 "live and free slots do not partition the slot vector");
  std::vector<bool> slot_live(slots_.size(), false);
  for (const auto& [id, slot] : live_) {
    audit::require(slot < slots_.size() && !slot_live[slot], kSub,
                   "two live ids share a slot");
    slot_live[slot] = true;
    audit::require(slots_[slot].id == id && slots_[slot].group.id == id, kSub,
                   "slot entry does not name its owning id");
    audit::require(slot_gen_.size() == slots_.size() && slot_gen_[slot] > 0,
                   kSub, "live slot was never generation-stamped");
  }
  for (u32 slot : free_slots_)
    audit::require(slot < slots_.size() && !slot_live[slot], kSub,
                   "free slot list names a live slot");
  std::vector<u32> expected_max(n + 1, 0);
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < N; ++row) {
      expected_max[level] = std::max(expected_max[level],
                                     expected_load[level][row]);
      if (expected_load[level][row] > capacity_[level]) ++expected_overflowing;
    }
  }
  audit::require(load_ == expected_load, kSub,
                 "incremental load matrix diverges from group recount");
  audit::require(owner_ == expected_owner, kSub,
                 "port ownership diverges from group membership");
  audit::require(overflowing_ == expected_overflowing, kSub,
                 "overflow counter diverges from load recount");

  // The fault counter must match its own bitsets before it is trusted as
  // the degraded-evaluation fast-path gate.
  audit::require(faults_.count_consistent(), kSub,
                 "fault count diverges from the fault bitsets");

  // One set-based sweep per group (propagate_group, the sweep
  // Fabric::evaluate runs, on the same possibly degraded fabric) is the
  // oracle for both the cached SIMD-plane results, whatever backend is
  // active, and the assembled report().
  const EvalReport actual = report();  // re-propagates every dirty entry
  audit::require(actual.delivered.size() == live_.size(), kSub,
                 "group count diverges from the stateless oracle");
  PropagationResult total;
  for (std::size_t gi = 0; gi < live_.size(); ++gi) {
    const u32 id = live_[gi].id;
    const Entry& entry = slots_[live_[gi].slot];
    CONFNET_AUDIT_HOOK(audit::check_group_realization(net_, entry.group));
    const PropagationResult ref = propagate_reference(id);
    audit::require(entry.delivered.size() == ref.delivered.size() &&
                       actual.delivered[gi].size() == ref.delivered.size(),
                   kSub,
                   "output count diverges from the set-based reference");
    bool ref_exact = true;
    for (std::size_t mi = 0; mi < ref.delivered.size(); ++mi) {
      const std::vector<u32>& heard = ref.delivered[mi].values();
      audit::require(entry.delivered[mi].values() == heard, kSub,
                     "SIMD plane delivered signals diverge from the set-based "
                     "reference");
      audit::require(actual.delivered[gi][mi].values() == heard, kSub,
                     "incremental delivered signals diverge from the "
                     "stateless oracle");
      if (heard != entry.group.members) ref_exact = false;
    }
    audit::require(entry.fan_in_ops == ref.fan_in_ops &&
                       entry.fan_out_ops == ref.fan_out_ops &&
                       entry.capability_violations == ref.capability_violations,
                   kSub,
                   "SIMD plane fan-op accounting diverges from the set-based "
                   "reference");
    audit::require(entry.delivered_exact == ref_exact, kSub,
                   "mask-row delivery probe diverges from the set-based "
                   "reference");
    total.fan_in_ops += ref.fan_in_ops;
    total.fan_out_ops += ref.fan_out_ops;
    total.capability_violations += ref.capability_violations;
  }
  audit::require(actual.fan_in_ops == total.fan_in_ops, kSub,
                 "fan-in op count diverges from the stateless oracle");
  audit::require(actual.fan_out_ops == total.fan_out_ops, kSub,
                 "fan-out op count diverges from the stateless oracle");
  audit::require(
      actual.capability_violations == total.capability_violations, kSub,
      "capability violation count diverges from the stateless oracle");
  audit::require(actual.max_link_load == expected_max, kSub,
                 "per-level link-load maxima diverge from the stateless "
                 "oracle");
}

void FabricState::maybe_periodic_audit() {
  // Every mutation re-checks cheap counters implicitly via apply_load's
  // contracts; the full stateless cross-check is amortized.
  if (++mutations_ % 32 == 0) audit::check_fabric_state(*this);
}

}  // namespace confnet::sw

namespace confnet::audit {

void check_fabric_state(const sw::FabricState& state) {
  for (u32 c : state.capacity_)
    require(c >= 1, "fabric_state", "capacity below one channel");
  state.cross_check();
}

}  // namespace confnet::audit
