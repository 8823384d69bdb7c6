#include "conference/designs.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::conf {

DilationProfile::DilationProfile(u32 n, std::vector<u32> channels,
                                 std::string label)
    : n_(n), channels_(std::move(channels)), label_(std::move(label)) {
  expects(channels_.size() == n + 1, "dilation profile needs n+1 levels");
  channels_.front() = 1;  // external ports are exclusive by disjointness
  channels_.back() = 1;
}

DilationProfile DilationProfile::uniform(u32 n, u32 d) {
  expects(d >= 1, "dilation must be at least 1");
  return DilationProfile(n, std::vector<u32>(n + 1, d),
                         "d=" + std::to_string(d));
}

DilationProfile DilationProfile::full(u32 n) {
  std::vector<u32> ch(n + 1);
  for (u32 l = 0; l <= n; ++l)
    ch[l] = std::min(u32{1} << l, u32{1} << (n - l));
  return DilationProfile(n, std::move(ch), "full");
}

DilationProfile DilationProfile::bounded(u32 n, u32 g) {
  expects(g >= 1, "bounded dilation needs g >= 1");
  std::vector<u32> ch(n + 1);
  for (u32 l = 0; l <= n; ++l)
    ch[l] = std::min({u32{1} << l, u32{1} << (n - l), g});
  return DilationProfile(n, std::move(ch), "g=" + std::to_string(g));
}

u32 DilationProfile::channels(u32 level) const {
  expects(level < channels_.size(), "dilation level out of range");
  return channels_[level];
}

u64 DilationProfile::total_channels() const {
  u64 total = 0;
  const u64 N = u64{1} << n_;
  for (u32 l = 1; l < n_; ++l) total += N * channels_[l];
  return total;
}

std::vector<u32> ConferenceNetworkBase::fail_link(u32 level, u32 row) {
  (void)level;
  (void)row;
  expects(false, "design does not support live link faults");
  return {};
}

std::vector<u32> ConferenceNetworkBase::repair_link(u32 level, u32 row) {
  (void)level;
  (void)row;
  expects(false, "design does not support live link faults");
  return {};
}

namespace {
std::vector<u32> with_member(const std::vector<u32>& members, u32 port) {
  std::vector<u32> grown = members;
  grown.insert(std::lower_bound(grown.begin(), grown.end(), port), port);
  return grown;
}

std::vector<u32> without_member(const std::vector<u32>& members, u32 port) {
  std::vector<u32> shrunk = members;
  shrunk.erase(std::lower_bound(shrunk.begin(), shrunk.end(), port));
  return shrunk;
}
}  // namespace

// ---------------------------------------------------------------------------
// FabricConferenceNetwork
// ---------------------------------------------------------------------------

FabricConferenceNetwork::FabricConferenceNetwork(min::Kind kind, u32 n,
                                                 std::vector<u32> capacity)
    : net_(min::make_network(kind, n)),
      state_(net_, std::move(capacity)),
      port_busy_(net_.size(), false) {}

std::optional<u32> FabricConferenceNetwork::setup(
    const std::vector<u32>& members) {
  expects(members.size() >= 2, "conferences need at least two members");
  for (u32 m : members) {
    expects(m < size(), "member out of range");
    if (port_busy_[m]) {
      last_error_ = SetupError::kPortBusy;
      return std::nullopt;
    }
  }
  std::vector<u32> sorted = members;
  std::sort(sorted.begin(), sorted.end());
  sw::GroupRealization g = realize(next_handle_, std::move(sorted));
  if (!state_.links_clear(g.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return std::nullopt;
  }
  if (!state_.try_add(std::move(g))) {
    last_error_ = SetupError::kLinkCapacity;
    return std::nullopt;
  }
  const u32 handle = next_handle_++;
  for (u32 m : state_.group(handle).members) port_busy_[m] = true;
  CONFNET_AUDIT_HOOK(audit_design());
  return handle;
}

void FabricConferenceNetwork::teardown(u32 handle) {
  expects(state_.contains(handle), "teardown of unknown conference handle");
  for (u32 m : state_.group(handle).members) port_busy_[m] = false;
  state_.remove(handle);
  CONFNET_AUDIT_HOOK(audit_design());
}

bool FabricConferenceNetwork::verify_delivery() const {
  return state_.delivery_ok();
}

/// The stateless-oracle functional check: rebuild every group and
/// re-propagate through Fabric::evaluate with unlimited channels (capacity
/// was enforced at setup, so this reports pure delivery correctness).
/// Evaluated against the live fault set, so a degraded group fails the
/// check exactly when a member stops hearing the full conference.
bool FabricConferenceNetwork::verify_delivery_reference() const {
  std::vector<sw::GroupRealization> groups;
  groups.reserve(state_.group_count());
  state_.for_each_group(
      [&](const sw::GroupRealization& g) { groups.push_back(g); });
  const sw::Fabric fabric(net_, sw::FabricConfig{net_.size(), true, true});
  const sw::EvalReport report = fabric.evaluate(groups, &state_.faults());
  if (!report.ok()) return false;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t mi = 0; mi < groups[gi].members.size(); ++mi) {
      if (report.delivered[gi][mi].values() != groups[gi].members)
        return false;
    }
  }
  return true;
}

bool FabricConferenceNetwork::add_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "add_member on unknown handle");
  expects(port < size(), "member out of range");
  if (port_busy_[port]) {
    last_error_ = SetupError::kPortBusy;
    return false;
  }
  sw::GroupRealization grown =
      realize(handle, with_member(state_.group(handle).members, port));
  if (!state_.links_clear(grown.links)) {
    last_error_ = SetupError::kLinkFaulty;
    return false;
  }
  // A grown realization may also release links (an enhanced conference
  // whose tap level rises); try_replace checks capacity on the gained
  // links only.
  if (!state_.try_replace(handle, std::move(grown))) {
    last_error_ = SetupError::kLinkCapacity;
    return false;
  }
  port_busy_[port] = true;
  CONFNET_AUDIT_HOOK(audit_design());
  return true;
}

bool FabricConferenceNetwork::remove_member(u32 handle, u32 port) {
  expects(state_.contains(handle), "remove_member on unknown handle");
  const std::vector<u32>& members = state_.group(handle).members;
  if (!std::binary_search(members.begin(), members.end(), port)) return false;
  if (members.size() <= 2) return false;  // close instead
  // Shrinking cannot oversubscribe: an ALL_PAIRS subnetwork of fewer
  // members only releases links, and an enhanced realization gains links
  // only when its tap level drops, freeing more than it takes within the
  // conference's own rows. So the unconditional swap is safe.
  state_.replace(handle, realize(handle, without_member(members, port)));
  port_busy_[port] = false;
  CONFNET_AUDIT_HOOK(audit_design());
  return true;
}

const std::vector<u32>& FabricConferenceNetwork::members_for(
    u32 handle) const {
  expects(state_.contains(handle), "unknown conference handle");
  return state_.group(handle).members;
}

std::vector<u32> FabricConferenceNetwork::fail_link(u32 level, u32 row) {
  auto touched = state_.fail_link(level, row);
  CONFNET_AUDIT_HOOK(audit_design());
  return touched;
}

std::vector<u32> FabricConferenceNetwork::repair_link(u32 level, u32 row) {
  auto touched = state_.repair_link(level, row);
  CONFNET_AUDIT_HOOK(audit_design());
  return touched;
}

// ---------------------------------------------------------------------------
// DirectConferenceNetwork
// ---------------------------------------------------------------------------

namespace {
std::vector<u32> dilation_capacity(const DilationProfile& dilation, u32 n) {
  expects(dilation.n() == n, "dilation profile size mismatch");
  std::vector<u32> caps(n + 1);
  for (u32 l = 0; l <= n; ++l) caps[l] = dilation.channels(l);
  return caps;
}
}  // namespace

DirectConferenceNetwork::DirectConferenceNetwork(min::Kind kind, u32 n,
                                                 DilationProfile dilation)
    : FabricConferenceNetwork(kind, n, dilation_capacity(dilation, n)),
      dilation_(std::move(dilation)) {}

std::string DirectConferenceNetwork::name() const {
  return "direct-" + std::string(min::kind_name(kind())) + "(" +
         dilation_.label() + ")";
}

sw::GroupRealization DirectConferenceNetwork::realize(
    u32 handle, std::vector<u32> members) const {
  sw::GroupRealization g;
  g.id = handle;
  g.links = all_pairs_links(kind(), n(), members);
  g.members = std::move(members);
  return g;
}

void DirectConferenceNetwork::audit_design() const {
  audit::check_direct_network(*this);
}

u32 DirectConferenceNetwork::current_level_load(u32 level) const {
  expects(level <= n(), "level out of range");
  return state().level_peak_load(level);
}

// ---------------------------------------------------------------------------
// EnhancedCubeNetwork
// ---------------------------------------------------------------------------

EnhancedCubeNetwork::EnhancedCubeNetwork(u32 n)
    : FabricConferenceNetwork(min::Kind::kIndirectCube, n,
                              std::vector<u32>(n + 1, 1)) {}

std::string EnhancedCubeNetwork::name() const { return "enhanced-cube"; }

sw::GroupRealization EnhancedCubeNetwork::realize(
    u32 handle, std::vector<u32> members) const {
  EnhancedRealization real = enhanced_cube_realization(n(), members);
  sw::GroupRealization g;
  g.id = handle;
  g.links = std::move(real.links);
  for (u32 m : members)
    g.taps.push_back(sw::GroupRealization::Tap{m, real.tap_level});
  g.members = std::move(members);
  return g;
}

void EnhancedCubeNetwork::audit_design() const {
  audit::check_enhanced_network(*this);
}

u32 EnhancedCubeNetwork::tap_level(u32 handle) const {
  expects(state().contains(handle), "unknown conference handle");
  const sw::GroupRealization& g = state().group(handle);
  ensures(!g.taps.empty(), "enhanced group must carry taps");
  return g.taps.front().tap_level;
}

}  // namespace confnet::conf

namespace confnet::audit {

void check_fabric_design(const conf::FabricConferenceNetwork& net) {
  constexpr std::string_view kSub = "designs";
  using conf::u32;
  const sw::FabricState& state = net.state_;
  const u32 N = net.size();
  std::vector<std::vector<u32>> member_sets;
  std::vector<bool> busy(N, false);
  state.for_each_group([&](const sw::GroupRealization& g) {
    require(g.id < net.next_handle_, kSub, "conference handle from the future");
    require(g.members.size() >= 2, kSub, "active conference below two members");
    member_sets.push_back(g.members);
    for (u32 m : g.members) {
      require(m < N, kSub, "active member row out of range");
      busy[m] = true;
    }
    require(g.links.size() == static_cast<std::size_t>(net.n()) + 1, kSub,
            "active link set has wrong level count");
    // Deep shape check: the stored realization is exactly the design's
    // recomputation from the stored members (relay taps included).
    const sw::GroupRealization fresh = net.realize(g.id, g.members);
    require(g.links == fresh.links, kSub,
            "stored links diverge from the design's realization");
    require(g.taps == fresh.taps, kSub,
            "stored relay taps diverge from the design's realization");
  });
  check_disjoint_memberships(member_sets, N, kSub);
  require(busy == net.port_busy_, kSub,
          "busy-port bitmap is not the union of active members");
  // Both designs admit only within capacity, so the incremental overflow
  // counter must read zero on live state.
  require(state.overflowing_links() == 0, kSub,
          "admitted conferences exceed link channel capacity");
  check_fabric_state(state);
}

void check_direct_network(const conf::DirectConferenceNetwork& net) {
  check_fabric_design(net);
  for (conf::u32 level = 0; level <= net.n(); ++level)
    require(net.state().capacity()[level] == net.dilation_.channels(level),
            "designs", "fabric capacity diverges from the dilation profile");
}

void check_enhanced_network(const conf::EnhancedCubeNetwork& net) {
  check_fabric_design(net);
  // The paper's claim, machine-checked on live state: enhanced-design
  // conferences never share an interstage link.
  std::vector<std::vector<std::vector<conf::u32>>> group_links;
  net.state().for_each_group(
      [&](const sw::GroupRealization& g) { group_links.push_back(g.links); });
  check_link_disjoint(group_links, net.n() + 1, net.size(), "designs");
}

}  // namespace confnet::audit
