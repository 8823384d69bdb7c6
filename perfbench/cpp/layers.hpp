// Layer replays for the traced run.
//
// The traced cluster run records its op stream and verdicts. Each lower
// layer replays the identical per-shard command sequence, in step with the
// run, through that layer's public functions, timed from outside:
//
//   conference  WaitQueueManager + RecoveryCoordinator per shard (loss
//               mode, built as runtime::Shard builds them)
//   inline      runtime::Shard::submit + process_available on the caller
//   roundtrip   runtime::Runtime call_pooled / stage_call + submit_stage
//
// `Coordinator` is the cluster's admission protocol (trunk claim, staged
// leg fan-out, settle/rollback, fault rehoming and teardown) written
// against a backend, so each layer receives exactly the commands the
// cluster sent its shards. The protocol's own bookkeeping runs between
// spans and is therefore not charged to the layer below.
//
// It is a copy of Cluster::open_intra, open_span, close_legs, close,
// tear_down and fail_link in src/cluster/cluster.cpp, and the ledger check
// requires its per-shard commands and counters to equal the live
// cluster's. A change to that protocol (other commands, fewer or batched
// closes) makes `--trace 1` report correct=false until this copy follows
// it, so such a change needs a benchmark change first.
//
// `switchmod` replays the DirectConferenceNetwork calls the conference
// layer made (recorded by RecordingNetwork, which wraps the fabric of an
// untimed conference replay) on fresh fabrics.
//
// Every replay checks its answers against the recorded ones; any drift
// throws LedgerMismatch.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "conference/designs.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "probe.hpp"
#include "runtime/result_pool.hpp"
#include "runtime/runtime.hpp"
#include "runtime/shard.hpp"
#include "workload.hpp"

namespace perfbench {

namespace conf = confnet::conf;
namespace rt = confnet::runtime;

struct LedgerMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void ledger_require(bool cond, const std::string& layer,
                           const std::string& what) {
  if (!cond) throw LedgerMismatch(layer + ": " + what);
}

// Span names (compared by pointer identity).
inline constexpr const char* kOpenSpan = "open";
inline constexpr const char* kCloseSpan = "close";
inline constexpr const char* kFailSpan = "fail_link";
inline constexpr const char* kRepairSpan = "repair_link";
inline constexpr const char* kSetupSpan = "setup";
inline constexpr const char* kTeardownSpan = "teardown";

inline const char* span_name(OpKind k) {
  switch (k) {
    case OpKind::kOpen: return kOpenSpan;
    case OpKind::kClose: return kCloseSpan;
    case OpKind::kFailLink: return kFailSpan;
    case OpKind::kRepairLink: return kRepairSpan;
  }
  return "?";
}

/// The shard configuration cluster::Cluster serves with: loss-mode
/// admission (no hold queue, no retry budget).
inline rt::RuntimeConfig serving_config(const cl::ClusterConfig& c) {
  rt::RuntimeConfig rc;
  rc.shards = c.shards;
  rc.workers = c.workers;
  rc.shard.stages = c.stages;
  rc.shard.kind = c.kind;
  rc.shard.dilation = c.dilation;
  rc.shard.policy = c.policy;
  rc.shard.backend = c.backend;
  rc.shard.queue_depth = c.queue_depth;
  rc.shard.wait_capacity = 0;
  rc.shard.wait_bypass = false;
  rc.shard.recovery.max_retries = 0;
  rc.shard.trace_capacity = c.trace_capacity;
  rc.shard.seed = c.seed;
  return rc;
}

/// A shard's answer to a link fail.
struct FaultAnswer {
  bool done = false;  // applied (not rejected by a stopped runtime)
  bool ok = false;
  std::vector<u32> torn;
  std::vector<std::pair<u32, u32>> relocated;  // (origin, replacement)
};

/// Deterministic per-shard counters every layer must reproduce (the
/// ShardStats fields that do not depend on timing).
struct ShardTally {
  u64 commands = 0, opens = 0, accepted = 0, rejected = 0, closes = 0;
  u64 link_failures = 0, link_repairs = 0, torn_down = 0, recovered = 0;
  u64 dropped = 0, expired = 0, active_sessions = 0;

  static ShardTally of(const rt::ShardStats& s) {
    ShardTally t;
    t.commands = s.commands;
    t.opens = s.opens;
    t.accepted = s.accepted;
    t.rejected = s.rejected;
    t.closes = s.closes;
    t.link_failures = s.link_failures;
    t.link_repairs = s.link_repairs;
    t.torn_down = s.torn_down;
    t.recovered = s.recovered;
    t.dropped = s.dropped;
    t.expired = s.expired;
    t.active_sessions = s.active_sessions;
    return t;
  }
  bool operator==(const ShardTally&) const = default;
};

inline bool same_stats(const cl::ClusterStats& a, const cl::ClusterStats& b) {
  return a.intra_opens == b.intra_opens &&
         a.intra_accepted == b.intra_accepted &&
         a.intra_blocked == b.intra_blocked &&
         a.intra_closes == b.intra_closes &&
         a.intra_interrupted == b.intra_interrupted &&
         a.span_opens == b.span_opens && a.span_accepted == b.span_accepted &&
         a.span_blocked_local == b.span_blocked_local &&
         a.span_blocked_trunk == b.span_blocked_trunk &&
         a.span_closes == b.span_closes &&
         a.span_interrupted == b.span_interrupted &&
         a.legs_reserved == b.legs_reserved &&
         a.legs_rolled_back == b.legs_rolled_back &&
         a.legs_relocated == b.legs_relocated &&
         a.link_failures == b.link_failures &&
         a.link_repairs == b.link_repairs;
}

using LiveTable = std::map<u64, cl::Cluster::Conference>;

inline bool same_live(const LiveTable& a, const LiveTable& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.spanning != ib->second.spanning ||
        ia->second.legs.size() != ib->second.legs.size())
      return false;
    for (std::size_t i = 0; i < ia->second.legs.size(); ++i) {
      const auto& la = ia->second.legs[i];
      const auto& lb = ib->second.legs[i];
      if (la.shard != lb.shard || la.session != lb.session ||
          la.members != lb.members)
        return false;
    }
  }
  return true;
}

// --- the cluster protocol over a backend ----------------------------------

template <class Backend>
class Coordinator {
 public:
  Coordinator(Backend& backend, const cl::ClusterConfig& cfg)
      : be_(backend),
        shards_(cfg.shards),
        trunks_(cfg.shards, cfg.trunk_lanes, cfg.conferences_per_lane) {}

  Verdict apply(u32 op, const Op& o) {
    Verdict v;
    switch (o.kind) {
      case OpKind::kOpen:
        if (o.legs.size() == 1)
          open_intra(op, o.legs.front(), v);
        else
          open_span(op, o.legs, v);
        break;
      case OpKind::kClose:
        v.ok = close(op, o.conf);
        break;
      case OpKind::kFailLink:
        v.interrupted = fail_link(op, o.shard, o.level, o.row);
        break;
      case OpKind::kRepairLink: {
        v.ok = be_.repair_link(op, o.shard, o.level, o.row);
        if (v.ok) ++stats_.link_repairs;
        break;
      }
    }
    return v;
  }

  [[nodiscard]] const cl::ClusterStats& stats() const { return stats_; }
  [[nodiscard]] const LiveTable& live() const { return live_; }
  [[nodiscard]] const cl::TrunkBook& trunks() const { return trunks_; }

 private:
  using Leg = cl::Cluster::Leg;

  void open_intra(u32 op, const cl::LegSpec& leg, Verdict& v) {
    ++stats_.intra_opens;
    const std::optional<u32> s = be_.open_one(op, leg.shard, leg.members);
    if (s) {
      const u64 id = next_id_++;
      cl::Cluster::Conference c;
      c.legs.push_back(Leg{leg.shard, *s, leg.members});
      live_.emplace(id, std::move(c));
      ++stats_.intra_accepted;
      v.admit = cl::Admit::kAccepted;
      v.id = id;
    } else {
      ++stats_.intra_blocked;
      v.admit = cl::Admit::kBlockedLocal;
    }
  }

  void open_span(u32 op, std::vector<cl::LegSpec> legs, Verdict& v) {
    std::sort(legs.begin(), legs.end(),
              [](const cl::LegSpec& a, const cl::LegSpec& b) {
                return a.shard < b.shard;
              });
    ++stats_.span_opens;
    std::vector<u32> shards;
    for (const cl::LegSpec& l : legs) shards.push_back(l.shard);
    if (!trunks_.reserve_mesh(shards)) {
      ++stats_.span_blocked_trunk;
      v.admit = cl::Admit::kBlockedTrunk;
      return;
    }
    std::vector<std::pair<u32, u32>> req;
    for (const cl::LegSpec& l : legs) req.emplace_back(l.shard, l.members + 1);
    std::vector<std::optional<u32>> got;
    be_.open_legs(op, req, got);
    std::vector<Leg> granted;
    bool all = true;
    for (std::size_t i = 0; i < legs.size(); ++i) {
      if (got[i]) {
        granted.push_back(Leg{legs[i].shard, *got[i], legs[i].members});
        ++stats_.legs_reserved;
      } else {
        all = false;
      }
    }
    if (!all) {
      close_legs(op, granted, shards_);
      stats_.legs_rolled_back += granted.size();
      trunks_.release_mesh(shards);
      ++stats_.span_blocked_local;
      v.admit = cl::Admit::kBlockedLocal;
      return;
    }
    const u64 id = next_id_++;
    cl::Cluster::Conference c;
    c.legs = std::move(granted);
    c.spanning = true;
    live_.emplace(id, std::move(c));
    ++stats_.span_accepted;
    v.admit = cl::Admit::kAccepted;
    v.id = id;
  }

  void close_legs(u32 op, const std::vector<Leg>& legs, u32 skip_shard) {
    std::vector<std::pair<u32, u32>> req;
    for (const Leg& l : legs)
      if (l.shard != skip_shard) req.emplace_back(l.shard, l.session);
    be_.close_legs(op, req);
  }

  static std::vector<u32> touched(const cl::Cluster::Conference& c) {
    std::vector<u32> s;
    for (const Leg& l : c.legs) s.push_back(l.shard);
    return s;
  }

  bool close(u32 op, u64 id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    const cl::Cluster::Conference c = std::move(it->second);
    live_.erase(it);
    close_legs(op, c.legs, shards_);
    if (c.spanning) {
      trunks_.release_mesh(touched(c));
      ++stats_.span_closes;
    } else {
      ++stats_.intra_closes;
    }
    return true;
  }

  std::vector<u64> fail_link(u32 op, u32 shard, u32 level, u32 row) {
    const FaultAnswer r = be_.fail_link(op, shard, level, row);
    std::vector<u64> interrupted;
    if (!r.done) return interrupted;
    if (r.ok) ++stats_.link_failures;
    const std::map<u32, u32> relocated(r.relocated.begin(), r.relocated.end());
    std::set<u32> dead(r.torn.begin(), r.torn.end());
    for (const auto& moved : relocated) dead.erase(moved.first);
    for (auto& entry : live_) {
      for (Leg& leg : entry.second.legs) {
        if (leg.shard != shard) continue;
        const auto moved = relocated.find(leg.session);
        if (moved != relocated.end()) {
          leg.session = moved->second;
          ++stats_.legs_relocated;
        } else if (dead.count(leg.session) != 0) {
          interrupted.push_back(entry.first);
        }
      }
    }
    for (const u64 id : interrupted) {
      const auto it = live_.find(id);
      const cl::Cluster::Conference c = std::move(it->second);
      live_.erase(it);
      close_legs(op, c.legs, shard);
      if (c.spanning) {
        trunks_.release_mesh(touched(c));
        ++stats_.span_interrupted;
      } else {
        ++stats_.intra_interrupted;
      }
    }
    return interrupted;
  }

  Backend& be_;
  const u32 shards_;
  cl::TrunkBook trunks_;
  LiveTable live_;
  u64 next_id_ = 0;
  cl::ClusterStats stats_;
};

// --- switchmod: recorded fabric calls -------------------------------------

enum class NetKind : std::uint8_t { kSetup, kTeardown, kFail, kRepair };

/// One DirectConferenceNetwork call the conference layer made. Port and
/// handle lists live in NetLog::pool, so the log is two flat arrays.
struct NetCall {
  u32 op = 0;
  u32 shard = 0;
  NetKind kind = NetKind::kSetup;
  u32 a = 0;    // teardown: handle; fail/repair: level
  u32 b = 0;    // fail/repair: row
  u32 off = 0;  // setup: member ports; fail/repair: returned handles
  u32 len = 0;
  std::optional<u32> handle;  // setup result
  conf::SetupError error = conf::SetupError::kPortBusy;  // failed setup
};

struct NetLog {
  std::vector<NetCall> calls;
  std::vector<u32> pool;

  void put(NetCall& c, const std::vector<u32>& items) {
    c.off = static_cast<u32>(pool.size());
    c.len = static_cast<u32>(items.size());
    pool.insert(pool.end(), items.begin(), items.end());
  }
  [[nodiscard]] bool same(const NetCall& c, const std::vector<u32>& items) const {
    return c.len == items.size() &&
           std::equal(items.begin(), items.end(), pool.begin() + c.off);
  }
};

/// Forwards to a DirectConferenceNetwork and logs each mutating call.
class RecordingNetwork final : public conf::ConferenceNetworkBase {
 public:
  RecordingNetwork(conf::DirectConferenceNetwork& inner, u32 shard,
                   const u32& op, NetLog& log)
      : inner_(inner), shard_(shard), op_(op), log_(log) {}

  [[nodiscard]] u32 n() const noexcept override { return inner_.n(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<u32> setup(
      const std::vector<u32>& members) override {
    NetCall c = call(NetKind::kSetup);
    log_.put(c, members);
    c.handle = inner_.setup(members);
    if (!c.handle) c.error = inner_.last_error();
    log_.calls.push_back(c);
    return c.handle;
  }
  [[nodiscard]] conf::SetupError last_error() const noexcept override {
    return inner_.last_error();
  }
  void teardown(u32 handle) override {
    NetCall c = call(NetKind::kTeardown);
    c.a = handle;
    log_.calls.push_back(c);
    inner_.teardown(handle);
  }
  [[nodiscard]] u32 active_count() const noexcept override {
    return inner_.active_count();
  }
  [[nodiscard]] bool verify_delivery() const override {
    return inner_.verify_delivery();
  }
  [[nodiscard]] bool verify_delivery_reference() const override {
    return inner_.verify_delivery_reference();
  }
  [[nodiscard]] bool add_member(u32, u32) override {
    throw LedgerMismatch("switchmod: add_member is not on the admission path");
  }
  [[nodiscard]] bool remove_member(u32, u32) override {
    throw LedgerMismatch(
        "switchmod: remove_member is not on the admission path");
  }
  [[nodiscard]] const std::vector<u32>& members_for(
      u32 handle) const override {
    return inner_.members_for(handle);
  }
  [[nodiscard]] confnet::min::Kind kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] bool supports_faults() const noexcept override {
    return true;
  }
  [[nodiscard]] std::vector<u32> fail_link(u32 level, u32 row) override {
    NetCall c = call(NetKind::kFail);
    c.a = level;
    c.b = row;
    std::vector<u32> handles = inner_.fail_link(level, row);
    log_.put(c, handles);
    log_.calls.push_back(c);
    return handles;
  }
  std::vector<u32> repair_link(u32 level, u32 row) override {
    NetCall c = call(NetKind::kRepair);
    c.a = level;
    c.b = row;
    std::vector<u32> handles = inner_.repair_link(level, row);
    log_.put(c, handles);
    log_.calls.push_back(c);
    return handles;
  }
  [[nodiscard]] bool link_faulty(u32 level, u32 row) const override {
    return inner_.link_faulty(level, row);
  }
  [[nodiscard]] const confnet::min::FaultSet* faults() const noexcept override {
    return inner_.faults();
  }
  [[nodiscard]] bool conference_survives(u32 handle) const override {
    return inner_.conference_survives(handle);
  }

 private:
  NetCall call(NetKind k) const {
    NetCall c;
    c.op = op_;
    c.shard = shard_;
    c.kind = k;
    return c;
  }

  conf::DirectConferenceNetwork& inner_;
  const u32 shard_;
  const u32& op_;
  NetLog& log_;
};

/// Replays recorded fabric calls on fresh per-shard fabrics, as far as the
/// log has grown. Setup counts cover ops from the window start on.
class SwitchmodReplay {
 public:
  SwitchmodReplay(const cl::ClusterConfig& cfg, SpanLog& log) : log_(log) {
    for (u32 s = 0; s < cfg.shards; ++s)
      nets_.push_back(std::make_unique<conf::DirectConferenceNetwork>(
          cfg.kind, cfg.stages,
          conf::DilationProfile::uniform(cfg.stages, cfg.dilation)));
  }

  void advance(const NetLog& rec, u32 first_op) {
    for (; next_ < rec.calls.size(); ++next_) apply(rec, rec.calls[next_], first_op);
  }

  [[nodiscard]] u64 setups() const { return setups_; }
  [[nodiscard]] u64 refused() const { return refused_; }

 private:
  void apply(const NetLog& rec, const NetCall& c, u32 first_op) {
    conf::DirectConferenceNetwork& net = *nets_[c.shard];
    switch (c.kind) {
      case NetKind::kSetup: {
        ports_.assign(rec.pool.begin() + c.off,
                      rec.pool.begin() + c.off + c.len);
        const auto o = SpanLog::begin();
        const std::optional<u32> h = net.setup(ports_);
        log_.end(o, c.op, kSetupSpan);
        ledger_require(h == c.handle, "switchmod", "setup verdict drifted");
        if (!h)
          ledger_require(net.last_error() == c.error, "switchmod",
                         "setup refusal cause drifted");
        if (c.op >= first_op) {
          ++setups_;
          if (!h) ++refused_;
        }
        break;
      }
      case NetKind::kTeardown: {
        const auto o = SpanLog::begin();
        net.teardown(c.a);
        log_.end(o, c.op, kTeardownSpan);
        break;
      }
      case NetKind::kFail: {
        const auto o = SpanLog::begin();
        handles_ = net.fail_link(c.a, c.b);
        log_.end(o, c.op, kFailSpan);
        ledger_require(rec.same(c, handles_), "switchmod",
                       "fail_link victims drifted");
        break;
      }
      case NetKind::kRepair: {
        const auto o = SpanLog::begin();
        handles_ = net.repair_link(c.a, c.b);
        log_.end(o, c.op, kRepairSpan);
        ledger_require(rec.same(c, handles_), "switchmod",
                       "repair_link handles drifted");
        break;
      }
    }
  }

  SpanLog& log_;
  std::vector<std::unique_ptr<conf::DirectConferenceNetwork>> nets_;
  std::size_t next_ = 0;
  u64 setups_ = 0;
  u64 refused_ = 0;
  std::vector<u32> ports_;
  std::vector<u32> handles_;
};

// --- conference backend ----------------------------------------------------

/// One shard's control plane, built as runtime::Shard builds it and
/// driven with the same calls Shard::apply makes for each command kind.
class ConferenceShard {
 public:
  ConferenceShard(u32 index, const rt::ShardConfig& c, const u32* op,
                  NetLog* record)
      : network_(c.kind, c.stages,
                 conf::DilationProfile::uniform(c.stages, c.dilation)),
        recorder_(record != nullptr ? std::make_unique<RecordingNetwork>(
                                          network_, index, *op, *record)
                                    : nullptr),
        wait_(recorder_ ? static_cast<conf::ConferenceNetworkBase&>(*recorder_)
                        : network_,
              c.policy, c.wait_capacity, c.wait_bypass, c.backend),
        recovery_(wait_, c.recovery),
        rng_(c.seed + index) {}

  std::optional<u32> open(u32 size) {
    const auto r = wait_.request(size, rng_);
    ++tally_.opens;
    if (r.outcome == conf::RequestOutcome::kServed)
      ++tally_.accepted;
    else if (r.outcome == conf::RequestOutcome::kRejected)
      ++tally_.rejected;
    else
      throw LedgerMismatch("conference: loss-mode shard queued a request");
    finish();
    return r.outcome == conf::RequestOutcome::kServed ? r.session
                                                      : std::nullopt;
  }

  void close(u32 session) {
    if (wait_.sessions().contains(session)) {
      ++tally_.closes;
      absorb(wait_.close(session, rng_));
    } else if (recovery_.on_origin_departed(session,
                                            static_cast<double>(now_))) {
      ++tally_.expired;
    }
    finish();
  }

  FaultAnswer fail_link(u32 level, u32 row) {
    FaultAnswer a;
    a.done = true;
    const bool was_faulty = network_.link_faulty(level, row);
    auto impact =
        recovery_.fail_link(level, row, static_cast<double>(now_), rng_);
    a.ok = !was_faulty;
    if (a.ok) ++tally_.link_failures;
    tally_.torn_down += impact.torn_down.size();
    tally_.recovered += impact.recovered.size();
    a.torn = std::move(impact.torn_down);
    for (const auto& r : impact.recovered)
      a.relocated.emplace_back(r.origin, r.session);
    ledger_require(impact.retries.empty(), "conference",
                   "loss-mode shard scheduled a recovery retry");
    absorb(wait_.drain(rng_));
    finish();
    return a;
  }

  bool repair_link(u32 level, u32 row) {
    const bool was_faulty = network_.link_faulty(level, row);
    auto impact =
        recovery_.repair_link(level, row, static_cast<double>(now_), rng_);
    if (was_faulty) ++tally_.link_repairs;
    tally_.recovered += impact.recovered.size();
    finish();
    return was_faulty;
  }

  [[nodiscard]] ShardTally tally() const { return tally_; }
  [[nodiscard]] const conf::RecoveryStats& recovery_stats() const {
    return recovery_.stats();
  }

 private:
  void absorb(const std::vector<conf::WaitQueueManager::ServedTicket>& served) {
    if (served.empty()) return;
    tally_.recovered += recovery_.absorb(served, static_cast<double>(now_)).size();
  }
  void finish() {
    ++now_;
    ++tally_.commands;
    tally_.active_sessions = wait_.sessions().active_sessions();
  }

  conf::DirectConferenceNetwork network_;
  std::unique_ptr<RecordingNetwork> recorder_;
  conf::WaitQueueManager wait_;
  conf::RecoveryCoordinator recovery_;
  confnet::util::Rng rng_;
  u64 now_ = 0;
  ShardTally tally_;
};

class ConferenceBackend {
 public:
  /// `record` non-null: log every fabric call for the switchmod replay.
  ConferenceBackend(const cl::ClusterConfig& cfg, SpanLog& log,
                    NetLog* record)
      : log_(log) {
    const rt::RuntimeConfig rc = serving_config(cfg);
    for (u32 s = 0; s < cfg.shards; ++s)
      shards_.push_back(
          std::make_unique<ConferenceShard>(s, rc.shard, &op_, record));
  }

  std::optional<u32> open_one(u32 op, u32 shard, u32 size) {
    op_ = op;
    const auto o = SpanLog::begin();
    const std::optional<u32> s = shards_[shard]->open(size);
    log_.end(o, op, kOpenSpan);
    return s;
  }
  void open_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs,
                 std::vector<std::optional<u32>>& out) {
    out.clear();
    for (const auto& [shard, size] : legs) out.push_back(open_one(op, shard, size));
  }
  void close_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs) {
    op_ = op;
    for (const auto& [shard, session] : legs) {
      const auto o = SpanLog::begin();
      shards_[shard]->close(session);
      log_.end(o, op, kCloseSpan);
    }
  }
  FaultAnswer fail_link(u32 op, u32 shard, u32 level, u32 row) {
    op_ = op;
    const auto o = SpanLog::begin();
    FaultAnswer a = shards_[shard]->fail_link(level, row);
    log_.end(o, op, kFailSpan);
    return a;
  }
  bool repair_link(u32 op, u32 shard, u32 level, u32 row) {
    op_ = op;
    const auto o = SpanLog::begin();
    const bool ok = shards_[shard]->repair_link(level, row);
    log_.end(o, op, kRepairSpan);
    return ok;
  }

  [[nodiscard]] const ConferenceShard& shard(u32 s) const { return *shards_[s]; }

 private:
  SpanLog& log_;
  u32 op_ = 0;
  std::vector<std::unique_ptr<ConferenceShard>> shards_;
};

// --- runtime inline backend --------------------------------------------------

/// Shards driven on the calling thread: Shard::submit, then
/// process_available, with the same pooled completion slot the runtime
/// hangs on each command.
class InlineBackend {
 public:
  InlineBackend(const cl::ClusterConfig& cfg, SpanLog& log) : log_(log) {
    const rt::RuntimeConfig rc = serving_config(cfg);
    for (u32 s = 0; s < cfg.shards; ++s)
      shards_.push_back(std::make_unique<rt::Shard>(s, rc.shard));
  }

  std::optional<u32> open_one(u32 op, u32 shard, u32 size) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kOpen;
    cmd.size = size;
    const rt::CommandResult r = run(op, shard, std::move(cmd), kOpenSpan);
    return served(r);
  }
  void open_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs,
                 std::vector<std::optional<u32>>& out) {
    out.clear();
    for (const auto& [shard, size] : legs) out.push_back(open_one(op, shard, size));
  }
  void close_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs) {
    for (const auto& [shard, session] : legs) {
      rt::Command cmd;
      cmd.kind = rt::CommandKind::kClose;
      cmd.session = session;
      (void)run(op, shard, std::move(cmd), kCloseSpan);
    }
  }
  FaultAnswer fail_link(u32 op, u32 shard, u32 level, u32 row) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kFailLink;
    cmd.level = level;
    cmd.row = row;
    rt::CommandResult r = run(op, shard, std::move(cmd), kFailSpan);
    return answer(std::move(r));
  }
  bool repair_link(u32 op, u32 shard, u32 level, u32 row) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kRepairLink;
    cmd.level = level;
    cmd.row = row;
    const rt::CommandResult r = run(op, shard, std::move(cmd), kRepairSpan);
    return r.status == rt::CommandStatus::kDone && r.ok;
  }

  [[nodiscard]] rt::ShardStats stats(u32 s) const { return shards_[s]->snapshot(); }

  static std::optional<u32> served(const rt::CommandResult& r) {
    if (r.status == rt::CommandStatus::kDone &&
        r.open.outcome == conf::RequestOutcome::kServed)
      return r.open.session;
    return std::nullopt;
  }
  static FaultAnswer answer(rt::CommandResult&& r) {
    FaultAnswer a;
    a.done = r.status == rt::CommandStatus::kDone;
    a.ok = r.ok;
    a.torn = std::move(r.torn_sessions);
    a.relocated = std::move(r.relocated);
    return a;
  }

 private:
  rt::CommandResult run(u32 op, u32 shard, rt::Command&& cmd,
                        const char* name) {
    rt::ResultSlot* slot = pool_.acquire();
    cmd.slot = slot;
    const auto o = SpanLog::begin();
    ledger_require(shards_[shard]->submit(std::move(cmd)) ==
                       rt::SubmitStatus::kAccepted,
                   "runtime.inline", "submit refused");
    (void)shards_[shard]->process_available();
    rt::CommandResult r = slot->wait_take();
    log_.end(o, op, name);
    pool_.release(slot);
    return r;
  }

  SpanLog& log_;
  rt::ResultPool pool_;
  std::vector<std::unique_ptr<rt::Shard>> shards_;
};

// --- runtime round-trip backend ----------------------------------------------

/// The runtime with its worker threads, driven exactly as the cluster
/// drives it: call_pooled for single commands, stage_call + submit_stage
/// for leg fan-outs and closes.
class RoundTripBackend {
 public:
  RoundTripBackend(const cl::ClusterConfig& cfg, SpanLog& log)
      : log_(log), rt_(serving_config(cfg)) {
    rt_.start();
  }
  ~RoundTripBackend() { rt_.stop(); }

  RoundTripBackend(const RoundTripBackend&) = delete;
  RoundTripBackend& operator=(const RoundTripBackend&) = delete;

  std::optional<u32> open_one(u32 op, u32 shard, u32 size) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kOpen;
    cmd.size = size;
    const auto o = SpanLog::begin();
    const rt::CommandResult r = rt_.call_pooled(shard, std::move(cmd)).take();
    log_.end(o, op, kOpenSpan);
    return InlineBackend::served(r);
  }
  void open_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs,
                 std::vector<std::optional<u32>>& out) {
    out.clear();
    const auto o = SpanLog::begin();
    pending_.clear();
    for (const auto& [shard, size] : legs) {
      rt::Command cmd;
      cmd.kind = rt::CommandKind::kOpen;
      cmd.size = size;
      pending_.push_back(rt_.stage_call(stage_, shard, std::move(cmd)));
    }
    (void)rt_.submit_stage(stage_);
    for (auto& p : pending_) out.push_back(InlineBackend::served(p.take()));
    pending_.clear();
    log_.end(o, op, kOpenSpan);
  }
  void close_legs(u32 op, const std::vector<std::pair<u32, u32>>& legs) {
    const auto o = SpanLog::begin();
    pending_.clear();
    for (const auto& [shard, session] : legs) {
      rt::Command cmd;
      cmd.kind = rt::CommandKind::kClose;
      cmd.session = session;
      pending_.push_back(rt_.stage_call(stage_, shard, std::move(cmd)));
    }
    (void)rt_.submit_stage(stage_);
    for (auto& p : pending_) (void)p.take();
    pending_.clear();
    log_.end(o, op, kCloseSpan);
  }
  FaultAnswer fail_link(u32 op, u32 shard, u32 level, u32 row) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kFailLink;
    cmd.level = level;
    cmd.row = row;
    const auto o = SpanLog::begin();
    rt::CommandResult r = rt_.call_pooled(shard, std::move(cmd)).take();
    log_.end(o, op, kFailSpan);
    return InlineBackend::answer(std::move(r));
  }
  bool repair_link(u32 op, u32 shard, u32 level, u32 row) {
    rt::Command cmd;
    cmd.kind = rt::CommandKind::kRepairLink;
    cmd.level = level;
    cmd.row = row;
    const auto o = SpanLog::begin();
    const rt::CommandResult r = rt_.call_pooled(shard, std::move(cmd)).take();
    log_.end(o, op, kRepairSpan);
    return r.status == rt::CommandStatus::kDone && r.ok;
  }

  [[nodiscard]] rt::Runtime& runtime() { return rt_; }

 private:
  SpanLog& log_;
  rt::Runtime rt_;
  rt::CommandStage stage_;
  std::vector<rt::PooledResult> pending_;
};

}  // namespace perfbench
