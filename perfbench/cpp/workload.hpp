// Workload definitions and the closed-loop churn generator.
//
// One client (the coordinator thread) drives cluster::Cluster and waits for
// every verdict before it issues the next call. The generator sees only
// verdicts; the program sees only the LegSpecs it generates. Churn rule:
// close the oldest live conference once the live target is reached or right
// after a refused open, otherwise open a new one. Workloads with faults turn
// every `fault_every`-th op into a link fail or repair on a random shard.
//
// Every random draw comes from one util::Rng seeded from --seed, so one seed
// fixes the op stream and (because cluster outcomes are deterministic) every
// verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
namespace cl = confnet::cluster;

constexpr u32 kShards = 4;
// Two runtime workers plus the coordinator: 3 threads on a 4-core host. A
// fourth worker leaves no core free and makes timings scheduler-bound.
constexpr u32 kWorkers = 2;
// Trunk lanes per shard pair, and spanning conferences multiplexed on one
// lane. Only span_mesh opens spanning conferences.
constexpr u32 kTrunkLanes = 4;
constexpr u32 kConferencesPerLane = 2;
// Live faulty links at most, in workloads with link faults.
constexpr u32 kMaxFaulty = 2;

struct WorkloadSpec {
  std::string_view name;
  u32 stages = 8;        // N = 2^stages ports per shard
  u32 dilation = 4;
  u32 min_span = 1;      // shards per conference (1 = intra-shard)
  u32 max_span = 1;
  u32 min_members = 2;   // per leg
  u32 max_members = 4;
  u32 live_target = 200;
  u32 fault_every = 0;   // 0 = no link faults
  u64 preroll_ops = 0;   // untimed churn after the fill, until the port
                         // layout (and so the refusal rate) is stationary
  u64 segment_ops = 0;   // timed ops per segment
  u32 fixed_segments = 0;  // segments every run measures; the seeded
                           // window the refusal counts come from
};

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Intra-shard only, small conferences: the shard does ~2 us of
      // admission work per open, the rest is the cross-thread hand-off and
      // the coordinator. 240 live (not 200) keeps the seeded refusal share
      // steady across seeds; refusals come from link capacity.
      {"intra_small", 8, 4, 1, 1, 2, 4, 240, 0, 80000, 20000, 20},
      // Every open spans 2-4 shards on the trunk lanes:
      // trunk claim, staged k-way leg fan-out, settle/rollback.
      {"span_mesh", 8, 4, 2, 4, 1, 3, 12, 0, 10000, 20000, 16},
      // Large intra-shard conferences on bigger, thinner fabrics with link
      // faults: placement, FabricState deltas, capacity refusals, and
      // teardown/repack on faults.
      {"wide_faults", 10, 2, 1, 1, 16, 96, 6, 256, 5000, 5000, 24},
  };
  return specs;
}

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

inline cl::ClusterConfig cluster_config(const WorkloadSpec& w, u32 workers,
                                        u64 seed) {
  cl::ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.stages = w.stages;
  cfg.dilation = w.dilation;
  cfg.policy = confnet::conf::PlacementPolicy::kFirstFit;
  cfg.trunk_lanes = kTrunkLanes;
  cfg.conferences_per_lane = kConferencesPerLane;
  cfg.seed = seed;
  return cfg;
}

enum class OpKind : std::uint8_t { kOpen, kClose, kFailLink, kRepairLink };

/// One cluster call. `legs` is set for opens, `conf` for closes, and
/// shard/level/row for link faults.
struct Op {
  OpKind kind = OpKind::kOpen;
  std::vector<cl::LegSpec> legs;
  u64 conf = 0;
  u32 shard = 0;
  u32 level = 0;
  u32 row = 0;
};

/// What the cluster answered; replays at lower layers must answer the same.
struct Verdict {
  cl::Admit admit = cl::Admit::kBlockedLocal;  // opens
  u64 id = 0;                                  // accepted opens
  bool ok = false;                             // close / repair
  std::vector<u64> interrupted;                // fail_link
};

class Churn {
 public:
  Churn(const WorkloadSpec& w, u64 seed) : w_(w), rng_(seed) {}

  /// Next call, given every earlier verdict.
  Op next() {
    ++issued_;
    Op op;
    if (w_.fault_every != 0 && issued_ % w_.fault_every == 0) {
      if (!faulty_.empty() &&
          (faulty_.size() >= kMaxFaulty || rng_.chance(0.5))) {
        const Link l = faulty_.front();
        faulty_.pop_front();
        op.kind = OpKind::kRepairLink;
        op.shard = l.shard;
        op.level = l.level;
        op.row = l.row;
      } else {
        const Link l = fresh_link();
        faulty_.push_back(l);
        op.kind = OpKind::kFailLink;
        op.shard = l.shard;
        op.level = l.level;
        op.row = l.row;
      }
      return op;
    }
    if (!live_.empty() && (close_next_ || live_.size() >= w_.live_target)) {
      close_next_ = false;
      op.kind = OpKind::kClose;
      op.conf = live_.front();
      live_.pop_front();
      return op;
    }
    op.kind = OpKind::kOpen;
    const u32 span = draw(w_.min_span, w_.max_span);
    if (span == 1) {
      op.legs.push_back(cl::LegSpec{static_cast<u32>(rng_.below(kShards)),
                                    draw(w_.min_members, w_.max_members)});
    } else {
      for (const u32 s : rng_.sample_distinct(kShards, span))
        op.legs.push_back(cl::LegSpec{s, draw(w_.min_members, w_.max_members)});
    }
    return op;
  }

  /// Feed the verdict of the op next() just returned.
  void observe(const Op& op, const Verdict& v) {
    if (op.kind == OpKind::kOpen) {
      if (v.admit == cl::Admit::kAccepted)
        live_.push_back(v.id);
      else
        close_next_ = true;
    } else if (op.kind == OpKind::kFailLink) {
      for (const u64 id : v.interrupted) std::erase(live_, id);
    }
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_.size(); }

 private:
  struct Link {
    u32 shard;
    u32 level;
    u32 row;
  };

  u32 draw(u32 lo, u32 hi) {
    return static_cast<u32>(rng_.between(lo, hi));
  }

  Link fresh_link() {
    for (;;) {
      // Interstage links live at levels 1..n-1. First-fit placement packs
      // the live conferences into the low ports, and their links stay in
      // the low rows, so faults land in the lowest quarter of the rows
      // where they can hit a conference.
      Link l{static_cast<u32>(rng_.below(kShards)),
             1 + static_cast<u32>(rng_.below(w_.stages - 1)),
             static_cast<u32>(rng_.below(u64{1} << (w_.stages - 2)))};
      bool taken = false;
      for (const Link& f : faulty_)
        taken = taken || (f.shard == l.shard && f.level == l.level &&
                          f.row == l.row);
      if (!taken) return l;
    }
  }

  const WorkloadSpec& w_;
  confnet::util::Rng rng_;
  std::deque<u64> live_;
  std::deque<Link> faulty_;
  bool close_next_ = false;
  u64 issued_ = 0;
};

}  // namespace perfbench
