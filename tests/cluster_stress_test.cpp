// Cluster stress suite — the dynamic (TSan) half of the cluster gate. The
// cluster API itself is externally synchronized (one coordinator), but the
// runtime underneath accepts submissions from any thread: these tests run
// the coordinator's spanning churn concurrently with producer threads
// blasting intra-shard traffic straight into serving_runtime(), which is
// exactly the documented mixed-ownership deployment. The `tsan` CMake
// preset runs this binary under ThreadSanitizer; the functional assertions
// (conservation, oracle equivalence after quiescence) gate plain builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "runtime/command.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace cl = confnet::cluster;
namespace rt = confnet::runtime;

cl::ClusterConfig stress_config(u32 workers) {
  cl::ClusterConfig cfg;
  cfg.shards = 4;
  cfg.workers = workers;
  cfg.stages = 4;
  cfg.trunk_lanes = 4;
  cfg.queue_depth = 128;
  cfg.seed = 99;
  return cfg;
}

// Coordinator churns spanning conferences and trunk faults while producer
// threads feed un-tracked intra traffic through the serving runtime. After
// everyone quiesces, the cluster must still be conserving and
// oracle-equivalent (the producers' sessions live only in the shards).
TEST(ClusterStress, CoordinatorSpansUnderProducerTraffic) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 300;
  constexpr int kCoordinatorSteps = 200;

  cl::Cluster c(stress_config(4));
  c.start();

  std::atomic<u64> producer_completions{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 1);
      rt::Runtime& r = c.serving_runtime();
      std::vector<std::pair<u32, u32>> mine;  // (shard, session)
      for (int i = 0; i < kPerProducer; ++i) {
        const u32 shard = static_cast<u32>(rng.below(4));
        if (mine.size() > 4 || (!mine.empty() && rng.chance(0.4))) {
          rt::Command close;
          close.kind = rt::CommandKind::kClose;
          close.session = mine.back().second;
          const u32 target = mine.back().first;
          mine.pop_back();
          (void)r.call_pooled(target, std::move(close)).take();
        } else {
          rt::Command open;
          open.kind = rt::CommandKind::kOpen;
          open.size = static_cast<u32>(rng.between(2, 4));
          const auto res = r.call_pooled(shard, std::move(open)).take();
          if (res.open.session.has_value())
            mine.emplace_back(shard, *res.open.session);
        }
        producer_completions.fetch_add(1, std::memory_order_relaxed);
      }
      // Producers clean up their own sessions so the final cross_check
      // sees only coordinator-owned conferences plus empty shards.
      for (const auto& [shard, session] : mine) {
        rt::Command close;
        close.kind = rt::CommandKind::kClose;
        close.session = session;
        (void)r.call_pooled(shard, std::move(close)).take();
      }
    });
  }

  confnet::util::Rng rng(2024);
  std::vector<u64> ids;
  for (int step = 0; step < kCoordinatorSteps; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      const u32 a = static_cast<u32>(rng.below(4));
      const u32 b = (a + 1 + static_cast<u32>(rng.below(3))) % 4;
      const auto r = c.open({{std::min(a, b), 2}, {std::max(a, b), 2}});
      if (r.result == cl::Admit::kAccepted) ids.push_back(r.id);
    } else if (roll < 0.85 && !ids.empty()) {
      (void)c.close(ids.back());
      ids.pop_back();
    } else {
      const u32 a = static_cast<u32>(rng.below(3));
      for (const u64 torn : c.fail_trunk(a, a + 1))
        ids.erase(std::remove(ids.begin(), ids.end(), torn), ids.end());
      (void)c.repair_trunk(a, a + 1);
    }
  }

  for (auto& t : producers) t.join();
  c.drain();

  EXPECT_EQ(producer_completions.load(),
            static_cast<u64>(kProducers) * kPerProducer);
  EXPECT_TRUE(c.stats().consistent());
  EXPECT_NO_THROW(confnet::audit::check_cluster(c));
  EXPECT_NO_THROW(c.cross_check());
  const auto snap = c.runtime_snapshot();
  EXPECT_TRUE(snap.total.consistent());
  c.stop();
}

// Snapshot readers race the coordinator's churn: runtime_snapshot() is the
// only cluster read that is thread-safe by contract, and it must stay
// internally consistent while spans open and close. The churn waits for
// the reader's first snapshot and runs until the reader has taken several
// more, so the two overlap however fast a cluster op is.
TEST(ClusterStress, SnapshotReadersRaceCoordinatorChurn) {
  constexpr int kMinSteps = 400;
  constexpr u64 kMinSnapshotsDuringChurn = 8;

  cl::Cluster c(stress_config(2));
  c.start();

  std::atomic<bool> done{false};
  std::atomic<u64> snapshots{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = c.runtime_snapshot();
      EXPECT_TRUE(snap.total.consistent());
      snapshots.fetch_add(1, std::memory_order_release);
    }
  });

  while (snapshots.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  const u64 before_churn = snapshots.load(std::memory_order_acquire);

  confnet::util::Rng rng(7);
  std::vector<u64> ids;
  for (int step = 0;
       step < kMinSteps || snapshots.load(std::memory_order_acquire) <
                               before_churn + kMinSnapshotsDuringChurn;
       ++step) {
    if (ids.size() < 8 && rng.chance(0.6)) {
      const auto r =
          c.open({{static_cast<u32>(rng.below(4)),
                   static_cast<u32>(rng.between(2, 5))}});
      if (r.result == cl::Admit::kAccepted) ids.push_back(r.id);
    } else if (!ids.empty()) {
      (void)c.close(ids.front());
      ids.erase(ids.begin());
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots.load(), 0u);
  c.drain();
  EXPECT_NO_THROW(c.cross_check());
  c.stop();
}

}  // namespace
