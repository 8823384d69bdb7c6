// Runtime stress suite — the dynamic (TSan) half of the concurrent-runtime
// gate. Command storms from many producer threads, concurrent fault
// injection, session churn, and snapshot readers all hammer a 4+-shard
// Runtime at once; the `tsan` CMake preset (CI's static-analysis job) runs
// this binary under ThreadSanitizer to catch ordering bugs the functional
// tests can't. Synchronous single-shard calls (call_pooled, one-shard
// submit_stage bursts) apply on the calling thread under the shard's
// execution lease while workers serve fire-and-forget submits and
// multi-shard bursts, so the storms below race callers against each
// other, against the workers and against stop(). Every test also asserts
// functional invariants (completion counts, snapshot consistency,
// conservation laws, worker-count invariance), so the suite gates plain
// Release builds too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/result_pool.hpp"
#include "runtime/runtime.hpp"
#include "runtime/shard.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace conf = confnet::conf;
namespace rt = confnet::runtime;

rt::RuntimeConfig stress_config(u32 shards, u32 workers) {
  rt::RuntimeConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.shard.stages = 4;
  cfg.shard.queue_depth = 128;
  cfg.shard.seed = 99;
  cfg.shard.trace_capacity = 64;
  return cfg;
}

// Many producers blasting opens/batches/closes at every shard while the
// runtime churns; every accepted command's slot must be fulfilled.
TEST(RuntimeStress, CommandStormAcrossShards) {
  constexpr u32 kShards = 4;
  constexpr u32 kWorkers = 4;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;

  rt::Runtime r(stress_config(kShards, kWorkers));
  r.start();

  rt::ResultPool pool;
  std::vector<std::vector<rt::ResultSlot*>> slots(kProducers);
  std::atomic<u64> accepted_submits{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<rt::ResultSlot*>& mine = slots[static_cast<std::size_t>(p)];
      confnet::util::Rng rng(static_cast<u64>(p) + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        rt::Command c;
        const u64 roll = rng.below(10);
        if (roll < 6) {
          c.kind = rt::CommandKind::kOpen;
          c.size = 2 + static_cast<u32>(rng.below(5));
        } else if (roll < 8) {
          c.kind = rt::CommandKind::kOpenBatch;
          c.batch_sizes = {2, 3, static_cast<u32>(2 + rng.below(3))};
        } else {
          c.kind = rt::CommandKind::kClose;
          c.session = static_cast<u32>(rng.below(40));
        }
        c.slot = mine.emplace_back(pool.acquire());
        const u32 shard = static_cast<u32>(rng.below(kShards));
        if (r.submit_to_blocking(shard, std::move(c)) ==
            rt::SubmitStatus::kAccepted)
          accepted_submits.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  r.stop();

  // Post-stop rejections also fulfill their slot, so every slot being
  // kDone shows that nothing raced; here every submit happened before
  // stop().
  EXPECT_EQ(accepted_submits.load(),
            static_cast<u64>(kProducers) * kPerProducer);
  u64 completions = 0;
  for (const auto& mine : slots)
    for (rt::ResultSlot* slot : mine)
      if (slot->wait_take().status == rt::CommandStatus::kDone) ++completions;
  EXPECT_EQ(completions, accepted_submits.load());
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, accepted_submits.load());
  for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
}

// Churn + concurrent fault injection + snapshot readers: opens race with
// fail/repair commands on the same shards while another thread reads
// snapshots. Conservation must hold at the end.
TEST(RuntimeStress, ConcurrentFaultsAndChurn) {
  constexpr u32 kShards = 4;
  rt::Runtime r(stress_config(kShards, 2));
  r.start();

  std::atomic<bool> go{true};

  std::thread churner([&] {
    confnet::util::Rng rng(11);
    for (int i = 0; i < 1200; ++i) {
      rt::Command c;
      if (rng.chance(0.25)) {
        c.kind = rt::CommandKind::kClose;
        c.session = static_cast<u32>(rng.below(60));
      } else {
        c.kind = rt::CommandKind::kOpen;
        c.size = 2 + static_cast<u32>(rng.below(5));
      }
      (void)r.submit_to_blocking(static_cast<u32>(rng.below(kShards)),
                                 std::move(c));
    }
  });

  std::thread faulter([&] {
    confnet::util::Rng rng(13);
    for (int i = 0; i < 120; ++i) {
      const u32 shard = static_cast<u32>(rng.below(kShards));
      const u32 level = static_cast<u32>(rng.below(3));
      const u32 row = static_cast<u32>(rng.below(8));
      rt::Command fail;
      fail.kind = rt::CommandKind::kFailLink;
      fail.level = level;
      fail.row = row;
      (void)r.submit_to_blocking(shard, std::move(fail));
      rt::Command repair;
      repair.kind = rt::CommandKind::kRepairLink;
      repair.level = level;
      repair.row = row;
      (void)r.submit_to_blocking(shard, std::move(repair));
    }
  });

  std::thread reader([&] {
    while (go.load()) {
      const rt::RuntimeSnapshot snap = r.snapshot();
      for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
    }
  });

  churner.join();
  faulter.join();
  go.store(false);
  reader.join();
  r.stop();

  const rt::RuntimeSnapshot snap = r.snapshot();
  for (u32 s = 0; s < kShards; ++s) {
    const rt::ShardStats& st = snap.shards[s];
    EXPECT_TRUE(st.consistent());
    // Loss-mode conservation: every interrupted session was repacked in
    // place or dropped inside its fail command; nothing is left pending.
    const conf::RecoveryCoordinator& recovery = r.shard(s).recovery();
    EXPECT_EQ(st.torn_down, st.recovered + recovery.stats().dropped);
    EXPECT_EQ(recovery.pending(), 0u);
  }
  EXPECT_EQ(snap.total.completed, r.submitted());
}

// Producers racing stop(): every command is either applied or rejected
// with kRejectedStopped — never dropped without an answer.
TEST(RuntimeStress, StopRaceLosesNoCommands) {
  for (int round = 0; round < 8; ++round) {
    rt::Runtime r(stress_config(4, 2));
    r.start();

    rt::ResultPool pool;
    constexpr int kProducers = 3;
    // Per producer: slots of accepted or inline-rejected commands, and of
    // bounced ones (returned to the caller, intentionally abandoned).
    std::vector<std::vector<rt::ResultSlot*>> accounted(kProducers);
    std::vector<std::vector<rt::ResultSlot*>> bounced(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        confnet::util::Rng rng(static_cast<u64>(round * 10 + p) + 1);
        const auto me = static_cast<std::size_t>(p);
        for (int i = 0; i < 200; ++i) {
          rt::Command c;
          c.kind = rt::CommandKind::kOpen;
          c.size = 2;
          c.slot = pool.acquire();
          rt::ResultSlot* const slot = c.slot;
          switch (r.submit_to(static_cast<u32>(rng.below(4)), std::move(c))) {
            case rt::SubmitStatus::kAccepted:
            case rt::SubmitStatus::kStopped:
              accounted[me].push_back(slot);
              break;
            case rt::SubmitStatus::kQueueFull:
              bounced[me].push_back(slot);
              break;
          }
        }
      });
    }
    // Stop somewhere in the middle of the storm.
    r.stop();
    for (auto& t : producers) t.join();
    // stop() applied everything accepted before it; later submits were
    // answered inline. Either way the slot is fulfilled by now.
    u64 answered = 0;
    u64 total = 0;
    for (const auto& mine : accounted) {
      total += mine.size();
      for (rt::ResultSlot* slot : mine)
        if (slot->ready()) ++answered;
    }
    EXPECT_EQ(answered, total);
    for (const auto& mine : bounced)
      for (rt::ResultSlot* slot : mine) EXPECT_FALSE(slot->ready());
  }
}

rt::Command open_cmd(u32 size) {
  rt::Command c;
  c.kind = rt::CommandKind::kOpen;
  c.size = size;
  return c;
}

rt::Command close_cmd(u32 session) {
  rt::Command c;
  c.kind = rt::CommandKind::kClose;
  c.session = session;
  return c;
}

// One producer's mixed traffic: synchronous calls, staged bursts wider
// than the queue, and fire-and-forget submits, all on shared shards. Every
// pooled result it takes is counted as applied (`done_ok`) or refused
// (`stopped`).
void mixed_traffic(rt::Runtime& r, u64 seed, int rounds, u32 shards,
                   std::atomic<u64>& done_ok, std::atomic<u64>& stopped) {
  confnet::util::Rng rng(seed);
  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  const auto count = [&](const rt::CommandResult& res) {
    if (res.status == rt::CommandStatus::kDone)
      done_ok.fetch_add(1, std::memory_order_relaxed);
    else
      stopped.fetch_add(1, std::memory_order_relaxed);
  };
  for (int i = 0; i < rounds; ++i) {
    const auto shard = static_cast<u32>(rng.below(shards));
    switch (rng.below(3)) {
      case 0: {
        const auto res =
            r.call_pooled(shard, open_cmd(2 + static_cast<u32>(rng.below(4))))
                .take();
        count(res);
        if (res.open.session.has_value())
          count(r.call_pooled(shard, close_cmd(*res.open.session)).take());
        break;
      }
      case 1: {
        // Wider than the queue bound and mostly over several shards: the
        // flush must wake a full queue's worker mid-burst.
        const int width = 4 + static_cast<int>(rng.below(12));
        for (int k = 0; k < width; ++k) {
          const auto target =
              k % 2 == 0 ? shard : static_cast<u32>(rng.below(shards));
          pending.push_back(r.stage_call(stage, target, open_cmd(2)));
        }
        (void)r.submit_stage(stage);
        for (auto& p : pending) count(p.take());
        pending.clear();
        break;
      }
      default: {
        rt::Command c = rng.chance(0.5)
                            ? open_cmd(2)
                            : close_cmd(static_cast<u32>(rng.below(32)));
        if (r.submit_to(shard, std::move(c)) == rt::SubmitStatus::kQueueFull)
          (void)r.submit_to_blocking(shard, std::move(c));
        break;
      }
    }
  }
}

// Producers mix call_pooled, staged bursts and fire-and-forget submits on
// the same shards while the workers run: callers and workers contend for
// each shard's lease, and nothing may be stranded in a queue or applied
// twice.
TEST(RuntimeStress, CallersAndWorkersShareShards) {
  constexpr u32 kShards = 4;
  constexpr int kProducers = 4;
  constexpr int kRounds = 300;

  rt::RuntimeConfig cfg = stress_config(kShards, 2);
  cfg.shard.queue_depth = 8;  // staged bursts overflow it
  rt::Runtime r(cfg);
  r.start();

  std::atomic<u64> done_ok{0};
  std::atomic<u64> stopped{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      mixed_traffic(r, static_cast<u64>(p) + 100, kRounds, kShards, done_ok,
                    stopped);
    });
  }
  for (auto& t : producers) t.join();
  r.drain();

  EXPECT_GT(done_ok.load(), 0u);
  EXPECT_EQ(stopped.load(), 0u) << "every slot completes with kDone";
  const rt::RuntimeSnapshot snap = r.snapshot();
  for (u32 s = 0; s < kShards; ++s) {
    EXPECT_TRUE(snap.shards[s].consistent());
    EXPECT_EQ(snap.shards[s].completed, r.shard(s).submitted());
  }
  EXPECT_EQ(snap.total.rejected_stopped, 0u);
  r.stop();
}

// stop() lands while producers are mid-call. Every pooled result still
// completes (applied, or refused with kRejectedStopped), and once stop()
// returns no thread is inside a shard: the control plane can be peeked
// while late producers are still knocking.
TEST(RuntimeStress, StopWhileCallersApply) {
  constexpr u32 kShards = 4;
  constexpr int kProducers = 3;
  for (int round = 0; round < 4; ++round) {
    rt::RuntimeConfig cfg = stress_config(kShards, 2);
    cfg.shard.queue_depth = 8;
    rt::Runtime r(cfg);
    r.start();

    std::atomic<u64> done_ok{0};
    std::atomic<u64> stopped{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        mixed_traffic(r, static_cast<u64>(round * 10 + p) + 1, 400, kShards,
                      done_ok, stopped);
      });
    }
    while (done_ok.load(std::memory_order_relaxed) < 50)
      std::this_thread::yield();
    r.stop();

    // Post-stop peeks, raced only by producers whose commands are now
    // refused inline.
    const rt::RuntimeSnapshot snap = r.snapshot();
    for (u32 s = 0; s < kShards; ++s) {
      EXPECT_TRUE(snap.shards[s].consistent());
      EXPECT_EQ(snap.shards[s].completed, r.shard(s).submitted());
      EXPECT_EQ(r.shard(s).wait().sessions().active_sessions(),
                snap.shards[s].active_sessions);
    }
    for (auto& t : producers) t.join();
    EXPECT_GT(done_ok.load(), 0u);
  }
}

// The lease protocol itself, with no worker to fall back on: producers on
// one shard each push a command and call try_process(), never waiting for
// a result. A push that lands while another thread holds the lease must be
// drained by that holder's re-check, so once every producer has returned
// nothing may be left in the queue.
TEST(RuntimeStress, LeaseRecheckStrandsNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  rt::ShardConfig cfg = stress_config(1, 1).shard;
  rt::Shard shard(0, cfg);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&shard, p] {
      confnet::util::Rng rng(static_cast<u64>(p) + 7);
      for (int i = 0; i < kPerProducer; ++i) {
        rt::Command c = rng.chance(0.5)
                            ? open_cmd(2)
                            : close_cmd(static_cast<u32>(rng.below(64)));
        ASSERT_EQ(shard.submit_blocking(std::move(c)),
                  rt::SubmitStatus::kAccepted);
        (void)shard.try_process();
      }
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(shard.queue_depth(), 0u);
  const rt::ShardStats st = shard.snapshot();
  EXPECT_EQ(st.completed, shard.submitted());
  EXPECT_EQ(st.completed, static_cast<u64>(kProducers) * kPerProducer);
  EXPECT_TRUE(st.consistent());
}

// Worker-count invariance on the caller-runs path: one producer thread
// per shard drives a seeded open/close script through call_pooled, all
// shards at once. Whoever holds the lease applies in per-shard FIFO order,
// so 1 and 2 workers must give identical outcomes.
TEST(RuntimeStress, CallerRunsOutcomesIndependentOfWorkerCount) {
  constexpr u32 kShards = 4;
  constexpr int kCommands = 300;
  std::vector<std::vector<std::vector<u32>>> runs;  // [run][shard] -> ids
  for (u32 workers : {1u, 2u}) {
    rt::Runtime r(stress_config(kShards, workers));
    r.start();
    std::vector<std::vector<u32>> per_shard(kShards);
    std::vector<std::thread> producers;
    producers.reserve(kShards);
    for (u32 s = 0; s < kShards; ++s) {
      producers.emplace_back([&r, &per_shard, s] {
        confnet::util::Rng script(500 + s);
        std::vector<u32>& seen = per_shard[s];
        std::vector<u32> live;
        for (int i = 0; i < kCommands; ++i) {
          if (i % 3 == 2 && !live.empty()) {
            (void)r.call_pooled(s, close_cmd(live.front())).take();
            live.erase(live.begin());
            continue;
          }
          const auto size = 2 + static_cast<u32>(script.below(6));
          const auto res = r.call_pooled(s, open_cmd(size)).take();
          seen.push_back(res.open.session.value_or(0));
          if (res.open.session.has_value()) live.push_back(*res.open.session);
        }
      });
    }
    for (auto& t : producers) t.join();
    r.stop();
    runs.push_back(std::move(per_shard));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

}  // namespace
