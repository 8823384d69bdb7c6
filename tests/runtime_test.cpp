// Functional tests of the concurrent admission runtime: command
// round-trips, the loss-mode construction contract, the bounded-queue edge
// cases (backpressure, bounce-once accounting across retries,
// drain-on-stop with in-flight batches, post-stop rejection), the
// lock-lean producer path (pooled completions that recycle their slots,
// staged bursts applied on the caller when they touch one shard and by the
// workers otherwise, tiny-queue flushes that must not self-deadlock),
// cross-shard snapshot consistency, fault commands and
// their conservation law, and the determinism contract (per-shard outcomes
// depend only on the per-shard command sequence and seed, never on how
// shards are packed onto worker threads, and equal a serial oracle's).
// Every completion is observed through a pooled ResultSlot, the runtime's
// one completion channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conference/designs.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/queue.hpp"
#include "runtime/result_pool.hpp"
#include "runtime/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using confnet::min::u32;
using confnet::min::u64;
namespace conf = confnet::conf;
namespace rt = confnet::runtime;

rt::RuntimeConfig small_config(u32 shards, u32 workers) {
  rt::RuntimeConfig cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.shard.stages = 4;  // 16 ports per shard
  cfg.shard.queue_depth = 64;
  cfg.shard.seed = 42;
  return cfg;
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

rt::Command link_cmd(rt::CommandKind kind, u32 level, u32 row) {
  rt::Command c;
  c.kind = kind;
  c.level = level;
  c.row = row;
  return c;
}

// ---------------------------------------------------------------------------
// Basic lifecycle and command round-trips.
// ---------------------------------------------------------------------------

TEST(Runtime, OpenCloseRoundTripThroughSlots) {
  rt::Runtime r(small_config(2, 1));
  r.start();

  auto opened = r.call_pooled(0, open_cmd(3)).take();
  ASSERT_EQ(opened.status, rt::CommandStatus::kDone);
  ASSERT_EQ(opened.open.outcome, conf::RequestOutcome::kServed);
  ASSERT_TRUE(opened.open.session.has_value());
  EXPECT_EQ(opened.shard, 0u);

  auto closed = r.call_pooled(0, close_cmd(*opened.open.session)).take();
  EXPECT_EQ(closed.status, rt::CommandStatus::kDone);
  EXPECT_TRUE(closed.ok);

  // Closing a session that no longer exists is a tolerated no-op.
  auto ghost = r.call_pooled(0, close_cmd(*opened.open.session)).take();
  EXPECT_EQ(ghost.status, rt::CommandStatus::kDone);
  EXPECT_FALSE(ghost.ok);

  r.stop();
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.opens, 1u);
  EXPECT_EQ(snap.total.accepted, 1u);
  EXPECT_EQ(snap.total.closes, 1u);
  EXPECT_EQ(snap.total.commands, 3u);
  EXPECT_EQ(snap.total.active_sessions, 0u);
}

TEST(Runtime, ConstructionRejectsHoldQueueAndRetryBudget) {
  // A runtime shard is loss-mode by construction: the defaults are the
  // only accepted values of the hold-queue and retry knobs.
  EXPECT_NO_THROW(rt::Runtime{small_config(1, 1)});
  rt::RuntimeConfig held = small_config(1, 1);
  held.shard.wait_capacity = 8;
  EXPECT_THROW(rt::Runtime{held}, confnet::Error);
  rt::RuntimeConfig bypass = small_config(1, 1);
  bypass.shard.wait_bypass = true;
  EXPECT_THROW(rt::Runtime{bypass}, confnet::Error);
  rt::RuntimeConfig retrying = small_config(1, 1);
  retrying.shard.recovery.max_retries = 3;
  EXPECT_THROW(rt::Runtime{retrying}, confnet::Error);
}

TEST(Runtime, OpenBatchReportsInputOrderOutcomes) {
  rt::Runtime r(small_config(1, 1));
  r.start();
  rt::Command c;
  c.kind = rt::CommandKind::kOpenBatch;
  c.batch_sizes = {2, 5, 3};
  auto result = r.call_pooled(0, std::move(c)).take();
  r.stop();
  ASSERT_EQ(result.status, rt::CommandStatus::kDone);
  ASSERT_EQ(result.batch.size(), 3u);

  // The runtime must report exactly what a serial WaitQueueManager fed the
  // same batch with the same seed reports, in input order. (Not all three
  // need to be admitted — blocking is the point of these fabrics.)
  const rt::RuntimeConfig cfg = small_config(1, 1);
  conf::DirectConferenceNetwork net(
      cfg.shard.kind, cfg.shard.stages,
      conf::DilationProfile::uniform(cfg.shard.stages, 1));
  conf::WaitQueueManager oracle(net, cfg.shard.policy,
                                cfg.shard.wait_capacity,
                                cfg.shard.wait_bypass, cfg.shard.backend);
  confnet::util::Rng rng(cfg.shard.seed);
  const auto expected = oracle.request_batch({2, 5, 3}, rng);
  ASSERT_EQ(expected.size(), 3u);
  u32 served = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.batch[i].outcome, expected[i].outcome);
    EXPECT_EQ(result.batch[i].session.has_value(),
              expected[i].session.has_value());
    if (result.batch[i].session) ++served;
  }
  EXPECT_GE(served, 1u);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.opens, 3u);
  EXPECT_EQ(snap.total.accepted, static_cast<u64>(served));
}

// ---------------------------------------------------------------------------
// Queue edge cases.
// ---------------------------------------------------------------------------

TEST(Runtime, FullQueueBackpressureReturnsCommandToCaller) {
  // No workers running yet, so the queue can only fill: capacity accepts,
  // the next submit bounces with kQueueFull and the command is NOT consumed
  // (its slot must never be fulfilled).
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.queue_depth = 4;
  rt::Runtime r(cfg);
  rt::ResultPool pool;

  std::vector<rt::ResultSlot*> slots;
  for (int i = 0; i < 4; ++i) {
    rt::Command c = open_cmd(2);
    c.slot = slots.emplace_back(pool.acquire());
    EXPECT_EQ(r.submit_to(0, std::move(c)), rt::SubmitStatus::kAccepted);
  }
  // A batch command: its size vector shows whether the bounce consumed it.
  rt::Command extra;
  extra.kind = rt::CommandKind::kOpenBatch;
  extra.batch_sizes = {2};
  extra.slot = pool.acquire();
  EXPECT_EQ(r.submit_to(0, std::move(extra)), rt::SubmitStatus::kQueueFull);
  EXPECT_FALSE(extra.slot->ready());
  EXPECT_EQ(extra.batch_sizes.size(), 1u);  // caller still owns it

  // Once workers run, the backlog drains and a resubmit goes through.
  r.start();
  r.drain();
  rt::ResultSlot* const extra_slot = extra.slot;
  EXPECT_EQ(r.submit_to(0, std::move(extra)), rt::SubmitStatus::kAccepted);
  r.drain();
  r.stop();
  int completions = 0;
  for (rt::ResultSlot* slot : slots)
    if (slot->wait_take().status == rt::CommandStatus::kDone) ++completions;
  EXPECT_EQ(completions, 4);
  EXPECT_EQ(extra_slot->wait_take().status, rt::CommandStatus::kDone);
  EXPECT_EQ(r.snapshot().total.completed, 5u);
}

TEST(Runtime, BouncedSubmitsAreCountedOnceAcrossRetry) {
  // Regression: a command that bounces off a full queue and is later
  // resubmitted must contribute exactly once to the pushed()-derived stats
  // (completed / submitted watermark). The bounces themselves are tracked
  // separately in submit_bounced.
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.queue_depth = 4;
  rt::Runtime r(cfg);
  rt::ResultPool pool;

  std::vector<rt::ResultSlot*> slots;
  for (int i = 0; i < 4; ++i) {
    rt::Command c = open_cmd(2);
    c.slot = slots.emplace_back(pool.acquire());
    ASSERT_EQ(r.submit_to(0, std::move(c)), rt::SubmitStatus::kAccepted);
  }
  rt::Command extra = open_cmd(2);
  extra.slot = slots.emplace_back(pool.acquire());
  EXPECT_EQ(r.submit_to(0, std::move(extra)), rt::SubmitStatus::kQueueFull);
  EXPECT_EQ(r.submit_to(0, std::move(extra)), rt::SubmitStatus::kQueueFull)
      << "a second attempt against the still-full queue bounces again";
  EXPECT_EQ(r.snapshot().total.submit_bounced, 2u);

  r.start();
  r.drain();
  EXPECT_EQ(r.submit_to(0, std::move(extra)), rt::SubmitStatus::kAccepted);
  r.drain();
  r.stop();

  int completions = 0;
  for (rt::ResultSlot* slot : slots)
    if (slot->wait_take().status == rt::CommandStatus::kDone) ++completions;
  EXPECT_EQ(completions, 5);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, 5u)
      << "the retried command must count once, not once per bounce";
  EXPECT_EQ(snap.total.opens, 5u);
  EXPECT_EQ(snap.total.submit_bounced, 2u);
  EXPECT_EQ(r.submitted(), 5u);
  for (const rt::ShardStats& s : snap.shards) EXPECT_TRUE(s.consistent());
}

// ---------------------------------------------------------------------------
// Pooled completions and staged bursts (the lock-lean producer path).
// ---------------------------------------------------------------------------

TEST(Runtime, PooledCallsRecycleSlots) {
  rt::Runtime r(small_config(2, 1));
  r.start();

  auto opened = r.call_pooled(0, open_cmd(3)).take();
  ASSERT_EQ(opened.status, rt::CommandStatus::kDone);
  ASSERT_TRUE(opened.open.session.has_value());
  EXPECT_TRUE(r.call_pooled(0, close_cmd(*opened.open.session)).take().ok);

  // A sequential open/close churn keeps exactly one slot in flight — the
  // pool must not grow past the concurrency high-water mark.
  const std::size_t before = r.pooled_slots();
  for (int i = 0; i < 200; ++i) {
    auto res = r.call_pooled(i % 2, open_cmd(2)).take();
    if (res.open.session)
      (void)r.call_pooled(i % 2, close_cmd(*res.open.session)).take();
  }
  EXPECT_EQ(r.pooled_slots(), before)
      << "steady-state pooled churn must recycle, never grow the arena";

  // An abandoned handle settles instead of leaking or racing: the dtor
  // waits for the in-flight fulfill, then recycles the slot.
  { auto dropped = r.call_pooled(0, open_cmd(2)); }
  r.drain();
  EXPECT_EQ(r.pooled_slots(), before);
  r.stop();

  // Post-stop pooled calls complete inline with kRejectedStopped.
  EXPECT_EQ(r.call_pooled(0, open_cmd(2)).take().status,
            rt::CommandStatus::kRejectedStopped);
}

TEST(Runtime, StagedBurstFlushesEveryCommandInOrder) {
  rt::RuntimeConfig cfg = small_config(4, 2);
  rt::Runtime r(cfg);
  r.start();

  rt::CommandStage stage;
  std::vector<rt::PooledResult> pending;
  for (u32 s = 0; s < 4; ++s)
    for (int i = 0; i < 8; ++i)
      pending.push_back(r.stage_call(stage, s, open_cmd(2)));
  EXPECT_EQ(stage.size(), 32u);
  ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
  EXPECT_TRUE(stage.empty()) << "a flushed stage must be left empty";

  u32 served = 0;
  for (auto& p : pending) {
    const auto res = p.take();
    EXPECT_EQ(res.status, rt::CommandStatus::kDone);
    if (res.open.session) ++served;
  }
  EXPECT_GE(served, 8u);
  // Flushing the emptied stage is a no-op.
  EXPECT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
  r.drain();
  EXPECT_EQ(r.snapshot().total.completed, 32u);

  // A stage flushed into a stopped runtime reports kStopped and every
  // pooled handle still completes inline.
  r.stop();
  pending.clear();
  rt::CommandStage late;
  pending.push_back(r.stage_call(late, 0, open_cmd(2)));
  EXPECT_EQ(r.submit_stage(late), rt::SubmitStatus::kStopped);
  EXPECT_EQ(pending.front().take().status,
            rt::CommandStatus::kRejectedStopped);
}

TEST(Runtime, StagedBurstSurvivesTinyQueues) {
  // Burst wider than the queue: nothing applies what the flush already
  // queued before it ends, so submit_stage must start that mid-flush — a
  // one-shard burst by draining the shard on the spot, a burst over two
  // shards by waking their worker — and block for space instead of
  // deadlocking against its own commands.
  for (u32 shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    rt::RuntimeConfig cfg = small_config(shards, 1);
    cfg.shard.queue_depth = 4;
    rt::Runtime r(cfg);
    r.start();

    rt::CommandStage stage;
    std::vector<rt::PooledResult> pending;
    for (u32 i = 0; i < 64; ++i)
      pending.push_back(r.stage_call(stage, i % shards, open_cmd(2)));
    ASSERT_EQ(r.submit_stage(stage), rt::SubmitStatus::kAccepted);
    for (auto& p : pending)
      EXPECT_EQ(p.take().status, rt::CommandStatus::kDone);
    r.stop();
    EXPECT_EQ(r.snapshot().total.completed, 64u);
  }
}

TEST(Runtime, StopDrainsInFlightBatchesExactlyOnce) {
  // Stop immediately after a burst of submits: every accepted command must
  // still be applied (drain-on-stop), and each slot is fulfilled once.
  rt::RuntimeConfig cfg = small_config(4, 2);
  cfg.shard.queue_depth = 512;
  rt::Runtime r(cfg);
  r.start();

  rt::ResultPool pool;
  std::vector<rt::ResultSlot*> slots;
  constexpr int kPerShard = 100;
  for (u32 s = 0; s < 4; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      rt::Command c =
          open_cmd(2 + static_cast<u32>(i % 3));
      if (i % 5 == 4) {
        c.kind = rt::CommandKind::kOpenBatch;
        c.batch_sizes = {2, 3};
        c.size = 0;
      }
      c.slot = slots.emplace_back(pool.acquire());
      ASSERT_EQ(r.submit_to_blocking(s, std::move(c)),
                rt::SubmitStatus::kAccepted);
    }
  }
  r.stop();  // no drain() first — stop itself must finish the backlog

  int completions = 0;
  for (rt::ResultSlot* slot : slots) {
    ASSERT_TRUE(slot->ready()) << "stop returned with a command unapplied";
    EXPECT_EQ(slot->wait_take().status, rt::CommandStatus::kDone);
    ++completions;
  }
  EXPECT_EQ(completions, 4 * kPerShard);
  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.completed, static_cast<u64>(4 * kPerShard));
  EXPECT_EQ(snap.total.rejected_stopped, 0u);
}

TEST(Runtime, PostStopCommandsAreRejectedNotLost) {
  rt::Runtime r(small_config(2, 1));
  r.start();
  r.stop();

  rt::ResultPool pool;
  rt::Command c = open_cmd(3);
  c.slot = pool.acquire();
  rt::ResultSlot* const slot = c.slot;
  EXPECT_EQ(r.submit_to(0, std::move(c)), rt::SubmitStatus::kStopped);
  ASSERT_TRUE(slot->ready());  // inline, on this thread
  const rt::CommandResult result = slot->wait_take();
  EXPECT_EQ(result.status, rt::CommandStatus::kRejectedStopped);
  EXPECT_EQ(result.kind, rt::CommandKind::kOpen);

  // Pooled calls complete too — nothing hangs.
  EXPECT_EQ(r.call_pooled(1, open_cmd(2)).take().status,
            rt::CommandStatus::kRejectedStopped);

  const rt::RuntimeSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.total.rejected_stopped, 2u);
  EXPECT_EQ(snap.total.opens, 0u);  // never applied
}

TEST(Runtime, NeverStartedRuntimeRejectsAfterStop) {
  rt::Runtime r(small_config(1, 1));
  r.stop();
  EXPECT_EQ(r.submit_to(0, open_cmd(2)), rt::SubmitStatus::kStopped);
}

// ---------------------------------------------------------------------------
// Snapshot consistency.
// ---------------------------------------------------------------------------

TEST(Runtime, SnapshotsAreConsistentWhileChurning) {
  rt::RuntimeConfig cfg = small_config(4, 2);
  rt::Runtime r(cfg);
  r.start();

  std::atomic<bool> go{true};
  std::thread pounder([&] {
    confnet::util::Rng rng(7);
    while (go.load()) {
      for (u32 s = 0; s < 4; ++s) {
        rt::Command c = open_cmd(2 + static_cast<u32>(rng.below(4)));
        (void)r.submit_to(s, std::move(c));
      }
    }
  });

  // Every published per-shard snapshot must satisfy the burst-boundary
  // identities even while commands are in flight.
  for (int round = 0; round < 200; ++round) {
    const rt::RuntimeSnapshot snap = r.snapshot();
    for (const rt::ShardStats& s : snap.shards) {
      EXPECT_TRUE(s.consistent())
          << "opens=" << s.opens << " accepted=" << s.accepted
          << " rejected=" << s.rejected
          << " commands=" << s.commands << " completed=" << s.completed;
    }
  }
  go.store(false);
  pounder.join();
  r.stop();

  const rt::RuntimeSnapshot final_snap = r.snapshot();
  for (const rt::ShardStats& s : final_snap.shards)
    EXPECT_TRUE(s.consistent());
  EXPECT_EQ(final_snap.total.completed, r.submitted());
}

// ---------------------------------------------------------------------------
// Faults through the runtime.
// ---------------------------------------------------------------------------

TEST(Runtime, FailAndRepairLinkRunRecovery) {
  rt::RuntimeConfig cfg = small_config(1, 1);
  rt::Runtime r(cfg);
  r.start();

  // Load the shard so some sessions cross interstage links.
  int accepted = 0;
  for (int i = 0; i < 12; ++i) {
    auto result = r.call_pooled(0, open_cmd(2)).take();
    if (result.open.outcome == conf::RequestOutcome::kServed) ++accepted;
  }
  ASSERT_GT(accepted, 0);

  auto failed =
      r.call_pooled(0, link_cmd(rt::CommandKind::kFailLink, 1, 0)).take();
  EXPECT_TRUE(failed.ok);
  EXPECT_EQ(failed.torn_sessions.size(), failed.torn_down);
  EXPECT_EQ(failed.relocated.size(), failed.recovered);

  // Failing the same link again is an idempotent no-op.
  EXPECT_FALSE(
      r.call_pooled(0, link_cmd(rt::CommandKind::kFailLink, 1, 0)).take().ok);
  EXPECT_TRUE(
      r.call_pooled(0, link_cmd(rt::CommandKind::kRepairLink, 1, 0)).take().ok);

  r.stop();
  const rt::ShardStats s = r.shard(0).snapshot();
  EXPECT_EQ(s.link_failures, 1u);
  EXPECT_EQ(s.link_repairs, 1u);
  EXPECT_TRUE(s.consistent());
  // Loss-mode conservation: every interrupted session was repacked in
  // place or dropped inside the fail command; nothing waits or retries.
  const conf::RecoveryCoordinator& recovery = r.shard(0).recovery();
  EXPECT_EQ(s.torn_down, s.recovered + recovery.stats().dropped);
  EXPECT_EQ(recovery.pending(), 0u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.expired, 0u);
}

// ---------------------------------------------------------------------------
// Determinism across worker counts.
// ---------------------------------------------------------------------------

struct Outcome {
  conf::RequestOutcome outcome;
  u32 session;  // 0 when not served
  bool operator==(const Outcome&) const = default;
};

// Scripted per-shard workload: open sizes from a seeded RNG, closing the
// oldest open session every third command. Returns the outcome sequence.
std::vector<Outcome> run_scripted(rt::Runtime& r, u32 shard, u64 seed,
                                  int commands) {
  confnet::util::Rng script(seed);
  std::vector<Outcome> outcomes;
  std::vector<u32> live;
  for (int i = 0; i < commands; ++i) {
    if (i % 3 == 2 && !live.empty()) {
      (void)r.call_pooled(shard, close_cmd(live.front())).take();
      live.erase(live.begin());
      continue;
    }
    const u32 size = 2 + static_cast<u32>(script.below(5));
    auto result = r.call_pooled(shard, open_cmd(size)).take();
    Outcome o{result.open.outcome, result.open.session.value_or(0)};
    if (result.open.session) live.push_back(*result.open.session);
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(Runtime, OutcomesIndependentOfWorkerCount) {
  constexpr int kCommands = 120;
  std::vector<std::vector<Outcome>> per_worker_runs;
  std::vector<rt::ShardStats> totals;
  for (u32 workers : {1u, 2u, 4u}) {
    rt::Runtime r(small_config(4, workers));
    r.start();
    std::vector<Outcome> all;
    for (u32 s = 0; s < 4; ++s) {
      auto outcomes = run_scripted(r, s, 1000 + s, kCommands);
      all.insert(all.end(), outcomes.begin(), outcomes.end());
    }
    r.stop();
    per_worker_runs.push_back(std::move(all));
    totals.push_back(r.snapshot().total);
  }
  EXPECT_EQ(per_worker_runs[0], per_worker_runs[1]);
  EXPECT_EQ(per_worker_runs[0], per_worker_runs[2]);
  EXPECT_EQ(totals[0].accepted, totals[1].accepted);
  EXPECT_EQ(totals[0].accepted, totals[2].accepted);
  EXPECT_EQ(totals[0].rejected, totals[2].rejected);
}

// One scripted command's observable answer.
struct Step {
  rt::CommandKind kind = rt::CommandKind::kOpen;
  conf::RequestOutcome outcome = conf::RequestOutcome::kRejected;  // kOpen
  u32 session = 0;  // kOpen: the admitted id (0 when refused)
  bool ok = false;  // kClose / kFailLink / kRepairLink
  std::vector<u32> torn;                        // kFailLink
  std::vector<std::pair<u32, u32>> relocated;  // kFailLink
  bool operator==(const Step&) const = default;
};

// Scripted churn with link faults: open sizes from a seeded RNG, a close of
// the oldest live session every fourth command, and roughly one fail and
// one repair per ten commands. `apply` executes one command and reports
// its Step; the script folds each answer into its live-session list (a
// relocated victim is rehomed, a dropped one forgotten), so both sides of
// a comparison are driven by the same answers.
template <class Apply>
std::vector<Step> run_fault_script(u64 seed, int commands, Apply&& apply) {
  confnet::util::Rng script(seed);
  std::vector<Step> steps;
  std::vector<u32> live;
  std::vector<std::pair<u32, u32>> faulty;  // (level, row), oldest first
  for (int i = 0; i < commands; ++i) {
    const u64 roll = script.below(10);
    if (i % 4 == 3 && !live.empty()) {
      steps.push_back(apply(close_cmd(live.front())));
      live.erase(live.begin());
    } else if (roll == 0) {
      const auto level = static_cast<u32>(script.below(3));
      const auto row = static_cast<u32>(script.below(16));
      Step step = apply(link_cmd(rt::CommandKind::kFailLink, level, row));
      if (step.ok) faulty.emplace_back(level, row);
      for (const u32 victim : step.torn) {
        const auto it = std::find(live.begin(), live.end(), victim);
        if (it == live.end()) continue;
        const auto moved = std::find_if(
            step.relocated.begin(), step.relocated.end(),
            [victim](const auto& p) { return p.first == victim; });
        if (moved != step.relocated.end())
          *it = moved->second;
        else
          live.erase(it);
      }
      steps.push_back(std::move(step));
    } else if (roll == 1 && !faulty.empty()) {
      const auto [level, row] = faulty.front();
      faulty.erase(faulty.begin());
      steps.push_back(
          apply(link_cmd(rt::CommandKind::kRepairLink, level, row)));
    } else {
      Step step = apply(open_cmd(2 + static_cast<u32>(script.below(5))));
      if (step.outcome == conf::RequestOutcome::kServed)
        live.push_back(step.session);
      steps.push_back(std::move(step));
    }
  }
  return steps;
}

// The serial twin of one loss-mode shard: the same WaitQueueManager +
// RecoveryCoordinator stack, fed the shard's seed and clock, tallying the
// ShardStats fields that depend only on the command sequence.
class SerialShard {
 public:
  SerialShard(const rt::ShardConfig& c, u32 index)
      : net_(c.kind, c.stages,
             conf::DilationProfile::uniform(c.stages, c.dilation)),
        wait_(net_, c.policy, c.wait_capacity, c.wait_bypass, c.backend),
        recovery_(wait_, c.recovery),
        rng_(c.seed + index) {}

  Step apply(const rt::Command& cmd) {
    Step step;
    step.kind = cmd.kind;
    const auto now = static_cast<double>(tally_.commands);
    switch (cmd.kind) {
      case rt::CommandKind::kOpen: {
        const auto r = wait_.request(cmd.size, rng_);
        step.outcome = r.outcome;
        step.session = r.session.value_or(0);
        ++tally_.opens;
        if (r.outcome == conf::RequestOutcome::kServed)
          ++tally_.accepted;
        else
          ++tally_.rejected;
        break;
      }
      case rt::CommandKind::kClose:
        step.ok = wait_.sessions().contains(cmd.session);
        if (step.ok) {
          ++tally_.closes;
          (void)wait_.close(cmd.session, rng_);
        }
        break;
      case rt::CommandKind::kFailLink: {
        step.ok = !net_.link_faulty(cmd.level, cmd.row);
        auto impact = recovery_.fail_link(cmd.level, cmd.row, now, rng_);
        if (step.ok) ++tally_.link_failures;
        tally_.torn_down += impact.torn_down.size();
        tally_.recovered += impact.recovered.size();
        step.torn = std::move(impact.torn_down);
        for (const auto& r : impact.recovered)
          step.relocated.emplace_back(r.origin, r.session);
        break;
      }
      case rt::CommandKind::kRepairLink:
        step.ok = net_.link_faulty(cmd.level, cmd.row);
        (void)recovery_.repair_link(cmd.level, cmd.row, now, rng_);
        if (step.ok) ++tally_.link_repairs;
        break;
      case rt::CommandKind::kOpenBatch:
        ADD_FAILURE() << "the fault script sends no batches";
        break;
    }
    ++tally_.commands;
    tally_.active_sessions = wait_.sessions().active_sessions();
    return step;
  }

  [[nodiscard]] const rt::ShardStats& tally() const { return tally_; }
  [[nodiscard]] const conf::RecoveryCoordinator& recovery() const {
    return recovery_;
  }

 private:
  conf::DirectConferenceNetwork net_;
  conf::WaitQueueManager wait_;
  conf::RecoveryCoordinator recovery_;
  confnet::util::Rng rng_;
  rt::ShardStats tally_;
};

Step step_of(rt::CommandResult&& r) {
  EXPECT_EQ(r.status, rt::CommandStatus::kDone);
  Step step;
  step.kind = r.kind;
  step.outcome = r.open.outcome;
  step.session = r.open.session.value_or(0);
  step.ok = r.ok;
  step.torn = std::move(r.torn_sessions);
  step.relocated = std::move(r.relocated);
  return step;
}

TEST(Runtime, ShardMatchesSerialWaitQueueOracle) {
  // The runtime's per-shard outcomes — session ids, fault victims, the
  // repack's (origin, replacement) pairs and the shard counters — must
  // equal a serial loss-mode WaitQueueManager + RecoveryCoordinator fed
  // the same command sequence with the shard's seed: the runtime adds
  // threading, never different admission or recovery decisions.
  constexpr u64 kScriptSeed = 555;
  constexpr int kCommands = 400;
  rt::RuntimeConfig cfg = small_config(1, 1);
  cfg.shard.dilation = 2;  // room for enough live sessions to hit
  rt::Runtime r(cfg);
  r.start();
  const auto runtime_steps = run_fault_script(
      kScriptSeed, kCommands, [&r](rt::Command&& cmd) {
        return step_of(r.call_pooled(0, std::move(cmd)).take());
      });
  r.stop();

  SerialShard oracle(cfg.shard, 0);
  const auto oracle_steps = run_fault_script(
      kScriptSeed, kCommands,
      [&oracle](rt::Command&& cmd) { return oracle.apply(cmd); });
  ASSERT_EQ(runtime_steps.size(), oracle_steps.size());
  for (std::size_t i = 0; i < runtime_steps.size(); ++i)
    EXPECT_EQ(runtime_steps[i], oracle_steps[i]) << "diverged at step " << i;

  const rt::ShardStats got = r.shard(0).snapshot();
  const rt::ShardStats& want = oracle.tally();
  EXPECT_EQ(got.commands, want.commands);
  EXPECT_EQ(got.opens, want.opens);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.closes, want.closes);
  EXPECT_EQ(got.link_failures, want.link_failures);
  EXPECT_EQ(got.link_repairs, want.link_repairs);
  EXPECT_EQ(got.torn_down, want.torn_down);
  EXPECT_EQ(got.recovered, want.recovered);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.expired, want.expired);
  EXPECT_EQ(got.active_sessions, want.active_sessions);
  EXPECT_EQ(r.shard(0).recovery().stats().dropped,
            oracle.recovery().stats().dropped);

  // The script must actually exercise the fault path it compares.
  EXPECT_GT(want.link_failures, 0u);
  EXPECT_GT(want.link_repairs, 0u);
  EXPECT_GT(want.torn_down, 0u);
  EXPECT_GT(want.recovered, 0u);
  EXPECT_GT(oracle.recovery().stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// Trace ring.
// ---------------------------------------------------------------------------

TEST(Runtime, TraceRingDumpsTaggedJsonl) {
  rt::RuntimeConfig cfg = small_config(2, 1);
  cfg.shard.trace_capacity = 32;
  rt::Runtime r(cfg);
  r.start();
  for (u32 s = 0; s < 2; ++s)
    for (int i = 0; i < 5; ++i) (void)r.call_pooled(s, open_cmd(2)).take();
  r.stop();

  std::ostringstream os;
  r.dump_trace_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"shard\""), std::string::npos);
  EXPECT_NE(out.find("\"open\""), std::string::npos);
  // 10 commands → 10 lines.
  std::size_t lines = 0;
  for (char ch : out)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 10u);
}

}  // namespace
