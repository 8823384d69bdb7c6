// One shard of the concurrent admission runtime: a complete loss-mode
// control plane (fabric + SessionManager + placer + WaitQueueManager +
// RecoveryCoordinator) plus the bounded MPSC command queue that feeds it.
//
// Loss mode is the paper's contract: every open is realized now or
// refused. The WaitQueueManager runs with zero hold slots and the
// RecoveryCoordinator with a zero retry budget, so nothing ever waits and
// no retry is ever scheduled; the coordinator is kept for its in-place
// repack of link-fault victims (a victim comes back under a fresh session
// id inside the fail command, or is dropped there).
//
// Thread-safety contract: thread-confined to the lease holder. Every
// mutable control plane member is touched only by the thread that holds
// the shard's execution lease (an atomic flag taken by try_process): a
// worker draining its shards, or a producer applying its own synchronous
// call on the spot. The lease changes hands through an acquire/release
// pair, so each holder sees everything the previous one wrote. Producers
// otherwise interact only through submit()/submit_blocking() (which touch
// nothing but the internal thread-safe queue) and through snapshot()/
// wait_published() (which read the published stats copy under its own
// mutex). The static_check `runtime-owner` rule enforces that every member
// here is either CONFNET_GUARDED_BY a mutex or tagged with its owner.
//
// Determinism: outcomes depend only on the per-shard command sequence and
// the shard's seed — never on burst boundaries, worker count, which thread
// holds the lease, or wall-clock timing. Bursts amortize queue locking;
// they do not reorder or coalesce commands (batched admission rides
// kOpenBatch, which the *producer* forms).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "conference/designs.hpp"
#include "conference/placement.hpp"
#include "conference/recovery.hpp"
#include "conference/waitqueue.hpp"
#include "min/types.hpp"
#include "runtime/command.hpp"
#include "runtime/queue.hpp"
#include "runtime/shard_obs.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

/// Per-shard construction knobs (shared by every shard of a Runtime).
/// `wait_capacity`, `wait_bypass` and `recovery` admit only their loss-mode
/// defaults; the Shard constructor rejects any other value.
struct ShardConfig {
  u32 stages = 6;  // fabric size: N = 2^stages ports per shard
  min::Kind kind = min::Kind::kIndirectCube;
  u32 dilation = 1;  // uniform channel multiplicity between stages
  conf::PlacementPolicy policy = conf::PlacementPolicy::kFirstFit;
  conf::PlacerBackend backend = conf::PlacerBackend::kFast;
  std::size_t queue_depth = 256;    // command queue bound (backpressure)
  std::size_t wait_capacity = 0;    // hold queue slots: loss mode only
  bool wait_bypass = false;         // loss mode only
  conf::RecoveryPolicy recovery{.max_retries = 0};  // no retry budget
  std::size_t trace_capacity = 0;   // per-shard trace ring (0 = disabled)
  u64 seed = 1;                     // base seed; shard i uses seed + i
};

class Shard {
 public:
  Shard(u32 index, const ShardConfig& config);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // --- producer side: any thread -----------------------------------------

  /// Enqueue without blocking. kQueueFull: backpressure, caller keeps the
  /// command — the bounce is counted once in `submit_bounced` and never in
  /// `pushed()`, so a retried command contributes exactly one accept to
  /// the drain watermark. kStopped: the completion already ran inline with
  /// kRejectedStopped. Thread-safe.
  SubmitStatus submit(Command&& cmd);

  /// Enqueue, blocking while the queue is full. Thread-safe.
  SubmitStatus submit_blocking(Command&& cmd);

  /// Stop accepting new commands; already-queued ones keep draining.
  void close_queue() { queue_.close(); }

  /// Commands accepted so far (the drain watermark). Thread-safe.
  [[nodiscard]] u64 submitted() const { return queue_.pushed(); }

  /// Current command queue depth. Thread-safe (advisory: racy by nature).
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// try_push bounces so far (kQueueFull verdicts). Thread-safe.
  [[nodiscard]] u64 submit_bounced() const { return queue_.bounced(); }

  // --- execution side: any thread, one at a time --------------------------

  /// Take the execution lease and drain the queue; returns how many
  /// commands were applied (0 when another thread holds the lease). After
  /// releasing the lease the queue is checked once more, so a command
  /// pushed while the lease was held is drained by the holder — a thread
  /// that loses the race never has to wake anyone. Thread-safe.
  std::size_t try_process();

  /// Drain and apply every queued command in bursts; returns how many were
  /// applied. Publishes stats at each burst boundary. Lease holder only —
  /// or the sole user of a Shard that no Runtime drives.
  std::size_t process_available();

  // --- snapshot side: any thread ------------------------------------------

  /// Last published stats (a burst-boundary copy; always consistent()).
  /// Thread-safe.
  [[nodiscard]] ShardStats snapshot() const;

  /// Block until the published completion count reaches `watermark`
  /// (i.e. every command accepted before the watermark was applied and
  /// published). Thread-safe.
  void wait_published(u64 watermark) const;

  // --- post-stop: no lease holder left -----------------------------------

  /// The trace ring. Reading it is legal only after Runtime::stop, or from
  /// the lease holder itself.
  [[nodiscard]] const ShardTrace& trace() const { return trace_; }

  /// Control plane peek for tests/verification. Lease holder or post-stop.
  [[nodiscard]] const conf::WaitQueueManager& wait() const { return wait_; }
  [[nodiscard]] const conf::RecoveryCoordinator& recovery() const {
    return recovery_;
  }

  [[nodiscard]] u32 index() const noexcept { return index_; }
  [[nodiscard]] u32 ports() const noexcept { return network_.size(); }

 private:
  void apply(Command& cmd) CONFNET_EXCLUDES(pub_mu_);
  /// Answer a refused command inline with kRejectedStopped through its
  /// slot, if it carries one.
  void reject_inline(Command& cmd);
  void publish() CONFNET_EXCLUDES(pub_mu_);
  void serve_open(OpenOutcome& out, const conf::WaitQueueManager::RequestResult& r);

  const u32 index_;  // runtime-owner: immutable

  // Control plane: one fabric and its admission/recovery stack.
  conf::DirectConferenceNetwork network_;  // runtime-owner: lease
  conf::WaitQueueManager wait_;            // runtime-owner: lease
  conf::RecoveryCoordinator recovery_;     // runtime-owner: lease
  util::Rng rng_;                          // runtime-owner: lease
  u64 now_ = 0;                            // runtime-owner: lease
  ShardStats stats_;                       // runtime-owner: lease
  ShardTrace trace_;                       // runtime-owner: lease
  std::vector<Command> burst_;             // runtime-owner: lease

  // Hand-off points (internally synchronized).
  BoundedMpscQueue<Command> queue_;  // runtime-owner: queue
  mutable util::Mutex pub_mu_;       // runtime-owner: lock
  mutable util::CondVar pub_cv_;     // runtime-owner: lock
  ShardStats published_ CONFNET_GUARDED_BY(pub_mu_);
  std::atomic<u64> rejected_stopped_{0};  // runtime-owner: atomic
  std::atomic<bool> leased_{false};       // runtime-owner: atomic
};

}  // namespace confnet::runtime
