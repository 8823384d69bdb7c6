// Slot-recycled arena for command completions (`runtime::ResultPool`) —
// the runtime's one completion channel.
//
// A producer acquires a slot, hangs it on the command (`Command::slot`),
// the owner thread fulfills it in place, and `PooledResult::take()` hands
// the result back and recycles the slot. Every round trip sits on the
// producer's critical path, so completions must not allocate: a per-call
// callback or promise/future pair would cost heap allocations per command.
// Steady-state churn allocates nothing — the pool grows only while the
// free list is empty (cold), and every vector involved recycles capacity
// (the `hot-alloc` static check covers acquire/release/fulfill).
//
// Thread-safety: internally synchronized. The free list is guarded by the
// pool mutex; each slot carries its own mutex/condvar for the
// producer/owner rendezvous. Slot addresses are stable for the pool's
// lifetime (slots are held by unique_ptr), so a raw `ResultSlot*` stays
// valid across the hand-off.
//
// Ownership protocol (see docs/THREADING.md): between acquire and fulfill
// the slot is shared by exactly two parties — the producer holding the
// PooledResult and the worker holding the Command. The worker's fulfill is
// its last touch; the producer releases the slot back to the free list
// from take() (or from ~PooledResult, which waits for fulfill first so a
// recycled slot can never be fulfilled by a stale command).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "min/types.hpp"
#include "runtime/command.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::runtime {

class ResultPool;

/// One pooled completion rendezvous. Producers never construct these —
/// they come from ResultPool::acquire via Runtime::call_pooled.
class ResultSlot {
 public:
  ResultSlot() = default;
  ResultSlot(const ResultSlot&) = delete;
  ResultSlot& operator=(const ResultSlot&) = delete;

  /// Owner-thread side: publish the result and wake the producer. Called
  /// exactly once per acquire (by the worker after apply, or inline by the
  /// submit path on kRejectedStopped).
  CONFNET_HOT void fulfill(CommandResult&& result) {
    {
      util::MutexLock lock(mu_);
      result_ = std::move(result);
      ready_ = true;
    }
    cv_.notify_one();
  }

  /// Non-blocking peek: true once fulfilled. Either side may ask.
  [[nodiscard]] bool ready() {
    util::MutexLock lock(mu_);
    return ready_;
  }

  /// Producer side: block until fulfilled, move the result out. The slot
  /// stays acquired — PooledResult::take releases it afterwards.
  CONFNET_HOT CommandResult wait_take() {
    util::MutexLock lock(mu_);
    while (!ready_) cv_.wait(mu_);
    return std::move(result_);
  }

 private:
  friend class ResultPool;
  friend class PooledResult;

  /// Re-arm for the next acquire. Pool-side, pre-hand-off: no concurrency.
  void reset() {
    util::MutexLock lock(mu_);
    ready_ = false;
  }

  void wait_ready() {
    util::MutexLock lock(mu_);
    while (!ready_) cv_.wait(mu_);
  }

  util::Mutex mu_;    // runtime-owner: lock
  util::CondVar cv_;  // runtime-owner: lock
  CommandResult result_ CONFNET_GUARDED_BY(mu_);
  bool ready_ CONFNET_GUARDED_BY(mu_) = false;
};

/// Move-only handle to an acquired slot. Destroying an unfinished handle
/// waits for the fulfill, so a slot is never recycled while a command in
/// flight still points at it.
class PooledResult {
 public:
  PooledResult() = default;
  PooledResult(PooledResult&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        slot_(std::exchange(other.slot_, nullptr)) {}
  PooledResult& operator=(PooledResult&& other) noexcept {
    if (this != &other) {
      settle();
      pool_ = std::exchange(other.pool_, nullptr);
      slot_ = std::exchange(other.slot_, nullptr);
    }
    return *this;
  }
  ~PooledResult() { settle(); }

  PooledResult(const PooledResult&) = delete;
  PooledResult& operator=(const PooledResult&) = delete;

  /// Block until the command completes, return its result, recycle the
  /// slot. One-shot: the handle is empty afterwards.
  CommandResult take();

  [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

 private:
  friend class ResultPool;
  friend class Runtime;
  PooledResult(ResultPool* pool, ResultSlot* slot)
      : pool_(pool), slot_(slot) {}

  /// Abandoned handle: wait out the in-flight fulfill, then recycle.
  void settle();

  ResultPool* pool_ = nullptr;  // runtime-owner: caller
  ResultSlot* slot_ = nullptr;  // runtime-owner: caller
};

/// The arena. Owned by the Runtime; producers share it through
/// call_pooled. Slots live as long as the pool.
class ResultPool {
 public:
  ResultPool() = default;

  ResultPool(const ResultPool&) = delete;
  ResultPool& operator=(const ResultPool&) = delete;

  /// Take a recycled slot (steady state: one lock round-trip, no
  /// allocation) or grow by one slot when the free list is dry (cold).
  CONFNET_HOT ResultSlot* acquire();

  /// Return a fulfilled slot to the free list. Called by PooledResult.
  CONFNET_HOT void release(ResultSlot* slot);

  /// Slots ever created (high-water mark of concurrent commands in
  /// flight through the pool).
  [[nodiscard]] std::size_t slots() const;

 private:
  mutable util::Mutex mu_;  // runtime-owner: lock
  std::vector<std::unique_ptr<ResultSlot>> slots_ CONFNET_GUARDED_BY(mu_);
  std::vector<ResultSlot*> free_ CONFNET_GUARDED_BY(mu_);
};

}  // namespace confnet::runtime
