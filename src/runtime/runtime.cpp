#include "runtime/runtime.hpp"

#include <utility>

#include "util/error.hpp"

namespace confnet::runtime {

Runtime::Runtime(const RuntimeConfig& config)
    : workers_n_(config.workers) {
  expects(config.shards > 0, "Runtime needs at least one shard");
  expects(config.workers > 0, "Runtime needs at least one worker");
  expects(config.workers <= config.shards,
                "more workers than shards would leave idle workers");
  shards_.reserve(config.shards);
  for (u32 i = 0; i < config.shards; ++i)
    shards_.push_back(std::make_unique<Shard>(i, config.shard));
  workers_.reserve(config.workers);
  for (u32 w = 0; w < config.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    for (u32 s = w; s < config.shards; s += config.workers)
      workers_.back()->shard_ids.push_back(s);
  }
}

Runtime::~Runtime() { stop(); }

void Runtime::start() {
  expects(!started_, "Runtime::start called twice");
  started_ = true;
  for (u32 w = 0; w < workers_n_; ++w)
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
}

void Runtime::stop() {
  if (stopped_ || !started_) {
    // Never started: just refuse future submits.
    for (auto& s : shards_) s->close_queue();
    stopped_ = true;
    return;
  }
  stopped_ = true;
  // (1) No new commands — submits from here on are answered inline.
  for (auto& s : shards_) s->close_queue();
  // (2) Tell each worker to finish and wake it.
  for (auto& w : workers_) {
    {
      util::MutexLock lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  // (3)+(4) Workers drain, publish, exit; we join.
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // (5) A producer may still hold a shard's lease, draining what the
  // workers could not lease; the queues are closed, so this watermark is
  // final and every command is applied and published once it is reached.
  for (auto& s : shards_) s->wait_published(s->submitted());
}

void Runtime::drain() {
  for (auto& s : shards_) {
    const u64 watermark = s->submitted();
    s->wait_published(watermark);
  }
}

SubmitStatus Runtime::submit_to(u32 shard, Command&& cmd) {
  expects(shard < shards_.size(), "submit_to: shard out of range");
  const SubmitStatus st = shards_[shard]->submit(std::move(cmd));
  if (st == SubmitStatus::kAccepted) wake(worker_of(shard));
  return st;
}

SubmitStatus Runtime::submit_to_blocking(u32 shard, Command&& cmd) {
  expects(shard < shards_.size(),
                "submit_to_blocking: shard out of range");
  const SubmitStatus st = shards_[shard]->submit_blocking(std::move(cmd));
  if (st == SubmitStatus::kAccepted) wake(worker_of(shard));
  return st;
}

PooledResult Runtime::call_pooled(u32 shard, Command&& cmd) {
  expects(shard < shards_.size(), "call_pooled: shard out of range");
  ResultSlot* slot = pool_.acquire();
  cmd.slot = slot;
  // Apply on the calling thread when the shard's lease is free; otherwise
  // its holder drains the command. A refused submit fulfills the slot
  // inline (kRejectedStopped), so the handle always completes.
  Shard& s = *shards_[shard];
  if (s.submit_blocking(std::move(cmd)) == SubmitStatus::kAccepted)
    (void)s.try_process();
  return PooledResult(&pool_, slot);
}

PooledResult Runtime::stage_call(CommandStage& stage, u32 shard,
                                 Command&& cmd) {
  ResultSlot* slot = pool_.acquire();
  cmd.slot = slot;
  stage.add(shard, std::move(cmd));
  return PooledResult(&pool_, slot);
}

SubmitStatus Runtime::submit_stage(CommandStage& stage) {
  // A burst on one shard is a synchronous call and runs on the caller; a
  // burst over several shards is handed to their workers, each woken once.
  bool one_shard = true;
  for (const auto& staged : stage.staged_)
    one_shard = one_shard && staged.first == stage.staged_.front().first;
  if (!one_shard) stage.wake_.assign(workers_n_, 0);
  SubmitStatus verdict = SubmitStatus::kAccepted;
  for (auto& [shard, cmd] : stage.staged_) {
    expects(shard < shards_.size(), "submit_stage: shard out of range");
    Shard& s = *shards_[shard];
    SubmitStatus st = s.submit(std::move(cmd));
    if (st == SubmitStatus::kQueueFull) {
      // Nothing applies what this flush already queued before it ends
      // (the drain and the wakes come last): start that now, then block
      // for space.
      if (one_shard)
        (void)s.try_process();
      else
        wake(worker_of(shard));
      st = s.submit_blocking(std::move(cmd));
    }
    if (st != SubmitStatus::kAccepted)
      verdict = SubmitStatus::kStopped;
    else if (!one_shard)
      stage.wake_[worker_of(shard)] = 1;
  }
  if (!one_shard) {
    for (u32 w = 0; w < workers_n_; ++w)
      if (stage.wake_[w] != 0) wake(w);
  } else if (!stage.staged_.empty()) {
    (void)shards_[stage.staged_.front().first]->try_process();
  }
  stage.staged_.clear();
  return verdict;
}

RuntimeSnapshot Runtime::snapshot() const {
  RuntimeSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& s : shards_) snap.shards.push_back(s->snapshot());
  for (const ShardStats& s : snap.shards) snap.total.merge(s);
  publish_to_registry(snap);
  return snap;
}

u64 Runtime::submitted() const {
  u64 total = 0;
  for (const auto& s : shards_) total += s->submitted();
  return total;
}

void Runtime::dump_trace_jsonl(std::ostream& os) const {
  expects(stopped_, "dump_trace_jsonl requires a stopped runtime");
  for (const auto& s : shards_) s->trace().dump_jsonl(os, s->index());
}

void Runtime::wake(u32 worker) {
  Worker& w = *workers_[worker];
  // Publish the signal, then check whether the worker is (or is about to
  // be) parked. Both sides' store-then-load pairs are seq_cst, so this
  // producer sees `parked == true` or the worker sees `signals > 0` — a
  // busy worker costs one uncontended fetch_add, no mutex, no notify.
  w.signals.fetch_add(1, std::memory_order_seq_cst);
  if (w.parked.load(std::memory_order_seq_cst)) {
    // Serialize with the park decision: once we hold the mutex the worker
    // is either inside cv.wait (the notify lands) or past its re-check of
    // signals (it saw ours and will re-scan).
    util::MutexLock lock(w.mu);
    w.cv.notify_one();
  }
}

void Runtime::worker_loop(u32 w) {
  Worker& me = *workers_[w];
  for (;;) {
    std::size_t applied = 0;
    for (u32 s : me.shard_ids) applied += shards_[s]->try_process();
    if (applied != 0) continue;  // re-scan: work may have landed meanwhile
    bool stopping = false;
    {
      util::MutexLock lock(me.mu);
      me.parked.store(true, std::memory_order_seq_cst);
      // Re-check after publishing parked: a producer that signalled before
      // seeing parked=true is caught here; one that saw parked=true takes
      // the mutex and notifies, which cannot be missed while we hold it.
      while (me.signals.load(std::memory_order_seq_cst) == 0 && !me.stop)
        me.cv.wait(me.mu);
      me.parked.store(false, std::memory_order_relaxed);
      me.signals.store(0, std::memory_order_relaxed);
      stopping = me.stop;
    }
    if (!stopping) continue;
    // Queues were closed before the stop flag was set, so one more drain
    // (here, or by whoever holds a lease) sees everything ever accepted.
    for (u32 s : me.shard_ids) (void)shards_[s]->try_process();
    return;
  }
}

}  // namespace confnet::runtime
