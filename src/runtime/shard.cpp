#include "runtime/shard.hpp"

#include <algorithm>
#include <utility>

#include "runtime/result_pool.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace confnet::runtime {

namespace {
// Burst bound for pop_batch: one lock round-trip amortizes over up to this
// many commands; small enough that stats publish (and thus drain progress)
// stays responsive.
constexpr std::size_t kMaxBurst = 64;
}  // namespace

Shard::Shard(u32 index, const ShardConfig& config)
    : index_(index),
      network_(config.kind, config.stages,
               conf::DilationProfile::uniform(config.stages, config.dilation)),
      wait_(network_, config.policy, config.wait_capacity, config.wait_bypass,
            config.backend),
      recovery_(wait_, config.recovery),
      rng_(config.seed + index),
      trace_(config.trace_capacity),
      queue_(config.queue_depth) {
  expects(config.wait_capacity == 0 && !config.wait_bypass &&
              config.recovery.max_retries == 0,
          "a runtime shard is loss-mode: no hold queue, no retry budget");
  burst_.reserve(kMaxBurst);
  publish();  // expose a consistent (all-zero) snapshot before any command
}

SubmitStatus Shard::submit(Command&& cmd) {
  switch (queue_.try_push(std::move(cmd))) {
    case QueuePush::kOk:
      return SubmitStatus::kAccepted;
    case QueuePush::kFull:
      // Backpressure: the bounce was counted once by the queue and the
      // command never entered pushed() — a retry that lands contributes
      // exactly one accept to the drain watermark.
      return SubmitStatus::kQueueFull;
    case QueuePush::kClosed:
      break;
  }
  // Stopped: answer inline so the command is rejected, not lost. `cmd` was
  // not consumed by the failed push.
  reject_inline(cmd);
  return SubmitStatus::kStopped;
}

SubmitStatus Shard::submit_blocking(Command&& cmd) {
  if (queue_.push_wait(std::move(cmd)) == QueuePush::kOk)
    return SubmitStatus::kAccepted;
  reject_inline(cmd);
  return SubmitStatus::kStopped;
}

void Shard::reject_inline(Command& cmd) {
  rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
  if (cmd.slot == nullptr) return;
  CommandResult result;
  result.kind = cmd.kind;
  result.status = CommandStatus::kRejectedStopped;
  result.shard = index_;
  cmd.slot->fulfill(std::move(result));
}

std::size_t Shard::process_available() {
  std::size_t applied = 0;
  for (;;) {
    const std::size_t depth = queue_.size();
    burst_.clear();
    const std::size_t n = queue_.pop_batch(burst_, kMaxBurst);
    if (n == 0) break;
    stats_.max_queue_depth = std::max<u64>(stats_.max_queue_depth, depth);
    ++stats_.bursts;
    stats_.max_burst = std::max<u64>(stats_.max_burst, n);
    for (std::size_t i = 0; i < n; ++i) apply(burst_[i]);
    applied += n;
    publish();
  }
  return applied;
}

void Shard::serve_open(OpenOutcome& out,
                       const conf::WaitQueueManager::RequestResult& r) {
  out.outcome = r.outcome;
  out.session = r.session;
  ++stats_.opens;
  if (r.outcome == conf::RequestOutcome::kServed)
    ++stats_.accepted;
  else
    ++stats_.rejected;
}

void Shard::apply(Command& cmd) {
  CommandResult result;
  result.kind = cmd.kind;
  result.status = CommandStatus::kDone;
  result.shard = index_;
  result.applied_at = now_;

  switch (cmd.kind) {
    case CommandKind::kOpen: {
      serve_open(result.open, wait_.request(cmd.size, rng_));
      break;
    }
    case CommandKind::kOpenBatch: {
      const auto results = wait_.request_batch(cmd.batch_sizes, rng_);
      result.batch.resize(results.size());
      for (std::size_t i = 0; i < results.size(); ++i)
        serve_open(result.batch[i], results[i]);
      break;
    }
    case CommandKind::kClose: {
      // Nothing waits in loss mode, so the close admits no one.
      if (wait_.sessions().contains(cmd.session)) {
        result.ok = true;
        ++stats_.closes;
        (void)wait_.close(cmd.session, rng_);
      }
      break;
    }
    case CommandKind::kFailLink: {
      const bool was_faulty = network_.link_faulty(cmd.level, cmd.row);
      auto impact = recovery_.fail_link(cmd.level, cmd.row,
                                        static_cast<double>(now_), rng_);
      result.ok = !was_faulty;
      if (result.ok) ++stats_.link_failures;
      stats_.torn_down += impact.torn_down.size();
      stats_.recovered += impact.recovered.size();
      result.torn_down = static_cast<u32>(impact.torn_down.size());
      result.recovered = static_cast<u32>(impact.recovered.size());
      result.torn_sessions = std::move(impact.torn_down);
      result.relocated.reserve(impact.recovered.size());
      for (const auto& r : impact.recovered)
        result.relocated.emplace_back(r.origin, r.session);
      break;
    }
    case CommandKind::kRepairLink: {
      // Nothing waits in loss mode, so a repair restores capacity and
      // recovers no one.
      const bool was_faulty = network_.link_faulty(cmd.level, cmd.row);
      (void)recovery_.repair_link(cmd.level, cmd.row,
                                  static_cast<double>(now_), rng_);
      result.ok = was_faulty;
      if (result.ok) ++stats_.link_repairs;
      break;
    }
  }

  ++now_;
  ++stats_.commands;
  stats_.logical_time = now_;
  ++stats_.completed;
  stats_.active_sessions = wait_.sessions().active_sessions();
  if (trace_.enabled()) {
    trace_.record(command_name(cmd.kind), now_,
                  static_cast<double>(stats_.active_sessions));
  }
  // Mirror into the process-wide tracer (no-op unless --trace armed it;
  // Tracer::record is thread-safe, so concurrent shards may interleave).
  obs::trace_emit("runtime", command_name(cmd.kind),
                  static_cast<double>(stats_.active_sessions));
  if (cmd.slot != nullptr) cmd.slot->fulfill(std::move(result));
}

void Shard::publish() {
  ShardStats copy = stats_;
  copy.rejected_stopped = rejected_stopped_.load(std::memory_order_relaxed);
  copy.submit_bounced = queue_.bounced();
  {
    util::MutexLock lock(pub_mu_);
    published_ = copy;
  }
  pub_cv_.notify_all();
}

ShardStats Shard::snapshot() const {
  ShardStats copy;
  {
    util::MutexLock lock(pub_mu_);
    copy = published_;
  }
  // Folded in outside the stats identities: producers bump these directly.
  copy.rejected_stopped = rejected_stopped_.load(std::memory_order_relaxed);
  copy.submit_bounced = queue_.bounced();
  return copy;
}

void Shard::wait_published(u64 watermark) const {
  util::MutexLock lock(pub_mu_);
  while (published_.completed < watermark) pub_cv_.wait(pub_mu_);
}

}  // namespace confnet::runtime
