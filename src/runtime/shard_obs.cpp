#include "runtime/shard_obs.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"
#include "util/metrics.hpp"

namespace confnet::runtime {

void ShardStats::merge(const ShardStats& other) noexcept {
  commands += other.commands;
  opens += other.opens;
  accepted += other.accepted;
  rejected += other.rejected;
  closes += other.closes;
  link_failures += other.link_failures;
  link_repairs += other.link_repairs;
  torn_down += other.torn_down;
  recovered += other.recovered;
  dropped += other.dropped;
  expired += other.expired;
  rejected_stopped += other.rejected_stopped;
  submit_bounced += other.submit_bounced;
  bursts += other.bursts;
  max_burst = std::max(max_burst, other.max_burst);
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
  completed += other.completed;
  active_sessions += other.active_sessions;
  logical_time += other.logical_time;
}

void ShardTrace::dump_jsonl(std::ostream& os, u32 shard) const {
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Oldest-first: once the ring wrapped, head_ points at the oldest slot.
    const ShardTraceRecord& r =
        ring_[n < capacity_ ? i : (head_ + i) % capacity_];
    util::JsonWriter w(os);
    w.begin_object();
    w.key("shard");
    w.value(static_cast<std::uint64_t>(shard));
    w.key("seq");
    w.value(r.seq);
    w.key("time");
    w.value(r.time);
    w.key("name");
    w.value(r.name);
    w.key("value");
    w.value(r.value);
    w.end_object();
    os << '\n';
  }
}

void publish_to_registry(const RuntimeSnapshot& snap) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("runtime", "shards").set(static_cast<double>(snap.shards.size()));
  reg.gauge("runtime", "commands")
      .set(static_cast<double>(snap.total.commands));
  reg.gauge("runtime", "opens").set(static_cast<double>(snap.total.opens));
  reg.gauge("runtime", "accepted")
      .set(static_cast<double>(snap.total.accepted));
  reg.gauge("runtime", "rejected")
      .set(static_cast<double>(snap.total.rejected));
  reg.gauge("runtime", "closes").set(static_cast<double>(snap.total.closes));
  reg.gauge("runtime", "active_sessions")
      .set(static_cast<double>(snap.total.active_sessions));
  reg.gauge("runtime", "torn_down")
      .set(static_cast<double>(snap.total.torn_down));
  reg.gauge("runtime", "recovered")
      .set(static_cast<double>(snap.total.recovered));
  reg.gauge("runtime", "dropped").set(static_cast<double>(snap.total.dropped));
  reg.gauge("runtime", "max_queue_depth")
      .set(static_cast<double>(snap.total.max_queue_depth));
  reg.gauge("runtime", "submit_bounced")
      .set(static_cast<double>(snap.total.submit_bounced));
}

}  // namespace confnet::runtime
