// Command vocabulary of the concurrent admission runtime.
//
// Producers (API front ends, load generators, tests) talk to a shard
// exclusively through `runtime::Command` values pushed onto the shard's
// bounded MPSC queue; whichever thread holds the shard's execution lease (a
// worker, or a producer applying its own synchronous call) answers by
// fulfilling the command's pooled `ResultSlot` with a
// `runtime::CommandResult` after the command has been applied. Shard state
// is touched only under that lease.
//
// Shards run loss-mode admission (the paper's switch: a request is realized
// now or refused), so an open is answered kServed or kRejected — never
// parked — and a link-fault victim is repacked in place or dropped inside
// the fail command itself.
//
// Thread-safety contract: Command and CommandResult are plain value types —
// thread-compatible, externally synchronized by the queue that carries them
// (a command is owned by the producer until the queue accepts it, then by
// the lease holder that pops it until it fulfills the slot).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "conference/waitqueue.hpp"
#include "min/types.hpp"

namespace confnet::runtime {

class ResultSlot;

using u32 = min::u32;
using u64 = min::u64;

/// What a command asks the owning shard to do.
enum class CommandKind : std::uint8_t {
  kOpen,       // admit one conference of `size` members
  kOpenBatch,  // admit a burst of conferences in one open_batch pass
  kClose,      // close the open session `session`
  kFailLink,   // fail interstage link (level, row); repacks victims
  kRepairLink, // repair interstage link (level, row)
};

[[nodiscard]] constexpr const char* command_name(CommandKind k) noexcept {
  switch (k) {
    case CommandKind::kOpen: return "open";
    case CommandKind::kOpenBatch: return "open_batch";
    case CommandKind::kClose: return "close";
    case CommandKind::kFailLink: return "fail_link";
    case CommandKind::kRepairLink: return "repair_link";
  }
  return "?";
}

/// Synchronous verdict of a submit call. `kQueueFull` is backpressure: the
/// command was NOT enqueued and its completion will not run — the caller
/// owns it again and may retry (or use Runtime::submit_to_blocking).
enum class SubmitStatus : std::uint8_t {
  kAccepted,   // enqueued; completion will run under the shard's lease
  kQueueFull,  // bounded queue at capacity; command returned to the caller
  kStopped,    // runtime stopped/stopping; completion ran with kRejectedStopped
};

/// How the command's execution ended.
enum class CommandStatus : std::uint8_t {
  kDone,             // applied by the shard; payload fields are valid
  kRejectedStopped,  // never applied: the runtime stopped first
};

/// Admission verdict of one open: kServed or kRejected (loss mode).
struct OpenOutcome {
  conf::RequestOutcome outcome = conf::RequestOutcome::kRejected;
  std::optional<u32> session;  // set on kServed
};

/// What the shard reports back through the command's slot.
struct CommandResult {
  CommandKind kind = CommandKind::kOpen;
  CommandStatus status = CommandStatus::kRejectedStopped;
  u32 shard = 0;
  /// Shard logical time at which the command was applied (commands
  /// processed before it on this shard). Deterministic — never wall clock.
  u64 applied_at = 0;

  OpenOutcome open;                 // kOpen
  std::vector<OpenOutcome> batch;   // kOpenBatch, input order
  bool ok = false;                  // kClose: session existed;
                                    // kFailLink/kRepairLink: state changed
  u32 torn_down = 0;  // kFailLink: sessions interrupted
  u32 recovered = 0;  // kFailLink: victims repacked in place
  /// kFailLink: victim session ids (already closed by the shard). A front
  /// end tracking sessions by id (e.g. the cluster layer, whose spanning
  /// legs are shard sessions) folds these into its own bookkeeping.
  std::vector<u32> torn_sessions;
  /// kFailLink: victims repacked under a fresh session id, as (origin,
  /// replacement) pairs. The origin id is dead; the caller rehomes its
  /// records onto the replacement. A victim in torn_sessions without a
  /// pair here was dropped.
  std::vector<std::pair<u32, u32>> relocated;
};

/// One unit of work for a shard. Fields beyond `kind` are read per kind
/// (see CommandKind); unused fields are ignored.
struct Command {
  CommandKind kind = CommandKind::kOpen;
  u32 size = 0;                  // kOpen
  u32 session = 0;               // kClose
  u32 level = 0;                 // kFailLink / kRepairLink
  u32 row = 0;                   // kFailLink / kRepairLink
  std::vector<u32> batch_sizes;  // kOpenBatch
  /// Optional completion (Runtime::call_pooled / stage_call), fulfilled
  /// exactly once: by the lease holder after the command is applied, or
  /// inline on the submitting thread with kRejectedStopped when the
  /// runtime refuses it. Never fulfilled for kQueueFull (the command never
  /// left the caller). The slot belongs to a ResultPool; the producer
  /// holds the matching PooledResult, which keeps it alive until
  /// fulfilled. A command without a slot is fire-and-forget.
  ResultSlot* slot = nullptr;
};

}  // namespace confnet::runtime
