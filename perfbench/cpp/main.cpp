// ConfNet admission benchmark: closed-loop churn through cluster::Cluster.
//
//   confnet_perfbench --workload <intra_small|span_mesh|wide_faults>
//                     --seed <n> --seconds <s> --trace <0|1> [--spans <csv>]
//
// --trace 0 measures the end-to-end metrics. Set-up (construct + start +
// warm-up fill) is timed 15 times. One cluster then runs an untimed
// pre-roll and timed segments: a fixed number that every run measures (the
// seeded window the refusal counts come from), then more until --seconds
// have passed. Each timing is the median over segments, so a minority of
// segments slowed by other load on the host cannot move it.
//
// --trace 1 repeats, per round: an untraced cluster run, then a traced one
// whose op stream every lower layer replays in lockstep (see layers.hpp).
// It reports the per-layer metrics, medians over rounds.
//
// Both modes end with the correctness gate: Cluster::cross_check() and the
// stats identities after every cluster run, ledger equality at every layer,
// identical outcomes for every run of one seed, and identical admission
// counters at 1 and 2 workers. The last stdout line is one JSON object:
// correct, attempted, failed, metrics. Any mismatch prints correct=false
// and exits 1.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "layers.hpp"
#include "probe.hpp"
#include "util/simd.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;  // CSV path for the traced run's spans ("" = none)
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload")
      a.workload = value;
    else if (key == "--seed")
      a.seed = std::stoull(value);
    else if (key == "--seconds")
      a.seconds = std::stod(value);
    else if (key == "--trace")
      a.trace = std::stoi(value);
    else if (key == "--spans")
      a.spans = value;
    else
      return false;
  }
  return !a.workload.empty() && (a.trace == 0 || a.trace == 1) &&
         a.seconds > 0.0;
}

/// Timed-window tallies: op mix, conference shape and refusals. Identical
/// for every run of one seed, and across worker counts.
struct Window {
  u64 ops = 0, opens = 0, refused_local = 0, refused_trunk = 0;
  u64 closes = 0, fails = 0, repairs = 0;
  std::map<u32, u64> sizes;   // members per conference -> opens
  std::map<u32, u64> fanout;  // shards per conference -> opens
  [[nodiscard]] u64 refused() const { return refused_local + refused_trunk; }
  bool operator==(const Window&) const = default;
};

void tally(Window& w, const Op& op, const Verdict& v) {
  ++w.ops;
  switch (op.kind) {
    case OpKind::kOpen: {
      ++w.opens;
      u32 members = 0;
      for (const cl::LegSpec& l : op.legs) members += l.members;
      ++w.sizes[members];
      ++w.fanout[static_cast<u32>(op.legs.size())];
      if (v.admit == cl::Admit::kBlockedLocal) ++w.refused_local;
      if (v.admit == cl::Admit::kBlockedTrunk) ++w.refused_trunk;
      break;
    }
    case OpKind::kClose:
      ++w.closes;
      break;
    case OpKind::kFailLink:
      ++w.fails;
      break;
    case OpKind::kRepairLink:
      ++w.repairs;
      break;
  }
}

/// A call that went wrong. The generator closes only live conferences and
/// repairs only failed links; a fail_link that was not applied shows in
/// ClusterStats::link_failures instead (see run_cluster).
bool went_wrong(const Op& op, const Verdict& v) {
  return (op.kind == OpKind::kClose || op.kind == OpKind::kRepairLink) && !v.ok;
}

Verdict call(cl::Cluster& c, const Op& op) {
  Verdict v;
  switch (op.kind) {
    case OpKind::kOpen: {
      const cl::OpenReport r = c.open(op.legs);
      v.admit = r.result;
      v.id = r.id;
      break;
    }
    case OpKind::kClose:
      v.ok = c.close(op.conf);
      break;
    case OpKind::kFailLink:
      v.interrupted = c.fail_link(op.shard, op.level, op.row);
      break;
    case OpKind::kRepairLink:
      v.ok = c.repair_link(op.shard, op.level, op.row);
      break;
  }
  return v;
}

bool same_verdict(const Verdict& a, const Verdict& b) {
  return a.admit == b.admit && a.id == b.id && a.ok == b.ok &&
         a.interrupted == b.interrupted;
}

struct Segment {
  double timed_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, every thread
  u64 ops = 0;
  u64 opens = 0;  // latency samples behind the percentiles below
  u64 closes = 0;
  double open_p50_us = 0.0;
  double open_p90_us = 0.0;
  double close_p50_us = 0.0;
};

/// One cluster run. Outcome fields describe the seeded window (fill,
/// pre-roll and the fixed segments), which is identical for every run of
/// one seed; segments after it exist only to fill the time budget.
struct ClusterRun {
  double setup_s = 0.0;
  double call_us = 0.0;  // summed Cluster call time over the timed ops
  u32 first_op = ~u32{0};  // index of the first timed op, once known
  std::vector<Segment> segments;
  u64 failed = 0;           // calls that went wrong, over every timed op
  Window win;               // fixed segments
  cl::ClusterStats stats0;  // at the first timed op
  cl::ClusterStats stats;   // at the end of the fixed segments
  u64 lanes0 = 0;
  u64 lanes = 0;
  u32 trunk_peak = 0;
  std::vector<u32> sharers;
  LiveTable live;
  std::vector<ShardTally> shards;
  std::vector<confnet::conf::SessionStats> sessions;  // read after stop()
  std::vector<Op> ops_log;  // every op (fill included) when recording
  std::vector<Verdict> verdicts;

  [[nodiscard]] u64 timed_ops() const {
    u64 n = 0;
    for (const Segment& s : segments) n += s.ops;
    return n;
  }
};

/// Ops between two lockstep steps of the layer replays.
constexpr u32 kLockstepOps = 1000;

/// Called with the run so far and the number of ops applied: every
/// kLockstepOps ops, and at the window's start and end.
using Progress = std::function<void(const ClusterRun&, u32)>;

struct RunOpts {
  u32 workers = kWorkers;
  u64 preroll_ops = 0;
  u64 segment_ops = 0;
  u32 fixed_segments = 1;
  double extra_until_s = 0.0;  // keep adding segments until this much
                               // wall time has passed since `start`
  std::int64_t start = 0;
  SpanLog* spans = nullptr;  // traced: one span per Cluster call
  bool record = false;       // keep the op stream for the layer replays
  Progress on_progress;      // lockstep layer replays (needs record)
};

RunOpts measured_opts(const WorkloadSpec& w) {
  RunOpts o;
  o.preroll_ops = w.preroll_ops;
  o.segment_ops = w.segment_ops;
  o.fixed_segments = w.fixed_segments;
  return o;
}

/// The warm-up fill runs until the live target is reached (capped, in case
/// refusals keep it below the target).
bool filling(const WorkloadSpec& w, const Churn& churn, u32 op) {
  return churn.live() < w.live_target && op < 10 * w.live_target;
}

/// Set-up time alone: construct, start and fill a cluster.
double measure_setup(const WorkloadSpec& w, u64 seed) {
  const std::int64_t t0 = now_ns();
  cl::Cluster c(cluster_config(w, kWorkers, seed));
  c.start();
  Churn churn(w, seed);
  u32 op = 0;
  while (filling(w, churn, op)) {
    const Op next = churn.next();
    churn.observe(next, call(c, next));
    ++op;
  }
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  c.stop();
  return s;
}

/// One run: construct, start and fill the cluster (set-up), pre-roll, run
/// the timed segments, then the correctness gate.
ClusterRun run_cluster(const WorkloadSpec& w, u64 seed, const RunOpts& o) {
  ClusterRun r;
  const std::int64_t t0 = now_ns();
  cl::Cluster c(cluster_config(w, o.workers, seed));
  c.start();
  Churn churn(w, seed);
  u32 op = 0;
  bool in_window = true;
  u64 timed_fails = 0;
  std::vector<double> open_us;  // this segment's call latencies
  std::vector<double> close_us;
  open_us.reserve(o.segment_ops);
  close_us.reserve(o.segment_ops);
  auto step = [&](bool timed) {
    Op next = churn.next();
    const SpanLog::Open begin = SpanLog::begin();
    Verdict v = call(c, next);
    const std::int64_t end = now_ns();
    if (o.spans != nullptr) o.spans->end_at(begin, end, op, span_name(next.kind));
    if (timed) {
      const double us = static_cast<double>(end - begin.start) * 1e-3;
      r.call_us += us;
      if (next.kind == OpKind::kOpen) open_us.push_back(us);
      if (next.kind == OpKind::kClose) close_us.push_back(us);
      if (in_window) tally(r.win, next, v);
      if (went_wrong(next, v)) ++r.failed;
      if (next.kind == OpKind::kFailLink) ++timed_fails;
    }
    churn.observe(next, v);
    if (o.record) {
      r.ops_log.push_back(std::move(next));
      r.verdicts.push_back(std::move(v));
    }
    ++op;
    if (o.on_progress && op % kLockstepOps == 0) o.on_progress(r, op);
  };
  auto segment = [&] {
    Segment s;
    open_us.clear();
    close_us.clear();
    const double cpu0 = process_cpu_s();
    const std::int64_t t1 = now_ns();
    for (u64 i = 0; i < o.segment_ops; ++i) step(true);
    s.timed_s = static_cast<double>(now_ns() - t1) * 1e-9;
    s.cpu_s = process_cpu_s() - cpu0;
    s.ops = o.segment_ops;
    s.opens = open_us.size();
    s.closes = close_us.size();
    s.open_p50_us = percentile(open_us, 0.50);
    s.open_p90_us = percentile(open_us, 0.90);
    s.close_p50_us = percentile(close_us, 0.50);
    r.segments.push_back(s);
  };

  while (filling(w, churn, op)) step(false);
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (u64 i = 0; i < o.preroll_ops; ++i) step(false);
  r.first_op = op;
  r.stats0 = c.stats();
  r.lanes0 = c.trunks().lane_acquires();
  if (o.on_progress) o.on_progress(r, op);

  if (o.spans != nullptr) {
    o.spans->start_at(op);
    g_count_allocs.store(true);
  }
  for (u32 i = 0; i < o.fixed_segments; ++i) segment();
  if (o.on_progress) o.on_progress(r, op);
  g_count_allocs.store(false);

  // The seeded window ends here: record its outcomes.
  in_window = false;
  r.stats = c.stats();
  r.lanes = c.trunks().lane_acquires();
  r.trunk_peak = c.trunks().peak_pair_used();
  r.sharers = c.trunks().sharers_by_pair();
  r.live = c.conferences();
  c.drain();
  for (const confnet::runtime::ShardStats& s : c.runtime_snapshot().shards)
    r.shards.push_back(ShardTally::of(s));

  while (o.extra_until_s > 0.0 &&
         static_cast<double>(now_ns() - o.start) * 1e-9 < o.extra_until_s)
    segment();

  r.failed += timed_fails - (c.stats().link_failures - r.stats0.link_failures);

  // Correctness gate: flattened single-fabric oracle, stats identities.
  c.drain();
  c.cross_check();
  ledger_require(c.stats().consistent(), "cluster",
                 "ClusterStats::consistent() failed");
  for (const confnet::runtime::ShardStats& s : c.runtime_snapshot().shards)
    ledger_require(s.consistent(), "cluster",
                   "ShardStats::consistent() failed");
  c.stop();
  for (u32 s = 0; s < kShards; ++s)
    r.sessions.push_back(
        c.serving_runtime().shard(s).wait().sessions().stats());
  return r;
}

/// Admission outcomes two runs of one seed must share.
void require_same_outcomes(const ClusterRun& a, const ClusterRun& b,
                           const std::string& what) {
  ledger_require(a.first_op == b.first_op && a.win == b.win, what,
                 "window tallies differ");
  ledger_require(same_stats(a.stats, b.stats), what, "ClusterStats differ");
  ledger_require(same_live(a.live, b.live), what, "live tables differ");
  ledger_require(a.shards == b.shards, what, "shard counters differ");
  ledger_require(a.lanes == b.lanes && a.sharers == b.sharers &&
                     a.trunk_peak == b.trunk_peak,
                 what, "trunk accounts differ");
}

/// Worker-count invariance: a short pass at 1 and 2 workers.
void check_worker_invariance(const WorkloadSpec& w, u64 seed) {
  RunOpts o;
  o.segment_ops = 2000;
  o.workers = 1;
  const ClusterRun one = run_cluster(w, seed, o);
  o.workers = 2;
  const ClusterRun two = run_cluster(w, seed, o);
  require_same_outcomes(one, two, "workers 1 vs 2");
}

// --- layer replays -----------------------------------------------------------

/// One lower layer replaying the traced run's op stream through the cluster
/// protocol over `Backend`, in lockstep with the run: each chunk of ops is
/// applied right after the cluster applied it, so every layer is timed in
/// the same stretch of machine time. Every verdict must match the
/// cluster's.
template <class Backend>
class Replayer {
 public:
  template <class... Extra>
  Replayer(const char* layer, const cl::ClusterConfig& cfg, Extra... extra)
      : log_(layer), be_(cfg, log_, extra...), co_(be_, cfg), layer_(layer) {}

  /// Apply recorded ops up to `upto`. `at_window` runs just before the
  /// first timed op.
  template <class AtWindow>
  void advance(const ClusterRun& t, u32 upto, AtWindow at_window) {
    for (; next_ < upto; ++next_) {
      if (next_ == t.first_op) {
        log_.start_at(next_);
        at_window();
      }
      const Verdict v = co_.apply(next_, t.ops_log[next_]);
      ledger_require(same_verdict(v, t.verdicts[next_]), layer_,
                     "verdict of op " + std::to_string(next_) + " drifted");
    }
  }

  /// The final stats, live table and trunk accounts equal the cluster's.
  void check_ledger(const ClusterRun& t) const {
    ledger_require(next_ == t.ops_log.size(), layer_, "replay incomplete");
    ledger_require(same_stats(co_.stats(), t.stats), layer_,
                   "ClusterStats ledger drifted");
    ledger_require(same_live(co_.live(), t.live), layer_,
                   "live table drifted");
    ledger_require(co_.trunks().sharers_by_pair() == t.sharers &&
                       co_.trunks().lane_acquires() == t.lanes &&
                       co_.trunks().peak_pair_used() == t.trunk_peak,
                   layer_, "trunk accounts drifted");
  }

  [[nodiscard]] Backend& backend() { return be_; }
  [[nodiscard]] const SpanLog& log() const { return log_; }

 private:
  SpanLog log_;
  Backend be_;
  Coordinator<Backend> co_;
  const char* layer_;
  u32 next_ = 0;
};

using Figures = std::map<std::string, double>;

double sum_us(const SpanLog& log, const char* name) {
  double s = 0.0;
  for (const double d : log.durations_us(name)) s += d;
  return s;
}

/// Timed ops per traced round: enough opens that cluster.open_p999_us has
/// ten samples beyond it.
constexpr u64 kTraceWindowOps = 20000;

/// One traced round: an untraced cluster run, then a traced one with every
/// lower layer replaying its ops in lockstep.
Figures traced_round(const WorkloadSpec& w, u64 seed, const std::string& spans_path) {
  RunOpts base = measured_opts(w);
  base.fixed_segments =
      static_cast<u32>((kTraceWindowOps + w.segment_ops - 1) / w.segment_ops);
  const ClusterRun u = run_cluster(w, seed, base);

  const cl::ClusterConfig cfg = cluster_config(w, kWorkers, seed);
  NetLog calls;  // fabric calls, recorded by an untimed conference replay
  Replayer<ConferenceBackend> record("conference.record", cfg, &calls);
  SpanLog sw_log("switchmod");
  SwitchmodReplay switchmod(cfg, sw_log);
  Replayer<ConferenceBackend> conference("conference", cfg,
                                         static_cast<NetLog*>(nullptr));
  Replayer<InlineBackend> inline_rt("runtime.inline", cfg);
  Replayer<RoundTripBackend> roundtrip("runtime.roundtrip", cfg);

  auto recovery_total = [&] {
    confnet::conf::RecoveryStats sum;
    for (u32 s = 0; s < kShards; ++s) {
      const auto& r = conference.backend().shard(s).recovery_stats();
      sum.sessions_interrupted += r.sessions_interrupted;
      sum.recovered_inplace += r.recovered_inplace;
    }
    return sum;
  };
  confnet::conf::RecoveryStats rec0;
  confnet::runtime::ShardStats rs0;
  double rt_cpu = 0.0;  // process CPU time of the round-trip replay's window
  u32 done = 0;
  RunOpts tr = base;
  SpanLog cl_log("cluster");
  cl_log.reserve(base.fixed_segments * w.segment_ops);
  tr.spans = &cl_log;
  tr.record = true;
  tr.on_progress = [&](const ClusterRun& t, u32 upto) {
    const bool in_window = done >= t.first_op;
    record.advance(t, upto, [] {});
    sw_log.start_at(t.first_op);
    switchmod.advance(calls, t.first_op);
    conference.advance(t, upto, [&] { rec0 = recovery_total(); });
    inline_rt.advance(t, upto, [] {});
    const double cpu0 = process_cpu_s();
    roundtrip.advance(t, upto, [&] {
      roundtrip.backend().runtime().drain();
      rs0 = roundtrip.backend().runtime().snapshot().total;
    });
    if (in_window) rt_cpu += process_cpu_s() - cpu0;
    done = upto;
  };
  const ClusterRun t = run_cluster(w, seed, tr);
  require_same_outcomes(u, t, "traced vs untraced cluster");

  // Ledger equality at every layer.
  auto tallies_match = [&](auto shard_tally, const std::string& layer) {
    for (u32 s = 0; s < kShards; ++s)
      ledger_require(shard_tally(s) == t.shards[s], layer,
                     "shard " + std::to_string(s) + " counters drifted");
  };
  record.check_ledger(t);
  conference.check_ledger(t);
  tallies_match([&](u32 s) { return conference.backend().shard(s).tally(); },
                "conference");
  inline_rt.check_ledger(t);
  for (u32 s = 0; s < kShards; ++s)
    ledger_require(inline_rt.backend().stats(s).consistent(), "runtime.inline",
                   "ShardStats::consistent() failed");
  tallies_match(
      [&](u32 s) { return ShardTally::of(inline_rt.backend().stats(s)); },
      "runtime.inline");
  roundtrip.check_ledger(t);
  confnet::runtime::Runtime& runtime = roundtrip.backend().runtime();
  runtime.drain();
  const confnet::runtime::RuntimeSnapshot snap = runtime.snapshot();
  for (u32 s = 0; s < kShards; ++s)
    ledger_require(snap.shards[s].consistent(), "runtime.roundtrip",
                   "ShardStats::consistent() failed");
  tallies_match([&](u32 s) { return ShardTally::of(snap.shards[s]); },
                "runtime.roundtrip");
  const confnet::conf::RecoveryStats rec1 = recovery_total();
  const confnet::runtime::ShardStats& rs1 = snap.total;

  const SpanLog& cf_log = conference.log();
  const SpanLog& in_log = inline_rt.log();
  const SpanLog& rt_log = roundtrip.log();
  const auto k = static_cast<double>(t.timed_ops());
  const cl::ClusterStats& s0 = t.stats0;
  const cl::ClusterStats& s1 = t.stats;
  auto d = [](u64 a, u64 b) { return static_cast<double>(b - a); };
  const double opens = d(s0.intra_opens + s0.span_opens, s1.intra_opens + s1.span_opens);
  const double span_opens = d(s0.span_opens, s1.span_opens);
  const double fault_events =
      static_cast<double>(cf_log.durations_us(kFailSpan).size() +
                          cf_log.durations_us(kRepairSpan).size());

  Figures f;
  f["switchmod.setup_us_per_op"] = sw_log.total_us() / k;
  f["switchmod.setup_p50_us"] = median(sw_log.durations_us(kSetupSpan));
  f["switchmod.refused_ratio"] = ratio(static_cast<double>(switchmod.refused()),
                                       static_cast<double>(switchmod.setups()));
  f["switchmod.allocs_per_op"] = static_cast<double>(sw_log.total_allocs()) / k;
  f["conference.us_per_op"] = cf_log.total_us() / k;
  f["conference.open_p50_us"] = median(cf_log.durations_us(kOpenSpan));
  f["conference.fault_us_per_event"] =
      ratio(sum_us(cf_log, kFailSpan) + sum_us(cf_log, kRepairSpan),
            fault_events);
  f["conference.repack_ratio"] =
      ratio(d(rec0.recovered_inplace, rec1.recovered_inplace),
            d(rec0.sessions_interrupted, rec1.sessions_interrupted));
  f["conference.allocs_per_op"] = static_cast<double>(cf_log.total_allocs()) / k;
  f["runtime.inline_us_per_op"] = in_log.total_us() / k;
  f["runtime.roundtrip_us_per_op"] = rt_log.total_us() / k;
  f["runtime.roundtrip_p50_us"] = median(rt_log.durations_us(kOpenSpan));
  f["runtime.commands_per_op"] = d(rs0.commands, rs1.commands) / k;
  f["runtime.bursts_per_command"] =
      ratio(d(rs0.bursts, rs1.bursts), d(rs0.commands, rs1.commands));
  f["runtime.max_queue_depth"] = static_cast<double>(rs1.max_queue_depth);
  f["runtime.submit_bounced"] = d(rs0.submit_bounced, rs1.submit_bounced);
  f["runtime.pooled_slots"] = static_cast<double>(runtime.pooled_slots());
  f["runtime.cpu_us_per_op"] = rt_cpu * 1e6 / k;
  f["runtime.allocs_per_op"] = static_cast<double>(rt_log.total_allocs()) / k;
  f["cluster.us_per_op"] = cl_log.total_us() / k;
  const std::vector<double> cl_open = cl_log.durations_us(kOpenSpan);
  f["cluster.open_p99_us"] = percentile(cl_open, 0.99);
  f["cluster.open_p999_us"] = percentile(cl_open, 0.999);
  f["cluster.legs_per_span"] =
      ratio(d(s0.legs_reserved, s1.legs_reserved),
            span_opens - d(s0.span_blocked_trunk, s1.span_blocked_trunk));
  f["cluster.leg_rollback_ratio"] = ratio(d(s0.legs_rolled_back, s1.legs_rolled_back),
                                          d(s0.legs_reserved, s1.legs_reserved));
  f["cluster.trunk_block_ratio"] =
      ratio(d(s0.span_blocked_trunk, s1.span_blocked_trunk), opens);
  f["cluster.local_block_ratio"] =
      ratio(d(s0.intra_blocked + s0.span_blocked_local,
              s1.intra_blocked + s1.span_blocked_local),
            opens);
  f["cluster.lane_acquires_per_span"] = ratio(d(t.lanes0, t.lanes), span_opens);
  f["cluster.trunk_peak"] = static_cast<double>(t.trunk_peak);
  f["cluster.interrupted_per_fault"] =
      ratio(d(s0.intra_interrupted + s0.span_interrupted,
              s1.intra_interrupted + s1.span_interrupted),
            d(s0.link_failures, s1.link_failures));
  f["cluster.legs_relocated"] = d(s0.legs_relocated, s1.legs_relocated);
  f["cluster.allocs_per_op"] = static_cast<double>(cl_log.total_allocs()) / k;
  f["window_ops"] = k;
  f["window_failed"] = static_cast<double>(t.failed);
  f["window_opens"] = static_cast<double>(cl_open.size());
  f["trace.overhead_ratio"] = ratio(cl_log.total_us() / k,
                                    u.call_us / static_cast<double>(u.timed_ops()));

  if (!spans_path.empty()) {
    std::ofstream os(spans_path);
    os << "layer,name,op,start_ns,end_ns,allocs\n";
    const SpanLog* const logs[] = {&cl_log, &rt_log, &in_log, &cf_log, &sw_log};
    for (const SpanLog* log : logs) log->write_csv(os);
  }
  return f;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Histogram as a JSON object, keys merged into buckets of `width`.
std::string hist_json(const std::map<u32, u64>& h, u32 width) {
  std::map<u32, u64> buckets;
  for (const auto& [k, v] : h) buckets[k / width * width] += v;
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : buckets) {
    os << (first ? "" : ", ") << '"' << k;
    if (width > 1) os << '-' << k + width - 1;
    os << "\": " << v;
    first = false;
  }
  os << '}';
  return os.str();
}

void print_host() {
  const HostShape h = host_shape();
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::cout << "host {\"nproc\": " << h.nproc
            << ", \"affinity_cpus\": " << h.affinity_cpus
            << ", \"affinity_mask\": \"0x" << h.affinity_mask
            << "\", \"compiler\": \"" << compiler
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"simd\": \"" << confnet::util::simd::active_backend_name()
            << "\", \"shards\": " << kShards << ", \"workers\": " << kWorkers
            << "}\n";
}

void print_shape(const WorkloadSpec& w, const ClusterRun& r) {
  u64 placement = 0, capacity = 0, fault = 0, attempts = 0;
  for (const auto& s : r.sessions) {
    placement += s.blocked_placement;
    capacity += s.blocked_capacity;
    fault += s.blocked_fault;
    attempts += s.attempts;
  }
  const auto share = [&](u64 n) {
    return number(ratio(static_cast<double>(n), static_cast<double>(r.win.opens)));
  };
  std::cout << "workload {\"name\": \"" << w.name << "\", \"fabric\": \""
            << kShards << "xN=" << (1u << w.stages) << " dilation "
            << w.dilation << "\", \"live_target\": " << w.live_target
            << ", \"untimed_ops\": " << r.first_op
            << ", \"window_ops\": " << r.win.ops
            << ", \"op_mix\": {\"open\": " << r.win.opens
            << ", \"close\": " << r.win.closes
            << ", \"fail_link\": " << r.win.fails
            << ", \"repair_link\": " << r.win.repairs
            << "}, \"conference_size\": "
            << hist_json(r.win.sizes, w.max_members * w.max_span > 16 ? 16 : 1)
            << ", \"span_fanout\": " << hist_json(r.win.fanout, 1)
            << ", \"refused_share\": {\"local\": " << share(r.win.refused_local)
            << ", \"trunk\": " << share(r.win.refused_trunk)
            << "}, \"shard_refusals\": {\"attempts\": " << attempts
            << ", \"placement\": " << placement << ", \"capacity\": "
            << capacity << ", \"fault\": " << fault << "}}\n";
}

struct LayerUnit {
  const char* name;
  const char* unit;
};

// Per-layer metrics in output order.
const std::vector<LayerUnit>& layer_units() {
  static const std::vector<LayerUnit> units = {
      {"switchmod.setup_us_per_op", "us"},
      {"switchmod.setup_p50_us", "us"},
      {"switchmod.refused_ratio", "ratio"},
      {"switchmod.allocs_per_op", "count"},
      {"conference.us_per_op", "us"},
      {"conference.self_us_per_op", "us"},
      {"conference.open_p50_us", "us"},
      {"conference.fault_us_per_event", "us"},
      {"conference.repack_ratio", "ratio"},
      {"conference.allocs_per_op", "count"},
      {"runtime.inline_us_per_op", "us"},
      {"runtime.inline_self_us_per_op", "us"},
      {"runtime.roundtrip_us_per_op", "us"},
      {"runtime.roundtrip_p50_us", "us"},
      {"runtime.handoff_us_per_op", "us"},
      {"runtime.commands_per_op", "count"},
      {"runtime.bursts_per_command", "ratio"},
      {"runtime.max_queue_depth", "count"},
      {"runtime.submit_bounced", "count"},
      {"runtime.pooled_slots", "count"},
      {"runtime.cpu_us_per_op", "us"},
      {"runtime.allocs_per_op", "count"},
      {"cluster.us_per_op", "us"},
      {"cluster.self_us_per_op", "us"},
      {"cluster.open_p99_us", "us"},
      {"cluster.open_p999_us", "us"},
      {"cluster.legs_per_span", "count"},
      {"cluster.leg_rollback_ratio", "ratio"},
      {"cluster.trunk_block_ratio", "ratio"},
      {"cluster.local_block_ratio", "ratio"},
      {"cluster.lane_acquires_per_span", "count"},
      {"cluster.trunk_peak", "count"},
      {"cluster.interrupted_per_fault", "ratio"},
      {"cluster.legs_relocated", "count"},
      {"cluster.allocs_per_op", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return units;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec& w = *spec;
  print_host();
  const std::int64_t start = now_ns();
  const CpuTicks ticks0 = cpu_ticks();
  auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };

  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  if (args.trace == 0) {
    constexpr int kSetupSamples = 15;
    std::vector<double> setup;
    for (int i = 1; i < kSetupSamples; ++i)
      setup.push_back(measure_setup(w, args.seed));
    RunOpts o = measured_opts(w);
    o.extra_until_s = args.seconds;
    o.start = start;
    const ClusterRun r = run_cluster(w, args.seed, o);
    setup.push_back(r.setup_s);
    // Every timing is the median over segments of that segment's figure,
    // so a minority of segments disturbed by other load cannot move it.
    std::vector<double> rates, cpu, open50, open90, close50;
    u64 opens = 0, closes = 0;
    for (const Segment& seg : r.segments) {
      rates.push_back(static_cast<double>(seg.ops) / seg.timed_s);
      cpu.push_back(seg.cpu_s * 1e6 / static_cast<double>(seg.ops));
      open50.push_back(seg.open_p50_us);
      open90.push_back(seg.open_p90_us);
      close50.push_back(seg.close_p50_us);
      opens += seg.opens;
      closes += seg.closes;
    }
    attempted = r.timed_ops();
    failed = r.failed;
    check_worker_invariance(w, args.seed);
    print_shape(w, r);
    std::cout << "samples {\"segments\": " << r.segments.size()
              << ", \"segment_ops\": " << w.segment_ops
              << ", \"segment_ops_per_s_q1\": " << number(percentile(rates, 0.25))
              << ", \"segment_ops_per_s_q3\": " << number(percentile(rates, 0.75))
              << ", \"opens\": " << opens << ", \"closes\": " << closes
              << ", \"setups\": " << setup.size() << "}\n";
    metrics = {
        {"ops_per_s", median(rates), "1/s"},
        {"open_p50_us", median(open50), "us"},
        {"open_p90_us", median(open90), "us"},
        {"close_p50_us", median(close50), "us"},
        {"blocked_ratio",
         ratio(static_cast<double>(r.win.refused()),
               static_cast<double>(r.win.opens)),
         "ratio"},
        {"cpu_us_per_op", median(cpu), "us"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> per_round;
    int rounds = 0;
    while (rounds < 1 || elapsed_s() < args.seconds) {
      const Figures f = traced_round(w, args.seed, args.spans);
      for (const auto& [name, v] : f) per_round[name].push_back(v);
      attempted += static_cast<u64>(f.at("window_ops"));
      failed += static_cast<u64>(f.at("window_failed"));
      ++rounds;
    }
    check_worker_invariance(w, args.seed);
    Figures med;
    for (const auto& [name, v] : per_round) med[name] = median(v);
    // Self times are differences of the median layer totals, so they
    // telescope exactly to cluster.us_per_op.
    med["conference.self_us_per_op"] =
        med["conference.us_per_op"] - med["switchmod.setup_us_per_op"];
    med["runtime.inline_self_us_per_op"] =
        med["runtime.inline_us_per_op"] - med["conference.us_per_op"];
    med["runtime.handoff_us_per_op"] =
        med["runtime.roundtrip_us_per_op"] - med["runtime.inline_us_per_op"];
    med["cluster.self_us_per_op"] =
        med["cluster.us_per_op"] - med["runtime.roundtrip_us_per_op"];
    std::cout << "samples {\"rounds\": " << rounds
              << ", \"window_ops_per_round\": " << number(med["window_ops"])
              << ", \"cluster_opens_per_round\": " << number(med["window_opens"])
              << "}\n";
    std::cout << "telescope {\"switchmod\": " << number(med["switchmod.setup_us_per_op"])
              << ", \"conference_self\": " << number(med["conference.self_us_per_op"])
              << ", \"inline_self\": " << number(med["runtime.inline_self_us_per_op"])
              << ", \"handoff\": " << number(med["runtime.handoff_us_per_op"])
              << ", \"cluster_self\": " << number(med["cluster.self_us_per_op"])
              << ", \"cluster\": " << number(med["cluster.us_per_op"]) << "}\n";
    for (const LayerUnit& lu : layer_units())
      metrics.push_back({lu.name, med.at(lu.name), lu.unit});
  }
  const CpuTicks ticks1 = cpu_ticks();
  std::cout << "host_load {\"steal_share\": "
            << number(ratio(static_cast<double>(ticks1.steal - ticks0.steal),
                            static_cast<double>(ticks1.total - ticks0.total)))
            << ", \"wall_s\": " << number(elapsed_s()) << "}\n";
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: confnet_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <csv>]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "correctness gate failed: " << e.what() << '\n';
    perfbench::print_result(false, 0, 1, {});
    return 1;
  }
}
