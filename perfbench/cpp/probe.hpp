// Measurement helpers: wall and CPU clocks, a global allocation counter,
// in-memory span recording, percentiles and the host description.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer: name, start, end and the workload op index (the id every layer's
// spans of one op share). They stay in memory and are written out when the
// run ends.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Allocation counter, fed by the operator new replacement in alloc.cpp.
// Counting is off unless armed, so untraced runs pay one relaxed load.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<u64> g_allocs;

inline u64 allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

/// One timed call into a layer.
struct Span {
  u32 op = 0;           // workload op index (shared by every layer)
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  u32 allocs = 0;       // allocations made while the span was open
};

/// Spans of one layer, kept in memory. Spans of ops before `from_op`
/// (warm-up and pre-roll) are not kept; by default none are until
/// start_at() names the first timed op.
class SpanLog {
 public:
  explicit SpanLog(const char* layer) : layer_(layer) {}

  void reserve(std::size_t n) { spans_.reserve(n); }
  void start_at(u32 op) { from_op_ = op; }

  struct Open {
    std::int64_t start;
    u64 allocs;
  };
  [[nodiscard]] static Open begin() { return Open{now_ns(), allocs_now()}; }

  void end(const Open& o, u32 op, const char* name) {
    end_at(o, now_ns(), op, name);
  }
  void end_at(const Open& o, std::int64_t t, u32 op, const char* name) {
    if (op < from_op_) return;
    spans_.push_back(
        Span{op, name, o.start, t, static_cast<u32>(allocs_now() - o.allocs)});
  }

  /// Total span time (us) and allocations.
  [[nodiscard]] double total_us() const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) ns += s.end - s.start;
    return static_cast<double>(ns) * 1e-3;
  }
  [[nodiscard]] u64 total_allocs() const {
    u64 n = 0;
    for (const Span& s : spans_) n += s.allocs;
    return n;
  }
  /// Durations (us) of spans named `name` (pointer identity).
  [[nodiscard]] std::vector<double> durations_us(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name)
        out.push_back(static_cast<double>(s.end - s.start) * 1e-3);
    return out;
  }

  void write_csv(std::ostream& os) const {
    for (const Span& s : spans_)
      os << layer_ << ',' << s.name << ',' << s.op << ',' << s.start << ','
         << s.end << ',' << s.allocs << '\n';
  }

 private:
  const char* layer_;
  u32 from_op_ = ~u32{0};
  std::vector<Span> spans_;
};

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

/// Median; the mean of the two middle values for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host-wide CPU ticks from /proc/stat: steal (time the hypervisor ran
/// something else on our virtual CPUs) and the total. Zero when unreadable.
struct CpuTicks {
  u64 steal = 0;
  u64 total = 0;
};

inline CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  u64 v = 0;
  for (int i = 0; fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

/// Online CPUs and the affinity mask this process may run on.
struct HostShape {
  long nproc = 0;
  int affinity_cpus = 0;
  std::string affinity_mask;  // hex, CPU 0 = least significant bit
};

inline HostShape host_shape() {
  HostShape h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.affinity_cpus = CPU_COUNT(&set);
    std::size_t top = 0;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) top = c;
    for (std::size_t nib = top / 4 + 1; nib-- > 0;) {
      int v = 0;
      for (std::size_t b = 0; b < 4; ++b)
        if (CPU_ISSET(nib * 4 + b, &set)) v |= 1 << b;
      h.affinity_mask += "0123456789abcdef"[v];
    }
  }
  return h;
}

}  // namespace perfbench
