// Shared pieces of the end-to-end benchmark: options, the result record
// every workload fills, clocks and percentiles, process counters, and the
// reduction of the library's spans into per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 4;  // the library's kernel/search pool (--threads)
  std::string state_dir;    // cross-run records (path histograms); may be ""
};

/// What one invocation reports. `metrics` holds the end-to-end metrics for an
/// untraced run and the per-layer metrics for a traced one; `lines` is the
/// human-readable report printed before the JSON line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> lines;

  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Marks the run incorrect and says why.
  void fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

double now_s();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// CPU seconds the hypervisor gave to other guests, summed over this
/// machine's CPUs (/proc/stat "steal"); 0 where it is not reported.
double steal_s();

/// The clocks an operation or phase is timed against: wall time, this
/// process's getrusage(RUSAGE_SELF) counters (all threads) and the
/// machine's stolen time.
struct Stamp {
  double wall_s = 0.0, user_s = 0.0, sys_s = 0.0;
  double minor_faults = 0.0, invol_ctx_switches = 0.0;
  double steal_s = 0.0;
};
Stamp stamp();

/// Share of this process's CPU demand over [a, b] that the hypervisor
/// granted: cpu / (cpu + steal), 1 when nothing was stolen. On a shared VM
/// a neighbour can hold the CPUs for tens of seconds; scaling wall times by
/// this share takes that time out. It assumes this process is the only
/// demand on the machine's CPUs, which holds while the benchmark runs.
double cpu_share(const Stamp& a, const Stamp& b);

/// Wall milliseconds of `fn`, scaled by cpu_share over the call.
template <class Fn>
double time_ms(Fn&& fn) {
  const Stamp a = stamp();
  fn();
  const Stamp b = stamp();
  return (b.wall_s - a.wall_s) * 1e3 * cpu_share(a, b);
}

/// proc.cpu_user_s, proc.cpu_sys_s, proc.minor_faults,
/// proc.invol_ctx_switches, proc.parallelism and proc.steal_frac over [a, b].
void add_proc_metrics(Result& out, const Stamp& a, const Stamp& b);

/// Per-span-name totals accumulated from one or more span sets, reduced with
/// obs::profile_spans (self time, critical-path self time) plus the raw
/// wall-time samples and per-(parent, name) wall time.
class SpanProfile {
 public:
  /// Profiles `spans` and folds the result in.
  void absorb(const std::vector<cadmc::obs::SpanRecord>& spans);
  /// Profiles everything `registry` holds, folds in its counters, then
  /// empties it. Only call while no other thread records into it.
  void drain(cadmc::obs::MetricsRegistry& registry);
  void add_counters(const std::map<std::string, std::int64_t>& counters);

  double self_ms(const std::string& name) const;
  double wall_ms(const std::string& name) const;
  /// Wall time of spans called `name` whose parent span is `parent`.
  double wall_ms_under(const std::string& name, const std::string& parent) const;
  /// Sum of self time of every span whose name starts with `prefix`.
  double self_ms_prefix(const std::string& prefix) const;
  /// Share of the summed critical paths spent in `name`'s own code.
  double critical_share(const std::string& name) const;
  std::vector<double> walls(const std::string& name) const;
  double counter(const std::string& name) const;

  /// Names sorted by self time, largest first.
  std::vector<std::pair<std::string, double>> by_self_ms() const;
  std::string bottleneck() const;  // largest critical-path self time

 private:
  struct Totals {
    double self_ms = 0.0, wall_ms = 0.0, critical_self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name_;
  std::map<std::string, double> wall_under_;  // "parent>name"
  std::map<std::string, std::vector<double>> walls_;
  std::map<std::string, double> counters_;
  double critical_total_ms_ = 0.0;
};

/// Shared per-layer names that come straight from kernel spans and counters,
/// each divided by `ops` (timed operations of the traced pass).
void add_kernel_metrics(Result& out, const SpanProfile& p, double ops);

/// Every per-layer metric name with its unit, in report order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_units();
/// Every end-to-end metric name with its unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_units();

Result run_frame_local(const Options& opt);
Result run_field_gateway(const Options& opt);
Result run_field_capacity(const Options& opt);
Result run_offline(const Options& opt);

}  // namespace e2e
