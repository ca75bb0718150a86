#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/critpath.h"

namespace e2e {

namespace {
std::string vformat(const char* fmt, va_list args) {
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  return buf;
}
}  // namespace

void Result::line(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  lines.push_back(vformat(fmt, args));
  va_end(args);
}

void Result::fail(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  lines.push_back("CHECK FAILED: " + vformat(fmt, args));
  va_end(args);
  correct = false;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  stat >> cpu;
  for (double& f : field) stat >> f;
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return cpu == "cpu" && stat ? field[7] / ticks : 0.0;
}

double cpu_share(const Stamp& a, const Stamp& b) {
  const double cpu = b.user_s + b.sys_s - a.user_s - a.sys_s;
  const double steal = b.steal_s - a.steal_s;
  return cpu > 0.0 && steal > 0.0 ? cpu / (cpu + steal) : 1.0;
}

Stamp stamp() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  Stamp s;
  s.wall_s = now_s();
  s.user_s = secs(ru.ru_utime);
  s.sys_s = secs(ru.ru_stime);
  s.minor_faults = static_cast<double>(ru.ru_minflt);
  s.invol_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  s.steal_s = steal_s();
  return s;
}

void add_proc_metrics(Result& out, const Stamp& a, const Stamp& b) {
  const double user = b.user_s - a.user_s, sys = b.sys_s - a.sys_s;
  const double wall = b.wall_s - a.wall_s;
  out.metrics["proc.cpu_user_s"] = user;
  out.metrics["proc.cpu_sys_s"] = sys;
  out.metrics["proc.minor_faults"] = b.minor_faults - a.minor_faults;
  out.metrics["proc.invol_ctx_switches"] =
      b.invol_ctx_switches - a.invol_ctx_switches;
  out.metrics["proc.parallelism"] = wall > 0.0 ? (user + sys) / wall : 0.0;
  // Stolen share of the CPU time this process asked for.
  const double steal = b.steal_s - a.steal_s;
  out.metrics["proc.steal_frac"] =
      user + sys + steal > 0.0 ? steal / (user + sys + steal) : 0.0;
}

void SpanProfile::absorb(const std::vector<cadmc::obs::SpanRecord>& spans) {
  const cadmc::obs::ProfileReport report = cadmc::obs::profile_spans(spans);
  critical_total_ms_ += report.critical_total_ms;
  for (const auto& [name, st] : report.by_name) {
    Totals& t = by_name_[name];
    t.self_ms += st.total_self_ms;
    t.wall_ms += st.total_wall_ms;
    t.critical_self_ms += st.critical_self_ms;
  }
  for (const cadmc::obs::TraceProfile& trace : report.traces) {
    for (const cadmc::obs::CritNode& node : trace.nodes) {
      walls_[node.span.name].push_back(node.span.wall_ms);
      if (node.parent >= 0) {
        const auto& parent = trace.nodes[static_cast<std::size_t>(node.parent)];
        wall_under_[parent.span.name + ">" + node.span.name] += node.span.wall_ms;
      }
    }
  }
}

void SpanProfile::drain(cadmc::obs::MetricsRegistry& registry) {
  absorb(registry.spans());
  add_counters(registry.counter_values());
  registry.reset();
}

void SpanProfile::add_counters(const std::map<std::string, std::int64_t>& counters) {
  for (const auto& [name, value] : counters)
    counters_[name] += static_cast<double>(value);
}

double SpanProfile::self_ms(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.self_ms;
}

double SpanProfile::wall_ms(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.wall_ms;
}

double SpanProfile::wall_ms_under(const std::string& name,
                                  const std::string& parent) const {
  auto it = wall_under_.find(parent + ">" + name);
  return it == wall_under_.end() ? 0.0 : it->second;
}

double SpanProfile::self_ms_prefix(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, t] : by_name_)
    if (name.rfind(prefix, 0) == 0) total += t.self_ms;
  return total;
}

double SpanProfile::critical_share(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end() || critical_total_ms_ <= 0.0) return 0.0;
  return it->second.critical_self_ms / critical_total_ms_;
}

std::vector<double> SpanProfile::walls(const std::string& name) const {
  auto it = walls_.find(name);
  return it == walls_.end() ? std::vector<double>{} : it->second;
}

double SpanProfile::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> SpanProfile::by_self_ms() const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, t] : by_name_) out.emplace_back(name, t.self_ms);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return out;
}

std::string SpanProfile::bottleneck() const {
  std::string best;
  double best_ms = -1.0;
  for (const auto& [name, t] : by_name_)
    if (t.critical_self_ms > best_ms) {
      best = name;
      best_ms = t.critical_self_ms;
    }
  return best;
}

void add_kernel_metrics(Result& out, const SpanProfile& p, double ops) {
  if (ops <= 0.0) return;
  const double gemm_ms = p.self_ms("kernel_conv_forward") +
                         p.self_ms("kernel_conv_backward") +
                         p.self_ms("kernel_gemm");
  out.metrics["tensor.conv_fwd_ms"] = p.self_ms("kernel_conv_forward") / ops;
  out.metrics["tensor.conv_bwd_ms"] = p.self_ms("kernel_conv_backward") / ops;
  out.metrics["tensor.gemm_ms"] = p.self_ms("kernel_gemm") / ops;
  // Every GEMM-shaped flop (conv lowering and plain matmul) over the time of
  // the three spans that run them.
  out.metrics["tensor.gemm_gflops"] =
      gemm_ms > 0.0 ? p.counter("cadmc.kernel.gemm_flops") / gemm_ms / 1e6 : 0.0;
  out.metrics["tensor.pool_ms"] = p.self_ms("kernel_pool") / ops;
  out.metrics["tensor.relu_ms"] = p.self_ms("kernel_relu") / ops;
  out.metrics["tensor.loss_ms"] = p.self_ms("kernel_loss") / ops;
  out.metrics["tensor.sgd_ms"] = p.self_ms("kernel_sgd_step") / ops;
  out.metrics["tensor.arena_grows"] = p.counter("cadmc.kernel.arena.grows") / ops;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"tensor.conv_fwd_ms", "ms"},
        {"tensor.conv_bwd_ms", "ms"},
        {"tensor.gemm_ms", "ms"},
        {"tensor.gemm_gflops", "GFLOP/s"},
        {"tensor.pool_ms", "ms"},
        {"tensor.relu_ms", "ms"},
        {"tensor.loss_ms", "ms"},
        {"tensor.sgd_ms", "ms"},
        {"tensor.arena_grows", "count"},
        {"nn.edge_forward_ms", "ms"},
        {"nn.cloud_forward_ms", "ms"},
        {"engine.realize_ms", "ms"},
        {"engine.realize_mb", "MB"},
        {"engine.eval_cache_hit_ratio.memo", "ratio"},
        {"engine.eval_cache_hit_ratio.edge_latency", "ratio"},
        {"engine.eval_cache_hit_ratio.mask", "ratio"},
        {"engine.evaluations", "count"},
        {"tree.compose_ms", "ms"},
        {"tree.search_ms", "ms"},
        {"tree.episodes_per_s", "1/s"},
        {"tree.kernel_frac", "ratio"},
        {"tree.offload_frac", "ratio"},
        {"tree.paths_visited", "count"},
    };
    // Frames per schedule cycle on each Alg. 2 fork prefix (K = 2, N = 3).
    for (const char* path : {"f0", "f1", "f00", "f01", "f10", "f11", "f000",
                             "f001", "f010", "f011", "f100", "f101", "f110",
                             "f111"})
      u.emplace_back(std::string("tree.path_hist.") + path, "count");
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"field.edge_ms", "ms"},
        {"field.lo_p95_ms", "ms"},
        {"field.hi_p50_ms", "ms"},
        {"field.degraded_frac", "ratio"},
        {"transport.call_ms", "ms"},
        {"transport.bytes_per_frame", "B"},
        {"gateway.lo.queue_wait_p50_ms", "ms"},
        {"gateway.lo.queue_wait_p95_ms", "ms"},
        {"gateway.hi.queue_wait_p50_ms", "ms"},
        {"gateway.hi.queue_wait_p95_ms", "ms"},
        {"gateway.shed", "count"},
        {"gateway.expired", "count"},
        {"fault.edge_fallbacks", "count"},
        {"fault.deadline_misses", "count"},
        {"executor.cloud_handle_ms", "ms"},
        {"executor.cloud_wait_ms", "ms"},
        {"proc.cpu_user_s", "s"},
        {"proc.cpu_sys_s", "s"},
        {"proc.minor_faults", "count"},
        {"proc.invol_ctx_switches", "count"},
        {"proc.parallelism", "ratio"},
        {"proc.steal_frac", "ratio"},
        {"gen.late_p95_ms", "ms"},
        {"obs.trace_overhead_frac", "ratio"},
        {"cp.bottleneck_share", "ratio"},
    };
    u.insert(u.end(), rest.begin(), rest.end());
    return u;
  }();
  return units;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"p50_ms", "ms"},
      {"p95_ms", "ms"},       {"per_s", "1/s"},
  };
  return units;
}

}  // namespace e2e
