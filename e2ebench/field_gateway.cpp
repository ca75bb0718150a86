// field_gateway — the served path: four FieldSessions, each with one
// connection and one client thread, share one CloudExecutor whose gateway
// runs two workers. Frames arrive open-loop at two fixed aggregate rates
// (phase `lo`, then phase `hi`). Each frame runs the edge half locally,
// crosses a real loopback socket, queues at the gateway and runs the cloud
// half there, all in deterministic kernel mode. Every realize and slice
// happens in set-up, so the timed phases only serve.
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "compress/registry.h"
#include "data/synth_cifar.h"
#include "latency/device_profile.h"
#include "net/generator.h"
#include "net/scenes.h"
#include "nn/factory.h"
#include "obs/span.h"
#include "runtime/field.h"
#include "tensor/kernel_mode.h"
#include "util/rng.h"

namespace e2e {

using namespace cadmc;

namespace {

constexpr int kSessions = 4;
constexpr int kGatewayWorkers = 2;
constexpr int kImages = 8;        // input images per strategy
constexpr int kWarmupFrames = 4;  // closed-loop frames per session
constexpr int kSetups = 3;
// Latency SLO and cloud deadline: the top of the paper's latency
// normalisation range (RewardConfig::lat_max_ms).
constexpr double kSloMs = 500.0;
// Aggregate arrival rates, frozen: about 0.3 and 0.6 of the closed-loop
// capacity `field_capacity` measured when this benchmark was added (4-vCPU
// x86 VM, AVX2, Release build: 32.6 frames/s). A faster program meets the
// same load. At 3/4 of capacity a shared host's slow minutes push the
// gateway close to saturation and the hi p95 of one run in five doubled;
// 0.6 still queues at the gateway without that.
constexpr double kLoFps = 10.0;
constexpr double kHiFps = 20.0;
constexpr const char* kScene = "4G indoor static";

struct Deployment {
  // Declared before the sessions: they unregister from it on destruction.
  std::unique_ptr<runtime::CloudExecutor> cloud;
  std::vector<std::unique_ptr<runtime::FieldSession>> sessions;
  std::vector<int> strategy_of;  // per session: 0 or 1
};

/// Two strategies cut at VGG11 block boundaries: A keeps block A on the edge,
/// B keeps blocks A-B with the first prunable conv filter-pruned (W1). Two
/// sessions serve each, so their duplicate cloud halves show in peak RSS.
std::vector<engine::RealizedStrategy> realize_strategies(const nn::Model& base) {
  const auto boundaries = nn::block_boundaries(base, 3);
  const compress::TechniqueRegistry registry;
  std::vector<engine::RealizedStrategy> out;
  for (std::size_t b = 0; b < 2; ++b) {
    engine::Strategy s;
    s.cut = boundaries[b];
    s.plan.assign(base.size(), compress::TechniqueId::kNone);
    if (b == 1) {
      const nn::Model edge = base.slice(0, s.cut);
      for (std::size_t i = 0; i < s.cut; ++i)
        if (registry.technique(compress::TechniqueId::kW1FilterPrune)
                .applicable(edge, i)) {
          s.plan[i] = compress::TechniqueId::kW1FilterPrune;
          break;
        }
    }
    util::Rng rng(0xF1E1D + b);
    out.push_back(engine::realize_strategy(base, s, registry, rng));
  }
  return out;
}

std::unique_ptr<Deployment> deploy(const std::vector<engine::RealizedStrategy>& realized) {
  auto d = std::make_unique<Deployment>();
  const net::Scene scene = net::scene_by_name(kScene);
  const net::BandwidthTrace trace =
      net::generate_trace(scene.trace, 60'000.0, 0x7A2CE);
  const latency::ComputeLatencyModel edge(latency::phone_profile());
  const latency::ComputeLatencyModel cloud(latency::cloud_profile());
  runtime::GatewayConfig gateway;
  gateway.worker_threads = kGatewayWorkers;
  const auto& first = realized[0];
  d->cloud = std::make_unique<runtime::CloudExecutor>(
      first.model.slice(first.cut, first.model.size()), cloud, gateway);
  for (int s = 0; s < kSessions; ++s) {
    runtime::FieldFaultConfig faults;
    faults.cloud_deadline_ms = kSloMs;
    faults.shared_cloud = d->cloud.get();
    faults.session_id = static_cast<std::uint64_t>(s) + 1;
    const int which = s < kSessions / 2 ? 0 : 1;
    d->strategy_of.push_back(which);
    d->sessions.push_back(std::make_unique<runtime::FieldSession>(
        realized[static_cast<std::size_t>(which)], edge, cloud, trace,
        scene.rtt_ms, /*time_scale=*/0.0, faults));
  }
  return d;
}

/// Set-up as a user pays it: build VGG11, realize both strategies, start the
/// gateway and connect the sessions.
std::unique_ptr<Deployment> set_up(std::vector<double>& setup_ms,
                                   std::vector<engine::RealizedStrategy>& keep) {
  std::unique_ptr<Deployment> d;
  setup_ms.push_back(time_ms([&] {
    const nn::Model base = nn::make_vgg11();
    keep = realize_strategies(base);
    d = deploy(keep);
  }));
  return d;
}

struct Inputs {
  std::vector<tensor::Tensor> images;
  std::vector<std::vector<tensor::Tensor>> reference;  // [strategy][image]
};

/// Reference logits: a local forward pass of each realized model on each
/// image. Deterministic mode makes the served logits bitwise equal to them.
Inputs make_inputs(std::uint64_t seed,
                   std::vector<engine::RealizedStrategy>& realized) {
  Inputs in;
  const data::SynthCifar camera(32, 10, seed ^ 0xF1E1D);
  for (int i = 0; i < kImages; ++i)
    in.images.push_back(camera.make_batch(i, 1).images);
  for (auto& r : realized) {
    in.reference.emplace_back();
    for (const auto& image : in.images)
      in.reference.back().push_back(r.model.forward(image));
  }
  return in;
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.byte_size())) == 0;
}

struct Phase {
  std::vector<double> latency_ms;  // due -> answer, every answered frame
  std::vector<double> late_ms;     // generator wake-up lateness (idle only)
  int sent = 0, served = 0, degraded = 0, failed = 0, good = 0;
  double seconds = 0.0;  // phase start to its last answer
};

/// One open-loop phase. Session s sends frames due every kSessions/fps
/// seconds (seeded +-20% jitter, sessions staggered), each from its own
/// thread; a frame that finds its session still busy starts late, and its
/// latency is counted from when it was due.
Phase run_phase(Deployment& d, const Inputs& in, double fps, double seconds,
                std::uint64_t seed, Result& out) {
  struct PerSession {
    std::vector<double> latency_ms, late_ms;
    int sent = 0, degraded = 0, failed = 0, good = 0;
    double end_s = 0.0;  // last answer, seconds after the phase start
    std::string error;
  };
  std::vector<PerSession> per(kSessions);
  const double interval_s = kSessions / fps;
  const auto start = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      PerSession& mine = per[static_cast<std::size_t>(s)];
      util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(s));
      runtime::FieldSession& session = *d.sessions[static_cast<std::size_t>(s)];
      const int which = d.strategy_of[static_cast<std::size_t>(s)];
      double due_s = interval_s * s / kSessions;
      for (int k = 0; due_s < seconds; ++k) {
        const auto due = start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::duration<double>(due_s));
        const bool idle = std::chrono::steady_clock::now() < due;
        if (idle) std::this_thread::sleep_until(due);
        const auto begin = std::chrono::steady_clock::now();
        const Stamp busy_from = stamp();
        if (idle)
          mine.late_ms.push_back(
              std::chrono::duration<double, std::milli>(begin - due).count());
        const int image = static_cast<int>(rng.uniform_int(0, kImages - 1));
        ++mine.sent;
        try {
          obs::ScopedSpan span("bench.field_infer");
          const runtime::FieldOutcome outcome = session.infer(
              in.images[static_cast<std::size_t>(image)], 1'000.0 + 1'000.0 * due_s);
          // From due time, scaled by the CPU share granted while serving.
          const double latency =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - due).count() *
              cpu_share(busy_from, stamp());
          mine.latency_ms.push_back(latency);
          if (outcome.degraded) ++mine.degraded;
          if (!bitwise_equal(outcome.logits,
                             in.reference[static_cast<std::size_t>(which)]
                                         [static_cast<std::size_t>(image)])) {
            ++mine.failed;
            if (mine.error.empty()) mine.error = "logits differ from local forward";
          } else if (latency <= kSloMs) {
            ++mine.good;
          }
        } catch (const std::exception& e) {
          ++mine.failed;
          if (mine.error.empty()) mine.error = e.what();
        }
        mine.end_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        due_s += interval_s * rng.uniform(0.8, 1.2);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase phase;
  for (int s = 0; s < kSessions; ++s) {
    PerSession& p = per[static_cast<std::size_t>(s)];
    phase.seconds = std::max(phase.seconds, p.end_s);
    phase.latency_ms.insert(phase.latency_ms.end(), p.latency_ms.begin(),
                            p.latency_ms.end());
    phase.late_ms.insert(phase.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    phase.sent += p.sent;
    phase.degraded += p.degraded;
    phase.failed += p.failed;
    phase.good += p.good;
    if (!p.error.empty()) out.fail("session %d: %s", s + 1, p.error.c_str());
  }
  phase.served = static_cast<int>(phase.latency_ms.size());
  out.attempted += phase.sent;
  out.failed += phase.failed;
  return phase;
}

void report_phase(Result& out, const char* name, double fps, const Phase& p) {
  out.line("phase %-2s at %5.1f frames/s: sent %d served %d degraded %d failed "
           "%d | p50 %.2f ms p95 %.2f ms | goodput %.2f frames/s | generator "
           "late p95 %.3f ms",
           name, fps, p.sent, p.served, p.degraded, p.failed,
           median(p.latency_ms), quantile(p.latency_ms, 0.95),
           p.good / p.seconds, quantile(p.late_ms, 0.95));
}

/// Closed-loop frames from every session at once, so per-thread scratch
/// arenas and connections reach their concurrent steady state untimed.
void warm_up(Deployment& d, const Inputs& in) {
  std::vector<std::thread> threads;
  for (auto& session : d.sessions)
    threads.emplace_back([&] {
      for (int i = 0; i < kWarmupFrames; ++i) session->infer(in.images[0], 1'000.0);
    });
  for (auto& t : threads) t.join();
}

std::map<std::string, std::int64_t> counters_since(
    const std::map<std::string, std::int64_t>& before) {
  auto now = obs::MetricsRegistry::global().counter_values();
  for (auto& [name, value] : now) {
    auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return now;
}

}  // namespace

Result run_field_gateway(const Options& opt) {
  Result out;
  tensor::set_kernel_mode(tensor::KernelMode::kDeterministic);
  out.line("threads: %d sessions x 1 client thread, %d gateway workers, "
           "--threads %zu; scene '%s', SLO = cloud deadline = %.0f ms, rates "
           "lo %.1f / hi %.1f frames/s; kernel mode deterministic",
           kSessions, kGatewayWorkers, opt.threads, kScene, kSloMs, kLoFps,
           kHiFps);

  // Set-up several times, one deployment alive at a time; keep the last.
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  std::vector<engine::RealizedStrategy> realized;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    d.reset();
    d = set_up(setups, realized);
  }
  const double setup_s = median(setups) / 1e3;
  const Inputs in = make_inputs(opt.seed, realized);
  realized.clear();
  warm_up(*d, in);

  // lo gets the larger share of the time: at its rate it has the fewest
  // frames for a p95.
  const double timed_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double lo_s = 0.6 * timed_s, hi_s = 0.4 * timed_s;
  const Stamp p0 = stamp();
  const Phase lo = run_phase(*d, in, kLoFps, lo_s, opt.seed, out);
  const Phase hi = run_phase(*d, in, kHiFps, hi_s, opt.seed + 1, out);
  const Stamp p1 = stamp();
  const double rss = peak_rss_mb();
  report_phase(out, "lo", kLoFps, lo);
  report_phase(out, "hi", kHiFps, hi);
  out.line("field_lo_p50_ms %.2f field_lo_p95_ms %.2f field_hi_p50_ms %.2f "
           "field_hi_p95_ms %.2f field_goodput_fps %.3f degraded_frac %.4f",
           median(lo.latency_ms), quantile(lo.latency_ms, 0.95),
           median(hi.latency_ms), quantile(hi.latency_ms, 0.95),
           hi.good / hi.seconds,
           static_cast<double>(lo.degraded + hi.degraded) / (lo.sent + hi.sent));
  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());

  if (opt.trace) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();  // nothing records while obs is disabled
    obs::set_enabled(true);
    auto before = registry.counter_values();
    // The gateway closes its spans of a frame just after the client has the
    // answer; let those of the last frames land before splitting by phase.
    const auto settle = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    const Phase tlo = run_phase(*d, in, kLoFps, lo_s, opt.seed + 2, out);
    settle();
    const auto lo_spans = registry.spans();
    const Phase thi = run_phase(*d, in, kHiFps, hi_s, opt.seed + 3, out);
    settle();
    std::vector<obs::SpanRecord> all = registry.spans();
    const auto counters = counters_since(before);
    obs::set_enabled(false);
    const std::vector<obs::SpanRecord> hi_spans(
        all.begin() + static_cast<std::ptrdiff_t>(lo_spans.size()), all.end());
    SpanProfile lo_prof, hi_prof, prof;
    lo_prof.absorb(lo_spans);
    hi_prof.absorb(hi_spans);
    prof.absorb(all);
    prof.add_counters(counters);
    const double frames = tlo.served + thi.served;
    add_kernel_metrics(out, prof, frames);
    add_proc_metrics(out, p0, p1);
    out.metrics["nn.edge_forward_ms"] =
        prof.wall_ms_under("exec_range", "field_frame") / frames;
    out.metrics["nn.cloud_forward_ms"] =
        prof.wall_ms_under("exec_range", "cloud_handle") / frames;
    out.metrics["field.edge_ms"] = prof.self_ms("field_frame") / frames;
    out.metrics["field.lo_p95_ms"] = quantile(lo.latency_ms, 0.95);
    out.metrics["field.hi_p50_ms"] = median(hi.latency_ms);
    out.metrics["field.degraded_frac"] =
        static_cast<double>(lo.degraded + hi.degraded) / (lo.sent + hi.sent);
    out.metrics["transport.call_ms"] = prof.self_ms("transport_call") / frames;
    // Both ends count each payload once, so halve the sum.
    const double calls = prof.counter("cadmc.cloud.calls");
    out.metrics["transport.bytes_per_frame"] =
        calls > 0 ? (prof.counter("cadmc.cloud.bytes_tx") +
                     prof.counter("cadmc.cloud.bytes_rx")) / 2 / calls
                  : 0.0;
    out.metrics["gateway.lo.queue_wait_p50_ms"] = median(lo_prof.walls("gateway_queue"));
    out.metrics["gateway.lo.queue_wait_p95_ms"] =
        quantile(lo_prof.walls("gateway_queue"), 0.95);
    out.metrics["gateway.hi.queue_wait_p50_ms"] = median(hi_prof.walls("gateway_queue"));
    out.metrics["gateway.hi.queue_wait_p95_ms"] =
        quantile(hi_prof.walls("gateway_queue"), 0.95);
    out.metrics["gateway.shed"] = prof.counter("cadmc.gateway.shed");
    out.metrics["gateway.expired"] = prof.counter("cadmc.gateway.expired");
    out.metrics["fault.edge_fallbacks"] =
        prof.counter("cadmc.runtime.fault.edge_fallbacks");
    out.metrics["fault.deadline_misses"] =
        prof.counter("cadmc.runtime.fault.deadline_misses");
    out.metrics["executor.cloud_handle_ms"] = prof.wall_ms("cloud_handle") / frames;
    // cloud_handle's own time: decode, encode and the wait for the
    // per-model mutex; the forward pass is its exec_range child.
    out.metrics["executor.cloud_wait_ms"] = prof.self_ms("cloud_handle") / frames;
    out.metrics["gen.late_p95_ms"] = quantile(late, 0.95);
    out.metrics["obs.trace_overhead_frac"] =
        median(tlo.latency_ms) / median(lo.latency_ms) - 1.0;
    const std::string top = prof.bottleneck();
    out.metrics["cp.bottleneck_share"] = prof.critical_share(top);
    report_phase(out, "lo", kLoFps, tlo);
    report_phase(out, "hi", kHiFps, thi);
    out.line("traced: critical-path bottleneck '%s' (%.1f%%); gateway queue "
             "wait p95 lo %.3f ms, hi %.3f ms",
             top.c_str(), 100.0 * prof.critical_share(top),
             out.metrics["gateway.lo.queue_wait_p95_ms"],
             out.metrics["gateway.hi.queue_wait_p95_ms"]);
    out.line("self time per frame by stage (ms): ");
    for (const auto& [name, ms] : prof.by_self_ms())
      if (ms / frames >= 0.01)
        out.line("  %-22s %9.3f  cp share %5.1f%%", name.c_str(), ms / frames,
                 100.0 * prof.critical_share(name));
  } else {
    out.metrics["setup_s"] = setup_s;
    out.metrics["peak_rss_mb"] = rss;
    out.metrics["p50_ms"] = median(lo.latency_ms);
    out.metrics["p95_ms"] = quantile(hi.latency_ms, 0.95);
    out.metrics["per_s"] = hi.good / hi.seconds;
  }
  out.line("setup_s samples: %zu, median %.3f s", setups.size(), setup_s);
  return out;
}

Result run_field_capacity(const Options& opt) {
  Result out;
  tensor::set_kernel_mode(tensor::KernelMode::kDeterministic);
  std::vector<double> setups;
  std::vector<engine::RealizedStrategy> realized;
  auto d = set_up(setups, realized);
  const Inputs in = make_inputs(opt.seed, realized);
  realized.clear();
  warm_up(*d, in);
  std::vector<int> frames(kSessions, 0);
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s)
    threads.emplace_back([&, s] {
      while (now_s() - start < opt.seconds) {
        d->sessions[static_cast<std::size_t>(s)]->infer(in.images[0], 1'000.0);
        ++frames[static_cast<std::size_t>(s)];
      }
    });
  for (auto& t : threads) t.join();
  int total = 0;
  for (int f : frames) total += f;
  out.attempted = total;
  out.metrics["per_s"] = total / (now_s() - start);
  out.line("closed-loop capacity: %.2f frames/s with %d sessions",
           out.metrics["per_s"], kSessions);
  return out;
}

}  // namespace e2e
