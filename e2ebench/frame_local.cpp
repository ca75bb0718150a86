// frame_local — the per-frame online path of the paper (Fig. 2, bottom):
// one closed-loop caller asks a trained DecisionEngine on VGG11 for frames
// along a virtual-time schedule. Each infer() walks the model tree (Alg. 2),
// realizes the composed strategy with faithful weights and runs the forward
// pass in fast kernel mode. No socket and no gateway are involved.
#include <cmath>
#include <fstream>
#include <memory>

#include "common.h"
#include "context.h"
#include "compress/registry.h"
#include "data/synth_cifar.h"
#include "nn/factory.h"
#include "obs/span.h"
#include "runtime/decision_engine.h"
#include "tensor/compare.h"
#include "tensor/kernel_mode.h"
#include "util/rng.h"

namespace e2e {

using namespace cadmc;

namespace {

constexpr int kGrid = 16;    // virtual times visited once per schedule cycle
constexpr int kWarmup = 4;   // untimed frames before the timed loop
constexpr int kReplay = 12;  // leading frames the check engine replays
constexpr int kSetups = 3;
// The kernel suite's fast-mode tolerance (tests/kernel_test.cpp kFastTol).
constexpr tensor::CompareTolerance kFastTol{1e-3, 1e-3};

/// One set-up: build VGG11, derive the context, run the offline search.
std::unique_ptr<runtime::DecisionEngine> build_engine(std::vector<double>& setup_ms) {
  std::unique_ptr<runtime::DecisionEngine> engine;
  setup_ms.push_back(time_ms([&] {
    engine = std::make_unique<runtime::DecisionEngine>(nn::make_vgg11(),
                                                       search_context());
    engine->train_offline();
  }));
  return engine;
}

struct Frame {
  double t_ms = 0.0;
  tensor::Tensor image;
};

/// Frames cycle over a fixed grid of virtual times in a fixed interleaved
/// order; the seed picks where in that order the run starts and which
/// SynthCIFAR image each frame carries. Every cycle visits the same tree
/// paths in the same pattern, so a run's timings do not depend on which
/// path sequence its seed happened to draw.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed)
      : rng_(seed ^ 0x5C4ED), camera_(32, 10, seed ^ 0xCA3E) {
    for (int i = 0; i < kGrid; ++i)
      images_.push_back(camera_.make_batch(i, 1).images);
    start_ = static_cast<int>(rng_.uniform_int(0, kGrid - 1));
  }
  static double grid_time(int g) { return 1'500.0 + 3'500.0 * g; }

  Frame warmup(int i) const { return {grid_time(i % kGrid), images_[0]}; }
  /// The whole next cycle: grid points start, start+5, start+10, ...
  std::vector<Frame> cycle() {
    std::vector<Frame> frames;
    for (int j = 0; j < kGrid; ++j)
      frames.push_back({grid_time((start_ + 5 * j) % kGrid),
                        images_[static_cast<std::size_t>(
                            rng_.uniform_int(0, kGrid - 1))]});
    return frames;
  }

 private:
  util::Rng rng_;
  int start_ = 0;
  data::SynthCifar camera_;
  std::vector<tensor::Tensor> images_;
};

std::string path_name(const std::vector<int>& forks) {
  std::string name = "f";
  for (int f : forks) name += static_cast<char>('0' + f);
  return name;
}

struct Recorded {
  Frame frame;
  runtime::DecisionEngine::InferenceOutcome outcome;
};

struct LoopStats {
  std::vector<double> frame_ms;
  int cycles = 0;
  int offloads = 0;     // cut before the last layer
  int edge_frames = 0;  // cut after the first layer
  std::map<std::string, int> paths;
  std::map<std::string, std::pair<engine::Strategy, int>> strategies;
};

bool logits_ok(const tensor::Tensor& logits) {
  if (logits.shape() != tensor::Shape{1, 10}) return false;
  for (float v : logits.data())
    if (!std::isfinite(v)) return false;
  return true;
}

/// Whole cycles until `seconds` have passed. Outcomes are appended to
/// `recorded` until it holds kReplay of them, for the replay check.
LoopStats timed_loop(runtime::DecisionEngine& engine, Schedule& schedule,
                     double seconds, std::vector<Recorded>& recorded,
                     Result& out) {
  LoopStats stats;
  const std::size_t size = engine.base().size();
  const double start = now_s();
  while (now_s() - start < seconds) {
    for (Frame& frame : schedule.cycle()) {
      runtime::DecisionEngine::InferenceOutcome outcome;
      stats.frame_ms.push_back(time_ms([&] {
        obs::ScopedSpan span("bench.infer");  // inert unless tracing
        outcome = engine.infer(frame.image, frame.t_ms);
      }));
      ++out.attempted;
      if (!logits_ok(outcome.logits)) {
        ++out.failed;
        out.fail("frame at t=%.0f ms: logits are not 1x10 finite values",
                 frame.t_ms);
      }
      ++stats.paths[path_name(outcome.forks)];
      auto& seen = stats.strategies[outcome.strategy.key()];
      seen.first = outcome.strategy;
      ++seen.second;
      if (outcome.strategy.cut < size) ++stats.offloads;
      if (outcome.strategy.cut > 0) ++stats.edge_frames;
      if (recorded.size() < kReplay)
        recorded.push_back({std::move(frame), std::move(outcome)});
    }
    ++stats.cycles;
  }
  return stats;
}

std::string path_hist_text(const LoopStats& stats) {
  std::string text;
  for (const auto& [path, n] : stats.paths)
    text += path + "=" + std::to_string(n / stats.cycles) + " ";
  return text;
}

/// A second engine with the same seeds, trained in the same (fast) mode,
/// replays the leading frames in deterministic mode. Only a contiguous
/// prefix keeps its realization RNG in step: realize draws the C1-C3
/// re-initialisations from the engine's running RNG.
void replay_check(const std::vector<Recorded>& recorded,
                  runtime::DecisionEngine& checker, Result& out) {
  tensor::set_kernel_mode(tensor::KernelMode::kDeterministic);
  int mismatches = 0;
  double max_rel = 0.0;
  for (const Recorded& r : recorded) {
    const auto replay = checker.infer(r.frame.image, r.frame.t_ms);
    const auto cmp = tensor::compare_close(r.outcome.logits, replay.logits,
                                           kFastTol);
    max_rel = std::max(max_rel, cmp.max_rel_error);
    if (replay.forks != r.outcome.forks ||
        replay.strategy.cut != r.outcome.strategy.cut ||
        replay.degraded != r.outcome.degraded || !cmp.ok) {
      ++mismatches;
      out.fail("replay of frame at t=%.0f ms differs: forks %s vs %s, cut %zu "
               "vs %zu, logits %s",
               r.frame.t_ms, path_name(r.outcome.forks).c_str(),
               path_name(replay.forks).c_str(), r.outcome.strategy.cut,
               replay.strategy.cut, cmp.summary().c_str());
    }
  }
  tensor::set_kernel_mode(tensor::KernelMode::kFast);
  out.failed += mismatches;
  out.line("replay: %zu frames re-run in deterministic mode, %d mismatches, "
           "max rel error vs fast %.3g",
           recorded.size(), mismatches, max_rel);
}

/// Path histograms must repeat exactly; compare with the first run's record.
void flag_path_hist(const Options& opt, const std::string& hist, Result& out) {
  out.line("path histogram per cycle of %d frames: %s", kGrid, hist.c_str());
  if (opt.state_dir.empty()) return;
  const std::string file = opt.state_dir + "/frame_local.path_hist";
  std::ifstream in(file);
  std::string first;
  if (std::getline(in, first)) {
    if (first != hist)
      out.line("FLAG: path histogram differs from the first run's (%s); the "
               "workload changed, not the performance",
               first.c_str());
  } else {
    std::ofstream(file) << hist << "\n";
  }
}

}  // namespace

Result run_frame_local(const Options& opt) {
  Result out;
  tensor::set_kernel_mode(tensor::KernelMode::kFast);
  if (tensor::kernel_mode() != tensor::KernelMode::kFast)
    throw std::runtime_error(
        "frame_local needs fast kernels, but fast mode demoted to "
        "deterministic (no AVX2/FMA); refusing to report");
  out.line("threads: 1 caller, --threads %zu; context: VGG11, scene '%s', "
           "trace seed %llu, N=3 K=2, %d tree / %d branch episodes; kernel "
           "mode fast",
           opt.threads, kSearchScene, static_cast<unsigned long long>(kTraceSeed),
           kTreeEpisodes, kBranchEpisodes);

  std::vector<double> setups;
  auto engine = build_engine(setups);
  const std::string tree_text = engine->tree().to_string();
  Schedule schedule(opt.seed);
  std::vector<Recorded> recorded;
  for (int i = 0; i < kWarmup; ++i) {
    Frame frame = schedule.warmup(i);
    auto outcome = engine->infer(frame.image, frame.t_ms);
    recorded.push_back({std::move(frame), std::move(outcome)});
  }

  const double timed_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Stamp p0 = stamp();
  const LoopStats loop = timed_loop(*engine, schedule, timed_s, recorded, out);
  const Stamp p1 = stamp();
  const double rss = peak_rss_mb();
  const std::vector<double>& frame_ms = loop.frame_ms;
  const double p50 = median(frame_ms);
  const double p95 = quantile(frame_ms, 0.95);
  // Closed loop with one caller: frames per second of serving time.
  double total_ms = 0.0;
  for (double ms : frame_ms) total_ms += ms;
  const double fps = 1e3 * static_cast<double>(frame_ms.size()) / total_ms;
  out.line("frames: %zu in %d cycles over %.1f s; frame_p50_ms %.2f, "
           "frame_p95_ms %.2f, frames_per_s %.3f",
           frame_ms.size(), loop.cycles, p1.wall_s - p0.wall_s, p50, p95, fps);
  const std::string hist = path_hist_text(loop);
  flag_path_hist(opt, hist, out);
  if (loop.paths.size() < 2 || loop.edge_frames == 0)
    out.fail("schedule must visit several tree paths, some running layers on "
             "the edge (visited %zu, %d of %zu frames with edge layers)",
             loop.paths.size(), loop.edge_frames, frame_ms.size());

  if (opt.trace) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::set_enabled(true);
    std::vector<Recorded> unused;
    LoopStats traced =
        timed_loop(*engine, schedule, timed_s, unused, out);
    obs::set_enabled(false);
    SpanProfile prof;
    prof.drain(registry);
    const double frames = static_cast<double>(traced.frame_ms.size());
    add_kernel_metrics(out, prof, frames);
    add_proc_metrics(out, p0, p1);
    out.metrics["nn.edge_forward_ms"] = prof.wall_ms("edge_exec") / frames;
    out.metrics["nn.cloud_forward_ms"] = prof.wall_ms("cloud_exec") / frames;
    out.metrics["engine.realize_ms"] = prof.wall_ms("realize") / frames;
    out.metrics["tree.compose_ms"] = prof.wall_ms("compose") / frames;
    out.metrics["tree.offload_frac"] = traced.offloads / frames;
    out.metrics["tree.paths_visited"] = static_cast<double>(traced.paths.size());
    for (const auto& [path, n] : traced.paths)
      out.metrics["tree.path_hist." + path] = n / traced.cycles;
    if (path_hist_text(traced) != hist)
      out.line("FLAG: traced pass visited paths %s, untraced %s",
               path_hist_text(traced).c_str(), hist.c_str());
    // Weight bytes each frame materializes, computed from the realized
    // strategy's parameter count (4 bytes each), not measured.
    const compress::TechniqueRegistry structural(/*faithful_weights=*/false);
    double realize_mb = 0.0;
    for (const auto& [key, seen] : traced.strategies) {
      util::Rng rng(1);
      const auto realized =
          engine::realize_strategy(engine->base(), seen.first, structural, rng);
      realize_mb += seen.second * 4.0 *
                    static_cast<double>(realized.model.param_count()) /
                    (1 << 20);
    }
    out.metrics["engine.realize_mb"] = realize_mb / frames;
    out.metrics["obs.trace_overhead_frac"] =
        median(traced.frame_ms) / p50 - 1.0;
    const std::string top = prof.bottleneck();
    out.metrics["cp.bottleneck_share"] = prof.critical_share(top);
    out.line("traced: %zu frames; critical-path bottleneck '%s' (%.1f%%)",
             traced.frame_ms.size(), top.c_str(),
             100.0 * prof.critical_share(top));
    out.line("self time per frame by stage (ms): ");
    for (const auto& [name, ms] : prof.by_self_ms())
      if (ms / frames >= 0.01)
        out.line("  %-22s %9.3f  cp share %5.1f%%", name.c_str(), ms / frames,
                 100.0 * prof.critical_share(name));
  }

  engine.reset();
  // The replay engine and, in untraced runs, one more set-up: three set-up
  // samples with only one engine alive at a time.
  auto checker = build_engine(setups);
  if (checker->tree().to_string() != tree_text)
    out.fail("a second set-up with the same seeds built a different tree");
  replay_check(recorded, *checker, out);
  checker.reset();
  while (!opt.trace && setups.size() < kSetups) {
    auto extra = build_engine(setups);
    if (extra->tree().to_string() != tree_text)
      out.fail("set-up %zu built a different tree", setups.size());
  }
  const double setup_s = median(setups) / 1e3;
  out.line("setup_s samples: %zu, median %.3f s", setups.size(), setup_s);

  if (!opt.trace) {
    out.metrics["setup_s"] = setup_s;
    out.metrics["peak_rss_mb"] = rss;
    out.metrics["p50_ms"] = p50;
    out.metrics["p95_ms"] = p95;
    out.metrics["per_s"] = fps;
  }
  return out;
}

}  // namespace e2e
