// offline — the paper's offline phase (Fig. 2, top) with no requests:
// several VGG11 model-tree searches (Alg. 3 through
// DecisionEngine::train_offline) with distinct search seeds, then a fixed set
// of RealEval distillation candidates (RealAccuracyEvaluator::
// train_and_evaluate on miniature compressed students). Deterministic
// kernels, the library's default thread count, no full-size forward pass and
// no socket.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "compress/registry.h"
#include "context.h"
#include "data/synth_cifar.h"
#include "engine/accuracy_model.h"
#include "nn/factory.h"
#include "obs/span.h"
#include "tensor/kernel_mode.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {

using namespace cadmc;

namespace {

// Search seeds are fixed, so every run does the same search work; the
// search time varies by up to 1.6x between seeds.
constexpr std::uint64_t kSearchSeeds[] = {11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20, 21, 22};
constexpr int kMaxSearches = 12;
constexpr int kCandidates = 12;  // distinct students, each trained every pass
constexpr int kSetups = 3;
// Per-item costs on a 4-core x86 host, used only to turn --seconds into
// fixed counts (half the time searching, half distilling).
constexpr double kSearchEstimateS = 1.4;
constexpr double kCandidateEstimateS = 0.2;

struct Setup {
  nn::Model vgg;
  std::unique_ptr<data::SynthCifar> dataset;
  std::unique_ptr<engine::RealAccuracyEvaluator> evaluator;
  std::vector<nn::Model> students;  // untrained; each run trains a copy
};

/// The miniature students: a tiny CNN with one Table II technique applied
/// to one layer, chosen by index so the set mixes C1/C2/C3/W1/F1-F3.
std::vector<nn::Model> make_students(std::uint64_t seed) {
  const compress::TechniqueRegistry registry;
  std::vector<nn::Model> students;
  for (int k = 0; k < kCandidates; ++k) {
    nn::Model student = nn::make_tiny_cnn(10, 16, seed + static_cast<std::uint64_t>(k));
    util::Rng rng(seed ^ (0x57D + static_cast<std::uint64_t>(k)));
    for (std::size_t step = 0; step < student.size(); ++step) {
      const std::size_t layer = (step + static_cast<std::size_t>(k)) % student.size();
      const auto ids = registry.applicable(student, layer);
      if (ids.size() > 1) {
        registry.apply(ids[1 + static_cast<std::size_t>(k) % (ids.size() - 1)],
                       student, layer, rng);
        break;
      }
    }
    students.push_back(std::move(student));
  }
  return students;
}

std::unique_ptr<Setup> set_up(std::uint64_t seed, std::vector<double>& setup_ms) {
  auto s = std::make_unique<Setup>();
  setup_ms.push_back(time_ms([&] {
    s->vgg = nn::make_vgg11();
    s->dataset = std::make_unique<data::SynthCifar>(16, 10, seed ^ 0xD157, 0.15);
    s->evaluator = std::make_unique<engine::RealAccuracyEvaluator>(
        nn::make_tiny_cnn(10, 16, seed ^ 0x7EAC), *s->dataset,
        /*train_examples=*/256, /*eval_examples=*/128, /*batch_size=*/32,
        /*train_steps=*/16, /*lr=*/0.05);
    s->students = make_students(seed);
  }));
  return s;
}

struct SearchRun {
  double ms = 0.0;
  double reward = 0.0;
  std::string tree;
};

SearchRun search(const Setup& s, int index) {
  runtime::EngineConfig config = search_context();
  config.tree_config.seed = kSearchSeeds[index];
  config.tree_config.branch_config.seed = kSearchSeeds[index] + 100;
  runtime::DecisionEngine engine(nn::Model(s.vgg), config);
  SearchRun run;
  run.ms = time_ms([&] {
    obs::ScopedSpan span("bench.train_offline");
    engine.train_offline();
  });
  run.reward = engine.search_result().tree_reward;
  run.tree = engine.tree().to_string();
  return run;
}

struct DistillPass {
  std::vector<double> ms;
  std::vector<double> accuracy;  // indexed by candidate
};

DistillPass distill_pass(const Setup& s, util::Rng& order_rng) {
  std::vector<int> order(kCandidates);
  for (int k = 0; k < kCandidates; ++k) order[static_cast<std::size_t>(k)] = k;
  for (int k = kCandidates - 1; k > 0; --k)
    std::swap(order[static_cast<std::size_t>(k)],
              order[static_cast<std::size_t>(order_rng.uniform_int(0, k))]);
  DistillPass pass;
  pass.accuracy.assign(kCandidates, 0.0);
  for (int k : order) {
    nn::Model student = s.students[static_cast<std::size_t>(k)];
    pass.ms.push_back(time_ms([&] {
      obs::ScopedSpan span("bench.train_and_evaluate");
      pass.accuracy[static_cast<std::size_t>(k)] =
          s.evaluator->train_and_evaluate(student);
    }));
  }
  return pass;
}

struct Timed {
  std::vector<SearchRun> searches;
  std::vector<DistillPass> passes;
};

/// `searches` searches then `passes` distillation passes. With a profile,
/// the registry is drained after every item so retention never caps.
Timed timed(const Setup& s, int searches, int passes, util::Rng& order_rng,
            SpanProfile* search_prof, SpanProfile* distill_prof) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  Timed t;
  for (int i = 0; i < searches; ++i) {
    t.searches.push_back(search(s, i));
    if (search_prof != nullptr) search_prof->drain(registry);
  }
  for (int p = 0; p < passes; ++p) {
    t.passes.push_back(distill_pass(s, order_rng));
    if (distill_prof != nullptr) distill_prof->drain(registry);
  }
  return t;
}

/// Each candidate's accuracy must repeat exactly in every pass.
void check_distill(const Timed& t, Result& out) {
  for (std::size_t p = 1; p < t.passes.size(); ++p)
    for (int k = 0; k < kCandidates; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      if (t.passes[p].accuracy[idx] != t.passes[0].accuracy[idx]) {
        ++out.failed;
        out.fail("candidate %d: accuracy %.17g in pass %zu, %.17g in pass 1", k,
                 t.passes[p].accuracy[idx], p + 1, t.passes[0].accuracy[idx]);
      }
    }
}

/// One search repeated at a different thread count must give a bit-identical
/// tree reward and identical decisions.
void check_search_threads(const Setup& s, const SearchRun& first,
                          std::size_t threads, Result& out) {
  const std::size_t other = threads == 1 ? 2 : 1;
  util::set_configured_threads(other);
  const SearchRun again = search(s, 0);
  util::set_configured_threads(threads);
  ++out.attempted;
  if (again.reward != first.reward || again.tree != first.tree) {
    ++out.failed;
    out.fail("search seed %llu at %zu threads: reward %.17g vs %.17g at %zu "
             "threads, trees %s",
             static_cast<unsigned long long>(kSearchSeeds[0]), other,
             again.reward, first.reward, threads,
             again.tree == first.tree ? "equal" : "differ");
  } else {
    out.line("search seed %llu repeated at %zu threads: identical reward "
             "%.6f and tree",
             static_cast<unsigned long long>(kSearchSeeds[0]), other,
             first.reward);
  }
}

std::vector<double> search_ms(const Timed& t) {
  std::vector<double> out;
  for (const auto& run : t.searches) out.push_back(run.ms);
  return out;
}

std::vector<double> distill_ms(const Timed& t) {
  std::vector<double> out;
  for (const auto& pass : t.passes)
    out.insert(out.end(), pass.ms.begin(), pass.ms.end());
  return out;
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

double ratio(double hit, double miss) {
  return hit + miss > 0 ? hit / (hit + miss) : 0.0;
}

}  // namespace

Result run_offline(const Options& opt) {
  Result out;
  tensor::set_kernel_mode(tensor::KernelMode::kDeterministic);
  const double half = opt.seconds / 2;
  const int searches = opt.trace ? 2
      : std::clamp(static_cast<int>(std::lround(half / kSearchEstimateS)), 3,
                   kMaxSearches);
  const int passes = opt.trace ? 1
      : std::max(2, static_cast<int>(std::lround(
                        half / (kCandidates * kCandidateEstimateS))));
  out.line("threads: 1 caller, --threads %zu; VGG11 searches: %d (scene "
           "'%s', trace seed %llu, %d tree / %d branch episodes); "
           "distillation: %d candidates x %d passes; kernel mode deterministic",
           opt.threads, searches, kSearchScene,
           static_cast<unsigned long long>(kTraceSeed), kTreeEpisodes,
           kBranchEpisodes, kCandidates, passes);

  std::vector<double> setups;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    s.reset();
    s = set_up(opt.seed, setups);
  }
  const double setup_s = median(setups) / 1e3;
  util::Rng order_rng(opt.seed ^ 0x0DE5);

  const Stamp p0 = stamp();
  const Timed t = timed(*s, searches, passes, order_rng, nullptr, nullptr);
  const Stamp p1 = stamp();
  const double rss = peak_rss_mb();
  const std::vector<double> searches_ms = search_ms(t);
  const std::vector<double> candidate_ms = distill_ms(t);
  out.attempted += static_cast<std::int64_t>(searches_ms.size() + candidate_ms.size());
  out.line("search_s median %.3f (p95 %.3f over %zu searches); distill_s "
           "median %.4f over %zu candidates",
           median(searches_ms) / 1e3, quantile(searches_ms, 0.95) / 1e3,
           searches_ms.size(), median(candidate_ms) / 1e3, candidate_ms.size());
  check_distill(t, out);
  check_search_threads(*s, t.searches[0], opt.threads, out);

  if (opt.trace) {
    // Same searches and candidates again, traced.
    util::Rng traced_order(opt.seed ^ 0x0DE5);
    SpanProfile search_prof, distill_prof;
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(true);
    const Timed tt = timed(*s, searches, passes, traced_order, &search_prof,
                           &distill_prof);
    obs::set_enabled(false);
    check_distill(tt, out);
    const double n_search = static_cast<double>(tt.searches.size());
    const double n_cand = static_cast<double>(distill_ms(tt).size());
    add_kernel_metrics(out, distill_prof, n_cand);
    add_proc_metrics(out, p0, p1);
    const auto& sp = search_prof;
    out.metrics["engine.eval_cache_hit_ratio.memo"] =
        ratio(sp.counter("cadmc.eval.cache.memo.hit"),
              sp.counter("cadmc.eval.cache.memo.miss"));
    out.metrics["engine.eval_cache_hit_ratio.edge_latency"] =
        ratio(sp.counter("cadmc.eval.cache.edge_latency.hit"),
              sp.counter("cadmc.eval.cache.edge_latency.miss"));
    out.metrics["engine.eval_cache_hit_ratio.mask"] =
        ratio(sp.counter("cadmc.eval.cache.mask.hit"),
              sp.counter("cadmc.eval.cache.mask.miss"));
    out.metrics["engine.evaluations"] =
        (sp.counter("cadmc.eval.cache.memo.hit") +
         sp.counter("cadmc.eval.cache.memo.miss")) / n_search;
    out.metrics["tree.search_ms"] = median(searches_ms);
    const double traced_search_ms = sum(search_ms(tt));
    out.metrics["tree.episodes_per_s"] =
        1e3 * sp.counter("cadmc.search.episodes") / traced_search_ms;
    out.metrics["tree.kernel_frac"] =
        sp.self_ms_prefix("kernel_") / traced_search_ms;
    out.metrics["obs.trace_overhead_frac"] =
        (traced_search_ms + sum(distill_ms(tt))) /
            (sum(searches_ms) + sum(candidate_ms)) - 1.0;
    for (const auto* prof : {&search_prof, &distill_prof}) {
      const std::string top = prof->bottleneck();
      out.line("traced %s: critical-path bottleneck '%s' (%.1f%%)",
               prof == &search_prof ? "searches" : "distillation", top.c_str(),
               100.0 * prof->critical_share(top));
      const double ops = prof == &search_prof ? n_search : n_cand;
      out.line("self time per %s by stage (ms): ",
               prof == &search_prof ? "search" : "candidate");
      for (const auto& [name, ms] : prof->by_self_ms())
        if (ms / ops >= 0.01)
          out.line("  %-26s %10.3f  cp share %5.1f%%", name.c_str(), ms / ops,
                   100.0 * prof->critical_share(name));
    }
    out.metrics["cp.bottleneck_share"] =
        distill_prof.critical_share(distill_prof.bottleneck());
  } else {
    out.metrics["setup_s"] = setup_s;
    out.metrics["peak_rss_mb"] = rss;
    // The bounded metrics come from distillation. Search wall time is
    // bimodal from run to run on a shared VM (about 1.2 s, or 2.0 s in two
    // runs of ten, with more page faults and a higher peak RSS), so it is
    // reported as the per-layer tree.search_ms instead.
    out.metrics["p50_ms"] = median(candidate_ms);
    out.metrics["p95_ms"] = quantile(candidate_ms, 0.95);
    out.metrics["per_s"] = 1e3 * static_cast<double>(candidate_ms.size()) /
                           sum(candidate_ms);
  }
  out.line("setup_s samples: %zu, median %.3f s", setups.size(), setup_s);
  return out;
}

}  // namespace e2e
