// cadmc_e2e — the end-to-end benchmark program. Runs one workload and prints
// a human-readable report followed, on the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check failed, 2 on bad arguments and
// 3 when the run cannot be reported (e.g. fast kernels unavailable).
//
//   cadmc_e2e --workload frame_local|field_gateway|offline|field_capacity
//             --seed N --seconds S --trace 0|1 [--state-dir D]
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "tensor/kernel_mode.h"
#include "util/thread_pool.h"

#ifndef CADMC_E2E_BUILD_TYPE
#define CADMC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "cadmc_e2e: %s\nusage: cadmc_e2e --workload "
               "frame_local|field_gateway|offline|field_capacity --seed N "
               "--seconds S --trace 0|1 [--state-dir D]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

void print_json(const e2e::Result& r, bool trace) {
  const auto& units = trace ? e2e::per_layer_units() : e2e::end_to_end_units();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, unit] : units) {
    auto it = r.metrics.find(name);
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(value) ? value : 0.0, unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cadmc;
  e2e::Options opt;
  std::uint64_t seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds < 1 || seconds > 600)
        return usage("--seconds must be 1..600");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("--trace must be 0 or 1");
      have_trace = true;
    } else if (flag == "--state-dir") {
      opt.state_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == 1;
  // The library's thread count (--threads) is fixed at min(4, nproc).
  opt.threads = std::min<std::size_t>(4, util::hardware_threads());
  util::set_configured_threads(opt.threads);
  obs::set_enabled(false);

  e2e::Result result;
  try {
    if (opt.workload == "frame_local") result = e2e::run_frame_local(opt);
    else if (opt.workload == "field_gateway") result = e2e::run_field_gateway(opt);
    else if (opt.workload == "offline") result = e2e::run_offline(opt);
    else if (opt.workload == "field_capacity") result = e2e::run_field_capacity(opt);
    else return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cadmc_e2e: %s: %s\n", opt.workload.c_str(), e.what());
    return 3;
  }

  std::printf("== cadmc_e2e workload=%s seed=%llu seconds=%.0f trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("env: build %s; nproc %zu; --threads %zu; kernel mode in effect "
              "at exit: %s; AVX2/FMA kernels compiled %s, supported by CPU %s\n",
              CADMC_E2E_BUILD_TYPE, util::hardware_threads(), opt.threads,
              tensor::kernel_mode_name(tensor::kernel_mode()),
              tensor::vector_kernels_compiled() ? "yes" : "no",
              tensor::vector_kernels_supported() ? "yes" : "no");
  for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());
  std::printf("attempted %lld failed %lld correct %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct ? "yes" : "NO");
  print_json(result, opt.trace);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
