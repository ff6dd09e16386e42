// perfbench_service: the repo benchmark's measuring program.
//
//   perfbench_service --workload NAME --seed N --seconds S --trace 0|1
//                     [--work-dir DIR]
//   perfbench_service --check-streams
//
// Prints human-readable lines, then (last line) one JSON object with the keys
// correct / attempted / failed / metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced replay with --trace 1.
// Exits 1 when an answer fails the gate, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 51;  // before and again after the window

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_service --workload paper_mix|spec_solve|wire_repeat "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "       perfbench_service --check-streams\n");
  return 2;
}

int ref_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// JSON number with all its digits; non-finite values (only possible when
/// answers failed) are clamped so the line stays valid JSON.
std::string num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Self-test of the stream generators: the invariants behind exact
/// wire_repeat hit counts, and reference coverage of every pool.
int check_streams() {
  int bad = 0;
  for (const char* name : {"paper_mix", "spec_solve", "wire_repeat"}) {
    const int seeds = std::string(name) == "wire_repeat" ? 20 : 2;
    for (int seed = 1; seed <= seeds; ++seed) {
      Bench b;
      make_bench(name, static_cast<std::uint64_t>(seed), 1, ref_threads(), &b);
      const std::string why = check_stream(b);
      if (!why.empty()) {
        std::printf("FAIL %s seed %d: %s\n", name, seed, why.c_str());
        ++bad;
      }
    }
  }
  std::printf("check-streams: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/perfbench_run";
  long long seed = -1;
  int seconds = 0, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-streams") return check_streams();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::atoll(v);
    else if (flag == "--seconds") seconds = std::atoi(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--work-dir") work_dir = v;
    else return usage();
  }
  if (workload.empty() || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) return usage();

  const Clock::time_point g0 = Clock::now();
  Bench b;
  if (!make_bench(workload, static_cast<std::uint64_t>(seed), seconds, ref_threads(), &b)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return usage();
  }
  const double gen_s = ms_between(g0, Clock::now()) / 1000.0;
  if (const std::string why = check_stream(b); !why.empty()) {
    std::fprintf(stderr, "perfbench: stream invariant violated: %s\n", why.c_str());
    return 1;
  }
  std::printf("perfbench: workload=%s seed=%lld seconds=%d trace=%d\n", workload.c_str(), seed,
              seconds, trace);
  std::printf("inputs: %zu subjects, %zu references, %zu pool submissions, %zu pass templates; "
              "generated with references in %.3f s (not part of setup_s)\n",
              b.subjects.size(), b.refs.size(), b.pool.size(), b.passes.size(), gen_s);
  std::fflush(stdout);

  const std::string dir = std::filesystem::absolute(work_dir).string() + "/" + workload;
  // The traced replay runs first, in a process the timed window has not
  // grown yet, so its layer times are not skewed by that window's heap.
  TraceResult tr;
  if (trace == 1) {
    const Clock::time_point r0 = Clock::now();
    // On its own thread, as the service's workers are: the main thread's
    // heap arena holds the inputs, and allocating there slows direct calls.
    std::thread([&] { tr = run_trace(b, dir); }).join();
    std::printf("trace: replayed %zu submissions serially in %.3f s (not part of setup_s); "
                "coverage %.3f\n",
                tr.submissions, ms_between(r0, Clock::now()) / 1000.0, tr.coverage);
    if (tr.coverage < 0.9)
      std::printf("FLAG: %s trace coverage %.3f is below 0.9: layer calls explain less than "
                  "90%% of the traced end-to-end time\n",
                  workload.c_str(), tr.coverage);
    if (tr.failed != 0) std::printf("GATE FAILURE: %zu traced items failed\n", tr.failed);
  }

  // Set-up is sampled before and after the window (and, on wire_repeat, at
  // every pass), so one machine state does not decide it.
  std::vector<double> setups = measure_setup(b, dir, kSetupReps);
  const TimedResult t = run_timed(b, seconds, dir);
  const double rss_mb = peak_rss_mb();
  for (const std::vector<double>& more : {t.setup_samples, measure_setup(b, dir, kSetupReps)})
    setups.insert(setups.end(), more.begin(), more.end());
  const double setup_s = median(setups);
  std::printf("setup_s: median of %zu constructions = %.6f s\n", setups.size(), setup_s);
  const double p50 = percentile(t.latencies_ms, 0.50);
  const double p90 = percentile(t.latencies_ms, 0.90);
  std::printf("timed: %zu submissions, %zu items (%zu failed) in %.3f s%s\n", t.submissions,
              t.items_attempted, t.items_failed, t.elapsed_s,
              b.wire ? (", " + std::to_string(t.passes) + " passes").c_str() : "");
  std::printf("latency: p50 %.4f ms, p90 %.4f ms over %zu samples (%zu beyond p90)\n", p50, p90,
              t.latencies_ms.size(), t.latencies_ms.size() / 10);
  std::printf("slowest submission: %s, %.3f ms\n", t.slowest.c_str(), t.slowest_ms);
  if (t.latencies_ms.size() < 100)
    std::printf("note: fewer than 100 samples; p90 has under ten samples beyond it\n");
  if (b.cache) {
    std::printf("cache: %llu lookups, %llu hits, %llu misses, %llu neighbor seeds, %llu "
                "evictions; markers:",
                (unsigned long long)t.stats.cache_lookups, (unsigned long long)t.stats.cache_hits,
                (unsigned long long)t.stats.cache_misses,
                (unsigned long long)t.stats.cache_neighbor_seeds,
                (unsigned long long)t.stats.cache_evictions);
    for (const auto& [k, v] : t.cache_markers) std::printf(" %s=%zu", k.c_str(), v);
    std::printf("\n");
  }
  for (const std::string& m : t.mismatches) std::printf("GATE FAILURE: %s\n", m.c_str());
  std::fflush(stdout);

  std::size_t failed = t.items_failed;
  std::string metrics;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num(v) + ", \"unit\": \"" + unit + "\"}";
  };
  if (trace == 0) {
    add("throughput_items_per_s", t.throughput, "1/s");
    add("latency_p50_ms", p50, "ms");
    add("latency_p90_ms", p90, "ms");
    add("setup_s", setup_s, "s");
    add("peak_rss_mb", rss_mb, "MB");
  } else {
    failed += tr.failed;
    for (const Metric& m : per_layer_metrics(tr, t)) add(m.name, m.value, m.unit);
  }
  std::filesystem::remove_all(dir);
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", t.items_attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
