// Shared types of the solve-service benchmark (see README.md).
//
// The benchmark builds every input from the seed before timing, runs a
// closed-loop timed window against service::SolveService (alone, or behind
// net::WireServer on loopback), gates every served answer against a one-shot
// select::Flow reference, and -- in trace mode -- replays the same stream
// serially, timing the calls into each module's public functions from here.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "workloads/random_workload.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace pt = partita;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Client threads of the closed loop; also the service's worker count.
inline constexpr int kClients = 2;
/// Checkpoint cadence of journaled solves: the serve daemon's default.
inline constexpr int kCheckpointWaves = 8;

/// The reference answer of one distinct (subject, resolved gain) pair,
/// computed with a one-shot Flow::select before timing.
struct Reference {
  std::string signature;  // select::solution_signature
  std::string wire_key;   // net::WireSelection::key() of the same answer
};

/// One application instance the stream draws from: a built-in or a
/// generated spec. `gmax` is its max_feasible_gain under default options.
struct Subject {
  std::string name;
  pt::workloads::Workload workload;
  std::optional<pt::net::SpecRef> spec_ref;  // set for generated specs
  std::int64_t gmax = 0;
};

enum class Kind : std::uint8_t { kFresh, kRepeat, kPerturbed };

/// One submission: a single gain, or a batch when `gains` is non-empty.
/// A negative gain asks the service to derive max_feasible_gain / 2.
struct Submission {
  int subject = 0;
  std::int64_t gain = -1;
  std::vector<std::int64_t> gains;
  std::vector<int> refs;  // reference index per item
  Kind kind = Kind::kFresh;
  std::size_t items() const { return gains.empty() ? 1 : gains.size(); }
};

/// A generated workload: subjects, references and the request stream.
///   * In-process workloads draw `pool` in order through one shared cursor
///     (wrapping if a run outpaces it).
///   * wire_repeat runs `passes` in order (wrapping), each on a fresh
///     serving stack; both clients replay the pass under their own tenant,
///     so every pass starts cold and its hit count is exact.
struct Bench {
  std::string name;
  std::vector<Subject> subjects;
  std::vector<Reference> refs;
  std::vector<Submission> pool;
  std::vector<std::vector<Submission>> passes;
  bool wire = false;
  bool cache = false;
  bool journal = false;
  /// Submissions the traced replay runs (a prefix of the stream; for
  /// wire_repeat, whole passes).
  std::size_t trace_submissions = 0;
};

/// Builds the named workload from `seed`; `seconds` sizes the pools.
/// Returns false for an unknown name. `threads` parallelizes references.
bool make_bench(const std::string& name, std::uint64_t seed, int seconds,
                int threads, Bench* out);

/// Checks the stream invariants the wire_repeat hit counts rely on; returns
/// a one-line reason on violation, "" when they hold.
std::string check_stream(const Bench& b);

/// In-process request of one submission (copies the workload).
pt::service::SolveRequest service_request(const Bench& b, const Submission& s,
                                          const std::string& tenant);
/// Wire submit verb of one submission.
pt::net::WireRequest wire_request(const Bench& b, const Submission& s,
                                  const std::string& tenant);

/// Service configuration of a workload (cache/journal per Bench flags;
/// `journal` and `checkpoint_dir` are filled by the caller).
pt::service::ServiceConfig service_config(const Bench& b, int workers);

/// A serving stack on an empty directory: a journal when the workload
/// journals, the service, and -- with `serve` -- a loopback WireServer.
/// Members destruct server -> service -> journal, the order the service's
/// drain-time journal compaction needs.
struct Stack {
  pt::service::Journal journal;
  std::unique_ptr<pt::service::SolveService> svc;
  std::unique_ptr<pt::net::WireServer> server;

  Stack(const Bench& b, int workers, const std::string& dir, bool serve);
  ~Stack();
};

/// Empties (or creates) a directory and returns its path.
std::string fresh_dir(const std::string& path);

struct TimedResult {
  std::vector<double> latencies_ms;  // one per submission; +inf if failed
  std::size_t items_attempted = 0;
  std::size_t items_failed = 0;
  std::size_t submissions = 0;
  std::size_t passes = 0;  // wire_repeat only
  double elapsed_s = 0.0;
  /// Items per second: of the whole window in process; the median over
  /// passes for wire_repeat.
  double throughput = 0.0;
  /// wire_repeat: construction time of each pass's serving stack (seconds),
  /// set-up samples spread over the window.
  std::vector<double> setup_samples;
  pt::service::ServiceStats stats;
  std::map<std::string, std::size_t> cache_markers;
  std::vector<std::string> mismatches;  // first few gate failures
  double slowest_ms = 0;                // the slowest submission
  std::string slowest;
};

/// Times `reps` constructions of the workload's serving stack (service;
/// plus journal open on an empty directory and server start for
/// wire_repeat), in seconds.
std::vector<double> measure_setup(const Bench& b, const std::string& work_dir, int reps);

/// The closed-loop timed window.
TimedResult run_timed(const Bench& b, int seconds, const std::string& work_dir);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the serial traced replay measured.
struct TraceResult {
  std::map<std::string, double> layer_ms;  // median per layer call, ms
  std::vector<Metric> solver;               // ilp.* figures
  double self_ms = 0.0;
  double e2e_p50_ms = 0.0;  // traced end-to-end median
  double coverage = 0.0;
  std::size_t submissions = 0;
  std::size_t failed = 0;
};
TraceResult run_trace(const Bench& b, const std::string& work_dir);

/// The per-layer metrics, in BENCHMARK.json order: the traced replay's
/// figures plus those read from the timed run (cache ratios, evictions,
/// overhead ratio, failed fraction).
std::vector<Metric> per_layer_metrics(const TraceResult& tr, const TimedResult& t);

// --- small statistics helpers ---------------------------------------------
/// Nearest-rank percentile (p in [0, 1]); 0 for an empty vector.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

}  // namespace perfbench
