// Input generation: subjects, request streams and reference answers of the
// three workloads, all derived from the seed before any timing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "harness.hpp"
#include "select/flow.hpp"

namespace perfbench {
namespace {

using Rng = std::mt19937_64;

double u01(Rng& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }
int below(Rng& rng, int n) { return static_cast<int>(rng() % static_cast<std::uint64_t>(n)); }

/// Seeds each workload's generator apart, so one --seed gives unrelated
/// streams to the three workloads.
std::uint64_t workload_seed(const std::string& name, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h ^ (seed * 0x9E3779B97F4A7C15ULL);
}

// Submissions drawn per second of run length. Sized above what the 2-client
// loop reaches on a 4-core x86 box, so a pool wraps only on a much faster
// program (a wrapped spec_solve pool repeats specs; the cache is off there).
constexpr int kPaperMixPerSecond = 4000;
constexpr int kSpecSolvePerSecond = 110;
// wire_repeat pass template: exact repeats, gain-perturbed repeats and fresh
// requests per client per pass. 32 distinct keys per client keep the two
// tenants' 64 entries within one cache shard's default capacity (256 / 4),
// so no entry is ever evicted whatever shards the groups hash to.
constexpr int kPassRepeats = 48;
constexpr int kPassPerturbed = 12;
constexpr int kPassFresh = 20;
constexpr int kPassBuiltinFresh = 10;  // the other fresh requests are specs
constexpr int kPassSpecs = kPassFresh - kPassBuiltinFresh;
// Pass templates generated per second of run length (a run cycles through
// them if it completes more passes).
constexpr int kWirePassesPerSecond = 5;

const char* const kBuiltins[] = {"gsm_encoder", "gsm_decoder", "jpeg_encoder",
                                 "adpcm_codec", "fig9",        "fig10"};

pt::workloads::Workload builtin(const std::string& n) {
  namespace w = pt::workloads;
  if (n == "gsm_encoder") return w::gsm_encoder();
  if (n == "gsm_decoder") return w::gsm_decoder();
  if (n == "jpeg_encoder") return w::jpeg_encoder();
  if (n == "adpcm_codec") return w::adpcm_codec();
  if (n == "fig9") return w::fig9_case();
  return w::fig10_case();
}

/// Same parameter mapping as net::resolve_workload, so the wire server
/// rebuilds exactly the instance the references were computed on.
pt::workloads::InstanceSpec spec_of(const pt::net::SpecRef& r) {
  pt::workloads::InstanceGenParams p;
  p.scalls = r.scalls;
  p.kernels = r.kernels;
  p.ips = r.ips;
  p.branch_groups = r.branch_groups;
  p.max_hierarchy_depth = r.hierarchy_depth;
  return pt::workloads::random_instance_spec(p, r.seed);
}

/// Draws spec references until one is valid (the server asserts validity).
pt::net::SpecRef draw_spec(Rng& rng, int min_sites, int max_sites, int kernels, int ips,
                           int max_groups) {
  for (;;) {
    pt::net::SpecRef r;
    // Wire numbers travel as JSON doubles: decode_request rounds seeds at or
    // above 2^53, so the server would build another instance than the one
    // the references were computed on. Draw within the exact range.
    r.seed = rng() >> 11;
    r.scalls = min_sites + below(rng, max_sites - min_sites + 1);
    r.kernels = kernels;
    r.ips = ips;
    r.branch_groups = 1 + below(rng, max_groups);
    if (pt::workloads::spec_valid(spec_of(r))) return r;
  }
}

template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

Reference reference_of(const pt::select::Flow& flow, std::int64_t gain) {
  const pt::select::Selection sel = flow.select(gain);
  return {pt::select::solution_signature(sel), pt::net::to_wire(sel).key()};
}

/// Builds subjects' flows and gmax in parallel. Flows point into the
/// subjects' workloads, so `subjects` must not reallocate afterwards.
std::vector<std::unique_ptr<pt::select::Flow>> analyze(std::vector<Subject>& subjects,
                                                      int threads) {
  std::vector<std::unique_ptr<pt::select::Flow>> flows(subjects.size());
  parallel_for(subjects.size(), threads, [&](std::size_t i) {
    auto f = pt::select::Flow::create(subjects[i].workload.module,
                                      subjects[i].workload.library);
    PARTITA_ASSERT_MSG(f.ok(), "benchmark subject failed analysis");
    flows[i] = f.take();
    subjects[i].gmax = flows[i]->max_feasible_gain();
  });
  return flows;
}

/// Reference table keyed by (subject, resolved gain); a derived gain (-1)
/// resolves to gmax / 2, as the service resolves it.
class RefTable {
 public:
  explicit RefTable(Bench& b) : b_(b) {}
  int ref(int subject, std::int64_t gain) {
    const std::int64_t g = gain < 0 ? b_.subjects[subject].gmax / 2 : gain;
    auto [it, fresh] = index_.try_emplace({subject, g}, static_cast<int>(todo_.size()));
    if (fresh) todo_.push_back({subject, g});
    return it->second;
  }
  void compute(const std::vector<std::unique_ptr<pt::select::Flow>>& flows, int threads) {
    b_.refs.assign(todo_.size(), {});
    parallel_for(todo_.size(), threads, [&](std::size_t i) {
      b_.refs[i] = reference_of(*flows[todo_[i].first], todo_[i].second);
    });
  }

 private:
  Bench& b_;
  std::map<std::pair<int, std::int64_t>, int> index_;
  std::vector<std::pair<int, std::int64_t>> todo_;
};

std::int64_t fraction_gain(std::int64_t gmax, double f) {
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::floor(f * static_cast<double>(gmax))));
}

// paper_mix: seeded single requests over the six built-ins, half with a
// derived gain and half at a fraction of Gmax. The stream is built from
// shuffled blocks with fixed composition -- the paper's three applications
// (Tables 1-3) twice as often as adpcm_codec, fig9 and fig10, and one
// derived plus one fraction request per weight unit -- so the mix does not
// vary with the seed. Each built-in's fraction requests cycle through its
// own shuffled set of 32 stratified fractions (one per 32nd of
// [0.05, 0.95], jittered by the seed).
void make_paper_mix(Rng& rng, int seconds, int threads, Bench& b) {
  for (const char* n : kBuiltins) b.subjects.push_back({n, builtin(n), std::nullopt, 0});
  const auto flows = analyze(b.subjects, threads);
  constexpr int kFractions = 256;
  const int weight[] = {2, 1, 2, 1, 1, 1};  // kBuiltins order
  std::vector<std::vector<std::int64_t>> gains(b.subjects.size());
  for (std::size_t s = 0; s < b.subjects.size(); ++s) {
    for (int k = 0; k < kFractions; ++k) {
      const double f = 0.05 + 0.9 * (k + u01(rng)) / kFractions;
      gains[s].push_back(fraction_gain(b.subjects[s].gmax, f));
    }
    std::shuffle(gains[s].begin(), gains[s].end(), rng);
  }
  std::vector<std::pair<int, bool>> block;  // (subject, derived gain)
  for (int s = 0; s < static_cast<int>(b.subjects.size()); ++s) {
    for (int w = 0; w < weight[s]; ++w) {
      block.push_back({s, true});
      block.push_back({s, false});
    }
  }
  std::vector<std::size_t> next_fraction(b.subjects.size(), 0);
  RefTable refs(b);
  const std::size_t n = static_cast<std::size_t>(seconds) * kPaperMixPerSecond;
  while (b.pool.size() < n) {
    std::shuffle(block.begin(), block.end(), rng);
    for (const auto& [subject, derived] : block) {
      Submission sub;
      sub.subject = subject;
      sub.gain = derived ? -1 : gains[subject][next_fraction[subject]++ % kFractions];
      sub.refs = {refs.ref(sub.subject, sub.gain)};
      b.pool.push_back(std::move(sub));
    }
  }
  refs.compute(flows, threads);
  b.trace_submissions = 240;
}

// spec_solve: distinct generated specs (20-24 call sites, 1-3 branch
// groups), alternating single requests and 4-gain batches at stratified
// fractions of each spec's Gmax.
void make_spec_solve(Rng& rng, int seconds, int threads, Bench& b) {
  const std::size_t n = static_cast<std::size_t>(seconds) * kSpecSolvePerSecond;
  for (std::size_t i = 0; i < n; ++i) {
    Subject subj;
    subj.spec_ref = draw_spec(rng, 20, 24, 6, 8, 3);
    subj.name = "spec_" + std::to_string(subj.spec_ref->seed);
    b.subjects.push_back(std::move(subj));
  }
  parallel_for(n, threads, [&](std::size_t i) {
    b.subjects[i].workload = pt::workloads::spec_workload(spec_of(*b.subjects[i].spec_ref));
  });
  const auto flows = analyze(b.subjects, threads);
  RefTable refs(b);
  for (std::size_t i = 0; i < n; ++i) {
    Submission sub;
    sub.subject = static_cast<int>(i);
    const std::int64_t gmax = b.subjects[i].gmax;
    if (i % 2 == 0) {
      sub.gain = fraction_gain(gmax, 0.1 + 0.8 * u01(rng));
      sub.refs = {refs.ref(sub.subject, sub.gain)};
    } else {
      for (int k = 0; k < 4; ++k) {
        sub.gains.push_back(fraction_gain(gmax, 0.1 + 0.8 * (k + u01(rng)) / 4));
        sub.refs.push_back(refs.ref(sub.subject, sub.gains.back()));
      }
    }
    b.pool.push_back(std::move(sub));
  }
  refs.compute(flows, threads);
  b.trace_submissions = 80;
}

// wire_repeat: pass templates of 80 requests -- 20 fresh (10 over the
// built-ins, 10 over specs of 8-16 call sites drawn for the template), 12
// gain-perturbed repeats and 48 exact repeats, the first request fresh.
// Repeats draw only from the client's own earlier requests of the pass.
// Each pass runs on a fresh serving stack, so a run covers many templates:
// one template's few solves would make the seed, not the program, set the
// measured cost.
std::vector<Submission> make_pass(Rng& rng, const Bench& b, int first_spec) {
  // Fresh requests: built-in k takes a derived gain or a fraction of Gmax
  // from the lower half on its first use and the upper half on its second,
  // so the two never share a key.
  std::vector<Submission> fresh;
  for (int k = 0; k < kPassBuiltinFresh; ++k) {
    Submission s;
    s.subject = k % 6;
    const bool second = k >= 6;
    if (!second && (rng() & 1)) {
      s.gain = -1;
    } else {
      const double f = second ? 0.55 + 0.4 * u01(rng) : 0.05 + 0.4 * u01(rng);
      s.gain = fraction_gain(b.subjects[s.subject].gmax, f);
    }
    fresh.push_back(s);
  }
  for (int k = 0; k < kPassSpecs; ++k) {
    Submission s;
    s.subject = first_spec + k;
    s.gain = (rng() & 1) ? -1 : fraction_gain(b.subjects[s.subject].gmax, 0.1 + 0.8 * u01(rng));
    fresh.push_back(s);
  }
  std::shuffle(fresh.begin(), fresh.end(), rng);

  std::vector<Kind> order(kPassRepeats, Kind::kRepeat);
  order.insert(order.end(), kPassPerturbed, Kind::kPerturbed);
  order.insert(order.end(), kPassFresh - 1, Kind::kFresh);
  std::shuffle(order.begin(), order.end(), rng);
  order.insert(order.begin(), Kind::kFresh);

  std::vector<Submission> pass;
  std::vector<Submission> distinct;  // keys already requested in the pass
  std::set<std::pair<int, std::int64_t>> used;
  std::size_t next_fresh = 0;
  for (const Kind kind : order) {
    Submission s;
    if (kind == Kind::kFresh) {
      s = fresh[next_fresh++];
    } else if (kind == Kind::kRepeat) {
      s = distinct[below(rng, static_cast<int>(distinct.size()))];
    } else {
      // Gain-perturbed repeat: an earlier key's resolved gain moved by 1-5%
      // of Gmax, to a literal gain this pass has not used for the subject.
      const Submission& base = distinct[below(rng, static_cast<int>(distinct.size()))];
      const std::int64_t gmax = b.subjects[base.subject].gmax;
      const std::int64_t g0 = base.gain < 0 ? gmax / 2 : base.gain;
      std::int64_t g = g0;
      for (int tries = 0; tries == 0 || used.count({base.subject, g}) != 0; ++tries) {
        const double delta = (0.01 + 0.04 * u01(rng)) * static_cast<double>(gmax);
        const std::int64_t d = std::max<std::int64_t>(1, static_cast<std::int64_t>(delta));
        g = std::clamp<std::int64_t>((rng() & 1) ? g0 + d : g0 - d, 1,
                                     std::max<std::int64_t>(1, gmax));
        if (tries > 100) g = g0 + tries;  // tiny Gmax: step past used gains
      }
      s = base;
      s.gain = g;
    }
    s.kind = kind;
    if (kind != Kind::kRepeat) {
      used.insert({s.subject, s.gain});
      distinct.push_back(s);
    }
    pass.push_back(std::move(s));
  }
  return pass;
}

void make_wire_repeat(Rng& rng, int seconds, int threads, Bench& b) {
  const int templates = seconds * kWirePassesPerSecond;
  for (const char* n : kBuiltins) b.subjects.push_back({n, builtin(n), std::nullopt, 0});
  for (int i = 0; i < templates * kPassSpecs; ++i) {
    const pt::net::SpecRef r = draw_spec(rng, 8, 16, 4, 6, 2);
    Subject subj;
    subj.name = "spec_" + std::to_string(r.seed);
    subj.spec_ref = r;
    b.subjects.push_back(std::move(subj));
  }
  parallel_for(b.subjects.size() - 6, threads, [&](std::size_t i) {
    Subject& subj = b.subjects[6 + i];
    subj.workload = pt::workloads::spec_workload(spec_of(*subj.spec_ref));
  });
  const auto flows = analyze(b.subjects, threads);
  RefTable refs(b);
  for (int t = 0; t < templates; ++t) {
    b.passes.push_back(make_pass(rng, b, 6 + t * kPassSpecs));
    for (Submission& s : b.passes.back()) s.refs = {refs.ref(s.subject, s.gain)};
  }
  refs.compute(flows, threads);
  b.trace_submissions = 2 * b.passes.front().size();
}

}  // namespace

bool make_bench(const std::string& name, std::uint64_t seed, int seconds, int threads,
                Bench* out) {
  Bench& b = *out;
  b = Bench{};
  b.name = name;
  Rng rng(workload_seed(name, seed));
  if (name == "paper_mix") {
    make_paper_mix(rng, seconds, threads, b);
  } else if (name == "spec_solve") {
    make_spec_solve(rng, seconds, threads, b);
  } else if (name == "wire_repeat") {
    b.wire = b.cache = b.journal = true;
    make_wire_repeat(rng, seconds, threads, b);
  } else {
    return false;
  }
  return true;
}

std::string check_stream(const Bench& b) {
  std::vector<const std::vector<Submission>*> streams = {&b.pool};
  for (const std::vector<Submission>& p : b.passes) streams.push_back(&p);
  for (const std::vector<Submission>* stream : streams) {
    for (const Submission& s : *stream) {
      if (s.subject < 0 || static_cast<std::size_t>(s.subject) >= b.subjects.size())
        return "submission names an unknown subject";
      if (s.refs.size() != s.items()) return "submission without one reference per item";
      for (const int r : s.refs)
        if (r < 0 || static_cast<std::size_t>(r) >= b.refs.size()) return "reference out of range";
    }
  }
  if (!b.wire) return b.pool.empty() ? "empty pool" : "";
  if (b.passes.empty()) return "no pass templates";
  for (const std::vector<Submission>& pass : b.passes) {
    if (pass.empty() || pass.front().kind != Kind::kFresh) return "pass does not open fresh";
    std::set<std::pair<int, std::int64_t>> seen;
    int counts[3] = {0, 0, 0};
    for (const Submission& s : pass) {
      ++counts[static_cast<int>(s.kind)];
      const bool known = seen.count({s.subject, s.gain}) != 0;
      if (s.kind == Kind::kRepeat && !known) return "repeat of a key the client has not requested";
      if (s.kind != Kind::kRepeat && known) return "fresh or perturbed request reuses a key";
      seen.insert({s.subject, s.gain});
    }
    if (counts[0] != kPassFresh || counts[1] != kPassRepeats || counts[2] != kPassPerturbed)
      return "pass composition differs from 20 fresh / 48 repeat / 12 perturbed";
    // Two tenants' keys must fit one shard (default capacity 256 over 4).
    if (seen.size() * kClients > 256 / 4) return "distinct keys exceed one cache shard";
  }
  return "";
}

pt::service::SolveRequest service_request(const Bench& b, const Submission& s,
                                          const std::string& tenant) {
  pt::service::SolveRequest req;
  const Subject& subj = b.subjects[s.subject];
  req.label = subj.name;
  req.workload = subj.workload;
  req.required_gain = s.gain;
  req.required_gains = s.gains;
  req.tenant = tenant;
  return req;
}

pt::net::WireRequest wire_request(const Bench& b, const Submission& s,
                                  const std::string& tenant) {
  pt::net::WireRequest req;
  const Subject& subj = b.subjects[s.subject];
  req.verb = "submit";
  if (subj.spec_ref) {
    req.spec = subj.spec_ref;
  } else {
    req.workload = subj.name;
  }
  req.label = subj.name;
  req.tenant = tenant;
  req.required_gain = s.gain;
  req.gains = s.gains;
  return req;
}

pt::service::ServiceConfig service_config(const Bench& b, int workers) {
  pt::service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.cache_enabled = b.cache;
  return cfg;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace perfbench
