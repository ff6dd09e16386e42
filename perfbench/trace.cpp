// The traced run: a serial replay of the workload's stream that times the
// calls into each module's public functions from this file (no spans inside
// the program), then submits the same request to a 1-worker service of the
// same configuration. The service's submit->wait time minus the layer calls
// it makes is service.self_ms (locking, copying, scheduling, bookkeeping).
#include <filesystem>
#include <map>

#include "harness.hpp"
#include "ilp/checkpoint.hpp"
#include "ilp/fingerprint.hpp"
#include "net/frame.hpp"
#include "select/flow.hpp"
#include "service/solution_cache.hpp"
#include "support/io.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace ilp = pt::ilp;
namespace select = pt::select;
namespace service = pt::service;

/// Layer-call times (ms) of one replayed submission; absent = not called.
using Layers = std::map<std::string, double>;

/// Times `fn()` into layers[name] (accumulating) and returns its result.
template <typename Fn>
auto timed(Layers& layers, const char* name, Fn fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    layers[name] += ms_between(t0, Clock::now());
  } else {
    auto r = fn();
    layers[name] += ms_between(t0, Clock::now());
    return r;
  }
}

/// One codec round: encode, frame, push-decode and decode a payload.
template <typename Msg, typename Enc, typename Dec>
void codec_round(const Msg& msg, Enc enc, Dec dec) {
  const std::string frame = pt::net::encode_frame(enc(msg));
  pt::net::FrameDecoder d;
  d.feed(frame.data(), frame.size());
  std::string payload, err;
  PARTITA_ASSERT_MSG(d.next(&payload) && dec(payload, &err), "codec round trip failed");
}

struct SolverSums {
  double presolve_ms = 0, search_ms = 0, total_s = 0;
  double lp_iterations = 0, root_lp_iterations = 0, nodes = 0, cuts_applied = 0,
         batch_hits = 0, seeded_artifacts = 0;
  void add(const ilp::SolverStats& s) {
    presolve_ms += s.presolve_seconds * 1e3;
    search_ms += s.search_seconds * 1e3;
    total_s += s.total_seconds;
    lp_iterations += s.lp_iterations;
    root_lp_iterations += s.root_lp_iterations;
    nodes += s.nodes;
    cuts_applied += s.cuts_applied;
    batch_hits += s.batch_hits;
    seeded_artifacts += s.seeded_artifacts;
  }
};

/// Replays one request through the same public calls SolveService makes for
/// it (run_attempt for singles, run_batch for batches), timing each. A
/// non-empty `checkpoint` path gives single solves the service's
/// journaled-request options: a branch & bound checkpoint every
/// kCheckpointWaves waves, written to that path. `solved` is set when the
/// request ran the solver (not a cache hit).
std::vector<select::Selection> direct_calls(const service::SolveRequest& req,
                                            service::SolutionCache* cache,
                                            const std::string& checkpoint, Layers& L,
                                            bool& solved) {
  select::SelectOptions opt = req.options;
  if (!checkpoint.empty() && req.required_gains.empty()) {
    opt.ilp.checkpoint_every_waves = kCheckpointWaves;
    opt.ilp.checkpoint_sink = [checkpoint](const ilp::SearchCheckpoint& cp) {
      ilp::write_checkpoint_file(checkpoint, cp);
    };
  }
  auto flow_or = timed(L, "select.flow_create_ms", [&] {
    return select::Flow::create(req.workload.module, req.workload.library);
  });
  PARTITA_ASSERT_MSG(flow_or.ok(), "benchmark request failed analysis");
  const select::Flow& flow = *flow_or.value();
  const select::Selector& selector = flow.selector();
  auto probe = [&] {
    return timed(L, "select.gain_probe_ms", [&] { return flow.max_feasible_gain(opt) / 2; });
  };
  solved = true;

  if (!req.required_gains.empty()) {
    std::vector<std::int64_t> gains = req.required_gains;
    std::int64_t derived = -1;
    for (std::int64_t& g : gains) {
      if (g < 0) {
        if (derived < 0) derived = probe();
        g = derived;
      }
    }
    return timed(L, "select.solve_ms", [&] { return selector.select_batch(gains, opt); });
  }
  if (cache == nullptr) {
    const std::int64_t rg = req.required_gain < 0 ? probe() : req.required_gain;
    return {timed(L, "select.solve_ms", [&] { return flow.select(rg, opt); })};
  }

  service::SolutionCache::Key key = timed(L, "select.cache_key_ms", [&] {
    service::SolutionCache::Key k;
    k.tenant = req.tenant;
    k.structure = ilp::fingerprint_model(
        selector.build_model(std::vector<std::int64_t>(selector.path_count(), 1), opt));
    k.structure.lo = ilp::fp_mix(k.structure.lo ^ selector.answer_map_digest());
    k.options_digest = ilp::digest_options(opt.ilp);
    k.gains = {req.required_gain};
    return k;
  });
  if (auto hit = timed(L, "service.cache_lookup_ms", [&] { return cache->lookup(key); })) {
    solved = false;
    return {std::move(*hit)};
  }
  std::int64_t rg = req.required_gain;
  const bool derived = rg < 0;
  if (derived) {
    auto memo = timed(L, "service.cache_lookup_ms", [&] { return cache->derived_gain(key); });
    rg = memo ? *memo : probe();
  }
  const std::vector<std::int64_t> gains(selector.path_count(), rg);
  ilp::BatchContext ctx;
  ctx.carry_search_state = true;
  service::CacheSeed seed =
      timed(L, "service.cache_nearest_ms", [&] { return cache->nearest(key, gains); });
  const bool seeded = seed.valid;
  if (seeded) ctx = std::move(seed.artifacts);
  select::Selection sel =
      timed(L, "select.solve_ms", [&] { return selector.select_seeded(gains, opt, &ctx); });
  if (seeded && sel.truncated) {
    ilp::BatchContext cold;
    cold.carry_search_state = true;
    sel = timed(L, "select.solve_ms", [&] { return selector.select_seeded(gains, opt, &cold); });
    ctx = std::move(cold);
  }
  if (!sel.truncated && sel.solver.termination == ilp::TerminationReason::kCompleted) {
    timed(L, "service.cache_insert_ms", [&] {
      cache->insert(key, sel, std::move(ctx), gains,
                    derived ? std::optional<std::int64_t>(rg) : std::nullopt);
    });
  }
  return {std::move(sel)};
}

}  // namespace

TraceResult run_trace(const Bench& b, const std::string& work_dir) {
  const std::string svc_dir = fresh_dir(work_dir + "/trace_service");
  const std::string journal_dir = fresh_dir(work_dir + "/trace_journal");
  const std::string checkpoint = b.journal ? journal_dir + "/ckpt.bin" : "";
  // Layer samples (ms) over the submissions that made the call.
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> self_ms, e2e_ms;
  double layer_total = 0, e2e_total = 0;
  SolverSums sums;
  std::size_t solved_requests = 0, failed = 0, marker_mismatches = 0;
  std::size_t n = 0;
  {
    Stack stack(b, 1, svc_dir, /*serve=*/false);
    std::unique_ptr<service::SolutionCache> cache;
    if (b.cache) cache = std::make_unique<service::SolutionCache>(service::SolutionCache::Config{});
    service::Journal journal;
    if (b.journal) {
      service::Journal::Config jc;
      jc.dir = journal_dir;
      PARTITA_ASSERT_MSG(journal.open(jc, service::Journal::recover(journal_dir)),
                         "benchmark trace journal failed to open");
    }
    // The replayed stream: a prefix of the pool, or the first pass
    // templates with both caches invalidated between passes, so each pass
    // starts cold as on the timed run's fresh stacks.
    std::vector<const Submission*> stream;
    for (const std::vector<Submission>& pass : b.passes)
      for (const Submission& s : pass) stream.push_back(&s);
    for (std::size_t k = 0; k < b.pool.size() && stream.size() < b.trace_submissions; ++k)
      stream.push_back(&b.pool[k]);
    n = std::min(b.trace_submissions, stream.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (b.wire && k != 0 && k % b.passes.front().size() == 0) {
        stack.svc->invalidate_cache();
        cache->invalidate_all();
      }
      const Submission& s = *stream[k];
      Layers L;
      service::SolveRequest req;
      if (b.wire) {
        const pt::net::WireRequest wr = wire_request(b, s, "client0");
        pt::net::WireRequest decoded;
        timed(L, "net.codec_ms", [&] {
          codec_round(wr, pt::net::encode_request, [&](const std::string& p, std::string* e) {
            auto r = pt::net::decode_request(p, e);
            if (r) decoded = std::move(*r);
            return r.has_value();
          });
        });
        std::string why;
        const bool ok = timed(L, "net.resolve_ms",
                              [&] { return pt::net::to_service_request(decoded, &req, &why); });
        PARTITA_ASSERT_MSG(ok, "benchmark wire request did not resolve");
      } else {
        req = service_request(b, s, "");
      }

      // Alternate which side runs first, so neither always runs warm.
      std::vector<select::Selection> direct;
      std::vector<service::SolveResponse> served;
      bool solved = false;
      double service_ms = 0;
      auto run_direct = [&] { direct = direct_calls(req, cache.get(), checkpoint, L, solved); };
      auto run_service = [&] {
        service::SolveRequest copy = req;
        const Clock::time_point t0 = Clock::now();
        const service::SubmitOutcome out = stack.svc->submit(std::move(copy));
        for (const std::uint64_t t : out.tickets) served.push_back(stack.svc->wait(t));
        service_ms = ms_between(t0, Clock::now());
      };
      if (k % 2 == 0) run_direct(), run_service();
      else run_service(), run_direct();

      // Answer gate on both the direct and the served answers.
      std::vector<std::string> sigs;
      for (std::size_t i = 0; i < s.items(); ++i) {
        const std::string& want = b.refs[s.refs[i]].signature;
        const std::string got = i < direct.size() ? select::solution_signature(direct[i]) : "";
        const bool served_ok = i < served.size() &&
                               served[i].state == service::RequestState::kCompleted &&
                               select::solution_signature(served[i].selection) == want;
        if (got != want || !served_ok) ++failed;
        sigs.push_back(got);
        if (b.cache && i < served.size() &&
            (served[i].cache == "hit") != !solved)
          ++marker_mismatches;
      }
      if (b.journal) {
        pt::support::io::remove_file(checkpoint);  // as the service does at terminal
        timed(L, "service.journal_append_ms", [&] {
          const std::uint64_t seq = journal.append_admit(req.journal_payload, s.items());
          for (std::size_t i = 0; i < s.items(); ++i)
            journal.append_terminal({seq, i, "completed", req.label, sigs[i]});
        });
      }
      if (b.wire) {
        // Response side of the wire: the submit answer and one wait answer
        // per ticket.
        timed(L, "net.codec_ms", [&] {
          pt::net::WireResponse sr;
          sr.verb = "submit";
          sr.state = "queued";
          for (const service::SolveResponse& r : served) sr.tickets.push_back(r.ticket);
          codec_round(sr, pt::net::encode_response, pt::net::decode_response);
          for (const service::SolveResponse& r : served) {
            pt::net::WireResponse wr;
            wr.verb = "wait";
            wr.result = pt::net::to_wire(r);
            codec_round(wr, pt::net::encode_response, pt::net::decode_response);
          }
        });
      }

      double in_service = 0, outside = 0;
      for (const auto& [name, ms] : L) {
        samples[name].push_back(ms);
        (name.rfind("net.", 0) == 0 ? outside : in_service) += ms;
      }
      self_ms.push_back(service_ms - in_service);
      e2e_ms.push_back(service_ms + outside);
      layer_total += in_service + outside;
      e2e_total += service_ms + outside;
      if (solved) {
        ++solved_requests;
        for (const select::Selection& sel : direct) sums.add(sel.solver);
      }
    }
  }
  fs::remove_all(svc_dir);
  fs::remove_all(journal_dir);
  if (marker_mismatches != 0)
    std::printf("note: %zu traced requests hit the service cache differently than the "
                "replay's private cache\n", marker_mismatches);

  TraceResult tr;
  tr.submissions = n;
  tr.failed = failed;
  tr.coverage = e2e_total > 0 ? layer_total / e2e_total : 0.0;
  tr.self_ms = median(self_ms);
  tr.e2e_p50_ms = median(e2e_ms);
  for (auto& [name, v] : samples) tr.layer_ms[name] = median(v);
  const double solved_n = solved_requests > 0 ? static_cast<double>(solved_requests) : 1.0;
  tr.solver = {
      {"ilp.presolve_ms", sums.presolve_ms / solved_n, "ms"},
      {"ilp.search_ms", sums.search_ms / solved_n, "ms"},
      {"ilp.lp_iterations", sums.lp_iterations / solved_n, "count"},
      {"ilp.root_lp_iterations", sums.root_lp_iterations / solved_n, "count"},
      {"ilp.nodes", sums.nodes / solved_n, "count"},
      {"ilp.cuts_applied", sums.cuts_applied / solved_n, "count"},
      {"ilp.batch_hits", sums.batch_hits / solved_n, "count"},
      {"ilp.seeded_artifacts", sums.seeded_artifacts / solved_n, "count"},
      {"ilp.lp_iters_per_s", sums.total_s > 0 ? sums.lp_iterations / sums.total_s : 0.0, "1/s"},
  };
  return tr;
}

std::vector<Metric> per_layer_metrics(const TraceResult& tr, const TimedResult& t) {
  std::vector<Metric> out;
  auto layer = [&](const char* name) {
    const auto it = tr.layer_ms.find(name);
    out.push_back({name, it == tr.layer_ms.end() ? 0.0 : it->second, "ms"});
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const service::ServiceStats& st = t.stats;
  layer("net.resolve_ms");
  layer("net.codec_ms");
  layer("select.flow_create_ms");
  layer("select.cache_key_ms");
  layer("service.cache_lookup_ms");
  layer("service.cache_nearest_ms");
  layer("service.cache_insert_ms");
  out.push_back({"service.cache_hit_ratio",
                 ratio(static_cast<double>(st.cache_hits), static_cast<double>(st.cache_lookups)),
                 "ratio"});
  out.push_back({"service.neighbor_seed_ratio",
                 ratio(static_cast<double>(st.cache_neighbor_seeds),
                       static_cast<double>(st.cache_misses)),
                 "ratio"});
  out.push_back({"service.cache_evictions", static_cast<double>(st.cache_evictions), "count"});
  layer("service.journal_append_ms");
  layer("select.gain_probe_ms");
  layer("select.solve_ms");
  out.insert(out.end(), tr.solver.begin(), tr.solver.end());
  out.push_back({"service.self_ms", tr.self_ms, "ms"});
  out.push_back({"trace.coverage", tr.coverage, "ratio"});
  out.push_back({"trace.overhead_ratio", ratio(tr.e2e_p50_ms, percentile(t.latencies_ms, 0.5)),
                 "ratio"});
  out.push_back({"failed_fraction",
                 t.items_attempted ? static_cast<double>(t.items_failed) / t.items_attempted : 1.0,
                 "ratio"});
  return out;
}

}  // namespace perfbench
