// Set-up timing and the closed-loop timed window.
#include <atomic>
#include <latch>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/journal.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using pt::service::RequestState;

Stack::Stack(const Bench& b, int workers, const std::string& dir, bool serve) {
  pt::service::ServiceConfig cfg = service_config(b, workers);
  if (b.journal) {
    pt::service::Journal::Config jc;
    jc.dir = dir;
    PARTITA_ASSERT_MSG(journal.open(jc, pt::service::Journal::recover(dir)),
                       "benchmark journal failed to open");
    cfg.journal = &journal;
    cfg.checkpoint_dir = dir + "/checkpoints";
    cfg.checkpoint_every_waves = kCheckpointWaves;
  }
  svc = std::make_unique<pt::service::SolveService>(cfg);
  if (serve) {
    server = std::make_unique<pt::net::WireServer>(*svc);
    std::string why;
    PARTITA_ASSERT_MSG(server->start(&why), "benchmark server failed to start");
  }
}

Stack::~Stack() {
  if (server) server->stop();
  svc.reset();
  journal.close();
}

std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

namespace {

std::string describe(const Bench& b, const Submission& s) {
  static const char* const kKinds[] = {"fresh", "repeat", "perturbed"};
  return b.subjects[s.subject].name +
         (s.gains.empty() ? " gain " + std::to_string(s.gain)
                          : " batch of " + std::to_string(s.gains.size())) +
         " (" + kKinds[static_cast<int>(s.kind)] + ")";
}

/// Per-client tallies, merged after the window.
struct ClientLog {
  std::vector<double> latencies_ms;
  std::size_t items = 0;
  std::size_t failed = 0;
  std::size_t submissions = 0;
  std::map<std::string, std::size_t> markers;
  std::vector<std::string> mismatches;
  Clock::time_point last_done{};
  double slowest_ms = 0;
  std::string slowest;

  void record(const Bench& b, const Submission& s, double ms, std::size_t failed_items,
              const std::string& why) {
    if (ms > slowest_ms) {
      slowest_ms = ms;
      slowest = describe(b, s);
    }
    ++submissions;
    items += s.items();
    failed += failed_items;
    latencies_ms.push_back(failed_items == 0 ? ms : std::numeric_limits<double>::infinity());
    if (failed_items != 0 && mismatches.size() < 4)
      mismatches.push_back(describe(b, s) + ": " + why);
  }
};

/// Checks one in-process response against its reference; "" when it passes.
std::string gate(const Bench& b, int ref, const pt::service::SolveResponse& r) {
  if (r.state != RequestState::kCompleted) return "not completed: " + r.error.message;
  if (pt::select::solution_signature(r.selection) != b.refs[ref].signature)
    return "answer differs from the one-shot reference";
  return "";
}

void client_in_process(const Bench& b, pt::service::SolveService& svc,
                       std::atomic<std::size_t>& cursor, Clock::time_point start,
                       Clock::time_point deadline, ClientLog& log) {
  std::this_thread::sleep_until(start);
  while (Clock::now() < deadline) {
    const Submission& s = b.pool[cursor.fetch_add(1) % b.pool.size()];
    pt::service::SolveRequest req = service_request(b, s, "");
    const Clock::time_point t0 = Clock::now();
    const pt::service::SubmitOutcome out = svc.submit(std::move(req));
    std::vector<pt::service::SolveResponse> resps;
    for (const std::uint64_t t : out.tickets) resps.push_back(svc.wait(t));
    const Clock::time_point t1 = Clock::now();
    std::size_t bad = 0;
    std::string why;
    for (std::size_t i = 0; i < s.items(); ++i) {
      const std::string w =
          i < resps.size() ? gate(b, s.refs[i], resps[i]) : std::string("no ticket");
      if (!w.empty()) ++bad, why = w;
    }
    log.record(b, s, ms_between(t0, t1), bad, why);
    log.last_done = t1;
  }
}

/// One wire round trip of a submission: submit, then wait on every ticket.
/// Returns the failed-item count and sets `why` for the last failure.
std::size_t wire_round_trip(const Bench& b, const Submission& s,
                            const pt::net::WireRequest& submit, pt::net::WireClient& client,
                            ClientLog& log, std::string& why) {
  std::string err;
  const auto sub = client.call(submit, &err);
  if (!sub || !sub->ok || sub->tickets.size() != s.items()) {
    why = "submit failed: " + (sub ? sub->error.message + sub->reject_reason : err);
    return s.items();
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sub->tickets.size(); ++i) {
    pt::net::WireRequest w;
    w.verb = "wait";
    w.ticket = sub->tickets[i];
    const auto resp = client.call(w, &err);
    if (!resp || !resp->ok || !resp->result) {
      ++bad, why = "wait failed: " + err;
      continue;
    }
    const pt::net::WireResult& r = *resp->result;
    ++log.markers[r.cache.empty() ? "none" : r.cache];
    if (r.state != "completed" || !r.selection) {
      ++bad, why = "not completed: " + r.error.message;
    } else if (r.selection->key() != b.refs[s.refs[i]].wire_key) {
      ++bad, why = "answer differs from the one-shot reference (cache: " + r.cache + ")";
    }
  }
  return bad;
}

/// One wire pass on a fresh serving stack: both clients connect, then
/// replay the pass under their own tenant. Returns the pass's active time
/// (first submit to last answer); set-up and teardown are outside it.
double run_wire_pass(const Bench& b, const std::vector<Submission>& pass,
                     const std::string& dir, std::vector<ClientLog>& logs, TimedResult& res) {
  fresh_dir(dir);
  const Clock::time_point s0 = Clock::now();
  Stack stack(b, kClients, dir, /*serve=*/true);
  res.setup_samples.push_back(ms_between(s0, Clock::now()) / 1000.0);
  const std::string endpoint = stack.server->endpoint();
  std::latch ready(kClients + 1);
  std::vector<Clock::time_point> first(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      std::vector<pt::net::WireRequest> reqs;
      for (const Submission& s : pass)
        reqs.push_back(wire_request(b, s, "client" + std::to_string(c)));
      pt::net::WireClient client;
      std::string err;
      PARTITA_ASSERT_MSG(client.connect(endpoint, &err), "benchmark client cannot connect");
      ready.arrive_and_wait();
      first[c] = Clock::now();
      for (std::size_t i = 0; i < pass.size(); ++i) {
        std::string why;
        const Clock::time_point t0 = Clock::now();
        const std::size_t bad = wire_round_trip(b, pass[i], reqs[i], client, log, why);
        const Clock::time_point t1 = Clock::now();
        log.record(b, pass[i], ms_between(t0, t1), bad, why);
        log.last_done = t1;
      }
      client.close();
    });
  }
  ready.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  Clock::time_point begin = first[0], end = logs[0].last_done;
  for (int c = 1; c < kClients; ++c) {
    begin = std::min(begin, first[c]);
    end = std::max(end, logs[c].last_done);
  }
  const pt::service::ServiceStats st = stack.svc->stats();
  res.stats.cache_lookups += st.cache_lookups;
  res.stats.cache_hits += st.cache_hits;
  res.stats.cache_misses += st.cache_misses;
  res.stats.cache_neighbor_seeds += st.cache_neighbor_seeds;
  res.stats.cache_evictions += st.cache_evictions;
  return ms_between(begin, end) / 1000.0;
}

}  // namespace

std::vector<double> measure_setup(const Bench& b, const std::string& work_dir, int reps) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const std::string dir = fresh_dir(work_dir + "/setup");
    const Clock::time_point t0 = Clock::now();
    auto stack = std::make_unique<Stack>(b, kClients, dir, b.wire);
    const Clock::time_point t1 = Clock::now();
    stack.reset();
    secs.push_back(ms_between(t0, t1) / 1000.0);
    fs::remove_all(dir);
  }
  return secs;
}

TimedResult run_timed(const Bench& b, int seconds, const std::string& work_dir) {
  const std::string dir = work_dir + "/timed";
  std::vector<ClientLog> logs(kClients);
  TimedResult res;
  if (!b.wire) {
    Stack stack(b, kClients, fresh_dir(dir), /*serve=*/false);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point deadline = start + std::chrono::seconds(seconds);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back(client_in_process, std::cref(b), std::ref(*stack.svc),
                           std::ref(cursor), start, deadline, std::ref(logs[c]));
    for (std::thread& t : clients) t.join();
    if (cursor.load() > b.pool.size())
      std::printf("note: the pool of %zu submissions wrapped\n", b.pool.size());
    res.stats = stack.svc->stats();
    Clock::time_point end = start;
    for (const ClientLog& log : logs) end = std::max(end, log.last_done);
    res.elapsed_s = ms_between(start, end) / 1000.0;
    std::size_t items = 0;
    for (const ClientLog& log : logs) items += log.items;
    res.throughput = res.elapsed_s > 0 ? static_cast<double>(items) / res.elapsed_s : 0.0;
  } else {
    // Whole passes until their summed active time reaches the window; each
    // pass starts cold on its own stack, so its hit count is exact.
    // Throughput is the median over passes of items per second: a rare
    // pathological solve stalls its pass for seconds (see README.md) and
    // would otherwise decide the whole run.
    std::vector<double> rates;
    while (res.elapsed_s < seconds) {
      const std::vector<Submission>& pass = b.passes[res.passes % b.passes.size()];
      const double s = run_wire_pass(b, pass, dir, logs, res);
      res.elapsed_s += s;
      rates.push_back(static_cast<double>(pass.size() * kClients) / s);
      ++res.passes;
    }
    res.throughput = median(rates);
    if (res.passes > b.passes.size())
      std::printf("note: the %zu pass templates wrapped\n", b.passes.size());
  }
  fs::remove_all(dir);
  for (ClientLog& log : logs) {
    if (log.slowest_ms > res.slowest_ms) {
      res.slowest_ms = log.slowest_ms;
      res.slowest = log.slowest;
    }
    res.latencies_ms.insert(res.latencies_ms.end(), log.latencies_ms.begin(),
                            log.latencies_ms.end());
    res.items_attempted += log.items;
    res.items_failed += log.failed;
    res.submissions += log.submissions;
    for (const auto& [k, v] : log.markers) res.cache_markers[k] += v;
    for (std::string& m : log.mismatches)
      if (res.mismatches.size() < 4) res.mismatches.push_back(std::move(m));
  }
  return res;
}

}  // namespace perfbench
