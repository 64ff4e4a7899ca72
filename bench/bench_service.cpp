// E-service — the vscrubd serving layer under concurrent load.
//
// Not a paper experiment: this bench characterizes the serving subsystem
// (event-loop transport + fair-share scheduler, API v4). It reports (a)
// end-to-end throughput and request latency for a fleet of concurrent
// loopback clients running the standard sampled campaign, (b) how much work
// the process-wide verdict store absorbs across those clients, (c) typed
// backpressure when the admission queue is deliberately starved, (d) a
// high-concurrency submit/cancel churn — hundreds of client identities,
// including deliberately greedy pipeliners — scored by Jain's fairness
// index and served-digest integrity, (e) preemption: a bulk tenant's long
// campaign yielding to interactive tenants and resuming from its VSCK
// checkpoint bit-identically, and (f) wire-protocol microcosts.
//
// CI gates on the churn/preempt fields of BENCH_service.json: fairness,
// tail latency, digest equality with one-shot runs, and at least one
// observed preemption.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/requests.h"
#include "svc/server.h"
#include "svc/session.h"

namespace vscrub::bench {
namespace {

constexpr const char* kSocket = "/tmp/vscrub_bench_svc.sock";
constexpr const char* kStore = "/tmp/vscrub_bench_svc_store";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start).count();
}

u64 env_u64(const char* name, u64 dflt) {
  const char* value = std::getenv(name);
  return value == nullptr ? dflt : std::strtoull(value, nullptr, 10);
}

double percentile(std::vector<double> sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_in_place.size() - 1));
  return sorted_in_place[idx];
}

/// Jain's fairness index over per-client allocations: (Σx)² / (n·Σx²).
/// 1.0 = perfectly even, 1/n = one client got everything.
double jain_index(const std::vector<u64>& x) {
  double sum = 0.0, sum_sq = 0.0;
  for (const u64 v : x) {
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(x.size()) * sum_sq);
}

struct RunningServer {
  explicit RunningServer(ServiceConfig config) : server(std::move(config)) {
    server.start();
    runner = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.request_stop();
    runner.join();
  }
  SocketServer server;
  std::thread runner;
};

void run_report() {
  std::printf("\nE-service — vscrubd concurrent campaign service\n");
  rule();

  std::filesystem::remove_all(kStore);
  const std::string payload = JsonReport("campaign_request")
                                  .set_string("design", "lfsrmult")
                                  .set_string("device", "campaign")
                                  .set_u64("sample", 1000)
                                  .to_json();
  const std::string churn_payload =
      JsonReport("campaign_request")
          .set_string("design", "lfsr")
          .set_string("device", "campaign")
          .set_u64("sample", 300)
          .to_json();

  // Ground truth for served-result integrity: the same campaigns run once,
  // directly through the library, with the server's defaults.
  const PlacedDesign churn_design =
      compile(design_by_name("lfsr"), device_by_name("campaign"));
  const auto direct_options = [](u64 sample) {
    return CampaignOptions{}
        .with_injection(InjectionOptions{}
                            .with_persistence(false)
                            .with_pruning(true)
                            .with_gang_width(served_gang_width_default()))
        .with_sample(sample, 99);
  };
  const u64 churn_digest = run_campaign(churn_design, direct_options(300))
                               .sensitive_digest(churn_design);
  const u64 bulk_digest =
      run_campaign(churn_design,
                   CampaignOptions(direct_options(6000)).with_chunk_size(64))
          .sensitive_digest(churn_design);

  constexpr std::size_t kClients = 8;
  constexpr int kRequestsPerClient = 2;
  double wall_s = 0.0;
  u64 cache_hits = 0;
  u64 results = 0;
  double p50 = 0.0, p99 = 0.0;
  double ping_us = 0.0;
  {
    ServiceConfig config;
    config.socket_path = kSocket;
    config.queue_capacity = 32;
    config.executors = 3;
    config.pool_threads = 3;
    config.cache_dir = kStore;

    // Warm the shared store with one cold run against a throwaway server so
    // the fleet below (and its latency histogram) measures the daemon's
    // steady state — the regime the p50 target is about — not first-compute.
    {
      RunningServer warm_server(config);
      ServiceSession warm = ServiceSession::connect_unix(kSocket);
      (void)warm.call(FrameKind::kCampaign, payload);
    }
    RunningServer running(config);

    // Ping round-trip cost over the real socket (frame encode + send + server
    // dispatch + reply decode), amortized over many probes.
    {
      ServiceSession client = ServiceSession::connect_unix(kSocket);
      constexpr int kPings = 2000;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kPings; ++i) client.ping();
      ping_us = seconds_since(start) * 1e6 / kPings;
    }

    std::vector<u64> hits(kClients, 0);
    std::vector<u64> ok(kClients, 0);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ServiceSession client = ServiceSession::connect_unix(kSocket);
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const Frame reply = client.call(FrameKind::kCampaign, payload);
          if (reply.kind != FrameKind::kResult) continue;
          ++ok[c];
          hits[c] += FlatJson::parse(reply.payload).get_u64("cache_hits");
        }
      });
    }
    for (std::thread& t : clients) t.join();
    wall_s = seconds_since(start);
    for (std::size_t c = 0; c < kClients; ++c) {
      cache_hits += hits[c];
      results += ok[c];
    }

    ServiceSession client = ServiceSession::connect_unix(kSocket);
    const FlatJson stats = FlatJson::parse(client.stats().payload);
    p50 = stats.get_double("request_latency_ms_p50");
    p99 = stats.get_double("request_latency_ms_p99");
  }

  const u64 requests = static_cast<u64>(kClients) * kRequestsPerClient;
  std::printf("%zu clients x %d campaigns (sample 1000): %llu/%llu results in "
              "%.2f s (%.1f req/s)\n",
              kClients, kRequestsPerClient,
              static_cast<unsigned long long>(results),
              static_cast<unsigned long long>(requests), wall_s,
              static_cast<double>(results) / wall_s);
  std::printf("request latency p50 %.1f ms, p99 %.1f ms; ping round-trip "
              "%.1f us\n", p50, p99, ping_us);
  std::printf("cross-client verdict reuse: %llu cached verdicts served\n",
              static_cast<unsigned long long>(cache_hits));

  // Backpressure: one executor, a single queue slot, a burst of requests —
  // the excess must come back as typed kBusy, not buffer or block.
  u64 busy = 0;
  u64 served = 0;
  u64 admission_rejects = 0;
  {
    ServiceConfig config;
    config.socket_path = kSocket;
    config.queue_capacity = 1;
    config.executors = 1;
    config.pool_threads = 3;
    RunningServer running(config);
    std::vector<std::thread> burst;
    std::vector<u64> was_busy(kClients, 0);
    std::vector<u64> was_served(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
      burst.emplace_back([&, c] {
        ServiceSession client = ServiceSession::connect_unix(kSocket);
        const Frame reply = client.call(FrameKind::kCampaign, payload);
        if (reply.kind == FrameKind::kBusy) was_busy[c] = 1;
        if (reply.kind == FrameKind::kResult) was_served[c] = 1;
      });
    }
    for (std::thread& t : burst) t.join();
    for (std::size_t c = 0; c < kClients; ++c) {
      busy += was_busy[c];
      served += was_served[c];
    }
    ServiceSession client = ServiceSession::connect_unix(kSocket);
    admission_rejects =
        FlatJson::parse(client.stats().payload).get_u64("admission_rejects");
  }
  std::printf("starved admission (queue 1, 1 executor), %zu-request burst: "
              "%llu served, %llu typed kBusy rejects\n",
              kClients, static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(busy));

  // ---- high-concurrency submit/cancel churn --------------------------------
  // Hundreds of client identities hammer one server. A quarter of them are
  // greedy (4 requests pipelined on one connection); the rest are polite
  // closed-loop clients, and every 4th polite submission is cancelled right
  // after submit. Scored: Jain fairness over polite completion counts,
  // client-observed latency percentiles, and digest equality of every served
  // result with the one-shot run.
  const std::size_t churn_clients =
      static_cast<std::size_t>(env_u64("VSCRUB_BENCH_CHURN_CLIENTS", 256));
  const double churn_seconds =
      static_cast<double>(env_u64("VSCRUB_BENCH_CHURN_SECONDS", 3));
  const std::size_t greedy_clients = churn_clients / 4;
  u64 churn_results = 0, churn_cancels = 0, churn_mismatches = 0;
  double churn_p50 = 0.0, churn_p99 = 0.0, churn_jain = 0.0;
  {
    ServiceConfig config;
    config.socket_path = kSocket;
    config.queue_capacity = churn_clients * 8;
    config.executors = 4;
    config.pool_threads = 3;
    config.cache_dir = kStore;
    RunningServer running(config);

    // Warm the shared store once so churn measures serving, not first-compute.
    {
      ServiceSession warm = ServiceSession::connect_unix(kSocket);
      (void)warm.call(FrameKind::kCampaign, churn_payload);
    }

    std::vector<u64> completions(churn_clients, 0);
    std::vector<u64> cancels(churn_clients, 0);
    std::vector<u64> mismatches(churn_clients, 0);
    std::vector<std::vector<double>> latencies(churn_clients);
    std::vector<std::thread> threads;
    threads.reserve(churn_clients);
    // Start barrier: spawning hundreds of threads is itself slow, and a
    // fixed deadline would hand early starters a longer window than late
    // ones — a fairness artifact of the bench, not the scheduler. Everyone
    // connects first; the clock starts when the whole fleet is ready.
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::chrono::steady_clock::time_point deadline{};
    for (std::size_t c = 0; c < churn_clients; ++c) {
      threads.emplace_back([&, c] {
        ServiceSession session = ServiceSession::connect_unix(kSocket);
        ready.fetch_add(1);
        while (!go.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const bool greedy = c < greedy_clients;
        u64 n = 0;
        const auto check = [&](const Frame& reply, double lat_ms) {
          if (reply.kind != FrameKind::kResult) return;
          ++completions[c];
          if (lat_ms >= 0.0) latencies[c].push_back(lat_ms);
          const FlatJson report = FlatJson::parse(reply.payload);
          if (report.get_bool("interrupted")) return;  // cancelled mid-run
          if (report.get_u64("sensitive_digest") != churn_digest) {
            ++mismatches[c];
          }
        };
        while (std::chrono::steady_clock::now() < deadline) {
          if (greedy) {
            std::vector<JobHandle> jobs;
            for (int k = 0; k < 4; ++k) {
              jobs.push_back(session.submit(FrameKind::kCampaign,
                                            churn_payload));
            }
            for (JobHandle& job : jobs) check(job.wait(), -1.0);
            continue;
          }
          ++n;
          const auto t0 = std::chrono::steady_clock::now();
          JobHandle job = session.submit(FrameKind::kCampaign, churn_payload);
          if (n % 4 == 2) {
            if (job.cancel()) ++cancels[c];
            (void)job.wait();  // interrupted result or typed cancel error
            continue;
          }
          const Frame reply = job.wait();
          check(reply, seconds_since(t0) * 1e3);
        }
      });
    }
    while (ready.load() < churn_clients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(churn_seconds));
    go.store(true);
    for (std::thread& t : threads) t.join();

    std::vector<double> all_latencies;
    for (std::size_t c = greedy_clients; c < churn_clients; ++c) {
      all_latencies.insert(all_latencies.end(), latencies[c].begin(),
                           latencies[c].end());
    }
    churn_p50 = percentile(all_latencies, 0.50);
    churn_p99 = percentile(all_latencies, 0.99);
    const std::vector<u64> polite(completions.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          greedy_clients),
                                  completions.end());
    churn_jain = jain_index(polite);
    for (std::size_t c = 0; c < churn_clients; ++c) {
      churn_results += completions[c];
      churn_cancels += cancels[c];
      churn_mismatches += mismatches[c];
    }
  }
  std::printf("churn: %zu clients (%zu greedy) for %.0f s: %llu results, "
              "%llu cancels, %llu digest mismatches\n",
              churn_clients, greedy_clients, churn_seconds,
              static_cast<unsigned long long>(churn_results),
              static_cast<unsigned long long>(churn_cancels),
              static_cast<unsigned long long>(churn_mismatches));
  std::printf("churn latency p50 %.1f ms p99 %.1f ms; Jain fairness %.3f "
              "over %zu polite clients\n",
              churn_p50, churn_p99, churn_jain,
              churn_clients - greedy_clients);

  // ---- preemption: bulk tenant yields, resumes bit-identically -------------
  u64 preemptions = 0;
  u64 preempt_resumed = 0;
  u64 preempt_digest_match = 0;
  u64 interactive_served = 0;
  {
    ServiceConfig config;
    config.socket_path = kSocket;
    config.queue_capacity = 64;
    config.executors = 1;  // preemption is the only path for the short jobs
    config.pool_threads = 3;
    config.preempt_chunks = 1;  // parked checkpoints stay in memory
    RunningServer running(config);

    ServiceSession bulk = ServiceSession::connect_unix(kSocket);
    std::atomic<bool> mid_flight{false};
    JobHandle big = bulk.submit(
        FrameKind::kCampaign,
        R"({"design": "lfsr", "device": "campaign", "sample": 6000,)"
        R"( "chunk": 64, "tenant": "bulk", "progress": true,)"
        R"( "progress_every_chunks": 1})",
        [&](const Frame& f) {
          if (f.kind == FrameKind::kProgress) mid_flight = true;
        });
    while (!mid_flight.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ServiceSession interactive = ServiceSession::connect_unix(kSocket);
    for (int i = 0; i < 3; ++i) {
      const Frame reply = interactive.call(
          FrameKind::kCampaign,
          R"({"design": "lfsr", "device": "campaign", "sample": 300,)"
          R"( "tenant": "interactive"})");
      if (reply.kind == FrameKind::kResult) ++interactive_served;
    }
    const Frame big_reply = big.wait();
    if (big_reply.kind == FrameKind::kResult) {
      const FlatJson report = FlatJson::parse(big_reply.payload);
      preempt_resumed = report.get_u64("resumed_injections");
      preempt_digest_match =
          report.get_u64("sensitive_digest") == bulk_digest &&
                  !report.get_bool("interrupted")
              ? 1
              : 0;
    }
    const FlatJson stats = FlatJson::parse(interactive.stats().payload);
    preemptions = stats.get_u64("preemptions");
  }
  std::printf("preempt: bulk campaign yielded %llu time(s), served %llu "
              "interactive jobs, resumed %llu injections, digest %s\n\n",
              static_cast<unsigned long long>(preemptions),
              static_cast<unsigned long long>(interactive_served),
              static_cast<unsigned long long>(preempt_resumed),
              preempt_digest_match != 0 ? "bit-identical" : "MISMATCH");

  BenchJson json;
  json.set("requests", static_cast<double>(requests));
  json.set("results", static_cast<double>(results));
  json.set("wall_s", wall_s);
  json.set("requests_per_s", static_cast<double>(results) / wall_s);
  json.set("latency_p50_ms", p50);
  json.set("latency_p99_ms", p99);
  json.set("ping_us", ping_us);
  json.set("cache_hits", static_cast<double>(cache_hits));
  json.set("burst_served", static_cast<double>(served));
  json.set("burst_busy", static_cast<double>(busy));
  json.set("admission_rejects", static_cast<double>(admission_rejects));
  json.set("churn_clients", static_cast<double>(churn_clients));
  json.set("churn_results", static_cast<double>(churn_results));
  json.set("churn_cancels", static_cast<double>(churn_cancels));
  json.set("churn_digest_mismatches", static_cast<double>(churn_mismatches));
  json.set("churn_p50_ms", churn_p50);
  json.set("churn_p99_ms", churn_p99);
  json.set("churn_jain", churn_jain);
  json.set("preemptions", static_cast<double>(preemptions));
  json.set("preempt_resumed_injections", static_cast<double>(preempt_resumed));
  json.set("preempt_digest_match", static_cast<double>(preempt_digest_match));
  json.write(bench_json_path("BENCH_service.json"));
  std::filesystem::remove_all(kStore);
}

void BM_FrameEncode(benchmark::State& state) {
  const Frame frame{FrameKind::kCampaign, 42,
                    R"({"design": "lfsrmult", "device": "campaign",)"
                    R"( "sample": 20000, "seed": 99})"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_frame(frame));
  }
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const std::vector<u8> wire =
      encode_frame({FrameKind::kCampaign, 42,
                    R"({"design": "lfsrmult", "device": "campaign",)"
                    R"( "sample": 20000, "seed": 99})"});
  for (auto _ : state) {
    FrameDecoder decoder;
    decoder.feed(wire);
    Frame out;
    benchmark::DoNotOptimize(decoder.next(&out));
  }
}
BENCHMARK(BM_FrameDecode);

void BM_RequestParse(benchmark::State& state) {
  const std::string text = JsonReport("campaign_request")
                               .set_string("design", "lfsrmult")
                               .set_string("device", "campaign")
                               .set_u64("sample", 20000)
                               .set_u64("seed", 99)
                               .set_bool("persistence", true)
                               .to_json();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatJson::parse(text));
  }
}
BENCHMARK(BM_RequestParse);

}  // namespace
}  // namespace vscrub::bench

int main(int argc, char** argv) {
  vscrub::bench::run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
