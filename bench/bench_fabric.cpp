// E16 — the distributed campaign fabric: scale-out sweep over a fleet of
// single-threaded vscrubd workers.
//
// Not a paper experiment: this bench characterizes the coordinator subsystem
// (svc/fabric.h) the way E-service characterizes the serving layer. It
// reports (a) the scale-out curve — the identical sampled campaign served
// one-shot by one worker, then sharded over 1/2/4 workers, every merged
// digest bit-identical; (b) the cross-worker reuse tier — a cold fleet run
// publishing verdicts into a coordinator hub store and a warm rerun
// answering out of it; and (c) the price of a mid-campaign worker loss —
// one worker dies right after shipping its first checkpoint, the range
// resumes elsewhere from the blob, and the merge still matches one-shot.
//
// Workers are pinned to one executor and one compute thread each, so the
// sweep measures fabric scale-out, not the intra-worker thread pool. CI
// gates BENCH_fabric.json on digest equality everywhere and >= 3x at 4
// workers.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "svc/config.h"
#include "svc/fabric.h"
#include "svc/partition.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/session.h"

namespace vscrub::bench {
namespace {

constexpr const char* kPrefix = "/tmp/vscrub_bench_fab_";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start).count();
}

u64 env_u64(const char* name, u64 dflt) {
  const char* value = std::getenv(name);
  return value == nullptr ? dflt : std::strtoull(value, nullptr, 10);
}

struct RunningServer {
  explicit RunningServer(ServiceConfig config) : server(std::move(config)) {
    boot();
  }
  RunningServer(ServiceConfig config, std::unique_ptr<FrameService> svc)
      : server(std::move(config), std::move(svc)) {
    boot();
  }
  ~RunningServer() {
    server.request_stop();
    runner.join();
  }
  void boot() {
    server.start();
    runner = std::thread([this] { server.run(); });
  }
  SocketServer server;
  std::thread runner;
};

/// A worker that forwards campaign frames until its first kCheckpoint has
/// shipped, then drops everything — the in-process stand-in for a worker
/// killed mid-range (the tsan smoke job kills a real process instead).
class DyingWorkerService final : public FrameService {
 public:
  explicit DyingWorkerService(const ServiceConfig& config) : inner_(config) {}

  void handle(const Frame& request, Emit emit, u64 client_id) override {
    if (request.kind != FrameKind::kCampaign) {
      inner_.handle(request, std::move(emit), client_id);
      return;
    }
    auto dead = std::make_shared<std::atomic<bool>>(false);
    inner_.handle(
        request,
        [emit = std::move(emit), dead](const Frame& f) {
          if (dead->load(std::memory_order_acquire)) return;
          emit(f);
          if (f.kind == FrameKind::kCheckpoint) {
            dead->store(true, std::memory_order_release);
          }
        },
        client_id);
  }
  void begin_drain() override { inner_.begin_drain(); }
  void wait_drained() override { inner_.wait_drained(); }
  bool idle() const override { return inner_.idle(); }
  void cancel_client(u64 client_id) override {
    inner_.cancel_client(client_id);
  }
  void cancel_all() override { inner_.cancel_all(); }
  JsonReport stats_report() const override { return inner_.stats_report(); }

 private:
  CampaignService inner_;
};

ServiceConfig worker_config(int index) {
  ServiceConfig config;
  config.socket_path = kPrefix + std::to_string(index) + ".sock";
  std::filesystem::remove(config.socket_path);
  config.executors = 1;
  config.pool_threads = 1;  // serial worker: the sweep measures the fabric
  return config;
}

std::string campaign_payload(u64 sample) {
  return JsonReport("campaign_request")
      .set_string("design", "lfsrmult")
      .set_string("device", "campaign")
      .set_u64("sample", sample)
      .set_u64("chunk", 64)
      .to_json();
}

FabricOptions fabric_options(const std::vector<std::string>& workers,
                             u64 sample) {
  FabricOptions options;
  options.workers = workers;
  options.params = FlatJson::parse(campaign_payload(sample));
  options.shards_per_worker = 2;
  return options;
}

void run_report() {
  std::printf("\nE16 — distributed campaign fabric scale-out\n");
  rule();

  const u64 sample = env_u64("VSCRUB_BENCH_FABRIC_SAMPLE", 16000);
  const u64 hub_sample = env_u64("VSCRUB_BENCH_FABRIC_HUB_SAMPLE", 6000);

  std::vector<std::unique_ptr<RunningServer>> workers;
  std::vector<std::string> sockets;
  for (int i = 0; i < 4; ++i) {
    ServiceConfig config = worker_config(i);
    sockets.push_back(config.socket_path);
    workers.push_back(std::make_unique<RunningServer>(config));
  }

  // Ground truth and serial baseline in one: the campaign served one-shot
  // by a single single-threaded worker.
  ServiceSession client = ServiceSession::connect_unix(sockets[0]);
  const auto one_shot_start = std::chrono::steady_clock::now();
  const Frame one_shot =
      client.call(FrameKind::kCampaign, campaign_payload(sample));
  const double one_shot_seconds = seconds_since(one_shot_start);
  VSCRUB_CHECK(one_shot.kind == FrameKind::kResult,
               "bench_fabric: one-shot campaign failed: " + one_shot.payload);
  const FlatJson expected = FlatJson::parse(one_shot.payload);
  const u64 expected_digest = expected.get_u64("sensitive_digest");
  std::printf("one-shot (1 worker, 1 thread): %.2f s, %llu injections\n",
              one_shot_seconds,
              static_cast<unsigned long long>(expected.get_u64("injections")));

  BenchJson json;
  json.set("sample", static_cast<double>(sample));
  json.set("one_shot_seconds", one_shot_seconds);

  // (a) Scale-out sweep: the same campaign sharded over 1, 2, 4 workers.
  bool digests_match = true;
  double fab4_seconds = 0.0;
  for (const std::size_t fleet : {1u, 2u, 4u}) {
    const std::vector<std::string> fleet_sockets(sockets.begin(),
                                                 sockets.begin() +
                                                     static_cast<long>(fleet));
    const auto start = std::chrono::steady_clock::now();
    const FabricResult result =
        run_fabric_campaign(fabric_options(fleet_sockets, sample));
    const double seconds = seconds_since(start);
    const FlatJson merged = FlatJson::parse(result.merged.to_json());
    const bool match = merged.get_u64("sensitive_digest") == expected_digest &&
                       merged.get_u64("injections") ==
                           expected.get_u64("injections");
    digests_match = digests_match && match;
    std::printf("fabric %zuw x2 shards: %.2f s (%.2fx vs one-shot)%s\n",
                fleet, seconds, one_shot_seconds / seconds,
                match ? "" : "  DIGEST MISMATCH");
    json.set("fabric_" + std::to_string(fleet) + "w_seconds", seconds);
    if (fleet == 4) fab4_seconds = seconds;
  }
  json.set("digest_match", digests_match ? 1.0 : 0.0);
  json.set("speedup_4w", one_shot_seconds / fab4_seconds);

  // (b) The reuse tier: a coordinator hub store behind the fleet. The cold
  // run publishes every fresh verdict; the warm rerun answers out of them.
  const std::string hub_socket = std::string(kPrefix) + "coord.sock";
  const std::string hub_dir = std::string(kPrefix) + "hub";
  std::filesystem::remove(hub_socket);
  std::filesystem::remove_all(hub_dir);
  FabricResult cold;
  FabricResult warm;
  double warm_seconds = 0.0;
  {
    ServiceConfig coord;
    coord.socket_path = hub_socket;
    coord.workers = sockets;
    coord.cache_dir = hub_dir;
    RunningServer hub(coord);

    FabricOptions hub_options = fabric_options(sockets, hub_sample);
    hub_options.remote_store_socket = hub_socket;
    cold = run_fabric_campaign(hub_options);
    const auto warm_start = std::chrono::steady_clock::now();
    warm = run_fabric_campaign(hub_options);
    warm_seconds = seconds_since(warm_start);
  }  // flush the hub store before run_report removes its directory
  const u64 warm_injections =
      FlatJson::parse(warm.merged.to_json()).get_u64("injections");
  const double reuse_rate =
      warm_injections == 0
          ? 0.0
          : static_cast<double>(warm.remote_hits) /
                static_cast<double>(warm_injections);
  std::printf("hub reuse: cold published %llu, warm hit %llu of %llu "
              "(%.1f%%) in %.2f s\n",
              static_cast<unsigned long long>(cold.remote_publishes),
              static_cast<unsigned long long>(warm.remote_hits),
              static_cast<unsigned long long>(warm_injections),
              100.0 * reuse_rate, warm_seconds);
  json.set("hub_sample", static_cast<double>(hub_sample));
  json.set("cold_remote_publishes", static_cast<double>(cold.remote_publishes));
  json.set("warm_remote_hits", static_cast<double>(warm.remote_hits));
  json.set("warm_reuse_rate", reuse_rate);
  // The warm rerun's wall clock: nearly every verdict is a hub lookup, so
  // this is the remote tier's cost per bit end to end.
  json.set("warm_seconds", warm_seconds);
  json.set("warm_ns_per_bit",
           warm_injections == 0
               ? 0.0
               : 1e9 * warm_seconds / static_cast<double>(warm_injections));

  // (c) Worker loss mid-campaign: one worker dies after its first shipped
  // checkpoint; its range must resume elsewhere from the blob and the merge
  // must still match the one-shot digest.
  ServiceConfig dying_config = worker_config(4);
  RunningServer dying(dying_config,
                      std::make_unique<DyingWorkerService>(dying_config));
  std::vector<std::string> lossy_sockets = {dying_config.socket_path,
                                            sockets[1], sockets[2],
                                            sockets[3]};
  FabricOptions lossy = fabric_options(lossy_sockets, sample);
  lossy.lease_ms = 1000;
  const FabricResult killed = run_fabric_campaign(lossy);
  const FlatJson killed_merged = FlatJson::parse(killed.merged.to_json());
  const bool killed_match =
      killed_merged.get_u64("sensitive_digest") == expected_digest &&
      killed_merged.get_u64("injections") == expected.get_u64("injections");
  std::printf("worker killed mid-range: %llu reassigned, %llu injections "
              "resumed from checkpoint, digest %s\n",
              static_cast<unsigned long long>(killed.reassignments),
              static_cast<unsigned long long>(killed.resumed_injections),
              killed_match ? "identical" : "MISMATCH");
  json.set("kill_digest_match", killed_match ? 1.0 : 0.0);
  json.set("kill_workers_lost", static_cast<double>(killed.workers_lost));
  json.set("kill_reassignments", static_cast<double>(killed.reassignments));
  json.set("kill_resumed_injections",
           static_cast<double>(killed.resumed_injections));

  json.write(bench_json_path("BENCH_fabric.json"));
  std::printf("\n");

  std::filesystem::remove_all(hub_dir);
}

void BM_PartitionUniverse(benchmark::State& state) {
  const u64 universe = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    auto ranges = partition_universe(universe, 64);
    benchmark::DoNotOptimize(ranges.data());
  }
}
BENCHMARK(BM_PartitionUniverse)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vscrub::bench

int main(int argc, char** argv) {
  vscrub::bench::run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
