// Hostile-fleet tests for the distributed campaign fabric: workers that die
// after a checkpoint, go silent past their lease, or deliver zombie results
// after reassignment must cost the campaign nothing but wall clock — the
// merged report stays bit-identical to a one-shot run, with the round trip
// through a shipped VSCK checkpoint proved by resumed_injections. A fleet
// with no live workers is a *typed* error, never a hang or a crash. The
// VSRP1 fuzz battery is extended over the fabric's new frame kinds
// (kStoreLookup / kStorePublish / kCheckpoint), at the decoder, a
// coordinator's CampaignService, and a live coordinator socket. A
// coordinator is the ordinary CampaignService with worker sockets in its
// config, so fleet campaigns queue by fair share like local ones.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "seu/cache_key.h"
#include "seu/campaign.h"
#include "store/verdict_store.h"
#include "svc/client.h"
#include "svc/config.h"
#include "svc/fabric.h"
#include "svc/partition.h"
#include "svc/protocol.h"
#include "svc/requests.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/store_wire.h"

namespace vscrub {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool terminal(FrameKind kind) {
  return kind == FrameKind::kResult || kind == FrameKind::kError ||
         kind == FrameKind::kBusy;
}

/// A worker engine with a scripted failure mode wrapped around the real
/// CampaignService. The failure is injected at the reply seam, so the inner
/// engine computes honestly while the fabric sees a worker that died or
/// hung — the in-process equivalent of a SIGKILL mid-range.
class HostileWorkerService final : public FrameService {
 public:
  enum class Mode {
    kHonest,
    /// Forwards frames until the first kCheckpoint of a campaign has gone
    /// out, then drops every later frame of that campaign (terminal
    /// included): a worker killed right after its checkpoint shipped.
    kDieAfterFirstCheckpoint,
    /// Drops every campaign frame from the start: a worker that accepted
    /// the range and then hung without a word.
    kBlackHole,
    /// Drops the campaign's event frames but delivers its terminal reply
    /// late — after the lease has expired and the range moved on: a zombie
    /// completion that must be dropped by first-wins.
    kZombieTerminal,
  };

  HostileWorkerService(const ServiceConfig& config, Mode mode)
      : inner_(config), mode_(mode) {}

  void handle(const Frame& request, Emit emit, u64 client_id) override {
    if (mode_ == Mode::kHonest || request.kind != FrameKind::kCampaign) {
      inner_.handle(request, std::move(emit), client_id);
      return;
    }
    const Mode mode = mode_;
    auto dead = std::make_shared<std::atomic<bool>>(
        mode != Mode::kDieAfterFirstCheckpoint);
    inner_.handle(
        request,
        [emit = std::move(emit), dead, mode](const Frame& f) {
          if (mode == Mode::kZombieTerminal) {
            if (!terminal(f.kind)) return;  // silent until the zombie reply
            std::this_thread::sleep_for(std::chrono::milliseconds(800));
            emit(f);
            return;
          }
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
  Mode mode_;
};

struct ServerBox {
  explicit ServerBox(ServiceConfig config)
      : server(std::make_unique<SocketServer>(std::move(config))) {
    run();
  }
  ServerBox(ServiceConfig config, std::unique_ptr<FrameService> svc)
      : server(std::make_unique<SocketServer>(std::move(config),
                                              std::move(svc))) {
    run();
  }
  ~ServerBox() {
    server->request_stop();
    runner.join();
  }
  void run() {
    server->start();
    runner = std::thread([this] { server->run(); });
  }
  std::unique_ptr<SocketServer> server;
  std::thread runner;
};

ServiceConfig worker_config(const char* socket_name, const std::string& spool) {
  ServiceConfig config;
  config.socket_path = ::testing::TempDir() + socket_name;
  std::filesystem::remove(config.socket_path);
  config.executors = 2;
  config.pool_threads = 2;
  config.spool_dir = spool;
  return config;
}

std::string campaign_payload(const char* design, u64 sample,
                             const char* tenant = nullptr) {
  JsonReport request("campaign_request");
  request.set_string("design", design)
      .set_string("device", "campaign")
      .set_u64("sample", sample)
      .set_u64("chunk", 64);
  if (tenant != nullptr) request.set_string("tenant", tenant);
  return request.to_json();
}

/// The ground truth: the identical campaign served one-shot (no range) by a
/// plain worker — the report every sharded/hostile variant must reproduce.
FlatJson one_shot_report(const std::string& socket, const char* design,
                         u64 sample) {
  ServiceClient client = ServiceClient::connect_unix(socket);
  const Frame reply =
      client.call(FrameKind::kCampaign, campaign_payload(design, sample));
  EXPECT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
  return FlatJson::parse(reply.payload);
}

void expect_merged_matches(const JsonReport& merged_report,
                           const FlatJson& expected) {
  const FlatJson merged = FlatJson::parse(merged_report.to_json());
  EXPECT_EQ(merged.get_u64("injections"), expected.get_u64("injections"));
  EXPECT_EQ(merged.get_u64("failures"), expected.get_u64("failures"));
  EXPECT_EQ(merged.get_u64("persistent"), expected.get_u64("persistent"));
  EXPECT_EQ(merged.get_u64("pruned"), expected.get_u64("pruned"));
  EXPECT_EQ(merged.get_u64("sensitive_bits"),
            expected.get_u64("sensitive_bits"));
  EXPECT_EQ(merged.get_u64("sensitive_digest"),
            expected.get_u64("sensitive_digest"));
  // Gang fill sums across ranges like the other counters. Without a store
  // every unpruned eligible bit is one gang lane exactly once (a resumed
  // range's checkpoint carries its finished chunks' counters), so lanes
  // match the one-shot run; runs depend on how ranges cut the chunks.
  EXPECT_EQ(merged.get_u64("gang_lanes"), expected.get_u64("gang_lanes"));
  EXPECT_GT(merged.get_u64("gang_runs"), 0u);
  EXPECT_FALSE(merged.get_bool("interrupted"));
}

/// Thread-safe frame sink for driving FrameService::handle directly.
struct FrameLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Frame> frames;

  FrameService::Emit emit() {
    return [this](const Frame& f) {
      std::lock_guard lock(mutex);
      frames.push_back(f);
      cv.notify_all();
    };
  }
};

FabricOptions fabric_options(const std::vector<std::string>& workers,
                             const char* design, u64 sample, u64 lease_ms) {
  FabricOptions options;
  options.workers = workers;
  options.params = FlatJson::parse(campaign_payload(design, sample));
  options.shards_per_worker = 1;
  options.lease_ms = lease_ms;
  options.checkpoint_every_chunks = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Fault-tolerant range reassignment
// ---------------------------------------------------------------------------

TEST(FabricHostile, WorkerDeadAfterCheckpointRangeResumesElsewhere) {
  const std::string spool_a = fresh_dir("fab_die_a");
  const std::string spool_b = fresh_dir("fab_die_b");
  ServiceConfig ca = worker_config("fab_die_a.sock", spool_a);
  ServiceConfig cb = worker_config("fab_die_b.sock", spool_b);
  ServerBox hostile(ca, std::make_unique<HostileWorkerService>(
                            ca, HostileWorkerService::Mode::
                                    kDieAfterFirstCheckpoint));
  ServerBox honest(cb);

  const FabricResult result = run_fabric_campaign(
      fabric_options({ca.socket_path, cb.socket_path}, "lfsr", 4000,
                     /*lease_ms=*/400));

  // The dead worker's range restarted from its shipped VSCK blob, not from
  // scratch — resumed_injections is the proof of the checkpoint round trip.
  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_GE(result.reassignments, 1u);
  EXPECT_GT(result.resumed_injections, 0u);
  EXPECT_FALSE(result.interrupted);

  // And the seam is invisible in the merge: bit-identical to one-shot.
  expect_merged_matches(result.merged,
                        one_shot_report(cb.socket_path, "lfsr", 4000));
  std::filesystem::remove_all(spool_a);
  std::filesystem::remove_all(spool_b);
}

TEST(FabricHostile, SilentWorkerForfeitsLeaseAndSurvivorsAbsorbTheRange) {
  const std::string spool_a = fresh_dir("fab_hang_a");
  const std::string spool_b = fresh_dir("fab_hang_b");
  ServiceConfig ca = worker_config("fab_hang_a.sock", spool_a);
  ServiceConfig cb = worker_config("fab_hang_b.sock", spool_b);
  ServerBox hostile(ca, std::make_unique<HostileWorkerService>(
                            ca, HostileWorkerService::Mode::kBlackHole));
  ServerBox honest(cb);

  const FabricResult result = run_fabric_campaign(
      fabric_options({ca.socket_path, cb.socket_path}, "lfsr", 2000,
                     /*lease_ms=*/300));

  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_GE(result.reassignments, 1u);
  EXPECT_FALSE(result.interrupted);
  expect_merged_matches(result.merged,
                        one_shot_report(cb.socket_path, "lfsr", 2000));
  std::filesystem::remove_all(spool_a);
  std::filesystem::remove_all(spool_b);
}

TEST(FabricHostile, ZombieResultAfterReassignmentIsNotDoubleCounted) {
  const std::string spool_a = fresh_dir("fab_zombie_a");
  const std::string spool_b = fresh_dir("fab_zombie_b");
  ServiceConfig ca = worker_config("fab_zombie_a.sock", spool_a);
  ServiceConfig cb = worker_config("fab_zombie_b.sock", spool_b);
  ServerBox hostile(ca, std::make_unique<HostileWorkerService>(
                            ca, HostileWorkerService::Mode::kZombieTerminal));
  ServerBox honest(cb);

  const FabricResult result = run_fabric_campaign(
      fabric_options({ca.socket_path, cb.socket_path}, "lfsr", 2000,
                     /*lease_ms=*/300));

  // The zombie's late completion (delivered well after its lease expired
  // and the range was reassigned) is dropped by first-wins: every counter
  // matches one-shot exactly — nothing was double-counted into the merge.
  EXPECT_GE(result.reassignments, 1u);
  EXPECT_FALSE(result.interrupted);
  expect_merged_matches(result.merged,
                        one_shot_report(cb.socket_path, "lfsr", 2000));
  std::filesystem::remove_all(spool_a);
  std::filesystem::remove_all(spool_b);
}

TEST(FabricHostile, FleetWithNoLiveWorkersIsATypedError) {
  // No worker ever reachable: the connect phase loses every link.
  FabricOptions unreachable = fabric_options(
      {::testing::TempDir() + "fab_no_such_worker.sock"}, "lfsr", 500,
      /*lease_ms=*/300);
  EXPECT_THROW(run_fabric_campaign(unreachable), Error);

  // A worker that connects but never speaks: the lease expires, the link is
  // declared lost, and with no survivors the fabric fails typed — it must
  // never hang on an outstanding range.
  const std::string spool = fresh_dir("fab_only_hang");
  ServiceConfig config = worker_config("fab_only_hang.sock", spool);
  ServerBox hostile(config, std::make_unique<HostileWorkerService>(
                                config,
                                HostileWorkerService::Mode::kBlackHole));
  FabricOptions silent =
      fabric_options({config.socket_path}, "lfsr", 500, /*lease_ms=*/300);
  EXPECT_THROW(run_fabric_campaign(silent), Error);
  std::filesystem::remove_all(spool);
}

// ---------------------------------------------------------------------------
// Coordinator end to end: sharded == one-shot, cross-worker verdict reuse
// ---------------------------------------------------------------------------

TEST(FabricHostile, CoordinatorFleetMatchesOneShotWithCrossWorkerReuse) {
  const std::string spool_a = fresh_dir("fab_coord_a");
  const std::string spool_b = fresh_dir("fab_coord_b");
  const std::string hub = fresh_dir("fab_coord_hub");
  ServiceConfig ca = worker_config("fab_coord_a.sock", spool_a);
  ServiceConfig cb = worker_config("fab_coord_b.sock", spool_b);
  ServerBox worker_a(ca);
  ServerBox worker_b(cb);

  ServiceConfig coord;
  coord.socket_path = ::testing::TempDir() + "fab_coord.sock";
  std::filesystem::remove(coord.socket_path);
  coord.workers = {ca.socket_path, cb.socket_path};
  coord.cache_dir = hub;
  ServerBox coordinator(coord);

  ServiceClient client = ServiceClient::connect_unix(coord.socket_path);
  const FlatJson pong = FlatJson::parse(client.ping().payload);
  EXPECT_EQ(pong.get_string("role"), "coordinator");
  EXPECT_EQ(pong.get_u64("workers"), 2u);

  const FlatJson expected =
      one_shot_report(ca.socket_path, "lfsrmult", 1200);

  // Cold fleet run: 4 disjoint ranges over 2 workers, every fresh verdict
  // published into the coordinator's hub store.
  const Frame cold = client.call(FrameKind::kCampaign,
                                 campaign_payload("lfsrmult", 1200));
  ASSERT_EQ(cold.kind, FrameKind::kResult) << cold.payload;
  const FlatJson cold_report = FlatJson::parse(cold.payload);
  EXPECT_EQ(cold_report.get_u64("fabric_workers"), 2u);
  EXPECT_EQ(cold_report.get_u64("fabric_ranges"), 4u);
  EXPECT_GT(cold_report.get_u64("remote_publishes"), 0u);
  EXPECT_EQ(cold_report.get_u64("sensitive_digest"),
            expected.get_u64("sensitive_digest"));
  EXPECT_EQ(cold_report.get_u64("injections"),
            expected.get_u64("injections"));
  EXPECT_EQ(cold_report.get_u64("failures"), expected.get_u64("failures"));

  // Warm rerun: the workers (which hold no local store) answer out of each
  // other's published verdicts via the hub — cross-worker reuse > 0, same
  // digest.
  const Frame warm = client.call(FrameKind::kCampaign,
                                 campaign_payload("lfsrmult", 1200));
  ASSERT_EQ(warm.kind, FrameKind::kResult) << warm.payload;
  const FlatJson warm_report = FlatJson::parse(warm.payload);
  EXPECT_GT(warm_report.get_u64("remote_hits"), 0u);
  EXPECT_EQ(warm_report.get_u64("sensitive_digest"),
            expected.get_u64("sensitive_digest"));

  const FlatJson stats = FlatJson::parse(client.stats().payload);
  EXPECT_EQ(stats.get_string("kind"), "service_stats");
  EXPECT_EQ(stats.get_u64("workers"), 2u);
  EXPECT_EQ(stats.get_u64("requests_total"), 2u);
  EXPECT_EQ(stats.get_u64("pool_threads"), 0u);
  EXPECT_GT(stats.get_u64("store_publishes"), 0u);
  EXPECT_GT(stats.get_u64("store_lookup_hits"), 0u);

  std::filesystem::remove_all(spool_a);
  std::filesystem::remove_all(spool_b);
  std::filesystem::remove_all(hub);
}

TEST(FabricHostile, CoordinatorQueuesFleetCampaignsInStrideOrder) {
  const std::string spool = fresh_dir("fab_fair_w");
  ServiceConfig cw = worker_config("fab_fair_w.sock", spool);
  ServerBox worker(cw);

  ServiceConfig coord;
  coord.socket_path = ::testing::TempDir() + "fab_fair_coord.sock";
  coord.workers = {cw.socket_path};
  coord.executors = 1;

  // Preempting a sharded campaign would need the fabric to park and resume
  // ranges; the combination is refused at configuration time.
  ServiceConfig preempting = coord;
  preempting.preempt_chunks = 2;
  preempting.spool_dir = spool;
  EXPECT_THROW(preempting.validate(), ServiceConfigError);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<u64> finished;
  u64 accepted = 0;
  const auto emit = [&](const Frame& f) {
    std::lock_guard lock(mutex);
    if (f.kind == FrameKind::kAccepted) ++accepted;
    if (!terminal(f.kind)) return;
    EXPECT_EQ(f.kind, FrameKind::kResult) << f.payload;
    finished.push_back(f.request_id);
    cv.notify_all();
  };
  FrameLog refused;
  CampaignService svc(coord);
  svc.handle({FrameKind::kRecampaign, 9, campaign_payload("lfsr", 300)},
             refused.emit(), 0);
  ASSERT_EQ(refused.frames.size(), 1u);
  EXPECT_EQ(FlatJson::parse(refused.frames[0].payload).get_string("code"),
            "bad_request");

  // One executor, five fleet campaigns from two tenants, submitted back to
  // back. The long first one runs; the rest queue (kAccepted, never kBusy)
  // and leave in stride order — tenants alternate — not in arrival order.
  const std::pair<u64, const char*> jobs[] = {
      {1, "alice"}, {2, "alice"}, {3, "alice"}, {4, "bob"}, {5, "bob"}};
  for (const auto& [id, tenant] : jobs) {
    svc.handle({FrameKind::kCampaign, id,
                campaign_payload("lfsr", id == 1 ? 4000 : 300, tenant)},
               emit, 0);
  }
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return finished.size() == 5; });
    EXPECT_EQ(accepted, 5u);
    EXPECT_EQ(finished, (std::vector<u64>{1, 4, 2, 5, 3}));
  }
  EXPECT_EQ(FlatJson::parse(svc.stats_report().to_json())
                .get_u64("admission_rejects", 0),
            0u);
  std::filesystem::remove_all(spool);
}

// ---------------------------------------------------------------------------
// The remote verdict tier over VSRP1
// ---------------------------------------------------------------------------

/// A verdict hub: a plain cache-enabled daemon, no workers.
ServiceConfig hub_config(const char* socket_name, const std::string& dir) {
  ServiceConfig config;
  config.socket_path = ::testing::TempDir() + socket_name;
  std::filesystem::remove(config.socket_path);
  config.executors = 1;
  config.pool_threads = 1;
  config.cache_dir = dir;
  return config;
}

StoredVerdict stored_of(const InjectionResult& r) {
  return {r.output_error, r.persistent, r.first_error_cycle,
          r.error_output_mask_lo};
}

StoredVerdict verdict_n(u64 n) {
  StoredVerdict v;
  v.output_error = (n & 1) != 0;
  v.persistent = (n & 2) != 0;
  v.first_error_cycle = static_cast<u32>(n);
  v.error_output_mask_lo = n * 0x9E3779B97F4A7C15ULL;
  return v;
}

/// Every sensitive bit's verdict, by linear index: what a campaign result
/// says about each bit (provenance excluded).
std::vector<std::tuple<u64, bool, u32, u64>> per_bit(
    const PlacedDesign& design, const CampaignResult& r) {
  std::vector<std::tuple<u64, bool, u32, u64>> out;
  for (const auto& sb : r.sensitive_bits) {
    out.emplace_back(design.space->linear_of(sb.addr), sb.persistent,
                     sb.first_error_cycle, sb.error_output_mask_lo);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VerdictKeyPair> key_pairs_of(const PlacedDesign& design,
                                         const CampaignOptions& options) {
  std::vector<VerdictKeyPair> pairs;
  build_cache_key_plan(design, options.injection)
      .key_pairs_of(*design.space,
                    campaign_universe(design.space->total_bits(), options),
                    &pairs);
  return pairs;
}

TEST(RemoteTier, OneLookupAnswersExactFallbackAndMissAndFeedsTheLocalStore) {
  const std::string hub_dir = fresh_dir("remote_tags_hub");
  const std::string local_dir = fresh_dir("remote_tags_local");
  const ServiceConfig cfg = hub_config("remote_tags_hub.sock", hub_dir);
  {
    ServerBox hub(cfg);
    const std::shared_ptr<const PlacedDesign> design =
        request_design("lfsrmult", "campaign");
    CampaignOptions opts =
        CampaignOptions{}.with_sample(8000, 41).with_threads(1);
    opts.with_range(0, 3);
    const std::vector<VerdictKeyPair> pairs = key_pairs_of(*design, opts);
    ASSERT_EQ(pairs.size(), 3u);
    ASSERT_FALSE(pairs[1].exact == pairs[1].fallback);
    std::vector<StoredVerdict> truth;
    SeuInjector fresh(*design, opts.injection);
    for (const u64 linear :
         campaign_universe(design->space->total_bits(), opts)) {
      truth.push_back(
          stored_of(fresh.inject(design->space->address_of_linear(linear))));
    }

    // The hub holds A under its exact key, B under its fallback key and
    // nothing for C: one lookup answers all three.
    VsrpRemoteStore remote(cfg.socket_path);
    remote.publish_batch(
        {{pairs[0].exact, truth[0]}, {pairs[1].fallback, truth[1]}});
    std::vector<VerdictLookup> slots;
    remote.lookup_batch(pairs, &slots);
    ASSERT_EQ(slots.size(), 3u);
    EXPECT_EQ(slots[0].match, VerdictMatch::kExact);
    EXPECT_EQ(slots[0].verdict, truth[0]);
    EXPECT_EQ(slots[1].match, VerdictMatch::kFallback);
    EXPECT_EQ(slots[1].verdict, truth[1]);
    EXPECT_EQ(slots[2].match, VerdictMatch::kMiss);

    // A worker campaign over the same three bits replays A and B from the
    // hub, injects C, matches a one-shot run bit for bit, and leaves A and
    // B in its local store under the keys that matched.
    CampaignOptions worker = opts;
    worker.with_cache(local_dir).with_remote_store(&remote);
    const CampaignResult r = run_campaign(*design, worker);
    const CampaignResult one_shot = run_campaign(*design, opts);
    EXPECT_EQ(r.injections, 3u);
    EXPECT_EQ(r.remote_hits, 2u);
    EXPECT_EQ(r.failures, one_shot.failures);
    EXPECT_EQ(per_bit(*design, r), per_bit(*design, one_shot));
    const VerdictStore local(local_dir);
    EXPECT_EQ(local.find(pairs[0].exact), truth[0]);
    EXPECT_EQ(local.find(pairs[1].fallback), truth[1]);
    EXPECT_FALSE(local.find(pairs[1].exact).has_value());
    EXPECT_EQ(remote.failed_frames(), 0u);
  }
  std::filesystem::remove_all(hub_dir);
  std::filesystem::remove_all(local_dir);
}

TEST(RemoteTier, BatchesPastOneFrameSplitAndStillAnswerEverySlot) {
  // A chunk larger than one frame holds: the client splits it, and every
  // slot still gets its answer.
  const std::string hub_dir = fresh_dir("remote_split_hub");
  const ServiceConfig cfg = hub_config("remote_split_hub.sock", hub_dir);
  {
    ServerBox hub(cfg);
    const std::size_t n = kStorePublishBatchMax + 1000;
    ASSERT_GT(n, kStoreLookupBatchMax);
    std::vector<std::pair<VerdictKey, StoredVerdict>> entries;
    std::vector<VerdictKeyPair> pairs;
    entries.reserve(n);
    pairs.reserve(n);
    for (u64 i = 0; i < n; ++i) {
      entries.emplace_back(VerdictKey{i, 0x5A}, verdict_n(i));
      // Odd slots only match through their fallback key.
      pairs.push_back(i % 2 == 0
                          ? VerdictKeyPair{{i, 0x5A}, {i, 0x77}}
                          : VerdictKeyPair{{i, 0x77}, {i, 0x5A}});
    }
    VsrpRemoteStore remote(cfg.socket_path);
    remote.publish_batch(entries);
    std::vector<VerdictLookup> slots;
    remote.lookup_batch(pairs, &slots);
    ASSERT_EQ(slots.size(), n);
    u64 wrong = 0;
    for (u64 i = 0; i < n; ++i) {
      const VerdictMatch want =
          i % 2 == 0 ? VerdictMatch::kExact : VerdictMatch::kFallback;
      wrong += slots[i].match != want || slots[i].verdict != verdict_n(i);
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(remote.hits(), n);
    EXPECT_EQ(remote.publishes(), n);
    EXPECT_EQ(remote.failed_frames(), 0u);

    ServiceClient client = ServiceClient::connect_unix(cfg.socket_path);
    const FlatJson stats = FlatJson::parse(client.stats().payload);
    EXPECT_EQ(stats.get_u64("store_frames"), 4u);  // two per verb
    EXPECT_EQ(stats.get_u64("store_lookups"), n);
    EXPECT_EQ(stats.get_u64("store_publishes"), n);
  }
  std::filesystem::remove_all(hub_dir);
}

TEST(RemoteTier, HubBackedCampaignIsPerBitIdenticalIncludingFallbackVerdicts) {
  const std::string hub_dir = fresh_dir("remote_perbit_hub");
  const ServiceConfig cfg = hub_config("remote_perbit_hub.sock", hub_dir);
  {
    ServerBox hub(cfg);
    const std::shared_ptr<const PlacedDesign> design =
        request_design("lfsrmult", "campaign");
    const CampaignOptions opts =
        CampaignOptions{}.with_sample(8000, 41).with_threads(2);
    const CampaignResult one_shot = run_campaign(*design, opts);

    VsrpRemoteStore remote(cfg.socket_path);
    CampaignOptions hub_backed = opts;
    hub_backed.with_remote_store(&remote);
    const CampaignResult cold = run_campaign(*design, hub_backed);
    const CampaignResult warm = run_campaign(*design, hub_backed);
    EXPECT_EQ(cold.remote_publishes, 8000u);
    EXPECT_EQ(warm.remote_hits, 8000u);
    for (const CampaignResult* r : {&cold, &warm}) {
      EXPECT_EQ(r->failures, one_shot.failures);
      EXPECT_EQ(r->persistent, one_shot.persistent);
      EXPECT_EQ(per_bit(*design, *r), per_bit(*design, one_shot));
    }

    // The sample holds oscillation-bounded bits: their verdicts live under
    // fallback keys, and the warm run got them through the fallback slot.
    std::vector<VerdictLookup> slots;
    remote.lookup_batch(key_pairs_of(*design, opts), &slots);
    u64 fallback = 0, missing = 0;
    for (const VerdictLookup& s : slots) {
      fallback += s.match == VerdictMatch::kFallback;
      missing += !s.hit();
    }
    EXPECT_GT(fallback, 0u);
    EXPECT_EQ(missing, 0u);
  }
  std::filesystem::remove_all(hub_dir);
}

// ---------------------------------------------------------------------------
// VSRP1 fuzz over the fabric's new frame kinds
// ---------------------------------------------------------------------------

/// A payload with one byte changed, or with bytes cut or appended.
std::string with_byte(std::string s, std::size_t at, u8 value) {
  s[at] = static_cast<char>(value);
  return s;
}

StoredVerdict sample_verdict(u32 cycle) {
  StoredVerdict v;
  v.output_error = true;
  v.persistent = (cycle & 1) != 0;
  v.first_error_cycle = cycle;
  v.error_output_mask_lo = 0xFF00FF00FF00FF00ull ^ cycle;
  return v;
}

TEST(FabricFuzz, NewKindsRoundTripAndInvalidNeighborsAreRejected) {
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kStoreLookup)));
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kStorePublish)));
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kCheckpoint)));
  // The unassigned neighbors stay rejected: a corrupted kind byte cannot
  // alias into the fabric verbs.
  for (const int kind : {0, 10, 11, 12, 13, 14, 15, 22, 23, 255}) {
    EXPECT_FALSE(frame_kind_valid(static_cast<u8>(kind))) << kind;
  }

  // Binary store payloads (NUL and 0xFF bytes included) ride the frame
  // codec byte-exactly, CRC and all.
  const std::vector<VerdictKeyPair> pairs = {
      {{0, ~0ull}, {0xFF00000000000000ull, 1}},
      {{0x1234, 0x5678}, {0x1234, 0x5678}},
  };
  const std::string lookup = encode_store_lookup(pairs);
  ASSERT_EQ(lookup.size(), kStoreCountBytes + 2 * kStorePairBytes);
  for (const auto& [kind, payload] :
       {std::pair{FrameKind::kStoreLookup, lookup},
        std::pair{FrameKind::kStorePublish,
                  encode_store_publish(std::vector{
                      std::pair{pairs[0].exact, sample_verdict(3)}})},
        std::pair{FrameKind::kCheckpoint, std::string(R"({"blob": "ff"})")}}) {
    const Frame in{kind, 0xFAB51Cull, payload};
    FrameDecoder decoder;
    decoder.feed(encode_frame(in));
    Frame out;
    ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_EQ(out.payload, in.payload);
  }

  // Codec round trips: key pairs, a reply with every tag, publish entries,
  // and the empty batch (a bare zero count).
  const std::vector<VerdictKeyPair> decoded_pairs = decode_store_lookup(lookup);
  ASSERT_EQ(decoded_pairs.size(), 2u);
  EXPECT_EQ(decoded_pairs[0].exact, pairs[0].exact);
  EXPECT_EQ(decoded_pairs[0].fallback, pairs[0].fallback);
  EXPECT_EQ(decoded_pairs[1].fallback, pairs[1].fallback);
  const std::vector<VerdictLookup> slots = {
      {VerdictMatch::kExact, sample_verdict(7)},
      {VerdictMatch::kMiss, {}},
      {VerdictMatch::kFallback, sample_verdict(8)},
  };
  const std::string reply = encode_store_lookup_reply(slots);
  ASSERT_EQ(reply.size(), kStoreCountBytes + 3 + 2 * kStoreVerdictBytes);
  const std::vector<VerdictLookup> decoded = decode_store_lookup_reply(reply, 3);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].match, slots[i].match) << i;
    if (slots[i].hit()) {
      EXPECT_EQ(decoded[i].verdict, slots[i].verdict) << i;
    }
  }
  const std::vector<std::pair<VerdictKey, StoredVerdict>> entries = {
      {{1, 2}, sample_verdict(0)}, {{~0ull, 0}, sample_verdict(31)}};
  const std::string publish = encode_store_publish(entries);
  ASSERT_EQ(publish.size(), kStoreCountBytes + 2 * kStoreEntryBytes);
  EXPECT_EQ(decode_store_publish(publish), entries);
  EXPECT_TRUE(decode_store_lookup(encode_store_lookup({})).empty());
  EXPECT_TRUE(decode_store_lookup_reply(encode_store_lookup_reply({}), 0)
                  .empty());
  EXPECT_TRUE(decode_store_publish(encode_store_publish({})).empty());
  EXPECT_EQ(decode_store_count(encode_store_count(5)), 5u);

  // Every malformed payload is an Error, never a partial decode.
  const std::size_t flag_at = kStoreCountBytes + 16;  // first entry's flags
  const std::size_t tag_at = kStoreCountBytes + 1;    // second slot's tag
  for (const std::string& bad : {
           std::string(),                                  // no count
           lookup.substr(0, 3),                            // truncated count
           lookup.substr(0, lookup.size() - 1),            // truncated pair
           lookup + std::string(1, '\0'),                  // trailing byte
           with_byte(lookup, 0, 3),                        // count 3, 2 pairs
           with_byte(lookup, 3, 0x80),                     // huge count
       }) {
    EXPECT_THROW(decode_store_lookup(bad), Error) << bad.size();
  }
  for (const std::string& bad : {
           publish.substr(0, publish.size() - 1),
           publish + std::string(1, '\0'),
           with_byte(publish, 0, 1),
           with_byte(publish, flag_at, 4),     // flag bits above 3
           with_byte(publish, flag_at, 0xFF),
       }) {
    EXPECT_THROW(decode_store_publish(bad), Error) << bad.size();
  }
  for (const std::string& bad : {
           reply.substr(0, reply.size() - 1),
           reply + std::string(1, '\0'),
           with_byte(reply, tag_at, 3),        // tag above 2
           with_byte(reply, tag_at, 1),        // a hit without its verdict
           with_byte(reply, kStoreCountBytes, 0),  // a verdict without a hit
           with_byte(reply, kStoreCountBytes + 3, 4),  // first verdict flags
       }) {
    EXPECT_THROW(decode_store_lookup_reply(bad, 3), Error) << bad.size();
  }
  EXPECT_THROW(decode_store_lookup_reply(reply, 2), Error);  // wrong count
  EXPECT_THROW(decode_store_count(encode_store_count(1) + "x"), Error);

  // A store frame whose kind byte is nudged into a hole (re-signed so only
  // the kind is wrong) is consumed as kBadKind without poisoning the stream.
  std::vector<u8> wire = encode_frame({FrameKind::kStoreLookup, 77, lookup});
  wire[5] = 11;
  const u32 crc = crc32(
      std::span<const u8>(wire.data(), wire.size() - kFrameTrailerBytes));
  for (int i = 0; i < 4; ++i) {
    wire[wire.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * i));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kBadKind);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FabricFuzz, StoreRequestsDegradeToTypedErrorsNeverCrash) {
  const std::string hub = fresh_dir("fab_fuzz_hub");
  ServiceConfig no_store;
  no_store.socket_path = "/tmp/fab_fuzz_unused.sock";
  no_store.workers = {"/tmp/fab_fuzz_worker_unused.sock"};
  const VerdictKeyPair pair{{0x1234, 0x5678}, {0x9abc, 0xdef0}};
  const std::string lookup = encode_store_lookup(std::vector{pair});
  {
    // Without a cache dir the store verbs fail typed, not null-deref.
    CampaignService svc(no_store);
    for (const FrameKind kind :
         {FrameKind::kStoreLookup, FrameKind::kStorePublish}) {
      FrameLog log;
      svc.handle({kind, 1, lookup}, log.emit(), 0);
      ASSERT_EQ(log.frames.size(), 1u);
      EXPECT_EQ(log.frames[0].kind, FrameKind::kError);
      EXPECT_EQ(FlatJson::parse(log.frames[0].payload).get_string("code"),
                "no_store");
    }
  }

  ServiceConfig with_store = no_store;
  with_store.cache_dir = hub;
  {
    CampaignService svc(with_store);
    StoredVerdict verdict;
    verdict.output_error = true;
    verdict.first_error_cycle = 7;
    const std::string publish =
        encode_store_publish(std::vector{std::pair{pair.exact, verdict}});

    // Hostile payloads, every one a typed bad_request: a version-1 peer's
    // hex-in-JSON, truncation, count/length mismatch, trailing bytes and
    // out-of-range flag bits.
    const std::pair<FrameKind, std::string> hostile[] = {
        {FrameKind::kStoreLookup, R"({"keys": "1:2"})"},
        {FrameKind::kStorePublish, R"({"entries": "1:2:1:7:0"})"},
        {FrameKind::kStoreLookup, ""},
        {FrameKind::kStoreLookup, lookup.substr(0, lookup.size() - 5)},
        {FrameKind::kStoreLookup, with_byte(lookup, 0, 2)},
        {FrameKind::kStoreLookup, lookup + "\x01"},
        {FrameKind::kStorePublish, publish.substr(0, 20)},
        {FrameKind::kStorePublish, publish + "\x01"},
        {FrameKind::kStorePublish,
         with_byte(publish, kStoreCountBytes + 16, 7)},
    };
    u64 id = 10;
    for (const auto& [kind, payload] : hostile) {
      FrameLog log;
      svc.handle({kind, id++, payload}, log.emit(), 0);
      ASSERT_EQ(log.frames.size(), 1u) << id;
      EXPECT_EQ(log.frames[0].kind, FrameKind::kError) << id;
      EXPECT_EQ(FlatJson::parse(log.frames[0].payload).get_string("code"),
                "bad_request")
          << id;
    }

    // An empty batch is valid both ways: a bare zero count back.
    for (const auto& [kind, payload] :
         {std::pair{FrameKind::kStoreLookup, encode_store_lookup({})},
          std::pair{FrameKind::kStorePublish, encode_store_publish({})}}) {
      FrameLog log;
      svc.handle({kind, id++, payload}, log.emit(), 0);
      ASSERT_EQ(log.frames.size(), 1u);
      ASSERT_EQ(log.frames[0].kind, FrameKind::kResult);
      EXPECT_EQ(decode_store_count(log.frames[0].payload), 0u);
    }

    // The well-formed path still works after the abuse: publish one verdict,
    // read it back as an exact hit through the wire codecs.
    FrameLog published;
    svc.handle({FrameKind::kStorePublish, 90, publish}, published.emit(), 0);
    ASSERT_EQ(published.frames.size(), 1u);
    ASSERT_EQ(published.frames[0].kind, FrameKind::kResult);
    EXPECT_EQ(decode_store_count(published.frames[0].payload), 1u);

    FrameLog looked_up;
    svc.handle({FrameKind::kStoreLookup, 91, lookup}, looked_up.emit(), 0);
    ASSERT_EQ(looked_up.frames.size(), 1u);
    ASSERT_EQ(looked_up.frames[0].kind, FrameKind::kResult);
    const std::vector<VerdictLookup> slots =
        decode_store_lookup_reply(looked_up.frames[0].payload, 1);
    EXPECT_EQ(slots[0].match, VerdictMatch::kExact);
    EXPECT_EQ(slots[0].verdict, verdict);

    const FlatJson stats = FlatJson::parse(svc.stats_report().to_json());
    EXPECT_EQ(stats.get_u64("protocol_version"), kProtocolVersion);
    EXPECT_EQ(stats.get_u64("store_frames"), 4u);  // the four answered
    EXPECT_EQ(stats.get_u64("store_frame_us_count"), 4u);
    EXPECT_EQ(stats.get_u64("bad_requests"), 9u);

    // kCheckpoint is a reply kind: as a *request* it gets a typed error from
    // both engines, coordinator and worker.
    FrameLog coord_ckpt;
    svc.handle({FrameKind::kCheckpoint, 92, R"({"blob": "ff"})"},
               coord_ckpt.emit(), 0);
    ASSERT_EQ(coord_ckpt.frames.size(), 1u);
    EXPECT_EQ(coord_ckpt.frames[0].kind, FrameKind::kError);

    ServiceConfig worker;
    worker.executors = 1;
    worker.pool_threads = 2;
    CampaignService worker_svc(worker);
    FrameLog worker_ckpt;
    worker_svc.handle({FrameKind::kCheckpoint, 93, R"({"blob": "ff"})"},
                      worker_ckpt.emit());
    ASSERT_EQ(worker_ckpt.frames.size(), 1u);
    EXPECT_EQ(worker_ckpt.frames[0].kind, FrameKind::kError);
    EXPECT_EQ(FlatJson::parse(worker_ckpt.frames[0].payload).get_string("code"),
              "bad_request");
  }  // flush the hub store before removing its directory
  std::filesystem::remove_all(hub);
}

int raw_connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

std::vector<Frame> drain_replies(int fd) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  u8 buf[4096];
  while (true) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    decoder.feed(std::span<const u8>(buf, static_cast<std::size_t>(n)));
    Frame out;
    while (decoder.next(&out) == FrameDecoder::Status::kFrame) {
      frames.push_back(out);
    }
  }
  return frames;
}

TEST(FabricFuzz, GarbageAtALiveCoordinatorSocketGetsTypedErrorThenClose) {
  ServiceConfig coord;
  coord.socket_path = ::testing::TempDir() + "fab_fuzz_coord.sock";
  std::filesystem::remove(coord.socket_path);
  coord.workers = {"/tmp/fab_fuzz_worker_unused.sock"};
  ServerBox coordinator(coord);

  const int fd = raw_connect(coord.socket_path);
  const char garbage[] = "GET /fleet HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, 0), 0);
  const std::vector<Frame> replies = drain_replies(fd);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(replies[0].payload).get_string("code"),
            "bad_magic");
  ::close(fd);

  // The hostile episode cost one connection; the coordinator still serves.
  ServiceClient client = ServiceClient::connect_unix(coord.socket_path);
  EXPECT_EQ(FlatJson::parse(client.ping().payload).get_string("role"),
            "coordinator");
}

}  // namespace
}  // namespace vscrub
