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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "svc/client.h"
#include "svc/config.h"
#include "svc/fabric.h"
#include "svc/partition.h"
#include "svc/protocol.h"
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
// VSRP1 fuzz over the fabric's new frame kinds
// ---------------------------------------------------------------------------

TEST(FabricFuzz, NewKindsRoundTripAndInvalidNeighborsAreRejected) {
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kStoreLookup)));
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kStorePublish)));
  EXPECT_TRUE(frame_kind_valid(static_cast<u8>(FrameKind::kCheckpoint)));
  // The unassigned neighbors stay rejected: a corrupted kind byte cannot
  // alias into the fabric verbs.
  for (const int kind : {0, 10, 11, 12, 13, 14, 15, 22, 23, 255}) {
    EXPECT_FALSE(frame_kind_valid(static_cast<u8>(kind))) << kind;
  }

  for (const FrameKind kind : {FrameKind::kStoreLookup,
                               FrameKind::kStorePublish,
                               FrameKind::kCheckpoint}) {
    const Frame in{kind, 0xFAB51Cull, R"({"keys": "1:2"})"};
    FrameDecoder decoder;
    decoder.feed(encode_frame(in));
    Frame out;
    ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_EQ(out.payload, in.payload);
  }

  // A store frame whose kind byte is nudged into a hole (re-signed so only
  // the kind is wrong) is consumed as kBadKind without poisoning the stream.
  std::vector<u8> wire =
      encode_frame({FrameKind::kStoreLookup, 77, R"({"keys": ""})"});
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
  {
    // Without a cache dir the store verbs fail typed, not null-deref.
    CampaignService svc(no_store);
    FrameLog log;
    svc.handle({FrameKind::kStoreLookup, 1, R"({"keys": "1:2"})"},
               log.emit(), 0);
    ASSERT_EQ(log.frames.size(), 1u);
    EXPECT_EQ(log.frames[0].kind, FrameKind::kError);
    EXPECT_EQ(FlatJson::parse(log.frames[0].payload).get_string("code"),
              "no_store");
  }

  ServiceConfig with_store = no_store;
  with_store.cache_dir = hub;
  {
    CampaignService svc(with_store);

    // Hostile payloads against the verb whose field they corrupt (a missing
    // field is a valid empty batch, so a keys attack must ride a lookup):
    // unparseable JSON, non-hex keys, truncated tuples, out-of-range flag
    // bits — every one a typed bad_request.
    const std::pair<FrameKind, const char*> hostile[] = {
        {FrameKind::kStoreLookup, "{{{ not json"},
        {FrameKind::kStorePublish, "{{{ not json"},
        {FrameKind::kStoreLookup, R"({"keys": "zz:qq"})"},
        {FrameKind::kStoreLookup, R"({"keys": "1"})"},
        {FrameKind::kStorePublish, R"({"entries": "1:2:3"})"},
        {FrameKind::kStorePublish, R"({"entries": "ff:ff:ff:ff:f"})"},
    };
    u64 id = 10;
    for (const auto& [kind, payload] : hostile) {
      FrameLog log;
      svc.handle({kind, id++, payload}, log.emit(), 0);
      ASSERT_EQ(log.frames.size(), 1u) << payload;
      EXPECT_EQ(log.frames[0].kind, FrameKind::kError) << payload;
      EXPECT_EQ(FlatJson::parse(log.frames[0].payload).get_string("code"),
                "bad_request")
          << payload;
    }

    // The well-formed path still works after the abuse: publish one verdict,
    // read it back through the wire codecs.
    const VerdictKey key{0x1234, 0x5678};
    StoredVerdict verdict;
    verdict.output_error = true;
    verdict.first_error_cycle = 7;
    FrameLog publish;
    svc.handle({FrameKind::kStorePublish, 90,
                JsonReport("store_publish")
                    .set_string("entries", encode_store_entries({{key, verdict}}))
                    .to_json()},
               publish.emit(), 0);
    ASSERT_EQ(publish.frames.size(), 1u);
    ASSERT_EQ(publish.frames[0].kind, FrameKind::kResult);
    EXPECT_EQ(FlatJson::parse(publish.frames[0].payload).get_u64("accepted"),
              1u);

    FrameLog lookup;
    svc.handle({FrameKind::kStoreLookup, 91,
                JsonReport("store_lookup")
                    .set_string("keys", encode_store_keys({key}))
                    .to_json()},
               lookup.emit(), 0);
    ASSERT_EQ(lookup.frames.size(), 1u);
    ASSERT_EQ(lookup.frames[0].kind, FrameKind::kResult);
    const FlatJson verdicts = FlatJson::parse(lookup.frames[0].payload);
    EXPECT_EQ(verdicts.get_u64("hits"), 1u);
    std::vector<std::optional<StoredVerdict>> decoded;
    decode_store_verdicts(verdicts.get_string("verdicts"), 1, &decoded);
    ASSERT_TRUE(decoded[0].has_value());
    EXPECT_EQ(*decoded[0], verdict);

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
