// The vscrubd serving layer: VSRP1 framing round-trips, FlatJson reads what
// JsonReport writes, the CampaignService enforces bounded admission with
// typed backpressure, and the loopback server hands N concurrent clients
// results bit-identical to a direct library run — with cross-client verdict
// reuse, because every request shares one process-wide store.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "core/vscrub.h"
#include "seu/cache_key.h"
#include "seu/design_baseline.h"
#include "sim/simd.h"
#include "store/verdict_store.h"
#include "svc/client.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/requests.h"
#include "svc/scheduler.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/session.h"

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

/// Thread-safe frame sink for driving CampaignService::handle directly.
struct FrameLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Frame> frames;

  CampaignService::Emit emit() {
    return [this](const Frame& f) {
      // notify under the lock: the waiter may destroy this FrameLog the
      // moment it observes the terminal frame, so the notify must complete
      // before the waiter can re-acquire the mutex.
      std::lock_guard lock(mutex);
      frames.push_back(f);
      cv.notify_all();
    };
  }

  Frame wait_terminal() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] {
      for (const Frame& f : frames) {
        if (terminal(f.kind)) return true;
      }
      return false;
    });
    for (const Frame& f : frames) {
      if (terminal(f.kind)) return f;
    }
    return {};  // unreachable
  }
};

// ---------------------------------------------------------------------------
// VSRP1 framing
// ---------------------------------------------------------------------------

TEST(Protocol, EncodeDecodeRoundTrip) {
  const Frame in{FrameKind::kCampaign, 0xDEADBEEFCAFEull,
                 R"({"kind": "campaign_request", "sample": 500})"};
  const std::vector<u8> wire = encode_frame(in);
  EXPECT_EQ(wire.size(),
            kFrameHeaderBytes + in.payload.size() + kFrameTrailerBytes);

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Protocol, EmptyPayloadAndByteAtATimeFeed) {
  const Frame in{FrameKind::kPing, 7, ""};
  const std::vector<u8> wire = encode_frame(in);

  FrameDecoder decoder;
  Frame out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    // Before the last byte there is never a complete frame.
    EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore) << i;
    decoder.feed({&wire[i], 1});
  }
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kPing);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Protocol, FreshDecoderNeedsMore) {
  // Nothing fed yet: the buffer is empty (its data pointer may be null),
  // and there is no magic prefix to check.
  FrameDecoder decoder;
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(Protocol, BackToBackFramesInOneFeed) {
  std::vector<u8> wire;
  for (u64 id = 1; id <= 3; ++id) {
    const std::vector<u8> one =
        encode_frame({FrameKind::kStats, id, "{\"n\": " + std::to_string(id) + "}"});
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  for (u64 id = 1; id <= 3; ++id) {
    ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame) << id;
    EXPECT_EQ(out.request_id, id);
  }
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore);
}

TEST(Protocol, FlatJsonReadsWhatJsonReportWrites) {
  const std::string text = JsonReport("roundtrip")
                               .set_string("name", "tab\there \"quoted\" \\ \n")
                               .set_u64("big", 18446744073709551615ull)
                               .set("ratio", 0.25)
                               .set_bool("yes", true)
                               .set_bool("no", false)
                               .to_json();
  const FlatJson parsed = FlatJson::parse(text);
  EXPECT_EQ(parsed.get_u64("schema_version"),
            static_cast<u64>(kReportSchemaVersion));
  EXPECT_EQ(parsed.get_string("kind"), "roundtrip");
  EXPECT_EQ(parsed.get_string("name"), "tab\there \"quoted\" \\ \n");
  EXPECT_EQ(parsed.get_u64("big"), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parsed.get_double("ratio"), 0.25);
  EXPECT_TRUE(parsed.get_bool("yes"));
  EXPECT_FALSE(parsed.get_bool("no"));
  EXPECT_FALSE(parsed.has("missing"));
  EXPECT_EQ(parsed.get_u64("missing", 42), 42u);
}

TEST(Protocol, FlatJsonRejectsMalformedInput) {
  EXPECT_THROW(FlatJson::parse("not json"), Error);
  EXPECT_THROW(FlatJson::parse("{\"unterminated\": \"str"), Error);
  EXPECT_THROW(FlatJson::parse("{\"nested\": {\"x\": 1}}"), Error);
  EXPECT_THROW(FlatJson::parse("{\"arr\": [1, 2]}"), Error);
  EXPECT_NO_THROW(FlatJson::parse("{}"));
  EXPECT_NO_THROW(FlatJson::parse("{\"null_ok\": null}"));
}

// ---------------------------------------------------------------------------
// ServiceConfig: the one validated flag surface
// ---------------------------------------------------------------------------

/// Every ServiceConfig field, rendered as text, so a test can see which
/// field one set() call changed.
std::vector<std::string> config_fields(const ServiceConfig& c) {
  std::string weights;
  for (const auto& [name, weight] : c.sched_weights) {
    weights += name + "=" + std::to_string(weight) + ",";
  }
  std::string workers;
  for (const std::string& w : c.workers) workers += w + ",";
  return {c.socket_path,
          std::to_string(c.tcp_port),
          std::to_string(c.send_timeout_ms),
          std::to_string(c.max_conn_backlog_bytes),
          std::to_string(c.queue_capacity),
          std::to_string(c.executors),
          std::to_string(c.pool_threads),
          c.cache_dir,
          std::to_string(c.retry_after_ms),
          std::to_string(c.latency_reservoir),
          std::to_string(c.checkpoint_every_chunks),
          weights,
          std::to_string(c.preempt_chunks),
          c.spool_dir,
          workers,
          std::to_string(c.lease_ms),
          c.stats_json};
}

TEST(ServiceConfigTest, FlagTableDrivesSetAndRejectsJunk) {
  ServiceConfig config;
  config.set("--queue", "8");
  config.set("--executors", "3");
  config.set("--sched-weight", "alice=3,bob=2");
  config.set("--sched-weight", "carol=5");  // repeats merge
  config.set("--preempt", "4");
  config.set("--spool-dir", "/tmp/spool");
  EXPECT_EQ(config.queue_capacity, 8u);
  EXPECT_EQ(config.executors, 3u);
  EXPECT_EQ(config.weight_for("alice"), 3u);
  EXPECT_EQ(config.weight_for("bob"), 2u);
  EXPECT_EQ(config.weight_for("carol"), 5u);
  EXPECT_EQ(config.weight_for("unlisted"), 1u);
  EXPECT_EQ(config.preempt_chunks, 4u);
  EXPECT_EQ(config.checkpoint_dir(), "/tmp/spool");
  EXPECT_NO_THROW(config.validate());

  EXPECT_THROW(config.set("--queue", "abc"), ServiceConfigError);
  EXPECT_THROW(config.set("--queue", "-3"), ServiceConfigError);
  EXPECT_THROW(config.set("--no-such-flag", "1"), ServiceConfigError);
  EXPECT_THROW(config.set("--sched-weight", "=3"), ServiceConfigError);
  EXPECT_THROW(config.set("--sched-weight", "alice=0"), ServiceConfigError);
  EXPECT_THROW(config.set("--sched-weight", "alice"), ServiceConfigError);
  EXPECT_THROW(parse_sched_weights("a=1,,b=2"), ServiceConfigError);

  // Every row of the serve flag table round-trips through set() into a
  // field of its own — the CLI cannot offer a flag the config rejects, and
  // no two flags drive one knob.
  const std::vector<std::string> defaults = config_fields(ServiceConfig{});
  std::set<std::size_t> claimed;
  for (const ServiceConfigFlag& flag : service_config_flags()) {
    ServiceConfig fresh;
    const std::string value =
        std::string(flag.name) == "--sched-weight" ? "t=1" : "1";
    ASSERT_NO_THROW(fresh.set(flag.name, flag.takes_value ? value : ""))
        << flag.name;
    const std::vector<std::string> fields = config_fields(fresh);
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i] != defaults[i]) changed.push_back(i);
    }
    ASSERT_EQ(changed.size(), 1u) << flag.name;
    EXPECT_TRUE(claimed.insert(changed[0]).second)
        << flag.name << " sets a field another row already sets";
  }

  // The fleet rows: --worker repeats and appends, --lease-ms is strict.
  ServiceConfig fleet;
  fleet.set("--worker", "/tmp/w1.sock");
  fleet.set("--worker", "/tmp/w2.sock");
  fleet.set("--lease-ms", "250");
  EXPECT_EQ(fleet.workers,
            (std::vector<std::string>{"/tmp/w1.sock", "/tmp/w2.sock"}));
  EXPECT_EQ(fleet.lease_ms, 250u);
  EXPECT_THROW(fleet.set("--lease-ms", "soon"), ServiceConfigError);

  // The `serve` command (vscrubd and vscrubctl serve) is the table, row for
  // row.
  const CliCommand* serve = cli_find("serve");
  ASSERT_NE(serve, nullptr);
  ASSERT_EQ(serve->flags.size(), service_config_flags().size());
  for (std::size_t i = 0; i < serve->flags.size(); ++i) {
    const ServiceConfigFlag& row = service_config_flags()[i];
    EXPECT_EQ(serve->flags[i].name, row.name);
    EXPECT_EQ(serve->flags[i].takes_value, row.takes_value) << row.name;
    EXPECT_EQ(serve->flags[i].value_name, row.value_name) << row.name;
    EXPECT_EQ(serve->flags[i].help, row.help) << row.name;
  }
}

TEST(ServiceConfigTest, ValidateNamesTheInconsistentCombo) {
  ServiceConfig config;
  config.preempt_chunks = 2;  // preemption checkpoints need a directory
  EXPECT_THROW(config.validate(), ServiceConfigError);
  config.spool_dir = "/tmp/spool";
  EXPECT_NO_THROW(config.validate());
  config.queue_capacity = 0;
  EXPECT_THROW(config.validate(), ServiceConfigError);
  config.queue_capacity = 16;
  config.executors = 0;
  EXPECT_THROW(config.validate(), ServiceConfigError);
  config.executors = 2;
  config.workers = {"/tmp/w1.sock"};  // sharded campaigns do not preempt
  EXPECT_THROW(config.validate(), ServiceConfigError);
  config.preempt_chunks = 0;
  EXPECT_NO_THROW(config.validate());
  config.lease_ms = 0;
  EXPECT_THROW(config.validate(), ServiceConfigError);
  config.lease_ms = 10000;
  config.socket_path.clear();
  EXPECT_THROW(config.validate(), ServiceConfigError);
}

// ---------------------------------------------------------------------------
// FairScheduler: stride scheduling over tenant lanes
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, WeightedShareUnderContention) {
  FairScheduler<int> sched;
  sched.set_weight("a", 2);
  sched.set_weight("b", 1);
  for (int i = 0; i < 6; ++i) sched.push("a", i);
  for (int i = 0; i < 3; ++i) sched.push("b", 100 + i);
  // Weight 2 vs weight 1: while both lanes have work, "a" is dispatched
  // twice as often.
  int a_in_first_six = 0;
  for (int i = 0; i < 6; ++i) {
    int v = -1;
    ASSERT_TRUE(sched.pop(&v));
    if (v < 100) ++a_in_first_six;
  }
  EXPECT_EQ(a_in_first_six, 4);
  EXPECT_EQ(sched.size(), 3u);
}

TEST(FairSchedulerTest, PushFrontResumesBeforeOwnBacklog) {
  FairScheduler<int> sched;
  sched.push("a", 1);
  sched.push("a", 2);
  int v = -1;
  ASSERT_TRUE(sched.pop(&v));
  EXPECT_EQ(v, 1);
  sched.push_front("a", 99);  // a preempted job parks at its lane's head
  ASSERT_TRUE(sched.pop(&v));
  EXPECT_EQ(v, 99);
  ASSERT_TRUE(sched.pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(sched.pop(&v));
}

TEST(FairSchedulerTest, ReturningTenantCannotClaimCreditForAbsence) {
  FairScheduler<int> sched;
  for (int i = 0; i < 5; ++i) sched.push("a", i);
  int v = -1;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(sched.pop(&v));
  // "a" consumed 5 quanta alone. A newcomer re-enters at the global virtual
  // time: next in line, but without 5 make-up dispatches.
  for (int i = 0; i < 3; ++i) sched.push("b", 100 + i);
  for (int i = 0; i < 3; ++i) sched.push("a", i);
  ASSERT_TRUE(sched.pop(&v));
  EXPECT_GE(v, 100);  // the newcomer goes first...
  int b_in_next_four = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.pop(&v));
    if (v >= 100) ++b_in_next_four;
  }
  EXPECT_EQ(b_in_next_four, 2);  // ...then strict alternation, no starvation
}

TEST(FairSchedulerTest, RetiredLanesGoWithoutChangingTheSchedule) {
  // Two schedulers fed the same arrivals; one retires an empty lane and a
  // non-empty one midway. Every job still dispatches, in the same order, and
  // each retired lane is gone once it is empty.
  FairScheduler<int> kept, retiring;
  for (FairScheduler<int>* s : {&kept, &retiring}) {
    int v = -1;
    s->push("idle", 0);
    ASSERT_TRUE(s->pop(&v));  // "idle" was served and is empty now
    s->set_weight("a", 2);
    for (int i = 0; i < 6; ++i) s->push("a", 10 + i);
    for (int i = 0; i < 4; ++i) s->push("b", 20 + i);
    for (int i = 0; i < 2; ++i) s->push("c", 30 + i);
  }
  EXPECT_EQ(retiring.lane_count(), 4u);
  retiring.retire("idle");  // empty: erased at once
  retiring.retire("nobody");  // unknown: a no-op
  EXPECT_EQ(retiring.lane_count(), 3u);

  std::vector<int> want, got;
  int v = -1;
  for (int i = 0; i < 3; ++i) {  // a, b, c: "c" keeps one queued job
    ASSERT_TRUE(kept.pop(&v));
    want.push_back(v);
    ASSERT_TRUE(retiring.pop(&v));
    got.push_back(v);
  }
  retiring.retire("c");  // non-empty: erased when its last job pops
  EXPECT_EQ(retiring.lane_count(), 3u);
  while (kept.pop(&v)) want.push_back(v);
  while (retiring.pop(&v)) got.push_back(v);
  EXPECT_EQ(want, got);
  EXPECT_EQ(got.size(), 12u);
  EXPECT_EQ(kept.lane_count(), 4u);
  EXPECT_EQ(retiring.lane_count(), 2u);  // "a" and "b" stay, empty
}

TEST(FairSchedulerTest, OtherTenantWaitingIsThePreemptionPredicate) {
  FairScheduler<int> sched;
  EXPECT_FALSE(sched.other_tenant_waiting("a"));
  sched.push("a", 1);
  EXPECT_FALSE(sched.other_tenant_waiting("a"));  // own backlog never preempts
  EXPECT_TRUE(sched.other_tenant_waiting("b"));
  sched.push("b", 2);
  EXPECT_TRUE(sched.other_tenant_waiting("a"));
  EXPECT_EQ(sched.tenants_waiting(), 2u);
}

// ---------------------------------------------------------------------------
// CampaignService (no sockets: handle() driven directly)
// ---------------------------------------------------------------------------

const char* small_campaign_payload() {
  return R"({"design": "lfsr", "device": "campaign", "sample": 300})";
}

TEST(CampaignService, PingStatsAndCancelAnswerInline) {
  CampaignService svc(ServiceConfig{});
  FrameLog ping;
  svc.handle({FrameKind::kPing, 5, ""}, ping.emit());
  // Inline kinds reply synchronously — no waiting needed.
  ASSERT_EQ(ping.frames.size(), 1u);
  EXPECT_EQ(ping.frames[0].kind, FrameKind::kResult);
  EXPECT_EQ(ping.frames[0].request_id, 5u);
  const FlatJson pong = FlatJson::parse(ping.frames[0].payload);
  EXPECT_EQ(pong.get_string("kind"), "pong");
  EXPECT_EQ(pong.get_string("role"), "worker");
  EXPECT_EQ(pong.get_u64("workers"), 0u);

  FrameLog stats;
  svc.handle({FrameKind::kStats, 6, ""}, stats.emit());
  ASSERT_EQ(stats.frames.size(), 1u);
  const FlatJson s = FlatJson::parse(stats.frames[0].payload);
  EXPECT_EQ(s.get_string("kind"), "service_stats");
  EXPECT_EQ(s.get_u64("pings"), 1u);
  EXPECT_FALSE(s.get_bool("store_enabled"));

  FrameLog cancel;
  svc.handle({FrameKind::kCancel, 7, R"({"target_id": 999})"}, cancel.emit());
  ASSERT_EQ(cancel.frames.size(), 1u);
  EXPECT_EQ(cancel.frames[0].kind, FrameKind::kResult);
  EXPECT_FALSE(FlatJson::parse(cancel.frames[0].payload).get_bool("cancelled"));
}

TEST(CampaignService, ReplyKindGetsTypedError) {
  CampaignService svc(ServiceConfig{});
  FrameLog log;
  svc.handle({FrameKind::kResult, 9, ""}, log.emit());
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0].kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(log.frames[0].payload).get_string("code"),
            "bad_request");
}

TEST(CampaignService, BadRequestJsonGetsTypedErrorNotCrash) {
  ServiceConfig config;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);
  FrameLog log;
  svc.handle({FrameKind::kCampaign, 11, "{{{ not json"}, log.emit());
  const Frame reply = log.wait_terminal();
  EXPECT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(reply.payload).get_string("code"), "bad_request");

  FrameLog unknown;
  svc.handle({FrameKind::kCampaign, 12, R"({"design": "nonsense"})"},
             unknown.emit());
  EXPECT_EQ(unknown.wait_terminal().kind, FrameKind::kError);
}

// Wedges the single executor inside request A's terminal emit, so the queue
// state is frozen while admission decisions are asserted. Deterministic: the
// executor cannot pop another job until `release()`.
class WedgedExecutor {
 public:
  explicit WedgedExecutor(CampaignService& svc) {
    svc.handle({FrameKind::kCampaign, 1, small_campaign_payload()},
               [this](const Frame& f) {
                 if (!terminal(f.kind)) return;
                 std::unique_lock lock(mutex_);
                 wedged_ = true;
                 cv_.notify_all();
                 cv_.wait(lock, [this] { return released_; });
               });
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return wedged_; });
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool wedged_ = false;
  bool released_ = false;
};

TEST(CampaignService, FullQueueGetsTypedBusyWithRetryHint) {
  ServiceConfig config;
  config.queue_capacity = 1;
  config.executors = 1;
  config.pool_threads = 2;
  config.retry_after_ms = 7;
  CampaignService svc(config);
  WedgedExecutor wedge(svc);

  // The executor is wedged on request 1; request 2 takes the only slot.
  FrameLog queued;
  svc.handle({FrameKind::kCampaign, 2, small_campaign_payload()},
             queued.emit());
  // Request 3 finds the queue full: typed kBusy, emitted inline.
  FrameLog rejected;
  svc.handle({FrameKind::kCampaign, 3, small_campaign_payload()},
             rejected.emit());
  {
    std::lock_guard lock(rejected.mutex);
    ASSERT_EQ(rejected.frames.size(), 1u);
    EXPECT_EQ(rejected.frames[0].kind, FrameKind::kBusy);
    const FlatJson busy = FlatJson::parse(rejected.frames[0].payload);
    EXPECT_EQ(busy.get_string("reason"), "queue_full");
    EXPECT_EQ(busy.get_u64("retry_after_ms"), 7u);
  }

  wedge.release();
  // The queued request was never lost: it completes once the executor frees.
  EXPECT_EQ(queued.wait_terminal().kind, FrameKind::kResult);

  FrameLog stats;
  svc.handle({FrameKind::kStats, 90, ""}, stats.emit());
  const FlatJson s = FlatJson::parse(stats.frames[0].payload);
  EXPECT_EQ(s.get_u64("admission_rejects"), 1u);
  EXPECT_EQ(s.get_u64("requests_total"), 2u);
}

TEST(CampaignService, DrainingRejectsNewWorkButFinishesQueued) {
  ServiceConfig config;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);

  FrameLog queued;
  svc.handle({FrameKind::kCampaign, 1, small_campaign_payload()},
             queued.emit());
  svc.begin_drain();

  FrameLog rejected;
  svc.handle({FrameKind::kCampaign, 2, small_campaign_payload()},
             rejected.emit());
  {
    std::lock_guard lock(rejected.mutex);
    ASSERT_EQ(rejected.frames.size(), 1u);
    EXPECT_EQ(rejected.frames[0].kind, FrameKind::kBusy);
    EXPECT_EQ(FlatJson::parse(rejected.frames[0].payload).get_string("reason"),
              "draining");
  }

  svc.wait_drained();
  // The in-flight request finished and delivered before the drain completed.
  std::lock_guard lock(queued.mutex);
  bool delivered = false;
  for (const Frame& f : queued.frames) delivered |= f.kind == FrameKind::kResult;
  EXPECT_TRUE(delivered);
}

TEST(CampaignService, CancelBeforeStartYieldsTypedError) {
  ServiceConfig config;
  config.queue_capacity = 4;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);
  WedgedExecutor wedge(svc);

  FrameLog queued;
  svc.handle({FrameKind::kCampaign, 2, small_campaign_payload()},
             queued.emit());
  FrameLog cancel;
  svc.handle({FrameKind::kCancel, 3, R"({"target_id": 2})"}, cancel.emit());
  EXPECT_TRUE(FlatJson::parse(cancel.frames[0].payload).get_bool("cancelled"));

  wedge.release();
  const Frame reply = queued.wait_terminal();
  EXPECT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(reply.payload).get_string("code"), "cancelled");
}

TEST(CampaignService, CancelIsScopedToTheIssuingClient) {
  ServiceConfig config;
  config.queue_capacity = 4;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);
  WedgedExecutor wedge(svc);

  // Two connections each submit request id 2 — ids are client-chosen and
  // only unique per connection.
  FrameLog a;
  svc.handle({FrameKind::kCampaign, 2, small_campaign_payload()}, a.emit(),
             /*client_id=*/1);
  FrameLog b;
  svc.handle({FrameKind::kCampaign, 2, small_campaign_payload()}, b.emit(),
             /*client_id=*/2);

  // A cancel from a connection that owns no such request touches nothing.
  EXPECT_FALSE(svc.cancel(2, /*client_id=*/42));

  // Client B cancels *its* request 2; client A's must be untouched.
  FrameLog cancel;
  svc.handle({FrameKind::kCancel, 3, R"({"target_id": 2})"}, cancel.emit(),
             /*client_id=*/2);
  EXPECT_TRUE(FlatJson::parse(cancel.frames[0].payload).get_bool("cancelled"));

  wedge.release();
  const Frame a_reply = a.wait_terminal();
  EXPECT_EQ(a_reply.kind, FrameKind::kResult) << a_reply.payload;
  const Frame b_reply = b.wait_terminal();
  EXPECT_EQ(b_reply.kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(b_reply.payload).get_string("code"), "cancelled");
}

TEST(CampaignService, CancelMidFlightDeliversInterruptedResult) {
  ServiceConfig config;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);

  // Many small chunks with per-chunk telemetry: the first kProgress frame
  // proves the campaign is mid-flight, and the cancel lands at the next
  // chunk boundary.
  FrameLog log;
  std::atomic<bool> cancelled_once{false};
  svc.handle({FrameKind::kCampaign, 21,
              R"({"design": "lfsr", "device": "campaign", "sample": 4000,)"
              R"( "chunk": 64, "progress": true, "progress_every_chunks": 1})"},
             [&](const Frame& f) {
               if (f.kind == FrameKind::kProgress &&
                   !cancelled_once.exchange(true)) {
                 EXPECT_TRUE(svc.cancel(21));
               }
               log.emit()(f);
             });
  const Frame reply = log.wait_terminal();
  ASSERT_EQ(reply.kind, FrameKind::kResult);
  const FlatJson report = FlatJson::parse(reply.payload);
  EXPECT_TRUE(report.get_bool("interrupted"));
  EXPECT_LT(report.get_u64("injections"), 4000u);
  EXPECT_TRUE(cancelled_once.load());
}

TEST(CampaignService, PreemptedCampaignResumesFromCheckpointBitIdentical) {
  const std::string spool = fresh_dir("svc_preempt_spool");
  ServiceConfig config;
  config.executors = 1;  // one executor: preemption is the ONLY way B runs
  config.pool_threads = 2;
  config.queue_capacity = 8;
  config.preempt_chunks = 1;
  config.spool_dir = spool;
  CampaignService svc(config);

  // Tenant "alice" starts a long campaign with per-chunk telemetry.
  FrameLog a;
  svc.handle({FrameKind::kCampaign, 1,
              R"({"design": "lfsr", "device": "campaign", "sample": 4000,)"
              R"( "chunk": 64, "tenant": "alice", "progress": true,)"
              R"( "progress_every_chunks": 1})"},
             a.emit(), /*client_id=*/1);
  {
    // Wait until alice is demonstrably mid-flight before bob arrives.
    std::unique_lock lock(a.mutex);
    a.cv.wait(lock, [&] {
      for (const Frame& f : a.frames) {
        if (f.kind == FrameKind::kProgress) return true;
      }
      return false;
    });
  }

  // Tenant "bob" submits a short campaign. The single executor is occupied
  // by alice — only preemption at a chunk boundary can dispatch bob.
  FrameLog b;
  svc.handle({FrameKind::kCampaign, 2,
              R"({"design": "lfsr", "device": "campaign", "sample": 300,)"
              R"( "tenant": "bob"})"},
             b.emit(), /*client_id=*/2);
  EXPECT_EQ(b.wait_terminal().kind, FrameKind::kResult);

  // Alice's campaign parked at a checkpoint, resumed, and finished as if
  // never interrupted.
  const Frame a_reply = a.wait_terminal();
  ASSERT_EQ(a_reply.kind, FrameKind::kResult) << a_reply.payload;
  const FlatJson report = FlatJson::parse(a_reply.payload);
  EXPECT_FALSE(report.get_bool("interrupted"));
  EXPECT_GT(report.get_u64("resumed_injections"), 0u);  // proof of resume
  EXPECT_EQ(report.get_u64("injections"), 4000u);

  FrameLog stats;
  svc.handle({FrameKind::kStats, 50, ""}, stats.emit());
  const FlatJson s = FlatJson::parse(stats.frames[0].payload);
  EXPECT_GE(s.get_u64("preemptions"), 1u);

  // The preempt-resume seam is invisible in the result: bit-identical to the
  // same campaign run directly through the library in one sitting.
  const PlacedDesign design =
      compile(design_by_name("lfsr"), device_by_name("campaign"));
  const CampaignResult direct = run_campaign(
      design,
      CampaignOptions{}
          .with_injection(InjectionOptions{}
                              .with_persistence(false)
                              .with_pruning(true)
                              .with_gang_width(served_gang_width_default()))
          .with_chunk_size(64)
          .with_sample(4000, 99));
  EXPECT_EQ(report.get_u64("sensitive_digest"), direct.sensitive_digest(design));
  EXPECT_EQ(report.get_u64("failures"), direct.failures);
  std::filesystem::remove_all(spool);
}

TEST(CampaignService, ServedGangWidthDefaultIsTheWidestCompiledTier) {
  // Served campaigns run the host engine (verdicts and digests are
  // engine-invariant, so this is purely a throughput choice).
  EXPECT_EQ(served_gang_width_default(), preferred_gang_width());
  EXPECT_NO_THROW(validate_gang_width(served_gang_width_default()));
}

TEST(CampaignService, ClosedConnectionsLeaveNoSchedulerLane) {
  // Requests without a tenant queue in a per-connection lane. Closing the
  // connection (the transport calls cancel_client) retires that lane, so a
  // long-lived daemon keeps none for connections it has stopped serving.
  ServiceConfig config;
  config.executors = 2;
  config.pool_threads = 2;
  config.queue_capacity = 256;
  CampaignService svc(config);
  // A named tenant's lane is shared across connections and stays.
  FrameLog named;
  svc.handle({FrameKind::kCampaign, 1,
              R"({"design": "lfsr", "device": "campaign", "sample": 300, )"
              R"("tenant": "keep"})"},
             named.emit(), /*client_id=*/1000);
  EXPECT_EQ(named.wait_terminal().kind, FrameKind::kResult);
  constexpr u64 kClients = 200;
  std::vector<std::unique_ptr<FrameLog>> logs;
  for (u64 c = 1; c <= kClients; ++c) {
    logs.push_back(std::make_unique<FrameLog>());
    svc.handle({FrameKind::kCampaign, c, small_campaign_payload()},
               logs.back()->emit(), /*client_id=*/c);
    svc.cancel_client(c);
  }
  for (const auto& log : logs) {
    EXPECT_NE(log->wait_terminal().kind, FrameKind::kBusy);
  }
  svc.wait_drained();
  FrameLog stats;
  svc.handle({FrameKind::kStats, kClients + 1, ""}, stats.emit());
  EXPECT_EQ(FlatJson::parse(stats.frames[0].payload).get_u64("sched_lanes"),
            1u);  // "keep" alone
}

TEST(CampaignService, RecampaignWithoutStoreIsTypedFailure) {
  ServiceConfig config;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);
  FrameLog log;
  svc.handle({FrameKind::kRecampaign, 31, small_campaign_payload()},
             log.emit());
  const Frame reply = log.wait_terminal();
  EXPECT_EQ(reply.kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(reply.payload).get_string("code"), "failed");
}

// ---------------------------------------------------------------------------
// Loopback integration: SocketServer + ServiceClient
// ---------------------------------------------------------------------------

struct LoopbackServer {
  explicit LoopbackServer(ServiceConfig config) : server(std::move(config)) {
    server.start();
    runner = std::thread([this] { server.run(); });
  }
  ~LoopbackServer() {
    if (runner.joinable()) {
      server.request_stop();
      runner.join();
    }
  }
  void stop_and_join() {
    server.request_stop();
    runner.join();
  }
  SocketServer server;
  std::thread runner;
};

ServiceConfig loopback_config(const char* socket_name) {
  ServiceConfig config;
  config.socket_path = ::testing::TempDir() + socket_name;
  std::filesystem::remove(config.socket_path);
  config.queue_capacity = 32;
  config.executors = 3;
  config.pool_threads = 3;
  return config;
}

TEST(ServiceLoopback, ConcurrentClientsMatchDirectRunAndShareVerdicts) {
  const std::string dir = fresh_dir("svc_loopback_store");
  ServiceConfig options = loopback_config("svc_loop.sock");
  options.cache_dir = dir;
  LoopbackServer loop(options);

  const std::string payload = JsonReport("campaign_request")
                                  .set_string("design", "lfsrmult")
                                  .set_string("device", "campaign")
                                  .set_u64("sample", 1200)
                                  .to_json();
  constexpr std::size_t kClients = 8;
  std::vector<u64> digests(kClients, 0);
  std::vector<u64> hits(kClients, 0);
  std::vector<u64> injections(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client =
          ServiceClient::connect_unix(options.socket_path);
      const Frame reply = client.call(FrameKind::kCampaign, payload);
      EXPECT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
      if (reply.kind != FrameKind::kResult) return;
      const FlatJson report = FlatJson::parse(reply.payload);
      digests[c] = report.get_u64("sensitive_digest");
      hits[c] = report.get_u64("cache_hits");
      injections[c] = report.get_u64("injections");
    });
  }
  for (std::thread& t : clients) t.join();

  // The ground truth: the same campaign run directly through the library
  // with the server's defaults (host gang engine, pruning on, sample seed 99).
  const PlacedDesign design =
      compile(design_by_name("lfsrmult"), device_by_name("campaign"));
  const CampaignResult direct = run_campaign(
      design, CampaignOptions{}
                  .with_injection(InjectionOptions{}
                                      .with_persistence(false)
                                      .with_pruning(true))
                  .with_sample(1200, 99));
  const u64 expected = direct.sensitive_digest(design);

  u64 total_hits = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(digests[c], expected) << "client " << c;
    EXPECT_EQ(injections[c], direct.injections) << "client " << c;
    total_hits += hits[c];
  }
  // Concurrent clients share one store: someone must have reused a verdict
  // another client computed.
  EXPECT_GT(total_hits, 0u);

  // The shared store also serves delta re-campaigns across the same socket.
  ServiceClient client = ServiceClient::connect_unix(options.socket_path);
  const Frame re = client.call(FrameKind::kRecampaign, payload);
  ASSERT_EQ(re.kind, FrameKind::kResult) << re.payload;
  const FlatJson rr = FlatJson::parse(re.payload);
  EXPECT_TRUE(rr.get_bool("sensitive_match"));
  EXPECT_EQ(rr.get_u64("current_sensitive_digest"), expected);

  // Every served campaign flushed the shared store; the fresh verdicts went
  // out as appended segments, and a clean store needed no rewrite.
  const FlatJson stats =
      FlatJson::parse(client.call(FrameKind::kStats, "").payload);
  EXPECT_GE(stats.get_u64("store_flushes"), kClients + 1);
  EXPECT_EQ(stats.get_u64("store_flush_us_count"),
            stats.get_u64("store_flushes"));
  EXPECT_GT(stats.get_u64("store_appended_segments"), 0u);
  EXPECT_GE(stats.get_u64("store_appended_bytes"),
            stats.get_u64("store_entries") * kVerdictEntryBytes);
  EXPECT_EQ(stats.get_u64("store_rewrites"), 0u);

  loop.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(ServiceLoopback, FailedCheckpointWriteFailsTheRequestNotTheDaemon) {
  const std::string spool = fresh_dir("svc_ckpt_fail");
  ServiceConfig options = loopback_config("svc_ckpt_fail.sock");
  options.spool_dir = spool;
  options.checkpoint_every_chunks = 1;
  LoopbackServer loop(options);
  // The service made the spool directory; take it away so the campaign's
  // first checkpoint write, on a pool worker, throws.
  std::filesystem::remove_all(spool);

  ServiceClient client = ServiceClient::connect_unix(options.socket_path);
  const Frame reply = client.call(
      FrameKind::kCampaign,
      R"({"design": "lfsr", "device": "campaign", "sample": 2000,)"
      R"( "chunk": 64})");
  ASSERT_EQ(reply.kind, FrameKind::kError) << reply.payload;
  EXPECT_EQ(FlatJson::parse(reply.payload).get_string("code"), "failed");

  // The same daemon still answers.
  const Frame pong = client.ping();
  ASSERT_EQ(pong.kind, FrameKind::kResult);
  EXPECT_EQ(FlatJson::parse(pong.payload).get_string("role"), "worker");
  EXPECT_EQ(FlatJson::parse(client.stats().payload).get_u64("failed_requests"),
            1u);
}

TEST(ServiceLoopback, AcceptedAndProgressStreamBeforeResult) {
  ServiceConfig options = loopback_config("svc_progress.sock");
  LoopbackServer loop(options);

  ServiceClient client = ServiceClient::connect_unix(options.socket_path);
  const std::string payload =
      R"({"design": "lfsr", "device": "campaign", "sample": 2000,)"
      R"( "chunk": 64, "progress": true, "progress_every_chunks": 1})";
  const u64 id = client.send_request(FrameKind::kCampaign, payload);
  u64 progress_frames = 0;
  u64 last_done = 0;
  const Frame reply = client.wait(id, [&](const Frame& f) {
    if (f.kind != FrameKind::kProgress) return;
    ++progress_frames;
    const FlatJson p = FlatJson::parse(f.payload);
    const u64 done = p.get_u64("injections_done");
    EXPECT_GE(done, last_done);
    last_done = done;
  });
  ASSERT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
  EXPECT_GT(progress_frames, 0u);
  const FlatJson report = FlatJson::parse(reply.payload);
  EXPECT_FALSE(report.get_bool("interrupted"));
  EXPECT_GT(report.get_u64("injections"), 0u);
}

TEST(ServiceLoopback, DrainDeliversInFlightResultThenExits) {
  ServiceConfig options = loopback_config("svc_drain.sock");
  LoopbackServer loop(options);

  ServiceClient client = ServiceClient::connect_unix(options.socket_path);
  const u64 id = client.send_request(
      FrameKind::kCampaign,
      R"({"design": "lfsrmult", "device": "campaign", "sample": 1500})");
  // Stop the server the moment the request is admitted: the drain must still
  // finish the in-flight campaign and deliver its result.
  std::atomic<bool> stopped{false};
  const Frame reply = client.wait(id, [&](const Frame& f) {
    if (f.kind == FrameKind::kAccepted && !stopped.exchange(true)) {
      loop.server.request_stop();
    }
  });
  // A fast executor may beat the kAccepted handoff; stop now in that case.
  if (!stopped.exchange(true)) loop.server.request_stop();
  EXPECT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
  loop.runner.join();
  // A clean drain removes the socket.
  EXPECT_FALSE(std::filesystem::exists(options.socket_path));
}

// ---------------------------------------------------------------------------
// Session API (v4): ServiceSession + JobHandle over the event loop
// ---------------------------------------------------------------------------

TEST(ServiceSessionApi, ConcurrentJobsWaitOutOfOrderOnOneConnection) {
  ServiceConfig options = loopback_config("svc_session.sock");
  LoopbackServer loop(options);

  ServiceSession session = ServiceSession::connect_unix(options.socket_path);
  JobHandle big = session.submit(
      FrameKind::kCampaign,
      R"({"design": "lfsrmult", "device": "campaign", "sample": 1500})");
  JobHandle small = session.submit(
      FrameKind::kCampaign,
      R"({"design": "lfsr", "device": "campaign", "sample": 300})");
  ASSERT_TRUE(big.valid());
  ASSERT_TRUE(small.valid());
  EXPECT_NE(big.id(), small.id());

  // Waits land in any order; the reader demultiplexes by request id.
  const Frame small_reply = small.wait();
  EXPECT_EQ(small_reply.kind, FrameKind::kResult) << small_reply.payload;
  const Frame big_reply = big.wait();
  EXPECT_EQ(big_reply.kind, FrameKind::kResult) << big_reply.payload;
  EXPECT_TRUE(big.poll());  // terminal already delivered: poll is immediate
  EXPECT_TRUE(session.connected());
  EXPECT_EQ(session.ping().kind, FrameKind::kResult);
}

TEST(ServiceSessionApi, SubmitCallbackStreamsProgressFromReaderThread) {
  ServiceConfig options = loopback_config("svc_session_events.sock");
  LoopbackServer loop(options);

  ServiceSession session = ServiceSession::connect_unix(options.socket_path);
  std::atomic<u64> progress{0};
  std::atomic<bool> accepted{false};
  JobHandle job = session.submit(
      FrameKind::kCampaign,
      R"({"design": "lfsr", "device": "campaign", "sample": 2000,)"
      R"( "chunk": 64, "progress": true, "progress_every_chunks": 1})",
      [&](const Frame& f) {
        if (f.kind == FrameKind::kAccepted) accepted = true;
        if (f.kind == FrameKind::kProgress) ++progress;
      });
  const Frame reply = job.wait();
  ASSERT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
  EXPECT_TRUE(accepted.load());
  EXPECT_GT(progress.load(), 0u);
}

TEST(ServiceSessionApi, JobHandleOutlivesItsSession) {
  ServiceConfig options = loopback_config("svc_session_lifetime.sock");
  LoopbackServer loop(options);

  JobHandle job;
  {
    ServiceSession session =
        ServiceSession::connect_unix(options.socket_path);
    job = session.submit(
        FrameKind::kCampaign,
        R"({"design": "lfsr", "device": "campaign", "sample": 600})");
  }  // session destroyed — the handle keeps the connection + reader alive
  const Frame reply = job.wait();
  EXPECT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
}

TEST(ServiceSessionApi, CancelThroughTheHandleDeliversInterruptedResult) {
  ServiceConfig options = loopback_config("svc_session_cancel.sock");
  LoopbackServer loop(options);

  ServiceSession session = ServiceSession::connect_unix(options.socket_path);
  std::atomic<bool> mid_flight{false};
  JobHandle job = session.submit(
      FrameKind::kCampaign,
      R"({"design": "lfsr", "device": "campaign", "sample": 8000,)"
      R"( "chunk": 64, "progress": true, "progress_every_chunks": 1})",
      [&](const Frame& f) {
        if (f.kind == FrameKind::kProgress) mid_flight = true;
      });
  while (!mid_flight.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(job.cancel());  // cancel() must run OFF the reader thread
  const Frame reply = job.wait();
  ASSERT_EQ(reply.kind, FrameKind::kResult) << reply.payload;
  const FlatJson report = FlatJson::parse(reply.payload);
  EXPECT_TRUE(report.get_bool("interrupted"));
  EXPECT_LT(report.get_u64("injections"), 8000u);
  // The session survives a cancel: submit again on the same connection.
  EXPECT_EQ(session.ping().kind, FrameKind::kResult);
}

TEST(ServiceSessionApi, WaitForTimesOutWithoutConsumingTheJob) {
  ServiceConfig options = loopback_config("svc_session_timeout.sock");
  LoopbackServer loop(options);

  ServiceSession session = ServiceSession::connect_unix(options.socket_path);
  JobHandle job = session.submit(
      FrameKind::kCampaign,
      R"({"design": "lfsrmult", "device": "campaign", "sample": 2000})");
  // An impatient poll may time out; the job stays live and a later wait
  // still returns the terminal frame.
  (void)job.wait_for(std::chrono::milliseconds(1));
  const auto reply = job.wait_for(std::chrono::milliseconds(60000));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, FrameKind::kResult) << reply->payload;
}

// ---------------------------------------------------------------------------
// The key-plan memo: one cache-key plan per design baseline and persistence
// ---------------------------------------------------------------------------

void expect_same_plan(const CacheKeyPlan& want, const CacheKeyPlan& got) {
  EXPECT_EQ(want.arch_fingerprint, got.arch_fingerprint);
  EXPECT_EQ(want.stimulus_hash, got.stimulus_hash);
  EXPECT_EQ(want.frame_hashes, got.frame_hashes);
  EXPECT_EQ(want.tile_influence, got.tile_influence);
  EXPECT_EQ(want.whole_design_influence, got.whole_design_influence);
  EXPECT_EQ(want.whole_design_hash, got.whole_design_hash);
}

TEST(KeyPlanMemo, MemoizedPlanEqualsAFreshBuildAndIsSharedPerPersistence) {
  const auto design = request_design("mult", "campaign");
  const auto baseline = DesignBaseline::of(*design);
  const CacheKeyPlan& plain =
      baseline->key_plan(InjectionOptions{}.with_persistence(false));

  // The same design compiled again is found by content: the same baseline
  // and the same plan object, not a rebuild.
  const PlacedDesign recompiled =
      compile(design_by_name("mult"), device_by_name("campaign"));
  const auto again = DesignBaseline::of(recompiled);
  EXPECT_EQ(again.get(), baseline.get());
  EXPECT_EQ(&again->key_plan(InjectionOptions{}), &plain);
  expect_same_plan(build_cache_key_plan(recompiled, {}), plain);

  // Persistence changes the arch fingerprint: its own plan, built once.
  const CacheKeyPlan& persistent =
      baseline->key_plan(InjectionOptions{}.with_persistence(true));
  EXPECT_NE(&persistent, &plain);
  EXPECT_NE(persistent.arch_fingerprint, plain.arch_fingerprint);
  EXPECT_EQ(&again->key_plan(InjectionOptions{}.with_persistence(true)),
            &persistent);
  expect_same_plan(build_cache_key_plan(
                       recompiled, InjectionOptions{}.with_persistence(true)),
                   persistent);

  // The served memo still compiles a (design, device) once.
  EXPECT_EQ(request_design("mult", "campaign"), design);
}

TEST(KeyPlanMemo, CampaignOnARecompiledDesignMatchesTheMemoizedOne) {
  const auto memoized = request_design("lfsrmult", "campaign");
  const PlacedDesign recompiled =
      compile(design_by_name("lfsrmult"), device_by_name("campaign"));
  const auto run = [&](const PlacedDesign& design, const char* name) {
    const std::string dir = fresh_dir(name);
    const CampaignResult r = run_campaign(
        design, CampaignOptions{}.with_sample(1500, 5).with_cache(dir));
    std::filesystem::remove_all(dir);
    return r;
  };
  const CampaignResult memo = run(*memoized, "plan_memo");
  const CampaignResult own = run(recompiled, "plan_own");
  EXPECT_EQ(memo.sensitive_digest(*memoized),
            own.sensitive_digest(recompiled));
  EXPECT_EQ(memo.failures, own.failures);
  EXPECT_EQ(memo.cache_stores, own.cache_stores);
}

// ---------------------------------------------------------------------------
// Device names from clients
// ---------------------------------------------------------------------------

TEST(DeviceNames, TinyDimensionsParseStrictly) {
  const DeviceGeometry ok = device_by_name("tiny:8x16");
  EXPECT_EQ(ok.rows, 8);
  EXPECT_EQ(ok.cols, 16);
  const DeviceGeometry largest = device_by_name("tiny:64x96");
  EXPECT_EQ(largest.rows, 64);
  EXPECT_EQ(largest.cols, 96);
  // Wrapping (65540 is 4 mod 65536), trailing junk, a sign, a missing
  // field, a field past the XCV1000's 64x96, and the geometry rules.
  for (const char* bad :
       {"tiny:65540x16", "tiny:8x16junk", "tiny:-4x8", "tiny:x8", "tiny:8x",
        "tiny:8", "tiny:+8x16", "tiny: 8x16", "tiny:68x16", "tiny:8x100",
        "tiny:6x10", "tiny:0x8", "tiny:8x2"}) {
    EXPECT_THROW(device_by_name(bad), Error) << bad;
  }

  ServiceConfig config;
  config.executors = 1;
  config.pool_threads = 2;
  CampaignService svc(config);
  u64 id = 40;
  for (const char* bad : {"tiny:65540x16", "tiny:8x16junk", "tiny:-4x8",
                          "tiny:x8"}) {
    FrameLog log;
    svc.handle({FrameKind::kCampaign, ++id,
                std::string(R"({"design": "lfsr", "device": ")") + bad +
                    R"(", "sample": 100})"},
               log.emit());
    const Frame reply = log.wait_terminal();
    EXPECT_EQ(reply.kind, FrameKind::kError) << bad;
    EXPECT_NE(FlatJson::parse(reply.payload).get_string("error").find(bad),
              std::string::npos)
        << reply.payload;
  }
}

}  // namespace
}  // namespace vscrub
