// Adversarial input on the VSRP1 framing layer and the live socket server:
// truncated frames, bit flips, hostile length prefixes, unknown kinds and
// plain garbage must all decode to *typed* errors — the decoder never yields
// a corrupted frame as valid, and the server answers, closes, and keeps
// serving other clients. Mirrors the artifact fuzz suite (test_fuzz.cpp),
// which gives the on-disk formats the same discipline.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/session.h"

namespace vscrub {
namespace {

std::vector<u8> sample_wire() {
  return encode_frame({FrameKind::kCampaign, 0x1122334455667788ull,
                       R"({"design": "lfsr", "sample": 100})"});
}

/// Re-signs a hand-mutated frame so only the intended field is corrupt.
void resign(std::vector<u8>* wire) {
  const u32 crc = crc32(
      std::span<const u8>(wire->data(), wire->size() - kFrameTrailerBytes));
  for (int i = 0; i < 4; ++i) {
    (*wire)[wire->size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * i));
  }
}

TEST(ProtocolFuzz, TruncatedFramesNeverYieldAFrame) {
  const std::vector<u8> wire = sample_wire();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::span<const u8>(wire.data(), cut));
    Frame out;
    EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore)
        << "cut at " << cut;
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(ProtocolFuzz, EverySingleBitFlipIsDetected) {
  const std::vector<u8> wire = sample_wire();
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> mutated = wire;
      mutated[byte] = static_cast<u8>(mutated[byte] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.feed(mutated);
      Frame out;
      const FrameDecoder::Status status = decoder.next(&out);
      // A flip may land in the length field and leave the decoder waiting
      // for bytes that never come (kNeedMore) — but it must never produce a
      // validated frame: the CRC catches every single-bit error.
      EXPECT_NE(status, FrameDecoder::Status::kFrame)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ProtocolFuzz, OversizedLengthRejectedBeforeBuffering) {
  std::vector<u8> wire = sample_wire();
  const u64 huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire[14 + static_cast<std::size_t>(i)] = static_cast<u8>(huge >> (8 * i));
  }
  FrameDecoder decoder;
  // Feed only the header: the hostile length must be rejected right there,
  // not after the decoder tries to buffer kMaxFramePayload+1 bytes.
  decoder.feed(std::span<const u8>(wire.data(), kFrameHeaderBytes));
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kOversized);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_LE(decoder.buffered(), kFrameHeaderBytes);
  // Poisoned is sticky: the stream has lost sync for good.
  decoder.feed(sample_wire());
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kOversized);
}

TEST(ProtocolFuzz, GarbageStreamPoisonsWithBadMagic) {
  Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> garbage(16 + rng.uniform(256));
    for (u8& b : garbage) b = static_cast<u8>(rng.uniform(256));
    if (garbage[0] == 'V') garbage[0] = 'X';  // guarantee a magic mismatch
    FrameDecoder decoder;
    decoder.feed(garbage);
    Frame out;
    EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kBadMagic) << trial;
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(ProtocolFuzz, MagicMismatchDetectedOnPartialPrefix) {
  // "VSRX" diverges from the magic at byte 3: the decoder must not wait for
  // a full header to call it — a hostile peer could drip-feed forever.
  const u8 early[] = {'V', 'S', 'R', 'X'};
  FrameDecoder decoder;
  decoder.feed(early);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kBadMagic);
}

TEST(ProtocolFuzz, UnknownKindIsConsumedNotPoisoning) {
  std::vector<u8> wire = sample_wire();
  wire[5] = 11;  // not a FrameKind (9 became kStorePublish)
  resign(&wire);
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kBadKind);
  EXPECT_EQ(out.request_id, 0x1122334455667788ull);
  EXPECT_FALSE(decoder.poisoned());
  // Framing stayed in sync: the next valid frame decodes normally.
  decoder.feed(encode_frame({FrameKind::kPing, 3, ""}));
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kPing);
  EXPECT_EQ(out.request_id, 3u);
}

TEST(ProtocolFuzz, CorruptedPayloadFailsCrcNotJson) {
  std::vector<u8> wire = sample_wire();
  wire[kFrameHeaderBytes + 4] ^= 0x20;  // flip inside the JSON payload
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kBadCrc);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolFuzz, RandomChunkingNeverChangesDecodeResults) {
  // Valid frames interleaved through arbitrary chunk boundaries must decode
  // identically to a single feed.
  std::vector<u8> wire;
  for (u64 id = 1; id <= 20; ++id) {
    const std::vector<u8> one = encode_frame(
        {FrameKind::kStats, id, std::string(static_cast<std::size_t>(id * 7), 'x')});
    wire.insert(wire.end(), one.begin(), one.end());
  }
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    FrameDecoder decoder;
    std::size_t fed = 0;
    u64 expect_id = 1;
    while (fed < wire.size()) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<u64>(wire.size() - fed, 1 + rng.uniform(64)));
      decoder.feed(std::span<const u8>(wire.data() + fed, n));
      fed += n;
      Frame out;
      while (decoder.next(&out) == FrameDecoder::Status::kFrame) {
        EXPECT_EQ(out.request_id, expect_id);
        EXPECT_EQ(out.payload.size(), expect_id * 7);
        ++expect_id;
      }
    }
    EXPECT_EQ(expect_id, 21u) << "trial " << trial;
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Live server under hostile bytes
// ---------------------------------------------------------------------------

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

/// Reads until EOF and decodes everything the server sent back.
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

class ServerFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.socket_path = ::testing::TempDir() + "svc_fuzz.sock";
    std::filesystem::remove(options_.socket_path);
    options_.executors = 1;
    options_.pool_threads = 2;
    server_ = std::make_unique<SocketServer>(options_);
    server_->start();
    runner_ = std::thread([this] { server_->run(); });
  }
  void TearDown() override {
    // Whatever the hostile client did, a fresh client must still get a pong.
    ServiceSession client = ServiceSession::connect_unix(options_.socket_path);
    const Frame pong = client.ping();
    EXPECT_EQ(pong.kind, FrameKind::kResult);
    EXPECT_EQ(FlatJson::parse(pong.payload).get_string("kind"), "pong");
    server_->request_stop();
    runner_.join();
  }

  ServiceConfig options_;
  std::unique_ptr<SocketServer> server_;
  std::thread runner_;
};

TEST_F(ServerFuzz, GarbageBytesGetTypedErrorThenClose) {
  const int fd = raw_connect(options_.socket_path);
  const char garbage[] = "GET / HTTP/1.1\r\nHost: not-vsrp\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, 0), 0);
  const std::vector<Frame> replies = drain_replies(fd);  // returns on close
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, FrameKind::kError);
  EXPECT_EQ(FlatJson::parse(replies[0].payload).get_string("code"),
            "bad_magic");
  ::close(fd);
}

TEST_F(ServerFuzz, BadCrcGetsTypedErrorThenClose) {
  std::vector<u8> wire = encode_frame({FrameKind::kPing, 1, ""});
  wire[6] ^= 0xFF;  // corrupt the request id under the CRC
  const int fd = raw_connect(options_.socket_path);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  const std::vector<Frame> replies = drain_replies(fd);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(FlatJson::parse(replies[0].payload).get_string("code"), "bad_crc");
  ::close(fd);
}

TEST_F(ServerFuzz, OversizedLengthPrefixRejectedImmediately) {
  std::vector<u8> wire = encode_frame({FrameKind::kPing, 1, ""});
  const u64 huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    wire[14 + static_cast<std::size_t>(i)] = static_cast<u8>(huge >> (8 * i));
  }
  const int fd = raw_connect(options_.socket_path);
  ASSERT_GT(::send(fd, wire.data(), kFrameHeaderBytes, 0), 0);
  const std::vector<Frame> replies = drain_replies(fd);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(FlatJson::parse(replies[0].payload).get_string("code"),
            "oversized");
  ::close(fd);
}

TEST_F(ServerFuzz, UnknownKindKeepsConnectionServing) {
  std::vector<u8> wire = encode_frame({FrameKind::kPing, 42, ""});
  wire[5] = 13;  // not a FrameKind
  const u32 crc =
      crc32(std::span<const u8>(wire.data(), wire.size() - kFrameTrailerBytes));
  for (int i = 0; i < 4; ++i) {
    wire[wire.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<u8>(crc >> (8 * i));
  }
  const std::vector<u8> ping = encode_frame({FrameKind::kPing, 43, ""});
  const int fd = raw_connect(options_.socket_path);
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  ASSERT_GT(::send(fd, ping.data(), ping.size(), 0), 0);

  // Same connection: a typed unknown_kind error for 42, then a pong for 43.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  u8 buf[4096];
  while (frames.size() < 2) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    decoder.feed(std::span<const u8>(buf, static_cast<std::size_t>(n)));
    Frame out;
    while (decoder.next(&out) == FrameDecoder::Status::kFrame) {
      frames.push_back(out);
    }
  }
  EXPECT_EQ(frames[0].kind, FrameKind::kError);
  EXPECT_EQ(frames[0].request_id, 42u);
  EXPECT_EQ(FlatJson::parse(frames[0].payload).get_string("code"),
            "unknown_kind");
  EXPECT_EQ(frames[1].kind, FrameKind::kResult);
  EXPECT_EQ(frames[1].request_id, 43u);
  ::close(fd);
}

TEST_F(ServerFuzz, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  const std::vector<u8> wire =
      encode_frame({FrameKind::kCampaign, 9, R"({"sample": 100})"});
  const int fd = raw_connect(options_.socket_path);
  ASSERT_GT(::send(fd, wire.data(), wire.size() / 2, 0), 0);
  ::close(fd);  // hang up mid-frame; TearDown proves the server still serves
}

TEST_F(ServerFuzz, RandomGarbageFloodNeverKillsTheServer) {
  Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<u8> garbage(64 + rng.uniform(512));
    for (u8& b : garbage) b = static_cast<u8>(rng.uniform(256));
    const int fd = raw_connect(options_.socket_path);
    ASSERT_GT(::send(fd, garbage.data(), garbage.size(), 0), 0);
    drain_replies(fd);  // server answers (or just closes); never crashes
    ::close(fd);
  }
}

// ---------------------------------------------------------------------------
// Hostile clients against the event loop: slow-loris writers, deadbeat
// readers and mid-stream disconnects must cost the server one connection
// each — never an executor, never another client's latency.
// ---------------------------------------------------------------------------

void sendall(int fd, const u8* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const auto n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

struct HostileServer {
  explicit HostileServer(ServiceConfig config_in, bool check_health_in = true)
      : config(std::move(config_in)), check_health(check_health_in),
        server(config) {
    server.start();
    runner = std::thread([this] { server.run(); });
  }
  ~HostileServer() {
    // After every hostile episode, a fresh client still gets a pong. (Skipped
    // when the config itself dooms every reply, e.g. a 1-byte backlog bound.)
    if (check_health) {
      ServiceSession client = ServiceSession::connect_unix(config.socket_path);
      EXPECT_EQ(client.ping().kind, FrameKind::kResult);
    }
    server.request_stop();
    runner.join();
  }
  ServiceConfig config;
  bool check_health;
  SocketServer server;
  std::thread runner;
};

ServiceConfig hostile_config(const char* socket_name) {
  ServiceConfig config;
  config.socket_path = ::testing::TempDir() + socket_name;
  std::filesystem::remove(config.socket_path);
  config.executors = 1;
  config.pool_threads = 2;
  return config;
}

TEST(ServerHostile, SlowLorisDribblerNeverStallsOtherClients) {
  HostileServer host(hostile_config("svc_loris.sock"));

  // The loris holds a connection mid-frame forever, one byte at a time.
  const int loris = raw_connect(host.config.socket_path);
  const std::vector<u8> wire = encode_frame(
      {FrameKind::kCampaign, 1,
       R"({"design": "lfsr", "device": "campaign", "sample": 300})"});
  std::atomic<bool> stop_dribble{false};
  std::thread dribbler([&] {
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
      if (stop_dribble.load(std::memory_order_relaxed)) break;
      if (::send(loris, wire.data() + i, 1, MSG_NOSIGNAL) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Meanwhile every other client is served at full speed: a partial frame
  // parks in that connection's decoder, not in the event loop.
  ServiceSession client = ServiceSession::connect_unix(host.config.socket_path);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.ping().kind, FrameKind::kResult);
  }
  const Frame reply = client.call(
      FrameKind::kCampaign,
      R"({"design": "lfsr", "device": "campaign", "sample": 300})");
  EXPECT_EQ(reply.kind, FrameKind::kResult) << reply.payload;

  stop_dribble.store(true, std::memory_order_relaxed);
  dribbler.join();
  ::close(loris);
}

TEST(ServerHostile, MidStreamDisconnectCancelsOrphanedWork) {
  HostileServer host(hostile_config("svc_orphan.sock"));

  // Submit a long campaign, then vanish with it still running.
  {
    ServiceSession client =
        ServiceSession::connect_unix(host.config.socket_path);
    (void)client.submit(
        FrameKind::kCampaign,
        R"({"design": "lfsrmult", "device": "campaign", "sample": 20000,)"
        R"( "chunk": 64})");
  }  // destructor closes the socket

  // The disconnect cancels the orphan at its next chunk boundary: live work
  // drains to zero far sooner than 20k injections could complete.
  ServiceSession probe = ServiceSession::connect_unix(host.config.socket_path);
  u64 live = ~0ull;
  for (int i = 0; i < 1000 && live != 0; ++i) {
    live = FlatJson::parse(probe.stats().payload).get_u64("live_requests");
    if (live != 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(live, 0u);
}

TEST(ServerHostile, BacklogBoundDeclaresANonReadingClientDead) {
  ServiceConfig config = hostile_config("svc_deadbeat.sock");
  config.max_conn_backlog_bytes = 1;  // every queued reply overflows
  HostileServer host(config, /*check_health_in=*/false);

  const int fd = raw_connect(host.config.socket_path);
  const std::vector<u8> ping = encode_frame({FrameKind::kPing, 1, ""});
  sendall(fd, ping.data(), ping.size());
  // The pong overflows the 1-byte backlog bound: the connection is declared
  // dead and shut down instead of buffering toward a client that may never
  // read. The client observes EOF, not a reply — and observing EOF at all
  // (rather than hanging) proves the event loop is still turning.
  const std::vector<Frame> replies = drain_replies(fd);
  EXPECT_TRUE(replies.empty());
  ::close(fd);

  // A second victim gets the same deterministic treatment: accepted, then
  // dropped at first reply. The loop survives its own backlog kills.
  const int fd2 = raw_connect(host.config.socket_path);
  sendall(fd2, ping.data(), ping.size());
  EXPECT_TRUE(drain_replies(fd2).empty());
  ::close(fd2);
}

TEST(ServerHostile, SendDeadlineDropsAClientThatStopsReading) {
  ServiceConfig config = hostile_config("svc_slowread.sock");
  config.send_timeout_ms = 200;
  HostileServer host(config);

  // Enough pings that the replies overrun the kernel socket buffer while we
  // read nothing: the server's write queue blocks, the 200ms write-progress
  // deadline expires, and the connection is closed server-side.
  const int fd = raw_connect(host.config.socket_path);
  std::vector<u8> burst;
  for (u64 id = 1; id <= 4000; ++id) {
    const std::vector<u8> one = encode_frame({FrameKind::kPing, id, ""});
    burst.insert(burst.end(), one.begin(), one.end());
  }
  sendall(fd, burst.data(), burst.size());
  // Refuse to read for longer than the deadline: the pong backlog exceeds the
  // kernel buffer, so the server's writes stay blocked until it gives up.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // Drain whatever was in flight until the server hangs up. If the deadline
  // failed to fire this would block forever on the 4000th pong; instead the
  // stream ends early.
  const std::vector<Frame> replies = drain_replies(fd);
  EXPECT_LT(replies.size(), 4000u);
  ::close(fd);
}

TEST(ServerHostile, ManyFramesInOneWriteAllAnswered) {
  HostileServer host(hostile_config("svc_batch.sock"));

  // Edge-triggered readiness: 50 frames arriving as ONE readable event must
  // all be decoded and answered from that single edge.
  const int fd = raw_connect(host.config.socket_path);
  std::vector<u8> burst;
  for (u64 id = 1; id <= 50; ++id) {
    const std::vector<u8> one = encode_frame({FrameKind::kPing, id, ""});
    burst.insert(burst.end(), one.begin(), one.end());
  }
  sendall(fd, burst.data(), burst.size());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  u8 buf[8192];
  while (frames.size() < 50) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    decoder.feed(std::span<const u8>(buf, static_cast<std::size_t>(n)));
    Frame out;
    while (decoder.next(&out) == FrameDecoder::Status::kFrame) {
      frames.push_back(out);
    }
  }
  for (u64 id = 1; id <= 50; ++id) {
    EXPECT_EQ(frames[static_cast<std::size_t>(id - 1)].request_id, id);
    EXPECT_EQ(frames[static_cast<std::size_t>(id - 1)].kind,
              FrameKind::kResult);
  }
  ::close(fd);
}

}  // namespace
}  // namespace vscrub
