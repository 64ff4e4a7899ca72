// Session-oriented VSRP1 client — the Workbench API v4 service surface.
//
// A ServiceSession owns one connection and a background reader thread that
// demultiplexes every inbound frame to the job it belongs to. submit()
// returns immediately with a JobHandle; any number of jobs ride one session
// concurrently, each with poll()/wait()/cancel() and an optional streaming
// event callback for its kAccepted/kProgress frames; call() is the
// blocking submit + wait.
//
// Lifetimes: a JobHandle keeps the underlying session core (socket + reader)
// alive, so a handle may outlive the ServiceSession object that produced it
// and still wait() successfully. When the connection dies, every pending
// wait() throws a typed Error naming the reason.
//
// Threading: ServiceSession and JobHandle methods are safe to call from any
// thread EXCEPT inside an event callback — callbacks run on the session's
// reader thread, and blocking there (wait(), cancel(), ping()) would
// deadlock the demultiplexer. Callbacks should record and return.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "svc/protocol.h"

namespace vscrub {

/// Automatic reconnection for a session whose connection drops mid-life.
/// Jobs in flight at the drop are lost either way (request identity is
/// scoped to the server connection), but with a policy set the session
/// itself survives: the reader redials with capped exponential backoff and
/// later submits ride the new connection. The coordinator's worker links
/// run with this on, so a worker daemon restart costs one range
/// reassignment, not the whole fabric link.
struct ReconnectPolicy {
  u32 max_attempts = 0;       ///< 0 disables reconnection (a drop is final)
  u32 backoff_initial_ms = 50;
  u32 backoff_max_ms = 2000;  ///< exponential backoff is capped here
};

enum class SessionErrorCode : u8 {
  kConnectionLost,   ///< the connection died (no reconnect, or mid-redial)
  kReconnectFailed,  ///< every reconnect attempt was exhausted
};
const char* session_error_name(SessionErrorCode code);

/// The typed session failure: what() keeps the human-readable reason, code()
/// says whether this was a plain drop or an exhausted reconnect loop.
class SessionError : public Error {
 public:
  SessionError(SessionErrorCode code, const std::string& what)
      : Error(what), code_(code) {}
  SessionErrorCode code() const { return code_; }

 private:
  SessionErrorCode code_;
};

struct SessionCore;

/// One submitted request's lifecycle. Default-constructed handles are empty
/// (valid() == false); handles are cheap shared references, copyable.
class JobHandle {
 public:
  /// Receives the job's non-terminal frames (kAccepted, kProgress), in
  /// arrival order. Runs on the session reader thread (or inside wait() on
  /// the waiting thread for frames that arrived early) — do not block.
  using EventFn = std::function<void(const Frame&)>;

  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// The request id this job was submitted as (unique per session).
  u64 id() const;

  /// Non-blocking: true when wait() will return (or throw) without blocking
  /// — the terminal reply arrived or the connection died.
  bool poll() const;

  /// Blocks until the terminal reply (kResult / kError / kBusy). When
  /// `on_event` is given (and no callback was installed at submit), buffered
  /// and future non-terminal frames are delivered through it first. Throws
  /// Error if the connection dies before the terminal reply.
  Frame wait(const EventFn& on_event = {});

  /// wait() with a deadline; std::nullopt on timeout (the job stays live —
  /// poll() or wait() again later).
  std::optional<Frame> wait_for(std::chrono::milliseconds timeout,
                                const EventFn& on_event = {});

  /// Asks the server to cancel this job (a campaign stops at its next chunk
  /// boundary and delivers an interrupted result). Returns true when the
  /// server still knew the job. The terminal reply still arrives through
  /// wait(). Must not be called from an event callback.
  bool cancel();

 private:
  friend class ServiceSession;
  friend struct SessionCore;
  struct State;
  JobHandle(std::shared_ptr<SessionCore> core, std::shared_ptr<State> state)
      : core_(std::move(core)), state_(std::move(state)) {}

  std::shared_ptr<SessionCore> core_;
  std::shared_ptr<State> state_;
};

class ServiceSession {
 public:
  using EventFn = JobHandle::EventFn;

  /// Connects to a vscrubd Unix-domain socket. Throws Error on failure.
  /// `reconnect` (default: disabled) makes the session redial after a drop.
  static ServiceSession connect_unix(const std::string& socket_path,
                                     ReconnectPolicy reconnect = {});
  /// Connects to a vscrubd TCP loopback port. Throws Error on failure.
  static ServiceSession connect_tcp(u16 port, ReconnectPolicy reconnect = {});

  ServiceSession(ServiceSession&&) noexcept = default;
  ServiceSession& operator=(ServiceSession&&) noexcept = default;
  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;
  ~ServiceSession() = default;

  /// Sends one request frame and returns its handle without waiting.
  /// `on_event` (optional) streams the job's non-terminal frames from the
  /// reader thread as they arrive. Throws Error when the connection is gone.
  JobHandle submit(FrameKind kind, const std::string& payload,
                   EventFn on_event = {});

  /// submit + wait in one call; `on_event` is delivered through wait().
  Frame call(FrameKind kind, const std::string& payload,
             const EventFn& on_event = {});

  /// Liveness probe; returns the kResult pong frame.
  Frame ping() { return call(FrameKind::kPing, ""); }
  /// Server metrics snapshot (kResult, service_stats payload).
  Frame stats() { return call(FrameKind::kStats, ""); }
  /// Asks the server to cancel request `target_id`; true when the server
  /// still knew the request (queued or running).
  bool cancel_request(u64 target_id);

  /// False once the reader thread has observed the connection close.
  bool connected() const;
  /// Successful redials so far (0 without a ReconnectPolicy).
  u64 reconnects() const;

 private:
  explicit ServiceSession(std::shared_ptr<SessionCore> core)
      : core_(std::move(core)) {}

  std::shared_ptr<SessionCore> core_;
};

}  // namespace vscrub
