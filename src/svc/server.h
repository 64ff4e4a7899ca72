// vscrubd transport: an epoll edge-triggered event loop speaking VSRP1 over
// a Unix-domain socket (plus optional TCP loopback), all requests funneled
// into one CampaignService.
//
// Shape: ONE event-loop thread owns every socket. Accepts, reads and writes
// are nonblocking; each connection carries an incremental FrameDecoder fed
// off read-readiness and a bounded write queue drained off write-readiness.
// Executor threads never touch a socket — their emit closures only encode
// the frame, append it to the connection's queue and nudge the loop through
// an eventfd — so a stalled peer can never wedge an executor, and ten
// thousand idle connections cost ten thousand fds, not threads.
//
// The PR 5 deadline-write discipline generalizes to queue draining: a
// connection whose queue makes no progress for send_timeout_ms, or whose
// queue exceeds max_conn_backlog_bytes, is declared dead — its replies are
// dropped, the socket is shut down, and any live work it submitted is
// cancelled at the next chunk boundary (the replies could never be
// delivered anyway).
//
// Shutdown discipline (the SIGTERM drain): the first stop request closes
// admission (new work gets kBusy "draining") and lets queued + running
// requests finish and deliver their replies; the second flips every live
// request's cancel flag, so campaigns stop at the next chunk boundary,
// checkpoint, and still deliver their interrupted results. Either way run()
// returns normally — after every queued reply byte is flushed or its
// connection declared dead — and the daemon exits 0.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

#include "svc/config.h"
#include "svc/service.h"

namespace vscrub {

class SocketServer {
 public:
  /// Validates the config (throws ServiceConfigError) and builds the
  /// CampaignService engine; no sockets exist until start().
  explicit SocketServer(ServiceConfig config);
  /// Same transport, caller-supplied engine (tests wrap the engine in
  /// fault-injecting fakes). Only the transport fields of `config` (socket
  /// path, port, backlog, timeouts) apply.
  SocketServer(ServiceConfig config, std::unique_ptr<FrameService> service);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens (and ignores SIGPIPE). Throws Error on failure.
  void start();

  /// Event loop; returns after a drain completes (see header comment).
  void run();

  /// Requests shutdown. Async-signal-safe (writes one byte to the self
  /// pipe). First call drains gracefully; a second cancels live requests.
  void request_stop();

  /// Installs SIGTERM/SIGINT handlers that call request_stop() on this
  /// server (one server per process).
  void bind_signals();

  FrameService& service() { return *service_; }
  const std::string& socket_path() const { return config_.socket_path; }

 private:
  struct Conn;
  struct WakeSignal;

  void accept_ready(int listen_fd);
  void read_ready(const std::shared_ptr<Conn>& conn);
  /// Drains the connection's write queue until empty or EAGAIN; updates the
  /// blocked/deadline state. Kills the connection on a hard send error.
  void flush_writes(const std::shared_ptr<Conn>& conn);
  /// Kills connections whose queued writes outlived the send deadline and
  /// reports the epoll timeout (ms) until the next pending deadline (-1
  /// when none).
  int enforce_deadlines();
  void close_conn(int fd);
  void close_listeners();
  bool all_flushed();

  ServiceConfig config_;
  std::unique_ptr<FrameService> service_;
  int epoll_fd_ = -1;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  /// Executor -> event-loop nudge: emit closures append to a connection's
  /// write queue and mark it dirty here; the loop drains dirty connections.
  std::shared_ptr<WakeSignal> wake_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  /// Connection identity passed to CampaignService::handle — scopes
  /// client-chosen request ids (cancel, live-job tracking) per connection.
  std::atomic<u64> next_client_id_{1};
};

}  // namespace vscrub
