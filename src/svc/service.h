// The vscrubd request engine, independent of any transport: a bounded
// admission queue feeding a small set of executor threads, every work
// request running against ONE process-wide verdict store and ONE shared
// injection thread pool. The socket server (svc/server.h) is a thin shell
// around this; the loopback tests drive it directly.
//
// One engine serves both daemon roles. A worker runs campaigns itself; a
// coordinator (ServiceConfig::workers non-empty) shards each campaign over
// its worker daemons through the fabric (svc/fabric.h), answers the
// workers' verdict-store requests as the fleet's hub, and starts no
// injection pool. Admission, tenancy, cancel, drain, backpressure and
// metrics below are the same for both; only the executor a job runs on
// differs.
//
// Admission is weighted fair-share, not FIFO: every job lands in its
// tenant's lane (an explicit tenant request parameter, else the issuing
// connection) and executors dispatch lanes by stride scheduling
// (svc/scheduler.h), so one client flooding the queue cannot starve
// everyone else — it can only fill its own share.
//
// Long campaigns preempt at chunk boundaries: when a running campaign has
// consumed its quantum (ServiceConfig::preempt_chunks) while a DIFFERENT
// tenant has work queued, it checkpoints into its Job (a VSCK record in
// memory, no file), is requeued at its tenant's head, and the executor picks
// the next lane. On redispatch the campaign resumes from that record, so the
// final report — including the order-independent sensitive-set digest — is
// bit-identical to an uninterrupted run. Restart-from-checkpoint is the
// scheduler primitive. Sharded campaigns do not preempt.
//
// Concurrency shape: executor threads are dedicated — they block on the
// queue and on campaign completion, and only the campaign's *chunks* run on
// the shared compute pool. Request handlers never run on the compute pool
// itself; an executor blocking inside parallel_chunks while also occupying a
// compute worker would deadlock the pool under multiplexed load.
//
// Backpressure is explicit: when the queue is full (or the service is
// draining) a work request is answered immediately with a typed kBusy frame
// carrying retry_after_ms — the service never buffers unboundedly and never
// silently drops.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "report/json.h"
#include "store/verdict_store.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/scheduler.h"

namespace vscrub {

/// What the socket transport (svc/server.h) needs from a request engine —
/// nothing more. CampaignService implements it for both daemon roles; the
/// interface stays so tests can wrap the engine in fault-injecting fakes.
class FrameService {
 public:
  /// Reply sink for one request. Called from executor threads (and inline
  /// from handle() for immediate replies), possibly concurrently across
  /// requests — implementations must be thread-safe and non-blocking (the
  /// event-loop transport only enqueues bytes here).
  using Emit = std::function<void(const Frame&)>;

  virtual ~FrameService() = default;

  /// Routes one decoded request frame; replies flow through `emit`.
  /// `client_id` is the transport's identity for the issuing connection.
  virtual void handle(const Frame& request, Emit emit, u64 client_id) = 0;
  /// Stops admitting work; in-flight work finishes and replies.
  virtual void begin_drain() = 0;
  /// Blocks until every admitted request has reached its terminal reply.
  virtual void wait_drained() = 0;
  /// Non-blocking wait_drained() predicate for the event loop.
  virtual bool idle() const = 0;
  /// A connection died: stop work whose replies can no longer be delivered.
  virtual void cancel_client(u64 client_id) = 0;
  /// Hard shutdown phase: flip every live request's cancel flag.
  virtual void cancel_all() = 0;
  /// Server-side metrics snapshot as a versioned JSON report.
  virtual JsonReport stats_report() const = 0;
};

class CampaignService : public FrameService {
 public:
  using Emit = FrameService::Emit;

  /// Validates `config` (throws ServiceConfigError) and starts the
  /// executors, plus the injection pool unless `config` names workers. The
  /// checkpoint directory is created when periodic checkpointing writes
  /// there.
  explicit CampaignService(const ServiceConfig& config);
  /// Drains (queued and running requests finish) and joins the executors.
  ~CampaignService() override;

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Routes one decoded request frame. Immediate kinds (ping/stats/cancel)
  /// are answered synchronously through `emit`; work kinds are queued (emit
  /// gets kAccepted now and kResult/kError later, from an executor, after
  /// kProgress frames when the request asks for progress and a kCheckpoint
  /// per checkpoint save, about 16 per campaign, when it asks for
  /// ship_checkpoints) or rejected with kBusy.
  /// Unknown/invalid kinds get kError.
  ///
  /// `client_id` is the transport's identity for the issuing connection.
  /// Request ids are client-chosen and only unique per connection, so every
  /// job is tracked by {client_id, request_id}: a kCancel frame can only ever
  /// cancel work submitted over the same connection, never another client's
  /// request that happens to share the id.
  void handle(const Frame& request, Emit emit, u64 client_id = 0) override;

  /// Stops admitting work. Already-queued and running requests finish and
  /// their replies are delivered; new work requests get kBusy("draining").
  void begin_drain() override;
  /// Blocks until the queue is empty and every executor is idle. The
  /// verdict store is flushed before returning.
  void wait_drained() override;
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Non-blocking wait_drained() predicate — the event loop polls this
  /// between readiness waits instead of parking a thread.
  bool idle() const override;

  /// Flips the cancel flag of the queued or running request that `client_id`
  /// submitted as `request_id`; false when no such job is live. Campaigns
  /// stop at their next chunk boundary and still deliver their
  /// (interrupted) result; under --checkpoint-every they leave their
  /// checkpoint file behind, and otherwise no file at all.
  bool cancel(u64 request_id, u64 client_id = 0);
  /// Cancels every live request `client_id` owns — the transport calls this
  /// when a connection dies, so work whose replies can no longer be
  /// delivered stops at the next chunk boundary instead of burning the
  /// compute pool to the end.
  void cancel_client(u64 client_id) override;
  /// Flips every live request's cancel flag regardless of owner (the hard
  /// phase of a two-step shutdown: drain first, cancel on the second signal).
  void cancel_all() override;

  /// Snapshot of the server-side metrics as a versioned JSON report
  /// ("kind": "service_stats"): queue depth, admission rejects, request
  /// latency p50/p99, per-kind counters, preemptions, store size, and the
  /// fleet's roster size, range reassignments and resumed injections.
  JsonReport stats_report() const override;

  VerdictStore* store() { return store_.get(); }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Job {
    Frame request;
    Emit emit;
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::chrono::steady_clock::time_point enqueued;
    u64 client_id = 0;  ///< issuing connection (scopes kCancel)
    /// Server-assigned, unique for the process lifetime: the key for live_
    /// bookkeeping and checkpoint filenames, immune to request-id collisions
    /// between connections.
    u64 job_id = 0;
    /// Scheduler lane: the request's tenant parameter when given, else
    /// the issuing connection's identity.
    std::string tenant;
    /// False until the first dispatch. A cancel that lands on a never-run
    /// job is answered with a typed error; a cancel on a preempted (parked
    /// but partially-run) job redispatches it so it can deliver its
    /// interrupted result, same as a running cancel.
    bool started = false;
    /// The campaign's last checkpoint record: where a preempted job resumes.
    std::vector<u8> checkpoint;
  };

  /// One queued-or-running job's cancel handle.
  struct LiveEntry {
    u64 client_id;
    u64 request_id;
    u64 job_id;
    std::shared_ptr<std::atomic<bool>> flag;
  };

  void executor_loop();
  /// Answers a kStoreLookup / kStorePublish frame inline against store_
  /// (typed kError "no_store" when the service runs without a cache dir).
  void handle_store_request(const Frame& request, const Emit& emit);
  /// Runs one dispatched job. Returns true when the job reached a terminal
  /// reply (its live entry must be released); false when it was preempted
  /// and requeued for a later quantum.
  bool run_job(Job& job);
  /// The two executors run_job chooses between. run_local runs the request
  /// in this process, building a campaign's CampaignOptions once with every
  /// hook the service adds (progress, cancel, preemption, checkpoint file,
  /// shipping, resume, remote tier); it reports a preemption through
  /// `preempted`. run_sharded runs a campaign across config_.workers, whose
  /// ranges each ship about 16 checkpoints. Both throw on failure.
  JsonReport run_local(Job& job, const FlatJson& params, bool* preempted);
  JsonReport run_sharded(const Job& job, const FlatJson& params);
  bool coordinator() const { return !config_.workers.empty(); }
  /// Preemption predicate, polled at chunk boundaries from the campaign's
  /// progress callback.
  bool should_preempt(const Job& job);
  /// The checkpoint file a campaign job writes under --checkpoint-every;
  /// empty when it writes none.
  std::string checkpoint_path_for(const Job& job) const;
  void reply(const Emit& emit, FrameKind kind, u64 request_id,
             const JsonReport& report) const;
  JsonReport error_report(const std::string& code,
                          const std::string& message) const;
  JsonReport busy_report(const std::string& reason) const;

  ServiceConfig config_;
  std::unique_ptr<VerdictStore> store_;  ///< null when cache_dir is empty
  /// Shared injection compute pool; empty on a coordinator.
  std::optional<ThreadPool> pool_;

  mutable std::mutex mutex_;             ///< guards sched_/live_/counters
  std::condition_variable work_cv_;      ///< executors wait here
  std::condition_variable drained_cv_;   ///< wait_drained() waits here
  FairScheduler<Job> sched_;
  /// Cancel flags of queued + running jobs.
  std::vector<LiveEntry> live_;
  u64 next_job_id_ = 1;
  unsigned running_ = 0;
  std::atomic<bool> draining_{false};
  bool stop_ = false;  ///< set by the destructor after the final drain

  mutable std::mutex metrics_mutex_;
  MetricsRegistry metrics_;

  std::vector<std::thread> executors_;
};

}  // namespace vscrub
