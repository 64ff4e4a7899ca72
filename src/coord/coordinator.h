// The campaign coordinator: the FrameService a `vscrubd --coordinator`
// daemon runs instead of the worker engine. Same VSRP1 wire, same epoll
// transport — different verbs behind the frames:
//
//   kCampaign      -> a *sharded* campaign over the registered worker
//                     fleet (coord/fabric.h), streaming merged
//                     fabric_progress frames and replying with the merged
//                     report (bit-identical to a one-shot run).
//   kStoreLookup / -> the fleet's remote verdict tier, answered inline
//   kStorePublish     against this daemon's process-wide VerdictStore, so
//                     workers reuse each other's verdicts across machines.
//   kPing / kStats / kCancel behave as on a worker.
//
// Worker registration is configuration: the fleet's vscrubd socket paths
// are handed to the constructor (vscrubd --coordinator --worker <sock>...).
// Per-campaign worker health (lost links, leases, reassignment) is the
// fabric's job; the registry here is the roster and its lifetime stats.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/verdict_store.h"
#include "svc/service.h"

namespace vscrub {

struct CoordinatorConfig {
  /// This daemon's own Unix socket — advertised to workers as the remote
  /// verdict tier (remote_store_socket), so the coordinator is the hub.
  std::string socket_path;
  /// The registered fleet: vscrubd worker Unix-socket paths.
  std::vector<std::string> workers;
  /// Verdict hub store directory; empty runs the fleet without the remote
  /// reuse tier (store requests then get a typed "no_store" error).
  std::string cache_dir;
  u64 shards_per_worker = 2;
  u64 lease_ms = 10000;
  /// Worker checkpoint/shipping cadence in chunks (0 = worker default).
  /// Every chunk: auto chunks are at least 1024 bits, so a sampled
  /// campaign's range holds only a few, and a lost worker's range should
  /// restart at most one chunk behind.
  u64 checkpoint_every_chunks = 1;
  /// Concurrent sharded campaigns; extras are rejected with kBusy.
  unsigned max_concurrent = 2;

  /// Throws ServiceConfigError on an unusable configuration.
  void validate() const;
};

class CoordinatorService : public FrameService {
 public:
  explicit CoordinatorService(CoordinatorConfig config);
  ~CoordinatorService() override;

  CoordinatorService(const CoordinatorService&) = delete;
  CoordinatorService& operator=(const CoordinatorService&) = delete;

  void handle(const Frame& request, Emit emit, u64 client_id) override;
  void begin_drain() override;
  void wait_drained() override;
  bool idle() const override;
  void cancel_client(u64 client_id) override;
  void cancel_all() override;
  /// "kind": "coordinator_stats" — fleet roster size, campaigns served,
  /// reassignments, verdict-hub store counters.
  JsonReport stats_report() const override;

  const CoordinatorConfig& config() const { return config_; }
  VerdictStore* store() { return store_.get(); }

 private:
  struct LiveCampaign {
    u64 client_id = 0;
    u64 request_id = 0;
    std::shared_ptr<std::atomic<bool>> cancelled;
  };

  void run_fleet_campaign(const Frame& request, Emit emit,
                          std::shared_ptr<std::atomic<bool>> cancelled);
  void finish_campaign(u64 client_id, u64 request_id);
  void reply(const Emit& emit, FrameKind kind, u64 request_id,
             const JsonReport& report) const;
  JsonReport error_report(const std::string& code,
                          const std::string& message) const;

  CoordinatorConfig config_;
  std::unique_ptr<VerdictStore> store_;  ///< null when cache_dir is empty

  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::vector<LiveCampaign> live_;
  std::vector<std::thread> runners_;
  unsigned running_ = 0;
  std::atomic<bool> draining_{false};

  // Lifetime telemetry, folded in as campaigns finish.
  u64 campaigns_total_ = 0;
  u64 campaigns_failed_ = 0;
  u64 reassignments_total_ = 0;
  u64 resumed_injections_total_ = 0;
  u64 store_lookups_ = 0;
  u64 store_hits_ = 0;
  u64 store_publishes_ = 0;
};

}  // namespace vscrub
