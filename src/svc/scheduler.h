// Weighted fair-share admission scheduling for the campaign service: stride
// scheduling over per-tenant lanes.
//
// Each tenant (a client identity or an explicit tenant request parameter)
// owns one FIFO lane with a virtual-time `pass`. pop() always dispatches the
// non-empty lane with the smallest pass (lexicographic tenant order breaks
// ties, so the schedule is deterministic for a given arrival order), then
// advances that lane's pass by kStrideScale / weight. A weight-W tenant
// therefore receives W times the dispatch share of a weight-1 tenant under
// contention, while an uncontended tenant still gets the whole machine.
//
// Lanes that go idle re-enter at max(own pass, global virtual time): a
// returning tenant is next in line but cannot claim credit for the time it
// spent away, and a newly seen tenant cannot starve incumbents.
//
// A tenant that will never submit again (a closed connection's
// per-connection lane) is retired: its lane is erased once empty, so a
// long-lived daemon keeps no lane per connection it ever served. Erasing an
// empty lane changes no later dispatch — pop() never looks at empty lanes.
//
// The scheduler is deliberately lock-free-of-its-own: CampaignService calls
// it under its admission mutex, and the template is trivially unit-testable
// with int payloads.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/types.h"

namespace vscrub {

template <typename Job>
class FairScheduler {
 public:
  /// Pass-per-dispatch for weight 1. Large enough that kStrideScale/weight
  /// stays meaningfully distinct for any sane weight.
  static constexpr u64 kStrideScale = 1ull << 20;

  /// Fixes a tenant's weight (>= 1) for all later dispatch accounting.
  void set_weight(const std::string& tenant, u64 weight) {
    lane(tenant).weight = weight == 0 ? 1 : weight;
  }

  /// Enqueues at the tenant's tail (normal admission).
  void push(const std::string& tenant, Job job) {
    Lane& l = lane(tenant);
    if (l.queue.empty()) l.pass = l.pass < vtime_ ? vtime_ : l.pass;
    l.queue.push_back(std::move(job));
    ++size_;
  }

  /// Enqueues at the tenant's HEAD: a preempted job resumes before anything
  /// its own tenant submitted later, but still pays full stride per quantum
  /// against other tenants.
  void push_front(const std::string& tenant, Job job) {
    Lane& l = lane(tenant);
    if (l.queue.empty()) l.pass = l.pass < vtime_ ? vtime_ : l.pass;
    l.queue.push_front(std::move(job));
    ++size_;
  }

  /// Dispatches the minimum-pass lane's head job; false when empty.
  bool pop(Job* out) {
    auto best = lanes_.end();
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      if (it->second.queue.empty()) continue;
      if (best == lanes_.end() || it->second.pass < best->second.pass) {
        best = it;
      }
    }
    if (best == lanes_.end()) return false;
    Lane& l = best->second;
    *out = std::move(l.queue.front());
    l.queue.pop_front();
    --size_;
    vtime_ = l.pass;
    l.pass += kStrideScale / l.weight;
    if (l.retired && l.queue.empty()) lanes_.erase(best);
    return true;
  }

  /// Forgets a tenant that will never submit again: its lane is erased now
  /// if empty, else when its last queued job is popped.
  void retire(const std::string& tenant) {
    const auto it = lanes_.find(tenant);
    if (it == lanes_.end()) return;
    if (it->second.queue.empty()) {
      lanes_.erase(it);
    } else {
      it->second.retired = true;
    }
  }

  /// Number of lanes held, empty ones included (stats surface).
  std::size_t lane_count() const { return lanes_.size(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when some OTHER tenant has work queued — the preemption predicate:
  /// a running campaign only yields when the cycles it would consume are
  /// contended by a different identity, never to its own backlog.
  bool other_tenant_waiting(const std::string& tenant) const {
    for (const auto& [name, l] : lanes_) {
      if (!l.queue.empty() && name != tenant) return true;
    }
    return false;
  }

  /// Number of tenants with work queued right now (stats surface).
  std::size_t tenants_waiting() const {
    std::size_t n = 0;
    for (const auto& [name, l] : lanes_) {
      if (!l.queue.empty()) ++n;
    }
    return n;
  }

  /// Applies `fn(job)` to every queued job (drain bookkeeping).
  template <typename Fn>
  void for_each(Fn fn) {
    for (auto& [name, l] : lanes_) {
      for (Job& job : l.queue) fn(job);
    }
  }

 private:
  struct Lane {
    u64 pass = 0;
    u64 weight = 1;
    bool retired = false;  ///< erase once the queue drains
    std::deque<Job> queue;
  };

  Lane& lane(const std::string& tenant) { return lanes_[tenant]; }

  /// Keyed by tenant name; std::map so min-pass ties resolve in tenant
  /// order, making the dispatch sequence reproducible.
  std::map<std::string, Lane> lanes_;
  u64 vtime_ = 0;  ///< pass of the most recently dispatched lane
  std::size_t size_ = 0;
};

}  // namespace vscrub
