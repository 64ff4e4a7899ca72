// Remote verdict tier: the abstract batched lookup/publish interface a
// campaign probes *behind* its local VerdictStore. The distributed fabric
// implements it over VSRP1 (svc/store_wire.h) against the coordinator's
// process-wide store, so workers on different machines reuse each other's
// verdicts; tests implement it in-memory.
//
// Contract: a remote hit must be the exact StoredVerdict a fresh injection
// would produce (verdicts are pure functions of their content-addressed
// key), so enabling the tier never changes a campaign's results — only its
// wall clock. Implementations must be safe for concurrent batched calls
// from multiple campaign workers, and must *degrade* on transport failure:
// lookup_batch returns all-miss, publish_batch drops the batch. A dead
// coordinator costs reuse, never a campaign.
#pragma once

#include <utility>
#include <vector>

#include "store/verdict_store.h"

namespace vscrub {

class RemoteVerdictClient {
 public:
  virtual ~RemoteVerdictClient() = default;

  /// One round trip for a whole chunk's misses. Each slot is resolved
  /// exact key first, then fallback key, like VerdictStore::find_batch;
  /// out[i] answers pairs[i] and says which key matched. out->size() ==
  /// pairs.size() on return (resized here, so a failing transport just
  /// leaves every slot a miss).
  virtual void lookup_batch(const std::vector<VerdictKeyPair>& pairs,
                            std::vector<VerdictLookup>* out) = 0;

  /// One round trip publishing a whole chunk's fresh verdicts. Best-effort:
  /// a failed publish is dropped silently (the verdicts are still in the
  /// local store and the campaign result).
  virtual void publish_batch(
      const std::vector<std::pair<VerdictKey, StoredVerdict>>& entries) = 0;
};

}  // namespace vscrub
