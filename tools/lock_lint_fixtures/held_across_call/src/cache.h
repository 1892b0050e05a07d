#pragma once
// Miniature cache standing in for CaqpCache: level 20, listener
// callbacks run under its lock.
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace erq {

class Cache {
 public:
  std::vector<int> Snapshot() const;
  void Insert(int part);

 private:
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kCaqpCache)
      ERQ_ACQUIRED_BEFORE(lock_order::kPersistence){lock_order::kCaqpCache};
  std::vector<int> parts_ ERQ_GUARDED_BY(mu_);
};

}  // namespace erq
