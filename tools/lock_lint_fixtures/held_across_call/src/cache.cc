#include "cache.h"

namespace erq {

std::vector<int> Cache::Snapshot() const {
  MutexLock lock(&mu_);
  return parts_;
}

void Cache::Insert(int part) {
  MutexLock lock(&mu_);
  parts_.push_back(part);
}

}  // namespace erq
