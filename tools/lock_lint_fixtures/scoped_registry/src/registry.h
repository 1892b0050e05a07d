#pragma once
// Miniature scoped metrics registry: a child forwards to its parent, and
// both registries' mutexes sit at the same rank. The parent pointer is a
// `T* const` member declared right after the access specifier, the shape
// MetricsRegistry uses.
#include <map>
#include <string>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace erq {

class Registry {
 public:
  int* Get(const std::string& name);
  int* GetNested(const std::string& name);

 private:
  Registry* const parent_;
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kMetrics){
      lock_order::kMetrics};
  std::map<std::string, int> values_ ERQ_GUARDED_BY(mu_);
};

}  // namespace erq
