#include "registry.h"

namespace erq {

// Correct: the parent's instrument is resolved before the own mutex.
int* Registry::Get(const std::string& name) {
  if (parent_ != nullptr) parent_->Get(name);
  MutexLock lock(&mu_);
  return &values_[name];
}

// Wrong: resolving the parent under the own mutex nests two registries'
// same-rank mutexes; the linter must resolve `parent_->` and flag it.
int* Registry::GetNested(const std::string& name) {
  MutexLock lock(&mu_);
  if (parent_ != nullptr) parent_->Get(name);
  return &values_[name];
}

}  // namespace erq
