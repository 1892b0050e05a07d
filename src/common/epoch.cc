#include "common/epoch.h"

#include <thread>

namespace erq {
namespace {

// Stable per-thread stripe index. Hashing the thread id once per thread
// spreads concurrent readers across cache lines without any
// registration protocol.
size_t ThisThreadStripe() {
  thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      EpochManager::kStripes;
  return stripe;
}

}  // namespace

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // Precondition: no reader is inside a critical section, so every
  // bucket is quiescent and three advances flush all limbo lists.
  ReclaimAll();
}

EpochManager::Ticket EpochManager::Enter() {
  const size_t stripe = ThisThreadStripe();
  for (;;) {
    const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    active_[e % 3][stripe].n.fetch_add(1, std::memory_order_seq_cst);
    // Validated announcement: if the epoch moved between the load and
    // the increment, the count may have landed in a bucket a writer
    // already proved quiescent. Undo and retry before dereferencing
    // anything — an announcement is only trusted once the epoch is
    // observed unchanged *after* it.
    if (global_epoch_.load(std::memory_order_seq_cst) == e) {
      return Ticket{e, stripe};
    }
    active_[e % 3][stripe].n.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void EpochManager::Exit(const Ticket& ticket) {
  active_[ticket.epoch % 3][ticket.stripe].n.fetch_sub(
      1, std::memory_order_seq_cst);
}

uint64_t EpochManager::BucketSum(size_t bucket) const {
  uint64_t sum = 0;
  for (size_t s = 0; s < kStripes; ++s) {
    sum += active_[bucket][s].n.load(std::memory_order_seq_cst);
  }
  return sum;
}

bool EpochManager::AdvanceLocked(std::vector<std::function<void()>>* out) {
  // All stores to global_epoch_ happen under mu_, so the value read here
  // cannot move under us.
  const uint64_t e = global_epoch_.load(std::memory_order_relaxed);
  const size_t next = static_cast<size_t>((e + 1) % 3);
  // Bucket `next` holds readers that entered in epoch e-2 (or older
  // congruent epochs). Once it drains it stays drained until the epoch
  // becomes e+1, because new readers only announce in the current
  // bucket. Objects in its limbo list were retired (and unlinked) no
  // later than epoch e-2, so the e-2 readers checked here are the last
  // that could reference them.
  if (BucketSum(next) != 0) return false;
  auto& expired = limbo_[next];
  reclaimed_ += expired.size();
  for (auto& fn : expired) out->push_back(std::move(fn));
  expired.clear();
  ++advances_;
  global_epoch_.store(e + 1, std::memory_order_seq_cst);
  return true;
}

void EpochManager::Retire(std::function<void()> deleter) {
  std::vector<std::function<void()>> ready;
  bool advanced = false;
  {
    MutexLock lock(&mu_);
    const uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    limbo_[e % 3].push_back(std::move(deleter));
    ++retired_;
    advanced = AdvanceLocked(&ready);
  }
  // Deleters run outside mu_: they may be arbitrarily heavy and must
  // not extend the lock's critical section (mu_ is taken under the C_aqp
  // and reuse-store writer mutexes).
  for (auto& fn : ready) fn();
  if (advance_hook_) advance_hook_(advanced);
}

size_t EpochManager::TryReclaim() {
  std::vector<std::function<void()>> ready;
  bool advanced = false;
  {
    MutexLock lock(&mu_);
    advanced = AdvanceLocked(&ready);
  }
  for (auto& fn : ready) fn();
  if (advance_hook_) advance_hook_(advanced);
  return ready.size();
}

void EpochManager::ReclaimAll() {
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (retired_ == reclaimed_) return;
    }
    if (TryReclaim() == 0) std::this_thread::yield();
  }
}

EpochManager::Stats EpochManager::GetStats() const {
  Stats s;
  MutexLock lock(&mu_);
  s.epoch = global_epoch_.load(std::memory_order_relaxed);
  s.advances = advances_;
  s.retired = retired_;
  s.reclaimed = reclaimed_;
  s.pending = retired_ - reclaimed_;
  return s;
}

}  // namespace erq
