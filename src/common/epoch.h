#pragma once

/// \file
/// Epoch-based reclamation (EBR) — the primitive behind C_aqp's
/// lock-free lookup path (DESIGN.md §5.1).
///
/// Readers call Enter()/Exit() (or use the RAII EpochReadGuard) around a
/// critical section in which they may dereference shared objects that
/// writers concurrently unlink. Writers first *unlink* an object (make
/// it unreachable from every published pointer), then hand it to
/// Retire(); the deleter runs only after every reader that could still
/// hold a reference has exited its critical section, so readers never
/// need a lock and never touch freed memory.
///
/// The implementation is the classic three-bucket scheme: a global epoch
/// counter E and three reader-count buckets indexed E mod 3. A reader
/// announces itself in the bucket of the epoch it observed; an object
/// retired in epoch E may still be referenced by readers in buckets
/// E mod 3 *and* (E-1) mod 3 (a reader admitted just before E advanced),
/// but never by bucket (E+1) mod 3 — that bucket was drained before the
/// epoch could reach E+1. Retire() therefore frees bucket (E+1) mod 3's
/// limbo list whenever that bucket's reader count is zero, then
/// advances. Reader counts are striped across cache lines to keep
/// Enter()/Exit() from serializing on one hot atomic.
///
/// Unlike per-thread-slot EBR designs, threads need no registration:
/// any thread may Enter() at any time. The cost is one seq_cst
/// fetch_add + a validation load per Enter(); on the read-mostly
/// workloads this serves, that is far below the cost of a shared mutex.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace erq {

/// Reclamation domain. One instance protects one family of shared
/// objects (e.g. one CaqpCache's published indexes). Thread-safe;
/// readers are wait-free with respect to each other and never take
/// mu_ — only Retire()/ReclaimAll() do.
class EpochManager {
 public:
  /// Number of reader-count stripes per bucket (power of two). Threads
  /// hash to a stripe, so concurrent Enter()s rarely share a cache line.
  static constexpr size_t kStripes = 16;

  EpochManager();

  /// Runs every pending deleter. Callers must guarantee no reader is
  /// inside a critical section (the usual case: owning object's dtor).
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Opaque ticket returned by Enter(); pass it back to Exit().
  struct Ticket {
    uint64_t epoch;  ///< epoch the reader announced itself in
    size_t stripe;   ///< stripe its count landed in
  };

  /// Enters a read-side critical section: announces this reader in the
  /// current epoch's bucket. Never blocks, never takes a lock.
  Ticket Enter();

  /// Leaves the critical section entered with `ticket`. After this the
  /// caller must not dereference any epoch-protected pointer it loaded.
  void Exit(const Ticket& ticket);

  /// Hands an *already unlinked* object to the domain: `deleter` runs
  /// once every reader that might still reference it has exited. May run
  /// deleters (for older retirees) before returning. Must not be called
  /// from inside a read-side critical section of the same domain.
  void Retire(std::function<void()> deleter) ERQ_EXCLUDES(mu_);

  /// Tries to advance the epoch once and reclaim whatever that makes
  /// safe. Returns the number of deleters run. Non-blocking with respect
  /// to readers (a populated bucket just means no progress this call).
  size_t TryReclaim() ERQ_EXCLUDES(mu_);

  /// Drives TryReclaim() until every pending deleter has run. Requires
  /// that readers eventually drain (they always do: critical sections
  /// are bounded); deleters retired concurrently with the call may or
  /// may not be included.
  void ReclaimAll() ERQ_EXCLUDES(mu_);

  /// Point-in-time observability snapshot.
  struct Stats {
    uint64_t epoch = 0;      ///< current global epoch
    uint64_t advances = 0;   ///< successful epoch advancements
    uint64_t retired = 0;    ///< deleters ever handed to Retire()
    uint64_t reclaimed = 0;  ///< deleters that have run
    uint64_t pending = 0;    ///< retired - reclaimed
  };
  /// Returns a consistent snapshot of the counters above.
  Stats GetStats() const ERQ_EXCLUDES(mu_);

  /// Test seam: invoked (outside mu_) every time an epoch advancement
  /// attempt is evaluated, with `advanced` reporting whether the bucket
  /// was quiescent. Tests use it to prove a held EpochReadGuard pins its
  /// bucket. Not synchronized — install before sharing the manager.
  void SetAdvanceHookForTest(std::function<void(bool advanced)> hook) {
    advance_hook_ = std::move(hook);
  }

 private:
  /// One cache line per stripe so concurrent readers don't false-share.
  struct alignas(64) StripedCount {
    std::atomic<uint64_t> n{0};
  };

  /// Sum of one bucket's stripes. A zero sum means the bucket is
  /// quiescent *now*; new readers can only announce in the current
  /// epoch's bucket, so a drained non-current bucket stays drained.
  uint64_t BucketSum(size_t bucket) const;

  /// The advancement step: if bucket (E+1)%3 is quiescent, detach its
  /// limbo list, publish epoch E+1, and return the list to run outside
  /// the lock. Appends to `out` and returns true on advancement.
  bool AdvanceLocked(std::vector<std::function<void()>>* out)
      ERQ_REQUIRES(mu_);

  std::atomic<uint64_t> global_epoch_{0};
  StripedCount active_[3][kStripes];

  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kEpoch){lock_order::kEpoch};
  std::vector<std::function<void()>> limbo_[3] ERQ_GUARDED_BY(mu_);
  uint64_t advances_ ERQ_GUARDED_BY(mu_) = 0;
  uint64_t retired_ ERQ_GUARDED_BY(mu_) = 0;
  uint64_t reclaimed_ ERQ_GUARDED_BY(mu_) = 0;

  std::function<void(bool)> advance_hook_;
};

/// An atomic pointer to an immutable `T`, replaced whole by writers.
/// Readers Load() inside an EpochReadGuard of the domain the writers
/// retire into; writers serialize among themselves and Publish(), which
/// epoch-retires the replaced value. Owns its current value.
template <typename T>
class EpochPublished {
 public:
  explicit EpochPublished(const T* initial) : ptr_(initial) {}
  ~EpochPublished() { delete ptr_.load(std::memory_order_relaxed); }

  EpochPublished(const EpochPublished&) = delete;
  EpochPublished& operator=(const EpochPublished&) = delete;

  /// The current value (acquire): valid until the caller's epoch guard
  /// exits, or while it is the writer that would replace it.
  const T* Load() const { return ptr_.load(std::memory_order_acquire); }

  /// Swaps `next` in and retires the predecessor into `epoch`.
  void Publish(const T* next, EpochManager* epoch) {
    const T* old = ptr_.exchange(next, std::memory_order_acq_rel);
    epoch->Retire([old] { delete old; });
  }

 private:
  std::atomic<const T*> ptr_;
};

/// RAII read-side critical section. While alive, any pointer published
/// before (or during) the guard's lifetime stays valid even if a writer
/// concurrently retires it. tools/lock_lint.py treats the guard as a
/// leaf scope: acquiring any mutex while one is held is a lint error,
/// because a blocked reader would stall reclamation for the whole
/// domain.
class EpochReadGuard {
 public:
  /// Enters `epoch`'s read-side critical section.
  explicit EpochReadGuard(EpochManager* epoch)
      : epoch_(epoch), ticket_(epoch->Enter()) {}
  /// Exits the critical section.
  ~EpochReadGuard() { epoch_->Exit(ticket_); }

  EpochReadGuard(const EpochReadGuard&) = delete;
  EpochReadGuard& operator=(const EpochReadGuard&) = delete;

 private:
  EpochManager* epoch_;
  EpochManager::Ticket ticket_;
};

}  // namespace erq
