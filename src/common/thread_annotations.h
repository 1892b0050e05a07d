#pragma once

// Clang thread-safety (capability) analysis annotations, after the scheme
// used by abseil and the Clang documentation:
//   https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
//
// The macros expand to Clang attributes when the compiler supports them
// (clang with -Wthread-safety) and to nothing elsewhere (gcc, msvc), so
// annotated code stays portable. The analysis is purely static: a member
// declared ERQ_GUARDED_BY(mu_) may only be touched while mu_ is held, and
// a method declared ERQ_REQUIRES(mu_) may only be called with mu_ held —
// violations are compile errors under -Werror=thread-safety.
//
// The project rule is that every mutex-protected member carries
// ERQ_GUARDED_BY and every method with a locking precondition carries
// ERQ_REQUIRES; `tools/check.sh clang` builds with the analysis enabled.

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define ERQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ERQ_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

// On a struct/class: the type is a capability ("mutex") that code can
// hold, acquire, and release.
#define ERQ_CAPABILITY(x) ERQ_THREAD_ANNOTATION_(capability(x))

// On an RAII class whose constructor acquires and destructor releases.
#define ERQ_SCOPED_CAPABILITY ERQ_THREAD_ANNOTATION_(scoped_lockable)

// On a data member: may only be read or written while `x` is held.
#define ERQ_GUARDED_BY(x) ERQ_THREAD_ANNOTATION_(guarded_by(x))

// On a pointer member: the pointed-to data is protected by `x`.
#define ERQ_PT_GUARDED_BY(x) ERQ_THREAD_ANNOTATION_(pt_guarded_by(x))

// On a function: caller must hold `...`.
#define ERQ_REQUIRES(...) \
  ERQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the capability.
#define ERQ_ACQUIRE(...) \
  ERQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ERQ_RELEASE(...) \
  ERQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define ERQ_TRY_ACQUIRE(...) \
  ERQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// On a function: caller must NOT hold `...` (deadlock prevention).
#define ERQ_EXCLUDES(...) ERQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Lock-ordering declarations on mutex members. The project's deadlock-
// freedom discipline (DESIGN.md §"Lock hierarchy & deadlock freedom"):
// every mutex in src/ declares its place in the global hierarchy with
// ERQ_ACQUIRED_AFTER(<its own lock_order:: anchor>) and documents the
// cross-module locks it is known to precede with ERQ_ACQUIRED_BEFORE.
// tools/lock_lint.py checks the declarations against the acquisition
// graph it extracts from the whole tree; the runtime validator
// (ERQ_DEBUG_LOCK_ORDER) enforces the same order on every acquisition.
#define ERQ_ACQUIRED_BEFORE(...) \
  ERQ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ERQ_ACQUIRED_AFTER(...) \
  ERQ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// On a function returning a reference to a guarded member.
#define ERQ_RETURN_CAPABILITY(x) ERQ_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for code the analysis cannot follow.
#define ERQ_NO_THREAD_SAFETY_ANALYSIS \
  ERQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace erq {

/// A level in the global lock hierarchy (DESIGN.md §"Lock hierarchy &
/// deadlock freedom"). Ranks are pseudo-capabilities: they are never
/// locked themselves, they exist to be (a) named in ERQ_ACQUIRED_AFTER /
/// ERQ_ACQUIRED_BEFORE annotations on mutex declarations, (b) passed to
/// the ranked Mutex constructor so the ERQ_DEBUG_LOCK_ORDER
/// runtime validator knows each lock's level, and (c) parsed by
/// tools/lock_lint.py. The one rule: a thread may acquire a mutex only
/// while every lock it already holds has a strictly lower level. The
/// canonical rank table lives in common/lock_order.h.
struct ERQ_CAPABILITY("lock_rank") LockRank {
  int level;         ///< position in the hierarchy; acquisition order ascends
  const char* name;  ///< anchor name, used in diagnostics
};

namespace debug_lock_order {

/// True when the runtime lock-order validator is compiled in
/// (-DERQ_DEBUG_LOCK_ORDER=ON; the TSan CI job builds with it).
constexpr bool Enabled() {
#ifdef ERQ_DEBUG_LOCK_ORDER
  return true;
#else
  return false;
#endif
}

/// One out-of-order acquisition, reported while the offending lock is
/// still an acquisition *attempt* (the check runs before blocking, so a
/// real inversion is diagnosed instead of deadlocking).
struct Violation {
  int held_level;             ///< level of the already-held lock
  const char* held_name;      ///< its rank anchor name
  int acquired_level;         ///< level of the lock being acquired
  const char* acquired_name;  ///< its rank anchor name
};

/// Violation sink. The default handler prints the two ranks and aborts;
/// tests swap in a recording handler. Process-wide, not synchronized —
/// install handlers before spawning threads.
using Handler = void (*)(const Violation&);

/// Installs `handler` (nullptr restores the default) and returns the
/// previous one.
Handler SetViolationHandler(Handler handler);

/// Locks the calling thread currently holds that carry a rank (always 0
/// when the validator is compiled out).
size_t HeldCount();

/// Validator entry points, called by Mutex under
/// ERQ_DEBUG_LOCK_ORDER. `rank` may be null (unranked mutexes — e.g.
/// test-local ones — are tracked for release pairing but never checked).
/// `checked` is false for try-acquisitions, which cannot deadlock.
void OnAcquire(const void* mutex, const LockRank* rank, bool checked);
void OnRelease(const void* mutex);

}  // namespace debug_lock_order

#ifdef ERQ_DEBUG_LOCK_ORDER
#define ERQ_DLO_ACQUIRE_(mu, rank, checked) \
  ::erq::debug_lock_order::OnAcquire(mu, rank, checked)
#define ERQ_DLO_RELEASE_(mu) ::erq::debug_lock_order::OnRelease(mu)
#else
#define ERQ_DLO_ACQUIRE_(mu, rank, checked) ((void)0)
#define ERQ_DLO_RELEASE_(mu) ((void)0)
#endif

/// std::mutex wrapper carrying the capability annotations. The analysis
/// only understands annotated types, so shared state must use erq::Mutex
/// (std::mutex members are invisible to it).
///
/// The ranked constructor places the mutex in the global lock hierarchy;
/// every mutex in src/ must use it (tools/lock_lint.py enforces this).
/// Under ERQ_DEBUG_LOCK_ORDER each acquisition is checked against a
/// thread-local stack of held levels *before* blocking, so a lock-order
/// inversion raises a diagnostic instead of a silent deadlock.
class ERQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Ranked constructor: `rank` must outlive the mutex (the lock_order::
  /// anchors are process-lifetime constants).
  explicit Mutex(const LockRank& rank) : rank_(&rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ERQ_ACQUIRE() {
    ERQ_DLO_ACQUIRE_(this, rank_, /*checked=*/true);
    mu_.lock();
  }
  void Unlock() ERQ_RELEASE() {
    mu_.unlock();
    ERQ_DLO_RELEASE_(this);
  }
  bool TryLock() ERQ_TRY_ACQUIRE(true) {
    // A try-acquisition cannot deadlock, so it is tracked (for release
    // pairing and as held context for later acquisitions) but not checked.
    if (!mu_.try_lock()) return false;
    ERQ_DLO_ACQUIRE_(this, rank_, /*checked=*/false);
    return true;
  }

 private:
  std::mutex mu_;
  const LockRank* rank_ = nullptr;
};

/// RAII lock for erq::Mutex — the annotated analogue of std::lock_guard.
class ERQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ERQ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() ERQ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace erq
