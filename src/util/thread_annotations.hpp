#pragma once
// Clang thread-safety annotation macros (DESIGN.md §8.4) plus a thin
// capability-annotated mutex wrapper. Under clang the macros expand to the
// `__attribute__((...))` family consumed by -Wthread-safety, turning the
// locking discipline documented here into a compile-time check; under every
// other compiler they expand to nothing, so the annotated code builds
// unchanged with gcc. The `lint` CMake preset (PSCHED_THREAD_SAFETY=ON)
// promotes the analysis to -Werror=thread-safety on clang builds.
//
// Two kinds of marker live here:
//
//  * Real capabilities (PSCHED_GUARDED_BY, PSCHED_REQUIRES, ...): checkable
//    claims about data protected by a util::Mutex. Use these for anything
//    accessed from more than one thread (ThreadPool's open-batch list, the
//    recorder's trace sink).
//  * PSCHED_CONFINED_TO(description): a documentation-only marker for state
//    that is single-threaded by construction — the selector's coordinator
//    state, the invariant checker's observer hooks. It expands to nothing
//    under every compiler on purpose: inventing a fake capability for
//    "the coordinating thread" would make the clang analysis claim to verify
//    an invariant it cannot see. Confinement is instead enforced by the
//    determinism tests (bit-identical results across eval_threads widths).

#if defined(__clang__)
#define PSCHED_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PSCHED_THREAD_ANNOTATION(x)
#endif

#define PSCHED_CAPABILITY(x) PSCHED_THREAD_ANNOTATION(capability(x))
#define PSCHED_SCOPED_CAPABILITY PSCHED_THREAD_ANNOTATION(scoped_lockable)
#define PSCHED_GUARDED_BY(x) PSCHED_THREAD_ANNOTATION(guarded_by(x))
#define PSCHED_PT_GUARDED_BY(x) PSCHED_THREAD_ANNOTATION(pt_guarded_by(x))
#define PSCHED_ACQUIRE(...) \
  PSCHED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PSCHED_RELEASE(...) \
  PSCHED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PSCHED_TRY_ACQUIRE(...) \
  PSCHED_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PSCHED_REQUIRES(...) \
  PSCHED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PSCHED_EXCLUDES(...) PSCHED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PSCHED_ASSERT_CAPABILITY(x) PSCHED_THREAD_ANNOTATION(assert_capability(x))
#define PSCHED_RETURN_CAPABILITY(x) PSCHED_THREAD_ANNOTATION(lock_returned(x))
#define PSCHED_NO_THREAD_SAFETY_ANALYSIS \
  PSCHED_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documentation-only confinement marker: the member (or method) is touched
/// exclusively by the named logical thread, so no lock guards it. Always
/// expands to nothing — see the file comment for why this is deliberate.
#define PSCHED_CONFINED_TO(thread_description)

#include <mutex>

namespace psched::util {

/// std::mutex with the `capability` annotation so PSCHED_GUARDED_BY members
/// can name it. Satisfies BasicLockable; pair with MutexLock (or lock/unlock
/// directly in the rare manual case).
class PSCHED_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PSCHED_ACQUIRE() { m_.lock(); }
  void unlock() PSCHED_RELEASE() { m_.unlock(); }
  bool try_lock() PSCHED_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// RAII scoped lock over Mutex, annotated as a scoped capability. Not
/// movable: a moved-from scoped capability is exactly the state the
/// analysis cannot model.
class PSCHED_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) PSCHED_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() PSCHED_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace psched::util
