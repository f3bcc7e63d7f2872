// Counts thread creation by interposing pthread_create at the driver's own
// link step: the executable's definition wins symbol resolution over
// libc's, so every thread the library starts (RunShards, the server
// workers) passes through here.
#include <dlfcn.h>
#include <pthread.h>

#include <atomic>
#include <cstdint>

namespace {

std::atomic<uint64_t> g_threads_spawned{0};

using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                        void*);

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  static const CreateFn real =
      reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  // ordering: relaxed — a statistic read only after the counted threads
  // have been joined.
  g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace perfbench {

uint64_t ThreadsSpawned() {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

}  // namespace perfbench
