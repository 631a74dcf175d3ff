#include "vtime/engine.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

// ASan must be told about stack switches: it tracks the current stack
// region to classify addresses. Without these hooks the ASan CI build
// reports false stack-use-after-return errors on every handoff.
#if defined(__SANITIZE_ADDRESS__)
#define GPUDDT_ENGINE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GPUDDT_ENGINE_ASAN 1
#endif
#endif
#if defined(GPUDDT_ENGINE_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace gpuddt::vt {
namespace {

enum class TaskState { kRunnable, kBlocked, kFinished };

struct Continuation {
  ucontext_t ctx{};
  void* map_base = nullptr;      // mmap region (guard page + stack)
  std::size_t map_bytes = 0;
  void* stack_lo = nullptr;      // usable stack (above the guard page)
  std::size_t stack_bytes = 0;
  TaskState state = TaskState::kRunnable;
  bool pending = false;          // undelivered message flag
  bool started = false;
  std::exception_ptr error;
};

}  // namespace

struct EventEngine::Impl {
  int ntasks = 0;
  Options opts;
  std::vector<Continuation> tasks;
  ucontext_t main_ctx{};
  const std::function<void(int)>* body = nullptr;
  BlockDescriber describer;
  std::function<Time(int)> clock_probe;
  EngineStats st;

  int active = -1;       // task currently executing (-1 = event loop)
  bool deadlock = false; // set once the loop proves no progress is possible
  std::string deadlock_report;
  bool running = false;

#if defined(GPUDDT_ENGINE_ASAN)
  // Fake-stack handle saved when the *event loop* switches away; the
  // matching finish call runs when control returns to the loop. Each
  // continuation saves its own handle in a stack local across its
  // swapcontext call, but the loop switches into many fibers, so its
  // handle lives here.
  void* loop_fake_stack = nullptr;
  // Bounds of the event loop's own stack, reported by ASan on the first
  // entry into a fiber; every fiber->loop switch names them as the
  // destination so ASan tracks the correct current stack while the loop
  // (and anything it rethrows into) executes.
  const void* main_stack_bottom = nullptr;
  std::size_t main_stack_size = 0;
#endif

  void switch_out_of_task(int task);
  void switch_into_task(int task);
  void entry(int task);
  int next_runnable_after(int from) const;
  void dispatch_loop();
  [[noreturn]] void throw_deadlock() const;
  std::string compose_deadlock_report() const;
};

namespace {

// makecontext only forwards ints, so the Impl pointer travels as two
// halves and is reassembled in the trampoline.
void trampoline(unsigned hi, unsigned lo, unsigned task) {
  auto bits = (static_cast<std::uintptr_t>(hi) << 32U) |
              static_cast<std::uintptr_t>(lo);
  reinterpret_cast<EventEngine::Impl*>(bits)->entry(static_cast<int>(task));
}

}  // namespace

EventEngine::EventEngine(int ntasks, Options opts)
    : impl_(std::make_unique<Impl>()) {
  if (ntasks <= 0) {
    throw std::invalid_argument("EventEngine: ntasks must be positive");
  }
  impl_->ntasks = ntasks;
  impl_->opts = opts;
}

EventEngine::~EventEngine() {
  for (auto& c : impl_->tasks) {
    if (c.map_base != nullptr) {
      ::munmap(c.map_base, c.map_bytes);
    }
  }
}

void EventEngine::set_block_describer(BlockDescriber d) {
  impl_->describer = std::move(d);
}

void EventEngine::set_clock_probe(std::function<Time(int)> probe) {
  impl_->clock_probe = std::move(probe);
}

EngineStats EventEngine::stats() const { return impl_->st; }

void EventEngine::run(const std::function<void(int)>& body) {
  Impl& im = *impl_;
  if (im.running || !im.tasks.empty()) {
    throw std::logic_error("EventEngine::run: engine already used");
  }
  im.running = true;
  im.body = &body;

  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t stack_bytes = im.opts.stack_bytes;
  stack_bytes = ((stack_bytes + page - 1) / page) * page;

  im.tasks.resize(static_cast<std::size_t>(im.ntasks));
  for (int t = 0; t < im.ntasks; ++t) {
    Continuation& c = im.tasks[static_cast<std::size_t>(t)];
    c.map_bytes = stack_bytes + page;  // one guard page below the stack
    void* base = ::mmap(nullptr, c.map_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      throw std::runtime_error("EventEngine: mmap of continuation stack "
                               "failed (raise ulimit -v or lower "
                               "sim_stack_bytes)");
    }
    c.map_base = base;
    if (::mprotect(base, page, PROT_NONE) != 0) {
      throw std::runtime_error("EventEngine: mprotect(guard page) failed");
    }
    c.stack_lo = static_cast<char*>(base) + page;
    c.stack_bytes = stack_bytes;

    if (::getcontext(&c.ctx) != 0) {
      throw std::runtime_error("EventEngine: getcontext failed");
    }
    c.ctx.uc_stack.ss_sp = c.stack_lo;
    c.ctx.uc_stack.ss_size = c.stack_bytes;
    c.ctx.uc_link = nullptr;  // bodies never fall off the trampoline
    auto bits = reinterpret_cast<std::uintptr_t>(&im);
    ::makecontext(&c.ctx, reinterpret_cast<void (*)()>(trampoline), 3,
                  static_cast<unsigned>(bits >> 32U),
                  static_cast<unsigned>(bits & 0xffffffffU),
                  static_cast<unsigned>(t));
  }

  im.dispatch_loop();
  im.running = false;

  // Surface the lowest-id failing task's exception.
  for (auto& c : im.tasks) {
    if (c.error) {
      std::rethrow_exception(c.error);
    }
  }
}

// The event loop: repeatedly dispatch the unique next event — the first
// runnable task after the one that last ran, in cyclic id order (the
// cooperative rotation). `last` starts at ntasks-1 so the first dispatch
// is task 0.
void EventEngine::Impl::dispatch_loop() {
  int last = ntasks - 1;
  for (;;) {
    const int next = next_runnable_after(last);
    if (next >= 0) {
      switch_into_task(next);
      last = next;
      continue;
    }
    bool any_blocked = false;
    for (const auto& c : tasks) {
      any_blocked = any_blocked || c.state == TaskState::kBlocked;
    }
    if (!any_blocked) {
      return;  // every task finished
    }
    // No task is runnable but some are blocked: exact deadlock. Compose
    // the report once, then resume each blocked task so it throws
    // DeadlockError from its wait site.
    deadlock_report = compose_deadlock_report();
    deadlock = true;
    for (int t = 0; t < ntasks; ++t) {
      if (tasks[static_cast<std::size_t>(t)].state == TaskState::kBlocked) {
        switch_into_task(t);
      }
    }
    return;
  }
}

int EventEngine::Impl::next_runnable_after(int from) const {
  for (int i = 1; i <= ntasks; ++i) {
    const int r = (from + i) % ntasks;
    if (tasks[static_cast<std::size_t>(r)].state == TaskState::kRunnable) {
      return r;
    }
  }
  return -1;
}

// Resume `task` on its own stack; returns when the task suspends again.
void EventEngine::Impl::switch_into_task(int task) {
  Continuation& c = tasks[static_cast<std::size_t>(task)];
  active = task;
  ++st.dispatches;
  if (clock_probe) {
    const Time now = clock_probe(task);
    st.max_vtime = now > st.max_vtime ? now : st.max_vtime;
  }
  c.started = true;
#if defined(GPUDDT_ENGINE_ASAN)
  __sanitizer_start_switch_fiber(&loop_fake_stack, c.stack_lo, c.stack_bytes);
#endif
  if (::swapcontext(&main_ctx, &c.ctx) != 0) {
    throw std::runtime_error("EventEngine: swapcontext into task failed");
  }
#if defined(GPUDDT_ENGINE_ASAN)
  __sanitizer_finish_switch_fiber(loop_fake_stack, nullptr, nullptr);
#endif
  active = -1;
}

// Suspend the currently-running `task` back to the event loop; returns
// when the loop next dispatches this task.
void EventEngine::Impl::switch_out_of_task(int task) {
  Continuation& c = tasks[static_cast<std::size_t>(task)];
  const bool dying = c.state == TaskState::kFinished;
#if defined(GPUDDT_ENGINE_ASAN)
  void* fake = nullptr;
  // A finished continuation never resumes: pass nullptr so ASan releases
  // its fake-stack bookkeeping instead of waiting for a resume.
  __sanitizer_start_switch_fiber(dying ? nullptr : &fake, main_stack_bottom,
                                 main_stack_size);
#else
  (void)dying;
#endif
  if (::swapcontext(&c.ctx, &main_ctx) != 0) {
    throw std::runtime_error("EventEngine: swapcontext to loop failed");
  }
#if defined(GPUDDT_ENGINE_ASAN)
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}

void EventEngine::Impl::entry(int task) {
#if defined(GPUDDT_ENGINE_ASAN)
  // Complete the fiber switch the event loop started for our first
  // dispatch (no prior save on this brand-new stack). The out-params
  // report the stack we came from - the event loop's - which later
  // fiber->loop switches must name as their destination.
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom,
                                  &main_stack_size);
#endif
  Continuation& c = tasks[static_cast<std::size_t>(task)];
  try {
    (*body)(task);
  } catch (...) {
    c.error = std::current_exception();
  }
  c.state = TaskState::kFinished;
  switch_out_of_task(task);
  // Unreachable: a finished continuation is never redispatched.
  std::abort();
}

void EventEngine::Impl::throw_deadlock() const {
  throw DeadlockError(deadlock_report);
}

// One line per blocked task with its pending-operation summary from the
// describer (task ids only when no describer is installed).
std::string EventEngine::Impl::compose_deadlock_report() const {
  std::string out =
      "deadlock detected: no rank is runnable and no message can arrive; "
      "blocked ranks:";
  for (int t = 0; t < ntasks; ++t) {
    if (tasks[static_cast<std::size_t>(t)].state != TaskState::kBlocked) {
      continue;
    }
    out += "\n  rank " + std::to_string(t);
    if (describer) {
      out += ": " + describer(t);
    }
  }
  return out;
}

void EventEngine::wait_for_message(int task) {
  Impl& im = *impl_;
  Continuation& c = im.tasks[static_cast<std::size_t>(task)];
  if (c.pending) {
    c.pending = false;
    return;
  }
  c.state = TaskState::kBlocked;
  im.switch_out_of_task(task);
  if (im.deadlock) {
    im.throw_deadlock();
  }
  c.pending = false;
}

void EventEngine::yield(int task) {
  Impl& im = *impl_;
  // Stay runnable; suspending hands the rotation to the next runnable
  // task. With no other runnable task a yield returns without switching.
  if (im.next_runnable_after(task) == task) {
    return;
  }
  ++im.st.yields;
  im.switch_out_of_task(task);
  if (im.deadlock) {
    im.throw_deadlock();
  }
}

void EventEngine::note_message(int task) {
  Impl& im = *impl_;
  Continuation& c = im.tasks[static_cast<std::size_t>(task)];
  c.pending = true;
  ++im.st.wakeups;
  if (c.state == TaskState::kBlocked) {
    c.state = TaskState::kRunnable;
  }
}

}  // namespace gpuddt::vt
