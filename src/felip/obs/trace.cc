#include "felip/obs/trace.h"

#ifndef FELIP_OBS_NOOP

#include <vector>

#include "felip/common/check.h"

namespace felip::obs {

namespace {

// Per-thread stack of active span paths (innermost at the back). The
// pointer and the flag are trivially destructible, so they stay readable
// through thread and process teardown. StackReleaser frees the stack when
// the thread's TLS is torn down; a span opened after that (say, a final
// checkpoint run from a static destructor) gets a fresh stack, which
// ReleaseLateStack frees again once its last span ends.
thread_local std::vector<std::string>* t_stack = nullptr;
thread_local bool t_stack_released = false;

struct StackReleaser {
  ~StackReleaser() {
    delete t_stack;
    t_stack = nullptr;
    t_stack_released = true;
  }
};

std::vector<std::string>& SpanStack() {
  if (t_stack == nullptr) {
    t_stack = new std::vector<std::string>;
    if (!t_stack_released) {
      // First use registers the releaser with this thread's TLS
      // destructors.
      thread_local StackReleaser releaser;
      (void)releaser;
    }
  }
  return *t_stack;
}

void ReleaseLateStack() {
  if (t_stack_released && t_stack != nullptr && t_stack->empty()) {
    delete t_stack;
    t_stack = nullptr;
  }
}

}  // namespace

ScopedTimer::ScopedTimer(std::string_view name)
    : ScopedTimer(name, Registry::Default()) {}

ScopedTimer::ScopedTimer(std::string_view name, Registry& registry)
    : registry_(&registry), name_(name) {
  std::vector<std::string>& stack = SpanStack();
  path_ = stack.empty() ? name_ : stack.back() + "/" + name_;
  stack.push_back(path_);
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count());
  std::vector<std::string>& stack = SpanStack();
  FELIP_CHECK_MSG(!stack.empty() && stack.back() == path_,
                  "ScopedTimer spans must end in reverse creation order");
  stack.pop_back();
  ReleaseLateStack();
  registry_->RecordSpan(path_, nanos);
  registry_->GetHistogram(name_ + "_seconds")
      .Observe(static_cast<double>(nanos) * 1e-9);
}

std::string ScopedTimer::CurrentPath() {
  const std::vector<std::string>& stack = SpanStack();
  return stack.empty() ? "" : stack.back();
}

}  // namespace felip::obs

#endif  // FELIP_OBS_NOOP
