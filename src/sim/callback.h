#ifndef DLOG_SIM_CALLBACK_H_
#define DLOG_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dlog::sim {

namespace internal {

/// Thread-local slab pool for callback captures that do not fit inline.
/// Blocks are a fixed size; anything larger falls back to operator new.
/// Per-thread (not global) so concurrent simulations (trial-runner
/// workers) never contend. A block freed on a different thread than it
/// was allocated simply joins the freeing thread's cache; see
/// callback.cc for why that is safe.
void* PoolAllocate(size_t bytes);
void PoolFree(void* p, size_t bytes);
constexpr size_t kPoolBlockBytes = 256;

}  // namespace internal

/// A move-only `void()` callable with small-buffer optimization, the
/// event-callback type of the simulator. Captures up to kInlineBytes are
/// stored inline in the object — scheduling such an event performs no
/// heap allocation. Larger captures are moved to a block from a
/// thread-local slab pool (see internal::PoolAllocate).
///
/// Unlike std::function it is move-only (so captures can hold unique_ptr
/// and friends) and never throws bad_function_call: invoking an empty
/// Callback is a no-op.
class Callback {
 public:
  /// Chosen to cover the engine's hot captures (a couple of pointers plus
  /// a packet/payload handle) while keeping queue slots compact.
  static constexpr size_t kInlineBytes = 48;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT: mirror std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      void* block;
      if (sizeof(Fn) <= internal::kPoolBlockBytes) {
        block = internal::PoolAllocate(sizeof(Fn));
      } else {
        block = ::operator new(sizeof(Fn));
      }
      ::new (block) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(storage_) = block;
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  /// Invokes the target; empty callbacks are a no-op.
  void operator()() {
    if (ops_ != nullptr) ops_->invoke(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Moves the target from one storage slot to another and destroys the
    /// source. For heap/pool targets this just moves the block pointer.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); }
    static void Relocate(void* from, void* to) {
      Fn* src = std::launder(reinterpret_cast<Fn*>(from));
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(void* s) {
      std::launder(reinterpret_cast<Fn*>(s))->~Fn();
    }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Target(void* s) {
      return static_cast<Fn*>(*reinterpret_cast<void**>(s));
    }
    static void Invoke(void* s) { (*Target(s))(); }
    static void Relocate(void* from, void* to) {
      *reinterpret_cast<void**>(to) = *reinterpret_cast<void**>(from);
    }
    static void Destroy(void* s) {
      Fn* target = Target(s);
      target->~Fn();
      if constexpr (sizeof(Fn) <= internal::kPoolBlockBytes) {
        internal::PoolFree(target, sizeof(Fn));
      } else {
        ::operator delete(target);
      }
    }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace dlog::sim

#endif  // DLOG_SIM_CALLBACK_H_
