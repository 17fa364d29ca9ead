/**
 * @file
 * A move-only callable wrapper with small-buffer storage.
 *
 * The simulator's hot paths create millions of short-lived callbacks
 * (event-queue entries, request completions). std::function heap-
 * allocates once captures exceed its tiny internal buffer (16 bytes on
 * libstdc++) and drags in RTTI-based manager machinery; InlineFn
 * stores captures up to `InlineFnCapacity` bytes in place, falls back
 * to the heap only beyond that, and supports exactly the operations
 * the simulator needs: construct, move, invoke, destroy, test.
 *
 * Move-only by design — a callback that could be silently copied
 * could also be silently fired twice.
 */

#ifndef NOMAD_SIM_INLINE_FN_HH
#define NOMAD_SIM_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nomad
{

/** Inline capture capacity in bytes; larger callables go to the heap. */
inline constexpr std::size_t InlineFnCapacity = 48;

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)>
{
  public:
    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <typename F,
              std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                      std::is_invocable_r_v<R, std::decay_t<F> &,
                                            Args...>,
                  int> = 0>
    InlineFn(F &&f)
    {
        init(std::forward<F>(f));
    }

    /**
     * Replace the held callable with one built in place from @p f,
     * with no intermediate InlineFn to relocate. If building it
     * throws, this is left empty.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        destroy();
        init(std::forward<F>(f));
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t)
    {
        destroy();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { destroy(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

  private:
    enum class Op
    {
        Relocate, ///< Move-construct into `other`, then destroy self.
        Destroy,
    };

    using Invoke = R (*)(void *, Args...);
    using Manage = void (*)(void *self, void *other, Op);

    template <typename F>
    void
    init(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_))
                Fn(std::forward<F>(f));
            invoke_ = &invokeInline<Fn>;
            manage_ = &manageInline<Fn>;
        } else {
            ::new (static_cast<void *>(buf_))
                (Fn *)(new Fn(std::forward<F>(f)));
            invoke_ = &invokeHeap<Fn>;
            manage_ = &manageHeap<Fn>;
        }
    }

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineFnCapacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static R
    invokeInline(void *s, Args... args)
    {
        return (*static_cast<Fn *>(s))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageInline(void *self, void *other, Op op)
    {
        Fn *f = static_cast<Fn *>(self);
        if (op == Op::Relocate)
            ::new (other) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static R
    invokeHeap(void *s, Args... args)
    {
        return (**static_cast<Fn **>(s))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    manageHeap(void *self, void *other, Op op)
    {
        Fn **p = static_cast<Fn **>(self);
        if (op == Op::Relocate)
            ::new (other) (Fn *)(*p);
        else
            delete *p;
    }

    void
    moveFrom(InlineFn &other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (invoke_) {
            other.manage_(other.buf_, buf_, Op::Relocate);
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    void
    destroy()
    {
        if (invoke_) {
            manage_(buf_, nullptr, Op::Destroy);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[InlineFnCapacity];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

template <typename R, typename... Args>
bool
operator==(const InlineFn<R(Args...)> &f, std::nullptr_t)
{
    return !static_cast<bool>(f);
}

template <typename R, typename... Args>
bool
operator!=(const InlineFn<R(Args...)> &f, std::nullptr_t)
{
    return static_cast<bool>(f);
}

} // namespace nomad

#endif // NOMAD_SIM_INLINE_FN_HH
