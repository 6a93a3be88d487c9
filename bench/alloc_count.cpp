/**
 * @file
 * Allocation counting for bench/sim_speedup: every heap allocation
 * made by that binary goes through these global operator new/delete
 * overrides, and heapAllocs() lets the harness report allocations per
 * event/object in its measured regions.
 *
 * The overrides live in their own translation unit so the compiler
 * cannot inline them into callers, where GCC would otherwise pair an
 * inlined aligned_alloc/malloc with the replaced delete's free() and
 * report -Wmismatched-new-delete.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace netdimm::bench
{
std::uint64_t heapAllocs();
}

namespace
{
std::atomic<std::uint64_t> g_heapAllocs{0};
}

std::uint64_t
netdimm::bench::heapAllocs()
{
    return g_heapAllocs.load();
}

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    ++g_heapAllocs;
    std::size_t a = static_cast<std::size_t>(al);
    std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
