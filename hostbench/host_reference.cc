#include "host_reference.hh"

#include <chrono>

namespace hostbench
{

namespace
{

constexpr std::size_t TableWords = std::size_t{1} << 18;   // 1 MiB
/** One word per 64-byte line: the sweep touches every line once. */
constexpr std::size_t LineWords = 64 / sizeof(std::uint32_t);
/** About 4 ms on the nominal host. */
constexpr unsigned DoseSteps = 500000;

} // anonymous namespace

HostReference::HostReference() : table_(TableWords, 1)
{
    dose();
}

std::size_t
HostReference::residentBytes() const
{
    return table_.size() * sizeof(std::uint32_t);
}

double
HostReference::dose()
{
    // Untimed: bring the table back into the caches.
    std::uint64_t warm = 0;
    for (std::size_t i = 0; i < table_.size(); i += LineWords)
        warm += table_[i];

    const auto start = std::chrono::steady_clock::now();
    // xorshift: the state never becomes 0, and its bits decide both
    // the branch and the table slots.
    std::uint64_t x = state_;
    std::uint64_t acc = 0;
    const std::size_t mask = table_.size() - 1;
    for (unsigned i = 0; i < DoseSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::size_t k = x & mask;
        if (x & 0x100) {
            table_[k] += 1;
            acc += table_[(k * 7) & mask];
        } else {
            acc ^= table_[k] >> 1;
        }
    }
    const auto end = std::chrono::steady_clock::now();

    state_ = x;
    sink_ += warm + acc;
    return std::chrono::duration<double>(end - start).count();
}

} // namespace hostbench
