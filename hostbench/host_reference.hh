/**
 * @file
 * The host-speed reference: a fixed dose of benchmark-owned work whose
 * host time tracks how fast the host runs simulator-like code at the
 * moment. The end-to-end times are divided by it, so that a host that
 * runs everything 30% slower for ten minutes -- neighbours on the
 * shared caches, a lower clock -- does not read as a slower simulator.
 *
 * The dose is the kind of work the simulator's cycle loop is made of:
 * data-dependent branches that read and update a 1 MiB table. Of the
 * kernels tried (a dependent integer chain, these branches, and
 * dependent loads over a 1 MiB and a 16 MiB ring), this one tracked
 * the simulator's slow phases most closely on both benchmarked
 * workloads; the 1 MiB ring swung half again as far as the simulator,
 * the others a fifth to a third as far (README.md, "Host-speed
 * scaling"). The table is swept before the timed part, so what the
 * previous job left in the caches does not change the dose's time.
 * None of it calls simulator code, so a change to the simulator
 * cannot move it.
 */

#ifndef HOSTBENCH_HOST_REFERENCE_HH
#define HOSTBENCH_HOST_REFERENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hostbench
{

class HostReference
{
  public:
    /**
     * The median dose time, between simulator jobs, on the host the
     * benchmark was tuned on (a 4-vCPU Xeon VM at 2.0 GHz) in its
     * faster phases, so that scaled times read as that host's seconds.
     */
    static constexpr double NominalDoseSeconds = 0.004;

    /** Allocates and fills the table; the first dose is a warm-up. */
    HostReference();

    /** Run one dose; returns its host seconds. */
    double dose();

    /** Bytes the reference keeps resident for the whole run. */
    std::size_t residentBytes() const;

  private:
    std::vector<std::uint32_t> table_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;   ///< never 0
    std::uint64_t sink_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_HOST_REFERENCE_HH
