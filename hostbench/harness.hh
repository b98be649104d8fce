/**
 * @file
 * The simulator host-speed benchmark's harness: runs a workload's jobs
 * one at a time through the same public calls sim::runJob makes,
 * times each call, checks each job's simulated output, and -- in a
 * separate traced pass -- drives a replica System from outside with
 * the calls System::run makes, to split its host time across the
 * ev8, vbox, cache, mem and system layers.
 *
 * Nothing here changes simulator code: it links the simulator
 * libraries and calls only their public functions.
 */

#ifndef HOSTBENCH_HARNESS_HH
#define HOSTBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "exec/memory.hh"
#include "host_reference.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace hostbench
{

using Clock = std::chrono::steady_clock;

/** One job: a machine, a core count and its workload placement. */
struct JobSpec
{
    std::string machine;
    unsigned cores = 1;
    /** Registry workload names, comma-separated, replicated
     *  cyclically over the cores exactly as sim::Job::workload is. */
    std::string placement;

    /** "machine/cores/placement": the golden-table and report key. */
    std::string key() const;
};

/** A benchmark workload: a named, fixed list of jobs. */
struct WorkloadSpec
{
    std::string name;
    std::vector<JobSpec> jobs;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadTable();

/** The simulated counts a job must reproduce. */
struct Counts
{
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t ops = 0;
    std::uint64_t flops = 0;
    std::uint64_t memops = 0;

    bool operator==(const Counts &) const = default;
};

/**
 * The rows of a tarantula.golden.v1 file (tests/golden_stats.json),
 * keyed by JobSpec::key(). Rows under a VM knob are skipped: the
 * benchmark runs the default machine only.
 * @throws std::runtime_error when the file is missing or malformed.
 */
std::map<std::string, Counts> readGolden(const std::string &path);

/** Host seconds spent in each public call of one job. */
struct CallTimes
{
    double build = 0;      ///< workloads::byName
    double init = 0;       ///< Workload::init
    double construct = 0;  ///< sys::System constructor
    double warm = 0;       ///< L2Cache::warmLine over the warm ranges
    double run = 0;        ///< System::run
    double check = 0;      ///< Workload::check
    double report = 0;     ///< StatGroup::reportJson
    double record = 0;     ///< sim::writeJobRecord to memory

    /** The per-job setup every user pays. */
    double
    setup() const
    {
        return build + init + construct + warm;
    }
};

/**
 * Spans kept in memory and written once, after the last timed pass.
 * Coarse calls (setup, run, check, ...) are one span each. The
 * per-cycle calls of the traced loop would be millions of spans per
 * job, so each is kept as one total per (job, name): its call count
 * and summed seconds, parented to the loop span.
 */
class SpanLog
{
  public:
    /** Register a job; returns its id for the spans. */
    int addJob(unsigned pass, const JobSpec &spec);
    /** Record a finished span; returns its id (a parent for others). */
    int add(std::string name, int job, int parent, Clock::time_point t0,
            Clock::time_point t1);
    void total(std::string name, int job, int parent,
               std::uint64_t calls, double seconds);
    /** The hostbench.spans.v1 document: jobs, spans and totals. */
    void writeJson(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        int job = -1;
        int parent = -1;
        double start = 0;   ///< seconds since the log was created
        double end = 0;
    };
    struct Total
    {
        std::string name;
        int job = -1;
        int parent = -1;
        std::uint64_t calls = 0;
        double seconds = 0;
    };

    Clock::time_point origin_ = Clock::now();
    std::vector<std::pair<unsigned, JobSpec>> jobs_;
    std::vector<Span> spans_;
    std::vector<Total> totals_;
};

/**
 * One job's machine, built the way sim::runJob builds it: registry
 * workloads, initialized memory images, the System and its warmed
 * L2. Each call is timed into @p times and, when @p log is given,
 * recorded as a span of job @p job.
 */
class Machine
{
  public:
    Machine(const JobSpec &spec, CallTimes &times,
            SpanLog *log = nullptr, int job = -1);

    tarantula::sys::System &system() { return *sys_; }
    /** Workload::check on every core; "" when every core passes. */
    std::string check();

  private:
    // Deques: the System holds pointers into both.
    std::deque<tarantula::workloads::Workload> ws_;
    std::deque<tarantula::exec::FunctionalMemory> mems_;
    std::unique_ptr<tarantula::sys::System> sys_;
};

/** Retirement counts of a finished machine at cycle @p cycles. */
Counts countsOf(tarantula::sys::System &sys, tarantula::Cycle cycles);

/** Host time and counts of the traced loop, summed over its jobs. */
struct LoopProfile
{
    double loop = 0;     ///< traced loop wall time, bench.probe excluded
    double ev8 = 0;      ///< Core::cycle
    double vbox = 0;     ///< Vbox::cycle
    double cache = 0;    ///< L2Cache::cycle
    double mem = 0;      ///< Zbox::cycle
    double horizon = 0;  ///< nextEventCycle() quiescence queries
    double ff = 0;       ///< fastForward() jumps
    double probe = 0;    ///< the benchmark's own idle-tick probes
    std::uint64_t steps = 0;       ///< cycles stepped
    std::uint64_t jumps = 0;       ///< fast-forward jumps
    std::uint64_t skipped = 0;     ///< cycles fast-forwarded
    std::uint64_t coreTicks = 0;   ///< Core::cycle calls
    std::uint64_t vboxTicks = 0;   ///< Vbox::cycle calls
    std::uint64_t ev8Idle = 0;     ///< ...whose horizon was past the cycle
    std::uint64_t vboxIdle = 0;
    std::uint64_t cacheIdle = 0;
    std::uint64_t memIdle = 0;

    LoopProfile &operator+=(const LoopProfile &o);

    /** Loop time outside every timed call: system.other_s. */
    double
    other() const
    {
        return loop - (ev8 + vbox + cache + mem + horizon + ff);
    }
};

/**
 * Run @p sys to completion from outside: the quiescence jump from
 * every component's nextEventCycle() and fastForward(), then
 * Zbox::cycle, L2Cache::cycle and each core's Vbox::cycle and
 * Core::cycle in the cycle-rotated order -- the calls System::run and
 * System::step make, in their order, with System::run's clamps and
 * deadlock watchdog. Each call is timed into @p prof. It must compute
 * exactly what sys.run(max_cycles) would; a change to System::run's
 * stepping policy that this loop does not copy shows up as a change
 * in bench.trace_overhead, or as a failed identity check.
 *
 * Requires the default engine: fast-forward on, no integrity sweeps
 * and no sampler (std::invalid_argument otherwise).
 * @return the final cycle.
 */
tarantula::Cycle steppedRun(tarantula::sys::System &sys,
                            std::uint64_t max_cycles, LoopProfile &prof);

/** Measured values by metric name: one traced pass's, or a run's
 *  end-to-end values. */
using Sample = std::map<std::string, double>;

/**
 * Runs one workload's jobs, pass after pass, and checks each job's
 * output: Workload::check on every core, then cycles, insts, ops,
 * flops and memops against the expected table (a job without a row
 * is checked against its own first repetition, stats digest
 * included). A job whose check fails is a failed operation.
 */
class Runner
{
  public:
    Runner(std::vector<JobSpec> jobs, std::map<std::string, Counts> expected,
           std::uint64_t seed);

    /** Every job once, untraced, timing each job's wall, System::run
     *  and set-up seconds; a host-reference dose follows each job. */
    void untracedPass(unsigned pass);
    /** Build every job's machine once without running it, timing its
     *  set-up seconds. */
    void setupRound(unsigned round);
    /**
     * wall_s, sim_mcps and setup_s of the passes and rounds so far:
     * each job's median over its repetitions, summed over the jobs,
     * then scaled to the nominal host by the run's host-speed factor,
     * HostReference::NominalDoseSeconds over the median dose. Per-job
     * medians drop a slow second that hits one job of one pass, which
     * a median of pass totals would keep. The unscaled values and the
     * factor are in the sample too, as raw_wall_s, raw_sim_mcps,
     * raw_setup_s and host_speed.
     */
    Sample endToEnd() const;
    /** Every job once with the traced loop: the per-layer metrics. */
    Sample tracedPass(unsigned pass);

    /** The job order of pass @p pass: a seeded permutation. */
    std::vector<std::size_t> order(unsigned pass) const;

    unsigned attempted() const { return attempted_; }
    unsigned failed() const { return static_cast<unsigned>(errors_.size()); }
    const std::vector<std::string> &errors() const { return errors_; }
    const SpanLog &spans() const { return log_; }
    const HostReference &reference() const { return ref_; }

  private:
    /** Count one attempted job; record @p error as a failure. */
    void settle_(const JobSpec &spec, const std::string &error);
    /** "" when @p got matches the expected counts and digest. */
    std::string verify_(const JobSpec &spec, const Counts &got,
                        std::uint64_t digest);

    /** One job's untraced repetitions. */
    struct Reps
    {
        std::vector<double> wall, run, setup;
        std::uint64_t cycles = 0;
    };

    std::vector<JobSpec> jobs_;
    std::vector<Reps> reps_;    ///< by index into jobs_
    std::map<std::string, Counts> expected_;
    std::map<std::string, std::uint64_t> digests_;
    std::uint64_t seed_;
    unsigned attempted_ = 0;
    std::vector<std::string> errors_;
    SpanLog log_;
    HostReference ref_;
    std::vector<double> doses_;   ///< seconds of each reference dose
};

/** A metric the result line reports. */
struct MetricDecl
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (--trace 0), in BENCHMARK.json order. */
const std::vector<MetricDecl> &endToEndMetrics();
/** The per-layer metrics (--trace 1), in BENCHMARK.json order. */
const std::vector<MetricDecl> &perLayerMetrics();

/** This process's peak resident set so far, in MiB. */
double peakRssMb();

/** Median of @p name over the samples that measured it. */
double medianOf(const std::vector<Sample> &samples, const std::string &name);

/**
 * The result line: {"correct", "attempted", "failed", "metrics"},
 * each declared metric the median of its samples, with its unit.
 * @throws std::logic_error when a declared metric was never measured.
 */
std::string resultLine(const std::vector<MetricDecl> &decls,
                       const std::vector<Sample> &samples,
                       unsigned attempted, unsigned failed);

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_HH
