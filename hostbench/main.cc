/**
 * @file
 * hostbench: the simulator host-speed benchmark.
 *
 *   hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             --golden tests/golden_stats.json [--spans FILE]
 *
 * Runs workload NAME's jobs one at a time, pass after pass, for about
 * S seconds (closed loop: a pass starts only while it is expected to
 * end within S, and at least one pass runs). The seed permutes the job
 * order of each pass. With --trace 0 every pass is untraced and the
 * result holds the end-to-end metrics; with --trace 1 every pass is
 * traced and the result holds the per-layer metrics, and the spans
 * are written to FILE after the last pass. Each metric is the median
 * over the passes. The end-to-end times are scaled by the run's
 * host-speed factor (see host_reference.hh); the summary also prints
 * them unscaled.
 *
 * Prints a summary, then the JSON result as the last line. Exits 0 when
 * every job passed its output check, 1 when one failed, 2 on a usage
 * or set-up error (with no result line).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <malloc.h>

#include "harness.hh"

using namespace hostbench;

namespace
{

/**
 * Set-up-only rounds after each untraced pass: the per-job set-up is
 * 10-40 ms a pass and spreads far more than whole passes do, so
 * setup_s is the median over these rounds and the passes together.
 */
constexpr unsigned SetupRoundsPerPass = 6;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] --golden FILE "
                 "[--spans FILE]\n",
                 why);
    return 2;
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno == 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, golden, spans;
    std::uint64_t seed = 1, seconds = 55, trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        bool ok = true;
        if (flag == "--workload")
            workload = value;
        else if (flag == "--golden")
            golden = value;
        else if (flag == "--spans")
            spans = value;
        else if (flag == "--seed")
            ok = parseU64(value, seed);
        else if (flag == "--seconds")
            ok = parseU64(value, seconds);
        else if (flag == "--trace")
            ok = parseU64(value, trace) && trace <= 1;
        else
            return usage(("unknown flag " + flag).c_str());
        if (!ok)
            return usage(("invalid value for " + flag).c_str());
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloadTable()) {
        if (w.name == workload)
            spec = &w;
    }
    if (!spec)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (golden.empty())
        return usage("--golden is required");

    // Keep freed memory in the heap for the next job, as a long-lived
    // batch process does. Left to glibc's dynamic thresholds, whether
    // a job's memory comes back recycled or freshly page-faulted
    // depends on which jobs ran before it -- on the seed -- and moves
    // setup_s by 2x.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, -1);

    try {
        Runner runner(spec->jobs, readGolden(golden), seed);
        std::vector<Sample> samples;
        const auto start = Clock::now();
        auto elapsed = [&] {
            return std::chrono::duration<double>(Clock::now() - start)
                .count();
        };
        unsigned passes = 0;
        do {
            if (trace) {
                samples.push_back(runner.tracedPass(passes));
            } else {
                runner.untracedPass(passes);
                for (unsigned r = 0; r < SetupRoundsPerPass; ++r)
                    runner.setupRound(passes * SetupRoundsPerPass + r);
            }
            ++passes;
        } while (elapsed() * (passes + 1) / passes <=
                 static_cast<double>(seconds));
        if (!trace) {
            samples.push_back(runner.endToEnd());
            // The reference's table is resident for the whole run;
            // the metric is the simulator's own peak.
            samples.push_back(
                {{"peak_rss_mb",
                  peakRssMb() - runner.reference().residentBytes() /
                                    1048576.0}});
        }
        if (trace && !spans.empty()) {
            std::ofstream os(spans);
            runner.spans().writeJson(os);
            os.close();
            if (!os)
                throw std::runtime_error("cannot write '" + spans + "'");
        }

        const auto &decls = trace ? perLayerMetrics() : endToEndMetrics();
        std::printf("hostbench workload=%s seed=%llu trace=%llu passes=%u "
                    "jobs=%u failed=%u measured_s=%.3f\n",
                    spec->name.c_str(),
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(trace), passes,
                    runner.attempted(), runner.failed(), elapsed());
        for (const MetricDecl &d : decls) {
            std::printf("  %-22s %14.6g %s\n", d.name,
                        medianOf(samples, d.name), d.unit);
        }
        if (!trace) {
            std::printf("  unscaled: wall_s %.6g  sim_mcps %.6g  setup_s "
                        "%.6g  host_speed %.4f\n",
                        medianOf(samples, "raw_wall_s"),
                        medianOf(samples, "raw_sim_mcps"),
                        medianOf(samples, "raw_setup_s"),
                        medianOf(samples, "host_speed"));
        }
        for (const std::string &e : runner.errors())
            std::fprintf(stderr, "hostbench: FAILED %s\n", e.c_str());
        std::cout << resultLine(decls, samples, runner.attempted(),
                                runner.failed())
                  << std::endl;
        return runner.failed() ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 2;
    }
}
