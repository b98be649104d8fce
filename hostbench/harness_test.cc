/**
 * @file
 * Tests of the benchmark's own code: the traced loop computes what
 * System::run computes, the result line carries every metric
 * BENCHMARK.json declares with its unit, and a wrong expected count
 * is a failed operation.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness.hh"
#include "trace/json_reader.hh"

namespace
{

using namespace hostbench;
using tarantula::trace::JsonValue;
using tarantula::trace::parseJson;

const std::string Root = HOSTBENCH_ROOT;

// Short jobs: a few thousand simulated cycles each.
const JobSpec OneCore{"T", 1, "daxpy"};
const JobSpec TwoCores{"T", 2, "daxpy,pfilter"};

JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseJson(text.str());
}

void
expectLoopMatchesRun(const JobSpec &spec)
{
    CallTimes t;
    Machine ref(spec, t);
    Machine traced(spec, t);
    const auto r = ref.system().run();
    LoopProfile p;
    const tarantula::Cycle end = steppedRun(traced.system(), 1ULL << 32, p);

    EXPECT_EQ(end, r.cycles);
    EXPECT_EQ(countsOf(traced.system(), end),
              countsOf(ref.system(), r.cycles));
    EXPECT_EQ(traced.system().statsDigest(), ref.system().statsDigest());
    EXPECT_EQ(traced.check(), "");
    EXPECT_EQ(p.steps + p.skipped, end);
    EXPECT_EQ(p.jumps, r.ffJumps);
    EXPECT_EQ(p.skipped, r.ffSkippedCycles);
    EXPECT_EQ(p.coreTicks, p.steps * spec.cores);
    EXPECT_GE(p.other(), 0.0);
}

TEST(SteppedRun, MatchesSystemRunOnOneCore)
{
    expectLoopMatchesRun(OneCore);
}

TEST(SteppedRun, MatchesSystemRunOnTwoCores)
{
    expectLoopMatchesRun(TwoCores);
}

TEST(Golden, CoversTheJobsItPins)
{
    const auto golden = readGolden(Root + "/tests/golden_stats.json");
    for (const WorkloadSpec &w : workloadTable()) {
        if (w.name == "cmp_t")
            continue;
        for (const JobSpec &j : w.jobs)
            EXPECT_TRUE(golden.count(j.key())) << j.key();
    }
    EXPECT_TRUE(golden.count(JobSpec{"T", 4, "dgemm"}.key()));
}

TEST(ResultLine, PrintsEveryDeclaredMetricWithItsUnit)
{
    const JsonValue bench = readJson(Root + "/BENCHMARK.json");
    Runner runner({OneCore}, {}, 1);
    runner.untracedPass(0);
    runner.setupRound(0);
    const std::vector<Sample> untraced = {runner.endToEnd(),
                                          {{"peak_rss_mb", peakRssMb()}}};
    const std::vector<Sample> traced = {runner.tracedPass(1)};
    ASSERT_EQ(runner.failed(), 0u);

    struct Case
    {
        const char *section;
        const std::vector<MetricDecl> &decls;
        const std::vector<Sample> &samples;
    };
    for (const Case &c : {Case{"end_to_end", endToEndMetrics(), untraced},
                          Case{"per_layer", perLayerMetrics(), traced}}) {
        SCOPED_TRACE(c.section);
        const JsonValue line = parseJson(
            resultLine(c.decls, c.samples, runner.attempted(), 0));
        ASSERT_EQ(line.object.size(), 4u);
        ASSERT_TRUE(line.find("correct") && line.find("attempted") &&
                    line.find("failed"));
        const JsonValue *metrics = line.find("metrics");
        ASSERT_TRUE(metrics && metrics->isObject());

        const JsonValue *declared = bench.find(c.section);
        ASSERT_TRUE(declared && declared->isArray());
        EXPECT_EQ(metrics->object.size(), declared->array.size());
        for (const JsonValue &d : declared->array) {
            const std::string name = d.find("name")->str;
            const JsonValue *m = metrics->find(name);
            ASSERT_TRUE(m) << name << " is not printed";
            ASSERT_TRUE(m->find("value") && m->find("value")->isNumber())
                << name;
            EXPECT_EQ(m->find("unit")->str, d.find("unit")->str) << name;
        }
    }
}

TEST(Runner, WrongExpectedCyclesIsAFailedOperation)
{
    auto golden = readGolden(Root + "/tests/golden_stats.json");
    ASSERT_TRUE(golden.count(OneCore.key()));

    Runner good({OneCore}, golden, 1);
    good.untracedPass(0);
    EXPECT_EQ(good.attempted(), 1u);
    EXPECT_EQ(good.failed(), 0u);

    golden[OneCore.key()].cycles += 1;
    Runner bad({OneCore}, golden, 1);
    bad.untracedPass(0);
    bad.tracedPass(1);
    EXPECT_EQ(bad.attempted(), 2u);
    EXPECT_EQ(bad.failed(), 2u);
    const JsonValue line = parseJson(resultLine(
        endToEndMetrics(), {bad.endToEnd(), {{"peak_rss_mb", 1.0}}},
        bad.attempted(), bad.failed()));
    EXPECT_FALSE(line.find("correct")->boolean);
    EXPECT_EQ(line.find("failed")->asU64(), 2u);
}

TEST(Runner, EndToEndTimesAreScaledByTheHostReference)
{
    Runner runner({OneCore}, {}, 1);
    runner.untracedPass(0);
    runner.untracedPass(1);
    runner.setupRound(0);
    const Sample s = runner.endToEnd();
    const double speed = s.at("host_speed");
    EXPECT_GT(speed, 0.0);
    EXPECT_GT(s.at("raw_wall_s"), 0.0);
    EXPECT_DOUBLE_EQ(s.at("wall_s"), s.at("raw_wall_s") * speed);
    EXPECT_DOUBLE_EQ(s.at("setup_s"), s.at("raw_setup_s") * speed);
    EXPECT_DOUBLE_EQ(s.at("sim_mcps"), s.at("raw_sim_mcps") / speed);
}

TEST(HostReference, DosesTakeTimeAndKeepTheTableResident)
{
    HostReference ref;
    EXPECT_EQ(ref.residentBytes(), std::size_t{1} << 20);
    EXPECT_GT(ref.dose(), 0.0);
    EXPECT_GT(ref.dose(), 0.0);
}

TEST(Runner, SeedPermutesTheJobOrder)
{
    const auto &jobs = workloadTable()[1].jobs;
    const Runner a(jobs, {}, 1), b(jobs, {}, 2);
    EXPECT_EQ(a.order(0), Runner(jobs, {}, 1).order(0));
    EXPECT_NE(a.order(0), a.order(1));
    EXPECT_NE(a.order(0), b.order(0));
    auto sorted = a.order(3);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

} // anonymous namespace
