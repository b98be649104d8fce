#include "harness.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "exec/interp.hh"
#include "proc/machine_config.hh"
#include "sim/job.hh"
#include "sim/result_sink.hh"
#include "trace/json_reader.hh"

namespace hostbench
{

using namespace tarantula;

namespace
{

double
secondsOf(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Every job's simulated-cycle budget: sim::Job's default. */
const std::uint64_t MaxCycles = sim::Job{}.maxCycles;

/** Time one call into @p acc; with a log, record it as a span. */
template <class F>
void
timed(SpanLog *log, int job, const char *name, double &acc, F &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    acc += secondsOf(t1 - t0);
    if (log)
        log->add(name, job, -1, t0, t1);
}

template <class F>
void
timed(double &acc, F &&fn)
{
    timed(nullptr, -1, nullptr, acc, std::forward<F>(fn));
}

std::string
toString(const Counts &c)
{
    return "cycles=" + std::to_string(c.cycles) +
           " insts=" + std::to_string(c.insts) +
           " ops=" + std::to_string(c.ops) +
           " flops=" + std::to_string(c.flops) +
           " memops=" + std::to_string(c.memops);
}

Counts
countsOf(const sys::RunResult &r)
{
    return Counts{r.cycles, r.insts, r.ops, r.flops, r.memops};
}

/** sim::writeJobRecord of a finished job, into memory. */
void
writeRecord(const JobSpec &spec, const sys::RunResult &run,
            std::string stats_json)
{
    sim::JobResult result;
    result.job.machine = spec.machine;
    result.job.workload = spec.placement;
    result.job.cores = spec.cores;
    result.status = sim::JobStatus::Ok;
    result.run = run;
    result.statsJson = std::move(stats_json);
    std::ostringstream os;
    sim::writeJobRecord(os, result);
}

/** Core @p core's workload, as sim::runJob builds it for a job of
 *  seed 0: placements replicate cyclically over the cores. */
workloads::Workload
workloadFor(const JobSpec &spec, unsigned core)
{
    std::vector<std::string> names;
    std::istringstream list(spec.placement);
    for (std::string name; std::getline(list, name, ',');)
        names.push_back(name);
    if (names.empty())
        throw std::invalid_argument("job " + spec.key() + ": no workload");
    return workloads::byName(names[core % names.size()],
                             spec.cores == 1 ? 0 : core, 0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // anonymous namespace

// ---- workloads and the golden table -----------------------------------

std::string
JobSpec::key() const
{
    return machine + "/" + std::to_string(cores) + "/" + placement;
}

const std::vector<WorkloadSpec> &
workloadTable()
{
    // Why each workload is here, and what it should and should not
    // move: hostbench/README.md.
    static const std::vector<WorkloadSpec> table = [] {
        WorkloadSpec scalar{"scalar_ev8", {}};
        for (const char *w : {"dgemm", "fft", "lu", "sparsemxv"})
            scalar.jobs.push_back({"EV8", 1, w});
        // The Figure 6 suite (workloads::figureSuite()), as
        // bench/fig6_opc runs it.
        WorkloadSpec vector{"vector_t", {}};
        for (const char *w :
             {"swim", "art", "sixtrack", "dgemm", "dtrmm", "sparsemxv",
              "fft", "lu", "linpack100", "linpackTPP", "moldyn",
              "ccradix"})
            vector.jobs.push_back({"T", 1, w});
        WorkloadSpec cmp{"cmp_t",
                         {{"T", 4, "dgemm"},
                          {"T", 4, "sparsemxv,dgemm"},
                          {"T", 4, "dgemm,rndcopy"}}};
        return std::vector<WorkloadSpec>{scalar, vector, cmp};
    }();
    return table;
}

std::map<std::string, Counts>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden table '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const trace::JsonValue doc = trace::parseJson(text.str());
    const trace::JsonValue *entries = doc.find("entries");
    if (!entries || !entries->isArray())
        throw std::runtime_error(path + ": no \"entries\" array");

    std::map<std::string, Counts> rows;
    for (const trace::JsonValue &e : entries->array) {
        if (e.find("vmPageBits"))
            continue;
        auto number = [&](const char *name) {
            const trace::JsonValue *v = e.find(name);
            if (!v || !v->isNumber())
                throw std::runtime_error(path + ": a row lacks \"" +
                                         name + "\"");
            return v->asU64();
        };
        const trace::JsonValue *machine = e.find("machine");
        const trace::JsonValue *workload = e.find("workload");
        if (!machine || !machine->isString() || !workload ||
            !workload->isString())
            throw std::runtime_error(path + ": a row lacks its names");
        const JobSpec spec{
            machine->str,
            e.find("cores") ? static_cast<unsigned>(number("cores")) : 1u,
            workload->str};
        rows[spec.key()] = Counts{number("cycles"), number("insts"),
                                  number("ops"), number("flops"),
                                  number("memops")};
    }
    return rows;
}

// ---- spans ------------------------------------------------------------

int
SpanLog::addJob(unsigned pass, const JobSpec &spec)
{
    jobs_.emplace_back(pass, spec);
    return static_cast<int>(jobs_.size()) - 1;
}

int
SpanLog::add(std::string name, int job, int parent, Clock::time_point t0,
             Clock::time_point t1)
{
    spans_.push_back({std::move(name), job, parent,
                      secondsOf(t0 - origin_), secondsOf(t1 - origin_)});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::total(std::string name, int job, int parent, std::uint64_t calls,
               double seconds)
{
    totals_.push_back({std::move(name), job, parent, calls, seconds});
}

void
SpanLog::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("hostbench.spans.v1");
    w.key("jobs").beginArray();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const auto &[pass, spec] = jobs_[i];
        w.beginObject();
        w.key("id").value(static_cast<std::uint64_t>(i));
        w.key("pass").value(pass);
        w.key("machine").value(spec.machine);
        w.key("cores").value(spec.cores);
        w.key("placement").value(spec.placement);
        w.endObject();
    }
    w.endArray();
    w.key("spans").beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("job").value(s.job);
        w.key("parent").value(s.parent);
        w.key("start_s").value(s.start);
        w.key("end_s").value(s.end);
        w.endObject();
    }
    w.endArray();
    w.key("totals").beginArray();
    for (const Total &t : totals_) {
        w.beginObject();
        w.key("name").value(t.name);
        w.key("job").value(t.job);
        w.key("parent").value(t.parent);
        w.key("calls").value(t.calls);
        w.key("seconds").value(t.seconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

// ---- one job's machine ------------------------------------------------

Machine::Machine(const JobSpec &spec, CallTimes &times, SpanLog *log,
                 int job)
{
    proc::MachineConfig cfg = proc::machineByName(spec.machine);
    cfg.cmp.numCores = spec.cores;
    std::vector<const program::Program *> progs;
    std::vector<exec::FunctionalMemory *> mems;
    for (unsigned i = 0; i < spec.cores; ++i) {
        timed(log, job, "workloads.byName", times.build,
              [&] { ws_.push_back(workloadFor(spec, i)); });
        mems_.emplace_back();
        timed(log, job, "workloads.init", times.init,
              [&] { ws_.back().init(mems_.back()); });
        progs.push_back(cfg.hasVbox ? &ws_.back().vectorProg
                                    : &ws_.back().scalarProg);
        mems.push_back(&mems_.back());
    }
    timed(log, job, "system.construct", times.construct, [&] {
        sys_ = std::make_unique<sys::System>(cfg, progs, mems);
    });
    timed(log, job, "cache.warmLine", times.warm, [&] {
        for (unsigned i = 0; i < spec.cores; ++i) {
            const Addr bias = sys::System::addrBiasFor(cfg, i);
            for (const auto &r : ws_[i].warmRanges) {
                for (std::uint64_t o = 0; o < r.bytes; o += CacheLineBytes)
                    sys_->l2().warmLine((r.base + o) | bias);
            }
        }
    });
}

std::string
Machine::check()
{
    for (std::size_t i = 0; i < ws_.size(); ++i) {
        const std::string err = ws_[i].check(mems_[i]);
        if (!err.empty())
            return "wrong result on core" + std::to_string(i) + ": " + err;
    }
    return "";
}

Counts
countsOf(sys::System &sys, Cycle cycles)
{
    Counts c;
    c.cycles = cycles;
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        const ev8::Core &core = sys.core(i);
        c.insts += core.numRetired();
        c.ops += core.numOps();
        c.flops += core.numFlops();
        c.memops += core.numMemops();
    }
    return c;
}

// ---- the traced loop --------------------------------------------------

LoopProfile &
LoopProfile::operator+=(const LoopProfile &o)
{
    loop += o.loop;
    ev8 += o.ev8;
    vbox += o.vbox;
    cache += o.cache;
    mem += o.mem;
    horizon += o.horizon;
    ff += o.ff;
    probe += o.probe;
    steps += o.steps;
    jumps += o.jumps;
    skipped += o.skipped;
    coreTicks += o.coreTicks;
    vboxTicks += o.vboxTicks;
    ev8Idle += o.ev8Idle;
    vboxIdle += o.vboxIdle;
    cacheIdle += o.cacheIdle;
    memIdle += o.memIdle;
    return *this;
}

Cycle
steppedRun(sys::System &s, std::uint64_t max_cycles, LoopProfile &prof)
{
    const proc::MachineConfig &cfg = s.config();
    if (!cfg.fastForward || s.integrity().checksEnabled() || s.sampler())
        throw std::invalid_argument(
            "steppedRun: copies the default engine only (fast-forward "
            "on, no integrity sweeps, no sampler)");

    const unsigned n = s.numCores();
    std::vector<ev8::Core *> cores;
    std::vector<vbox::Vbox *> vboxes;
    for (unsigned i = 0; i < n; ++i) {
        cores.push_back(&s.core(i));
        vboxes.push_back(s.vbox(i));
    }
    mem::Zbox &zbox = s.zbox();
    cache::L2Cache &l2 = s.l2();
    auto retired = [&] {
        std::uint64_t total = 0;
        for (const ev8::Core *c : cores)
            total += c->numRetired();
        return total;
    };

    LoopProfile p;
    Cycle now = s.now();
    std::uint64_t last_retired = retired();
    Cycle last_progress = now;

    // One clock read per boundary: each lap charges the time since the
    // previous boundary to one bucket. Time between the last lap of an
    // iteration and the first of the next is the loop's own
    // bookkeeping: system.other_s.
    const auto start = Clock::now();
    auto t = start;
    auto lap = [&t](double &bucket) {
        const auto u = Clock::now();
        bucket += secondsOf(u - t);
        t = u;
    };

    while (!s.finished()) {
        if (now >= max_cycles) {
            throw TimeoutError("processor '" + cfg.name + "': exceeded " +
                               std::to_string(max_cycles) + " cycles");
        }
        t = Clock::now();

        // System::quiescentUntil_, short-circuit order included.
        Cycle target = CycleNever;
        for (unsigned i = 0; i < n; ++i) {
            target = std::min(target, cores[i]->nextEventCycle());
            if (target <= now + 1)
                break;
            if (vboxes[i])
                target = std::min(target, vboxes[i]->nextEventCycle());
            if (target <= now + 1)
                break;
        }
        if (target > now + 1)
            target = std::min(target, l2.nextEventCycle());
        if (target > now + 1)
            target = std::min(target, zbox.nextEventCycle());
        if (target > now + 1) {
            if (cfg.deadlockCycles)
                target = std::min(target,
                                  last_progress + cfg.deadlockCycles + 1);
            target = std::min(target, static_cast<Cycle>(max_cycles));
        }
        target = std::max(target, now + 1);
        lap(p.horizon);

        if (target > now + 1) {
            const Cycle delta = target - now - 1;
            now += delta;
            setPanicCycle(now);
            zbox.fastForward(delta);
            l2.fastForward(delta);
            for (unsigned i = 0; i < n; ++i) {
                if (vboxes[i])
                    vboxes[i]->fastForward(delta);
                cores[i]->fastForward(delta);
            }
            ++p.jumps;
            p.skipped += delta;
            lap(p.ff);
        }

        ++now;
        setPanicCycle(now);
        // The idle-tick probe: is a component's next event past the
        // cycle about to be stepped? Read-only, and its time is the
        // benchmark's, kept out of the loop.
        p.memIdle += zbox.nextEventCycle() > now;
        p.cacheIdle += l2.nextEventCycle() > now;
        for (unsigned i = 0; i < n; ++i) {
            p.ev8Idle += cores[i]->nextEventCycle() > now;
            if (vboxes[i])
                p.vboxIdle += vboxes[i]->nextEventCycle() > now;
        }
        lap(p.probe);

        // System::step.
        zbox.cycle();
        lap(p.mem);
        l2.cycle();
        lap(p.cache);
        const unsigned first = static_cast<unsigned>(now % n);
        for (unsigned k = 0; k < n; ++k) {
            if (vbox::Vbox *v = vboxes[(first + k) % n]) {
                v->cycle();
                lap(p.vbox);
                ++p.vboxTicks;
            }
        }
        for (unsigned k = 0; k < n; ++k) {
            cores[(first + k) % n]->cycle();
            lap(p.ev8);
        }
        p.coreTicks += n;
        ++p.steps;

        // System::run's deadlock watchdog.
        const std::uint64_t r = retired();
        if (r != last_retired) {
            last_retired = r;
            last_progress = now;
        } else if (cfg.deadlockCycles &&
                   now - last_progress > cfg.deadlockCycles) {
            throw std::runtime_error(
                "steppedRun: no retirement in " +
                std::to_string(cfg.deadlockCycles) + " cycles");
        }
    }
    p.loop = secondsOf(Clock::now() - start) - p.probe;
    prof += p;
    return now;
}

// ---- the runner ---------------------------------------------------------

Runner::Runner(std::vector<JobSpec> jobs,
               std::map<std::string, Counts> expected, std::uint64_t seed)
    : jobs_(std::move(jobs)), reps_(jobs_.size()),
      expected_(std::move(expected)), seed_(seed)
{
}

std::vector<std::size_t>
Runner::order(unsigned pass) const
{
    std::vector<std::size_t> idx(jobs_.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    Random rng(seed_ * 0x9e3779b97f4a7c15ULL + pass);
    for (std::size_t i = idx.size(); i > 1; --i)
        std::swap(idx[i - 1], idx[rng.below(i)]);
    return idx;
}

void
Runner::settle_(const JobSpec &spec, const std::string &error)
{
    ++attempted_;
    if (!error.empty())
        errors_.push_back(spec.key() + ": " + error);
}

std::string
Runner::verify_(const JobSpec &spec, const Counts &got,
                std::uint64_t digest)
{
    // A job without a golden row takes its first repetition as the
    // reference, stats digest included.
    const Counts &want = expected_.try_emplace(spec.key(), got).first->second;
    if (!(want == got))
        return "simulated " + toString(got) + ", expected " + toString(want);
    if (digests_.try_emplace(spec.key(), digest).first->second != digest)
        return "stats digest differs from the job's first repetition";
    return "";
}

void
Runner::untracedPass(unsigned pass)
{
    for (const std::size_t j : order(pass)) {
        const JobSpec &spec = jobs_[j];
        const auto start = Clock::now();
        CallTimes t;
        std::string error;
        try {
            Machine m(spec, t);
            sys::RunResult r;
            timed(t.run, [&] { r = m.system().run(MaxCycles); });
            timed(t.check, [&] { error = m.check(); });
            std::string stats;
            timed(t.report, [&] {
                std::ostringstream os;
                m.system().stats().reportJson(os);
                stats = os.str();
            });
            timed(t.record, [&] { writeRecord(spec, r, std::move(stats)); });
            if (error.empty())
                error = verify_(spec, countsOf(r), m.system().statsDigest());
            reps_[j].cycles = r.cycles;
        } catch (const std::exception &e) {
            error = e.what();
        }
        reps_[j].wall.push_back(secondsOf(Clock::now() - start));
        reps_[j].run.push_back(t.run);
        reps_[j].setup.push_back(t.setup());
        settle_(spec, error);
        doses_.push_back(ref_.dose());
    }
}

void
Runner::setupRound(unsigned round)
{
    for (const std::size_t j : order(round)) {
        CallTimes t;
        Machine m(jobs_[j], t);
        reps_[j].setup.push_back(t.setup());
    }
}

Sample
Runner::endToEnd() const
{
    double wall = 0.0, run = 0.0, setup = 0.0;
    std::uint64_t cycles = 0;
    for (const Reps &r : reps_) {
        wall += median(r.wall);
        run += median(r.run);
        setup += median(r.setup);
        cycles += r.cycles;
    }
    const double mcps = run > 0.0 ? cycles / run / 1e6 : 0.0;
    const double speed = HostReference::NominalDoseSeconds / median(doses_);
    return {{"wall_s", wall * speed},
            {"sim_mcps", mcps / speed},
            {"setup_s", setup * speed},
            {"raw_wall_s", wall},
            {"raw_sim_mcps", mcps},
            {"raw_setup_s", setup},
            {"host_speed", speed}};
}

Sample
Runner::tracedPass(unsigned pass)
{
    CallTimes calls;            // machine A's calls, summed over jobs
    LoopProfile prof;           // machine B's traced loop
    std::uint64_t func_insts = 0;
    double func_s = 0.0;
    std::uint64_t cycles = 0, insts = 0, conflicts = 0;

    for (const std::size_t j : order(pass)) {
        const JobSpec &spec = jobs_[j];
        const int job = log_.addJob(pass, spec);
        std::string error;
        try {
            // A: the job exactly as the untraced pass runs it, each
            // public call a span.
            sys::RunResult r;
            std::uint64_t digest = 0;
            {
                CallTimes t;
                Machine m(spec, t, &log_, job);
                timed(&log_, job, "system.run", t.run,
                      [&] { r = m.system().run(MaxCycles); });
                timed(&log_, job, "workloads.check", t.check,
                      [&] { error = m.check(); });
                std::string stats;
                timed(&log_, job, "base.stats.reportJson", t.report, [&] {
                    std::ostringstream os;
                    m.system().stats().reportJson(os);
                    stats = os.str();
                });
                timed(&log_, job, "sim.writeJobRecord", t.record,
                      [&] { writeRecord(spec, r, std::move(stats)); });
                digest = m.system().statsDigest();
                calls.build += t.build;
                calls.init += t.init;
                calls.construct += t.construct;
                calls.warm += t.warm;
                calls.run += t.run;
                calls.check += t.check;
                calls.report += t.report;
                calls.record += t.record;
            }
            if (error.empty())
                error = verify_(spec, countsOf(r), digest);

            // B: a second, identical machine under the traced loop. It
            // must reach the same cycle count and stats digest.
            if (error.empty()) {
                CallTimes ignored;
                Machine m(spec, ignored);
                LoopProfile p;
                const auto t0 = Clock::now();
                const Cycle end = steppedRun(m.system(), MaxCycles, p);
                const int loop =
                    log_.add("system.loop", job, -1, t0, Clock::now());
                log_.total("ev8.Core::cycle", job, loop, p.coreTicks, p.ev8);
                log_.total("vbox.Vbox::cycle", job, loop, p.vboxTicks,
                           p.vbox);
                log_.total("cache.L2Cache::cycle", job, loop, p.steps,
                           p.cache);
                log_.total("mem.Zbox::cycle", job, loop, p.steps, p.mem);
                log_.total("system.nextEventCycle", job, loop,
                           p.steps, p.horizon);
                log_.total("system.fastForward", job, loop, p.jumps, p.ff);
                log_.total("bench.probe", job, loop, p.steps, p.probe);
                const Counts got = countsOf(m.system(), end);
                if (!(got == countsOf(r)) ||
                    m.system().statsDigest() != digest) {
                    error = "traced loop diverged from System::run: " +
                            toString(got) + " vs " + toString(countsOf(r));
                } else if (p.other() < 0.0) {
                    error = "traced loop: timed calls exceed the loop";
                } else {
                    error = m.check();
                }
                prof += p;
                conflicts += m.system().l2().bankConflicts();
            }

            // C: the functional engine alone on each core's program.
            if (error.empty()) {
                const proc::MachineConfig cfg =
                    proc::machineByName(spec.machine);
                for (unsigned i = 0; i < spec.cores && error.empty(); ++i) {
                    const workloads::Workload w = workloadFor(spec, i);
                    exec::FunctionalMemory mem;
                    w.init(mem);
                    exec::Interpreter interp(
                        cfg.hasVbox ? w.vectorProg : w.scalarProg, mem);
                    interp.setUcache(cfg.ucache);
                    timed(&log_, job, "exec.Interpreter::run", func_s,
                          [&] { func_insts += interp.run(); });
                    const std::string err = w.check(mem);
                    if (!err.empty())
                        error = "functional run: wrong result: " + err;
                }
            }
            cycles += r.cycles;
            insts += r.insts;
        } catch (const std::exception &e) {
            error = e.what();
        }
        settle_(spec, error);
    }

    const std::uint64_t total = prof.steps + prof.skipped;
    return {
        {"ev8.self_s", prof.ev8},
        {"ev8.ns_per_step",
         prof.coreTicks ? prof.ev8 / prof.coreTicks * 1e9 : 0.0},
        {"vbox.self_s", prof.vbox},
        {"cache.self_s", prof.cache},
        {"mem.self_s", prof.mem},
        {"system.horizon_s", prof.horizon},
        {"system.ff_s", prof.ff},
        {"system.other_s", prof.other()},
        {"workloads.build_s", calls.build},
        {"workloads.init_s", calls.init},
        {"system.construct_s", calls.construct},
        {"cache.warm_s", calls.warm},
        {"workloads.check_s", calls.check},
        {"base.stats_report_s", calls.report},
        {"sim.record_s", calls.record},
        {"exec.func_mips", func_s > 0.0 ? func_insts / func_s / 1e6 : 0.0},
        {"ev8.idle_tick_share", share(prof.ev8Idle, prof.coreTicks)},
        {"vbox.idle_tick_share", share(prof.vboxIdle, prof.vboxTicks)},
        {"cache.idle_tick_share", share(prof.cacheIdle, prof.steps)},
        {"mem.idle_tick_share", share(prof.memIdle, prof.steps)},
        {"system.steps", static_cast<double>(prof.steps)},
        {"system.ff_skip_share", share(prof.skipped, total)},
        {"cache.bank_conflicts", static_cast<double>(conflicts)},
        {"system.cycles", static_cast<double>(cycles)},
        {"system.insts", static_cast<double>(insts)},
        {"bench.trace_overhead",
         calls.run > 0.0 ? prof.loop / calls.run - 1.0 : 0.0},
    };
}

// ---- the result line --------------------------------------------------

const std::vector<MetricDecl> &
endToEndMetrics()
{
    static const std::vector<MetricDecl> decls = {
        {"wall_s", "s"},
        {"sim_mcps", "Mcycles/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return decls;
}

const std::vector<MetricDecl> &
perLayerMetrics()
{
    static const std::vector<MetricDecl> decls = {
        {"ev8.self_s", "s"},
        {"ev8.ns_per_step", "ns"},
        {"vbox.self_s", "s"},
        {"cache.self_s", "s"},
        {"mem.self_s", "s"},
        {"system.horizon_s", "s"},
        {"system.ff_s", "s"},
        {"system.other_s", "s"},
        {"workloads.build_s", "s"},
        {"workloads.init_s", "s"},
        {"system.construct_s", "s"},
        {"cache.warm_s", "s"},
        {"workloads.check_s", "s"},
        {"base.stats_report_s", "s"},
        {"sim.record_s", "s"},
        {"exec.func_mips", "Minst/s"},
        {"ev8.idle_tick_share", "share"},
        {"vbox.idle_tick_share", "share"},
        {"cache.idle_tick_share", "share"},
        {"mem.idle_tick_share", "share"},
        {"system.steps", "count"},
        {"system.ff_skip_share", "share"},
        {"cache.bank_conflicts", "count"},
        {"system.cycles", "count"},
        {"system.insts", "count"},
        {"bench.trace_overhead", "ratio"},
    };
    return decls;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

double
medianOf(const std::vector<Sample> &samples, const std::string &name)
{
    std::vector<double> v;
    for (const Sample &s : samples) {
        if (const auto it = s.find(name); it != s.end())
            v.push_back(it->second);
    }
    if (v.empty())
        throw std::logic_error("metric '" + name + "' was never measured");
    return median(std::move(v));
}

std::string
resultLine(const std::vector<MetricDecl> &decls,
           const std::vector<Sample> &samples, unsigned attempted,
           unsigned failed)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("correct").value(failed == 0);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").beginObject();
    for (const MetricDecl &d : decls) {
        w.key(d.name).beginObject();
        w.key("value").value(medianOf(samples, d.name));
        w.key("unit").value(d.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return os.str();
}

} // namespace hostbench
