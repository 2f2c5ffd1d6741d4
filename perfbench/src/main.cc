/**
 * @file
 * The benchmark program: runs one workload for a wall-clock budget, checks
 * every op's outputs against the recorded digests, and prints every
 * metric by name with its unit.  The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   ppm_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 --expected FILE [--spans FILE]
 *   ppm_perfbench --workload W --seed N --record
 *
 * --trace 0 runs plain ops and reports the end-to-end metrics.
 * --trace 1 alternates decorated and plain rounds: per-layer metrics
 * come from the decorated rounds, the workload-specific timings and
 * the tracing overhead from comparing them with the plain ones.
 * --record runs each op once, plain, and prints the "seed key digest"
 * lines of the expected-output file.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool record = false;
    std::string expected;
    std::string spans;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "ppm_perfbench: %s\n"
                 "usage: ppm_perfbench --workload W --seed N "
                 "(--seconds S --trace 0|1 --expected FILE [--spans FILE]"
                 " | --record)\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
            if (!have_seed)
                usage("--seed expects a non-negative integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(a.seconds > 0))
                usage("--seconds expects a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
        } else if (k == "--expected") {
            a.expected = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (!a.record && a.expected.empty())
        usage("--expected is required to check outputs");
    return a;
}

/** Recorded digests of one seed: key -> digest.  Each line of the
 *  file is "seed key digest". */
std::map<std::string, std::string>
load_expected(const std::string& path, std::uint64_t seed)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ppm_perfbench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key, digest;
        std::uint64_t s = 0;
        if (!(ls >> s >> key >> digest) || s != seed)
            continue;
        out[key] = digest;
    }
    return out;
}

/**
 * Peak resident set of this process image in MB.  VmHWM, unlike
 * getrusage's ru_maxrss, starts afresh at exec, so it does not report
 * the launching interpreter's footprint.
 */
double
peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** PPM miss-time reduction vs HPM and HL over one paper-grid round. */
std::string
reductions(const std::vector<OpResult>& round, double* vs_hpm, double* vs_hl)
{
    std::map<std::string, double> sum;
    for (const OpResult& r : round)
        sum[r.policy] += r.any_below_miss;
    *vs_hpm = 1.0 - sum["PPM"] / sum["HPM"];
    *vs_hl = 1.0 - sum["PPM"] / sum["HL"];
    char buf[96];
    std::snprintf(buf, sizeof buf, "%a/%a", *vs_hpm, *vs_hl);
    return hex64(fnv1a(buf));
}

/** Sums over the plain (or the decorated) ops of a run. */
class Totals
{
  public:
    void add(const OpResult& r)
    {
        for (const std::string& p : {std::string(), r.policy}) {
            sim_s_[p] += r.sim_s;
            run_s_[p] += r.run_s;
        }
        round_setup_ += r.setup_s;
    }

    /** Close a round: its total set-up time becomes one sample. */
    void end_round()
    {
        setups_.push_back(round_setup_);
        round_setup_ = 0.0;
    }

    /** Simulated seconds per wall second of `policy`'s ops ("" = all). */
    double speed(const std::string& policy) const
    {
        const auto it = run_s_.find(policy);
        return it == run_s_.end() || it->second <= 0
            ? 0.0
            : sim_s_.at(policy) / it->second;
    }

    /** Median over rounds of the time to set up every op once. */
    double setup_s() const { return median(setups_); }

  private:
    std::map<std::string, double> sim_s_, run_s_;
    double round_setup_ = 0.0;
    std::vector<double> setups_;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parse(argc, argv);
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    Config cfg;
    cfg.seed = args.seed;
    cfg.fleet_jobs = std::min(nproc, 4);
    std::unique_ptr<Workload> wl = make_workload(args.workload, cfg);
    if (wl == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    const bool grid = args.workload == "paper-grid";

    if (args.record) {
        Timings t;
        std::vector<OpResult> round;
        for (int i = 0; i < wl->ops(); ++i) {
            round.push_back(wl->run(i, nullptr, &t));
            const OpResult& r = round.back();
            if (!r.checks_ok) {
                std::fprintf(stderr, "ppm_perfbench: %s: %s\n",
                             r.key.c_str(), r.note.c_str());
                return 1;
            }
            std::printf("%llu %s %s\n",
                        static_cast<unsigned long long>(args.seed),
                        r.key.c_str(), r.digest.c_str());
        }
        if (grid) {
            double a = 0, b = 0;
            std::printf("%llu reduction %s\n",
                        static_cast<unsigned long long>(args.seed),
                        reductions(round, &a, &b).c_str());
        }
        return 0;
    }

    std::printf("host nproc=%d build_type=%s compiler=\"%s\" fleet_jobs=%d\n",
                nproc, PERFBENCH_BUILD_TYPE, __VERSION__, cfg.fleet_jobs);
    const std::map<std::string, std::string> recorded =
        load_expected(args.expected, args.seed);
    if (recorded.empty())
        std::fprintf(stderr,
                     "ppm_perfbench: no recorded outputs for seed %llu; "
                     "checking that repeated ops reproduce their outputs\n",
                     static_cast<unsigned long long>(args.seed));
    std::map<std::string, std::string> seen = recorded;
    auto check = [&](const std::string& key, const std::string& digest) {
        const auto [it, fresh] = seen.try_emplace(key, digest);
        if (fresh && !recorded.empty())
            return false;  // A recorded seed must cover every output.
        return it->second == digest;
    };

    Layers layers;
    std::optional<Layers> first;  ///< Counts after the first decorated round.
    Timings plain_t, decorated_t;  // Only the plain timings are reported.
    Totals plain, decorated;
    HostSpeed host(args.workload == "fleet" ? cfg.fleet_jobs : 1);
    double last_run_s = 0.0;
    long attempted = 0, failed = 0, rounds = 0;
    bool correct = true;
    double vs_hpm = 0, vs_hl = 0;
    const Clock::time_point start = Clock::now();
    for (;; ++rounds) {
        const bool decorate = args.trace && rounds % 2 == 0;
        std::vector<OpResult> results;
        double sim = 0, run = 0;
        const std::size_t gauge0 = host.samples();
        for (int i = 0; i < wl->ops(); ++i) {
            ++attempted;
            // About one gauge sample per 50 ms of op time.
            const int gauges = std::clamp(
                static_cast<int>(last_run_s / 0.05 + 0.5), 1, 20);
            for (int g = 0; g < gauges; ++g)
                host.sample();
            OpResult res;
            try {
                res = wl->run(i, decorate ? &layers : nullptr,
                              decorate ? &decorated_t : &plain_t);
            } catch (const std::exception& e) {
                ++failed;
                std::fprintf(stderr, "ppm_perfbench: op %d threw: %s\n", i,
                             e.what());
                continue;
            }
            if (!res.checks_ok || !check(res.key, res.digest)) {
                ++failed;
                std::fprintf(stderr, "ppm_perfbench: %s: output mismatch %s\n",
                             res.key.c_str(),
                             res.checks_ok ? res.digest.c_str()
                                               : res.note.c_str());
            }
            (decorate ? decorated : plain).add(res);
            last_run_s = res.run_s;
            sim += res.sim_s;
            run += res.run_s;
            results.push_back(std::move(res));
        }
        (decorate ? decorated : plain).end_round();
        if (decorate && !first)
            first = layers;
        if (grid && static_cast<int>(results.size()) == wl->ops() &&
            !check("reduction", reductions(results, &vs_hpm, &vs_hl))) {
            correct = false;
            std::fprintf(stderr, "ppm_perfbench: miss-time reductions differ\n");
        }
        std::fprintf(stderr, "round %ld%s: %.6g sim-s/s, gauge %.4g ms\n",
                     rounds, decorate ? " (decorated)" : "",
                     run > 0 ? sim / run : 0.0, host.median_ms(gauge0));
        const bool both = !args.trace || rounds >= 1;
        if (both && s_between(start, Clock::now()) >= args.seconds)
            break;
    }
    ++rounds;
    correct = correct && failed == 0;

    // Speeds and workload timings always come from plain rounds.  The
    // end-to-end times are host-calibrated (see HostSpeed); the raw
    // wall-clock speed is printed beside them.
    const Timings& t = plain_t;
    const double speedup = 1.0 / host.calibrate(1.0);
    std::vector<Metric> e2e = {
        {"setup_s", host.calibrate(plain.setup_s()), "s"},
        {"sim_s_per_s", plain.speed("") * speedup, "s/s"},
        {"ppm_sim_s_per_s", plain.speed("PPM") * speedup, "s/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::vector<Metric> extra = {
        {"hpm_sim_s_per_s", plain.speed("HPM") * speedup, "s/s"},
        {"hl_sim_s_per_s", plain.speed("HL") * speedup, "s/s"},
        {"wall_sim_s_per_s", plain.speed(""), "s/s"},
        {"host_gauge_ms", host.median_ms(), "ms"},
        {"epoch_ms_p50", quantile(t.epoch_ms, 0.5), "ms"},
        {"epoch_ms_p99", quantile(t.epoch_ms, 0.99), "ms"},
        {"checkpoint_ms_p50", quantile(t.checkpoint_ms, 0.5), "ms"},
        {"restore_ms_p50", quantile(t.restore_ms, 0.5), "ms"},
    };

    std::vector<Metric> per_layer;
    if (args.trace) {
        // Times and rates over every decorated round; counts over the
        // first one only, so they repeat exactly for a given seed.
        const Layers& L = layers;
        const Layers& C = *first;
        const double lane = L.lane_s > 0 ? L.lane_s : 1.0;
        auto rate = [](double num, double den) {
            return den > 0 ? num / den : 0.0;
        };
        const double overhead =
            rate(plain.speed(""), decorated.speed("")) - 1.0;
        per_layer = {
            {"sim.self_s", L.sim_self_s, "s"},
            {"sim.share", L.sim_self_s / lane, "frac"},
            {"sim.ticks", static_cast<double>(C.ticks), "count"},
            {"sim.replay_intervals", static_cast<double>(C.replay_intervals),
             "count"},
            {"sim.replayed_tick_share",
             rate(static_cast<double>(L.replayed_ticks),
                  static_cast<double>(L.ticks)),
             "frac"},
            {"market.tick_s", L.market_s, "s"},
            {"market.share", L.market_s / lane, "frac"},
            {"market.round_us_p50", L.round_ns.quantile(0.5) / 1e3, "us"},
            {"market.round_us_p99", L.round_ns.quantile(0.99) / 1e3, "us"},
            {"market.task_skip_rate",
             rate(static_cast<double>(L.clearing.tasks_skipped),
                  static_cast<double>(L.clearing.task_slots)),
             "frac"},
            {"market.core_skip_rate",
             rate(static_cast<double>(L.clearing.cores_skipped),
                  static_cast<double>(L.clearing.core_slots)),
             "frac"},
            {"market.early_exit_rate",
             rate(static_cast<double>(L.clearing.rounds_early_exit),
                  static_cast<double>(L.clearing.rounds)),
             "frac"},
            {"baselines.tick_s", L.baselines_s, "s"},
            {"baselines.share", L.baselines_s / lane, "frac"},
            {"baselines.calls", static_cast<double>(C.baseline_calls),
             "count"},
            {"metrics.sink_s", L.sink_s, "s"},
            {"metrics.share", L.sink_s / lane, "frac"},
            {"metrics.records", static_cast<double>(C.records), "count"},
            {"metrics.bytes", static_cast<double>(C.bytes), "B"},
            {"metrics.ns_per_record",
             rate(L.sink_s * 1e9, static_cast<double>(L.records)), "ns"},
            {"fleet.dispatch_us_p50", L.dispatch_ns.quantile(0.5) / 1e3, "us"},
            {"fleet.tail_us_p50", L.tail_ns.quantile(0.5) / 1e3, "us"},
            {"fleet.tail_us_p99", L.tail_ns.quantile(0.99) / 1e3, "us"},
            {"fleet.tail_share", rate(L.tail_s, L.run_s), "frac"},
            {"fleet.shard_imbalance", median(L.imbalance), "ratio"},
            {"fleet.worker_lanes", median(L.lanes), "count"},
            {"snapshot.bytes", static_cast<double>(L.snapshot_bytes), "B"},
            {"snapshot.save_mb_per_s", rate(L.save_bytes / 1e6, L.save_s),
             "MB/s"},
            {"snapshot.load_mb_per_s", rate(L.load_bytes / 1e6, L.load_s),
             "MB/s"},
            {"bench.trace_overhead", overhead, "frac"},
        };
        per_layer.insert(per_layer.end(), extra.begin(), extra.end());
        if (!args.spans.empty() && !L.spans.write(args.spans))
            std::fprintf(stderr, "ppm_perfbench: cannot write %s\n",
                         args.spans.c_str());
    }

    std::printf("workload %s seed %llu: %ld rounds, %ld ops, %ld failed "
                "(failed_frac %.6f), outputs %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), rounds,
                attempted, failed,
                static_cast<double>(failed) / static_cast<double>(attempted),
                recorded.empty() ? "checked against in-run repeats"
                                 : "checked against recorded digests");
    if (grid)
        std::printf("PPM miss-time reduction: %.1f%% vs HPM, %.1f%% vs HL "
                    "(paper: 34%%, 44%%)\n",
                    100.0 * vs_hpm, 100.0 * vs_hl);
    const std::vector<Metric>& shown = args.trace ? per_layer : e2e;
    for (const Metric& m : shown)
        std::printf("metric %-26s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!args.trace)
        for (const Metric& m : extra)
            std::printf("metric %-26s %.9g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < shown.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", shown[i].name.c_str(), shown[i].value,
                    shown[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
