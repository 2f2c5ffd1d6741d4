/**
 * @file
 * Self-test of the benchmark's measurement seams: attaching the
 * decorators must not change a single simulated output.  Decorated
 * and plain runs must give identical summary fingerprints, trace
 * bytes and snapshot bytes for PPM, HPM and HL paper-grid cells, a
 * short traced run, a short manycore run and a short fleet run, and
 * the fleet must also match across jobs 1 and min(nproc, 4).
 *
 * Run: python3 perfbench/run.py --selftest   (exit 0 = pass)
 */

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>

#include "probe.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** Run op `i` of `name` plain and decorated; outputs must match. */
Layers
transparent(const std::string& name, const Config& cfg, int i)
{
    Layers layers;
    Timings t;
    const auto w = make_workload(name, cfg);
    const OpResult plain = w->run(i, nullptr, &t);
    const OpResult traced = w->run(i, &layers, &t);
    expect(plain.checks_ok && traced.checks_ok &&
               plain.digest == traced.digest,
           name + " " + plain.key + ": decorated output matches plain");
    return layers;
}

void
hash_ignores_flush_points()
{
    std::string text;
    for (int i = 0; i < 20000; ++i)
        text += "{\"type\":\"sample\",\"t_s\":" + std::to_string(i) + "}\n";
    CountingBuf one, many;
    std::ostream a(&one), b(&many);
    a << text;
    for (std::size_t pos = 0; pos < text.size(); pos += 977) {
        b << text.substr(pos, 977);
        b.flush();
    }
    expect(one.bytes() == text.size() && many.bytes() == text.size() &&
               one.digest() == many.digest(),
           "CountingBuf: byte count and hash independent of flushes");
}

} // namespace

int
main()
{
    hash_ignores_flush_points();

    Config cfg;
    cfg.seed = 7;
    cfg.time_scale = 0.1;
    cfg.fleet_jobs = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);

    // PPM, HPM and HL cells of a light (l1) and a heavy (h3) set.
    for (const int cell : {0, 3, 6, 72, 75, 78})
        transparent("paper-grid", cfg, cell);

    const Layers traced = transparent("traced", cfg, 0);
    expect(traced.records > 0 && traced.bytes > 0 && traced.ticks > 0,
           "traced: sink and governor decorators saw calls");

    const Layers many = transparent("manycore", cfg, 0);
    expect(many.clearing.rounds > 0 && many.market_ticks > 0,
           "manycore: market rounds were attributed");

    const Layers fleet = transparent("fleet", cfg, 0);
    expect(!fleet.lanes.empty() && fleet.snapshot_bytes > 0,
           "fleet: epochs and checkpoints were recorded");

    Config serial = cfg;
    serial.fleet_jobs = 1;
    Timings t;
    const OpResult one = make_workload("fleet", serial)->run(0, nullptr, &t);
    const OpResult n = make_workload("fleet", cfg)->run(0, nullptr, &t);
    expect(one.checks_ok && n.checks_ok && one.digest == n.digest,
           "fleet: jobs 1 and jobs " + std::to_string(cfg.fleet_jobs) +
               " give identical output");

    std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
}
