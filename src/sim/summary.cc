/**
 * @file
 * The RunSummary reducers and renderings, each one walk of
 * RunSummary::fields: the fingerprint, the first differing field, the
 * fleet's chip combine and the cross-seed mean.
 */

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "sim/simulation.hh"

namespace ppm::sim {
namespace {

std::string
render(const std::string& v)
{
    return v;
}

std::string
render(long v)
{
    return std::to_string(v);
}

std::string
render(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Fingerprint (one summary) or first difference (two): every value
 * rendered, task vectors element by element.
 */
struct Render {
    std::string out;

    template <class T>
    void operator()(const char*, Combine, const T& v)
    {
        out += render(v) + '\n';
    }

    template <class T>
    void operator()(const std::string& name, Combine, const T& a,
                    const T& b)
    {
        if (out.empty() && render(a) != render(b))
            out = "summary field " + name + " differs: " + render(a) +
                  " vs " + render(b);
    }

    void operator()(const char* name, Combine kind,
                    const std::vector<double>& a,
                    const std::vector<double>& b)
    {
        if (a.size() != b.size()) {
            (*this)(name, kind, std::to_string(a.size()) + " tasks",
                    std::to_string(b.size()) + " tasks");
            return;
        }
        for (std::size_t t = 0; t < a.size(); ++t) {
            (*this)(name + ("[" + std::to_string(t) + "]"), kind, a[t],
                    b[t]);
        }
    }

    void operator()(const char*, Combine, const std::vector<double>& v)
    {
        for (const double x : v)
            out += render(x) + '\n';
    }
};

/** Folds one chip's summary into the fleet's, from zero. */
struct ChipCombine {
    double n;
    bool first = true;

    void operator()(const char*, Combine, std::string& acc,
                    const std::string& x)
    {
        if (first)
            acc = x;
    }

    void operator()(const char*, Combine kind, double& acc, double x)
    {
        if (kind == Combine::kRate)
            acc += x / n;
        else if (kind == Combine::kPeak)
            acc = std::max(acc, x);
        else
            acc += x;
    }

    void operator()(const char*, Combine, long& acc, long x) { acc += x; }

    void operator()(const char*, Combine, std::vector<double>& acc,
                    const std::vector<double>& x)
    {
        acc.insert(acc.end(), x.begin(), x.end());
    }
};

/** Adds one seed's summary into the running total of the seeds. */
struct SeedSum {
    void operator()(const char*, Combine, std::string&, const std::string&) {}

    void operator()(const char*, Combine kind, double& acc, double x)
    {
        // Worst seed sets the thermal envelope.
        acc = kind == Combine::kPeak ? std::max(acc, x) : acc + x;
    }

    void operator()(const char*, Combine, long& acc, long x) { acc += x; }

    void operator()(const char*, Combine, std::vector<double>& acc,
                    const std::vector<double>& x)
    {
        PPM_ASSERT(x.size() == acc.size(),
                   "summaries must cover the same task count");
        for (std::size_t t = 0; t < acc.size(); ++t)
            acc[t] += x[t];
    }
};

/** Turns a seed total into the seed mean. */
struct SeedDivide {
    double n;

    void operator()(const char*, Combine, std::string&) {}

    void operator()(const char*, Combine kind, double& v)
    {
        if (kind != Combine::kPeak)
            v /= n;
    }

    void operator()(const char*, Combine, long& v)
    {
        v = static_cast<long>(v / n);
    }

    void operator()(const char*, Combine, std::vector<double>& v)
    {
        for (double& x : v)
            x /= n;
    }
};

} // namespace

std::string
summary_fingerprint(const RunSummary& s)
{
    Render op;
    RunSummary::fields(op, s);
    return op.out;
}

std::string
summary_difference(const RunSummary& a, const RunSummary& b)
{
    Render op;
    RunSummary::fields(op, a, b);
    return op.out;
}

RunSummary
combine_chip_summaries(const std::vector<RunSummary>& chips)
{
    PPM_ASSERT(!chips.empty(), "need at least one chip summary");
    // Verbatim: a 1-chip fleet IS its single simulation.
    if (chips.size() == 1)
        return chips.front();
    RunSummary combined;
    ChipCombine op{static_cast<double>(chips.size())};
    for (const RunSummary& s : chips) {
        RunSummary::fields(op, combined, s);
        op.first = false;
    }
    return combined;
}

RunSummary
aggregate_summaries(const std::vector<RunSummary>& seeds)
{
    PPM_ASSERT(!seeds.empty(), "need at least one summary");
    RunSummary avg = seeds.front();
    SeedSum sum;
    for (std::size_t i = 1; i < seeds.size(); ++i)
        RunSummary::fields(sum, avg, seeds[i]);
    SeedDivide divide{static_cast<double>(seeds.size())};
    RunSummary::fields(divide, avg);
    return avg;
}

} // namespace ppm::sim
