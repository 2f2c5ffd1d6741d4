#include "probe.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench {

void
Histogram::add(double v)
{
    int b = 0;
    if (v >= 1.0) {
        b = static_cast<int>(std::log2(v) * kPerOctave);
        b = std::min(b, kBuckets - 1);
    }
    ++counts_[static_cast<std::size_t>(b)];
    ++n_;
}

void
Histogram::merge(const Histogram& o)
{
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    n_ += o.n_;
}

double
Histogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    const double rank = q * static_cast<double>(n_ - 1) + 0.5;
    double below = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
        const double c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
        if (c > 0.0 && below + c >= rank) {
            const double lo = std::exp2(static_cast<double>(b) / kPerOctave);
            const double frac = (rank - below) / c;
            return lo * std::exp2(frac / kPerOctave);
        }
        below += c;
    }
    return std::exp2(static_cast<double>(kBuckets) / kPerOctave);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    const double frac = pos - static_cast<double>(i);
    return v[i] + frac * (v[i + 1] - v[i]);
}

namespace {

/**
 * Sink time spent inside the governor call running on this thread.
 * Governors emit telemetry from tick(), so without this the sink's
 * time would be charged to the governor as well.
 */
thread_local double* tls_nested_sink_ns = nullptr;

/** Charge `ns` of sink time to the enclosing governor call, if any. */
void
charge_sink(double ns)
{
    if (tls_nested_sink_ns != nullptr)
        *tls_nested_sink_ns += ns;
}

/** Times one governor call; stop() returns its self time. */
class GovernorCall
{
  public:
    GovernorCall()
        : saved_(tls_nested_sink_ns), start_(Clock::now())
    {
        tls_nested_sink_ns = &nested_;
    }
    ~GovernorCall() { tls_nested_sink_ns = saved_; }
    GovernorCall(const GovernorCall&) = delete;
    GovernorCall& operator=(const GovernorCall&) = delete;

    Clock::time_point start() const { return start_; }

    /** Self nanoseconds: wall time minus nested sink time. */
    double stop(Clock::time_point end) const
    {
        return ns_between(start_, end) - nested_;
    }

  private:
    double* saved_;
    double nested_ = 0.0;
    Clock::time_point start_;
};

} // namespace

TimedGovernor::TimedGovernor(std::unique_ptr<ppm::sim::Governor> inner)
    : inner_(std::move(inner))
{
}

void
TimedGovernor::init(ppm::sim::Simulation& sim)
{
    inner_->init(sim);
    last_rounds_ = inner_->clearing_stats().rounds;
}

void
TimedGovernor::note_call(Clock::time_point t0, Clock::time_point t1,
                         double self_ns)
{
    if (!probe_.touched) {
        probe_.touched = true;
        probe_.first = t0;
        probe_.thread = std::this_thread::get_id();
    }
    probe_.last = t1;
    probe_.epoch_busy_ns += self_ns;
}

void
TimedGovernor::tick(ppm::sim::Simulation& sim, ppm::SimTime now,
                    ppm::SimTime dt)
{
    double ns = 0.0;
    {
        GovernorCall call;
        inner_->tick(sim, now, dt);
        const Clock::time_point t1 = Clock::now();
        ns = call.stop(t1);
        note_call(call.start(), t1, ns);
    }
    ++probe_.ticks;
    probe_.tick_ns += ns;
    const long rounds = inner_->clearing_stats().rounds;
    if (rounds != last_rounds_) {
        ++probe_.market_ticks;
        probe_.market_ns += ns;
        const long delta = rounds - last_rounds_;
        for (long i = 0; i < delta; ++i)
            probe_.round_ns.add(ns / static_cast<double>(delta));
        last_rounds_ = rounds;
    }
}

void
TimedGovernor::replay_quiescent(const ppm::sim::Simulation& sim,
                                const std::vector<ppm::Watts>& cluster_power,
                                long n)
{
    GovernorCall call;
    inner_->replay_quiescent(sim, cluster_power, n);
    const Clock::time_point t1 = Clock::now();
    const double ns = call.stop(t1);
    ++probe_.replay_calls;
    probe_.replayed_ticks += n;
    probe_.replay_ns += ns;
    note_call(call.start(), t1, ns);
}

void
TimedGovernor::load(ppm::snap::Reader& r)
{
    inner_->load(r);
    last_rounds_ = inner_->clearing_stats().rounds;
}

void
TimedSink::sample(const std::string& series, ppm::SimTime time,
                  double value)
{
    const Clock::time_point t0 = Clock::now();
    inner_->sample(series, time, value);
    const double ns = ns_between(t0, Clock::now());
    probe_.ns += ns;
    charge_sink(ns);
    ++probe_.records;
}

void
TimedSink::event(const ppm::metrics::TraceEvent& e)
{
    const Clock::time_point t0 = Clock::now();
    inner_->event(e);
    const double ns = ns_between(t0, Clock::now());
    probe_.ns += ns;
    charge_sink(ns);
    ++probe_.records;
}

void
TimedSink::flush()
{
    const Clock::time_point t0 = Clock::now();
    inner_->flush();
    const double ns = ns_between(t0, Clock::now());
    probe_.ns += ns;
    charge_sink(ns);
}

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
hash_bytes(std::uint64_t h, const char* p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ static_cast<unsigned char>(p[i])) * kFnvPrime;
    return h;
}

} // namespace

CountingBuf::CountingBuf() : buf_(kBlock)
{
    setp(buf_.data(), buf_.data() + buf_.size());
}

CountingBuf::int_type
CountingBuf::overflow(int_type c)
{
    if (pptr() == epptr()) {
        // A full block: hash it a word at a time and start over.
        const char* p = pbase();
        for (std::size_t i = 0; i < kBlock; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, sizeof w);
            hash_ = std::rotl((hash_ ^ w) * 0x9e3779b97f4a7c15ULL, 31);
        }
        consumed_ += kBlock;
        setp(buf_.data(), buf_.data() + buf_.size());
    }
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(c);
        pbump(1);
    }
    return traits_type::not_eof(c);
}

std::uint64_t
CountingBuf::bytes() const
{
    return consumed_ + static_cast<std::uint64_t>(pptr() - pbase());
}

std::uint64_t
CountingBuf::digest() const
{
    return hash_bytes(hash_, pbase(),
                      static_cast<std::size_t>(pptr() - pbase()));
}

namespace {

/**
 * The gauge kernel: sort and scan 4096 pseudo-random doubles twice,
 * then churn a small std::map of short vectors (allocation-heavy, like
 * building a simulation).  Each half alone tracked some slowdowns of
 * the workloads and missed others; together they track them best.
 * Returns its time in ms.
 */
double
gauge_kernel_ms()
{
    const Clock::time_point t0 = Clock::now();
    std::vector<double> a(4096), b(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    double acc = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        for (double& d : a)
            d = static_cast<double>(next() >> 11) * 0x1.0p-53;
        std::sort(a.begin(), a.end());
        for (std::size_t i = 0; i < a.size(); ++i) {
            b[i] = std::sqrt(a[i] + acc) * 1.0001;
            acc += b[i] * 1e-9;
            if (a[i] > 0.5)
                acc -= 1e-12;
        }
    }
    // Small live set (at most 64 x 16 doubles) so that the helper
    // threads' malloc arenas do not show in the peak RSS.
    std::map<int, std::vector<double>> m;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t r = next();
        m[static_cast<int>(r % 64)].assign(1 + r % 16, acc);
        if (i % 3 == 0)
            m.erase(static_cast<int>((r >> 20) % 64));
    }
    acc += static_cast<double>(m.size());
    // Keep the result observable so the work cannot be dropped.
    static std::atomic<double> sink{0.0};
    sink.store(acc, std::memory_order_relaxed);
    return ns_between(t0, Clock::now()) / 1e6;
}

} // namespace

void
HostSpeed::sample()
{
    std::vector<double> ms(static_cast<std::size_t>(threads_), 0.0);
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads_; ++t)
        helpers.emplace_back([&ms, t]() {
            ms[static_cast<std::size_t>(t)] = gauge_kernel_ms();
        });
    ms[0] = gauge_kernel_ms();
    for (std::thread& h : helpers)
        h.join();
    ms_.push_back(*std::max_element(ms.begin(), ms.end()));
}

double
HostSpeed::median_ms(std::size_t from) const
{
    if (from >= ms_.size())
        return kReferenceMs;
    return median(std::vector<double>(
        ms_.begin() + static_cast<std::ptrdiff_t>(from), ms_.end()));
}

std::uint64_t
fnv1a(const std::string& s)
{
    return hash_bytes(0xcbf29ce484222325ULL, s.data(), s.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

long
SpanLog::begin(const char* name, long parent, Clock::time_point start,
               long arg)
{
    Span s;
    s.name = name;
    s.id = static_cast<long>(spans_.size());
    s.parent = parent;
    s.start_us = ns_between(t0_, start) / 1e3;
    s.end_us = s.start_us;
    s.arg = arg;
    spans_.push_back(s);
    return s.id;
}

void
SpanLog::end(long id, Clock::time_point end)
{
    spans_[static_cast<std::size_t>(id)].end_us = ns_between(t0_, end) / 1e3;
}

bool
SpanLog::write(const std::string& path) const
{
    std::ofstream out(path);
    for (const Span& s : spans_) {
        char line[192];
        std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"id\":%ld,\"parent\":%ld,"
                      "\"start_us\":%.3f,\"end_us\":%.3f,\"arg\":%ld}\n",
                      s.name, s.id, s.parent, s.start_us, s.end_us, s.arg);
        out << line;
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
