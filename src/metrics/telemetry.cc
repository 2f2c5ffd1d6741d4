#include "metrics/telemetry.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"

namespace ppm::metrics {

namespace {

/** Compact JSON number: up to 9 significant digits, no trailing cruft. */
std::string
json_number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** JSON string escaping for our own series/field names and labels. */
std::string
json_string(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

TraceEvent&
TraceEvent::set(std::string key, double value)
{
    num.emplace_back(std::move(key), value);
    return *this;
}

TraceEvent&
TraceEvent::set(std::string key, std::string value)
{
    str.emplace_back(std::move(key), std::move(value));
    return *this;
}

EventScratch::EventScratch(std::string type)
    : event_(std::move(type), 0)
{
}

void
EventScratch::begin(SimTime time)
{
    event_.time = time;
    num_i_ = 0;
    str_i_ = 0;
}

EventScratch&
EventScratch::num(const char* key, double value)
{
    if (num_i_ < num_keys_.size() && num_keys_[num_i_] == key) {
        event_.num[num_i_].second = value;  // Steady state: in place.
    } else {
        // Layout changed at this position: drop the stale tail and
        // rebuild from here (allocates -- once per layout change).
        num_keys_.resize(num_i_);
        event_.num.resize(num_i_);
        num_keys_.push_back(key);
        event_.num.emplace_back(key, value);
    }
    ++num_i_;
    return *this;
}

EventScratch&
EventScratch::str(const char* key, const char* value)
{
    if (str_i_ < str_keys_.size() && str_keys_[str_i_] == key) {
        event_.str[str_i_].second = value;  // SSO labels: no alloc.
    } else {
        str_keys_.resize(str_i_);
        event_.str.resize(str_i_);
        str_keys_.push_back(key);
        event_.str.emplace_back(key, value);
    }
    ++str_i_;
    return *this;
}

const TraceEvent&
EventScratch::finish()
{
    // An emission with fewer fields than the last one leaves a stale
    // tail; truncate so the event carries exactly what was emitted.
    if (num_i_ < num_keys_.size()) {
        num_keys_.resize(num_i_);
        event_.num.resize(num_i_);
    }
    if (str_i_ < str_keys_.size()) {
        str_keys_.resize(str_i_);
        event_.str.resize(str_i_);
    }
    return event_;
}

void
TraceSink::event(const TraceEvent& e)
{
    for (const auto& [key, value] : e.num)
        sample(key, e.time, value);
}

MemorySink::MemorySink(TraceRecorder* recorder) : recorder_(recorder)
{
    PPM_ASSERT(recorder_ != nullptr, "memory sink needs a recorder");
}

void
MemorySink::sample(const std::string& series, SimTime time, double value)
{
    recorder_->record(series, time, value);
}

CsvStreamSink::CsvStreamSink(std::ostream& os, bool write_header)
    : os_(&os)
{
    if (write_header)
        *os_ << "time_s,series,value\n";
    check_stream();
}

void
CsvStreamSink::check_stream()
{
    if (failed_ || *os_)
        return;
    failed_ = true;
    std::fprintf(stderr,
                 "warning: CSV trace stream write failed; "
                 "dropping further trace output\n");
}

void
CsvStreamSink::sample(const std::string& series, SimTime time,
                      double value)
{
    if (failed_)
        return;
    *os_ << fmt_double(to_seconds(time), 3) << ',' << series << ','
         << fmt_double(value, 6) << '\n';
    check_stream();
}

void
CsvStreamSink::flush()
{
    if (failed_)
        return;
    os_->flush();
    check_stream();
}

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

void
JsonlSink::check_stream()
{
    if (failed_ || *os_)
        return;
    failed_ = true;
    std::fprintf(stderr,
                 "warning: JSONL trace stream write failed; "
                 "dropping further trace output\n");
}

void
JsonlSink::sample(const std::string& series, SimTime time, double value)
{
    if (failed_)
        return;
    *os_ << "{\"type\":\"sample\",\"t_s\":"
         << fmt_double(to_seconds(time), 3)
         << ",\"series\":" << json_string(series)
         << ",\"value\":" << json_number(value) << "}\n";
    check_stream();
}

void
JsonlSink::event(const TraceEvent& e)
{
    if (failed_)
        return;
    *os_ << "{\"type\":" << json_string(e.type)
         << ",\"t_s\":" << fmt_double(to_seconds(e.time), 3);
    for (const auto& [key, value] : e.str)
        *os_ << ',' << json_string(key) << ':' << json_string(value);
    for (const auto& [key, value] : e.num)
        *os_ << ',' << json_string(key) << ':' << json_number(value);
    *os_ << "}\n";
    check_stream();
}

void
JsonlSink::flush()
{
    if (failed_)
        return;
    os_->flush();
    check_stream();
}

void
TraceBus::add_sink(std::unique_ptr<TraceSink> sink)
{
    PPM_ASSERT(sink != nullptr, "cannot attach a null sink");
    sinks_.push_back(sink.get());
    owned_.push_back(std::move(sink));
}

void
TraceBus::add_sink(TraceSink* sink)
{
    PPM_ASSERT(sink != nullptr, "cannot attach a null sink");
    sinks_.push_back(sink);
}

SeriesId
TraceBus::intern(std::string_view name)
{
    const auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<SeriesId>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
}

const std::string&
TraceBus::name_of(SeriesId id) const
{
    PPM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
               "series id was not interned on this bus");
    return names_[static_cast<std::size_t>(id)];
}

void
TraceBus::reserve_id(SeriesId id)
{
    const auto need = static_cast<std::size_t>(id) + 1;
    if (counter_vals_.size() < need) {
        // Size to the full intern table: one growth covers every id
        // handed out so far instead of creeping up id by id.
        const std::size_t to = std::max(need, names_.size());
        counter_vals_.resize(to, 0);
        hist_vals_.resize(to);
        counter_touched_.resize(to, 0);
        hist_touched_.resize(to, 0);
    }
}

void
TraceBus::sample(SeriesId series, SimTime time, double value)
{
    if (!enabled())
        return;
    const std::string& name = name_of(series);
    for (TraceSink* s : sinks_)
        s->sample(name, time, value);
}

void
TraceBus::count(SeriesId id, long delta)
{
    if (!enabled())
        return;
    reserve_id(id);
    counter_vals_[static_cast<std::size_t>(id)] += delta;
    counter_touched_[static_cast<std::size_t>(id)] = 1;
}

void
TraceBus::observe(SeriesId id, double value)
{
    if (!enabled())
        return;
    reserve_id(id);
    hist_vals_[static_cast<std::size_t>(id)].add(value);
    hist_touched_[static_cast<std::size_t>(id)] = 1;
}

long
TraceBus::counter(SeriesId id) const
{
    const auto i = static_cast<std::size_t>(id);
    return i < counter_vals_.size() ? counter_vals_[i] : 0;
}

const OnlineStats*
TraceBus::histogram(SeriesId id) const
{
    const auto i = static_cast<std::size_t>(id);
    return i < hist_vals_.size() && hist_touched_[i] ? &hist_vals_[i]
                                                     : nullptr;
}

void
TraceBus::event(const TraceEvent& e)
{
    for (TraceSink* s : sinks_)
        s->event(e);
}

long
TraceBus::counter(const std::string& name) const
{
    const auto it = index_.find(name);
    return it == index_.end() ? 0 : counter(it->second);
}

std::map<std::string, long>
TraceBus::counters() const
{
    std::map<std::string, long> out;
    for (std::size_t i = 0; i < counter_vals_.size(); ++i) {
        if (counter_touched_[i])
            out.emplace(names_[i], counter_vals_[i]);
    }
    return out;
}

const OnlineStats*
TraceBus::histogram(const std::string& name) const
{
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : histogram(it->second);
}

std::map<std::string, OnlineStats>
TraceBus::histograms() const
{
    std::map<std::string, OnlineStats> out;
    for (std::size_t i = 0; i < hist_vals_.size(); ++i) {
        if (hist_touched_[i])
            out.emplace(names_[i], hist_vals_[i]);
    }
    return out;
}

void
TraceBus::flush()
{
    for (TraceSink* s : sinks_)
        s->flush();
}

} // namespace ppm::metrics
