/**
 * @file
 * In-memory span recorder for the benchmark driver.
 *
 * Spans are opened and closed by the driver around its own calls into
 * the simulator's public API; nothing inside the simulator is touched.
 * They stay in a vector and are written once, at exit, as Chrome
 * trace_event JSON ("X" events) that Perfetto opens. Each span carries
 * its own id, its parent's id and a trace id (one per System run or
 * layer-driver pass), plus an operation count for batched spans.
 */

#ifndef NOMAD_PERFBENCH_SPANS_HH
#define NOMAD_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanRecorder
{
  public:
    using SpanId = std::int32_t;
    static constexpr SpanId NoSpan = -1;

    SpanRecorder() : origin_(Clock::now()) {}

    /** A fresh trace id; one per System run or driver pass. */
    std::uint32_t newTrace() { return ++lastTrace_; }

    SpanId
    open(const char *name, SpanId parent, std::uint32_t trace)
    {
        spans_.push_back(Span{name, Clock::now(), {}, parent, trace, 0});
        return static_cast<SpanId>(spans_.size() - 1);
    }

    /** Close @p id; @p ops is the number of calls a batch span covers. */
    void
    close(SpanId id, std::uint64_t ops = 0)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = Clock::now();
        s.ops = ops;
    }

    /** {"traceEvents": [...]} with ts/dur in microseconds. */
    void
    writeChromeJson(std::ostream &os) const
    {
        os.setf(std::ios::fixed);
        os.precision(3);
        os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
               << ", \"ts\": " << micros(s.start)
               << ", \"dur\": " << micros(s.end) - micros(s.start)
               << ", \"args\": {\"span\": " << i
               << ", \"parent\": " << s.parent
               << ", \"trace\": " << s.trace << ", \"ops\": " << s.ops
               << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        SpanId parent;
        std::uint32_t trace;
        std::uint64_t ops;
    };

    /** Microseconds since the recorder was built, printed to ns. */
    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::uint32_t lastTrace_ = 0;
};

/** Closes its span on scope exit. A null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name,
              SpanRecorder::SpanId parent, std::uint32_t trace)
        : rec_(rec),
          id_(rec ? rec->open(name, parent, trace) : SpanRecorder::NoSpan)
    {}

    ~SpanScope()
    {
        if (rec_)
            rec_->close(id_, ops);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    SpanRecorder::SpanId id() const { return id_; }

    /** Calls covered by this span (batched layer-driver spans). */
    std::uint64_t ops = 0;

  private:
    SpanRecorder *rec_;
    SpanRecorder::SpanId id_;
};

} // namespace perfbench

#endif // NOMAD_PERFBENCH_SPANS_HH
