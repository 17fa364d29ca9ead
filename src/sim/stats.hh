/**
 * @file
 * A small gem5-flavoured statistics framework.
 *
 * Components declare statistics as members (Scalar, Average, Distribution,
 * Lambda) and register them with the simulation's StatRegistry under a
 * dotted hierarchical name. The registry can dump all statistics as text
 * (gem5 stats.txt style) or as hierarchical JSON with per-stat metadata
 * (see docs/OBSERVABILITY.md for the schema), and reset them (e.g.,
 * after warm-up). Every stat also exposes a scalar snapshot() so the
 * StatSampler can record any of them as a time series.
 */

#ifndef NOMAD_SIM_STATS_HH
#define NOMAD_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "json.hh"
#include "types.hh"

namespace nomad::stats
{

/** The concrete statistic kinds, as reported in the JSON export. */
enum class Kind
{
    Scalar,
    Average,
    Distribution,
    Lambda,
};

inline const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Scalar: return "scalar";
      case Kind::Average: return "average";
      case Kind::Distribution: return "distribution";
      case Kind::Lambda: return "lambda";
    }
    return "unknown";
}

/** Base class of all statistic kinds. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** The concrete kind, for JSON metadata. */
    virtual Kind kind() const = 0;

    /**
     * The headline scalar value: the count for a Scalar, the mean for
     * an Average/Distribution, the computed value for a Lambda. This
     * is what the StatSampler records each sampling period.
     */
    virtual double snapshot() const = 0;

    /** Print "value(s)" for the text dump (no name/desc). */
    virtual void print(std::ostream &os) const = 0;

    /**
     * Write this stat's value payload as JSON (everything except the
     * name/desc/kind envelope, which the registry emits).
     */
    virtual void printJsonValues(std::ostream &os) const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A simple additive counter / value. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    // Mutators return *this so updates chain ((s = 1) += 2) without
    // ever yielding a non-const copy of the stat.
    Scalar &operator+=(double v) noexcept { value_ += v; return *this; }
    Scalar &operator-=(double v) noexcept { value_ -= v; return *this; }
    Scalar &operator++() noexcept { value_ += 1.0; return *this; }
    Scalar &operator--() noexcept { value_ -= 1.0; return *this; }
    Scalar &operator=(double v) noexcept { value_ = v; return *this; }

    double value() const noexcept { return value_; }

    Kind kind() const override { return Kind::Scalar; }
    double snapshot() const override { return value_; }

    void print(std::ostream &os) const override { os << value_; }

    void
    printJsonValues(std::ostream &os) const override
    {
        os << "\"value\": ";
        json::writeNumber(os, value_);
    }

    void reset() override { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** Mean of sampled values. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    /** Uniform accessor (the mean), mirroring Scalar::value(). */
    double value() const { return mean(); }

    Kind kind() const override { return Kind::Average; }
    double snapshot() const override { return mean(); }

    void
    print(std::ostream &os) const override
    {
        os << mean() << " (n=" << count_ << ", min=" << minValue()
           << ", max=" << maxValue() << ")";
    }

    void
    printJsonValues(std::ostream &os) const override
    {
        os << "\"mean\": ";
        json::writeNumber(os, mean());
        os << ", \"count\": ";
        json::writeNumber(os, static_cast<double>(count_));
        os << ", \"sum\": ";
        json::writeNumber(os, sum_);
        os << ", \"min\": ";
        json::writeNumber(os, minValue());
        os << ", \"max\": ";
        json::writeNumber(os, maxValue());
    }

    void
    reset() override
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::max();
        max_ = std::numeric_limits<double>::lowest();
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::max();
    double max_ = std::numeric_limits<double>::lowest();
};

/**
 * Linear-bucket histogram over [0, bucket_width * num_buckets);
 * samples beyond the last bucket land in an overflow bucket.
 */
class Distribution : public StatBase
{
  public:
    Distribution(std::string name, std::string desc, double bucket_width,
                 std::size_t num_buckets)
        : StatBase(std::move(name), std::move(desc)),
          bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
    {}

    void
    sample(double v)
    {
        avg_.sample(v);
        auto idx = static_cast<std::size_t>(v / bucketWidth_);
        if (idx >= buckets_.size() - 1)
            idx = buckets_.size() - 1;
        buckets_[idx]++;
    }

    double mean() const { return avg_.mean(); }
    std::uint64_t count() const { return avg_.count(); }
    double maxValue() const { return avg_.maxValue(); }

    /** Uniform accessor (the mean), mirroring Scalar::value(). */
    double value() const { return mean(); }

    /** Count in bucket @p idx (the last bucket is the overflow bucket). */
    std::uint64_t bucketCount(std::size_t idx) const { return buckets_[idx]; }

    /**
     * Percentile estimate from the histogram: the upper edge of the
     * first bucket whose cumulative count reaches @p p (0..1) of the
     * samples. Deterministic (pure bucket walk); samples landing in
     * the overflow bucket report the exact observed maximum.
     */
    double
    percentile(double p) const
    {
        const std::uint64_t n = count();
        if (n == 0)
            return 0.0;
        auto want = static_cast<std::uint64_t>(p * static_cast<double>(n));
        if (want < 1)
            want = 1;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i + 1 < buckets_.size(); ++i) {
            cum += buckets_[i];
            if (cum >= want)
                return bucketWidth_ * static_cast<double>(i + 1);
        }
        return maxValue();
    }

    Kind kind() const override { return Kind::Distribution; }
    double snapshot() const override { return mean(); }

    void
    print(std::ostream &os) const override
    {
        os << "mean=" << mean() << " n=" << count() << " buckets=[";
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            os << (i ? " " : "") << buckets_[i];
        os << "]";
    }

    void
    printJsonValues(std::ostream &os) const override
    {
        os << "\"mean\": ";
        json::writeNumber(os, mean());
        os << ", \"count\": ";
        json::writeNumber(os, static_cast<double>(count()));
        os << ", \"max\": ";
        json::writeNumber(os, maxValue());
        os << ", \"bucket_width\": ";
        json::writeNumber(os, bucketWidth_);
        // The final bucket is the overflow bucket.
        os << ", \"buckets\": [";
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            if (i)
                os << ", ";
            json::writeNumber(os, static_cast<double>(buckets_[i]));
        }
        os << "]";
    }

    void
    reset() override
    {
        avg_.reset();
        std::fill(buckets_.begin(), buckets_.end(), 0);
    }

  private:
    Average avg_{"", ""};
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
};

/** A value computed on demand (gem5 Formula analogue). */
class Lambda : public StatBase
{
  public:
    Lambda(std::string name, std::string desc,
           std::function<double()> fn)
        : StatBase(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const { return fn_(); }

    Kind kind() const override { return Kind::Lambda; }
    double snapshot() const override { return fn_(); }

    void print(std::ostream &os) const override { os << fn_(); }

    void
    printJsonValues(std::ostream &os) const override
    {
        os << "\"value\": ";
        json::writeNumber(os, fn_());
    }

    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * Non-owning registry of all statistics in a simulation.
 *
 * Components keep their statistics as members and register them here;
 * the components must outlive any dump() call.
 */
class StatRegistry
{
  public:
    void add(StatBase *stat) { stats_.push_back(stat); }

    /** Dump "name value # desc" lines, gem5 stats.txt style. */
    void
    dump(std::ostream &os) const
    {
        for (const auto *s : stats_) {
            os << std::left << std::setw(52) << s->name() << " ";
            s->print(os);
            if (!s->desc().empty())
                os << "  # " << s->desc();
            os << "\n";
        }
    }

    /**
     * Dump every statistic as one hierarchical JSON object: dotted
     * names become nested objects ("hbm.bytes.demand" lands at
     * stats.hbm.bytes.demand) and each leaf is an object carrying
     * "kind", "desc" and the kind-specific value fields. See
     * docs/OBSERVABILITY.md for the schema. Sibling order is
     * lexicographic, so the output is deterministic.
     */
    void
    dumpJson(std::ostream &os) const
    {
        Node root;
        for (const auto *s : stats_) {
            Node *node = &root;
            const std::string &name = s->name();
            std::size_t begin = 0;
            while (begin <= name.size()) {
                std::size_t dot = name.find('.', begin);
                if (dot == std::string::npos)
                    dot = name.size();
                node = &node->children[name.substr(begin, dot - begin)];
                begin = dot + 1;
            }
            node->stat = s;
        }
        printNode(os, root, 0);
        os << "\n";
    }

    /** Reset every registered statistic (e.g., at the end of warm-up). */
    void
    resetAll()
    {
        for (auto *s : stats_)
            s->reset();
    }

    /** Find a statistic by exact dotted name; nullptr if absent. */
    const StatBase *
    find(const std::string &name) const
    {
        for (const auto *s : stats_)
            if (s->name() == name)
                return s;
        return nullptr;
    }

    std::size_t size() const { return stats_.size(); }

    /** All registered stats, in registration order. */
    const std::vector<StatBase *> &all() const { return stats_; }

  private:
    /** One level of the dotted-name hierarchy for dumpJson(). */
    struct Node
    {
        std::map<std::string, Node> children;
        const StatBase *stat = nullptr;
    };

    static void
    printNode(std::ostream &os, const Node &node, int depth)
    {
        const std::string pad(2 * (depth + 1), ' ');
        os << "{";
        bool first = true;
        auto sep = [&]() {
            os << (first ? "\n" : ",\n") << pad;
            first = false;
        };
        if (node.stat) {
            // Leaf payload; a name that is also a group prefix keeps
            // its children as extra keys next to the metadata.
            sep();
            os << "\"kind\": \"" << kindName(node.stat->kind()) << "\"";
            sep();
            os << "\"desc\": ";
            json::writeString(os, node.stat->desc());
            sep();
            node.stat->printJsonValues(os);
        }
        for (const auto &[key, child] : node.children) {
            sep();
            json::writeString(os, key);
            os << ": ";
            printNode(os, child, depth + 1);
        }
        if (!first)
            os << "\n" << std::string(2 * depth, ' ');
        os << "}";
    }

    std::vector<StatBase *> stats_;
};

} // namespace nomad::stats

#endif // NOMAD_SIM_STATS_HH
