/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics are registered with a StatGroup by name and description and
 * can be dumped as formatted text. Supported kinds:
 *  - Scalar: a monotonically updated counter / value.
 *  - Average: running mean of samples.
 *  - Distribution: bucketed histogram with min/max/mean.
 *  - Formula: a derived value computed from other stats at dump time.
 */

#ifndef VCA_STATS_STATISTICS_HH
#define VCA_STATS_STATISTICS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace vca::stats {

class StatGroup;
class StatVisitor;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Write one or more formatted lines describing this stat. */
    virtual void print(std::ostream &os) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

    /** Double-dispatch entry for visitors (exporters, checkers). */
    virtual void accept(StatVisitor &v) const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A plain accumulating counter. */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc)) {}

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void print(std::ostream &os) const override;
    void reset() override { value_ = 0; }
    void accept(StatVisitor &v) const override;

  private:
    double value_ = 0;
};

/** Running mean over explicit samples. */
class Average : public StatBase
{
  public:
    Average(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc)) {}

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }

    void print(std::ostream &os) const override;
    void accept(StatVisitor &v) const override;

    void
    reset() override
    {
        sum_ = 0;
        count_ = 0;
    }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [min, max). */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc,
                 double min, double max, unsigned buckets);

    // Inline: sampled every cycle from the CPU's tick() hot path.
    void
    sample(double v, std::uint64_t n = 1)
    {
        if (samples_ == 0) {
            minSampled_ = v;
            maxSampled_ = v;
        } else {
            minSampled_ = std::min(minSampled_, v);
            maxSampled_ = std::max(maxSampled_, v);
        }
        samples_ += n;
        sum_ += v * n;

        if (v < min_) {
            underflow_ += n;
        } else if (v >= max_) {
            overflow_ += n;
        } else {
            auto idx = static_cast<size_t>((v - min_) / bucketSize_);
            idx = std::min(idx, counts_.size() - 1);
            counts_[idx] += n;
        }
    }

    std::uint64_t totalSamples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    double minSampled() const { return minSampled_; }
    double maxSampled() const { return maxSampled_; }
    std::uint64_t bucketCount(unsigned i) const { return counts_.at(i); }
    std::uint64_t underflows() const { return underflow_; }
    std::uint64_t overflows() const { return overflow_; }

    void print(std::ostream &os) const override;
    void reset() override;
    void accept(StatVisitor &v) const override;

    double bucketMin() const { return min_; }
    double bucketMax() const { return max_; }
    double bucketSize() const { return bucketSize_; }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(counts_.size());
    }

  private:
    double min_;
    double max_;
    double bucketSize_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0;
    double minSampled_ = 0;
    double maxSampled_ = 0;
};

/** A value computed on demand from other statistics. */
class Formula : public StatBase
{
  public:
    using Func = std::function<double()>;

    Formula(StatGroup *parent, std::string name, std::string desc, Func f)
        : StatBase(parent, std::move(name), std::move(desc)),
          func_(std::move(f)) {}

    double value() const { return func_ ? func_() : 0.0; }

    void print(std::ostream &os) const override;
    void reset() override {}
    void accept(StatVisitor &v) const override;

  private:
    Func func_;
};

/**
 * Visitor over a statistics tree. dumpJson() and the interval
 * exporter are built on this; checks and new output formats get the
 * full tree without the stats package knowing about them.
 *
 * StatGroup::visit() calls beginGroup/endGroup around each group and
 * accept()s every stat (sorted by name) in between.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const StatGroup &group) { (void)group; }
    virtual void endGroup(const StatGroup &group) { (void)group; }

    virtual void visitScalar(const Scalar &s) { (void)s; }
    virtual void visitAverage(const Average &a) { (void)a; }
    virtual void visitDistribution(const Distribution &d) { (void)d; }
    virtual void visitFormula(const Formula &f) { (void)f; }
};

/**
 * A named collection of statistics. Groups may nest; names are dotted
 * paths at dump time (e.g. "cpu.dcache.accesses").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &groupName() const { return name_; }

    /** Dotted path from the root group. */
    std::string path() const;

    /** Print all stats in this group and children, sorted by name. */
    void dump(std::ostream &os) const;

    /** Reset all stats in this group and children. */
    void resetStats();

    /** Find a stat by name within this group only (nullptr if absent). */
    const StatBase *find(const std::string &name) const;

    /**
     * Resolve a dotted path to a stat anywhere below this group, e.g.
     * findPath("dcache.accesses"). The leading component may name this
     * group itself ("cpu.dcache.accesses" on the "cpu" group), so full
     * dump paths resolve from the group they start at. nullptr when
     * any component is missing.
     */
    const StatBase *findPath(const std::string &dotted) const;

    /** Resolve a dotted path to a child group (same root rule). */
    const StatGroup *findGroup(const std::string &dotted) const;

    /** Immediate child group by name (nullptr if absent). */
    const StatGroup *childGroup(const std::string &name) const;

    /**
     * Walk this group and every descendant with a visitor: beginGroup,
     * stats sorted by name, child groups, endGroup.
     */
    void visit(StatVisitor &v) const;

  private:
    friend class StatBase;
    void addStat(StatBase *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    std::string name_;
    StatGroup *parent_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace vca::stats

#endif // VCA_STATS_STATISTICS_HH
